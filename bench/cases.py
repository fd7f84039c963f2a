"""Seeded case lists for the three workloads (pure data: no gkzcurve import).

A step is one request: a kind plus JSON-able parameters.  A case is a few
steps timed together; the result file keeps its median time.  Every
parameter is drawn from a fixed pool, so a seed only selects among inputs
whose outputs were recorded in ``golden.json`` and whose cost and
certified term count are close to those of the other pool entries: any
seed gives a pass of similar size.
Seed 0 is the ROADMAP baseline grid: beta = 1 and exponent index 0 for
the three Gamma-series cases, the criterion-3 Gevrey diagonals and the
README command lines.

This module does not import gkzcurve, so that the parent of the
cli-session processes stays small: a child's peak RSS includes the memory
of the process that started it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Non-integer parameters with denominator 2: every Gamma series below then
# has a dense support and coefficients of similar height.
DENSE_BETAS = ("1/2", "3/2", "5/2", "7/2")


@dataclass(frozen=True)
class Step:
    kind: str
    params: tuple

    @property
    def key(self) -> str:
        return self.kind + "|" + "|".join(_fmt(p) for p in self.params)


@dataclass(frozen=True)
class Case:
    name: str
    steps: tuple[Step, ...]

    @property
    def key(self) -> str:
        return " + ".join(s.key for s in self.steps)


def _fmt(p) -> str:
    if isinstance(p, (tuple, list)):
        return ",".join(_fmt(x) for x in p)
    return str(p)


# ---------------------------------------------------------------------------
# pools: each case is a name and a list of steps (kind, baseline,
# alternatives).  Seed 0 takes every baseline; any other seed draws every
# step from its alternatives (a step without alternatives is fixed).


def _dense_pools():
    betas = DENSE_BETAS
    return [
        # 401 terms of about 7,000 bits: big-integer Fraction arithmetic
        ("plane", [
            ("series", ((2, 3), "1", "singular", 0, 2000),
             [((2, 3), b, "singular", i, 2000) for b in betas for i in (0, 1)])]),
        # about 2,400 terms of about 1,000 bits, three operators to apply
        ("smooth3", [
            ("series", ((1, 2, 5), "1", "singular", 0, 220),
             [((1, 2, 5), b, "singular", i, 220) for b in betas for i in (0, 1)])]),
        # 31,827 offsets enumerated for 2,387 terms, four operators: the
        # dense case where enumeration takes its largest share
        ("smooth4", [
            ("series", ((1, 2, 3, 5), "1", "singular", 0, 60),
             [((1, 2, 3, 5), b, "singular", 0, 60) for b in betas])]),
        # homogenize, certify upstairs, restrict to x_0 = 0 and certify
        # against the 32 general binomials; one exponent index, as the others
        # keep 5-15% more terms
        ("roundtrip", [
            ("roundtrip", ((3, 4, 5), "1/2", 0, 40), [((3, 4, 5), b, 1, 40) for b in betas])]),
        # the float fits: criterion-3 diagonals and criterion-8 envelopes
        ("fits", [
            ("gevrey", ((2, 3), "1", 1, 160, 1), [((2, 3), b, 1, 160, 1) for b in betas]),
            ("gevrey", ((1, 2, 5), "1", 0, 220, 2),
             [((1, 2, 5), b, i, 220, 2) for b in betas for i in (0, 1)]),
            ("ext1", ((2, 3), "1", 40), [((2, 3), b, 40) for b in betas])]),
    ]


# minimal exponents with nonempty negative support: the box scan of
# has_minimal_nsupp visits its whole box for each of them
_NSUPP_125 = [(-1, 0, 0), (-2, 0, 0), (-3, 0, 0), (0, -2, 0), (0, -3, 0)]
_NSUPP_137 = [(-1, 0, 0), (-2, 0, 0), (0, -1, 0), (0, -2, 0)]


def _sparse_pools():
    return [
        ("series", [
            # generic exponent (beta, 0, 0): 13,119 offsets visited, 1-2 kept
            ("series", ((1, 2, 5), "1", "generic", 1, 220),
             [((1, 2, 5), str(b), "generic", b, 220) for b in (2, 3)]),
            # homogenized (1 3 4 5), exponent (beta, 0, 0, 0): 8,113 offsets, 1 kept
            ("homseries", ((3, 4, 5), "0", 0, 40), [((3, 4, 5), str(b), b, 40) for b in (0, 1, 2)])]),
        ("nsupp3", [
            ("nsupp", ((1, 2, 5), _NSUPP_125[0]), [((1, 2, 5), v) for v in _NSUPP_125])]),
        ("nsupp7", [
            ("nsupp", ((1, 3, 7), _NSUPP_137[0]), [((1, 3, 7), v) for v in _NSUPP_137])]),
        # the four bounded-lattice recursions besides enumerate_offsets
        # (ROADMAP item 2) and build_system's kernel-ball enumeration
        # (item 4); the polynomial solutions and the Ext^1 generator are
        # exact series whose term counts grow with beta, so they are fixed
        ("exact", [
            ("exact", ((1, 2, 5), "10", (3, 4, 5), "12"), []),
            ("delta", ((3, 4, 5), 1, 24), [((3, 4, 5), j, 24) for j in (0, 1, 2, 3)]),
            ("build", ((3, 4, 5), (4, 5, 6, 7), "0"),
             [(m, (4, 5, 6, 7), b) for m in ((3, 5, 7), (4, 5, 7), (3, 4, 7), (5, 6, 7))
              for b in ("0", "1/2")])]),
        # requests that must be refused under runners.REFUSAL_TERM_CAP; the second is
        # the seven-column request ROADMAP times at 11.6 s under the default cap
        ("refuse", [
            ("refuse", ((1, 2, 3, 4, 5), "1", 40),
             [((1, 2, 3, 4, 5), b, 40) for b in ("1/2", "3/2", "5/2")]),
            ("refuse", ((1, 2, 3, 4, 5, 6, 7), "0", 40),
             [((1, 2, 3, 4, 5, 6, 7), b, 40) for b in ("1/2", "3/2", "5/2")])]),
    ]


# The README command lines, one case each; alternatives keep each command's
# cost to a few milliseconds of compute, so interpreter start and import
# dominate.
def _cli_pools():
    # (2 3) singular series at bound 20: five terms for each of these, and
    # two polynomial terms for each polysol parameter, so every seed
    # certifies the same number of coefficients per pass
    sv_pairs = [("2,3", "1", "1"), ("2,3", "1/2", "0"), ("2,3", "1/2", "1"),
                ("2,3", "3/2", "0"), ("2,3", "5/2", "1")]
    steps = [
        ("exponents", ("2,3", "1"),
         [("2,3", "1/2"), ("2,5", "1"), ("3,4", "1"), ("3,5", "2")]),
        ("series+verify", sv_pairs[0], sv_pairs[1:]),
        ("gevrey-index", ("1",), [("1/2",), ("3/2",), ("5/2",)]),
        ("slopes", ("1,2,5",), [("1,3,7",), ("2,3",), ("1,2,3,5",)]),
        ("dims", ("2", "2"), [("1", "2"), ("2", "5/4"), ("1", "5/4")]),
        ("restrict", ("1,4,6", "5"), [("1,4,6", "1/2"), ("1,2,4", "3"), ("1,4,6", "2")]),
        ("homogenize", ("0",), [("1/2",), ("1",), ("3/2",)]),
        ("bfunction", ("2", "2", "3"), [("1", "2", "3"), ("3", "1", "2"), ("2", "1", "3")]),
        ("polysol", ("6",), [("8",), ("9",), ("10",)]),
        ("solve-ext1", ("1",), [("1/2",), ("2",), ("5/2",)]),
    ]
    return [(step[0], [step]) for step in steps]


POOLS = {
    "dense-certify": _dense_pools,
    "sparse-support": _sparse_pools,
    "cli-session": _cli_pools,
}


def make_cases(workload: str, seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for name, steps in POOLS[workload]():
        chosen = []
        for kind, baseline, alternatives in steps:
            params = baseline if seed == 0 or not alternatives else rng.choice(alternatives)
            chosen.append(Step(kind, tuple(params)))
        cases.append(Case(name, tuple(chosen)))
    return cases


def all_steps(workload: str) -> list[Step]:
    """Every step any seed can produce, for recording the golden outputs."""
    out = []
    for _, steps in POOLS[workload]():
        for kind, baseline, alternatives in steps:
            for params in [baseline] + list(alternatives):
                step = Step(kind, tuple(params))
                if step not in out:
                    out.append(step)
    return out


# ---------------------------------------------------------------------------
# CLI command lines


def cli_argvs(step: Step) -> list[list[str]]:
    """The gkz command line(s) of a cli-session step, in order."""
    p = step.params
    k = step.kind
    if k == "exponents":
        return [["exponents", "-A", p[0], "-b", p[1]]]
    if k == "series+verify":
        tail = ["-A", p[0], "-b", p[1], "--point", "singular", "--index", p[2]]
        return [["series", *tail, "--bound", "20"], ["verify", *tail]]
    if k == "gevrey-index":
        return [["gevrey-index", "-A", "2,3", "-b", p[0], "--point", "singular",
                 "--index", "1", "--bound", "160", "--var", "1"]]
    if k == "slopes":
        return [["slopes", "-A", p[0]]]
    if k == "dims":
        return [["dims", "-A", "2,3", "-b", p[0], "-s", p[1], "--output", "text"]]
    if k == "restrict":
        return [["restrict", "-A", p[0], "-b", p[1]]]
    if k == "homogenize":
        return [["homogenize", "-A", "3,4,5", "-b", p[0]]]
    if k == "bfunction":
        return [["bfunction", "-k", p[0], "-a", p[1], "-b", p[2]]]
    if k == "polysol":
        return [["polysol", "-A", "2,3", "-b", p[0]]]
    if k == "solve-ext1":
        return [["solve-ext1", "-A", "2,3", "-b", p[0], "--epsilon", "1",
                 "--f", '[{"k":0,"m":0,"coeff":"1"}]']]
    raise ValueError(f"unknown cli case {k!r}")


def cli_commands(cases: list[Case]) -> list[list[str]]:
    return [argv for case in cases for step in case.steps for argv in cli_argvs(step)]


def cli_certified_terms(outputs: dict) -> int:
    """Coefficients printed by ``series`` whose ``verify`` twin found zero
    residuals, plus the terms of an exact polynomial solution.

    ``outputs`` maps the command line (joined by spaces) to parsed JSON.
    """
    total = 0
    for line, data in outputs.items():
        argv = line.split(" ")
        if argv[0] == "series":
            twin = " ".join(["verify"] + argv[1:-2])
            if outputs.get(twin, {}).get("all_annihilated"):
                total += len(data["terms"])
        elif argv[0] == "polysol" and data.get("present"):
            total += len(data["series"]["terms"])
    return total
