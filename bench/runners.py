"""In-process runners, one per step kind of ``cases.py``.

The runners call the library only through attributes of the ``gkzcurve``
modules, so the spans of ``spans.py`` see every call.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import gkzcurve as G
from gkzcurve import errors, lattice

from cases import Case, Step

#: lowered term cap used around the refusal steps only
REFUSAL_TERM_CAP = "20000"

# right-hand sides of acceptance criterion 8: (f table, initial values)
EXT1_TABLES = (
    ({(0, 0): "1"}, None),
    ({(0, 0): "2", (0, 2): "-1/3", (1, 1): "5"}, {0: "1"}),
    ({(1, 0): "1/7"}, {0: "-2", 1: "3/4"}),
)

# Each runner returns an outcome dict:
#   series    {label: TruncatedSeries}     digested and oracle-checked
#   values    {label: JSON-able}           digested
#   gamma     labels of series whose coefficients are Gamma[base; u]
#   verdicts  {label: bool}                compared with the recording
#   gevrey    [(label, estimate, expected, tolerance)]
#   certified number of certified nonzero coefficients


def _exponents(system, which):
    if which == "singular":
        return G.singular_exponents(system)
    return G.generic_exponents(system)


def _all_annihilated(reports) -> bool:
    return all(r.annihilated for r in reports)


def _frontier(n, bound):
    return G.TruncationFrontier.uniform(n, bound)


def run_series(entries, beta, which, idx, bound):
    system = G.build_system(entries, Fraction(beta))
    v = _exponents(system, which)[idx]
    minimal = G.has_minimal_nsupp(v, system.matrix).minimal
    f = G.gamma_series(v, system, _frontier(system.n, bound))
    ok = _all_annihilated(G.verify_annihilation(system.operators, f))
    return {"series": {"f": f}, "gamma": ("f",),
            "verdicts": {"minimal": minimal, "annihilated": ok},
            "certified": len(f.terms) if ok else 0}


def run_roundtrip(entries, beta, idx, bound):
    beta = Fraction(beta)
    hom = G.homogenize(entries, beta)
    general = G.build_system(entries, beta)
    v = G.singular_exponents(hom.system)[idx]
    f = G.gamma_series(v, hom.system, _frontier(hom.system.n, bound))
    up = _all_annihilated(G.verify_annihilation(hom.system.operators, f))
    g = G.restrict_series_x0(f)
    down = _all_annihilated(G.verify_annihilation(general.operators, g))
    return {"series": {"f": f, "restricted": g}, "gamma": ("f",),
            "verdicts": {"upstairs": up, "restricted": down},
            "certified": (len(f.terms) if up else 0) + (len(g.terms) if down else 0)}


def run_gevrey(entries, beta, idx, bound, var):
    system = G.build_system(entries, Fraction(beta))
    f = G.gamma_series(G.singular_exponents(system)[idx], system,
                       _frontier(system.n, bound))
    est = G.gevrey_index_estimate(f, var, matrix=system.matrix)["estimate"]
    expected = Fraction(entries[-1], entries[-2])  # b/a, resp. a_n/a_{n-1}
    tol = 0.05 if len(entries) == 2 else 0.10      # criterion-3 tolerances
    return {"series": {"f": f}, "gamma": ("f",),
            "gevrey": [("estimate", est, expected, tol)],
            "certified": 0}


def run_ext1(entries, beta, num_terms):
    beta = Fraction(beta)
    tables = []
    envelopes = []
    for f_table, h_init in EXT1_TABLES:
        f_table = {k: Fraction(c) for k, c in f_table.items()}
        h_init = None if h_init is None else {k: Fraction(c) for k, c in h_init.items()}
        h = G.ext1_recurrence_solve(entries, 1, beta, f_table, h_init=h_init,
                                    num_terms=num_terms)
        tables.append([[k, m, str(c)] for (k, m), c in sorted(h.items())])
        a = entries[0]
        for k in range(a):
            vals = [float(abs(h[(k, m)])) / math.sqrt(math.factorial(k + a * m))
                    for m in range(num_terms + 1)]
            vals = [x for x in vals if x > 0]
            if len(vals) > 5:
                envelopes.append(G.gevrey_envelope_fit(vals))
    return {"values": {"h": tables},
            "verdicts": {"envelope": all(0 < D < 50 and C > 0 for C, D in envelopes)},
            "certified": 0}


def run_homseries(entries, beta, idx, bound):
    hom = G.homogenize(entries, Fraction(beta))
    v = G.singular_exponents(hom.system)[idx]
    f = G.gamma_series(v, hom.system, _frontier(hom.system.n, bound))
    ok = _all_annihilated(G.verify_annihilation(hom.system.operators, f))
    return {"series": {"f": f}, "gamma": ("f",), "verdicts": {"annihilated": ok},
            "certified": len(f.terms) if ok else 0}


def run_nsupp(entries, v):
    res = G.has_minimal_nsupp([Fraction(x) for x in v], entries)
    return {"verdicts": {"minimal": res.minimal}, "certified": 0}


def _polysol(entries, beta):
    """The polynomial solution, its exact check against every operator, and
    its Gevrey index (1 by convention for a polynomial)."""
    q, f = G.polynomial_solution(entries, Fraction(beta))
    system = G.build_system(entries, Fraction(beta))
    zero = all(G.apply_operator(op, f).is_zero() for op in system.operators)
    index = G.gevrey_index_estimate(f, system.n - 1)["estimate"]
    return q, f, zero, index


def run_exact(smooth, smooth_beta, general, general_beta):
    q1, f1, zero1, index1 = _polysol(smooth, smooth_beta)
    q2, f2, zero2, index2 = _polysol(general, general_beta)
    g = G.ext1_generator(smooth, Fraction(smooth_beta))
    # the smooth polynomial is the Gamma series of its base exponent; the
    # general one is a restriction and has no such oracle
    return {"series": {"smooth": f1, "general": f2, "ext1": g}, "gamma": ("smooth",),
            "values": {"q": [q1, q2]},
            "verdicts": {"smooth_zero": zero1, "general_zero": zero2},
            "gevrey": [("smooth", index1, Fraction(1), 0.0),
                       ("general", index2, Fraction(1), 0.0)],
            "certified": sum(len(f.terms) for f in (f1, f2, g) if f.exact)}


def run_delta(entries, j, degree_bound):
    Ah = G.homogenize_matrix(G.curve_matrix(entries))
    return {"values": {"delta": [list(m) for m in G.delta_j_set(Ah, j, degree_bound)]},
            "certified": 0}


def run_build(small, large, beta):
    ops = [op.to_json() for m in (small, large)
           for op in G.build_system(m, Fraction(beta)).operators]
    return {"values": {"operators": ops}, "certified": 0}


def run_refuse(entries, beta, bound):
    """A request that must be refused while the term cap is lowered."""
    saved = os.environ.get(lattice.TERM_CAP_ENV)
    os.environ[lattice.TERM_CAP_ENV] = REFUSAL_TERM_CAP
    try:
        system = G.build_system(entries, Fraction(beta))
        v = G.singular_exponents(system)[0]
        G.gamma_series(v, system, _frontier(system.n, bound))
        refused = False
    except errors.ResourceLimitError:
        refused = True
    finally:
        if saved is None:
            del os.environ[lattice.TERM_CAP_ENV]
        else:
            os.environ[lattice.TERM_CAP_ENV] = saved
    return {"verdicts": {"refused": refused}, "certified": 0}


RUNNERS = {
    "series": run_series,
    "roundtrip": run_roundtrip,
    "gevrey": run_gevrey,
    "ext1": run_ext1,
    "homseries": run_homseries,
    "nsupp": run_nsupp,
    "exact": run_exact,
    "delta": run_delta,
    "build": run_build,
    "refuse": run_refuse,
}


def run_step(step: Step) -> dict:
    return RUNNERS[step.kind](*step.params)


def warm(cases: list[Case]) -> None:
    """Lazy set-up a user pays once: build each step's system."""
    for case in cases:
        for step in case.steps:
            if step.kind in ("series", "gevrey"):
                G.build_system(step.params[0], Fraction(step.params[1]))
