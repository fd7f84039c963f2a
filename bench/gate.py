"""Correctness gate: checks outputs without trusting the code under test.

* Verdicts and sha256 digests of the canonical JSON of every series and
  value must equal those recorded in ``golden.json`` from the commit that
  introduced the benchmark (ROADMAP: outputs must not change).
* A sample of Gamma-series coefficients is recomputed by the falling
  factorial oracle below, which imports nothing from ``gkzcurve``.
* Gevrey estimates must lie within the tolerances of acceptance criterion 3.
* CLI JSON passes when every key and value of the recorded output is
  present and equal (added keys are allowed); text must match byte for
  byte.  Floats are compared to 1e-9 relative, because they come from a
  numerical fit whose last digits depend on the linear-algebra backend.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
ORACLE_SAMPLES = 6


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(outcome: dict) -> dict:
    """The part of an outcome that the gate compares with later runs."""
    digests = {f"series:{k}": digest(f.to_json()) for k, f in outcome.get("series", {}).items()}
    digests.update({f"value:{k}": digest(v) for k, v in outcome.get("values", {}).items()})
    return {"digests": digests, "verdicts": outcome.get("verdicts", {})}


# ---------------------------------------------------------------------------
# falling-factorial oracle


def _falling(z: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= z - i
    return out


def _neg_support(w) -> frozenset:
    return frozenset(i for i, x in enumerate(w) if x.denominator == 1 and x < 0)


def oracle_coefficient(v, u) -> Fraction:
    """Gamma[v; u] = prod_i (v_i)_{max(-u_i,0)} / (v_i+u_i)_{max(u_i,0)},
    zero when v + u has another negative-integer support than v."""
    w = [vi + ui for vi, ui in zip(v, u)]
    if _neg_support(w) != _neg_support(v):
        return Fraction(0)
    num = Fraction(1)
    den = Fraction(1)
    for vi, wi, ui in zip(v, w, u):
        num *= _falling(vi, max(-ui, 0))
        den *= _falling(wi, max(ui, 0))
    return num / den


def check_oracle(f, rng: random.Random) -> list[str]:
    offsets = sorted(f.terms)
    picks = rng.sample(offsets, min(ORACLE_SAMPLES, len(offsets)))
    return [f"coefficient at {u} is {f.terms[u]}, oracle says {oracle_coefficient(f.base, u)}"
            for u in picks if f.terms[u] != oracle_coefficient(f.base, u)]


# ---------------------------------------------------------------------------
# in-process steps


def check_step(key: str, outcome: dict, golden: dict, rng: random.Random) -> list[str]:
    """Failures of one in-process step; empty when it is correct."""
    want = golden["steps"].get(key)
    if want is None:
        return [f"{key}: no recorded output"]
    got = fingerprint(outcome)
    failures = []
    for name, d in want["digests"].items():
        if got["digests"].get(name) != d:
            failures.append(f"{key}: {name} differs from the recorded output")
    for name, d in got["digests"].items():
        if name not in want["digests"]:
            failures.append(f"{key}: unexpected output {name}")
    for name, v in want["verdicts"].items():
        if got["verdicts"].get(name) != v:
            failures.append(f"{key}: verdict {name} = {got['verdicts'].get(name)}, recorded {v}")
    for label in outcome.get("gamma", ()):
        failures += [f"{key}: {msg}" for msg in check_oracle(outcome["series"][label], rng)]
    for label, est, expected, tol in outcome.get("gevrey", ()):
        if not abs(est - float(expected)) <= tol:
            failures.append(f"{key}: Gevrey {label} {est} not within {tol} of {expected}")
    return failures


# ---------------------------------------------------------------------------
# CLI outputs


def contains(expected, actual) -> bool:
    """Every key and value of ``expected`` is present and equal in ``actual``."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and contains(v, actual[k]) for k, v in expected.items())
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(contains(e, a) for e, a in zip(expected, actual)))
    if isinstance(expected, float) and isinstance(actual, float):
        return math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-12)
    return type(expected) is type(actual) and expected == actual


def check_cli(line: str, code: int, stdout: str, golden: dict) -> list[str]:
    want = golden["cli"].get(line)
    if want is None:
        return [f"gkz {line}: no recorded output"]
    if code != want["exit"]:
        return [f"gkz {line}: exit code {code}, recorded {want['exit']}"]
    if "json" in want:
        try:
            data = json.loads(stdout)
        except ValueError:
            return [f"gkz {line}: output is not JSON"]
        if not contains(want["json"], data):
            return [f"gkz {line}: JSON lacks or changes a recorded key or value"]
    elif stdout != want["text"]:
        return [f"gkz {line}: text output differs from the recording"]
    return []
