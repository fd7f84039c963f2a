"""Spans around the public functions of each ``gkzcurve`` layer.

The benchmark wraps the functions from outside: while a :class:`Tracer` is
installed, each function listed in ``TRACED`` is replaced, in every
``gkzcurve`` module that holds it by name, with a wrapper that records a
span (name, start, end, parent span, case id) and the counts taken at that
boundary.  Spans stay in memory; :func:`layer_metrics` turns the spans of
one pass into per-layer numbers.

Per-coefficient helpers (``gamma_coefficient``, ``falling_factorial``) are
not wrapped: they run about 10^4 times per case, so a span around them
would time the wrapper instead of the code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# module -> public functions wrapped in that module
TRACED = {
    "lattice": ("enumerate_offsets", "semigroup_contains", "minimal_delta", "delta_j_set"),
    "gamma": ("gamma_series", "has_minimal_nsupp", "restrict_series_x0"),
    "series": ("apply_operator", "verify_annihilation"),
    "system": ("build_system",),
    "gevrey": ("gevrey_index_estimate", "polynomial_solution"),
    "restriction": ("homogenize", "ext1_generator", "ext1_recurrence_solve",
                    "gevrey_envelope_fit"),
    "cli": ("main",),
}


def _coeff_bits(f) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in f.terms.values()), default=0)


# counts recorded at a boundary: (args, kwargs, result) -> {count: value}
COUNTS = {
    "lattice.enumerate_offsets": lambda a, k, r: {"offsets": len(r)},
    "gamma.gamma_series": lambda a, k, r: {"terms": len(r.terms), "bits": _coeff_bits(r)},
    "gamma.has_minimal_nsupp": lambda a, k, r: {"exact": int(r.exact)},
    "series.apply_operator": lambda a, k, r: {"products": len(a[0].terms) * len(a[1].terms)},
    "series.verify_annihilation": lambda a, k, r: {
        "residuals": sum(x.residual_term_count for x in r)},
    "system.build_system": lambda a, k, r: {"operators": len(r.operators)},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "counts")

    def __init__(self, name, parent, case):
        self.name = name
        self.parent = parent
        self.case = case
        self.start = self.end = 0.0
        self.counts = None


class Tracer:
    """Collects spans while installed; ``with tracer:`` patches and restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.case = None
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body, as a child of the enclosing one."""
        s = Span(name, self._stack[-1] if self._stack else -1, self.case)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts = count(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        owners = {m: importlib.import_module(f"gkzcurve.{m}") for m in TRACED}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gkzcurve" or name.startswith("gkzcurve."))]
        for mod_name, funcs in TRACED.items():
            owner = owners[mod_name]
            for fname in funcs:
                orig = getattr(owner, fname)
                wrapped = self.wrap(f"{mod_name}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()
        return False


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span time minus the time of its child spans, summed per name."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for s, c in zip(spans, child):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (spans recorded from one pass)."""
    st = self_times(spans)
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    series_offsets = 0
    bits = 0
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        if not s.counts:
            continue
        for k, v in s.counts.items():
            if k == "bits":
                bits = max(bits, v)
            else:
                counts[f"{s.name}.{k}"] = counts.get(f"{s.name}.{k}", 0) + v
        if s.name == "lattice.enumerate_offsets" and s.parent >= 0 \
                and spans[s.parent].name == "gamma.gamma_series":
            series_offsets += s.counts["offsets"]

    def t(name):
        return st.get(name, 0.0)

    terms = counts.get("gamma.gamma_series.terms", 0)
    nsupp_calls = calls.get("gamma.has_minimal_nsupp", 0)
    nsupp_exact = counts.get("gamma.has_minimal_nsupp.exact", 0)
    refusals = [s.end - s.start for s in spans if s.name == "step:refuse"]
    return {
        "lattice.enumerate_offsets.self_s": t("lattice.enumerate_offsets"),
        "lattice.enumerate_offsets.calls": calls.get("lattice.enumerate_offsets", 0),
        "lattice.offsets": counts.get("lattice.enumerate_offsets.offsets", 0),
        "lattice.semigroup.self_s": t("lattice.semigroup_contains") + t("lattice.minimal_delta"),
        "lattice.delta_j_set.self_s": t("lattice.delta_j_set"),
        "lattice.refusal_s": sum(refusals),
        "gamma.gamma_series.self_s": t("gamma.gamma_series"),
        "gamma.terms": terms,
        "gamma.series_offsets": series_offsets,
        "gamma.keep_ratio": terms / series_offsets if series_offsets else 0.0,
        "gamma.coeff_bits_max": bits,
        "gamma.has_minimal_nsupp.self_s": t("gamma.has_minimal_nsupp"),
        "gamma.has_minimal_nsupp.calls": nsupp_calls,
        "gamma.has_minimal_nsupp.exact": nsupp_exact,
        "gamma.nsupp_exact_ratio": nsupp_exact / nsupp_calls if nsupp_calls else 0.0,
        "gamma.restrict_series_x0.self_s": t("gamma.restrict_series_x0"),
        "series.apply_operator.self_s": t("series.apply_operator"),
        "series.apply_operator.calls": calls.get("series.apply_operator", 0),
        "series.term_products": counts.get("series.apply_operator.products", 0),
        "series.residual_terms": counts.get("series.verify_annihilation.residuals", 0),
        "series.verify_annihilation.self_s": t("series.verify_annihilation"),
        "system.build_system.self_s": t("system.build_system"),
        "system.operators": counts.get("system.build_system.operators", 0),
        "gevrey.gevrey_index_estimate.self_s": t("gevrey.gevrey_index_estimate"),
        "gevrey.polynomial_solution.self_s": t("gevrey.polynomial_solution"),
        "restriction.homogenize.self_s": t("restriction.homogenize"),
        "restriction.ext1_generator.self_s": t("restriction.ext1_generator"),
        "restriction.ext1_recurrence_solve.self_s": t("restriction.ext1_recurrence_solve"),
        "restriction.gevrey_envelope_fit.self_s": t("restriction.gevrey_envelope_fit"),
        "cli.main_s": sum(s.end - s.start for s in spans if s.name == "cli.main"),
    }
