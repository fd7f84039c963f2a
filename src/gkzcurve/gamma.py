"""Gamma series: exponents, coefficients, and truncated expansions.

For an exponent vector v with A.v = beta, the Gamma series is

    phi_v = x^v  sum_{u in N_v}  Gamma[v; u] x^u,
    N_v   = { u in ker A : nsupp(v + u) = nsupp(v) },
    Gamma[v; u] = (v)_{u_-} / (v + u)_{u_+},

where nsupp(w) collects the coordinates where w is a *negative integer*
(negative non-integers do not count), (z)_alpha is the coordinatewise
falling factorial, and Gamma[v; 0] = 1.  phi_v is a formal solution of the
hypergeometric system exactly when v has minimal negative support: no
lattice translate v + u has nsupp properly contained in nsupp(v).

Exponent menagerie per family (indices 0-based in code):

* plane (a b):   singular  v^k = ((beta - kb)/a, k),        k = 0..a-1
                 generic   v^j = (j, (beta - ja)/b),        j = 0..b-1
* smooth (1 a_2 .. a_n):
                 singular  v^j = (j, 0,.., (beta-j)/a_{n-1}, 0),  j < a_{n-1}
                 generic   w^j = (j, 0,..,0, (beta-j)/a_n),       j < a_n
* general:       exponents of the homogenized matrix (1 a_1 .. a_n), whose
                 series are walked on their x_0 = 0 slice only (generic-parameter
                 facts); :func:`lift` returns that matrix and that series builder.

When beta lies in the semigroup N A there is additionally a *modified*
exponent vtilde: the unique lattice translate of the polynomial exponent
whose negative support is nonempty but not minimal.  Its series phi_vtilde
is killed by the Euler operator and all toric generators except one, and
that exceptional image is the Ext^1 witness used in the restriction module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import InvalidInputError, ResourceLimitError
from .lattice import (
    CurveMatrix,
    _lattice_runs,
    curve_matrix,
    homogenize_matrix,
    in_semigroup,
    term_cap,
)
from .rationals import Pair, as_rational_vector, falling_product, reduced_pair
from .series import TruncatedSeries, TruncationFrontier
from .system import HypergeometricSystem


def nsupp(v) -> frozenset[int]:
    """Indices (0-based) where v is a negative integer."""
    return frozenset(
        i for i, x in enumerate(as_rational_vector(v))
        if x.denominator == 1 and x < 0
    )


class MinimalSupportResult:
    __slots__ = ("minimal", "exact")

    def __init__(self, minimal: bool, exact: bool):
        self.minimal, self.exact = minimal, exact

    def __bool__(self) -> bool:
        return self.minimal


def has_minimal_nsupp(v, A) -> MinimalSupportResult:
    """Does no lattice translate of v have strictly smaller negative support?

    Exact in every family.  Let S = nsupp(v) be nonempty and j in S.  Any
    other coordinate k that is in S or is not an integer is free: the
    translate v + m (a_k e_j - a_j e_k) clears j for large m while k stays a
    negative integer resp. a non-integer, so v is not minimal.  With no free
    coordinate, S = {j} and v is an integer vector, so a translate with
    smaller support is a point w of N^n with A.w = A.v: v is not minimal
    exactly when beta = A.v lies in the semigroup N A.
    """
    A = curve_matrix(A)
    v = as_rational_vector(v)
    if len(v) != A.n:
        raise InvalidInputError("exponent dimension mismatch")
    supp = nsupp(v)
    if not supp:
        return MinimalSupportResult(True, True)
    if len(supp) >= 2 or any(x.denominator != 1 for x in v):
        return MinimalSupportResult(False, True)
    return MinimalSupportResult(not in_semigroup(A.entries, int(A.dot(v))), True)


def gamma_coefficient(v, u) -> Fraction:
    """Gamma[v; u] = (v)_{u_-} / (v + u)_{u_+}, zero off the support set N_v:
    the product of gamma_series' coordinate factors T_i(u_i), each the
    :func:`_ratio_step` from T_i(0) = 1."""
    v = as_rational_vector(v)
    u = tuple(int(x) for x in u)
    if len(u) != len(v):
        raise InvalidInputError("offset dimension mismatch")
    p, q = [x.numerator for x in v], [x.denominator for x in v]
    if any(b == 1 and (a < 0) != (a + k < 0) for a, b, k in zip(p, q, u)):
        return Fraction(0)  # v + u gains or loses a negative integer coordinate
    num = den = 1
    for pi, qi, k in zip(p, q, u):
        a, b = _ratio_step(pi, qi, 0, k)
        num, den = num * a, den * b
    return Fraction(num, den)


def _ratio_step(p: int, q: int, k: int, m: int) -> tuple[int, int]:
    """T(k + m) / T(k) as (num, den) for coordinate i's factor T of
    Gamma[v; u] at u_i = k (see gamma_series): m linear factors."""
    if m >= 0:
        return q**m, falling_product(p + (k + m) * q, q, m)
    return falling_product(p + k * q, q, -m), q**-m


def _factor_table(p: int, q: int) -> Callable[[int], Pair]:
    """k -> T(k) as an unreduced pair, for the factor T of Gamma[v; u] at
    v_i = p / q (see gamma_series): T(k +- 1) is filled in from T(k) by one
    linear factor, outwards from T(0) = 1, once per k."""
    sides = {1: [(1, 1)], -1: [(1, 1)]}

    def factor(k: int) -> Pair:
        m = 1 if k >= 0 else -1
        side = sides[m]
        while len(side) <= m * k:
            a, b = _ratio_step(p, q, m * (len(side) - 1), m)
            num, den = side[-1]
            side.append((num * a, den * b))
        return side[m * k]
    return factor


def _gamma_terms(p: Sequence[int], q: Sequence[int], z: Sequence[int],
                 runs: Sequence[tuple[tuple[int, ...], int]]) -> dict[tuple[int, ...], Pair]:
    """Gamma[v; u] as reduced pairs for v_i = p_i / q_i over the runs u, u + z,
    ... of :func:`_lattice_runs`, every u in N_v.  A run's first term is the
    reduced product of its n coordinate factors T_i(u_i), read from one
    :func:`_factor_table` per coordinate; every later one follows by one
    ratio step a/b on the two coordinates, 0 and n - 1, that z moves, whose
    two :func:`_ratio_step` factors are kept per coordinate value unless the
    walk returns one run, which meets each value once.  The pair is
    multiplied by the reduced a/b as ``Fraction`` multiplies, through
    gcd(num, b) and gcd(a, den), dividing only by a gcd that is not 1.
    Every table lives for one call."""
    p0, q0, d, pn, qn, s = p[0], q[0], z[0], p[-1], q[-1], z[-1]
    factors = [_factor_table(pi, qi) for pi, qi in zip(p, q)]
    first, last = {}, {}  # u_0 -> T_0(u_0 + d) / T_0(u_0), u_n -> the same for z_n = s
    terms, shared = {}, len(runs) > 1
    for u, count in runs:
        num = den = 1
        for factor, k in zip(factors, u):
            a, b = factor(k)
            num, den = num * a, den * b
        num, den = terms[u] = reduced_pair(num, den)
        u0, un, mid = u[0], u[-1], u[1:-1]
        for _ in range(count - 1):
            if shared:
                a, b = first.get(u0) or first.setdefault(u0, _ratio_step(p0, q0, u0, d))
                e, f = last.get(un) or last.setdefault(un, _ratio_step(pn, qn, un, s))
            else:
                (a, b), (e, f) = _ratio_step(p0, q0, u0, d), _ratio_step(pn, qn, un, s)
            u0 += d
            un += s
            a, b = reduced_pair(a * e, b * f)
            if (g := math.gcd(num, b)) != 1:
                num, b = num // g, b // g
            if (g := math.gcd(a, den)) != 1:
                a, den = a // g, den // g
            terms[(u0, *mid, un)] = num, den = num * a, den * b
    return terms


def _box_gamma_terms(A: CurveMatrix, v: Sequence[int],
                     box: Sequence[tuple[int, Optional[int]]],
                     origin: Optional[Sequence[int]] = None) -> dict[tuple[int, ...], Pair]:
    """Gamma[v; x - v] as pairs, keyed by x - origin (origin None: v), for an
    integer v and every integer x with A.x = A.v and lo_i <= x_i <= hi_i,
    box_i = (lo_i, hi_i) (hi_i None: unbounded), a box in v + N_v where each
    x_i keeps one sign: lo_i >= 0 or hi_i <= -1.  So the walk's term-cap
    count is unsigned, and A.x = A.v bounds its weight-A budget
    sum_i a_i |x_i| by A.v - 2 sum_{hi_i < 0} a_i lo_i."""
    beta = A.dot(v)
    budget = beta - 2 * sum(a * lo for a, (lo, hi) in zip(A.entries, box) if (hi or 0) < 0)
    z, runs = _lattice_runs(A.entries, beta, A.entries, budget, *zip(*box))
    terms = _gamma_terms(v, [1] * A.n, z, [(tuple(a - b for a, b in zip(x, v)), count)
                                           for x, count in runs])
    if origin is None:
        return terms
    shift = [a - b for a, b in zip(v, origin)]
    return {tuple(a + b for a, b in zip(u, shift)): c for u, c in terms.items()}


def gamma_series(v, system: HypergeometricSystem,
                 frontier: TruncationFrontier) -> TruncatedSeries:
    """Truncated expansion of phi_v inside the frontier.

    Complete: every u in N_v with sum_i |u_i| <= frontier.bound appears.
    N_v is the box u_i >= -v_i for integer v_i >= 0, u_i <= -v_i - 1 for
    integer v_i < 0, which the enumerator walks; no coefficient there is 0.

    The walk returns runs u, u + z, ..., and Gamma[v; u + z] follows from
    Gamma[v; u] by a ratio step (the Horn-type recurrence of a Gamma series).
    Write Gamma[v; u] = prod_i T_i(u_i), with T_i(k) = (v_i)_{-k} for k <= 0
    and 1 / (v_i + k)_k for k > 0.  Then T_i(k + 1) / T_i(k) = 1 / (v_i + k + 1)
    = q_i / (p_i + (k + 1) q_i) for every k, v_i = p_i / q_i: for k >= 0 one
    more factor joins the denominator, for k < 0 one leaves the numerator.
    No factor is 0 inside the box of N_v.  A step of z multiplies a reduced
    pair by a ratio of |z_0| + |z_{n-1}| small linear factors, which costs
    gcds of a big and a small integer, not of two big ones.  Runs share
    coordinate values, so each build fills one table of T_i per coordinate
    and computes each step ratio once per coordinate value: a run's first
    term is a product of n table entries, reduced once.
    """
    v = _checked_exponent(v, system, frontier)
    terms = _series_terms(system.matrix.entries, v, 0, frontier.bound)
    return TruncatedSeries._built(v, terms, frontier)


def _checked_exponent(v, system: HypergeometricSystem, frontier: TruncationFrontier):
    v, A = as_rational_vector(v), system.matrix
    if len(v) != A.n:
        raise InvalidInputError("exponent dimension mismatch")
    if A.dot(v) != system.beta:
        raise InvalidInputError(f"A.v = {A.dot(v)} differs from beta = {system.beta}")
    if frontier.n != A.n:
        raise InvalidInputError("frontier dimension mismatch")
    return v


def _series_terms(entries, v, rhs: int, bound: int) -> dict[tuple[int, ...], Pair]:
    """Gamma[v; u] on the box of N_v (see gamma_series) where entries.u = rhs, |u|_1 <= bound."""
    p, q = [x.numerator for x in v], [x.denominator for x in v]
    lower = [-a if b == 1 and a >= 0 else None for a, b in zip(p, q)]
    upper = [-a - 1 if b == 1 and a < 0 else None for a, b in zip(p, q)]
    return _gamma_terms(p, q, *_lattice_runs(entries, rhs, (1,) * len(v), bound, lower, upper))


# ---------------------------------------------------------------------------
# exponent constructors


def _exponent_axes(A: CurveMatrix, which: str) -> tuple[tuple[int, ...], int, int]:
    """(entries, free, solved) for the ``which`` ("singular" or "generic")
    exponents of A.

    Vector k is zero except in two coordinates: ``free`` holds k and
    ``solved`` is fixed by A.v = beta, with k below entries[solved] (see
    the table in the module docstring), taken from the lift of A.
    """
    ent = lift(A)[0].entries
    n = len(ent)
    if which == "generic":
        return ent, 0, n - 1
    return (ent, 1, 0) if n == 2 else (ent, 0, n - 2)


def _exponent(ent: tuple[int, ...], free: int, solved: int, beta: Fraction,
              k: int) -> tuple[Fraction, ...]:
    v = [Fraction(0)] * len(ent)
    v[free] = Fraction(k)
    v[solved] = Fraction(beta - k * ent[free], ent[solved])
    return tuple(v)


def _exponent_list(A: CurveMatrix, beta: Fraction, which: str) -> list[tuple[Fraction, ...]]:
    """The ``which`` exponents of (A, beta), exponent k at position k.  A
    count above the term cap raises ResourceLimitError before any vector is
    built."""
    ent, free, solved = _exponent_axes(A, which)
    count = ent[solved]
    if count > term_cap():
        raise ResourceLimitError(f"{count} {which} exponents exceed the term cap")
    return [_exponent(ent, free, solved, beta, k) for k in range(count)]


def _polynomial_exponent(A: CurveMatrix, beta: Fraction) -> tuple[int, tuple[Fraction, ...]]:
    """(k, v^k): the one singular exponent that is a nonnegative integer
    vector, for beta in the semigroup N A.  Its index k solves
    k * entries[free] = beta mod entries[solved]; the two entries are
    coprime (plane) or entries[free] = 1."""
    ent, free, solved = _exponent_axes(A, "singular")
    k = int(beta) * pow(ent[free], -1, ent[solved]) % ent[solved]
    return k, _exponent(ent, free, solved, beta, k)


def singular_exponents(system: HypergeometricSystem) -> list[tuple[Fraction, ...]]:
    """Exponents of the solution basis along the singular direction,
    exponent k at position k.

    plane: a vectors; smooth/homogenized: a_{n-1} vectors.  They are the
    exponents of lift(A), one coordinate longer for a general matrix; their
    series restrict to solutions at x_0 = 0 for generic parameters.  Raises
    ResourceLimitError above the term cap.
    """
    return _exponent_list(system.matrix, system.beta, "singular")


def generic_exponents(system: HypergeometricSystem) -> list[tuple[Fraction, ...]]:
    """Exponents of the solution basis at a generic point (b resp. a_n many),
    exponent k at position k.

    Raises ResourceLimitError above the term cap.
    """
    return _exponent_list(system.matrix, system.beta, "generic")


# ---------------------------------------------------------------------------
# modified exponent


def _beta_in_semigroup(A: CurveMatrix, beta: Fraction) -> bool:
    return beta.denominator == 1 and in_semigroup(A.entries, int(beta))


def modified_exponent(system: HypergeometricSystem) -> Optional[tuple[int, tuple[Fraction, ...]]]:
    """(q, vtilde): the lattice translate of the polynomial exponent whose
    negative support is nonempty and *not* minimal.  None when beta is not
    in the semigroup N A.  q is the index of the polynomial exponent v^q.

    With (free, solved) the singular exponent axes of lift(A), vtilde steps
    m = ceil((v_solved + 1) / a_free) times along a_solved e_free -
    a_free e_solved, which makes coordinate ``solved`` equal to -1 or less:

    * plane (a b): v^q = (m0, q) and vtilde = (m0 - b m, q + a m);
    * smooth (1 a_2 .. a_n): vtilde = (beta + a_{n-1}, 0, ..., 0, -1, 0),
      and the same on the homogenized matrix for a general A.
    """
    A, beta = system.matrix, system.beta
    if not _beta_in_semigroup(A, beta):
        return None
    q, poly = _polynomial_exponent(A, beta)
    ent, free, solved = _exponent_axes(A, "singular")
    m = -((int(poly[solved]) + 1) // -ent[free])  # ceil((v_solved + 1) / a_free)
    v = list(poly)
    v[free] += m * ent[solved]
    v[solved] -= m * ent[free]
    return q, tuple(v)


def modified_series(system: HypergeometricSystem,
                    frontier: TruncationFrontier) -> TruncatedSeries:
    """phi_vtilde, truncated, for a plane, smooth or homogenized system.
    Killed by the Euler operator and by every toric generator except the
    distinguished one, whose image is restriction.ext1_generator."""
    got = modified_exponent(system)
    if got is None:
        raise InvalidInputError("beta lies outside the semigroup: no modified exponent")
    if system.matrix.family == "general":
        raise InvalidInputError(
            "modified series of a general matrix lives on the homogenized system")
    return gamma_series(got[1], system, frontier)


# ---------------------------------------------------------------------------
# restriction of a series to x_0 = 0, and the lift of a general matrix


def restrict_series_x0(f: TruncatedSeries) -> TruncatedSeries:
    """Keep the terms whose exponent of the first variable is zero, drop it.

    For a Gamma series of a homogenized matrix (integer base exponent in
    coordinate 0) this realizes the restriction to x_0 = 0.  The returned
    frontier bound shrinks by |k0|, the cost of the forced offset -k0 in
    coordinate 0, which keeps the truncation complete.
    """
    base0, n = f.base[0], f.n - 1
    if base0.denominator != 1:
        return TruncatedSeries._built(f.base[1:], {}, TruncationFrontier(n, f.frontier.bound))
    k0 = int(base0)
    frontier = TruncationFrontier(n, f.frontier.bound - abs(k0))
    pairs = {u[1:]: c for u, c in f.pairs.items() if u[0] + k0 == 0}
    return TruncatedSeries._built(f.base[1:], pairs, frontier, f.exact)


def _x0_slice(v, system: HypergeometricSystem, frontier: TruncationFrontier) -> TruncatedSeries:
    """restrict_series_x0(gamma_series(v, system, frontier)) on (1 a_1 .. a_n), v_0 = j in N,
    from its offsets (-j, u') alone: A.u' = j and Gamma[v; (-j, u')] = j! Gamma[v[1:]; u']."""
    v = _checked_exponent(v, system, frontier)
    if v[0].denominator != 1 or v[0] < 0:
        raise InvalidInputError(f"x_0-exponent {v[0]} is not a nonnegative integer")
    j, scale = int(v[0]), math.factorial(int(v[0]))
    terms = _series_terms(system.matrix.entries[1:], v[1:], j, frontier.bound - j)
    pairs = {u: (a * (scale // g), b // g) for u, (a, b) in terms.items()
             for g in (math.gcd(scale, b),)}
    return TruncatedSeries._built(v[1:], pairs, TruncationFrontier(len(v) - 1, frontier.bound - j))


def lift(A: CurveMatrix) -> tuple[CurveMatrix, Callable[..., TruncatedSeries]]:
    """(A', series): the matrix whose Gamma series solve for A, and the builder
    series(v, system of A', frontier on A') of A's solution at an exponent v of A':
    :func:`_x0_slice` for a general A, which is homogenized, else gamma_series."""
    if A.family == "general":
        return homogenize_matrix(A), _x0_slice
    return A, gamma_series
