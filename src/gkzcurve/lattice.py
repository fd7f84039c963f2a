"""Integer-matrix layer: curve matrices, kernels, and numerical semigroups.

Everything here concerns a single integer row matrix A = (a_1 ... a_n) with
positive entries.  Such a row cuts out an affine monomial curve, and the
constructions downstream (toric operators, Gamma series, restrictions) only
need two pieces of integer data from it:

* membership in the numerical semigroup N a_1 + ... + N a_n, with witnesses,
* enumeration of the integer points of an affine hyperplane inside a
  weighted L1 ball: the kernel points of the "frontier" (the unweighted
  ball) that truncates every series in the package, and the finite sets
  indexing polynomial solutions, Delta_j and the Ext^1 generator.

Every matrix has at least two positive, strictly increasing entries of
gcd 1.  Its family tag follows from the entries:

* ``plane``        A = (a b)                 (two variables)
* ``smooth``       A = (1 a_2 ... a_n)       (n >= 3)
* ``general``      A = (a_1 ... a_n), a_1 > 1, n >= 3
* ``homogenized``  A' = (1 a_1 ... a_n) produced from a general matrix
"""

from __future__ import annotations

import math
import os
from typing import Optional, Sequence

from .errors import InvalidInputError, ResourceLimitError

#: default cap on semigroup targets / enumerated lattice points
DEFAULT_TERM_CAP = 10**6

TERM_CAP_ENV = "GKZ_TERM_CAP"


def term_cap() -> int:
    raw = os.environ.get(TERM_CAP_ENV)
    if raw is None:
        return DEFAULT_TERM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"{TERM_CAP_ENV} must be an integer") from exc
    if cap <= 0:
        raise InvalidInputError(f"{TERM_CAP_ENV} must be positive")
    return cap


# ---------------------------------------------------------------------------
# curve matrices


class CurveMatrix:
    """A 1 x n positive integer matrix together with its family tag.  Equality
    and hashing read the entries and the family, not ``base``."""

    __slots__ = ("entries", "family", "base")

    def __init__(self, entries: tuple[int, ...], family: str,
                 base: Optional[CurveMatrix] = None):
        self.entries, self.family, self.base = entries, family, base

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurveMatrix):
            return NotImplemented
        return (self.entries, self.family) == (other.entries, other.family)

    def __hash__(self) -> int:
        return hash((self.entries, self.family))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def gcd(self) -> int:
        return math.gcd(*self.entries)

    def dot(self, u: Sequence) -> object:
        if len(u) != self.n:
            raise InvalidInputError("dimension mismatch in A.u")
        return sum(a * x for a, x in zip(self.entries, u))

    def __str__(self) -> str:
        return "(" + " ".join(str(a) for a in self.entries) + ")"


def curve_matrix(entries: CurveMatrix | Sequence[int]) -> CurveMatrix:
    """Build a CurveMatrix from at least two positive, strictly increasing
    integers of gcd 1; a CurveMatrix is returned unchanged.

    The family follows from the entries: plane if n = 2, smooth if the first
    entry is 1, general otherwise.  A homogenized matrix comes only from
    :func:`homogenize_matrix`.
    """
    if isinstance(entries, CurveMatrix):
        return entries
    try:
        ent = tuple(int(a) for a in entries)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError("matrix entries must be integers") from exc
    if len(ent) < 2:
        raise InvalidInputError("need at least two columns")
    if any(a <= 0 for a in ent):
        raise InvalidInputError("matrix entries must be positive")
    if any(x >= y for x, y in zip(ent, ent[1:])):
        raise InvalidInputError("entries must be strictly increasing")
    if math.gcd(*ent) != 1:
        raise InvalidInputError("entries must have gcd 1")
    return CurveMatrix(ent, "plane" if len(ent) == 2 else "smooth" if ent[0] == 1 else "general")


def homogenize_matrix(A: CurveMatrix) -> CurveMatrix:
    """Prepend a column of 1 to a general matrix: (a_1 .. a_n) -> (1 a_1 .. a_n)."""
    if A.family != "general":
        raise InvalidInputError("homogenization starts from a general matrix")
    return CurveMatrix((1,) + A.entries, "homogenized", base=A)


# ---------------------------------------------------------------------------
# numerical semigroup membership


def _suffix_reach(gens: tuple[int, ...], limit: int) -> list[int]:
    """R_0, ..., R_r as bitsets: bit t of R_k is set iff t <= limit is a sum
    of gens[k:].

    R_r = {0}, and R_k closes R_{k+1} under adding g_k: each shift by
    step = g_k, 2 g_k, 4 g_k, ... doubles the multiples of g_k covered,
    until they pass ``limit``.
    """
    mask = (1 << (limit + 1)) - 1
    reach = [1]
    for g in reversed(gens):
        bits = reach[-1]
        step = g
        while step <= limit:
            bits |= (bits << step) & mask
            step *= 2
        reach.append(bits)
    reach.reverse()
    return reach


def semigroup_contains(generators: Sequence[int], target: int) -> Optional[tuple[int, ...]]:
    """A witness (c_1, ..., c_r) >= 0 with sum_i c_i g_i = target, found by
    dynamic programming, or None when target is not in sum_i N g_i.

    The witness is the lexicographically smallest one: the walk takes the
    least c_k that leaves a remainder reachable by the later generators.
    Negative targets are non-members; target 0 is a member with the zero
    witness.  Targets above the term cap raise ResourceLimitError rather
    than silently answering.
    """
    gens = tuple(int(g) for g in generators)
    if not gens or any(g <= 0 for g in gens):
        raise InvalidInputError("semigroup generators must be positive integers")
    target = int(target)
    if target < 0:
        return None
    if target > term_cap():
        raise ResourceLimitError(f"semigroup target {target} exceeds the term cap")
    reach = _suffix_reach(gens, target)
    if not reach[0] >> target & 1:
        return None
    counts = []
    t = target
    for k, g in enumerate(gens):
        c = 0
        while not reach[k + 1] >> (t - c * g) & 1:
            c += 1
        counts.append(c)
        t -= c * g
    return tuple(counts)


def in_semigroup(generators: Sequence[int], target: int) -> bool:
    """Is target in sum_i N g_i?

    When gcd(g) = 1, Schur's bound on the Frobenius number (Brauer, Amer. J.
    Math. 64, 1942) puts every target t >= (g_min - 1)(g_max - 1) in the
    semigroup, so only smaller targets reach the DP of
    :func:`semigroup_contains` and its term cap.
    """
    gens = tuple(int(g) for g in generators)
    if gens and min(gens) > 0 and math.gcd(*gens) == 1 \
            and target >= (min(gens) - 1) * (max(gens) - 1):
        return True
    return semigroup_contains(gens, target) is not None


def minimal_delta(A: CurveMatrix, i: int) -> tuple[int, tuple[int, ...]]:
    """Smallest delta >= 0 with 1 + delta a_i in the semigroup of the others.

    ``i`` is a 0-based column index.  Returns (delta, rho) where rho is a
    full-length exponent vector (rho[i] = 0) realizing

        1 + delta * a_i = sum_{j != i} rho_j a_j,

    chosen lexicographically smallest among witnesses.  Exists because
    gcd of the entries is 1.
    """
    if A.gcd != 1:
        raise InvalidInputError("minimal_delta needs gcd of entries 1")
    if not 0 <= i < A.n:
        raise InvalidInputError("column index out of range")
    others = tuple(a for j, a in enumerate(A.entries) if j != i)
    ai = A.entries[i]
    delta = 0
    while True:
        w = semigroup_contains(others, 1 + delta * ai)
        if w is not None:
            return delta, w[:i] + (0,) + w[i:]
        delta += 1


# ---------------------------------------------------------------------------
# bounded lattice points


def _ball_count(d: int, r: int, signed: bool) -> int:
    """Points of the L1 ball of radius r >= 0 in Z^d if ``signed``, else in N^d."""
    if not signed:
        return math.comb(r + d, d)
    return sum(2**k * math.comb(d, k) * math.comb(r, k) for k in range(min(d, r) + 1))


def _lattice_points(coeffs: Sequence[int], rhs: int, weight: Sequence[int], bound: int,
                    lower: Sequence[Optional[int]],
                    upper: Optional[Sequence[Optional[int]]] = None) -> list[tuple[int, ...]]:
    """Every integer x with coeffs.x = rhs, sum_i weight_i |x_i| <= bound and
    lower_i <= x_i <= upper_i (None: no bound), sorted: the runs of
    :func:`_lattice_runs` expanded.

    The one bounded-lattice walk of the package.  Coordinates 1..n-2 range
    over the ball clipped to their bounds, and a partial vector is dropped
    once |rest| exceeds max |c_i| / w_i over coordinate 0 and the open
    coordinates, times the budget left.  The last free coordinate x_{n-1}
    is solved, not visited (coeffs[0] != 0): coordinate 0 is an integer
    only for x_{n-1} in one residue class mod s = |c_0| / gcd(c_0, c_{n-1}),
    coordinate 0's bounds are linear in x_{n-1}, and the budget
    w_0 |x_0| + w_{n-1} |x_{n-1}| <= left is convex in it, so the solutions
    form an interval of that class.  Each leaf of the walk thus yields one
    run: a first point, a count, and the step
    z = (-c_{n-1} s / c_0, 0, ..., 0, s).  ResourceLimitError is raised
    before the walk when the ball of the coordinates among 1..n-1 that the
    clipped bounds leave open (over x >= 0 when every lower_i >= 0 there),
    at radius bound // their least weight, an upper bound on the request,
    holds more points than the term cap.
    """
    z, runs = _lattice_runs(coeffs, rhs, weight, bound, lower, upper)
    return sorted(tuple(a + k * b for a, b in zip(x, z)) for x, count in runs
                  for k in range(count))


def _lattice_runs(coeffs: Sequence[int], rhs: int, weight: Sequence[int], bound: int,
                  lower: Sequence[Optional[int]],
                  upper: Optional[Sequence[Optional[int]]] = None
                  ) -> tuple[tuple[int, ...], list[tuple[tuple[int, ...], int]]]:
    """(z, runs): the points of :func:`_lattice_points` as runs.  Run
    (x, count) stands for x, x + z, ..., x + (count - 1) z, with one step z
    for every run; runs are disjoint and in walk order, not sorted.
    """
    if bound < 0:
        return (0,) * len(coeffs), []
    n = len(coeffs)
    lo = [-(bound // w) if b is None else max(b, -(bound // w)) for b, w in zip(lower, weight)]
    hi = [bound // w if b is None else min(b, bound // w)
          for b, w in zip(upper or [None] * n, weight)]
    open_w = [w for w, a, b in zip(weight[1:], lo[1:], hi[1:]) if a < b]
    signed = any(b is None or b < 0 for b in lower[1:])
    if _ball_count(len(open_w), bound // min(open_w, default=1), signed) > term_cap():
        raise ResourceLimitError("lattice enumeration exceeds the term cap")
    c0, w0 = coeffs[0], weight[0]
    if n == 1:
        x0, r = divmod(rhs, c0)
        ok = not r and lo[0] <= x0 <= hi[0]
        return (0,), [((x0,), 1)] if ok else []
    # x_{n-1} = xb + s k and x_0 = yb + d k solve c_0 x_0 + cn x_{n-1} = rest
    cn, wn = coeffs[-1], weight[-1]
    g = math.gcd(c0, cn)
    s = abs(c0) // g
    d = -cn * s // c0
    inv = pow(cn // g, -1, s)
    step = (d,) + (0,) * (n - 2) + (s,)
    # x_0's two bounds and the budget w0 |x_0| + wn |x_{n-1}| <= left, as
    # its four sign choices, are each one a k <= b with a from ks
    ks = (-d, d, w0 * d + wn * s, w0 * d - wn * s, wn * s - w0 * d, -w0 * d - wn * s)
    lo0, hi0, lon, hin = lo[0], hi[0], lo[-1], hi[-1]
    # reach[pos] = (|c|, w) of largest |c|/w among coordinates 0 and pos..n-1
    reach = [(abs(c0), w0)] * (n + 1)
    for pos in range(n - 1, 0, -1):
        c, w = reach[pos + 1]
        big = abs(coeffs[pos]) * w > c * weight[pos]
        reach[pos] = (abs(coeffs[pos]), weight[pos]) if big else (c, w)
    runs: list[tuple[tuple[int, ...], int]] = []

    def rec(pos: int, partial: list[int], left: int, rest: int) -> None:
        # rest = rhs - sum_{1 <= i < pos} coeffs_i x_i; left = budget unused
        c, w = reach[pos]
        if abs(rest) * w > c * left:
            return
        if pos == n - 1:
            if rest % g:
                return
            xb = rest // g * inv % s
            yb = (rest - cn * xb) // c0
            kmin, kmax = -((xb - lon) // s), (hin - xb) // s
            for a, b in zip(ks, (yb - lo0, hi0 - yb, left - w0 * yb - wn * xb,
                                 left - w0 * yb + wn * xb, left + w0 * yb - wn * xb,
                                 left + w0 * yb + wn * xb)):
                if a > 0:
                    kmax = min(kmax, b // a)
                elif a < 0:
                    kmin = max(kmin, -(b // -a))
                elif b < 0:
                    return
            if kmin <= kmax:
                runs.append(((yb + d * kmin, *partial, xb + s * kmin), kmax - kmin + 1))
            return
        cp, wp = coeffs[pos], weight[pos]
        lim = left // wp
        for x in range(max(lo[pos], -lim), min(hi[pos], lim) + 1):
            partial.append(x)
            rec(pos + 1, partial, left - wp * abs(x), rest - cp * x)
            partial.pop()

    rec(1, [], bound, rhs)
    return step, runs


def enumerate_offsets(A: CurveMatrix, frontier) -> list[tuple[int, ...]]:
    """All u in L_A with sum_i |u_i| <= frontier.bound, sorted, from
    :func:`_lattice_points` (which raises ResourceLimitError past the cap).
    """
    if frontier.n != A.n:
        raise InvalidInputError("frontier dimension mismatch")
    return _lattice_points(A.entries, 0, (1,) * A.n, frontier.bound, (None,) * A.n)


def delta_j_set(Aprime: CurveMatrix, j: int, degree_bound: int) -> list[tuple[int, ...]]:
    """The set Delta_j for a homogenized matrix, truncated by total degree.

    For A' = (1 a_1 ... a_n) this is

        { m in N^n : sum_{i != n-1} a_i m_i = j + a_{n-1} m_{n-1} },

    listed for sum_i m_i <= degree_bound (0-based: the distinguished index
    is n-2 in the base matrix).  It indexes the monomials that survive the
    restriction of the j-th Gamma series to x_0 = 0.
    """
    if Aprime.family != "homogenized" or Aprime.base is None:
        raise InvalidInputError("delta_j_set needs a homogenized matrix")
    base = Aprime.base.entries
    n = len(base)
    pivot = n - 2
    if not 0 <= j < base[pivot]:
        raise InvalidInputError(f"j must lie in 0..{base[pivot] - 1}")
    if degree_bound < 0:
        raise InvalidInputError("degree bound must be nonnegative")
    coeffs = tuple(-a if i == pivot else a for i, a in enumerate(base))
    return _lattice_points(coeffs, j, (1,) * n, degree_bound, (0,) * n)
