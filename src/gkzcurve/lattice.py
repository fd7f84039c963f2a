"""Integer-matrix layer: curve matrices, kernels, and numerical semigroups.

Everything here concerns a single integer row matrix A = (a_1 ... a_n) with
positive entries.  Such a row cuts out an affine monomial curve, and the
constructions downstream (toric operators, Gamma series, restrictions) only
need two pieces of integer data from it:

* membership in the numerical semigroup N a_1 + ... + N a_n, by Apéry sets,
* enumeration of the integer points of an affine hyperplane inside a
  weighted L1 ball: the Gamma-series terms inside the "frontier" (the
  unweighted ball) that truncates every series in the package, and the
  finite sets indexing polynomial solutions, Delta_j and the Ext^1 generator.

Every matrix has at least two positive, strictly increasing entries of
gcd 1.  Its family tag follows from the entries:

* ``plane``        A = (a b)                 (two variables)
* ``smooth``       A = (1 a_2 ... a_n)       (n >= 3)
* ``general``      A = (a_1 ... a_n), a_1 > 1, n >= 3
* ``homogenized``  A' = (1 a_1 ... a_n) produced from a general matrix
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable, Optional, Sequence

from .errors import InvalidInputError, ResourceLimitError

#: default cap on Apéry table size / enumerated lattice points
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
    """A 1 x n positive integer matrix together with its family tag.  A
    homogenized matrix (1 a_1 ... a_n) is the homogenization of entries[1:]."""

    __slots__ = ("entries", "family")

    def __init__(self, entries: tuple[int, ...], family: str):
        self.entries, self.family = entries, family

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
    return CurveMatrix((1,) + A.entries, "homogenized")


# ---------------------------------------------------------------------------
# numerical semigroup membership


def _apery(gens: tuple[int, ...], cap: Callable[[], int]) -> tuple[int, int, list]:
    """(d, m, table) for S = sum_i N g_i: d = gcd(g), m = min(g) / d, table[r]
    the least element of S / d congruent to r mod m (the Apéry set), so t is in
    S iff d | t and t / d >= table[t / d mod m].  Filled in O(k m) by the round
    robin of Böcker & Lipták (Algorithmica 48, 2007); m past cap() raises."""
    d = math.gcd(*gens)
    m = min(gens) // d
    if m > 1 and m > cap():  # the one-entry table [0] fits any cap
        raise ResourceLimitError(f"an Apery table of {m} entries exceeds the term cap")
    table = [0] + [math.inf] * (m - 1)
    for a in (g // d for g in gens if g // d % m):
        e = math.gcd(a, m)
        for r in range(e):
            n = min(table[r::e])
            for _ in range(m // e - 1 if n < math.inf else 0):
                n += a
                p = n % m
                n = table[p] = n if n < table[p] else table[p]
    return d, m, table


def _semigroup(generators: Sequence[int], target: int):
    """(int target, member, witness): member(t, k) tells if t is in S_k =
    sum_{i >= k} N g_i; witness(t) is semigroup_contains for t in S_0.  S_k's
    Apéry table is built once, when a t >= min(gens[k:]) first asks for it
    (only 0 lies below), and the term cap is read once, by the first table of
    more than one entry.  Inputs not equal to integers raise InvalidInputError."""
    raw = tuple(generators)
    gens, t = tuple(map(int, raw)), int(target)
    if not gens or min(gens) <= 0 or gens != raw or t != target:
        raise InvalidInputError("semigroup generators must be positive integers, targets integers")
    low, tables, cap = [min(gens[k:]) for k in range(len(gens))], {}, functools.cache(term_cap)

    def member(t: int, k: int = 0) -> bool:
        if t < low[k]:
            return t == 0
        d, m, table = tables.get(k) or tables.setdefault(k, _apery(gens[k:], cap))
        return t % d == 0 and t // d >= table[t // d % m]

    def witness(t: int) -> tuple[int, ...]:  # for a member t
        counts, gcd = [], [math.gcd(*gens[k:]) for k in range(len(gens))]
        for k, g in enumerate(gens[:-1]):
            # c runs over the one class mod s that keeps gcd[k + 1] | t - c g
            s = gcd[k + 1] // gcd[k]
            c = t // gcd[k] * pow(g // gcd[k], -1, s) % s
            while not member(t - c * g, k + 1):
                c += s
            counts.append(c)
            t -= c * g
        return (*counts, t // gens[-1])
    return t, member, witness


def semigroup_contains(generators: Sequence[int], target: int) -> Optional[tuple[int, ...]]:
    """The lexicographically smallest (c_1, ..., c_r) >= 0 with sum_i c_i g_i =
    target, or None: c_k is the least c leaving target - c g_k in the semigroup
    of the later generators, read from Apéry tables (:func:`_apery`) whose size
    the term cap bounds.  Inputs not equal to integers raise InvalidInputError."""
    t, member, witness = _semigroup(generators, target)
    return witness(t) if member(t) else None


def in_semigroup(generators: Sequence[int], target: int) -> bool:
    """Is target in sum_i N g_i?  Read from the Apéry table of all of them alone."""
    t, member, _ = _semigroup(generators, target)
    return member(t)


def minimal_delta(A: CurveMatrix, i: int) -> tuple[int, tuple[int, ...]]:
    """Smallest delta >= 0 with 1 + delta a_i in the semigroup of the others.

    ``i`` is a 0-based column index.  Returns (delta, rho) where rho is a
    full-length exponent vector (rho[i] = 0) realizing

        1 + delta * a_i = sum_{j != i} rho_j a_j,

    chosen lexicographically smallest among witnesses.  Exists because
    gcd of the entries is 1.  One Apéry table of the others tests each delta."""
    if A.gcd != 1:
        raise InvalidInputError("minimal_delta needs gcd of entries 1")
    if not 0 <= i < A.n:
        raise InvalidInputError("column index out of range")
    t, member, witness = _semigroup(A.entries[:i] + A.entries[i + 1:], 1)
    while not member(t):
        t += A.entries[i]
    rho = witness(t)
    return (t - 1) // A.entries[i], rho[:i] + (0,) + rho[i:]


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
    over the ball clipped to their bounds.  A partial vector is dropped in
    its parent's loop, before the walk enters it, when rest, what coordinate
    0 and the open coordinates still have to sum to, lies outside the range
    of sum_i c_i x_i over their clipped box, or when |rest| exceeds the
    budget left times the largest |c_i| / w_i among those whose c_i x_i can
    take the sign of rest in that box.  Both tests keep
    every solution, so the runs and their order do not depend on them.
    The last free coordinate x_{n-1} is solved, not visited (coeffs[0] != 0):
    coordinate 0 is an integer only for x_{n-1} in one residue class mod
    s = |c_0| / gcd(c_0, c_{n-1}), coordinate 0's bounds are linear in
    x_{n-1}, and the budget
    w_0 |x_0| + w_{n-1} |x_{n-1}| <= left is convex in it, so the solutions
    form an interval of that class.  Each leaf of the walk thus yields one
    run: a first point, a count, and the step
    z = (-c_{n-1} s / c_0, 0, ..., 0, s).  ResourceLimitError is raised
    before the walk when the ball of the coordinates among 1..n-1 that the
    clipped bounds leave open, at radius bound // their least weight, an
    upper bound on the request, holds more points than the term cap.  The
    ball is the one over N^d when the bounds keep each open coordinate in
    one sign class of N_v, lower_i >= 0 or upper_i <= -1, and over Z^d else.
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
    for every run; runs are disjoint and in walk order, not sorted.  A level
    tests each child's prune in its x-loop, so the walk enters no child the
    prune rejects.
    """
    if bound < 0:
        return (0,) * len(coeffs), []
    n = len(coeffs)
    lo = [-(bound // w) if b is None else max(b, -(bound // w)) for b, w in zip(lower, weight)]
    hi = [bound // w if b is None else min(b, bound // w)
          for b, w in zip(upper or [None] * n, weight)]
    open_ = [(w, a, b) for w, a, b in zip(weight[1:], lo[1:], hi[1:]) if a < b]
    signed = any(a < 0 <= b for _, a, b in open_)
    if _ball_count(len(open_), bound // min((w for w, _, _ in open_), default=1),
                   signed) > term_cap():
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
    # prune[pos] over coordinate 0 and pos..n-1, within lo..hi: the (|c|, w) of
    # largest |c|/w among those whose c_i x_i can be > 0, the same for < 0, and
    # the least and the largest value of sum_i c_i x_i
    prune = [None] * n
    up = down = (0, 1)
    low = high = 0
    for pos in (0, *range(n - 1, 0, -1)):
        c, w = coeffs[pos], weight[pos]
        least, most = sorted((c * lo[pos], c * hi[pos]))
        if most > 0 and abs(c) * up[1] > up[0] * w:
            up = (abs(c), w)
        if least < 0 and abs(c) * down[1] > down[0] * w:
            down = (abs(c), w)
        low, high = low + least, high + most
        prune[pos] = (*up, *down, low, high)
    runs: list[tuple[tuple[int, ...], int]] = []

    def rec(pos: int, partial: list[int], left: int, rest: int) -> None:
        # rest = rhs - sum_{1 <= i < pos} coeffs_i x_i; left = budget unused
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
        uc, uw, dc, dw, low, high = prune[pos + 1]
        lim = left // wp
        for x in range(max(lo[pos], -lim), min(hi[pos], lim) + 1):
            r, budget = rest - cp * x, left - wp * abs(x)
            if low <= r <= high and (r * uw <= uc * budget if r > 0 else -r * dw <= dc * budget):
                partial.append(x)
                rec(pos + 1, partial, budget, r)
                partial.pop()

    rec(1, [], bound, rhs)
    return step, runs


def enumerate_offsets(A: CurveMatrix, frontier) -> list[tuple[int, ...]]:
    """All u in L_A with sum_i |u_i| <= frontier.bound, sorted, from
    :func:`_lattice_points` (which raises ResourceLimitError past the cap).
    It stays only as the tests' oracle and because the benchmark's trace
    wraps it by name; ROADMAP item 3 deletes it.
    """
    if frontier.n != A.n:
        raise InvalidInputError("frontier dimension mismatch")
    return _lattice_points(A.entries, 0, (1,) * A.n, frontier.bound, (None,) * A.n)


def delta_j_set(Aprime: CurveMatrix, j: int, degree_bound: int) -> list[tuple[int, ...]]:
    """The set Delta_j for a homogenized matrix, truncated by total degree.

    For A' = (1 a_1 ... a_n) this is

        { m in N^n : sum_{i != n-1} a_i m_i = j + a_{n-1} m_{n-1} },

    listed for sum_i m_i <= degree_bound (0-based: the distinguished index
    is n-2 in the base matrix): with m_{n-1} negated, the support of gamma.lift's x_0 = 0
    slice of A''s singular series j at beta = j - a_{n-1}, bound degree_bound + j.
    """
    if Aprime.family != "homogenized":
        raise InvalidInputError("delta_j_set needs a homogenized matrix")
    base = Aprime.entries[1:]
    n = len(base)
    pivot = n - 2
    if not 0 <= j < base[pivot]:
        raise InvalidInputError(f"j must lie in 0..{base[pivot] - 1}")
    if degree_bound < 0:
        raise InvalidInputError("degree bound must be nonnegative")
    coeffs = tuple(-a if i == pivot else a for i, a in enumerate(base))
    return _lattice_points(coeffs, j, (1,) * n, degree_bound, (0,) * n)
