"""Hypergeometric systems attached to a curve matrix and a parameter.

For a row matrix A and a rational parameter beta, the system consists of

* toric binomials  box_u = d^{u_+} - d^{u_-}  for u in ker A, and
* the Euler operator  E = sum_j a_j x_j d_j - beta.

Every binomial generator is box_u for a kernel vector u:

* every non-general matrix (a_0 a_1 .. a_{n-1}):
      u_i = a_i e_0 - a_0 e_i  for i = 1..n-1, which is (b, -a) for a plane
      matrix (a b) and a_i e_0 - e_i for a smooth or homogenized one;
* general: every box_u of support degree at most D = 2 max(A), one per
  +-u pair, from a walk inside that budget (the term cap still counts the
  L1 ball |u|_1 <= 2D that holds them).

restriction.homogenize adds the contiguity binomials of a homogenized matrix.
"""

from __future__ import annotations

import math

from .errors import ResourceLimitError
from .lattice import CurveMatrix, curve_matrix
from .rationals import as_rational
from .series import WeylOperator
from . import lattice as _lattice


class HypergeometricSystem:
    """A curve matrix, a parameter, and a finite generating set of operators."""

    __slots__ = ("matrix", "beta", "toric", "euler")

    def __init__(self, matrix: CurveMatrix, beta, toric: tuple[WeylOperator, ...],
                 euler: WeylOperator):
        self.matrix = matrix
        self.beta = beta
        self.toric = toric
        self.euler = euler

    @property
    def operators(self) -> tuple[WeylOperator, ...]:
        return self.toric + (self.euler,)

    @property
    def n(self) -> int:
        return self.matrix.n


def _general_kernel(A: CurveMatrix) -> list[tuple[int, ...]]:
    """Kernel vectors u > 0 (lexicographically) with max(|u_+|, |u_-|) <=
    D = 2 max(A), in descending order.

    One representative per {u, -u} pair (the two binomials differ by sign).
    The walk visits u_1 .. u_{n-2} from high to low with the positive part P
    and negative part N of the partial vector <= D, and drops it when the
    residual rest = -sum a_i u_i is out of reach: rest > (D - P) max(A) or
    -rest > (D - N) max(A).  At a leaf a_0 u_0 + a_{n-1} u_{n-1} = rest is
    one run in k, cut to u_0 >= 0 and the two budgets.  ResourceLimitError is
    raised first when the L1 ball |u|_1 <= 2D over u_1 .. u_{n-1}, which
    holds every such u, has more points than the term cap.
    """
    ent, n = A.entries, A.n
    a0, an = ent[0], ent[-1]
    degree_bound = 2 * an
    if _lattice._ball_count(n - 1, 2 * degree_bound, True) > _lattice.term_cap():
        raise ResourceLimitError("lattice enumeration exceeds the term cap")
    # a_0 u_0 + a_{n-1} u_{n-1} = rest: u_0 = yb - s0 k and u_{n-1} = xb + sn k
    g = math.gcd(a0, an)
    s0, sn = an // g, a0 // g
    inv = pow(s0, -1, sn)
    kept: list[tuple[int, ...]] = []

    def rec(pos: int, partial: tuple[int, ...], lead: int, lp: int, ln: int, rest: int) -> None:
        # lp = D - P, ln = D - N; lead = first nonzero entry of partial, or 0
        if rest > lp * an or -rest > ln * an:
            return
        if pos < n - 1:
            a = ent[pos]
            for x in range(lp, -ln - 1, -1):
                rec(pos + 1, partial + (x,), lead or x, lp - x if x > 0 else lp,
                    ln + x if x < 0 else ln, rest - a * x)
            return
        if rest % g:
            return
        xb = rest // g * inv % sn
        yb = (rest - an * xb) // a0
        # u_0 >= 0, so P grows by u_0 + max(0, u_{n-1}) and N by max(0, -u_{n-1});
        # the point u_0 = 0 (k = yb / s0) is kept only when partial is positive
        kmax = yb // s0 - (lead <= 0 and yb % s0 == 0)
        kmin = max(-((lp - yb) // s0), -((lp - yb - xb) // (s0 - sn)), -((ln + xb) // sn))
        kept.extend((yb - s0 * k, *partial, xb + sn * k) for k in range(kmin, kmax + 1))

    rec(1, (), 0, degree_bound, degree_bound, 0)
    kept.sort(reverse=True)
    return kept


def build_system(A, beta) -> HypergeometricSystem:
    """Assemble the kernel binomials and the Euler operator of (A, beta).

    ``A`` may be a CurveMatrix or a plain entry sequence, of any shape.  For
    the general family the toric binomials are those of support degree at
    most twice the largest entry; restriction.homogenize adds the Q_i.
    """
    A, beta = curve_matrix(A), as_rational(beta)
    ent = A.entries
    if A.family == "general":
        toric = _general_kernel(A)
    else:
        toric = [tuple(ent[i] * (j == 0) - ent[0] * (j == i) for j in range(A.n))
                 for i in range(1, A.n)]
    return HypergeometricSystem(A, beta, tuple(WeylOperator.from_lattice(u) for u in toric),
                                WeylOperator.euler(ent, beta))
