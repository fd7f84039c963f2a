"""Hypergeometric systems attached to a curve matrix and a parameter.

For a row matrix A and a rational parameter beta, the system consists of

* toric binomials  box_u = d^{u_+} - d^{u_-}  for u in ker A, and
* the Euler operator  E = sum_j a_j x_j d_j - beta.

Every binomial generator is box_u for a kernel vector u:

* every non-general matrix (a_0 a_1 .. a_{n-1}):
      u_i = a_i e_0 - a_0 e_i  for i = 1..n-1, which is (b, -a) for a plane
      matrix (a b) and a_i e_0 - e_i for a smooth or homogenized one;
* homogenized, in addition: the contiguity binomials
      Q_i = d_0 d_i^{delta_i} - d^{rho_i}  from minimal_delta;
* general: every box_u of support degree at most twice the largest entry.
"""

from __future__ import annotations

from .lattice import CurveMatrix, curve_matrix, minimal_delta
from .rationals import as_rational
from .series import TruncationFrontier, WeylOperator
from . import lattice as _lattice


class HypergeometricSystem:
    """A curve matrix, a parameter, and a finite generating set of operators."""

    __slots__ = ("matrix", "beta", "toric", "euler", "extra")

    def __init__(self, matrix: CurveMatrix, beta, toric: tuple[WeylOperator, ...],
                 euler: WeylOperator, extra: tuple[WeylOperator, ...] = ()):
        self.matrix = matrix
        self.beta = beta
        self.toric = toric
        self.euler = euler
        self.extra = extra

    @property
    def operators(self) -> tuple[WeylOperator, ...]:
        return self.toric + self.extra + (self.euler,)

    @property
    def n(self) -> int:
        return self.matrix.n


def _general_kernel(A: CurveMatrix) -> list[tuple[int, ...]]:
    """Kernel vectors u > 0 (lexicographically) with max(|u_+|, |u_-|) <=
    2 max(A), in descending order.

    One representative per {u, -u} pair (the two binomials differ by sign).
    """
    degree_bound = 2 * max(A.entries)
    frontier = TruncationFrontier.uniform(A.n, 2 * degree_bound)
    zero = (0,) * A.n
    # max(|u_+|, |u_-|) = (|u|_1 + |sum u|) / 2
    return sorted((u for u in _lattice.enumerate_offsets(A, frontier)
                   if u > zero and sum(map(abs, u)) + abs(sum(u)) <= 2 * degree_bound),
                  reverse=True)


def build_system(A, beta) -> HypergeometricSystem:
    """Assemble the hypergeometric system for (A, beta).

    ``A`` may be a CurveMatrix or a plain entry sequence.  For the general
    family the toric binomials are those of support degree at most twice
    the largest entry.
    """
    A = curve_matrix(A)
    beta = as_rational(beta)
    ent = A.entries
    n = A.n
    if A.family == "general":
        toric = _general_kernel(A)
    else:
        toric = [tuple(ent[i] * (j == 0) - ent[0] * (j == i) for j in range(n))
                 for i in range(1, n)]
    contiguity = []
    if A.family == "homogenized":
        for i in range(A.base.n):
            delta, rho = minimal_delta(A.base, i)
            # u = e_0 + delta e_{i+1} - (0, rho); rho indexes the base
            # matrix and rho_i = 0, so the two halves have disjoint supports.
            contiguity.append((1,) + tuple(delta * (j == i) - r for j, r in enumerate(rho)))
    return HypergeometricSystem(
        A, beta,
        tuple(WeylOperator.from_lattice(u) for u in toric),
        WeylOperator.euler(ent, beta),
        tuple(WeylOperator.from_lattice(u) for u in contiguity),
    )
