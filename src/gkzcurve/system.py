"""Hypergeometric systems attached to a curve matrix and a parameter.

For a row matrix A and a rational parameter beta, the system consists of

* toric binomials  d^{u_+} - d^{u_-}  for u in ker A, and
* the Euler operator  E = sum_j a_j x_j d_j - beta.

Each supported family gets the generating set in its customary shape:

* plane (a b):            d_1^b - d_2^a
* smooth (1 a_2 .. a_n):  d_1^{a_i} - d_i   for i = 2..n
* homogenized (1 a_1 .. a_n):
      d_0^{a_i} - d_i  for every i, plus the contiguity binomials
      Q_i = d_0 d_i^{delta_i} - d^{rho_i}  built from minimal_delta
* general:                all binomials box_u with small support degree
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError
from .lattice import CurveMatrix, curve_matrix, minimal_delta
from .rationals import as_rational
from .series import TruncationFrontier, WeylOperator
from . import lattice as _lattice


@dataclass(frozen=True)
class HypergeometricSystem:
    """A curve matrix, a parameter, and a finite generating set of operators."""

    matrix: CurveMatrix
    beta: Fraction
    toric: tuple[WeylOperator, ...]
    euler: WeylOperator
    extra: tuple[WeylOperator, ...] = ()

    @property
    def operators(self) -> tuple[WeylOperator, ...]:
        return self.toric + self.extra + (self.euler,)

    @property
    def n(self) -> int:
        return self.matrix.n


def _general_binomials(A: CurveMatrix) -> list[WeylOperator]:
    """box_u for kernel vectors with max(|u_+|, |u_-|) <= 2 max(A).

    One representative per {u, -u} pair (the two binomials differ by sign).
    """
    degree_bound = 2 * max(A.entries)
    frontier = TruncationFrontier.uniform(A.n, 2 * degree_bound)
    seen = set()
    ops = []
    for u in _lattice.enumerate_offsets(A, frontier):
        if all(x == 0 for x in u):
            continue
        plus = sum(x for x in u if x > 0)
        minus = -sum(x for x in u if x < 0)
        if max(plus, minus) > degree_bound:
            continue
        key = max(u, tuple(-x for x in u))
        if key in seen:
            continue
        seen.add(key)
        ops.append(WeylOperator.from_lattice(key))
    return ops


def build_system(A, beta) -> HypergeometricSystem:
    """Assemble the hypergeometric system for (A, beta).

    ``A`` may be a CurveMatrix or a plain entry sequence.  For the general
    family the toric binomials are those of support degree at most twice
    the largest entry.
    """
    if not isinstance(A, CurveMatrix):
        A = curve_matrix(A)
    beta = as_rational(beta)
    ent = A.entries
    n = A.n
    euler = WeylOperator.euler(ent, beta)
    extra: tuple[WeylOperator, ...] = ()

    if A.family == "plane":
        a, b = ent
        toric = [WeylOperator.from_lattice((b, -a))]
    elif A.family == "smooth":
        toric = [
            WeylOperator.d_power(n, 0, ent[i]) - WeylOperator.d_power(n, i)
            for i in range(1, n)
        ]
    elif A.family == "homogenized":
        toric = [
            WeylOperator.d_power(n, 0, ent[i]) - WeylOperator.d_power(n, i)
            for i in range(1, n)
        ]
        base = A.base
        contiguity = []
        for i in range(base.n):
            delta, rho = minimal_delta(base, i)
            # rho indexes the base matrix; shift by one for the new column.
            d_left = [0] * n
            d_left[0] = 1
            d_left[i + 1] += delta
            d_right = [0] + list(rho)
            contiguity.append(
                WeylOperator.monomial(n, 1, (0,) * n, tuple(d_left))
                - WeylOperator.monomial(n, 1, (0,) * n, tuple(d_right))
            )
        extra = tuple(contiguity)
    elif A.family == "general":
        toric = _general_binomials(A)
    else:  # pragma: no cover - curve_matrix already validates
        raise InvalidInputError(f"unsupported family {A.family!r}")

    return HypergeometricSystem(A, beta, tuple(toric), euler, extra)
