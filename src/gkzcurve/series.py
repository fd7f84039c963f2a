"""Truncated multi-exponent series and Weyl-algebra operators.

A :class:`TruncatedSeries` represents

    f = x^base * sum_u  c_u x^u,      c_u exact rationals,

where ``base`` is a fixed rational exponent vector and the offsets u are
integer vectors confined to the L1 ball { u : sum_i |u_i| <= bound }, the
:class:`TruncationFrontier`.  Applying an operator shrinks the frontier by
the operator's maximal monomial shift, so every coefficient inside the
shrunk frontier is exact: it equals the corresponding coefficient of the
operator applied to the *infinite* series, provided the input was complete
inside its own frontier.

Series flagged ``exact=True`` carry *all* their nonzero terms (e.g.
polynomial solutions); operators then apply without any frontier loss.

Operators live in the Weyl algebra with rational coefficients: sums of
monomials  c * x^p * d^q  with multi-indices p, q >= 0.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InvalidInputError
from .rationals import (
    as_rational,
    as_rational_vector,
    falling_product,
    format_rational,
)

DEFAULT_BOUND = 40
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


class TruncationFrontier:
    """L1 ball { u in Z^n : sum_i |u_i| <= bound } for offsets.  Its JSON
    form lists a weight of all ones, the layout of every stored series."""

    __slots__ = ("n", "bound")

    def __init__(self, n: int, bound: int):
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise InvalidInputError("frontier bound must be an integer")
        self.n, self.bound = n, bound

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncationFrontier):
            return NotImplemented
        return (self.n, self.bound) == (other.n, other.bound)

    def __hash__(self) -> int:
        return hash((self.n, self.bound))

    @classmethod
    def uniform(cls, n: int, bound: int = DEFAULT_BOUND) -> "TruncationFrontier":
        return cls(n, bound)

    def contains(self, offset: Sequence[int]) -> bool:
        return sum(map(abs, offset)) <= self.bound

    def shrink(self, amount: int) -> "TruncationFrontier":
        return TruncationFrontier(self.n, self.bound - amount)

    def to_json(self) -> dict:
        return {"weight": [1] * self.n, "bound": self.bound}


class TruncatedSeries:
    """Immutable-by-convention container for a frontier-truncated series."""

    __slots__ = ("base", "terms", "frontier", "exact")

    def __init__(self, base, terms: Mapping, frontier: TruncationFrontier,
                 exact: bool = False):
        base = as_rational_vector(base)
        n, bound = len(base), frontier.bound
        if frontier.n != n:
            raise InvalidInputError("frontier/base dimension mismatch")
        clean: dict[tuple[int, ...], Fraction] = {}
        for off, c in terms.items():
            c = as_rational(c)
            if not c:
                continue
            off = tuple(map(int, off))
            if len(off) != n:
                raise InvalidInputError("offset dimension mismatch")
            if not exact and sum(map(abs, off)) > bound:
                raise InvalidInputError(f"offset {off} lies outside the frontier")
            clean[off] = c
        self.base = base
        self.terms = clean
        self.frontier = frontier
        self.exact = exact

    @property
    def n(self) -> int:
        return len(self.base)

    def coefficient(self, offset: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(offset), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items())

    def to_json(self) -> dict:
        return {
            "base": [format_rational(b) for b in self.base],
            "terms": [
                {"offset": list(u), "coeff": format_rational(c)}
                for u, c in self.sorted_terms()
            ],
            "frontier": self.frontier.to_json(),
            "exact": self.exact,
        }

    def __repr__(self) -> str:
        return (f"TruncatedSeries(base={tuple(map(str, self.base))}, "
                f"{len(self.terms)} terms, bound={self.frontier.bound}"
                f"{', exact' if self.exact else ''})")


def series_equal(f: TruncatedSeries, g: TruncatedSeries) -> bool:
    """Equality of base and of all coefficients on the smaller frontier."""
    if f.base != g.base:
        return False
    bound = min(f.frontier.bound, g.frontier.bound)
    for u in set(f.terms) | set(g.terms):
        if not (f.exact and g.exact) and sum(map(abs, u)) > bound:
            continue
        if f.coefficient(u) != g.coefficient(u):
            return False
    return True


# ---------------------------------------------------------------------------
# Weyl operators


class WeylOperator:
    """sum of monomials  c * x^p * d^q  (p, q in N^n), exact coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Iterable[tuple] = ()):
        merged: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
        for c, p, q in terms:
            c = as_rational(c)
            p = tuple(int(x) for x in p)
            q = tuple(int(x) for x in q)
            if len(p) != n or len(q) != n:
                raise InvalidInputError("operator term dimension mismatch")
            if any(x < 0 for x in p + q):
                raise InvalidInputError("operator exponents must be nonnegative")
            key = (p, q)
            merged[key] = merged.get(key, Fraction(0)) + c
        self.n = n
        self.terms = tuple(
            (c, p, q) for (p, q), c in sorted(merged.items()) if c != 0
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_lattice(cls, u: Sequence[int]) -> "WeylOperator":
        """Toric binomial  box_u = d^{u_+} - d^{u_-}  for u in ker A (entries
        coerced by ``int``) in normal form: the terms (Fraction(1), 0, u_+) and
        (Fraction(-1), 0, u_-), smaller d-exponent first; u = 0 gives terms ()."""
        u = tuple(map(int, u))
        plus = tuple([x if x > 0 else 0 for x in u])
        minus = tuple([p - x for p, x in zip(plus, u)])
        op = cls.__new__(cls)
        op.n, z = len(u), (0,) * len(u)
        first, second = (_ONE, z, plus), (_MINUS_ONE, z, minus)
        op.terms = (() if plus == minus else
                    (first, second) if plus < minus else (second, first))
        return op

    @classmethod
    def euler(cls, entries: Sequence[int], beta) -> "WeylOperator":
        """E = sum_j a_j x_j d_j - beta."""
        n = len(entries)
        terms = []
        for j, a in enumerate(entries):
            e = [0] * n
            e[j] = 1
            terms.append((a, tuple(e), tuple(e)))
        terms.append((-as_rational(beta), (0,) * n, (0,) * n))
        return cls(n, terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylOperator) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def max_shift(self) -> int:
        """Largest monomial shift sum_j |p_j - q_j| over terms."""
        return max((sum(map(abs, map(operator.sub, p, q))) for _, p, q in self.terms),
                   default=0)

    def to_json(self) -> list:
        return [
            {"coeff": format_rational(c), "x": list(p), "d": list(q)}
            for c, p, q in self.terms
        ]

    def __repr__(self) -> str:
        return f"WeylOperator(n={self.n}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# operator action


def apply_operator(op: WeylOperator, f: TruncatedSeries) -> TruncatedSeries:
    """Apply op to f.  The result frontier shrinks by op.max_shift unless f
    is exact; inside the returned frontier every coefficient is exact.

    Terms c x^p d^q of one shift p - q act together: c_u x^{base+u} adds
    c_u * S at u + p - q, with S = sum c (base + u)_q an integer sum over one
    denominator, so S = 0 (the Euler operator) costs no big multiply.

    Each target's sum is an unreduced integer pair (num, den), and a
    contribution is added by cross-multiplication, which needs no gcd; a sum
    that cancels drops back to (0, 1).  A target gets at most one
    contribution per shift, so a pair is a product of a few coefficients and
    lives for this call only.  A Fraction is built only for a nonzero sum at
    the end, so an annihilating operator builds none.
    """
    if op.n != f.n:
        raise InvalidInputError("operator/series dimension mismatch")
    exact = f.exact
    new_frontier = f.frontier if exact else f.frontier.shrink(op.max_shift())
    bp, bq = [b.numerator for b in f.base], [b.denominator for b in f.base]
    groups: dict[tuple[int, ...], list] = {}
    for c_op, p, q in op.terms:
        groups.setdefault(tuple(map(operator.sub, p, q)), []).append(
            (c_op / math.prod(map(pow, bq, q)), [(i, qi) for i, qi in enumerate(q) if qi]))
    source = [(u, c.numerator, c.denominator) for u, c in f.terms.items()]
    bound = new_frontier.bound
    acc: dict[tuple[int, ...], tuple[int, int]] = {}
    for shift, terms in groups.items():
        den = math.lcm(*(k.denominator for k, _ in terms))
        # q_i-scaled (base_i + u_i)_{q_i} of each term, cached by u_i
        terms = [(k.numerator * (den // k.denominator), [(i, qi, {}) for i, qi in nz])
                 for k, nz in terms]
        for u, num, cden in source:
            newu = tuple(map(operator.add, u, shift))
            if not exact and sum(map(abs, newu)) > bound:
                continue
            s = 0
            for k, nz in terms:
                for i, qi, table in nz:
                    ui = u[i]
                    x = table.get(ui)
                    if x is None:
                        x = table[ui] = falling_product(bp[i] + ui * bq[i], bq[i], qi)
                    k *= x
                s += k
            if s:
                a, b = num * s, cden * den
                old = acc.get(newu)
                if old is None:
                    acc[newu] = (a, b)
                else:
                    a = old[0] * b + a * old[1]
                    acc[newu] = (a, old[1] * b) if a else (0, 1)
    terms = {u: Fraction(a, b) for u, (a, b) in acc.items() if a}
    return TruncatedSeries(f.base, terms, new_frontier, exact)


class AnnihilationReport:
    """Residual summary for one operator applied to one series."""

    __slots__ = ("operator", "residual_term_count", "max_residual_offset", "frontier_bound")

    def __init__(self, operator: WeylOperator, residual_term_count: int,
                 max_residual_offset: tuple[int, ...] | None, frontier_bound: int):
        self.operator = operator
        self.residual_term_count = residual_term_count
        self.max_residual_offset = max_residual_offset
        self.frontier_bound = frontier_bound

    @property
    def annihilated(self) -> bool:
        return self.residual_term_count == 0


def verify_annihilation(ops: Iterable[WeylOperator],
                        f: TruncatedSeries) -> list[AnnihilationReport]:
    """Apply each operator and report the surviving (residual) terms."""
    reports = []
    for op in ops:
        g = apply_operator(op, f)
        worst = max(g.terms, key=lambda u: (sum(map(abs, u)), u), default=None)
        reports.append(AnnihilationReport(op, len(g.terms), worst, g.frontier.bound))
    return reports

