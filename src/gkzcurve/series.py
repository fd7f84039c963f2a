"""Truncated multi-exponent series and Weyl-algebra operators.

A :class:`TruncatedSeries` represents

    f = x^base * sum_u  c_u x^u,      c_u exact rationals,

where ``base`` is a fixed rational exponent vector and the offsets u are
integer vectors confined to the L1 ball { u : sum_i |u_i| <= bound }, the
:class:`TruncationFrontier`.  Applying an operator shrinks the frontier by
the operator's maximal monomial shift, so every coefficient inside the
shrunk frontier is exact: it equals the corresponding coefficient of the
operator applied to the *infinite* series, provided the input was complete
inside its own frontier.  The c_u are kept as reduced integer pairs in
``pairs``, the package's one coefficient store; ``terms``, a view, and
``coefficient`` are their public ``Fraction`` face.

Series flagged ``exact=True`` carry *all* their nonzero terms (e.g.
polynomial solutions); operators then apply without any frontier loss.

Operators live in the Weyl algebra with rational coefficients: sums of
monomials  c * x^p * d^q  with multi-indices p, q >= 0.  They act on a
prepared view of a series, built once per call and shared by every operator
of :func:`verify_annihilation`: the term keys, numerators, denominators, L1
norms and falling-product columns, and each offset u packed into one int,
its balanced base-R digits with R = 2(M + S) + 1, M = max |u_i| and S the
largest operator shift, so a target u + shift has the source's code plus
the shift's.  Checking costs big-by-small work per target: one divmod
decides whether a second contribution cancels the first, a cancelled
target is deleted, and the frontier test reads only the moved coordinates.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Mapping, MutableMapping, Sequence
from fractions import Fraction

from .errors import InvalidInputError
from .rationals import (Pair, as_rational, as_rational_vector, falling_product, format_pair,
                        format_rational, reduced_pair)

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
    def uniform(cls, n: int, bound: int) -> "TruncationFrontier":
        return cls(n, bound)

    def contains(self, offset: Sequence[int]) -> bool:
        return sum(map(abs, offset)) <= self.bound

    def shrink(self, amount: int) -> "TruncationFrontier":
        return TruncationFrontier(self.n, self.bound - amount)

    def to_json(self) -> dict:
        return {"weight": [1] * self.n, "bound": self.bound}


class _FractionView(MutableMapping):
    """{offset: Fraction} over a series' pairs: only a lookup builds a Fraction,
    and a write stores the reduced pair (a zero removes the offset)."""

    def __init__(self, pairs: dict):
        self.pairs = pairs

    def __getitem__(self, u) -> Fraction:
        return Fraction(*self.pairs[u])

    def __setitem__(self, u, c) -> None:
        if c := as_rational(c):
            self.pairs[u] = c.as_integer_ratio()
        else:
            self.pairs.pop(u, None)

    def __delitem__(self, u) -> None:
        del self.pairs[u]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


class TruncatedSeries:
    """Immutable-by-convention container for a frontier-truncated series."""

    __slots__ = ("base", "pairs", "frontier", "exact")

    def __init__(self, base, terms: Mapping, frontier: TruncationFrontier,
                 exact: bool = False):
        base = as_rational_vector(base)
        n, bound = len(base), frontier.bound
        if frontier.n != n:
            raise InvalidInputError("frontier/base dimension mismatch")
        clean: dict[tuple[int, ...], Pair] = {}
        for off, c in terms.items():
            c = as_rational(c)
            if not c:
                continue
            off = tuple(map(int, off))
            if len(off) != n:
                raise InvalidInputError("offset dimension mismatch")
            if not exact and sum(map(abs, off)) > bound:
                raise InvalidInputError(f"offset {off} lies outside the frontier")
            clean[off] = c.numerator, c.denominator
        self.base, self.pairs, self.frontier, self.exact = base, clean, frontier, exact

    @classmethod
    def _built(cls, base, pairs: dict, frontier, exact: bool = False) -> "TruncatedSeries":
        """Take nonzero reduced pairs inside the frontier, built by the package, unchecked."""
        f = cls.__new__(cls)
        f.base, f.pairs, f.frontier, f.exact = as_rational_vector(base), pairs, frontier, exact
        return f

    @property
    def terms(self) -> MutableMapping[tuple[int, ...], Fraction]:
        """The coefficients as an {offset: Fraction} view of ``pairs``."""
        return _FractionView(self.pairs)

    @property
    def n(self) -> int:
        return len(self.base)

    def coefficient(self, offset: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(offset), Fraction(0))

    def is_zero(self) -> bool:
        return not self.pairs

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items())

    def to_json(self) -> dict:
        return {
            "base": [format_rational(b) for b in self.base],
            "terms": [
                {"offset": list(u), "coeff": format_pair(*c)}
                for u, c in sorted(self.pairs.items())
            ],
            "frontier": self.frontier.to_json(),
            "exact": self.exact,
        }

    def __repr__(self) -> str:
        return (f"TruncatedSeries(base={tuple(map(str, self.base))}, "
                f"{len(self.pairs)} terms, bound={self.frontier.bound}"
                f"{', exact' if self.exact else ''})")


def series_equal(f: TruncatedSeries, g: TruncatedSeries) -> bool:
    """Equality of base and of all coefficients on the smaller frontier."""
    bound = math.inf if f.exact and g.exact else min(f.frontier.bound, g.frontier.bound)
    return f.base == g.base and all(f.pairs.get(u) == g.pairs.get(u)
                                    for u in f.pairs.keys() | g.pairs.keys()
                                    if sum(map(abs, u)) <= bound)


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


def _act(ops, f: TruncatedSeries):
    """Yield (op, frontier, residual) for each op: residual maps the offset
    of each nonzero term of op f to an unreduced pair (num, den).

    Terms c x^p d^q of one shift p - q act together: c_u x^{base+u} adds
    c_u * S_u at u + p - q, with S_u = sum c (base + u)_q an integer sum over
    one denominator e.  A term's first coordinate with q_i > 0 reads a column
    of falling products with the term's scalar folded in, one per (i, q_i,
    scale); each further one multiplies in its own.  A shift whose S_u all
    vanish (the Euler operator on a Gamma series) is skipped; the packed keys
    are built for the first shift that moves a term.  Only where |u|_1 >
    bound - |shift|_1 is the frontier tested, on the coordinates the shift
    moves.  A target keeps its first contribution n1 w1 / (d1 e1) as the
    source's reduced pair, its weight and e.  The next, n2 w2 / (d2 e2),
    cancels it when q, r = divmod(d2 e2 w1, d1) has r = 0 and
    n1 q = -n2 w2 e1: big-by-small work, and as gcd(n1, d1) = 1 no
    cancellation is missed.  Any other sum is cross-multiplied, with no gcd,
    and kept as (num, den, 1, 1) for a third contribution.  A target whose
    sum cancels is deleted, so only survivors are decoded.
    """
    ops, n, exact = list(ops), f.n, f.exact
    reach = None if exact else [op.max_shift() for op in ops]
    keys = list(f.pairs)
    cols, size = list(zip(*keys)) or [()] * n, len(keys)
    bp, bq = [b.numerator for b in f.base], [b.denominator for b in f.base]
    falling: dict[tuple[int, int], dict[int, int]] = {}  # (i, q_i) -> {u_i: bq_i^q_i (b_i+u_i)_q_i}
    columns: dict[tuple[int, int, int], list[int]] = {}  # (i, q_i, scale) -> scale * that, per term
    codes = None
    for j, op in enumerate(ops):
        if op.n != n:
            raise InvalidInputError("operator/series dimension mismatch")
        frontier = f.frontier if exact else f.frontier.shrink(reach[j])
        bound = frontier.bound
        groups: dict[tuple[int, ...], list] = {}
        for c, p, q in op.terms:
            groups.setdefault(tuple(map(operator.sub, p, q)), []).append(
                (c.numerator, c.denominator * math.prod(map(pow, bq, q)), q))
        acc: dict[int, tuple[int, int, int, int]] = {}
        for shift, terms in groups.items():
            den = math.lcm(*(d for _, d, _ in terms))
            weights = None
            for k, d, q in terms:
                k, w = k * (den // d), None
                for i, qi in enumerate(q):
                    if qi:
                        scale = k if w is None else 1
                        col = columns.get((i, qi, scale))
                        if col is None:
                            if (i, qi) not in falling:
                                falling[i, qi] = {x: falling_product(bp[i] + x * bq[i], bq[i], qi)
                                                  for x in set(cols[i])}
                            table = falling[i, qi]
                            if scale != 1:
                                table = {x: scale * y for x, y in table.items()}
                            col = columns[i, qi, scale] = list(map(table.__getitem__, cols[i]))
                        w = col if w is None else list(map(operator.mul, w, col))
                w = [k] * size if w is None else w  # the op's one constant term
                weights = w if weights is None else list(map(operator.add, weights, w))
            if not any(weights):
                continue
            if codes is None:
                half = (max(map(abs, itertools.chain(*cols)))
                        + max(reach or map(WeylOperator.max_shift, ops)))
                radix, codes, l1s = 2 * half + 1, list(cols[0]), list(map(abs, cols[0]))
                for col in cols[1:]:
                    codes = [c * radix + x for c, x in zip(codes, col)]
                    l1s = list(map(operator.add, l1s, map(abs, col)))
                nums, dens = zip(*f.pairs.values())
            step, limit = 0, math.inf if exact else bound - sum(map(abs, shift))
            for x in shift:
                step = step * radix + x
            moved = [(i, x) for i, x in enumerate(shift) if x]
            for code, w, num, cden, l1, u in zip(codes, weights, nums, dens, l1s, keys):
                if not w or l1 > limit and bound < l1 + sum([abs(u[i] + x) - abs(u[i])
                                                             for i, x in moved]):
                    continue
                t = code + step
                if (old := acc.pop(t, None)) is None:
                    acc[t] = num, cden, w, den
                    continue
                n1, d1, w1, e1 = old
                q, r = divmod(cden * (den * w1), d1)
                if not r and n1 * q == num * -(w * e1):
                    continue  # the two cancel: the target stays out
                if a := n1 * w1 * cden * den + num * w * d1 * e1:  # 0: a later one cancelled it
                    acc[t] = a, d1 * e1 * cden * den, 1, 1
        residual = {}
        for t, (a, b, w, d) in acc.items():
            u = []
            for _ in range(n):
                u.append((t + half) % radix - half)
                t = (t - u[-1]) // radix
            residual[tuple(reversed(u))] = a * w, b * d
        yield op, frontier, residual


def apply_operator(op: WeylOperator, f: TruncatedSeries) -> TruncatedSeries:
    """Apply op to f through the prepared view of f (see the module
    docstring and :func:`_act`), decoding only the nonzero residuals.  The
    result frontier shrinks by op.max_shift unless f is exact; inside the
    returned frontier every coefficient is exact.  Only a nonzero residual
    is reduced to a pair, so an annihilating operator reduces none."""
    ((_, frontier, residual),) = _act((op,), f)
    pairs = {u: reduced_pair(*c) for u, c in residual.items()}
    return TruncatedSeries._built(f.base, pairs, frontier, f.exact)


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
    """Apply each operator and report the surviving (residual) terms.  One
    prepared view of f serves every operator (see the module docstring), and
    each report reads its count and worst offset off the decoded residual
    keys, so no series is built."""
    return [AnnihilationReport(op, len(residual),
                               max(residual, key=lambda u: (sum(map(abs, u)), u), default=None),
                               frontier.bound)
            for op, frontier, residual in _act(ops, f)]
