"""Exact rational arithmetic helpers.

All series coefficients in this package are exact rationals, stored as
reduced integer pairs (num, den), den > 0 (see :func:`reduced_pair`), so a
long series builds no object per term.  ``fractions.Fraction`` is the public
face: parameters, exponents, operator coefficients and every read coefficient.

The one non-trivial primitive is the multivariate falling factorial

    (z)_alpha = prod_i  z_i * (z_i - 1) * ... * (z_i - alpha_i + 1),

taken over the coordinates where alpha_i > 0 (empty product = 1).  It is the
building block of every Gamma-series coefficient, multiplied out over the
integers by :func:`falling_product`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import InvalidInputError

Pair = tuple[int, int]  # a reduced (num, den), den > 0: the package's series coefficient


def as_rational(x) -> Fraction:
    """Coerce ints, rationals and 'p/q' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise InvalidInputError(f"cannot interpret {x!r} as a rational number")


def as_rational_vector(xs: Iterable) -> tuple[Fraction, ...]:
    return tuple(as_rational(x) for x in xs)


def parse_rational(s: str) -> Fraction:
    """Parse 'p' or 'p/q' (q > 0 after normalization)."""
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad rational literal {s!r}") from exc


def format_rational(x: Fraction | int) -> str:
    """Render a rational as 'p' or 'p/q' with q > 0 and gcd(p, q) = 1."""
    return format_pair(*as_rational(x).as_integer_ratio())


def format_pair(num: int, den: int) -> str:
    """Render a reduced pair (num, den) as 'num' or 'num/den'."""
    return str(num) if den == 1 else f"{num}/{den}"


def reduced_pair(num: int, den: int) -> Pair:
    """num / den (den != 0) as a reduced pair: gcd 1, positive denominator."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def falling_product(p: int, q: int, k: int) -> int:
    """p (p - q) ... (p - (k-1) q) = q^k (p/q)_k for q >= 1, k >= 0: the
    integer primitive of every falling factorial and Gamma coefficient."""
    return math.prod(range(p, p - k * q, -q))


def log_abs(num: int, den: int) -> float:
    """ln|num / den| for num != 0 < den, safe for huge integers."""
    if num == 0:
        raise InvalidInputError("log of zero")
    return math.log(abs(num)) - math.log(den)
