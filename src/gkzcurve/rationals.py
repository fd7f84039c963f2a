"""Exact rational arithmetic helpers.

All series coefficients in this package are exact rationals.  We use
``fractions.Fraction`` from the standard library as the rational type: it is
normalized (gcd-reduced, positive denominator), hashable, and supports exact
field arithmetic out of the box.

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
    x = as_rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def falling_product(p: int, q: int, k: int) -> int:
    """p (p - q) ... (p - (k-1) q) = q^k (p/q)_k for q >= 1, k >= 0: the
    integer primitive of every falling factorial and Gamma coefficient."""
    return math.prod(range(p, p - k * q, -q))


def log_abs(x: Fraction) -> float:
    """ln|x| for a nonzero rational, safe for huge numerators."""
    if x == 0:
        raise InvalidInputError("log of zero")
    return math.log(abs(x.numerator)) - math.log(x.denominator)
