import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from gkzcurve.errors import InvalidInputError
from gkzcurve.rationals import (
    falling_product,
    format_rational,
    log_abs,
    parse_rational,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


def test_falling_product_examples():
    # 2^3 (1/2)_3 = 1 * (-1) * (-3) = 3, as (1/2)(-1/2)(-3/2) = 3/8
    assert falling_product(1, 2, 3) == 3
    assert falling_product(2, 1, 2) == 2
    assert falling_product(-3, 1, 0) == 1  # empty product


def test_falling_product_integer_is_factorial_ratio():
    for z in range(0, 12):
        for k in range(0, z + 1):
            assert falling_product(z, 1, k) == math.factorial(z) // math.factorial(z - k)


@given(rationals, st.integers(min_value=0, max_value=25))
def test_falling_product_shift_rule(z, k):
    # (p)_{k+1} = (p)_k * (p - k q) in steps of q
    p, q = z.numerator, z.denominator
    assert falling_product(p, q, k + 1) == falling_product(p, q, k) * (p - k * q)


@given(rationals, st.integers(min_value=0, max_value=25))
def test_falling_product_matches_fraction_loop(z, k):
    # the loop over z - j, one Fraction factor at a time (test oracle)
    oracle = F(1)
    for j in range(k):
        oracle *= z - j
    assert falling_product(z.numerator, z.denominator, k) == oracle * z.denominator**k


def test_rational_round_trip():
    for s in ("0", "5", "-7", "3/16", "-22/7"):
        assert format_rational(parse_rational(s)) == s
    assert parse_rational("4/8") == F(1, 2)
    with pytest.raises(InvalidInputError):
        parse_rational("1/0")
    with pytest.raises(InvalidInputError):
        parse_rational("x")


def test_log_abs_handles_huge_values():
    num = math.factorial(300)
    assert log_abs(num, 7) == pytest.approx(math.lgamma(301) - math.log(7), rel=1e-12)
    assert log_abs(-num, 7) == log_abs(num, 7)
    with pytest.raises(InvalidInputError):
        log_abs(0, 1)
