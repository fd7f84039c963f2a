import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from gkzcurve.errors import InvalidInputError
from gkzcurve.rationals import (
    falling_factorial,
    falling_factorial_1d,
    falling_product,
    format_rational,
    log_abs,
    parse_rational,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


def test_falling_factorial_examples():
    # (1/2)(−1/2)(−3/2) = 3/8
    assert falling_factorial((F(1, 2), F(0)), (3, 0)) == F(3, 8)
    # coordinate 2 of (·, 2) with step 2: 2*1
    assert falling_factorial((F(5), F(2)), (0, 2)) == 2
    assert falling_factorial((F(7), F(-3)), (0, 0)) == 1  # empty product


def test_falling_factorial_integer_is_factorial_ratio():
    for z in range(0, 12):
        for k in range(0, z + 1):
            assert falling_factorial_1d(z, k) == F(
                math.factorial(z), math.factorial(z - k)
            )


def test_falling_factorial_rejects_negative_steps():
    with pytest.raises(InvalidInputError):
        falling_factorial_1d(F(1, 2), -1)


@given(rationals, st.integers(min_value=0, max_value=25))
def test_falling_factorial_shift_rule(z, k):
    # (z)_{k+1} = (z)_k * (z - k)
    assert falling_factorial_1d(z, k + 1) == falling_factorial_1d(z, k) * (z - k)


@given(rationals, st.integers(min_value=0, max_value=25))
def test_falling_factorial_matches_fraction_loop(z, k):
    # the loop over z - j, one Fraction factor at a time (test oracle)
    oracle = F(1)
    for j in range(k):
        oracle *= z - j
    assert falling_factorial_1d(z, k) == oracle
    assert falling_product(z.numerator, z.denominator, k) == oracle * z.denominator**k


@given(
    st.lists(rationals, min_size=1, max_size=4),
    st.data(),
)
def test_falling_factorial_splits_over_coordinates(zs, data):
    alphas = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=8),
            min_size=len(zs),
            max_size=len(zs),
        )
    )
    prod = F(1)
    for z, a in zip(zs, alphas):
        prod *= falling_factorial_1d(z, a)
    assert falling_factorial(tuple(zs), tuple(alphas)) == prod


def test_rational_round_trip():
    for s in ("0", "5", "-7", "3/16", "-22/7"):
        assert format_rational(parse_rational(s)) == s
    assert parse_rational("4/8") == F(1, 2)
    with pytest.raises(InvalidInputError):
        parse_rational("1/0")
    with pytest.raises(InvalidInputError):
        parse_rational("x")


def test_log_abs_handles_huge_values():
    x = F(math.factorial(300), 7)
    assert log_abs(x) == pytest.approx(math.lgamma(301) - math.log(7), rel=1e-12)
    assert log_abs(-x) == log_abs(x)
