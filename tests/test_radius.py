import math
from fractions import Fraction

import pytest

from starcert.radius import (UPPER_BRACKET, h_prime_numerator,
                             h_prime_positive, radius_g, solve_radius)

F = Fraction


def test_g_at_zero():
    assert radius_g(0) == 1


def test_g_exact_sample():
    # g(1/2) = (1 - 1/2 - 1/16) - (1/2)(5/4) / ((3/4)^2 (3/4))
    assert radius_g(F(1, 2)) == F(7, 16) - F(5, 8) / (F(9, 16) * F(3, 4))


def test_g_domain():
    with pytest.raises(ValueError):
        radius_g(1)
    with pytest.raises(ValueError):
        radius_g(F(-1, 2))


def test_g_strictly_decreasing_exact():
    prev = radius_g(0)
    for i in range(1, 200):
        cur = radius_g(F(i, 200))
        assert cur < prev
        prev = cur


def test_h_prime_positive_on_unit_interval():
    assert all(h_prime_positive(F(i, 64)) for i in range(1, 64))
    # the numerator stays positive through both endpoints: 2 and 3
    assert h_prime_numerator(0) == 2
    assert h_prime_numerator(1) == 3


def test_solve_radius_default():
    res = solve_radius()
    assert res.bracket_hi - res.bracket_lo <= F(1, 10 ** 12)
    assert radius_g(res.bracket_lo) > 0 >= radius_g(res.bracket_hi)
    assert 0.33 < res.root < 0.35


def test_solve_radius_monotone_in_gamma():
    r0 = solve_radius(0)
    r_high = solve_radius(F(1, 10))
    assert r_high.root < r0.root          # stricter level, smaller radius
    assert radius_g(r_high.bracket_lo) > F(1, 10)


def test_solve_radius_rejects_unreachable_levels():
    with pytest.raises(ValueError):
        solve_radius(1)                    # g(0) = 1 is the supremum
    with pytest.raises(ValueError):
        solve_radius(F(-10 ** 9))          # below g(UPPER_BRACKET)
    with pytest.raises(ValueError):
        solve_radius(0, tol=0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_solve_radius_rejects_nonfinite_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        solve_radius(0, tol=tol)


def test_bracket_endpoint_is_interior():
    assert 0 < UPPER_BRACKET < 1
    assert radius_g(UPPER_BRACKET) < -1
