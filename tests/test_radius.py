import math
from fractions import Fraction

import pytest

from starcert.radius import UPPER_BRACKET, radius_g, solve_radius

F = Fraction


# polynomials as coefficient lists, lowest degree first
def _mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _at(a, r):
    return sum(c * r ** k for k, c in enumerate(a))


def _derivative(a):
    return [k * c for k, c in enumerate(a)][1:]


# h = P/Q is the term radius_g subtracts, N the numerator of h'
P = [0, 1, F(1, 2)]
Q = _mul(_mul([1, F(-1, 2)], [1, F(-1, 2)]), [1, 0, -1])
N = [2, 3, 2, -3, -1]


def h_prime_identities_hold() -> bool:
    """(P'Q - PQ') (2 - r)^3 (1 - r)^2 (1 + r)^2 = 4 N Q^2 and
    N = (1 - r^2)(r^2 + 3r + 2) + 3r^2, as polynomial identities.

    P'Q - PQ' has degree at most 5 and the factor after it degree 7, N has
    degree 4 and Q^2 degree 8: both sides of the first identity have degree
    at most 12, so a difference that vanishes at 13 distinct points is zero.
    Both sides of the second have degree 4, so 5 points prove it."""
    def first(r):
        lhs = ((_at(_derivative(P), r) * _at(Q, r) - _at(P, r) * _at(_derivative(Q), r))
               * (2 - r) ** 3 * (1 - r) ** 2 * (1 + r) ** 2)
        return lhs == 4 * _at(N, r) * _at(Q, r) ** 2

    def second(r):
        return _at(N, r) == (1 - r * r) * (r * r + 3 * r + 2) + 3 * r * r

    return all(map(first, range(13))) and all(map(second, range(5)))


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


def test_h_prime_is_proven_positive_on_unit_interval():
    # h' = (P'Q - PQ')/Q^2 = 4 N / ((2 - r)^3 (1 - r)^2 (1 + r)^2) off the
    # zeros of Q, and on (0, 1) both 1 - r^2 and r^2 + 3r + 2 are positive,
    # so N > 0 and h' > 0 there
    assert h_prime_identities_hold()
    for r in (F(0), F(1, 3), F(1, 2), F(9, 10)):
        assert radius_g(r) == 1 - r - r * r / 4 - _at(P, r) / _at(Q, r)
    # the numerator stays positive through both endpoints: 2 and 3
    assert (_at(N, 0), _at(N, 1)) == (2, 3)


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
