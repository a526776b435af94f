"""Exact truncated power series: arithmetic, exp, composition, members."""
import math
import random
from fractions import Fraction

import pytest

from starcert.gft import schwarz_to_coeffs
from starcert.series import (TruncSeries, member_from_schwarz, phi_series,
                             schwarz_monomial)

F = Fraction


def geometric(order):
    # 1/(1-z) = 1 + z + z^2 + ...
    return TruncSeries.from_coeffs([1] * (order + 1), order)


def test_construction_and_access():
    s = TruncSeries.from_coeffs([1, F(1, 2)], 4)
    assert s.order == 4
    assert s.coeff(0) == 1 and s.coeff(1) == F(1, 2) and s.coeff(4) == 0
    with pytest.raises(IndexError):
        s.coeff(5)


def test_floats_rejected():
    with pytest.raises(TypeError):
        TruncSeries.from_coeffs([0.5], 2)


@pytest.mark.parametrize("text", ["0.5", "1e3"])
def test_decimal_and_exponent_strings_rejected(text):
    with pytest.raises(ValueError, match="not an exact rational"):
        TruncSeries([text])


def test_ring_identities():
    g = geometric(8)
    one = TruncSeries.one(8)
    z = TruncSeries.monomial(1, 8)
    # (1 - z) * (1 + z + z^2 + ...) == 1
    assert (one - z) * g == one
    assert g - g == TruncSeries.zero(8)
    assert 3 * z - z.scale(3) == TruncSeries.zero(8)


def test_mul_matches_known_square():
    g = geometric(6)
    sq = g * g  # 1/(1-z)^2 = sum (k+1) z^k
    assert [sq.coeff(k) for k in range(7)] == [k + 1 for k in range(7)]


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        TruncSeries.one(3) + TruncSeries.one(4)


def test_exp_matches_factorials():
    z = TruncSeries.monomial(1, 7)
    e = z.exp()
    for k in range(8):
        assert e.coeff(k) == F(1, math.factorial(k))


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        TruncSeries.one(3).exp()


def test_exp_is_multiplicative():
    rng = random.Random(91)
    for _ in range(20):
        u = TruncSeries.from_coeffs(
            [0] + [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(6)], 6)
        v = TruncSeries.from_coeffs(
            [0] + [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(6)], 6)
        assert (u + v).exp() == u.exp() * v.exp()


def test_compose_geometric():
    # 1/(1 - 2z) via composing 1/(1-u) with u = 2z
    g = geometric(6)
    inner = TruncSeries.monomial(1, 6).scale(2)
    comp = g.compose(inner)
    assert [comp.coeff(k) for k in range(7)] == [2 ** k for k in range(7)]


def test_compose_requires_vanishing_inner():
    with pytest.raises(ValueError):
        geometric(4).compose(TruncSeries.one(4))


def test_integrate_then_shift():
    z = TruncSeries.monomial(1, 5)
    assert z.integrate().coeff(2) == F(1, 2)
    assert z.shift_up().coeff(2) == 1
    assert z.shift_up().shift_down() == z
    with pytest.raises(ValueError):
        TruncSeries.one(3).shift_down()


def test_phi_series_values():
    phi = phi_series(4)
    assert [phi.coeff(k) for k in range(5)] == [1, 1, F(1, 4), 0, 0]


def test_member_monomials():
    # driven by w(z) = z: f = z + z^2 + 5/8 z^3 + 7/24 z^4 + 43/384 z^5
    f = member_from_schwarz(schwarz_monomial(1, 5))
    assert [f.coeff(k) for k in range(6)] == [0, 1, 1, F(5, 8), F(7, 24), F(43, 384)]
    # w(z) = z^2 keeps only odd structure: a3 = 1/2, a2 = a4 = 0
    f2 = member_from_schwarz(schwarz_monomial(2, 5))
    assert [f2.coeff(k) for k in (2, 3, 4, 5)] == [0, F(1, 2), 0, F(3, 16)]


def test_member_requires_schwarz_normalization():
    with pytest.raises(ValueError):
        member_from_schwarz(TruncSeries.one(4))


def test_member_agrees_with_closed_form_maps():
    """The series route and the closed-form coefficient maps must agree
    exactly for every polynomial Schwarz function."""
    rng = random.Random(7)
    for _ in range(25):
        c = tuple(F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(4))
        w = TruncSeries.from_coeffs([0, *c], 5)
        f = member_from_schwarz(w)
        a = schwarz_to_coeffs(c)
        assert (f.coeff(2), f.coeff(3), f.coeff(4), f.coeff(5)) == tuple(a)
