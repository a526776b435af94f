"""Exact truncated power series and the class members built from them."""
import math
import random
from fractions import Fraction

import pytest

from starcert.gft import schwarz_to_coeffs
from starcert.series import (MAX_ORDER, TruncSeries, member_from_schwarz,
                             phi_series, schwarz_monomial)

F = Fraction


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
        member_from_schwarz(TruncSeries.from_coeffs([1], 4))


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


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_member_of_monomial_matches_closed_form_at_high_order(m):
    """For w = z^m, f = z exp(z^m/m + z^(2m)/(8m)), so f_{k+1} is the sum
    of 1/(m^a a! (8m)^b b!) over a + 2b = k/m when m divides k, else 0."""
    order = 40
    f = member_from_schwarz(schwarz_monomial(m, order))
    assert f.order == order and f.coeff(0) == 0
    for k in range(order):
        n, rest = divmod(k, m)
        expected = 0 if rest else sum(
            F(1, m ** (n - 2 * b) * math.factorial(n - 2 * b)
              * (8 * m) ** b * math.factorial(b))
            for b in range(n // 2 + 1))
        assert f.coeff(k + 1) == expected, (m, k)


def test_orders_above_the_cap_are_refused():
    w = TruncSeries.from_coeffs([0, 1], MAX_ORDER)
    assert w.order == MAX_ORDER
    for build in (lambda: TruncSeries.from_coeffs([0, 1], MAX_ORDER + 1),
                  lambda: schwarz_monomial(10 ** 9, 10 ** 9),
                  lambda: member_from_schwarz(w, MAX_ORDER + 1)):
        with pytest.raises(ValueError, match=f"order must be at most {MAX_ORDER}"):
            build()


@pytest.mark.parametrize("build, message", [
    (lambda: schwarz_monomial(0), "need k >= 1"),
    (lambda: TruncSeries([]), "at least the constant coefficient"),
    (lambda: TruncSeries.from_coeffs([1], order=-1), "order must be >= 0"),
    (lambda: member_from_schwarz(schwarz_monomial(1, 4), order=0), "order must be >= 1"),
], ids=["monomial-k0", "no-coefficients", "negative-order", "member-order-0"])
def test_malformed_input_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()
