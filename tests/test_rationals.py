from fractions import Fraction

import pytest

from starcert.rationals import as_fraction, format_rational, parse_rational


def test_parse_roundtrip():
    for text in ["0", "1", "-1", "5/8", "-34/3", "3959871/131072"]:
        assert format_rational(parse_rational(text)) == text


def test_parse_normalizes():
    assert parse_rational("6/8") == Fraction(3, 4)
    assert parse_rational(" 2/4 ") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["0.5", "1e-3", "2E5", "abc", "1/0", "",
                                 None, 3, ["1"]])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_as_fraction_refuses_floats():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_as_fraction_keeps_an_exact_fraction():
    q = Fraction(3, 7)
    assert as_fraction(q) is q
