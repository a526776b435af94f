import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


# ---------------------------------------------------------------------------
# the grammar is Fraction(str)'s without the decimal point and exponent
# ---------------------------------------------------------------------------

def fraction_reads(text):
    """What Fraction(str) makes of ``text`` with decimals and exponents
    refused, or None where it refuses."""
    if "." in text or "e" in text.lower():
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def parse_or_none(text):
    try:
        return parse_rational(text)
    except ValueError:
        return None


SPACE = st.sampled_from(["", " ", "\t", "\n", "\xa0", "\u2003", "\x1c"])
SIGN = st.sampled_from(["", "-", "+"])
DIGITS = st.from_regex(r"[0-9٣１]{1,3}(_[0-9]{1,2})?", fullmatch=True) \
    | st.sampled_from(["0", "00", "1__0", "_1", "1_", "9" * 5000])
SHAPED = st.builds(lambda *parts: "".join(parts), SPACE, SIGN, DIGITS, SPACE,
                   st.sampled_from(["/", ""]), SPACE, SIGN, DIGITS, SPACE)


# Python 3.10's Fraction(str) refuses underscores, which int() takes
@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="pins the Fraction(str) grammar of Python 3.11")
@settings(max_examples=500, deadline=None)
@given(st.text() | SHAPED)
def test_parse_accepts_what_fraction_accepts(text):
    assert parse_or_none(text) == fraction_reads(text)


@pytest.mark.parametrize("bad", ["1/-2", "1/+2", "1 / 2", "-1 /2", "1/ 2",
                                 "9" * 5000, "/2", "1/", "1/2/3", "- 1"])
def test_parse_rejects_what_fraction_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("text, value", [("1_0", 10), ("٣", 3),
                                         (" +3 ", 3), ("\t-6/8\n", Fraction(-3, 4))])
def test_parse_accepts_fraction_forms(text, value):
    assert parse_rational(text) == value
