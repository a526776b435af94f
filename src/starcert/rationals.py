"""Helpers for exact rationals in text form.

All certificate files and reports serialize rationals as ``"num/den"``
strings (or a bare integer string), never as floats.  The arithmetic
itself is plain :class:`fractions.Fraction`, which already guarantees a
positive denominator and a gcd-reduced representation.
"""
from __future__ import annotations

from fractions import Fraction

__all__ = ["parse_rational", "format_rational", "as_fraction"]


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` or ``"num"`` into a Fraction.

    Raises ValueError on anything else (floats included: the decimal
    point is rejected on purpose so inexact values cannot sneak into a
    certificate), and on input that is not a string at all, such as a
    JSON number or null read from a certificate file.
    """
    if not isinstance(text, str):
        raise ValueError(f"not an exact rational: {text!r}")
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not an exact rational: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Render a Fraction as ``"num/den"`` (or ``"num"`` for integers)."""
    q = Fraction(q)
    return str(q)


def as_fraction(value) -> Fraction:
    """Coerce int/str/Fraction to Fraction; refuse floats.

    Floats are refused everywhere exactness matters, so a caller has to
    convert explicitly (and think about what the binary value means).
    """
    if isinstance(value, float):
        raise TypeError("refusing to coerce float to exact rational; "
                        "pass a Fraction, int or 'num/den' string")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)
