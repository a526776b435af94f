"""Truncated power series with exact rational coefficients.

A :class:`TruncSeries` holds the coefficients of a polynomial truncation
``a_0 + a_1 z + ... + a_N z^N`` as :class:`fractions.Fraction` values.
Everything here is exact; no floating point enters any computation.

The one domain-specific constructor is :func:`member_from_schwarz`: given
a Schwarz function ``w`` (``w(0) = 0``), it produces the member ``f`` of
the starlike class determined by ``w`` through
``z f'(z) / f(z) = phi(w(z))``, ``phi(z) = (1 + z/2)^2``.  That is

    f(z) = z * exp(u(z)),   z u'(z) = g(z) = phi(w(z)) - 1 = w + w^2/4,

and its coefficients follow from the power-series exp recurrence: with
``e_0 = 1`` and ``k e_k = sum_{j=1..k} g_j e_{k-j}``, ``f_{k+1} = e_k``.
For example ``w(z) = z`` gives

    f(z) = z + z^2 + 5/8 z^3 + 7/24 z^4 + ...
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .rationals import as_fraction

__all__ = ["TruncSeries", "phi_series", "member_from_schwarz", "schwarz_monomial",
           "DEFAULT_ORDER"]

DEFAULT_ORDER = 8

# TruncSeries.from_coeffs, schwarz_monomial and member_from_schwarz refuse
# orders above this before allocating anything.  At order 2000 the
# coefficients of w = z already pass Python's 4300-digit limit on integer
# string conversion, and the recurrence's cost grows with the order squared.
MAX_ORDER = 1000


def _checked_order(order: int) -> int:
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > MAX_ORDER:
        raise ValueError(f"order must be at most {MAX_ORDER}")
    return order


class TruncSeries:
    """Polynomial truncation of a power series, exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(as_fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("series needs at least the constant coefficient")
        self.coeffs = cs

    @classmethod
    def from_coeffs(cls, coeffs: Sequence, order: int | None = None) -> "TruncSeries":
        """Build a series, padding with zeros (or truncating) to ``order``."""
        cs = [as_fraction(c) for c in coeffs]
        if order is not None:
            pad = _checked_order(order) + 1 - len(cs)
            cs = cs[: order + 1] + [Fraction(0)] * pad
        return cls(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = " + ".join(f"({c})z^{k}" for k, c in enumerate(self.coeffs) if c != 0)
        return f"TruncSeries[{terms or '0'}; order {self.order}]"


def phi_series(order: int = DEFAULT_ORDER) -> TruncSeries:
    """The target function phi(z) = (1 + z/2)^2 = 1 + z + z^2/4 as a series."""
    return TruncSeries.from_coeffs([1, 1, Fraction(1, 4)], order)


def schwarz_monomial(k: int, order: int = DEFAULT_ORDER) -> TruncSeries:
    """The Schwarz function w(z) = z^k (k >= 1) as a series."""
    if k < 1:
        raise ValueError("a Schwarz function must vanish at 0; need k >= 1")
    # past the order the 1 is truncated away, so w is zero
    return TruncSeries.from_coeffs([0] * min(k, _checked_order(order) + 1) + [1], order)


def member_from_schwarz(w: TruncSeries, order: int | None = None) -> TruncSeries:
    """Class member f determined by the Schwarz function ``w``.

    Computes f(z) = z * exp(u), z u' = phi(w) - 1, exactly, as a series
    truncated at ``order`` (defaults to the order of ``w``).  The input is
    treated as an exact polynomial: if ``w`` carries fewer terms than
    ``order``, missing coefficients are taken to be zero.  Both sums run
    over the nonzero terms only, so a sparse ``w`` such as ``z^k`` costs
    little at high order.
    """
    if w.coeffs[0] != 0:
        raise ValueError("Schwarz function must satisfy w(0) = 0")
    n = w.order if order is None else order
    if n < 1:
        raise ValueError("order must be >= 1")
    _checked_order(n)
    # f_{k+1} = e_k for k < n needs g_j only for j < n
    wt = [(j, c) for j, c in enumerate(w.coeffs[:n]) if c != 0]
    g = dict(wt)
    for i, a in wt:
        for j, b in wt:
            if i + j < n:
                g[i + j] = g.get(i + j, 0) + a * b / 4
    gt = [(j, c) for j, c in g.items() if c != 0]
    e = [Fraction(1)]
    for k in range(1, n):
        e.append(sum((c * e[k - j] for j, c in gt if j <= k), Fraction(0)) / k)
    return TruncSeries([0] + e)
