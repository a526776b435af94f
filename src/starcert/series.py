"""Truncated power series with exact rational coefficients.

A :class:`TruncSeries` holds the coefficients of a polynomial truncation
``a_0 + a_1 z + ... + a_N z^N`` as :class:`fractions.Fraction` values.
Everything here is exact; no floating point enters any computation.

The one domain-specific constructor is :func:`member_from_schwarz`: given
a Schwarz function ``w`` (``w(0) = 0``), it produces the normalized
analytic function

    f(z) = z * exp( integral_0^z (phi(w(t)) - 1) / t dt ),
    phi(z) = (1 + z/2)^2,

which is precisely the member of the starlike class determined by ``w``
through ``z f'(z) / f(z) = phi(w(z))``.  For example ``w(z) = z`` gives

    f(z) = z + z^2 + 5/8 z^3 + 7/24 z^4 + ...
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["TruncSeries", "phi_series", "member_from_schwarz", "schwarz_monomial",
           "DEFAULT_ORDER"]

DEFAULT_ORDER = 8


def _coerce(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("series coefficients must be exact rationals, got float")
    return Fraction(value)


class TruncSeries:
    """Polynomial truncation of a power series, exact coefficients.

    Arithmetic requires both operands to carry the same truncation order;
    mixing orders silently would make it too easy to claim more precision
    than the data supports.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(_coerce(c) for c in coeffs)
        if not cs:
            raise ValueError("series needs at least the constant coefficient")
        self.coeffs = cs

    # -- constructors ------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Sequence, order: int | None = None) -> "TruncSeries":
        """Build a series, padding with zeros (or truncating) to ``order``."""
        cs = [_coerce(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        return cls(cs)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "TruncSeries":
        return cls.from_coeffs([], order)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "TruncSeries":
        return cls.from_coeffs([1], order)

    @classmethod
    def monomial(cls, k: int, order: int = DEFAULT_ORDER) -> "TruncSeries":
        """The monomial z^k truncated at ``order``."""
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        if k > order:
            return cls.zero(order)
        return cls.from_coeffs([0] * k + [1], order)

    # -- basics ------------------------------------------------------

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

    def _check_order(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}")

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        return TruncSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        return TruncSeries(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(-a for a in self.coeffs)

    def scale(self, factor) -> "TruncSeries":
        f = _coerce(factor)
        return TruncSeries(f * a for a in self.coeffs)

    def __mul__(self, other):
        """Cauchy product, truncated back to the common order."""
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        self._check_order(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncSeries(out)

    def __rmul__(self, other):
        return self.scale(other)

    # -- calculus -----------------------------------------------------

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term.

        Uses the differential recurrence (exp a)' = a' * exp a, which gives
        k e_k = sum_{j=1..k} j a_j e_{k-j} with e_0 = 1.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp is only supported for zero constant term")
        n = self.order
        e = [Fraction(1)] + [Fraction(0)] * n
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if self.coeffs[j] != 0:
                    acc += j * self.coeffs[j] * e[k - j]
            e[k] = acc / k
        return TruncSeries(e)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner(z)), requiring inner(0) = 0 so truncation is exact."""
        self._check_order(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires inner constant term 0")
        # Horner: a_0 + w*(a_1 + w*(a_2 + ...))
        acc = TruncSeries.from_coeffs([self.coeffs[self.order]], self.order)
        for k in range(self.order - 1, -1, -1):
            acc = acc * inner
            acc = TruncSeries(
                (acc.coeffs[0] + self.coeffs[k],) + acc.coeffs[1:])
        return acc

    def integrate(self) -> "TruncSeries":
        """Termwise antiderivative with zero constant, truncated to the same order."""
        out = [Fraction(0)] * (self.order + 1)
        for k in range(self.order):
            out[k + 1] = self.coeffs[k] / (k + 1)
        return TruncSeries(out)

    def shift_down(self) -> "TruncSeries":
        """Divide by z (requires zero constant term); top coefficient becomes 0.

        The returned top coefficient is not determined by this truncation,
        so callers must only rely on it through a following integrate(),
        which discards it again.
        """
        if self.coeffs[0] != 0:
            raise ValueError("division by z requires zero constant term")
        return TruncSeries(self.coeffs[1:] + (Fraction(0),))

    def shift_up(self) -> "TruncSeries":
        """Multiply by z, truncating the top coefficient."""
        return TruncSeries((Fraction(0),) + self.coeffs[:-1])


def phi_series(order: int = DEFAULT_ORDER) -> TruncSeries:
    """The target function phi(z) = (1 + z/2)^2 = 1 + z + z^2/4 as a series."""
    return TruncSeries.from_coeffs([1, 1, Fraction(1, 4)], order)


def schwarz_monomial(k: int, order: int = DEFAULT_ORDER) -> TruncSeries:
    """The Schwarz function w(z) = z^k (k >= 1) as a series."""
    if k < 1:
        raise ValueError("a Schwarz function must vanish at 0; need k >= 1")
    return TruncSeries.monomial(k, order)


def member_from_schwarz(w: TruncSeries, order: int | None = None) -> TruncSeries:
    """Class member f determined by the Schwarz function ``w``.

    Computes f(z) = z * exp(integral of (phi(w(t)) - 1)/t) exactly, as a
    series truncated at ``order`` (defaults to the order of ``w``).  The
    input is treated as an exact polynomial: if ``w`` carries fewer terms
    than ``order``, missing coefficients are taken to be zero.

    The division by t is an index shift, valid because phi(w) - 1 has no
    constant term when w(0) = 0.
    """
    if w.coeffs[0] != 0:
        raise ValueError("Schwarz function must satisfy w(0) = 0")
    n = w.order if order is None else order
    if n < 1:
        raise ValueError("order must be >= 1")
    ww = TruncSeries.from_coeffs(w.coeffs, n)
    g = phi_series(n).compose(ww) - TruncSeries.one(n)  # phi(w) - 1, vanishes at 0
    u = g.shift_down().integrate()
    return u.exp().shift_up()
