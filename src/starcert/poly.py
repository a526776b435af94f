"""Exact bivariate polynomials in the power basis, and their text format.

A :class:`BiPoly` is stored as one integer matrix over one positive
denominator: coefficient (i, j) is ``ints[i][j] / den``, in the canonical
form ``gcd(all entries, den) == 1``, so equal polynomials of equal bidegree
store equal pairs.  Ring operations work on the integers and reduce each
result by one gcd; Fractions appear only at the edges: the inputs, the
read-only views (``coeffs``, :meth:`BiPoly.coeff`, :meth:`BiPoly.terms`)
and :meth:`BiPoly.evaluate` at rational points.  The Bernstein kernel
(:mod:`starcert.bernstein`) reads the pair as ``_integers``.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from math import gcd, lcm
from typing import Iterator

from .rationals import as_fraction, format_rational, parse_rational

__all__ = ["BiPoly", "MAX_DEGREE", "parse_poly_text", "format_poly_text"]

# BiPoly.from_terms (and so parse_poly_text) refuses degrees above this:
# the dense (m+1) x (n+1) matrix of a 'bidegree 100000 100000' header alone
# would be 10^10 entries.  The certified polynomials have bidegree (6, 4).
MAX_DEGREE = 256


def _canonical(rows, den: int) -> "BiPoly":
    """The BiPoly ``rows / den`` (den > 0), reduced by one gcd."""
    g = den if den == 1 else gcd(den, *chain.from_iterable(rows))
    if g != 1:
        rows = [[c // g for c in row] for row in rows]
        den //= g
    poly = BiPoly.__new__(BiPoly)
    poly._integers = tuple(map(tuple, rows)), den
    return poly


def _nonzero(ints) -> tuple:
    """The nonzero entries of an integer matrix as (i, j, integer)."""
    return tuple((i, j, c) for i, row in enumerate(ints) for j, c in enumerate(row) if c)


class BiPoly:
    """f(p, x) = sum coeffs[i][j] * p^i * x^j with exact coefficients."""

    def __init__(self, coeffs):
        rows = tuple(tuple(as_fraction(c) for c in row) for row in coeffs)
        if not rows or not rows[0]:
            raise ValueError("coefficient matrix must be at least 1x1")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("coefficient rows must have equal length")
        # over the lcm of the reduced denominators, gcd(entries, den) is 1
        den = lcm(*(c.denominator for row in rows for c in row))
        self._integers = (tuple(tuple(c.numerator * (den // c.denominator) for c in row)
                                for row in rows), den)

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, c) -> "BiPoly":
        num, den = as_fraction(c).as_integer_ratio()
        return _canonical(((num,),), den)

    @classmethod
    def var_p(cls) -> "BiPoly":
        return cls(((0,), (1,)))

    @classmethod
    def var_x(cls) -> "BiPoly":
        return cls(((0, 1),))

    @classmethod
    def from_terms(cls, terms, bidegree: tuple[int, int] | None = None) -> "BiPoly":
        """Build from {(i, j): coeff} or an iterable of (i, j, coeff).

        The matrix is dense, so each degree must be at most MAX_DEGREE;
        a larger one raises ValueError before anything is allocated.
        """
        if isinstance(terms, dict):
            items = [(i, j, c) for (i, j), c in terms.items()]
        else:
            items = [tuple(t) for t in terms]
        m = max((i for i, _, _ in items), default=0)
        n = max((j for _, j, _ in items), default=0)
        if bidegree is not None:
            if bidegree[0] < m or bidegree[1] < n:
                raise ValueError(f"terms exceed declared bidegree {bidegree}")
            m, n = bidegree
        if max(m, n) > MAX_DEGREE:
            raise ValueError(f"bidegree ({m}, {n}) exceeds the cap of "
                             f"{MAX_DEGREE} per variable")
        rows = [[0] * (n + 1) for _ in range(m + 1)]
        seen = set()
        for i, j, c in items:
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            if (i, j) in seen:
                raise ValueError(f"duplicate term for exponent ({i}, {j})")
            seen.add((i, j))
            rows[i][j] = as_fraction(c)
        return cls(rows)

    # -- inspection ----------------------------------------------------

    @property
    def bidegree(self) -> tuple[int, int]:
        ints = self._integers[0]
        return len(ints) - 1, len(ints[0]) - 1

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions (a read-only view)."""
        ints, den = self._integers
        return tuple(tuple(Fraction(c, den) for c in row) for row in ints)

    def coeff(self, i: int, j: int) -> Fraction:
        m, n = self.bidegree
        if 0 <= i <= m and 0 <= j <= n:
            return Fraction(self._integers[0][i][j], self._integers[1])
        return Fraction(0)

    def terms(self) -> Iterator[tuple[int, int, Fraction]]:
        den = self._integers[1]
        for i, j, c in self._integer_terms:
            yield i, j, Fraction(c, den)

    @cached_property
    def _integer_terms(self) -> tuple:
        """The nonzero entries of ``_integers`` as (i, j, integer)."""
        return _nonzero(self._integers[0])

    def trim(self) -> "BiPoly":
        """Drop zero high-order rows/columns (the zero polynomial stays 1x1)."""
        ints, den = self._integers
        m = max((i for i, row in enumerate(ints) if any(row)), default=0)
        n = max((j for j, col in enumerate(zip(*ints)) if any(col)), default=0)
        return _canonical([row[:n + 1] for row in ints[:m + 1]], den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        # both pairs are canonical, so equal polynomials trim to equal pairs
        return self.trim()._integers == other.trim()._integers

    def __hash__(self):
        return hash(self.trim()._integers)

    def __repr__(self) -> str:
        m, n = self.bidegree
        return f"BiPoly(bidegree=({m},{n}), terms={len(self._integer_terms)})"

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            other = BiPoly.constant(other)
        (a, da), (b, db) = self._integers, other._integers
        d = lcm(da, db)
        sa, sb = d // da, d // db
        n = max(len(a[0]), len(b[0]))
        if len(a) < len(b):
            (a, sa), (b, sb) = (b, sb), (a, sa)
        rows = [[c * sa for c in row] + [0] * (n - len(row)) for row in a]
        for out, row in zip(rows, b):
            for j, c in enumerate(row):
                out[j] += c * sb
        return _canonical(rows, d)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        ints, den = self._integers
        return _canonical([[-c for c in row] for row in ints], den)

    def __sub__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            other = BiPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        return BiPoly.constant(other) + (-self)

    def __mul__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            num, den = as_fraction(other).as_integer_ratio()
            ints, d = self._integers
            return _canonical([[c * num for c in row] for row in ints], d * den)
        (a, da), (b, db) = self._integers, other._integers
        rows = [[0] * (len(a[0]) + len(b[0]) - 1) for _ in range(len(a) + len(b) - 1)]
        bterms = _nonzero(b)
        for i, j, c in _nonzero(a):
            for k, l, e in bterms:
                rows[i + k][j + l] += c * e
        return _canonical(rows, da * db)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "BiPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = None
        base = self
        while e:
            if e & 1:
                out = base if out is None else out * base
            base = base * base if e > 1 else base
            e >>= 1
        return BiPoly.constant(1) if out is None else out

    @cached_property
    def _floats(self) -> tuple:
        """The coefficients rounded to float; an int quotient rounds as
        float() of the reduced Fraction does."""
        ints, den = self._integers
        return tuple(tuple(c / den for c in row) for row in ints)

    def evaluate(self, p, x):
        """An exact Fraction if p and x are int or Fraction, summed over
        the nonzero terms only; else Horner over the coefficients rounded
        to float."""
        if not (isinstance(p, (int, Fraction)) and isinstance(x, (int, Fraction))):
            rows = [reduce(lambda r, c: r * x + c, reversed(row)) for row in self._floats]
            return reduce(lambda acc, r: acc * p + r, reversed(rows))
        # homogenised: sum a_ij pn^i pd^(m-i) xn^j xd^(n-j) over nonzero a_ij
        (pn, pd), (xn, xd) = p.as_integer_ratio(), x.as_integer_ratio()
        m, n = self.bidegree
        pw, xw = _homogeneous_powers(pn, pd, m), _homogeneous_powers(xn, xd, n)
        acc = sum(c * pw[i] * xw[j] for i, j, c in self._integer_terms)
        return Fraction(acc, self._integers[1] * pw[0] * xw[0])


def _homogeneous_powers(a: int, b: int, m: int) -> list:
    """[a^i b^(m-i) for i = 0..m], in about 3m products."""
    powers = [1]
    for _ in range(m):
        powers.append(powers[-1] * b)
    out, ai = [], 1
    for bi in reversed(powers):
        out.append(ai * bi)
        ai *= a
    return out


# ======================================================================
# the polynomial text format
# ======================================================================
#
#   # optional comments
#   bidegree <m> <n>
#   <i> <j> <num>/<den>
#
# One term per line; "/den" may be omitted for integers.

def parse_poly_text(text: str) -> BiPoly:
    header: tuple[int, int] | None = None
    terms: list[tuple[int, int, Fraction]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "bidegree" or len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'bidegree <m> <n>' header")
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad bidegree") from exc
            if header[0] < 0 or header[1] < 0:
                raise ValueError(f"line {lineno}: bidegree must be nonnegative")
            continue
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected '<i> <j> <coeff>'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad exponents") from exc
        if not (0 <= i <= header[0] and 0 <= j <= header[1]):
            raise ValueError(f"line {lineno}: exponent ({i}, {j}) outside bidegree {header}")
        if (i, j) in seen:
            raise ValueError(f"line {lineno}: duplicate term for ({i}, {j})")
        seen.add((i, j))
        try:
            c = parse_rational(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        terms.append((i, j, c))
    if header is None:
        raise ValueError("missing 'bidegree <m> <n>' header")
    return BiPoly.from_terms(terms, bidegree=header)


def format_poly_text(poly: BiPoly) -> str:
    m, n = poly.bidegree
    lines = [f"bidegree {m} {n}"]
    for i, j, c in sorted(poly.terms()):
        lines.append(f"{i} {j} {format_rational(c)}")
    return "\n".join(lines) + "\n"
