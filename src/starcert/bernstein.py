"""Exact Bernstein-form positivity certificates for bivariate polynomials.

The certified path has no floating point; only :meth:`BiPoly.evaluate`
at float arguments (for the float oracles) rounds.  The central objects are

* :class:`BiPoly` - a bivariate polynomial in the power basis,
* :class:`BernsteinPatch` - its Bernstein coefficients over a rectangle,
  held as an integer matrix over one common denominator,
* :class:`PositivityCertificate` - a branch-and-bound tree whose leaves
  prove ``f > 0`` (strict positivity via coefficient positivity), or
  ``f >= margin * (p^2 + x^2)`` near a declared zero corner (the corner
  estimate), or record an explicit failure witness.

The enclosure property that drives everything: the value of ``f`` on a
rectangle lies between the smallest and largest Bernstein coefficient of
``f`` over that rectangle.  The kernel runs on integers: conversion clears
every denominator once and applies integer matrices per axis, and midpoint
de Casteljau subdivision is integer add and shift, the denominator gaining
a power of two.  Fractions appear only at the edge: :func:`enclosure`, the
``bcoeffs`` view, certificate node fields and JSON.  Certificates can be
re-validated independently by re-converting each node from the power
basis, which is what :func:`check_certificate` does.
"""
from __future__ import annotations

import json
import threading
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, gcd, lcm
from operator import mul
from sys import getsizeof
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .rationals import as_fraction, format_rational, parse_rational

__all__ = [
    "BiPoly", "Box", "UNIT_BOX", "BernsteinPatch", "CornerRule", "CornerSplit",
    "CertificateNode", "PositivityCertificate", "CertificateError",
    "to_bernstein", "enclosure", "subdivide",
    "corner_split", "corner_estimate",
    "certify_positive", "bound_above", "check_certificate",
    "parse_poly_text", "format_poly_text",
]


class CertificateError(Exception):
    """A certificate failed independent re-validation."""


# ======================================================================
# polynomials in the power basis
# ======================================================================

# BiPoly.from_terms (and so parse_poly_text) refuses degrees above this:
# the dense (m+1) x (n+1) matrix of a 'bidegree 100000 100000' header alone
# would be 10^10 entries.  The certified polynomials have bidegree (6, 4).
MAX_DEGREE = 256

# certify_positive refuses a max_depth above this.  Its tree is built by
# one recursive call per level, so a deep budget on a polynomial with a
# zero at a corner (p^2 + x^2 subdivides its origin box at every level) ran
# out of Python's stack near depth 500; boxes at depth 64 are 2^-64 of the
# root already.
MAX_DEPTH = 64

# bound_above refuses a depth above this.  Its work can grow as 4^depth
# patches; where the maximum lies along a curve, as for -(p - x - 1/3)^2,
# the patches the cutoff keeps still double per level.
MAX_BOUND_DEPTH = 12


def _freeze(rows: Iterable[Iterable]) -> tuple:
    out = tuple(tuple(as_fraction(c) for c in row) for row in rows)
    if not out or not out[0]:
        raise ValueError("coefficient matrix must be at least 1x1")
    width = len(out[0])
    if any(len(r) != width for r in out):
        raise ValueError("coefficient rows must have equal length")
    return out


class BiPoly:
    """f(p, x) = sum coeffs[i][j] * p^i * x^j with exact coefficients."""

    def __init__(self, coeffs):
        self.coeffs = _freeze(coeffs)

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, c) -> "BiPoly":
        return cls(((as_fraction(c),),))

    @classmethod
    def var_p(cls) -> "BiPoly":
        return cls(((Fraction(0),), (Fraction(1),)))

    @classmethod
    def var_x(cls) -> "BiPoly":
        return cls(((Fraction(0), Fraction(1)),))

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
        rows = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
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
        return len(self.coeffs) - 1, len(self.coeffs[0]) - 1

    def coeff(self, i: int, j: int) -> Fraction:
        m, n = self.bidegree
        if 0 <= i <= m and 0 <= j <= n:
            return self.coeffs[i][j]
        return Fraction(0)

    def terms(self) -> Iterator[tuple[int, int, Fraction]]:
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c != 0:
                    yield i, j, c

    @cached_property
    def _integers(self) -> tuple[tuple, int]:
        """The coefficients as an integer matrix over their lcm denominator."""
        d = lcm(*(c.denominator for row in self.coeffs for c in row))
        return tuple(tuple(c.numerator * (d // c.denominator) for c in row)
                     for row in self.coeffs), d

    @cached_property
    def _integer_terms(self) -> tuple:
        """The nonzero entries of ``_integers`` as (i, j, integer)."""
        return tuple((i, j, c) for i, row in enumerate(self._integers[0])
                     for j, c in enumerate(row) if c)

    def trim(self) -> "BiPoly":
        """Drop zero high-order rows/columns (the zero polynomial stays 1x1)."""
        rows = [list(r) for r in self.coeffs]
        while len(rows) > 1 and all(c == 0 for c in rows[-1]):
            rows.pop()
        while len(rows[0]) > 1 and all(r[-1] == 0 for r in rows):
            for r in rows:
                r.pop()
        return BiPoly(rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.trim().coeffs == other.trim().coeffs

    def __hash__(self):
        return hash(self.trim().coeffs)

    def __repr__(self) -> str:
        m, n = self.bidegree
        k = sum(1 for _ in self.terms())
        return f"BiPoly(bidegree=({m},{n}), terms={k})"

    # -- ring operations -------------------------------------------------

    def _padded(self, m: int, n: int) -> list:
        rows = [list(r) + [Fraction(0)] * (n + 1 - len(r)) for r in self.coeffs]
        rows += [[Fraction(0)] * (n + 1) for _ in range(m + 1 - len(rows))]
        return rows

    def __add__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            other = BiPoly.constant(other)
        m = max(self.bidegree[0], other.bidegree[0])
        n = max(self.bidegree[1], other.bidegree[1])
        a, b = self._padded(m, n), other._padded(m, n)
        return BiPoly([[a[i][j] + b[i][j] for j in range(n + 1)] for i in range(m + 1)])

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly([[-c for c in row] for row in self.coeffs])

    def __sub__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            other = BiPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        return BiPoly.constant(other) + (-self)

    def __mul__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            f = as_fraction(other)
            return BiPoly([[f * c for c in row] for row in self.coeffs])
        m = self.bidegree[0] + other.bidegree[0]
        n = self.bidegree[1] + other.bidegree[1]
        out = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
        for i, j, c in self.terms():
            for k, l, d in other.terms():
                out[i + k][j + l] += c * d
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "BiPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = BiPoly.constant(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    @cached_property
    def _floats(self) -> tuple:
        return tuple(tuple(float(c) for c in row) for row in self.coeffs)

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


# ======================================================================
# boxes and Bernstein patches
# ======================================================================

class Box:
    """Axis-aligned rectangle [p_lo, p_hi] x [x_lo, x_hi], exact endpoints.

    Boxes compare and hash by their ends, which nothing assigns after the
    constructor."""

    __slots__ = ("p_lo", "p_hi", "x_lo", "x_hi", "_ends")

    def __init__(self, p_lo, p_hi, x_lo, x_hi):
        ends = [end if type(end) is Fraction else as_fraction(end)
                for end in (p_lo, p_hi, x_lo, x_hi)]
        self.p_lo, self.p_hi, self.x_lo, self.x_hi = ends
        ends = [end.as_integer_ratio() for end in ends]
        # denominators are positive, so lo < hi compares cross-products
        (pln, pld), (phn, phd), (xln, xld), (xhn, xhd) = ends
        if not (pln * phd < phn * pld and xln * xhd < xhn * xld):
            raise ValueError(f"degenerate box {self}")
        # the reduced integer ends per axis, (lo num, den, hi num, den)
        self._ends = (ends[0] + ends[1], ends[2] + ends[3])

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.p_lo, self.p_hi, self.x_lo, self.x_hi)

    # reduced ends are equal exactly when the Fraction ends are
    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._ends == other._ends

    def __hash__(self):
        return hash(self._ends)

    def __repr__(self) -> str:
        return (f"Box(p_lo={self.p_lo!r}, p_hi={self.p_hi!r}, "
                f"x_lo={self.x_lo!r}, x_hi={self.x_hi!r})")

    def __str__(self) -> str:
        return (f"[{self.p_lo},{self.p_hi}]x[{self.x_lo},{self.x_hi}]")

    @property
    def p_width(self) -> Fraction:
        return self.p_hi - self.p_lo

    @property
    def x_width(self) -> Fraction:
        return self.x_hi - self.x_lo

    def quadrants(self) -> tuple["Box", "Box", "Box", "Box"]:
        """Midpoint quadrisection in the order (lo,lo), (lo,hi), (hi,lo), (hi,hi)."""
        return tuple(Box(Fraction(pln, pld), Fraction(phn, phd),
                         Fraction(xln, xld), Fraction(xhn, xhd))
                     for (pln, pld, phn, phd), (xln, xld, xhn, xhd)
                     in _quadrant_ends(self._ends))


def _quadrant_ends(ends: tuple) -> list:
    """The ``Box._ends`` of the four midpoint quadrants of a box, in
    :meth:`Box.quadrants` order.  Each axis [ln/ld, hn/hd] splits at
    (ln hd + hn ld) / (2 ld hd), reduced by one gcd."""
    halves = []
    for ln, ld, hn, hd in ends:
        num, den = ln * hd + hn * ld, 2 * ld * hd
        g = gcd(num, den)
        halves.append(((ln, ld, num // g, den // g), (num // g, den // g, hn, hd)))
    return [(pe, xe) for pe in halves[0] for xe in halves[1]]


UNIT_BOX = Box(0, 1, 0, 1)


class BernsteinPatch:
    """Bernstein coefficients of a polynomial over a box: coefficient
    (i, j) is ``ints[i][j] / den``, with one positive common denominator."""

    __slots__ = ("box", "ints", "den")

    def __init__(self, box: Box, ints: tuple, den: int):
        self.box, self.ints, self.den = box, ints, den

    @property
    def bcoeffs(self) -> tuple:
        """The coefficients as Fractions (a read-only view)."""
        return tuple(tuple(Fraction(c, self.den) for c in row) for row in self.ints)

    @property
    def degree(self) -> tuple[int, int]:
        return len(self.ints) - 1, len(self.ints[0]) - 1


def _p_stage(rows: Sequence[Sequence[int]], mp) -> list:
    """The integer matrix product mp * rows (the map on the p axis)."""
    cols = list(zip(*rows))
    return [[sum(map(mul, r, c)) for c in cols] for r in mp]


def _x_stage(rows: Sequence[Sequence[int]], mx) -> list:
    """The integer matrix product rows * mx^T (the map on the x axis)."""
    return [[sum(map(mul, r, c)) for c in mx] for r in rows]


def _pencil(m: int, c0: int, c1: int, d0: int, d1: int) -> list:
    """Rows j = 0..m: the integer coefficients of (c0 + c1 z)^(m-j)
    (d0 + d1 z)^j.  Row 0 is binomial; each later row is the one before
    times (d0 + d1 z), divided exactly by (c0 + c1 z), which needs c0 > 0:
    r_k = (g_k - c1 r_(k-1)) / c0.  O(m^2) products."""
    row = [comb(m, k) * c0 ** (m - k) * c1 ** k for k in range(m + 1)]
    rows = [row]
    for _ in range(m):
        prev, row = 0, [d0 * a + d1 * b for a, b in zip(row, [0] + row)]
        for k, g in enumerate(row):     # g_(m+1) = c1 r_m is not needed
            row[k] = prev = (g - c1 * prev) // c0
        rows.append(row)
    return rows


# The memo keeps at most this many bytes of maps, whatever the degree.
_AXIS_CACHE_BYTES = 1 << 20


class _AxisMaps:
    """Bounded memo of the fused per-axis maps of :func:`to_bernstein`.

    The gain rests on boxes that repeat: every node box of a certificate
    is a dyadic cell of its root box at one degree, so re-checking one
    certificate, or many over one root box, meets the same few intervals
    again and again.  The retained size, counted by :func:`_retained_size`,
    never exceeds ``_AXIS_CACHE_BYTES``, whatever the degree or the size of
    the interval's integers: the oldest entries go first, and a map larger
    than the limit alone is returned but not kept.  Only the memo's dict
    table (about 100 bytes an entry) comes on top.
    """

    def __init__(self):
        self.bytes = 0
        self._maps: dict = {}           # key -> (map, scale, size)
        self._lock = threading.Lock()   # guards inserts and evictions

    def get(self, key):
        return self._maps.get(key)

    def put(self, key, fused: tuple, scale: int) -> tuple:
        entry = (fused, scale, _retained_size(key, fused, scale))
        limit = _AXIS_CACHE_BYTES
        if entry[2] <= limit:
            with self._lock:
                if key not in self._maps:
                    while self.bytes + entry[2] > limit:
                        self.bytes -= self._maps.pop(next(iter(self._maps)))[2]
                    self._maps[key] = entry
                    self.bytes += entry[2]
        return entry


def _retained_size(key: tuple, fused: tuple, scale: int) -> int:
    """Bytes a memo entry holds, as sys.getsizeof counts them: the key and
    its integers, the map's tuples and integers, the scale, and the
    (map, scale, size) entry tuple with its size integer."""
    size = getsizeof
    return (size(key) + sum(map(size, key)) + size(fused) + size(scale)
            + sum(size(row) + sum(map(size, row)) for row in fused)
            + size((fused, scale, 0)) + size(1 << 30))


_AXIS_MAPS = _AxisMaps()


def _axis_map(m: int, ln: int, ld: int, hn: int, hd: int) -> tuple[tuple, int]:
    """Integer matrix M and scale L q^m: M/(L q^m) maps the power
    coefficients of a degree-m polynomial in t to its Bernstein
    coefficients over [ln/ld, hn/hd] (both reduced, ld, hd > 0), with
    q = lcm(ld, hd), L = lcm of the C(m, k).  By blossoming (Ramshaw 1989),
    coefficient j of t^k is e_k(lo^(m-j), hi^j)/C(m, k): column k of a
    :func:`_pencil` row times L/C(m, k).  Memoised in ``_AXIS_MAPS``."""
    key = (m, ln, ld, hn, hd)
    entry = _AXIS_MAPS.get(key)
    if entry is None:
        q = lcm(ld, hd)
        big = lcm(*(comb(m, k) for k in range(m + 1)))
        weights = [big // comb(m, k) for k in range(m + 1)]
        rows = _pencil(m, q, ln * (q // ld), q, hn * (q // hd))
        entry = _AXIS_MAPS.put(key, tuple(tuple(map(mul, r, weights)) for r in rows),
                               big * q ** m)
    return entry[0], entry[1]


def to_bernstein(poly: BiPoly, box: Box) -> BernsteinPatch:
    """Bernstein coefficients of ``poly`` over ``box``, exactly.

    The box is remapped to the unit square by p = p_lo + (p_hi - p_lo) u,
    x = x_lo + (x_hi - x_lo) v, and the power coefficients are converted
    with  b_ij = sum_{k<=i, l<=j} C(i,k) C(j,l) / (C(m,k) C(n,l)) a_kl.
    Integer arithmetic throughout, with every denominator cleared once.
    """
    m, n = poly.bidegree
    ints, den = poly._integers
    mp, dp = _axis_map(m, *box._ends[0])
    mx, dx = _axis_map(n, *box._ends[1])
    return BernsteinPatch(box, _x_stage(_p_stage(ints, mp), mx), den * dp * dx)


def enclosure(patch: BernsteinPatch) -> tuple[Fraction, Fraction]:
    """(min, max) Bernstein coefficient; encloses the range of f on the box."""
    lo = min(min(row) for row in patch.ints)
    hi = max(max(row) for row in patch.ints)
    return Fraction(lo, patch.den), Fraction(hi, patch.den)


def _halve(vec: Sequence[int]) -> tuple[list, list]:
    """Midpoint de Casteljau on integers, add and shift only: the two
    halves of a degree-d coefficient vector, both scaled by 2^d."""
    left, right = [], []
    for k in range(len(vec) - 1, -1, -1):
        left.append(vec[0] << k)
        right.append(vec[-1] << k)
        vec = [a + b for a, b in zip(vec, vec[1:])]
    return left, right[::-1]


def subdivide(patch: BernsteinPatch) -> tuple[BernsteinPatch, ...]:
    """Split a patch at the box midpoint into its four quadrant patches.

    Child order matches :meth:`Box.quadrants`.  The children's Bernstein
    coefficients come from de Casteljau halving, which agrees exactly
    with re-converting the polynomial on each child box.  The common
    denominator gains 2^(m+n).
    """
    m, n = patch.degree
    p_halves = zip(*map(_halve, zip(*patch.ints)))
    quads = [half for cols in p_halves for half in zip(*map(_halve, zip(*cols)))]
    den = patch.den << (m + n)
    return tuple(BernsteinPatch(box, ints, den)
                 for box, ints in zip(patch.box.quadrants(), quads))


# ======================================================================
# the corner estimate
# ======================================================================

class CornerRule:
    """Declares the one point where the certified polynomial is allowed to vanish."""

    __slots__ = ("p", "x")

    def __init__(self, p, x):
        self.p, self.x = as_fraction(p), as_fraction(x)

    def point(self) -> tuple[Fraction, Fraction]:
        return (self.p, self.x)


class CornerSplit:
    """F = Q + R around a zero corner mapped to the origin.

    Q = quad_pp p^2 + quad_px p x + quad_xx x^2 is the full quadratic part
    (constant and linear parts vanish); every tail term has total degree
    >= 3; the box is contained in [0, half_width]^2.
    """

    # tail: ((i, j, coeff), ...) with i + j >= 3
    __slots__ = ("quad_pp", "quad_px", "quad_xx", "tail", "half_width")

    def __init__(self, quad_pp, quad_px, quad_xx, tail, half_width):
        self.quad_pp = as_fraction(quad_pp)
        self.quad_px = as_fraction(quad_px)
        self.quad_xx = as_fraction(quad_xx)
        self.half_width = as_fraction(half_width)
        self.tail = tail = tuple((int(i), int(j), as_fraction(c)) for i, j, c in tail)
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if any(i + j < 3 for i, j, _ in tail):
            raise ValueError("tail terms must have total degree >= 3")


def corner_split(poly: BiPoly, box: Box,
                 corner: tuple[Fraction, Fraction]) -> Optional[CornerSplit]:
    """Recenter ``poly`` at a zero corner of ``box``, if the rule applies.

    Returns None when ``corner`` is not a corner of ``box`` or when the
    recentered polynomial has nonvanishing constant or linear part (then
    the quadratic lower bound cannot hold and the rule is inapplicable).
    """
    cp, cx = as_fraction(corner[0]), as_fraction(corner[1])
    if cp not in (box.p_lo, box.p_hi) or cx not in (box.x_lo, box.x_hi):
        return None
    m, n = poly.bidegree
    rows, den = poly._integers
    # t = c + u at a low end, c - u at a high one: pencil row i holds the
    # u-coefficients of t^i den(c)^degree
    (pn, pd), (xn, xd) = cp.as_integer_ratio(), cx.as_integer_ratio()
    mp = list(zip(*_pencil(m, pd, 0, pn, pd if cp == box.p_lo else -pd)))
    mx = list(zip(*_pencil(n, xd, 0, xn, xd if cx == box.x_lo else -xd)))
    # the nonzero terms of the recentered polynomial, in row order
    scale = den * pd ** m * xd ** n
    g = {(i, j): Fraction(c, scale) for i, row in enumerate(_x_stage(_p_stage(rows, mp), mx))
         for j, c in enumerate(row) if c}
    if (0, 0) in g or (1, 0) in g or (0, 1) in g:
        return None
    tail = [(i, j, c) for (i, j), c in g.items() if i + j >= 3]
    return CornerSplit(
        quad_pp=g.get((2, 0), 0), quad_px=g.get((1, 1), 0), quad_xx=g.get((0, 2), 0),
        tail=tail, half_width=max(box.p_width, box.x_width))


def corner_estimate(split: CornerSplit) -> tuple[bool, Fraction]:
    """Try to certify F >= margin * (p^2 + x^2) on the corner box.

    Splitting the cross term with 2px <= p^2 + x^2 bounds the quadratic
    part below by lambda (p^2 + x^2) with
    lambda = min(quad_pp - |quad_px|/2, quad_xx - |quad_px|/2), and each
    tail monomial by |c| h^(i+j-2) (p^2 + x^2) for 0 <= p, x <= h.  The
    estimate succeeds iff margin = lambda - tail_sum > 0 (lambda <= 0 is
    an ordinary failure, not an error).
    """
    half_cross = abs(split.quad_px) / 2
    lam = min(split.quad_pp - half_cross, split.quad_xx - half_cross)
    tail_sum = sum((abs(c) * split.half_width ** (i + j - 2)
                    for i, j, c in split.tail), start=Fraction(0))
    margin = lam - tail_sum
    return margin > 0, margin


# ======================================================================
# branch-and-bound certification
# ======================================================================

STATUS_POSITIVE = "coeff_positive"
STATUS_SUBDIVIDED = "subdivided"
STATUS_CORNER = "corner_certified"
STATUS_FAILED = "failed"

_WITNESS_GRID = 16  # 17 x 17 lattice for failure witnesses


class CertificateNode(NamedTuple):
    box: Box
    status: str
    min_bcoeff: Fraction
    max_bcoeff: Fraction
    children: tuple = ()
    margin: Optional[Fraction] = None
    witness: Optional[tuple] = None   # (p, x, value) minimizing a box lattice

    def leaves(self) -> Iterator["CertificateNode"]:
        if self.children:
            for child in self.children:
                yield from child.leaves()
        else:
            yield self

    def depth(self) -> int:
        return 1 + max((c.depth() for c in self.children), default=0)


class PositivityCertificate(NamedTuple):
    root: CertificateNode
    corner_rule: Optional[CornerRule] = None

    @property
    def succeeded(self) -> bool:
        return all(leaf.status != STATUS_FAILED for leaf in self.root.leaves())

    def leaves(self) -> list:
        return list(self.root.leaves())

    def node_count(self) -> int:
        def count(node):
            return 1 + sum(count(c) for c in node.children)
        return count(self.root)

    # -- serialization -------------------------------------------------

    def to_json_doc(self) -> dict:
        return _node_to_dict(self.root)

    def to_json(self) -> str:
        return json.dumps(self.to_json_doc(), indent=2)

    @classmethod
    def from_json_doc(cls, doc: dict,
                      corner_rule: Optional[CornerRule] = None) -> "PositivityCertificate":
        # box ends repeat across nodes: parse each distinct string once;
        # anything else goes to parse_rational, which raises ValueError
        parsed: dict = {}

        def parse(text):
            if type(text) is not str:
                return parse_rational(text)
            value = parsed.get(text)
            if value is None:
                value = parsed[text] = parse_rational(text)
            return value

        return cls(_node_from_dict(doc, parse), corner_rule)

    @classmethod
    def from_json(cls, text: str,
                  corner_rule: Optional[CornerRule] = None) -> "PositivityCertificate":
        try:
            return cls.from_json_doc(json.loads(text), corner_rule)
        except RecursionError as exc:
            raise ValueError("certificate nested too deeply to read") from exc


def _node_to_dict(node: CertificateNode) -> dict:
    doc = {
        "box": [format_rational(v) for v in node.box.as_tuple()],
        "status": node.status,
        "min_bcoeff": format_rational(node.min_bcoeff),
        "max_bcoeff": format_rational(node.max_bcoeff),
        "children": [_node_to_dict(c) for c in node.children],
    }
    if node.margin is not None:
        doc["margin"] = format_rational(node.margin)
    if node.witness is not None:
        doc["witness"] = [format_rational(v) for v in node.witness]
    return doc


def _rational_list(doc: dict, key: str, count: int, parse) -> tuple:
    values = doc[key]
    if not isinstance(values, list) or len(values) != count:
        raise ValueError(f"certificate node {key!r} must be a list of "
                         f"{count} rationals")
    return tuple(map(parse, values))


def _node_from_dict(doc: dict, parse) -> CertificateNode:
    """One node of a certificate document, its rationals read by ``parse``;
    ValueError on any malformed part."""
    if not isinstance(doc, dict):
        raise ValueError(f"certificate node must be an object, "
                         f"got {type(doc).__name__}")
    try:
        box = Box(*_rational_list(doc, "box", 4, parse))
        status = doc["status"]
        if status not in (STATUS_POSITIVE, STATUS_SUBDIVIDED, STATUS_CORNER, STATUS_FAILED):
            raise ValueError(f"unknown node status {status!r}")
        children = doc.get("children", [])
        if not isinstance(children, list):
            raise ValueError("certificate node 'children' must be a list")
        node = CertificateNode(
            box=box,
            status=status,
            min_bcoeff=parse(doc["min_bcoeff"]),
            max_bcoeff=parse(doc["max_bcoeff"]),
            children=tuple(_node_from_dict(c, parse) for c in children),
            margin=parse(doc["margin"]) if "margin" in doc else None,
            witness=_rational_list(doc, "witness", 3, parse) if "witness" in doc else None,
        )
    except KeyError as exc:
        raise ValueError(f"certificate node missing field {exc}") from exc
    return node


def _lattice_witness(poly: BiPoly, box: Box) -> tuple:
    """Minimizing point of poly over a (GRID+1)^2 rational lattice on box."""
    best = None
    for i in range(_WITNESS_GRID + 1):
        p = box.p_lo + box.p_width * Fraction(i, _WITNESS_GRID)
        for j in range(_WITNESS_GRID + 1):
            x = box.x_lo + box.x_width * Fraction(j, _WITNESS_GRID)
            v = poly.evaluate(p, x)
            if best is None or v < best[2]:
                best = (p, x, v)
    return best


def certify_positive(poly: BiPoly, box: Box = UNIT_BOX, max_depth: int = 3,
                     corner_rule: Optional[CornerRule] = None) -> PositivityCertificate:
    """Branch-and-bound certificate that ``poly > 0`` on ``box``.

    At each node: if the minimum Bernstein coefficient is positive the box
    is done; otherwise, if ``corner_rule`` names a corner of the current
    box (the one declared zero of the polynomial), the corner estimate is
    attempted; otherwise the box is quadrisected exactly, up to
    ``max_depth`` levels (at most ``MAX_DEPTH``).  A box that exhausts the
    depth budget becomes a ``failed`` leaf carrying the minimizing point of
    a 17 x 17 lattice as a concrete (near-)counterexample to investigate.

    The construction is deterministic: child order is fixed and there is
    no parallelism, so the same inputs always yield the same tree.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if max_depth > MAX_DEPTH:
        raise ValueError(f"max_depth must be at most {MAX_DEPTH}")
    root_patch = to_bernstein(poly, box)

    def build(patch: BernsteinPatch, depth: int) -> CertificateNode:
        lo, hi = enclosure(patch)
        if lo > 0:
            return CertificateNode(patch.box, STATUS_POSITIVE, lo, hi)
        if corner_rule is not None:
            split = corner_split(poly, patch.box, corner_rule.point())
            if split is not None:
                ok, margin = corner_estimate(split)
                if ok:
                    return CertificateNode(patch.box, STATUS_CORNER, lo, hi,
                                           margin=margin)
        if depth < max_depth:
            children = tuple(build(child, depth + 1) for child in subdivide(patch))
            return CertificateNode(patch.box, STATUS_SUBDIVIDED, lo, hi, children)
        return CertificateNode(patch.box, STATUS_FAILED, lo, hi,
                               witness=_lattice_witness(poly, patch.box))

    return PositivityCertificate(build(root_patch, 0), corner_rule)


def bound_above(poly: BiPoly, box: Box = UNIT_BOX, depth: int = 0) -> Fraction:
    """Certified upper bound: the max Bernstein coefficient after ``depth``
    uniform subdivisions (non-increasing in depth, at most
    ``MAX_BOUND_DEPTH``).

    Patches that cannot raise the result are cut off (Ray & Nataraj
    2009): corner coefficients are values of ``poly`` and a leaf's largest
    coefficient is one of the maxima taken, so each is at most the
    result, and subdivision never raises a patch's largest coefficient.
    A patch whose largest coefficient is at most the best such value seen
    is dropped, which leaves the result as it was.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > MAX_BOUND_DEPTH:
        raise ValueError(f"depth must be at most {MAX_BOUND_DEPTH}")
    # depth first, so at most three siblings wait per level; leaves at
    # different levels have different denominators, so compare Fractions
    stack = [(to_bernstein(poly, box), depth)]
    best = None
    while stack:
        patch, left = stack.pop()
        ints = patch.ints
        top = Fraction(max(map(max, ints)), patch.den)
        seen = top if not left else Fraction(
            max(ints[0][0], ints[0][-1], ints[-1][0], ints[-1][-1]), patch.den)
        if best is None or seen > best:
            best = seen
        if top > best:      # never at a leaf, where best >= top
            stack.extend((child, left - 1) for child in subdivide(patch))
    return best


# ======================================================================
# independent re-validation
# ======================================================================

def check_certificate(poly: BiPoly, cert: PositivityCertificate,
                      box: Box) -> bool:
    """Re-verify every claim in a certificate from scratch.

    Every node's enclosure is recomputed by direct power-to-Bernstein
    conversion on its box (not by replaying the builder's de Casteljau
    splits, so the two conversion routes cross-check each other), corner
    margins are recomputed from the polynomial, and subdivision geometry
    is checked to be exact quadrisection.  The conversion is the one of
    :func:`to_bernstein`, p axis first: nodes in one column of the tree
    share their p-interval, so each distinct p-interval is mapped once per
    call and each node applies only its own x-axis map.

    The walk runs on integers: each node's box carries its ends as reduced
    (numerator, denominator) pairs (``Box._ends``).  A subdivided node's
    children must have exactly the ends :func:`_quadrant_ends` gives, and a
    recomputed enclosure is compared with the recorded one by
    cross-multiplication.

    Returns True iff the certificate is structurally sound **and** proves
    positivity (no failed leaves).  Structural lies - a root box other than
    ``box``, a tampered bound, status, box or margin, or a field or child
    the node's status does not allow - raise :class:`CertificateError`.
    """
    if cert.root.box != box:
        raise CertificateError(f"root box {cert.root.box} does not match {box}")
    ints, den = poly._integers
    m, n = poly.bidegree
    # p-interval ends -> (mp * ints, den * dp)
    p_stages: dict = {}

    def walk(node: CertificateNode) -> bool:
        # only a corner leaf records a margin, only a failed leaf a witness
        if node.margin is not None and node.status != STATUS_CORNER:
            raise CertificateError(f"{node.status} node on {node.box} "
                                   f"records a margin")
        if node.witness is not None and node.status != STATUS_FAILED:
            raise CertificateError(f"{node.status} node on {node.box} "
                                   f"records a witness")
        p_ends, x_ends = node.box._ends
        stage = p_stages.get(p_ends)
        if stage is None:
            mp, dp = _axis_map(m, *p_ends)
            stage = p_stages[p_ends] = (_p_stage(ints, mp), den * dp)
        mx, dx = _axis_map(n, *x_ends)
        flat = [sum(map(mul, r, c)) for r in stage[0] for c in mx]
        lo, hi, d = min(flat), max(flat), stage[1] * dx
        rlo, rhi = node.min_bcoeff, node.max_bcoeff
        if (lo * rlo.denominator != rlo.numerator * d
                or hi * rhi.denominator != rhi.numerator * d):
            raise CertificateError(
                f"enclosure mismatch on {node.box}: "
                f"recomputed ({Fraction(lo, d)}, {Fraction(hi, d)}), recorded "
                f"({rlo}, {rhi})")
        if node.status == STATUS_POSITIVE:
            if node.children:
                raise CertificateError("positive leaf must have no children")
            if lo <= 0:
                raise CertificateError(
                    f"leaf on {node.box} claims positivity but min "
                    f"coefficient is {Fraction(lo, d)}")
            return True
        if node.status == STATUS_CORNER:
            if node.children:
                raise CertificateError("corner leaf must have no children")
            if cert.corner_rule is None:
                raise CertificateError("corner leaf without a corner rule")
            split = corner_split(poly, node.box, cert.corner_rule.point())
            if split is None:
                raise CertificateError(
                    f"corner rule does not apply on {node.box}")
            ok, margin = corner_estimate(split)
            if not ok:
                raise CertificateError(
                    f"corner estimate fails on {node.box}")
            if margin != node.margin:
                raise CertificateError(
                    f"corner margin mismatch: recomputed {margin}, "
                    f"recorded {node.margin}")
            return True
        if node.status == STATUS_SUBDIVIDED:
            if [c.box._ends for c in node.children] != _quadrant_ends(node.box._ends):
                raise CertificateError(
                    f"children of {node.box} are not its quadrants")
            return all([walk(c) for c in node.children])
        if node.status == STATUS_FAILED:
            if node.children:
                raise CertificateError("failed leaf must have no children")
            if node.witness is None or len(node.witness) != 3:
                raise CertificateError(
                    f"failed leaf needs a witness (p, x, value), "
                    f"got {node.witness!r}")
            wp, wx, wv = node.witness
            if not (node.box.p_lo <= wp <= node.box.p_hi
                    and node.box.x_lo <= wx <= node.box.x_hi):
                raise CertificateError("failure witness outside its box")
            if poly.evaluate(wp, wx) != wv:
                raise CertificateError("failure witness value does not match")
            if lo > 0:
                raise CertificateError("failed leaf has positive enclosure")
            return False
        raise CertificateError(f"unknown node status {node.status!r}")

    return walk(cert.root)
