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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import comb, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

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

def _freeze(rows: Iterable[Iterable]) -> tuple:
    out = tuple(tuple(as_fraction(c) for c in row) for row in rows)
    if not out or not out[0]:
        raise ValueError("coefficient matrix must be at least 1x1")
    width = len(out[0])
    if any(len(r) != width for r in out):
        raise ValueError("coefficient rows must have equal length")
    return out


@dataclass(frozen=True, eq=False)
class BiPoly:
    """f(p, x) = sum coeffs[i][j] * p^i * x^j with exact coefficients."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _freeze(self.coeffs))

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
        """Build from {(i, j): coeff} or an iterable of (i, j, coeff)."""
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
        rows = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
        for i, j, c in items:
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            if rows[i][j] != 0:
                raise ValueError(f"duplicate term for exponent ({i}, {j})")
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
        """Horner evaluation: an exact Fraction if p and x are int or
        Fraction, else Horner over the coefficients rounded to float."""
        if not (isinstance(p, (int, Fraction)) and isinstance(x, (int, Fraction))):
            rows = [reduce(lambda r, c: r * x + c, reversed(row)) for row in self._floats]
            return reduce(lambda acc, r: acc * p + r, reversed(rows))
        # homogenised integer Horner: sum a_ij pn^i pd^(m-i) xn^j xd^(n-j)
        (pn, pd), (xn, xd) = p.as_integer_ratio(), x.as_integer_ratio()
        ints, den = self._integers
        m, n = self.bidegree
        pw, xw = [pd ** k for k in range(m + 1)], [xd ** k for k in range(n + 1)]
        acc = 0
        for row, w in zip(reversed(ints), pw):
            racc = 0
            for c, v in zip(reversed(row), xw):
                racc = racc * xn + c * v
            acc = acc * pn + racc * w
        return Fraction(acc, den * pw[m] * xw[n])


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


def format_poly_text(poly: BiPoly, comment: str | None = None) -> str:
    m, n = poly.bidegree
    lines = []
    if comment:
        lines.extend("# " + ln for ln in comment.splitlines())
    lines.append(f"bidegree {m} {n}")
    for i, j, c in sorted(poly.terms()):
        lines.append(f"{i} {j} {format_rational(c)}")
    return "\n".join(lines) + "\n"


# ======================================================================
# boxes and Bernstein patches
# ======================================================================

@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle [p_lo, p_hi] x [x_lo, x_hi], exact endpoints."""

    p_lo: Fraction
    p_hi: Fraction
    x_lo: Fraction
    x_hi: Fraction

    def __post_init__(self):
        for name in ("p_lo", "p_hi", "x_lo", "x_hi"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if not (self.p_lo < self.p_hi and self.x_lo < self.x_hi):
            raise ValueError(f"degenerate box {self.as_tuple()}")

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.p_lo, self.p_hi, self.x_lo, self.x_hi)

    def __str__(self) -> str:
        return (f"[{self.p_lo},{self.p_hi}]x[{self.x_lo},{self.x_hi}]")

    @property
    def p_width(self) -> Fraction:
        return self.p_hi - self.p_lo

    @property
    def x_width(self) -> Fraction:
        return self.x_hi - self.x_lo

    def midpoints(self) -> tuple[Fraction, Fraction]:
        return (self.p_lo + self.p_hi) / 2, (self.x_lo + self.x_hi) / 2

    def corners(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return ((self.p_lo, self.x_lo), (self.p_lo, self.x_hi),
                (self.p_hi, self.x_lo), (self.p_hi, self.x_hi))

    def quadrants(self) -> tuple["Box", "Box", "Box", "Box"]:
        """Midpoint quadrisection in the order (lo,lo), (lo,hi), (hi,lo), (hi,hi)."""
        pm, xm = self.midpoints()
        return (Box(self.p_lo, pm, self.x_lo, xm),
                Box(self.p_lo, pm, xm, self.x_hi),
                Box(pm, self.p_hi, self.x_lo, xm),
                Box(pm, self.p_hi, xm, self.x_hi))


UNIT_BOX = Box(0, 1, 0, 1)


@dataclass(frozen=True, eq=False)
class BernsteinPatch:
    """Bernstein coefficients of a polynomial over a box: coefficient
    (i, j) is ``ints[i][j] / den``, with one positive common denominator."""

    box: Box
    ints: tuple
    den: int

    @property
    def bcoeffs(self) -> tuple:
        """The coefficients as Fractions (a read-only view)."""
        return tuple(tuple(Fraction(c, self.den) for c in row) for row in self.ints)

    @property
    def degree(self) -> tuple[int, int]:
        return len(self.ints) - 1, len(self.ints[0]) - 1


def _transform(rows: Sequence[Sequence[int]], mp, mx) -> list:
    """The integer matrix product mp * rows * mx^T (one map per axis)."""
    y = [[sum(map(mul, r, c)) for c in mx] for r in rows]
    return [[sum(map(mul, r, c)) for c in zip(*y)] for r in mp]


def _shift(m: int, a: Fraction, s: Fraction) -> tuple[list, int]:
    """Integer matrix M and scale q^m such that M/q^m maps the coefficients
    of a degree-m polynomial in t to those in u, where t = a + s u and q is
    the common denominator of a and s: column i is (qa + qs u)^i q^(m-i),
    so each step's division by q is exact."""
    q = lcm(a.denominator, s.denominator)
    an, sn = a.numerator * (q // a.denominator), s.numerator * (q // s.denominator)
    col = [q ** m]
    cols = [col + [0] * m]
    for i in range(1, m + 1):
        col = [(an * c + sn * b) // q for c, b in zip(col + [0], [0] + col)]
        cols.append(col + [0] * (m - i))
    return list(zip(*cols)), q ** m


@lru_cache(maxsize=64)
def _bernstein_weights(m: int) -> tuple[tuple, int]:
    """Integer matrix W and scale L with W/L mapping power coefficients on
    [0, 1] to Bernstein coefficients: W[j][k] = C(j,k) L/C(m,k), where
    L = lcm of the C(m,k)."""
    big = lcm(*(comb(m, k) for k in range(m + 1)))
    return tuple(tuple(comb(j, k) * (big // comb(m, k)) for k in range(m + 1))
                 for j in range(m + 1)), big


def to_bernstein(poly: BiPoly, box: Box,
                 degree: tuple[int, int] | None = None) -> BernsteinPatch:
    """Bernstein coefficients of ``poly`` over ``box``, exactly.

    The box is remapped to the unit square by p = p_lo + (p_hi - p_lo) u,
    x = x_lo + (x_hi - x_lo) v, and the power coefficients are converted
    with  b_ij = sum_{k<=i, l<=j} C(i,k) C(j,l) / (C(m,k) C(n,l)) a_kl.
    Integer arithmetic throughout, with every denominator cleared once.
    ``degree`` may raise the representation degree above the polynomial's
    own bidegree (never lower it).
    """
    m0, n0 = poly.bidegree
    if degree is None:
        m, n = m0, n0
    else:
        m, n = degree
        if m < m0 or n < n0:
            raise ValueError(f"cannot represent bidegree ({m0},{n0}) at degree ({m},{n})")
    ints, den = poly._integers
    rows = [list(r) + [0] * (n - n0) for r in ints] + [[0] * (n + 1)] * (m - m0)
    sp, dp = _shift(m, box.p_lo, box.p_width)
    sx, dx = _shift(n, box.x_lo, box.x_width)
    wp, lp = _bernstein_weights(m)
    wx, lx = _bernstein_weights(n)
    ints = _transform(_transform(rows, sp, sx), wp, wx)
    return BernsteinPatch(box, ints, den * dp * dx * lp * lx)


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

@dataclass(frozen=True)
class CornerRule:
    """Declares the one point where the certified polynomial is allowed to vanish."""

    p: Fraction
    x: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", as_fraction(self.p))
        object.__setattr__(self, "x", as_fraction(self.x))

    def point(self) -> tuple[Fraction, Fraction]:
        return (self.p, self.x)


@dataclass(frozen=True)
class CornerSplit:
    """F = Q + R around a zero corner mapped to the origin.

    Q = quad_pp p^2 + quad_px p x + quad_xx x^2 is the full quadratic part
    (constant and linear parts vanish); every tail term has total degree
    >= 3; the box is contained in [0, half_width]^2.
    """

    quad_pp: Fraction
    quad_px: Fraction
    quad_xx: Fraction
    tail: tuple                      # ((i, j, coeff), ...) with i + j >= 3
    half_width: Fraction

    def __post_init__(self):
        object.__setattr__(self, "quad_pp", as_fraction(self.quad_pp))
        object.__setattr__(self, "quad_px", as_fraction(self.quad_px))
        object.__setattr__(self, "quad_xx", as_fraction(self.quad_xx))
        object.__setattr__(self, "half_width", as_fraction(self.half_width))
        tail = tuple((int(i), int(j), as_fraction(c)) for i, j, c in self.tail)
        object.__setattr__(self, "tail", tail)
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
    if (cp, cx) not in box.corners():
        return None
    m, n = poly.bidegree
    rows, den = poly._integers
    mp, dp = _shift(m, cp, Fraction(1 if cp == box.p_lo else -1))
    mx, dx = _shift(n, cx, Fraction(1 if cx == box.x_lo else -1))
    g = BiPoly([[Fraction(c, den * dp * dx) for c in row]
                for row in _transform(rows, mp, mx)])
    if g.coeff(0, 0) != 0 or g.coeff(1, 0) != 0 or g.coeff(0, 1) != 0:
        return None
    tail = [(i, j, c) for i, j, c in g.terms() if i + j >= 3]
    return CornerSplit(
        quad_pp=g.coeff(2, 0), quad_px=g.coeff(1, 1), quad_xx=g.coeff(0, 2),
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


@dataclass(frozen=True)
class CertificateNode:
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


@dataclass(frozen=True)
class PositivityCertificate:
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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_doc(), indent=indent)

    @classmethod
    def from_json_doc(cls, doc: dict,
                      corner_rule: Optional[CornerRule] = None) -> "PositivityCertificate":
        return cls(_node_from_dict(doc), corner_rule)

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


def _rational_list(doc: dict, key: str, count: int) -> tuple:
    values = doc[key]
    if not isinstance(values, list) or len(values) != count:
        raise ValueError(f"certificate node {key!r} must be a list of "
                         f"{count} rationals")
    return tuple(parse_rational(v) for v in values)


def _node_from_dict(doc: dict) -> CertificateNode:
    """One node of a certificate document; ValueError on any malformed part."""
    if not isinstance(doc, dict):
        raise ValueError(f"certificate node must be an object, "
                         f"got {type(doc).__name__}")
    try:
        box = Box(*_rational_list(doc, "box", 4))
        status = doc["status"]
        if status not in (STATUS_POSITIVE, STATUS_SUBDIVIDED, STATUS_CORNER, STATUS_FAILED):
            raise ValueError(f"unknown node status {status!r}")
        children = doc.get("children", [])
        if not isinstance(children, list):
            raise ValueError("certificate node 'children' must be a list")
        node = CertificateNode(
            box=box,
            status=status,
            min_bcoeff=parse_rational(doc["min_bcoeff"]),
            max_bcoeff=parse_rational(doc["max_bcoeff"]),
            children=tuple(_node_from_dict(c) for c in children),
            margin=parse_rational(doc["margin"]) if "margin" in doc else None,
            witness=_rational_list(doc, "witness", 3) if "witness" in doc else None,
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
    ``max_depth`` levels.  A box that exhausts the depth budget becomes a
    ``failed`` leaf carrying the minimizing point of a 17 x 17 lattice as
    a concrete (near-)counterexample to investigate.

    The construction is deterministic: child order is fixed and there is
    no parallelism, so the same inputs always yield the same tree.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
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
    uniform subdivisions (non-increasing in depth)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    patches = [to_bernstein(poly, box)]
    for _ in range(depth):
        patches = [child for patch in patches for child in subdivide(patch)]
    return max(enclosure(patch)[1] for patch in patches)


# ======================================================================
# independent re-validation
# ======================================================================

def check_certificate(poly: BiPoly, cert: PositivityCertificate,
                      box: Box | None = None) -> bool:
    """Re-verify every claim in a certificate from scratch.

    Every node's enclosure is recomputed by direct power-to-Bernstein
    conversion on its box (not by replaying the builder's de Casteljau
    splits, so the two conversion routes cross-check each other), corner
    margins are recomputed from the polynomial, and subdivision geometry
    is checked to be exact quadrisection.

    Returns True iff the certificate is structurally sound **and** proves
    positivity (no failed leaves).  Structural lies - a tampered bound,
    status, box or margin - raise :class:`CertificateError`.
    """
    if box is not None and cert.root.box != box:
        raise CertificateError(f"root box {cert.root.box} does not match {box}")

    def walk(node: CertificateNode) -> bool:
        patch = to_bernstein(poly, node.box)
        lo, hi = enclosure(patch)
        if lo != node.min_bcoeff or hi != node.max_bcoeff:
            raise CertificateError(
                f"enclosure mismatch on {node.box}: "
                f"recomputed ({lo}, {hi}), recorded "
                f"({node.min_bcoeff}, {node.max_bcoeff})")
        if node.status == STATUS_POSITIVE:
            if node.children:
                raise CertificateError("positive leaf must have no children")
            if lo <= 0:
                raise CertificateError(
                    f"leaf on {node.box} claims positivity but min "
                    f"coefficient is {lo}")
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
            if tuple(c.box for c in node.children) != node.box.quadrants():
                raise CertificateError(
                    f"children of {node.box} are not its quadrants")
            return all([walk(child) for child in node.children])
        if node.status == STATUS_FAILED:
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
