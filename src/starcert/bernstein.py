"""Exact Bernstein-form positivity certificates for bivariate polynomials.

The certified path has no floating point; only :meth:`BiPoly.evaluate`
at float arguments (for the float oracles) rounds.  The polynomials are
:class:`~starcert.poly.BiPoly`, read as their integer matrix over one
denominator.  The central objects here are

* :class:`BernsteinPatch` - Bernstein coefficients over a rectangle,
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
a power of two.  The corner estimate sums the integer recentred terms
over one denominator.  Fractions appear only at the edge: :func:`enclosure`,
the margin :func:`corner_margin` returns, the ``bcoeffs`` view, the ``Box``
end views, certificate node fields and JSON.
Certificates can be re-validated independently by re-converting each node
from the power basis, which is what :func:`check_certificate` does.
"""
from __future__ import annotations

import json
import struct
import threading
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from sys import getsizeof
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .poly import BiPoly
from .rationals import as_fraction, format_rational, parse_rational

__all__ = [
    "Box", "UNIT_BOX", "BernsteinPatch", "CornerRule",
    "CertificateNode", "PositivityCertificate", "CertificateError",
    "to_bernstein", "enclosure", "subdivide", "corner_margin",
    "certify_positive", "bound_above", "check_certificate",
]


class CertificateError(Exception):
    """A certificate failed independent re-validation."""


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


# ======================================================================
# boxes and Bernstein patches
# ======================================================================

class Box:
    """Axis-aligned rectangle [p_lo, p_hi] x [x_lo, x_hi], exact endpoints.

    A box stores only its reduced integer ends per axis, ``_ends =
    ((lo num, den, hi num, den) on p, the same on x)``, which nothing
    assigns after the constructor; boxes compare and hash by them.  The
    ends as Fractions are read-only views."""

    __slots__ = ("_ends",)

    def __init__(self, p_lo, p_hi, x_lo, x_hi):
        pl, ph, xl, xh = [as_fraction(end).as_integer_ratio()
                          for end in (p_lo, p_hi, x_lo, x_hi)]
        self._set((pl + ph, xl + xh))

    @classmethod
    def _from_reduced(cls, axes: tuple) -> "Box":
        """The box whose reduced integer ends are ``axes``, as in ``Box._ends``."""
        box = cls.__new__(cls)
        box._set(axes)
        return box

    def _set(self, axes: tuple) -> None:
        """The one constructor path: the ends, then the degeneracy check,
        whose message reads them."""
        self._ends = axes
        # denominators are positive, so lo < hi compares cross-products
        (pln, pld, phn, phd), (xln, xld, xhn, xhd) = axes
        if not (pln * phd < phn * pld and xln * xhd < xhn * xld):
            raise ValueError(f"degenerate box {self}")

    p_lo = property(lambda self: Fraction(*self._ends[0][:2]))
    p_hi = property(lambda self: Fraction(*self._ends[0][2:]))
    x_lo = property(lambda self: Fraction(*self._ends[1][:2]))
    x_hi = property(lambda self: Fraction(*self._ends[1][2:]))
    p_width = property(lambda self: self.p_hi - self.p_lo)
    x_width = property(lambda self: self.x_hi - self.x_lo)

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

    def quadrants(self) -> tuple["Box", "Box", "Box", "Box"]:
        """Midpoint quadrisection in the order (lo,lo), (lo,hi), (hi,lo), (hi,hi)."""
        return tuple(map(Box._from_reduced, _quadrant_ends(self._ends)))


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
    """Bounded memo of the fused per-axis maps of :func:`to_bernstein`, the
    packed p-axis maps of :func:`check_certificate` and the corner shifts
    of :func:`corner_margin`.

    The gain rests on boxes that repeat: every node box of a certificate
    is a dyadic cell of its root box at one degree, so re-checking one
    certificate, or many over one root box, meets the same few intervals
    again and again.  Entries are ``(value, scale, size, bits)``; the key
    tells the kind: ``(m, ln, ld, hn, hd)`` an axis map, the same and a
    field width for its packed columns, ``(m, cn, cd)`` a corner shift.
    The retained size, counted by :func:`_retained_size`, never exceeds
    ``_AXIS_CACHE_BYTES``, whatever the degree or the size of the
    interval's integers: the oldest entries go first, and an entry larger
    than the limit alone is returned but not kept.  Only the memo's dict
    table (about 100 bytes an entry) comes on top.
    """

    def __init__(self):
        self.bytes = 0
        self._maps: dict = {}           # key -> (value, scale, size, bits)
        self._lock = threading.Lock()   # guards inserts and evictions

    def get(self, key):
        return self._maps.get(key)

    def put(self, key, value: tuple, scale: int, bits: int = 0) -> tuple:
        entry = (value, scale, _retained_size(key, value, scale), bits)
        limit = _AXIS_CACHE_BYTES
        if entry[2] <= limit:
            with self._lock:
                if key not in self._maps:
                    while self.bytes + entry[2] > limit:
                        self.bytes -= self._maps.pop(next(iter(self._maps)))[2]
                    self._maps[key] = entry
                    self.bytes += entry[2]
        return entry


def _deep_size(obj) -> int:
    """sys.getsizeof of an integer, or of a tuple and all it holds."""
    size = getsizeof(obj)
    return size + sum(map(_deep_size, obj)) if type(obj) is tuple else size


def _retained_size(key: tuple, value: tuple, scale: int) -> int:
    """Bytes a memo entry holds, as sys.getsizeof counts them: the key, the
    value (a matrix or a tuple of packed integers), the scale, and the
    entry tuple with its size and bits integers."""
    return (_deep_size(key) + _deep_size(value) + getsizeof(scale)
            + getsizeof((value, scale, 0, 0)) + 2 * getsizeof(1 << 30))


_AXIS_MAPS = _AxisMaps()


def _axis_map(m: int, ln: int, ld: int, hn: int, hd: int) -> tuple:
    """The memo entry ``(M, L q^m, size, bits)`` of the integer matrix M:
    M/(L q^m) maps the power coefficients of a degree-m polynomial in t to
    its Bernstein coefficients over [ln/ld, hn/hd] (both reduced, ld,
    hd > 0), with q = lcm(ld, hd), L = lcm of the C(m, k), and ``bits``
    the largest bit length of an entry of M.  By blossoming (Ramshaw
    1989), coefficient j of t^k is e_k(lo^(m-j), hi^j)/C(m, k): column k of
    a :func:`_pencil` row times L/C(m, k).  Memoised in ``_AXIS_MAPS``."""
    key = (m, ln, ld, hn, hd)
    entry = _AXIS_MAPS.get(key)
    if entry is None:
        q = lcm(ld, hd)
        big = lcm(*(comb(m, k) for k in range(m + 1)))
        weights = [big // comb(m, k) for k in range(m + 1)]
        rows = _pencil(m, q, ln * (q // ld), q, hn * (q // hd))
        fused = tuple(tuple(map(mul, r, weights)) for r in rows)
        entry = _AXIS_MAPS.put(key, fused, big * q ** m, _bits(fused))
    return entry


def _bits(rows) -> int:
    """The largest bit length of an entry's absolute value."""
    return max(abs(v).bit_length() for row in rows for v in row)


def to_bernstein(poly: BiPoly, box: Box) -> BernsteinPatch:
    """Bernstein coefficients of ``poly`` over ``box``, exactly.

    The box is remapped to the unit square by p = p_lo + (p_hi - p_lo) u,
    x = x_lo + (x_hi - x_lo) v, and the power coefficients are converted
    with  b_ij = sum_{k<=i, l<=j} C(i,k) C(j,l) / (C(m,k) C(n,l)) a_kl.
    Integer arithmetic throughout, with every denominator cleared once.
    """
    m, n = poly.bidegree
    ints, den = poly._integers
    mp, dp, _, _ = _axis_map(m, *box._ends[0])
    mx, dx, _, _ = _axis_map(n, *box._ends[1])
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


def corner_margin(poly: BiPoly, box: Box,
                  corner: tuple[Fraction, Fraction]) -> Optional[Fraction]:
    """The margin of the corner estimate F >= margin * (p^2 + x^2) on
    ``box``, or None where the rule does not apply.

    The rule applies when ``corner`` is a corner of ``box`` and ``poly``,
    recentred there, has no constant or linear part.  Splitting the cross
    term with 2|uv| <= u^2 + v^2 bounds the quadratic part below by
    lambda (u^2 + v^2) with lambda = min(g20 - |g11|/2, g02 - |g11|/2),
    and each tail monomial g_ij u^i v^j (i + j >= 3) by
    |g_ij| h^(i+j-2) (u^2 + v^2) for |u|, |v| <= h, the larger box width.
    So margin = lambda - sum |g_ij| h^(i+j-2); the estimate proves
    ``poly > 0`` off the corner iff margin > 0.  Signs enter only through
    |.|, so one shift t = c + u serves the low and the high end of an
    axis.  The recentred rows are integers over den * sp * sx; with
    h = hn/hd and k = max(m + n - 2, 0) the margin is one integer over
    2 hd^k den sp sx.
    """
    cp, cx = (as_fraction(c).as_integer_ratio() for c in corner)
    p_ends, x_ends = box._ends
    if cp not in (p_ends[:2], p_ends[2:]) or cx not in (x_ends[:2], x_ends[2:]):
        return None
    m, n = poly.bidegree
    rows, den = poly._integers
    mp, sp, _, _ = _corner_shift(m, *cp)
    mx, sx, _, _ = _corner_shift(n, *cx)
    # the nonzero terms of the recentred polynomial
    g = {(i, j): c for i, row in enumerate(_x_stage(_p_stage(rows, mp), mx))
         for j, c in enumerate(row) if c}
    if (0, 0) in g or (1, 0) in g or (0, 1) in g:
        return None
    # h = hn/hd, the larger width, as cross-products compare the two
    (wn, wd), (vn, vd) = [(un * ld - ln * ud, ld * ud) for ln, ld, un, ud in box._ends]
    hn, hd = (wn, wd) if wn * vd >= vn * wd else (vn, vd)
    k = max(m + n - 2, 0)
    twice_lam = 2 * min(g.get((2, 0), 0), g.get((0, 2), 0)) - abs(g.get((1, 1), 0))
    tail = sum(abs(c) * hn ** (i + j - 2) * hd ** (k - i - j + 2)
               for (i, j), c in g.items() if i + j >= 3)
    return Fraction(twice_lam * hd ** k - 2 * tail, 2 * hd ** k * den * sp * sx)


def _corner_shift(m: int, cn: int, cd: int) -> tuple:
    """The memo entry ``(S, cd^m, size, 0)`` of the shift t = c + u with
    c = cn/cd reduced: S/cd^m maps the power coefficients of a degree-m
    polynomial in t to those in u.  Row i of the :func:`_pencil` holds the
    u-coefficients of t^i cd^m, so S is its transpose."""
    key = (m, cn, cd)
    entry = _AXIS_MAPS.get(key)
    if entry is None:
        entry = _AXIS_MAPS.put(key, tuple(zip(*_pencil(m, cd, 0, cn, cd))), cd ** m)
    return entry


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
        todo = [self.root]
        for node in todo:               # grows as it goes
            todo += node.children
        return len(todo)

    # -- serialization -------------------------------------------------

    def to_json_doc(self) -> dict:
        return _node_to_dict(self.root)

    def to_json(self) -> str:
        return json.dumps(self.to_json_doc(), indent=2)

    @classmethod
    def from_json_doc(cls, doc: dict,
                      corner_rule: Optional[CornerRule] = None) -> "PositivityCertificate":
        # rationals repeat across nodes, box ends above all: read each
        # distinct string once, a box end straight to its reduced pair
        end = _memo_reader(lambda text: parse_rational(text).as_integer_ratio())
        return cls(_node_from_dict(doc, end, _memo_reader(parse_rational)), corner_rule)

    @classmethod
    def from_json(cls, text: str,
                  corner_rule: Optional[CornerRule] = None) -> "PositivityCertificate":
        try:
            return cls.from_json_doc(json.loads(text), corner_rule)
        except RecursionError as exc:
            raise ValueError("certificate nested too deeply to read") from exc


def _node_to_dict(node: CertificateNode) -> dict:
    doc = {
        # as format_rational writes a reduced Fraction: "n" or "n/d"
        "box": [f"{n}/{d}" if d != 1 else str(n)
                for axis in node.box._ends for n, d in (axis[:2], axis[2:])],
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


def _memo_reader(read: Callable) -> Callable:
    """``read``, run once per distinct str and its result kept.  Anything
    else goes to ``read`` every time, where parse_rational raises ValueError
    unless it is a str subclass."""
    store: dict = {}

    def memo(text):
        if type(text) is not str:
            return read(text)
        value = store.get(text)
        if value is None:
            value = store[text] = read(text)
        return value
    return memo


def _rational_list(doc: dict, key: str, count: int, parse) -> tuple:
    values = doc[key]
    if not isinstance(values, list) or len(values) != count:
        raise ValueError(f"certificate node {key!r} must be a list of "
                         f"{count} rationals")
    return tuple(map(parse, values))


def _node_from_dict(doc: dict, end, parse) -> CertificateNode:
    """One node of a certificate document, its box ends read by ``end`` as
    reduced integer pairs and its other rationals by ``parse`` as
    Fractions; ValueError on any malformed part."""
    if not isinstance(doc, dict):
        raise ValueError(f"certificate node must be an object, "
                         f"got {type(doc).__name__}")
    try:
        pl, ph, xl, xh = _rational_list(doc, "box", 4, end)
        box = Box._from_reduced((pl + ph, xl + xh))
        status = doc["status"]
        if status not in (STATUS_POSITIVE, STATUS_SUBDIVIDED, STATUS_CORNER, STATUS_FAILED):
            raise ValueError(f"unknown node status {status!r}")
        children = doc.get("children", [])
        if not isinstance(children, list):
            raise ValueError("certificate node 'children' must be a list")
        # positional: box, status, min_bcoeff, max_bcoeff, children, margin, witness
        node = CertificateNode(
            box, status, parse(doc["min_bcoeff"]), parse(doc["max_bcoeff"]),
            tuple([_node_from_dict(c, end, parse) for c in children]),
            parse(doc["margin"]) if "margin" in doc else None,
            _rational_list(doc, "witness", 3, parse) if "witness" in doc else None)
    except KeyError as exc:
        raise ValueError(f"certificate node missing field {exc}") from exc
    return node


def _lattice_witness(poly: BiPoly, box: Box) -> tuple:
    """Minimizing point of poly over a (GRID+1)^2 rational lattice on box."""
    p_lo, x_lo = box.p_lo, box.x_lo
    p_step, x_step = box.p_width / _WITNESS_GRID, box.x_width / _WITNESS_GRID
    best = None
    for i in range(_WITNESS_GRID + 1):
        p = p_lo + p_step * i
        for j in range(_WITNESS_GRID + 1):
            x = x_lo + x_step * j
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
    return PositivityCertificate(
        _build_node(poly, to_bernstein(poly, box), max_depth, corner_rule), corner_rule)


def _build_node(poly: BiPoly, patch: BernsteinPatch, depth_left: int,
                corner_rule: Optional[CornerRule]) -> CertificateNode:
    """The :func:`certify_positive` node of ``patch``, with ``depth_left``
    levels of subdivision still allowed below it."""
    lo, hi = enclosure(patch)
    if lo > 0:
        return CertificateNode(patch.box, STATUS_POSITIVE, lo, hi)
    if corner_rule is not None:
        margin = corner_margin(poly, patch.box, corner_rule.point())
        if margin is not None and margin > 0:
            return CertificateNode(patch.box, STATUS_CORNER, lo, hi, margin=margin)
    if depth_left:
        children = tuple(_build_node(poly, child, depth_left - 1, corner_rule)
                         for child in subdivide(patch))
        return CertificateNode(patch.box, STATUS_SUBDIVIDED, lo, hi, children)
    return CertificateNode(patch.box, STATUS_FAILED, lo, hi,
                           witness=_lattice_witness(poly, patch.box))


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

# The checker's conversion by Kronecker substitution: the m + 1 rows of
# mp * ints * mx^T ride in one integer, row r in bits [W r, W r + W), so
# one product of wide integers does the work of m + 1 small ones.
#
# Width.  An entry is sum_{i,k} mp[r][i] ints[i][k] mx[c][k], (m + 1)(n + 1)
# products, each below 2^(bp + bi + bx) in absolute value, with bX the
# largest bit length in X; and m + 1 < 2^bitlen(m + 1), likewise n + 1.  So
# |entry| < 2^(W - 1) for every W >= bp + bi + bx + bitlen(m + 1)
# + bitlen(n + 1) + 1, and adding the bias 2^(W - 1) to every field puts
# each field in [0, 2^W): the sum's base-2^W digits are the biased entries,
# with no carry or borrow between fields.  W is rounded up to whole bytes,
# and fixed-width big-endian byte strings of equal length compare in
# numeric order, so min and max run on the bytes and only the two extreme
# fields are decoded.

def _field_width(bp: int, bi: int, bx: int, m: int, n: int) -> int:
    """The packed field width W in bits, a multiple of 8 (see above)."""
    return 8 * -(-(bp + bi + bx + (m + 1).bit_length() + (n + 1).bit_length() + 1) // 8)


def _pack_columns(mp: Sequence[Sequence[int]], width: int) -> tuple[tuple, int]:
    """Column i of ``mp`` packed as sum_r mp[r][i] 2^(W r), and the bias
    sum_r 2^(W - 1) 2^(W r) that makes every field of a sum nonnegative."""
    shifts = [width * r for r in range(len(mp))]
    return (tuple(sum(v << s for v, s in zip(col, shifts)) for col in zip(*mp)),
            sum(1 << (s + width - 1) for s in shifts))


def _packed_columns(m: int, ends: tuple, width: int) -> tuple:
    """The memo entry ``(columns, bias, size, 0)`` of :func:`_pack_columns`
    for the degree-m map over the interval ``ends``."""
    key = (m, *ends, width)
    entry = _AXIS_MAPS.get(key)
    if entry is None:
        entry = _AXIS_MAPS.put(key, *_pack_columns(_axis_map(m, *ends)[0], width))
    return entry


def _packed_stage(cols: Sequence[Sequence[int]], packed: Sequence[int]) -> list:
    """The p stage mp * ints, its rows packed: entry k is
    sum_i ints[i][k] * packed[i] for column k of ints."""
    return [sum(map(mul, col, packed)) for col in cols]


def _packed_range(stage: Sequence[int], bias: int, width: int,
                  split: Callable[[bytes], tuple],
                  mx: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(min, max) entry of mp * ints * mx^T, from one packed product per
    row of ``mx``: ``stage`` is the packed p stage of :func:`_packed_stage`,
    ``bias`` that of :func:`_pack_columns`, and ``split`` cuts the joined
    products into their fields of ``width`` bits, as a tuple of byte
    strings: the ``unpack`` of ``struct.Struct(f"{width // 8}s" * count)``
    for (m + 1)(n + 1) fields."""
    # bytes per product: the top bit of the bias is the last of its m + 1 fields
    length = bias.bit_length() >> 3
    fields = split(b"".join([(sum(map(mul, stage, row)) + bias).to_bytes(length, "big")
                             for row in mx]))
    half = 1 << (width - 1)
    return (int.from_bytes(min(fields), "big") - half,
            int.from_bytes(max(fields), "big") - half)


def check_certificate(poly: BiPoly, cert: PositivityCertificate,
                      box: Box) -> bool:
    """Re-verify every claim in a certificate from scratch.

    Every node's enclosure is recomputed by direct power-to-Bernstein
    conversion on its box (not by replaying the builder's de Casteljau
    splits, so the two conversion routes cross-check each other), corner
    margins are recomputed from the polynomial, and subdivision geometry
    is checked to be exact quadrisection.  The conversion is the one of
    :func:`to_bernstein`, p axis first, with the m + 1 rows of the p axis
    packed into one integer (see :func:`_field_width`): nodes in one column
    of the tree share their p-interval, so each distinct p-interval is
    packed and mapped once per call, each distinct x-interval is mapped
    once per call, and each node makes one packed product per row of its
    own x-axis map.  The products' fields are cut apart by one
    ``struct.Struct`` per field width, built once per call.

    The walk runs on integers: each node's box carries its ends as reduced
    (numerator, denominator) pairs (``Box._ends``).  A subdivided node's
    children must have exactly the ends :func:`_quadrant_ends` gives, and a
    recomputed enclosure is compared with the recorded one by
    cross-multiplication.  Nodes are checked in pre-order, from an explicit
    stack, so the first fault in that order is the one reported; the walk
    holds no reference cycle, and everything it built is freed when the
    call returns.

    Returns True iff the certificate is structurally sound **and** proves
    positivity (no failed leaves).  Structural lies - a root box other than
    ``box``, a tampered bound, status, box or margin, or a field or child
    the node's status does not allow - raise :class:`CertificateError`.
    """
    if cert.root.box != box:
        raise CertificateError(f"root box {cert.root.box} does not match {box}")
    ints, den = poly._integers
    m, n = poly.bidegree
    cols, bi = list(zip(*ints)), _bits(ints)
    # the widest x-axis map under each p-interval fixes the field width
    # there (see _field_width), so each p-interval is packed once; this
    # reaches every node the walk below can reach
    widest: dict = {}
    x_maps: dict = {}                   # x-interval ends -> its _axis_map entry
    todo = [cert.root]
    for node in todo:                   # grows as it goes
        p_ends, x_ends = node.box._ends
        mx = x_maps.get(x_ends)
        if mx is None:
            mx = x_maps[x_ends] = _axis_map(n, *x_ends)
        widest[p_ends] = max(widest.get(p_ends, 0), mx[3])
        if node.status == STATUS_SUBDIVIDED:
            todo += node.children
    # p-interval ends -> (packed stage, bias, field width, split, den * dp)
    stages: dict = {}
    splits: dict = {}                   # field width -> its struct unpack
    proved = True
    stack = [cert.root]
    while stack:
        node = stack.pop()
        # only a corner leaf records a margin, only a failed leaf a witness
        if node.margin is not None and node.status != STATUS_CORNER:
            raise CertificateError(f"{node.status} node on {node.box} "
                                   f"records a margin")
        if node.witness is not None and node.status != STATUS_FAILED:
            raise CertificateError(f"{node.status} node on {node.box} "
                                   f"records a witness")
        p_ends, x_ends = node.box._ends
        stage = stages.get(p_ends)
        if stage is None:
            _, dp, _, bp = _axis_map(m, *p_ends)
            width = _field_width(bp, bi, widest[p_ends], m, n)
            packed, bias, _, _ = _packed_columns(m, p_ends, width)
            split = splits.get(width)
            if split is None:
                split = splits[width] = struct.Struct(
                    f"{width >> 3}s" * ((m + 1) * (n + 1))).unpack
            stage = stages[p_ends] = (_packed_stage(cols, packed), bias, width, split,
                                      den * dp)
        mx, dx, _, _ = x_maps[x_ends]
        lo, hi = _packed_range(*stage[:4], mx)
        d = stage[4] * dx
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
        elif node.status == STATUS_CORNER:
            if node.children:
                raise CertificateError("corner leaf must have no children")
            if cert.corner_rule is None:
                raise CertificateError("corner leaf without a corner rule")
            margin = corner_margin(poly, node.box, cert.corner_rule.point())
            if margin is None:
                raise CertificateError(
                    f"corner rule does not apply on {node.box}")
            if margin <= 0:
                raise CertificateError(
                    f"corner estimate fails on {node.box}")
            if margin != node.margin:
                raise CertificateError(
                    f"corner margin mismatch: recomputed {margin}, "
                    f"recorded {node.margin}")
        elif node.status == STATUS_SUBDIVIDED:
            if [c.box._ends for c in node.children] != _quadrant_ends(node.box._ends):
                raise CertificateError(
                    f"children of {node.box} are not its quadrants")
            # reversed, so that child 0's subtree is checked first
            stack += reversed(node.children)
        elif node.status == STATUS_FAILED:
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
            proved = False
        else:
            raise CertificateError(f"unknown node status {node.status!r}")
    return proved
