"""Bernstein enclosure machinery: conversion, subdivision, certificates."""
import copy
import gc
import json
import math
import random
import re
import struct
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from starcert import bernstein
from starcert.bernstein import (MAX_BOUND_DEPTH, MAX_DEPTH,
                                UNIT_BOX, Box, CertificateError, CertificateNode,
                                CornerRule, PositivityCertificate,
                                STATUS_CORNER, STATUS_FAILED, STATUS_POSITIVE,
                                STATUS_SUBDIVIDED,
                                bound_above, certify_positive,
                                check_certificate, corner_margin,
                                enclosure, subdivide, to_bernstein)
from starcert.poly import MAX_DEGREE, BiPoly, format_poly_text, parse_poly_text
from starcert.rationals import format_rational, parse_rational

F = Fraction


def rand_poly(rng, deg_p=3, deg_x=3, den=8):
    rows = [[F(rng.randint(-20, 20), rng.randint(1, den))
             for _ in range(deg_x + 1)] for _ in range(deg_p + 1)]
    return BiPoly(rows)


def rand_box(rng):
    plo = F(rng.randint(-4, 3), 4)
    xlo = F(rng.randint(-4, 3), 4)
    return Box(plo, plo + F(rng.randint(1, 4), 4),
               xlo, xlo + F(rng.randint(1, 4), 4))


# ---------------------------------------------------------------------------
# BiPoly basics
# ---------------------------------------------------------------------------

def test_bipoly_arithmetic():
    p, x = BiPoly.var_p(), BiPoly.var_x()
    f = (p + x) ** 2
    assert f == p * p + 2 * p * x + x * x
    assert f.evaluate(F(1, 2), F(1, 3)) == F(25, 36)
    assert list((f - f).terms()) == []


def test_bipoly_rejects_floats():
    with pytest.raises(TypeError):
        BiPoly([[0.5]])


def test_from_terms_duplicates():
    with pytest.raises(ValueError):
        BiPoly.from_terms([(0, 0, 1), (0, 0, 2)])


@pytest.mark.parametrize("terms", [
    [(0, 0, 0), (0, 0, 5)],        # a zero first copy once hid the second
    [(0, 0, 5), (0, 0, 0)],
    [(1, 2, 0), (1, 2, 0)],
])
def test_from_terms_refuses_every_duplicate(terms):
    with pytest.raises(ValueError, match=r"duplicate term for exponent \(\d, \d\)"):
        BiPoly.from_terms(terms)


# Each case would allocate at least 10^9 entries if the cap were missed.
@pytest.mark.parametrize("terms, bidegree", [
    ([], (100000, 100000)),
    ([(10 ** 9, 0, 1)], None),
    ([(0, 10 ** 9, 1)], None),
])
def test_from_terms_refuses_degree_above_cap(terms, bidegree):
    with pytest.raises(ValueError, match=f"exceeds the cap of {MAX_DEGREE}"):
        BiPoly.from_terms(terms, bidegree)


def test_from_terms_accepts_the_cap():
    f = BiPoly.from_terms([(MAX_DEGREE, 0, 1)], (MAX_DEGREE, 1))
    assert f.bidegree == (MAX_DEGREE, 1)


def test_poly_text_roundtrip():
    f = BiPoly.from_terms([(2, 0, 3), (1, 1, -2), (0, 2, 3), (0, 0, F(1, 50))])
    assert parse_poly_text(format_poly_text(f)) == f


def test_poly_text_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        parse_poly_text("bidegree 2 2\n2 0 1\nbogus entry\n")
    with pytest.raises(ValueError, match="bidegree"):
        parse_poly_text("2 0 1\n")


# ---------------------------------------------------------------------------
# conversion and enclosure
# ---------------------------------------------------------------------------

def test_corner_bcoeffs_interpolate():
    """Bernstein corner coefficients equal the polynomial's corner values."""
    rng = random.Random(2)
    for _ in range(30):
        f = rand_poly(rng)
        box = rand_box(rng)
        patch = to_bernstein(f, box)
        b = patch.bcoeffs
        assert b[0][0] == f.evaluate(box.p_lo, box.x_lo)
        assert b[0][-1] == f.evaluate(box.p_lo, box.x_hi)
        assert b[-1][0] == f.evaluate(box.p_hi, box.x_lo)
        assert b[-1][-1] == f.evaluate(box.p_hi, box.x_hi)


def test_enclosure_is_sound():
    rng = random.Random(4)
    for _ in range(60):
        f = rand_poly(rng)
        box = rand_box(rng)
        lo, hi = enclosure(to_bernstein(f, box))
        for _ in range(8):
            p = box.p_lo + box.p_width * F(rng.randint(0, 16), 16)
            x = box.x_lo + box.x_width * F(rng.randint(0, 16), 16)
            assert lo <= f.evaluate(p, x) <= hi


def test_subdivision_equals_direct_conversion():
    """De Casteljau children coincide with direct power-basis conversion
    on the child boxes - the two routes cross-check each other."""
    rng = random.Random(8)
    for _ in range(25):
        f = rand_poly(rng)
        box = rand_box(rng)
        parent = to_bernstein(f, box)
        for child in subdivide(parent):
            direct = to_bernstein(f, child.box)
            assert child.bcoeffs == direct.bcoeffs
            assert child.box in box.quadrants()


def test_subdivision_min_is_monotone():
    rng = random.Random(16)
    for _ in range(40):
        f = rand_poly(rng)
        parent = to_bernstein(f, UNIT_BOX)
        plo, phi = enclosure(parent)
        for child in subdivide(parent):
            clo, chi = enclosure(child)
            assert clo >= plo and chi <= phi


# ---------------------------------------------------------------------------
# the integer kernel against a Fraction reference
# ---------------------------------------------------------------------------

def _ref_axis(vec, lo, width):
    """Bernstein coefficients over [lo, lo + width] of sum vec[i] t^i, in
    Fractions: substitute t = lo + width u, then weight by C(j,k)/C(m,k)."""
    m = len(vec) - 1
    shifted = [sum(comb(i, k) * lo ** (i - k) * width ** k * vec[i]
                   for i in range(k, m + 1)) for k in range(m + 1)]
    return [sum(F(comb(j, k), comb(m, k)) * shifted[k] for k in range(j + 1))
            for j in range(m + 1)]


def ref_bernstein(poly, box):
    """Fraction reference for to_bernstein: _ref_axis along x, then p."""
    m, n = poly.bidegree
    rows = [[poly.coeff(i, j) for j in range(n + 1)] for i in range(m + 1)]
    rows = [_ref_axis(r, box.x_lo, box.x_width) for r in rows]
    cols = [_ref_axis(c, box.p_lo, box.p_width) for c in zip(*rows)]
    return tuple(zip(*cols))


def ref_bound_above(poly, box, depth):
    k = 2 ** depth
    return max(max(map(max, ref_bernstein(poly, Box(
        box.p_lo + box.p_width * F(i, k), box.p_lo + box.p_width * F(i + 1, k),
        box.x_lo + box.x_width * F(j, k), box.x_lo + box.x_width * F(j + 1, k)))))
        for i in range(k) for j in range(k))


rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 12))
polys = st.integers(0, 4).flatmap(lambda m: st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n + 1, max_size=n + 1),
                       min_size=m + 1, max_size=m + 1).map(BiPoly)))
boxes = st.builds(
    lambda plo, pw, xlo, xw: Box(plo, plo + pw, xlo, xlo + xw),
    st.builds(F, st.integers(-20, 20), st.integers(1, 9)),
    st.builds(F, st.integers(1, 9), st.integers(1, 9)),
    st.builds(F, st.integers(-20, 20), st.integers(1, 9)),
    st.builds(F, st.integers(1, 9), st.integers(1, 9)))


@given(st.lists(st.one_of(rationals, rationals.map(str), st.integers(-3, 3)),
                min_size=4, max_size=4))
def test_box_is_degenerate_iff_an_axis_is_empty(ends):
    # ends come as Fractions, strings or ints; the check compares integer
    # cross-products, which must order them as Fractions do
    p_lo, p_hi, x_lo, x_hi = map(F, ends)
    if p_lo < p_hi and x_lo < x_hi:
        box = Box(*ends)
        assert box.as_tuple() == (p_lo, p_hi, x_lo, x_hi)
        assert all(type(e) is Fraction for e in box.as_tuple())
    else:
        with pytest.raises(ValueError, match=r"^degenerate box \["):
            Box(*ends)


# exact box ends: Fractions, ints, and strings unreduced or negative
EXACT_END = (rationals | rationals.map(str) | st.integers(-3, 3)
             | st.builds(lambda a, b: f"{a}/{b}", st.integers(-20, 20), st.integers(1, 9)))
AXIS_ENDS = st.lists(EXACT_END, min_size=2, max_size=2, unique_by=F).map(
    lambda ends: sorted(ends, key=F))


@given(AXIS_ENDS, AXIS_ENDS)
def test_box_views_match_a_fraction_reference(p_ends, x_ends):
    # a Box stores only its reduced integer ends; every Fraction it gives
    # out is a view of them, and must be what the Fraction route gives
    ends = (*p_ends, *x_ends)
    box, ref = Box(*ends), tuple(map(F, ends))
    assert (box.p_lo, box.p_hi, box.x_lo, box.x_hi) == box.as_tuple() == ref
    assert all(type(e) is Fraction for e in box.as_tuple())
    assert (box.p_width, box.x_width) == (ref[1] - ref[0], ref[3] - ref[2])
    again = Box(*box.as_tuple())
    assert again == box and hash(again) == hash(box)
    pl, ph, xl, xh = ref
    assert repr(box) == f"Box(p_lo={pl!r}, p_hi={ph!r}, x_lo={xl!r}, x_hi={xh!r})"
    assert str(box) == f"[{pl},{ph}]x[{xl},{xh}]"
    # the quadrants split at the Fraction midpoints
    pm, xm = (pl + ph) / 2, (xl + xh) / 2
    assert [q.as_tuple() for q in box.quadrants()] == [
        (*pe, *xe) for pe in ((pl, pm), (pm, ph)) for xe in ((xl, xm), (xm, xh))]
    # JSON writes each end as format_rational does, and reads the box back
    leaves = tuple(CertificateNode(q, STATUS_POSITIVE, F(1), F(1)) for q in box.quadrants())
    cert = PositivityCertificate(CertificateNode(box, STATUS_SUBDIVIDED, F(1), F(1), leaves))
    text = cert.to_json()
    assert json.loads(text)["box"] == [format_rational(e) for e in ref]
    back = PositivityCertificate.from_json(text).root
    assert [n.box for n in (back, *back.children)] == [box, *box.quadrants()]


def _skewed_poly(high, low, high_on_p):
    m, n = (high, low) if high_on_p else (low, high)
    return st.lists(st.lists(rationals, min_size=n + 1, max_size=n + 1),
                    min_size=m + 1, max_size=m + 1).map(BiPoly)


# per-axis maps up to degree 13 on one axis, up to 4 on the other
skewed_polys = st.tuples(st.sampled_from([0, 1, 2, 5, 13]), st.integers(0, 4),
                         st.booleans()).flatmap(lambda t: _skewed_poly(*t))


@settings(max_examples=60, deadline=None)
@given(skewed_polys, boxes)
def test_integer_conversion_matches_fraction_reference(f, box):
    memo = bernstein._AxisMaps()
    # each quadrant shares one endpoint per axis with the box; the second
    # round reads every per-axis map back from the memo
    cells = (box,) + box.quadrants()
    rounds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bernstein, "_AXIS_MAPS", memo)
        for check in (True, False):
            patches = [to_bernstein(f, cell) for cell in cells]
            if check:
                assert [p.bcoeffs for p in patches] == [
                    ref_bernstein(f, cell) for cell in cells]
            rounds.append(([(p.ints, p.den) for p in patches],
                           len(memo._maps)))
    assert rounds[0] == rounds[1] and rounds[0][1] > 0
    for patch in patches:
        assert enclosure(patch) == (min(map(min, patch.bcoeffs)),
                                    max(map(max, patch.bcoeffs)))


# one axis of degree 32 or 64 over non-dyadic boxes with negative ends:
# map integers of hundreds of bits, past what the property test reaches
@pytest.mark.parametrize("m, n", [(32, 0), (0, 32), (64, 1), (2, 64)])
@pytest.mark.parametrize("box", [Box(F(-7, 3), F(5, 11), F(-13, 9), F(-2, 7)),
                                 Box(F(-1, 6), F(1, 10), F(-5, 3), F(7, 5))])
def test_high_degree_conversion_matches_fraction_reference(monkeypatch, m, n, box):
    monkeypatch.setattr(bernstein, "_AXIS_MAPS", bernstein._AxisMaps())
    f = rand_poly(random.Random(m * 100 + n), m, n, den=30)
    assert to_bernstein(f, box).bcoeffs == ref_bernstein(f, box)


def test_axis_map_memo_stays_within_its_byte_bound(monkeypatch):
    limit = bernstein._AXIS_CACHE_BYTES
    assert limit == 1 << 20
    f = BiPoly([[F(i + j + 1, 3) for j in range(9)] for i in range(9)])
    memo = bernstein._AxisMaps()
    monkeypatch.setattr(bernstein, "_AXIS_MAPS", memo)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        # 130-bit denominators: about 50 boxes fill the memo
        big = 10 ** 40
        for k in range(1, 121):
            box = Box(F(-k, big + k), F(1, 3), 0, F(k, big + 7))
            last = to_bernstein(f, box)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    entries = memo._maps
    assert 0 < len(entries) < 240                 # the oldest maps went
    assert last.bcoeffs == ref_bernstein(f, box)
    lo = box.p_lo
    assert (8, lo.numerator, lo.denominator, 1, 3) in entries  # the newest stayed
    assert memo.bytes == sum(bernstein._retained_size(key, *e[:2])
                             for key, e in entries.items()) <= limit
    assert grown <= limit + 100 * len(entries)


def test_high_degree_conversions_retain_only_the_memo(monkeypatch):
    # the maps of these degrees take about 1.2 MB together; only those
    # the memo keeps, within its limit, may stay behind
    memo = bernstein._AxisMaps()
    monkeypatch.setattr(bernstein, "_AXIS_MAPS", memo)
    fs = [BiPoly.from_terms([(m, 0, 1)]) for m in (80, 96, 112)]
    for f in fs:
        f._integers
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for f in fs:
            to_bernstein(f, UNIT_BOX)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert 0 < memo.bytes <= bernstein._AXIS_CACHE_BYTES
    assert grown <= bernstein._AXIS_CACHE_BYTES + 100 * len(memo._maps)


def test_axis_map_larger_than_the_memo_is_not_kept(monkeypatch):
    memo = bernstein._AxisMaps()
    monkeypatch.setattr(bernstein, "_AXIS_MAPS", memo)
    monkeypatch.setattr(bernstein, "_AXIS_CACHE_BYTES", 1000)
    f = BiPoly([[F(i - j, 5) for j in range(5)] for i in range(5)])
    box = Box(F(-1, 3), F(2, 7), 0, 1)
    assert to_bernstein(f, box).bcoeffs == ref_bernstein(f, box)
    assert len(memo._maps) == memo.bytes == 0


@settings(max_examples=25, deadline=None)
@given(polys, boxes)
def test_subdivision_matches_direct_conversion_to_depth_3(f, box):
    patches = [to_bernstein(f, box)]
    for _ in range(3):
        patches = [child for patch in patches for child in subdivide(patch)]
        for child in patches:
            assert child.bcoeffs == to_bernstein(f, child.box).bcoeffs


# the maximum 0 lies on the line p = x + 1/3, so the cutoff keeps a
# band of patches at every level
RIDGE = -(BiPoly.var_p() - BiPoly.var_x() - F(1, 3)) ** 2


@settings(max_examples=20, deadline=None)
@given(polys, boxes)
@example(RIDGE, UNIT_BOX)
@example(RIDGE, Box(F(-2, 3), F(4, 5), F(-1, 7), F(5, 3)))
def test_bound_above_matches_reference(f, box):
    for depth in range(4):
        assert bound_above(f, box, depth) == ref_bound_above(f, box, depth)


def test_bound_above_keeps_one_path_of_patches(reduction):
    # all 4^6 leaves at once peaked at 12.8 MB; depth first keeps a few
    # patches per level
    bound_above(reduction.endpoint_y0, UNIT_BOX, 0)   # fills the map memo
    tracemalloc.start()
    try:
        bound_above(reduction.endpoint_y0, UNIT_BOX, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_bound_above_cuts_off_patches_below_a_corner_value(monkeypatch):
    # 3p^2 - 2px + 3x^2 + 1/50 peaks at the corners (1, 0) and (0, 1), which
    # are Bernstein coefficients of the root patch: nothing is subdivided
    f = BiPoly.from_terms([(2, 0, 3), (1, 1, -2), (0, 2, 3), (0, 0, F(1, 50))])
    calls = []
    monkeypatch.setattr(bernstein, "subdivide",
                        lambda patch: calls.append(patch) or subdivide(patch))
    assert bound_above(f, UNIT_BOX, 8) == F(201, 50)
    assert calls == []
    # the ridge keeps a band of patches at every level
    assert bound_above(RIDGE, UNIT_BOX, 5) == ref_bound_above(RIDGE, UNIT_BOX, 5)
    assert 10 < len(calls) < 4 ** 4


def test_bound_above_refuses_depth_above_cap(monkeypatch):
    def no_work(*args):
        raise AssertionError("converted before refusing the depth")
    monkeypatch.setattr(bernstein, "to_bernstein", no_work)
    assert MAX_BOUND_DEPTH >= 6     # the perfbench sweep calls depth 6
    with pytest.raises(ValueError, match=f"depth must be at most {MAX_BOUND_DEPTH}"):
        bound_above(RIDGE, UNIT_BOX, MAX_BOUND_DEPTH + 1)


def test_bound_above_tightens_with_depth():
    rng = random.Random(23)
    for _ in range(10):
        f = rand_poly(rng)
        b0 = bound_above(f, UNIT_BOX, 0)
        b1 = bound_above(f, UNIT_BOX, 1)
        b2 = bound_above(f, UNIT_BOX, 2)
        true_max = max(f.evaluate(F(i, 12), F(j, 12))
                       for i in range(13) for j in range(13))
        assert b0 >= b1 >= b2 >= true_max


# ---------------------------------------------------------------------------
# corner rule
# ---------------------------------------------------------------------------

CORNER_DEMO = BiPoly.from_terms([
    (2, 0, 5), (1, 1, -2), (0, 2, 4),      # positive definite quadratic
    (3, 0, -40), (0, 3, -40),              # large cubic tail
])


def test_corner_split_geometry():
    # h is the larger box width: lambda = min(5 - 1, 4 - 1) = 3, and the
    # tail 80 h = 10 at h = 1/8 whichever axis is the wider
    for box in (Box(0, F(1, 8), 0, F(1, 16)), Box(0, F(1, 16), 0, F(1, 8))):
        assert corner_margin(CORNER_DEMO, box, (F(0), F(0))) == 3 - 10


def test_corner_split_at_every_corner_of_a_non_unit_box():
    # u = p - a and v = x - b recentre the polynomial at each corner; the
    # signs of the cross term and the cubes count only through |.|
    box = Box(F(1, 3), F(1, 2), F(-1, 4), F(1, 5))
    p, x = BiPoly.var_p(), BiPoly.var_x()
    for a in (box.p_lo, box.p_hi):
        for b in (box.x_lo, box.x_hi):
            u, v = p - a, x - b
            f = 5 * u ** 2 + 2 * u * v + 4 * v ** 2 + 40 * u ** 3 - 40 * v ** 3
            assert corner_margin(f, box, (a, b)) == 4 - 1 - 80 * F(9, 20)
    # an end of one axis only is no corner, though f vanishes to second
    # order there
    for a, b in ((box.p_lo, F(0)), (F(2, 5), box.x_hi)):
        f = 5 * (p - a) ** 2 + 4 * (x - b) ** 2
        assert corner_margin(f, box, (a, b)) is None


def test_corner_split_requires_corner_of_box():
    box = Box(0, F(1, 8), 0, F(1, 8))
    assert corner_margin(CORNER_DEMO, box, (F(1, 2), F(0))) is None


def test_corner_split_requires_vanishing_linear_part():
    f = CORNER_DEMO + BiPoly.from_terms([(1, 0, 1)])
    assert corner_margin(f, Box(0, 1, 0, 1), (F(0), F(0))) is None


def test_corner_split_builds_each_shift_once(monkeypatch, reduction):
    # the shifts are memoised by (degree, corner): a second call on the
    # same corner, as for every corner leaf of a re-check, builds none
    memo = bernstein._AxisMaps()
    monkeypatch.setattr(bernstein, "_AXIS_MAPS", memo)
    calls = []
    real = bernstein._pencil
    monkeypatch.setattr(bernstein, "_pencil", lambda *a: calls.append(a) or real(*a))
    gap, box = reduction.gap, Box(0, F(1, 8), 0, F(1, 8))
    first = corner_margin(gap, box, (F(0), F(0)))
    assert len(calls) == 2 and (6, 0, 1) in memo._maps and (4, 0, 1) in memo._maps
    second = corner_margin(gap, Box(0, F(1, 16), 0, F(1, 16)), (F(0), F(0)))
    again = corner_margin(gap, box, (F(0), F(0)))
    assert len(calls) == 2
    assert again == first != second
    # a high end of the same point takes the same shift
    assert corner_margin(gap, Box(F(-1, 8), 0, 0, F(1, 8)), (F(0), F(0))) == first
    assert len(calls) == 2


def test_corner_estimate_margin():
    # lambda = min(5 - 1, 4 - 1) = 3; tail = 80 * (1/8) = 10 on [0,1/8]^2
    assert corner_margin(CORNER_DEMO, Box(0, F(1, 8), 0, F(1, 8)), (0, 0)) == 3 - 10
    # on a smaller box the tail shrinks: 80 * 1/64
    assert corner_margin(CORNER_DEMO, Box(0, F(1, 64), 0, F(1, 64)), (0, 0)) == \
        3 - F(80, 64)


def test_corner_estimate_certifies_at_reflected_corner():
    # the zero may sit at any corner, (hi, hi) too: f vanishes
    # quadratically at (1, 1)
    p, x = BiPoly.var_p(), BiPoly.var_x()
    one = BiPoly.constant(1)
    f = 5 * (one - p) ** 2 + 2 * (one - p) * (one - x) + 4 * (one - x) ** 2 \
        + 40 * (one - p) ** 3
    box = Box(F(63, 64), 1, F(63, 64), 1)
    assert corner_margin(f, box, (F(1), F(1))) == 4 - abs(F(2)) / 2 - F(40, 64)
    cert = certify_positive(f, box, 0, CornerRule(1, 1))
    assert cert.root.status == STATUS_CORNER and check_certificate(f, cert, box)


def _rational(low, high):
    # non-dyadic denominators among them
    return st.builds(F, st.integers(low, high), st.sampled_from([1, 2, 3, 5, 7, 12]))


@settings(max_examples=60, deadline=None)
@given(p_lo=_rational(-9, 9), p_width=_rational(1, 9), x_lo=_rational(-9, 9),
       x_width=_rational(1, 9), at_hi=st.tuples(st.booleans(), st.booleans()),
       coeffs=st.dictionaries(
           st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda ij: sum(ij) >= 2),
           _rational(-20, 20)))
def test_corner_margin_matches_its_formula(p_lo, p_width, x_lo, x_width, at_hi, coeffs):
    # sum c_ij (p - a)^i (x - b)^j over i + j >= 2 vanishes to second
    # order at (a, b); the rule applies at a corner of the box only
    box = Box(p_lo, p_lo + p_width, x_lo, x_lo + x_width)
    p, x = BiPoly.var_p(), BiPoly.var_x()

    def vanishing_at(a, b):
        f = BiPoly.constant(0)
        for (i, j), c in coeffs.items():
            f = f + c * (p - a) ** i * (x - b) ** j
        return f

    a = box.p_hi if at_hi[0] else box.p_lo
    b = box.x_hi if at_hi[1] else box.x_lo
    half_cross = F(abs(coeffs.get((1, 1), 0)), 2)
    expected = (min(coeffs.get((2, 0), 0) - half_cross, coeffs.get((0, 2), 0) - half_cross)
                - sum(abs(c) * max(p_width, x_width) ** (i + j - 2)
                      for (i, j), c in coeffs.items() if i + j >= 3))
    assert corner_margin(vanishing_at(a, b), box, (a, b)) == expected
    mid_p, mid_x = (box.p_lo + box.p_hi) / 2, (box.x_lo + box.x_hi) / 2
    assert corner_margin(vanishing_at(mid_p, mid_x), box, (mid_p, mid_x)) is None
    assert corner_margin(vanishing_at(a, mid_x), box, (a, mid_x)) is None
    assert corner_margin(vanishing_at(a, b) + (p - a), box, (a, b)) is None


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

POSITIVE_POLY = BiPoly.from_terms(
    [(2, 0, 3), (1, 1, -2), (0, 2, 3), (0, 0, F(1, 50))])


def test_certify_positive_succeeds_with_depth():
    cert = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=3)
    assert cert.succeeded
    assert check_certificate(POSITIVE_POLY, cert, UNIT_BOX)
    assert all(leaf.status == STATUS_POSITIVE for leaf in cert.leaves())


def test_certify_runs_out_of_depth_honestly():
    cert = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=1)
    assert not cert.succeeded
    failed = [leaf for leaf in cert.leaves() if leaf.status == STATUS_FAILED]
    assert failed
    for leaf in failed:
        p, x, v = leaf.witness
        assert POSITIVE_POLY.evaluate(p, x) == v
    # a sound-but-incomplete certificate re-validates to False, no error
    assert check_certificate(POSITIVE_POLY, cert, UNIT_BOX) is False


def test_certify_refuses_depth_above_the_cap():
    # p^2 + x^2 vanishes at the corner (0, 0), so the origin box
    # subdivides at every level: the deepest tree the cap allows
    f = BiPoly.from_terms([(2, 0, 1), (0, 2, 1)])
    cert = certify_positive(f, UNIT_BOX, max_depth=MAX_DEPTH)
    assert cert.root.depth() == MAX_DEPTH + 1 and not cert.succeeded
    back = PositivityCertificate.from_json(cert.to_json())
    assert check_certificate(f, back, UNIT_BOX) is False
    with pytest.raises(ValueError, match=f"max_depth must be at most {MAX_DEPTH}"):
        certify_positive(f, UNIT_BOX, max_depth=MAX_DEPTH + 1)


@pytest.mark.parametrize("build, message", [
    (lambda: certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=-1), "max_depth must be >= 0"),
    (lambda: bound_above(POSITIVE_POLY, UNIT_BOX, depth=-1), "depth must be >= 0"),
], ids=["certify-depth", "bound-depth"])
def test_negative_depths_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_certify_detects_true_negativity():
    f = BiPoly.from_terms([(2, 0, 1), (0, 2, 1), (0, 0, F(-1, 100))])
    cert = certify_positive(f, UNIT_BOX, max_depth=2)
    assert not cert.succeeded
    witnesses = [leaf.witness for leaf in cert.leaves()
                 if leaf.status == STATUS_FAILED]
    assert any(v < 0 for _, _, v in witnesses)


def test_certificate_deterministic():
    c1 = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=3)
    c2 = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=3)
    assert c1.to_json_doc() == c2.to_json_doc()


def test_certificate_json_roundtrip():
    cert = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=3)
    loaded = PositivityCertificate.from_json(cert.to_json())
    assert loaded.to_json_doc() == cert.to_json_doc()
    assert check_certificate(POSITIVE_POLY, loaded, UNIT_BOX)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(min_bcoeff="1/1000000"), "enclosure mismatch"),
    (lambda d: d.update(status="failed"), "witness"),
    (lambda d: d.update(box=["0", "1/2", "0", "1/2"]), "quadrants"),
    # fields only another status records; the witness is true at (0, 0)
    (lambda d: d.update(margin="1/2"), "records a margin"),
    (lambda d: d.update(witness=["0", "0", "1/50"]), "records a witness"),
])
def test_tampered_certificates_are_rejected(mutate, message):
    cert = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=3)
    doc = cert.to_json_doc()
    node = doc
    while node["children"]:
        node = node["children"][0]
    mutate(node)
    bad = PositivityCertificate.from_json_doc(doc)
    with pytest.raises(CertificateError, match=message):
        check_certificate(POSITIVE_POLY, bad, UNIT_BOX)


def _find_corner(node):
    if node["status"] == STATUS_CORNER:
        return node
    for child in node["children"]:
        got = _find_corner(child)
        if got:
            return got
    return None


def test_corner_certificate_checks_margin(reduction):
    corner = CornerRule(0, 0)
    cert = certify_positive(reduction.gap, UNIT_BOX, 3, corner)
    assert cert.succeeded
    doc = cert.to_json_doc()
    leaf = _find_corner(doc)
    assert leaf is not None
    leaf["margin"] = "1/2"
    bad = PositivityCertificate.from_json_doc(doc, corner)
    with pytest.raises(CertificateError, match="margin mismatch"):
        check_certificate(reduction.gap, bad, UNIT_BOX)


def test_corner_certificate_requires_rule(reduction):
    cert = certify_positive(reduction.gap, UNIT_BOX, 3, CornerRule(0, 0))
    stripped = PositivityCertificate(cert.root, corner_rule=None)
    with pytest.raises(CertificateError, match="corner rule"):
        check_certificate(reduction.gap, stripped, UNIT_BOX)


def _node_docs(doc):
    yield doc
    for child in doc["children"]:
        yield from _node_docs(child)


@settings(max_examples=30, deadline=None)
@given(polys, boxes, st.integers(0, 3), st.data())
def test_check_certificate_reconverts_every_node(f, box, depth, data):
    # nodes share p-intervals with their siblings and cousins; each node's
    # enclosure must still be its own, down to one part in 10^9
    cert = certify_positive(f, box, depth)
    assert check_certificate(f, cert, box) is cert.succeeded
    doc = cert.to_json_doc()
    node = data.draw(st.sampled_from(list(_node_docs(doc))))
    node["min_bcoeff"] = str(F(node["min_bcoeff"]) + F(1, 10 ** 9))
    with pytest.raises(CertificateError, match="enclosure mismatch"):
        check_certificate(f, PositivityCertificate.from_json_doc(doc), box)


def test_check_rejects_wrong_root_box():
    cert = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=3)
    with pytest.raises(CertificateError, match="root box"):
        check_certificate(POSITIVE_POLY, cert, Box(0, F(1, 2), 0, 1))


@pytest.mark.parametrize("size", [2, 4])
def test_check_rejects_wrong_length_witness(size):
    root = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=0).root
    assert root.status == STATUS_FAILED
    bad = root._replace(witness=(root.witness * 2)[:size])
    with pytest.raises(CertificateError, match="witness"):
        check_certificate(POSITIVE_POLY, PositivityCertificate(bad), UNIT_BOX)


def test_check_rejects_margin_on_a_subdivided_node():
    doc = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=3).to_json_doc()
    doc["margin"] = "1/2"
    with pytest.raises(CertificateError, match="subdivided node .* records a margin"):
        check_certificate(POSITIVE_POLY, PositivityCertificate.from_json_doc(doc),
                          UNIT_BOX)


def test_check_rejects_witness_on_a_corner_leaf(reduction):
    corner = CornerRule(0, 0)
    doc = certify_positive(reduction.gap, UNIT_BOX, 3, corner).to_json_doc()
    _find_corner(doc)["witness"] = ["0", "0", "0"]   # the gap vanishes there
    with pytest.raises(CertificateError,
                       match="corner_certified node .* records a witness"):
        check_certificate(reduction.gap,
                          PositivityCertificate.from_json_doc(doc, corner), UNIT_BOX)


def test_check_rejects_failed_leaf_with_children():
    doc = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=1).to_json_doc()
    # a child's witness lies inside the root box, with its true value
    doc.update(status="failed", witness=doc["children"][0]["witness"])
    with pytest.raises(CertificateError, match="failed leaf must have no children"):
        check_certificate(POSITIVE_POLY, PositivityCertificate.from_json_doc(doc),
                          UNIT_BOX)


@settings(max_examples=60, deadline=None)
@given(polys, boxes, st.integers(1, 3), st.sampled_from(["move", "swap", "drop"]),
       st.integers(0, 10 ** 6), st.integers(0, 3), st.integers(1, 3),
       st.sampled_from([2, -2, 3, -3]))
# the root's last child dropped: pairing children with quadrants alone
# would not notice
@example(POSITIVE_POLY, UNIT_BOX, 2, "drop", 0, 3, 1, 2)
def test_box_tampering_anywhere_is_rejected(f, box, depth, kind, pick, k, offset,
                                            divisor):
    doc = certify_positive(f, box, depth).to_json_doc()
    nodes = list(_node_docs(doc))
    parents = [node for node in nodes if node["children"]]
    if not parents:
        kind = "move"
    pool = nodes if kind == "move" else parents
    node = pool[pick % len(pool)]
    if kind == "move":
        # end k to a dyadic point of the next level, or off the dyadic grid;
        # a shift of less than the width keeps the box a box
        lo, hi = F(node["box"][k & ~1]), F(node["box"][k | 1])
        node["box"][k] = str(F(node["box"][k]) + (hi - lo) / divisor)
    elif kind == "swap":
        kids = node["children"]
        kids[k], kids[(k + offset) % 4] = kids[(k + offset) % 4], kids[k]
    else:
        node["children"].pop(k)
    message = ("root box" if node is doc and kind == "move"
               else "are not its quadrants")
    with pytest.raises(CertificateError, match=message):
        check_certificate(f, PositivityCertificate.from_json_doc(doc), box)


VALLEY_POLY = ((BiPoly.var_p() - F(1, 3)) ** 2 + (BiPoly.var_x() - F(2, 3)) ** 2
               + F(1, 100))
SKEWED_BOX = Box(F(-2, 3), F(4, 5), F(-1, 7), F(5, 3))


@pytest.mark.parametrize("box, parent", [
    (UNIT_BOX, "[0,1/2]x[0,1/2]"),
    (SKEWED_BOX, "[1/15,4/5]x[-1/7,16/21]"),
])
def test_cousins_swapped_across_parents_are_rejected(box, parent):
    # each parent still has four children of its own level, so only the
    # ends handed down from one parent to the next catch the swap
    doc = certify_positive(VALLEY_POLY, box, 4).to_json_doc()
    first, second = [kid for kid in doc["children"] if kid["children"]][:2]
    a, b = first["children"], second["children"]
    a[0], b[0] = b[0], a[0]
    with pytest.raises(CertificateError,
                       match=f"^{re.escape(f'children of {parent} are not its quadrants')}$"):
        check_certificate(VALLEY_POLY, PositivityCertificate.from_json_doc(doc), box)


@pytest.mark.parametrize("box", [UNIT_BOX, SKEWED_BOX])
def test_check_maps_each_p_interval_once(monkeypatch, box):
    # nodes in one column of the tree share their p-interval; a stage
    # keyed per node or per (p, x) pair would convert each node again
    cert = certify_positive(VALLEY_POLY, box, 4)
    assert cert.root.depth() >= 4          # subdivided three times or more
    nodes = list(_node_docs(cert.to_json_doc()))
    calls = []
    real = bernstein._packed_stage
    monkeypatch.setattr(bernstein, "_packed_stage",
                        lambda *args: calls.append(1) or real(*args))
    assert check_certificate(VALLEY_POLY, cert, box)
    assert len(calls) == len({tuple(n["box"][:2]) for n in nodes}) < len(nodes)


def _raise_max_bcoeff(doc):
    node = doc["children"][0]["children"][3]
    node["max_bcoeff"] = str(F(node["max_bcoeff"]) + F(1, 7))


def _claim_positivity(doc):
    doc["status"] = STATUS_POSITIVE
    del doc["witness"]


def _swap_middle_children(doc):
    kids = doc["children"]
    kids[1], kids[2] = kids[2], kids[1]


@pytest.mark.parametrize("box, depth, mutate, text", [
    (UNIT_BOX, 3, _raise_max_bcoeff,
     "enclosure mismatch on [1/4,1/2]x[1/4,1/2]: recomputed (27/100, 51/50), "
     "recorded (27/100, 407/350)"),
    (UNIT_BOX, 0, _claim_positivity,
     "leaf on [0,1]x[0,1] claims positivity but min coefficient is -12/25"),
    (Box(F(-2, 3), F(4, 5), F(-1, 7), F(5, 3)), 2, _swap_middle_children,
     "children of [-2/3,4/5]x[-1/7,5/3] are not its quadrants"),
])
def test_checker_messages_keep_their_full_text(box, depth, mutate, text):
    doc = certify_positive(POSITIVE_POLY, box, depth).to_json_doc()
    mutate(doc)
    with pytest.raises(CertificateError, match=f"^{re.escape(text)}$"):
        check_certificate(POSITIVE_POLY, PositivityCertificate.from_json_doc(doc),
                          box)


# Each case below is an honest certificate with one edit, and reaches one
# rejection of check_certificate on its own.
ORIGIN = CornerRule(0, 0)


def _read(poly, doc, rule=None):
    return poly, PositivityCertificate.from_json_doc(doc, rule)


def _positive_with_children(gap):
    doc = certify_positive(POSITIVE_POLY, UNIT_BOX, 3).to_json_doc()
    doc["status"] = STATUS_POSITIVE
    return _read(POSITIVE_POLY, doc)


def _corner_with_children(gap):
    doc = certify_positive(gap, UNIT_BOX, 3, ORIGIN).to_json_doc()
    doc["status"] = STATUS_CORNER
    return _read(gap, doc, ORIGIN)


def _corner_under_another_rule(gap):
    doc = certify_positive(gap, UNIT_BOX, 3, ORIGIN).to_json_doc()
    return _read(gap, doc, CornerRule(1, 1))


def _corner_claimed_a_level_up(gap):
    # certify_positive tried the estimate on [0,1/4]^2 and subdivided
    # because it failed there
    doc = certify_positive(gap, UNIT_BOX, 3, ORIGIN).to_json_doc()
    doc["children"][0]["children"][0].update(
        status=STATUS_CORNER, children=[], margin="1")
    return _read(gap, doc, ORIGIN)


def _corner_at_margin_zero(gap):
    # p^2 + x^2 + p^3 has margin exactly 0 on [0,1]^2: no proof of > 0
    f = BiPoly.from_terms([(2, 0, 1), (0, 2, 1), (3, 0, 1)])
    doc = certify_positive(f, UNIT_BOX, 0).to_json_doc()
    del doc["witness"]
    doc.update(status=STATUS_CORNER, margin="0")
    return _read(f, doc, ORIGIN)


def _witness_at(p, x):
    # the failed leaf [0,1/2]^2 with the witness (p, x) and its true value
    doc = certify_positive(POSITIVE_POLY, UNIT_BOX, 1).to_json_doc()
    doc["children"][0]["witness"] = [str(p), str(x), str(POSITIVE_POLY.evaluate(p, x))]
    return _read(POSITIVE_POLY, doc)


def _witness_from_another_box(gap):
    return _witness_at(1, 1)            # outside on both axes


# outside on one side of one axis, inside on the other axis
def _witness_below_p_lo(gap):
    return _witness_at(F(-1, 4), F(1, 4))


def _witness_above_p_hi(gap):
    return _witness_at(F(3, 4), F(1, 4))


def _witness_below_x_lo(gap):
    return _witness_at(F(1, 4), F(-1, 4))


def _witness_above_x_hi(gap):
    return _witness_at(F(1, 4), F(3, 4))


def _witness_value_off(gap):
    doc = certify_positive(POSITIVE_POLY, UNIT_BOX, 1).to_json_doc()
    witness = doc["children"][0]["witness"]
    witness[2] = str(F(witness[2]) + F(1, 1000))
    return _read(POSITIVE_POLY, doc)


def _failure_claimed_on_a_positive_leaf(gap):
    # the witness is the leaf's corner (1/8, 0) with its true value
    doc = certify_positive(POSITIVE_POLY, UNIT_BOX, 3).to_json_doc()
    value = str(POSITIVE_POLY.evaluate(F(1, 8), 0))
    doc["children"][0]["children"][0]["children"][2].update(
        status=STATUS_FAILED, witness=["1/8", "0", value])
    return _read(POSITIVE_POLY, doc)


def _unknown_status(gap):
    # from_json refuses the status before the checker sees it
    root = certify_positive(POSITIVE_POLY, UNIT_BOX, 3).root
    bogus = root._replace(status="bogus")
    return POSITIVE_POLY, PositivityCertificate(bogus)


def _positivity_claimed_at_min_zero(gap):
    doc = certify_positive(BiPoly.var_x(), UNIT_BOX, 0).to_json_doc()
    _claim_positivity(doc)
    return _read(BiPoly.var_x(), doc)


@pytest.mark.parametrize("case, text", [
    (_positive_with_children, "positive leaf must have no children"),
    (_corner_with_children, "corner leaf must have no children"),
    (_corner_under_another_rule, "corner rule does not apply on [0,1/8]x[0,1/8]"),
    (_corner_claimed_a_level_up, "corner estimate fails on [0,1/4]x[0,1/4]"),
    (_corner_at_margin_zero, "corner estimate fails on [0,1]x[0,1]"),
    (_witness_from_another_box, "failure witness outside its box"),
    (_witness_below_p_lo, "failure witness outside its box"),
    (_witness_above_p_hi, "failure witness outside its box"),
    (_witness_below_x_lo, "failure witness outside its box"),
    (_witness_above_x_hi, "failure witness outside its box"),
    (_witness_value_off, "failure witness value does not match"),
    (_failure_claimed_on_a_positive_leaf, "failed leaf has positive enclosure"),
    (_unknown_status, "unknown node status 'bogus'"),
    # a smallest coefficient of exactly 0 proves no positivity
    (_positivity_claimed_at_min_zero,
     "leaf on [0,1]x[0,1] claims positivity but min coefficient is 0"),
])
def test_every_checker_rejection_keeps_its_full_text(reduction, case, text):
    poly, cert = case(reduction.gap)
    with pytest.raises(CertificateError, match=f"^{re.escape(text)}$"):
        check_certificate(poly, cert, UNIT_BOX)


def test_check_reports_the_first_fault_in_pre_order():
    # a bad status deep in child 0's subtree, checked before child 3, a
    # leaf one level below the root with a raised bound
    doc = certify_positive(POSITIVE_POLY, UNIT_BOX, 3).to_json_doc()
    doc["children"][0]["children"][0]["children"][1]["status"] = STATUS_CORNER
    last = doc["children"][3]
    last["max_bcoeff"] = str(F(last["max_bcoeff"]) + F(1, 7))
    cert = PositivityCertificate.from_json_doc(doc)
    with pytest.raises(CertificateError, match="^corner leaf without a corner rule$"):
        check_certificate(POSITIVE_POLY, cert, UNIT_BOX)
    # with child 0's subtree honest again, child 3's fault shows
    doc["children"][0]["children"][0]["children"][1]["status"] = STATUS_POSITIVE
    with pytest.raises(CertificateError,
                       match=re.escape("enclosure mismatch on [1/2,1]x[1/2,1]")):
        check_certificate(POSITIVE_POLY, PositivityCertificate.from_json_doc(doc),
                          UNIT_BOX)


@pytest.mark.parametrize("box, depth, failed_at", [
    (UNIT_BOX, 3, None),
    (UNIT_BOX, 1, 0),                 # the first leaf in pre-order fails
    (Box(-1, 0, -1, 0), 1, 3),        # the last one does
])
def test_check_is_false_iff_a_leaf_failed(box, depth, failed_at):
    cert = certify_positive(POSITIVE_POLY, box, depth)
    statuses = [leaf.status for leaf in cert.leaves()]
    assert [k for k, s in enumerate(statuses) if s == STATUS_FAILED] == (
        [] if failed_at is None else [failed_at])
    assert check_certificate(POSITIVE_POLY, cert, box) is (failed_at is None)


def test_checks_and_builds_leave_no_cyclic_garbage(reduction):
    # garbage in a reference cycle waits for the cyclic collector, and a
    # cycle through a checked certificate would keep its whole tree alive
    proving = certify_positive(reduction.gap, UNIT_BOX, 3, ORIGIN).to_json()
    failed = certify_positive(POSITIVE_POLY, UNIT_BOX, 1).to_json()
    doc = certify_positive(POSITIVE_POLY, UNIT_BOX, 3).to_json_doc()
    _raise_max_bcoeff(doc)
    tampered = json.dumps(doc)
    gc.collect()
    gc.disable()
    try:
        assert check_certificate(
            reduction.gap, PositivityCertificate.from_json(proving, ORIGIN), UNIT_BOX)
        assert gc.collect() == 0
        assert not check_certificate(
            POSITIVE_POLY, PositivityCertificate.from_json(failed), UNIT_BOX)
        assert gc.collect() == 0
        raised = False
        try:
            check_certificate(POSITIVE_POLY, PositivityCertificate.from_json(tampered),
                              UNIT_BOX)
        except CertificateError:
            raised = True
        assert raised
        assert gc.collect() == 0
        cert = certify_positive(reduction.gap, UNIT_BOX, 3, ORIGIN)
        assert gc.collect() == 0
        assert cert.node_count() == len(list(_node_docs(json.loads(proving))))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_corner_estimate_refuses_margin_zero():
    # lambda = 1 and the tail 1 * 1^(3-2) = 1 leave margin 0: no proof of > 0
    f = BiPoly.from_terms([(2, 0, 1), (0, 2, 1), (3, 0, 1)])
    assert corner_margin(f, UNIT_BOX, (0, 0)) == 0
    cert = certify_positive(f, UNIT_BOX, 0, CornerRule(0, 0))
    assert cert.root.status == STATUS_FAILED and not cert.succeeded


def test_check_certificate_with_maps_larger_than_the_memo(monkeypatch):
    # at p-degree 128 the map over [1/2, 1] is larger than the memo's
    # limit: the memo hands it back without keeping it, so the check must
    # not count on a hit, and may leave behind only what the memo keeps
    memo = bernstein._AxisMaps()
    monkeypatch.setattr(bernstein, "_AXIS_MAPS", memo)
    f = BiPoly.from_terms([(128, 0, F(1, 1000)), (2, 0, 4), (1, 0, -4),
                           (0, 0, F(201, 200)), (0, 1, F(1, 100))])
    cert = certify_positive(f, UNIT_BOX, max_depth=1)
    assert cert.succeeded and len(cert.root.children) == 4
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert check_certificate(f, cert, UNIT_BOX)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    big = (128, 1, 2, 1, 1)
    assert big not in memo._maps
    bernstein._axis_map(*big)
    assert big not in memo._maps
    assert 0 < memo.bytes <= bernstein._AXIS_CACHE_BYTES
    assert grown <= bernstein._AXIS_CACHE_BYTES + 100 * len(memo._maps)
    doc = cert.to_json_doc()
    last = doc["children"][3]
    last["max_bcoeff"] = str(F(last["max_bcoeff"]) + F(1, 10 ** 9))
    with pytest.raises(CertificateError,
                       match=re.escape("enclosure mismatch on [1/2,1]x[1/2,1]")):
        check_certificate(f, PositivityCertificate.from_json_doc(doc), UNIT_BOX)


def _packed_enclosure(ints, mp, mx):
    """check_certificate's packed (min, max) of mp * ints * mx^T."""
    m, n = len(mp) - 1, len(mx) - 1
    width = bernstein._field_width(bernstein._bits(mp), bernstein._bits(ints),
                                   bernstein._bits(mx), m, n)
    packed, bias = bernstein._pack_columns(mp, width)
    stage = bernstein._packed_stage(list(zip(*ints)), packed)
    split = struct.Struct(f"{width >> 3}s" * ((m + 1) * (n + 1))).unpack
    return bernstein._packed_range(stage, bias, width, split, mx)


def _plain_enclosure(ints, mp, mx):
    flat = [c for row in bernstein._x_stage(bernstein._p_stage(ints, mp), mx) for c in row]
    return min(flat), max(flat)


def _signed_matrices(rows, cols):
    """Matrices of a drawn bit length b: entries of either sign up to
    2^b - 1 in magnitude, often exactly that, so that the products reach
    the corners of the width bound."""
    def of_bits(bits):
        top = (1 << bits) - 1
        entry = st.integers(-top, top) | st.sampled_from([-top, top])
        return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows)
    return st.integers(0, 70).flatmap(of_bits)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(0, 8), st.integers(0, 8)).flatmap(
    lambda mn: st.tuples(_signed_matrices(mn[0] + 1, mn[1] + 1),
                         _signed_matrices(mn[0] + 1, mn[0] + 1),
                         _signed_matrices(mn[1] + 1, mn[1] + 1))))
def test_packed_range_matches_plain_products(mats):
    ints, mp, mx = mats
    assert _packed_enclosure(ints, mp, mx) == _plain_enclosure(ints, mp, mx)


@pytest.mark.parametrize("m, n", [(0, 0), (2, 2), (6, 4), (6, 6), (7, 3), (14, 14)])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_range_at_the_width_bound(m, n, sign):
    # every entry at its largest magnitude, so each result is (m + 1)(n + 1)
    # times the largest product; the ints' bit length makes the bound
    # before its sign bit a whole number of bytes, where W has no slack
    # from rounding up, and at (6, 6) and (14, 14) the results need that bit
    dims = (m + 1).bit_length() + (n + 1).bit_length()
    top = (1 << 8 + (-dims - 6) % 8) - 1
    assert (3 + top.bit_length() + 3 + dims) % 8 == 0
    mp = [[7] * (m + 1) for _ in range(m + 1)]
    ints = [[sign * top] * (n + 1) for _ in range(m + 1)]
    mx = [[7] * (n + 1) for _ in range(n + 1)]
    lo, hi = _packed_enclosure(ints, mp, mx)
    assert (lo, hi) == _plain_enclosure(ints, mp, mx)
    assert lo == hi == sign * (m + 1) * (n + 1) * 49 * top


@settings(max_examples=60, deadline=None)
@given(polys, boxes)
def test_packed_range_matches_conversion(f, box):
    # the axis maps of boxes with negative ends have entries of both signs
    m, n = f.bidegree
    ints, _ = f._integers
    mp = bernstein._axis_map(m, *box._ends[0])[0]
    mx = bernstein._axis_map(n, *box._ends[1])[0]
    patch = to_bernstein(f, box)
    assert _packed_enclosure(ints, mp, mx) == (min(map(min, patch.ints)),
                                               max(map(max, patch.ints)))


# ---------------------------------------------------------------------------
# certificate JSON intake: parse or ValueError, never another exception
# ---------------------------------------------------------------------------

RATIONAL_TEXT = st.sampled_from(["0", "1/2", "-3", "1/0", "0.5", "1e3", " ", ""])
JSON_SCALAR = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=6) | RATIONAL_TEXT)
JSON_VALUE = st.recursive(
    JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)
FIELD_VALUE = JSON_SCALAR | st.lists(RATIONAL_TEXT, max_size=5) | JSON_VALUE
NODE_FIELDS = ("box", "status", "min_bcoeff", "max_bcoeff", "children",
               "margin", "witness")
# depth 1 on the positive example: subdivided root, failed leaves with witnesses
VALID_DOC = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=1).to_json_doc()


@pytest.mark.parametrize("doc", [
    [VALID_DOC],
    {**VALID_DOC, "box": [0, 1, 0, 1]},
    {**VALID_DOC, "box": ["0", "1", "0"]},
    {**VALID_DOC, "min_bcoeff": None},
    {**VALID_DOC, "children": "x"},
    {**VALID_DOC, "children": [1]},
    {**VALID_DOC, "children": None},
])
def test_from_json_malformed_raises_value_error(doc):
    with pytest.raises(ValueError):
        PositivityCertificate.from_json(json.dumps(doc))


def test_from_json_deep_nesting_raises_value_error():
    leaf = json.dumps(VALID_DOC["children"][0])
    text = '{"children": [' * 10 ** 5 + leaf + "]}" * 10 ** 5
    with pytest.raises(ValueError, match="nested too deeply"):
        PositivityCertificate.from_json(text)


def _chain_doc(levels):
    """A certificate document ``levels`` nodes deep, one child per node,
    built without recursion."""
    doc = VALID_DOC["children"][0]
    for _ in range(levels - 1):
        doc = {**VALID_DOC, "children": [doc]}
    return doc


def test_from_json_doc_deep_nesting_raises_value_error():
    with pytest.raises(ValueError, match="nested too deeply"):
        PositivityCertificate.from_json_doc(_chain_doc(5000))


def test_depth_measures_every_tree_the_reader_accepts():
    cert = PositivityCertificate.from_json(json.dumps(_chain_doc(400)))
    assert cert.root.depth() == 400 and cert.node_count() == 400


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_from_json_mutated_parses_or_raises_value_error(data):
    doc = copy.deepcopy(VALID_DOC)
    nodes = [doc] + doc["children"]
    for _ in range(data.draw(st.integers(1, 3))):
        node = data.draw(st.sampled_from(nodes))
        field = data.draw(st.sampled_from(NODE_FIELDS))
        if data.draw(st.booleans()):
            node.pop(field, None)
        else:
            node[field] = data.draw(FIELD_VALUE)
    if data.draw(st.integers(0, 9)) == 0:
        doc = data.draw(JSON_VALUE)
    try:
        PositivityCertificate.from_json(json.dumps(doc))
    except ValueError:
        pass


BOX_END = (rationals.map(str)
           | st.builds(lambda a, b: f"{a}/{b}", st.integers(-9, 9), st.integers(-2, 9))
           | st.sampled_from(["2/4", "-0", "0", "1", "-6/4", "+3/6", " 1/3 ", "1/0",
                              "0.5", "", "1/-2", "1 /2"])
           | st.integers(-2, 2) | st.none() | st.floats(-1, 1)
           | st.lists(st.just("1"), max_size=1))
NODE_STATUS = (st.sampled_from([STATUS_POSITIVE, "bogus"]) | st.none()
               | st.lists(st.just(STATUS_POSITIVE), max_size=1))


@settings(max_examples=400, deadline=None)
@given(st.lists(BOX_END, min_size=4, max_size=4), NODE_STATUS)
def test_node_reader_matches_the_box_constructor(ends, status):
    # the reader builds each Box from its ends' reduced integers; it must
    # agree with the constructor, box for box and error for error, on a
    # node and again on a child that reads the same strings from the
    # reader's store
    doc = {"box": ends, "status": status, "min_bcoeff": "0", "max_bcoeff": "1/2",
           "children": []}
    try:
        ref = Box(*map(parse_rational, ends))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            PositivityCertificate.from_json_doc(doc)
        assert str(got.value) == str(exc)
        return
    if status != STATUS_POSITIVE:
        with pytest.raises(ValueError, match=r"^unknown node status "):
            PositivityCertificate.from_json_doc(doc)
        return
    root = PositivityCertificate.from_json_doc(
        {**doc, "status": "subdivided", "children": [doc]}).root
    for box in (root.box, root.children[0].box):
        assert box == ref and hash(box) == hash(ref)


# ---------------------------------------------------------------------------
# BiPoly.evaluate against a Fraction Horner reference
# ---------------------------------------------------------------------------

def ref_evaluate(f, p, x):
    """Horner over the Fraction coefficients, in the argument's arithmetic."""
    acc = None
    for row in reversed(f.coeffs):
        racc = None
        for c in reversed(row):
            racc = c if racc is None else racc * x + c
        acc = racc if acc is None else acc * p + racc
    return acc


def _zero_lines(f, rows, cols):
    """f with the chosen rows and columns of its coefficient matrix zeroed."""
    return BiPoly([[0 if i in rows or j in cols else c for j, c in enumerate(row)]
                   for i, row in enumerate(f.coeffs)])


polys_with_zeros = st.builds(_zero_lines, polys, st.sets(st.integers(0, 4)),
                             st.sets(st.integers(0, 4)))
points = st.one_of(st.integers(-9, 9),
                   st.builds(F, st.integers(-90, 90), st.integers(1, 35)))
float_points = st.floats(-8, 8, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(polys_with_zeros, points, points)
def test_evaluate_rational_matches_reference(f, p, x):
    got = f.evaluate(p, x)
    assert type(got) is F and got == ref_evaluate(f, p, x)


@settings(max_examples=200, deadline=None)
@given(polys_with_zeros, float_points, float_points)
def test_evaluate_float_is_bit_identical_to_reference(f, p, x):
    # float() only matters for a 1x1 polynomial, where the reference
    # returns its Fraction coefficient and evaluate rounds it
    ref = float(ref_evaluate(f, p, x))
    got = f.evaluate(p, x)
    assert type(got) is float
    assert got == ref and math.copysign(1, got) == math.copysign(1, ref)
    np = pytest.importorskip("numpy")
    assert f.evaluate(p, np.float64(x)) == float(ref_evaluate(f, p, np.float64(x)))


# ---------------------------------------------------------------------------
# polynomial text intake: a BiPoly or ValueError, never another exception
# ---------------------------------------------------------------------------

def mostly(common, rare):
    """Draw from ``common`` four times in five, else from ``rare``."""
    return st.integers(0, 4).flatmap(lambda k: rare if k == 0 else common)


EXPONENT_TEXT = mostly(st.integers(0, 4).map(str),
                       st.integers(-3, -1).map(str)
                       | st.sampled_from(["256", "257", "100000", str(10 ** 9),
                                          "9" * 5000, "1.5", "2/1", "1e3", "x",
                                          "", "-0", "+3", "0x1", "\u0663"]))
COEFF_TEXT = mostly(st.builds("{}/{}".format, st.integers(-99, 99),
                              st.integers(-2, 9)),
                    RATIONAL_TEXT | st.text(max_size=6)
                    | st.sampled_from(["--1", "1//2", "nan", "inf", "9" * 5000]))
HEADER_LINE = mostly(st.builds("bidegree {} {}".format, EXPONENT_TEXT, EXPONENT_TEXT),
                     st.sampled_from(["bidegree 1", "bidegree 1 1 1", "degree 1 1"])
                     | st.text(max_size=12))
TERM_LINE = mostly(st.builds("{} {} {}".format, EXPONENT_TEXT, EXPONENT_TEXT,
                             COEFF_TEXT),
                   st.sampled_from(["", "# comment", "1 1", "1 1 1 1"])
                   | st.text(max_size=12))


@settings(max_examples=300, deadline=None)
@given(HEADER_LINE, st.lists(TERM_LINE, max_size=6), st.booleans())
def test_parse_poly_text_parses_or_raises_value_error(header, lines, duplicate):
    if duplicate and lines:
        lines.append(lines[0])
    try:
        f = parse_poly_text("\n".join([header, *lines]))
    except ValueError:
        return
    assert isinstance(f, BiPoly)


@settings(max_examples=100, deadline=None)
@given(polys_with_zeros)
def test_poly_text_roundtrip_keeps_coefficients_and_bidegree(f):
    g = parse_poly_text(format_poly_text(f))
    assert g.bidegree == f.bidegree and g.coeffs == f.coeffs
