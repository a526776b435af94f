"""Bernstein enclosure machinery: conversion, subdivision, certificates."""
import copy
import gc
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from starcert import bernstein
from starcert.bernstein import (MAX_BOUND_DEPTH, MAX_DEGREE, MAX_DEPTH,
                                UNIT_BOX, BiPoly, Box, CertificateError, CornerRule,
                                CornerSplit, PositivityCertificate,
                                STATUS_CORNER, STATUS_FAILED, STATUS_POSITIVE,
                                bound_above, certify_positive,
                                check_certificate, corner_estimate,
                                corner_split, enclosure, format_poly_text,
                                parse_poly_text, subdivide, to_bernstein)

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
    box = Box(0, F(1, 8), 0, F(1, 8))
    split = corner_split(CORNER_DEMO, box, (F(0), F(0)))
    assert split is not None
    assert (split.quad_pp, split.quad_px, split.quad_xx) == (5, -2, 4)
    assert split.half_width == F(1, 8)
    assert all(i + j >= 3 for i, j, _ in split.tail)


def test_corner_split_at_every_corner_of_a_non_unit_box():
    # u = p - a and v = x - b recentre to u = +-s, v = +-t with s, t >= 0
    # (+ at a low end, - at a high one), so the cross term and the cubes
    # pick up the signs of their corner
    box = Box(F(1, 3), F(1, 2), F(-1, 4), F(1, 5))
    p, x = BiPoly.var_p(), BiPoly.var_x()
    for a, sp in ((box.p_lo, 1), (box.p_hi, -1)):
        for b, sx in ((box.x_lo, 1), (box.x_hi, -1)):
            u, v = p - a, x - b
            f = 5 * u ** 2 + 2 * u * v + 4 * v ** 2 + 40 * u ** 3 - 40 * v ** 3
            split = corner_split(f, box, (a, b))
            assert (split.quad_pp, split.quad_px, split.quad_xx) == (5, 2 * sp * sx, 4)
            assert sorted(split.tail) == [(0, 3, -40 * sx), (3, 0, 40 * sp)]
            assert split.half_width == F(9, 20)
    # an end of one axis only is no corner, though f vanishes to second
    # order there
    for a, b in ((box.p_lo, F(0)), (F(2, 5), box.x_hi)):
        f = 5 * (p - a) ** 2 + 4 * (x - b) ** 2
        assert corner_split(f, box, (a, b)) is None


def test_corner_split_requires_corner_of_box():
    box = Box(0, F(1, 8), 0, F(1, 8))
    assert corner_split(CORNER_DEMO, box, (F(1, 2), F(0))) is None


def test_corner_split_requires_vanishing_linear_part():
    f = CORNER_DEMO + BiPoly.from_terms([(1, 0, 1)])
    assert corner_split(f, Box(0, 1, 0, 1), (F(0), F(0))) is None


def test_corner_estimate_margin():
    # lambda = min(5 - 1, 4 - 1) = 3; tail = 80 * (1/8) = 10 on [0,1/8]^2
    split = corner_split(CORNER_DEMO, Box(0, F(1, 8), 0, F(1, 8)), (0, 0))
    ok, margin = corner_estimate(split)
    assert not ok and margin == 3 - 10
    # on a smaller box the tail shrinks: 80 * 1/64
    split = corner_split(CORNER_DEMO, Box(0, F(1, 64), 0, F(1, 64)), (0, 0))
    ok, margin = corner_estimate(split)
    assert ok and margin == 3 - F(80, 64)


def test_corner_estimate_certifies_at_reflected_corner():
    # the zero may sit at any corner; reflection must handle (hi, hi)
    g = BiPoly.from_terms([(2, 0, 5), (1, 1, 2), (0, 2, 4), (3, 0, 40)])
    # g(1 - p', 1 - x') style corner at (1, 1) needs the full affine remap,
    # so build a polynomial vanishing quadratically at (1, 1):
    p, x = BiPoly.var_p(), BiPoly.var_x()
    one = BiPoly.constant(1)
    f = 5 * (one - p) ** 2 + 2 * (one - p) * (one - x) + 4 * (one - x) ** 2 \
        + 40 * (one - p) ** 3
    box = Box(F(63, 64), 1, F(63, 64), 1)
    split = corner_split(f, box, (F(1), F(1)))
    assert split is not None
    ok, margin = corner_estimate(split)
    assert ok and margin == 4 - abs(F(2)) / 2 - F(40, 64)


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
    real = bernstein._p_stage
    monkeypatch.setattr(bernstein, "_p_stage",
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


def _witness_from_another_box(gap):
    # (1, 1) with its true value, outside the failed leaf [0,1/2]^2
    doc = certify_positive(POSITIVE_POLY, UNIT_BOX, 1).to_json_doc()
    doc["children"][0]["witness"] = ["1", "1", str(POSITIVE_POLY.evaluate(1, 1))]
    return _read(POSITIVE_POLY, doc)


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
    (_witness_from_another_box, "failure witness outside its box"),
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


def test_corner_estimate_refuses_margin_zero():
    # lambda = 1 and the tail 1 * 1^(3-2) = 1 leave margin 0: no proof of > 0
    assert corner_estimate(CornerSplit(1, 0, 1, [(3, 0, 1)], 1)) == (False, 0)


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
