"""Bernstein enclosure machinery: conversion, subdivision, certificates."""
import copy
import dataclasses
import json
import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from starcert.bernstein import (UNIT_BOX, BiPoly, Box, CertificateError,
                                CornerRule, PositivityCertificate,
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


def test_poly_text_roundtrip():
    f = BiPoly.from_terms([(2, 0, 3), (1, 1, -2), (0, 2, 3), (0, 0, F(1, 50))])
    text = format_poly_text(f, comment="positive definite + 1/50")
    assert parse_poly_text(text) == f


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


def test_degree_raise():
    # converting with an elevated degree keeps the enclosure sound and
    # can only tighten or preserve corner interpolation
    f = BiPoly.from_terms([(1, 0, 1), (0, 1, 1)])
    patch = to_bernstein(f, UNIT_BOX, degree=(3, 2))
    assert patch.degree == (3, 2)
    lo, hi = enclosure(patch)
    assert lo == 0 and hi == 2


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


def ref_bernstein(poly, box, degree=None):
    """Fraction reference for to_bernstein: _ref_axis along x, then p."""
    m, n = degree or poly.bidegree
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


@settings(max_examples=60, deadline=None)
@given(polys, boxes, st.integers(0, 2), st.integers(0, 2))
def test_integer_conversion_matches_fraction_reference(f, box, dm, dn):
    m, n = f.bidegree
    assert to_bernstein(f, box).bcoeffs == ref_bernstein(f, box)
    raised = to_bernstein(f, box, degree=(m + dm, n + dn))
    assert raised.bcoeffs == ref_bernstein(f, box, (m + dm, n + dn))
    assert enclosure(raised) == (min(map(min, raised.bcoeffs)),
                                 max(map(max, raised.bcoeffs)))


@settings(max_examples=25, deadline=None)
@given(polys, boxes)
def test_subdivision_matches_direct_conversion_to_depth_3(f, box):
    patches = [to_bernstein(f, box)]
    for _ in range(3):
        patches = [child for patch in patches for child in subdivide(patch)]
        for child in patches:
            assert child.bcoeffs == to_bernstein(f, child.box).bcoeffs


@settings(max_examples=20, deadline=None)
@given(polys, boxes)
def test_bound_above_matches_reference(f, box):
    for depth in range(4):
        assert bound_above(f, box, depth) == ref_bound_above(f, box, depth)


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
    assert check_certificate(POSITIVE_POLY, cert) is False


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
        check_certificate(POSITIVE_POLY, bad)


def test_corner_certificate_checks_margin(reduction):
    corner = CornerRule(0, 0)
    cert = certify_positive(reduction.gap, UNIT_BOX, 3, corner)
    assert cert.succeeded
    doc = cert.to_json_doc()

    def find_corner(node):
        if node["status"] == STATUS_CORNER:
            return node
        for child in node["children"]:
            got = find_corner(child)
            if got:
                return got
        return None

    leaf = find_corner(doc)
    assert leaf is not None
    leaf["margin"] = "1/2"
    bad = PositivityCertificate.from_json_doc(doc, corner)
    with pytest.raises(CertificateError, match="margin mismatch"):
        check_certificate(reduction.gap, bad)


def test_corner_certificate_requires_rule(reduction):
    cert = certify_positive(reduction.gap, UNIT_BOX, 3, CornerRule(0, 0))
    stripped = PositivityCertificate(cert.root, corner_rule=None)
    with pytest.raises(CertificateError, match="corner rule"):
        check_certificate(reduction.gap, stripped)


def test_check_rejects_wrong_root_box():
    cert = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=3)
    with pytest.raises(CertificateError, match="root box"):
        check_certificate(POSITIVE_POLY, cert, Box(0, F(1, 2), 0, 1))


@pytest.mark.parametrize("size", [2, 4])
def test_check_rejects_wrong_length_witness(size):
    root = certify_positive(POSITIVE_POLY, UNIT_BOX, max_depth=0).root
    assert root.status == STATUS_FAILED
    bad = dataclasses.replace(root, witness=(root.witness * 2)[:size])
    with pytest.raises(CertificateError, match="witness"):
        check_certificate(POSITIVE_POLY, PositivityCertificate(bad))


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
