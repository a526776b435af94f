"""The integer ring of BiPoly against a dict-of-Fraction reference.

The reference below knows nothing of the integer storage: a polynomial is
a bidegree and a dict {(i, j): Fraction} of its nonzero coefficients, and
every operation is the schoolbook one on Fractions.
"""
import math
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from starcert.poly import BiPoly, parse_poly_text

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# the reference
# ---------------------------------------------------------------------------

def ref_of(rows) -> tuple:
    """(bidegree, {(i, j): nonzero Fraction}) of a coefficient matrix."""
    return ((len(rows) - 1, len(rows[0]) - 1),
            {(i, j): F(c) for i, row in enumerate(rows) for j, c in enumerate(row) if c})


def ref_add(f, g) -> tuple:
    (fm, fn), fc = f
    (gm, gn), gc = g
    out = dict(fc)
    for key, c in gc.items():
        out[key] = out.get(key, 0) + c
    return (max(fm, gm), max(fn, gn)), {k: c for k, c in out.items() if c}


def ref_scale(f, k) -> tuple:
    return f[0], {key: k * c for key, c in f[1].items() if k * c}


def ref_mul(f, g) -> tuple:
    (fm, fn), fc = f
    (gm, gn), gc = g
    out = {}
    for (i, j), c in fc.items():
        for (k, l), d in gc.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + c * d
    return (fm + gm, fn + gn), {k: c for k, c in out.items() if c}


def ref_trim(f) -> tuple:
    coeffs = f[1]
    return ((max((i for i, _ in coeffs), default=0),
             max((j for _, j in coeffs), default=0)), coeffs)


def ref_float(f, p, x) -> float:
    """Horner in floats, over every coefficient of the bidegree, each
    rounded once from its Fraction."""
    (m, n), coeffs = f
    acc = None
    for i in range(m, -1, -1):
        row = None
        for j in range(n, -1, -1):
            c = float(coeffs.get((i, j), 0))
            row = c if row is None else row * x + c
        acc = row if acc is None else acc * p + row
    return acc


def check(poly, ref) -> None:
    """``poly`` is the reference polynomial, stored canonically."""
    ints, den = poly._integers
    assert poly.bidegree == ref[0]
    assert den > 0 and gcd(den, *(c for row in ints for c in row)) == 1
    assert {(i, j): F(c, den) for i, row in enumerate(ints)
            for j, c in enumerate(row) if c} == ref[1]
    for i, row in enumerate(poly.coeffs):
        for j, c in enumerate(row):
            want = ref[1].get((i, j), F(0))
            assert type(c) is F and c.as_integer_ratio() == want.as_integer_ratio()
            assert ints[i][j] == want * den


# ---------------------------------------------------------------------------
# inputs: negative, zero, large-denominator and padded coefficient matrices
# ---------------------------------------------------------------------------

rationals = st.one_of(
    st.just(0),
    st.integers(-30, 30),
    st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)))


@st.composite
def matrices(draw):
    """A coefficient matrix up to 4 x 4, sometimes padded with zero rows
    and columns past its last nonzero one."""
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = [[draw(rationals) for _ in range(n + 1)] for _ in range(m + 1)]
    pad_p, pad_x = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rows = [row + [0] * pad_x for row in rows]
    return rows + [[0] * (n + 1 + pad_x) for _ in range(pad_p)]


scalars = st.one_of(rationals, rationals.map(str))
rational_points = st.one_of(st.integers(-9, 9),
                            st.builds(F, st.integers(-90, 90), st.integers(1, 35)))
float_points = st.floats(-8, 8, allow_nan=False)


# ---------------------------------------------------------------------------
# the ring
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(matrices(), matrices())
def test_ring_operations_match_the_reference(a, b):
    f, g = BiPoly(a), BiPoly(b)
    rf, rg = ref_of(a), ref_of(b)
    check(f, rf)
    check(f + g, ref_add(rf, rg))
    check(f - g, ref_add(rf, ref_scale(rg, -1)))
    check(-f, ref_scale(rf, -1))
    check(f * g, ref_mul(rf, rg))
    check(f.trim(), ref_trim(rf))
    assert (f == g) == (ref_trim(rf) == ref_trim(rg))
    assert f == BiPoly(a) and hash(f) == hash(BiPoly(a))
    padded = BiPoly([row + [0] for row in a] + [[0] * (len(a[0]) + 1)])
    assert padded == f and hash(padded) == hash(f)


@settings(max_examples=100, deadline=None)
@given(matrices(), scalars, st.integers(0, 3))
def test_scalars_constants_and_powers_match_the_reference(a, k, e):
    f, rf, q = BiPoly(a), ref_of(a), F(k)
    check(f * k, ref_scale(rf, q))
    check(k * f, ref_scale(rf, q))
    constant = ref_of([[q]])
    check(f + k, ref_add(rf, constant))
    check(k + f, ref_add(rf, constant))
    check(f - k, ref_add(rf, ref_scale(constant, -1)))
    check(k - f, ref_add(constant, ref_scale(rf, -1)))
    power = ref_of([[1]])
    for _ in range(e):
        power = ref_mul(power, rf)
    check(f ** e, power)


@settings(max_examples=100, deadline=None)
@given(matrices(), rational_points, rational_points, float_points, float_points)
def test_evaluate_matches_the_reference(a, p, x, fp, fx):
    f, (_, coeffs) = BiPoly(a), ref_of(a)
    exact = f.evaluate(p, x)
    assert type(exact) is F
    assert exact == sum((c * F(p) ** i * F(x) ** j for (i, j), c in coeffs.items()), F(0))
    got, want = f.evaluate(fp, fx), ref_float(ref_of(a), fp, fx)
    assert type(got) is float
    assert got == want and math.copysign(1, got) == math.copysign(1, want)


def test_constructors_keep_their_input_rules():
    f = BiPoly([["1/2", 3], [F(-4, 6), 0]])
    check(f, ref_of([[F(1, 2), 3], [F(-2, 3), 0]]))
    assert f._integers == (((3, 18), (-4, 0)), 6)
    assert BiPoly.from_terms({(1, 0): "-2/3", (0, 0): "1/2", (0, 1): 3}) == f
    assert f.coeff(1, 0) == F(-2, 3) and f.coeff(2, 0) == f.coeff(0, 2) == F(0)
    for bad in (lambda: BiPoly([[0.5]]), lambda: BiPoly.from_terms([(0, 0, 0.5)]),
                lambda: f * 0.5, lambda: f + 0.5, lambda: 0.5 - f):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ValueError, match="duplicate term"):
        BiPoly.from_terms([(0, 0, 1), (0, 0, 1)])
    with pytest.raises(ValueError, match="exceeds the cap"):
        BiPoly.from_terms([(257, 0, 1)])
    with pytest.raises(ValueError, match="negative power"):
        f ** -1


@pytest.mark.parametrize("build, message", [
    (lambda: BiPoly([]), "at least 1x1"),
    (lambda: BiPoly([[]]), "at least 1x1"),
    (lambda: BiPoly([[1, 2], [3]]), "equal length"),
    (lambda: BiPoly.from_terms([(2, 0, 1)], bidegree=(1, 1)), "exceed declared bidegree"),
    (lambda: BiPoly.from_terms([(0, 2, 1)], bidegree=(2, 1)), "exceed declared bidegree"),
    (lambda: BiPoly.from_terms([(0, 0, 1), (-1, 1, 2)]), "nonnegative"),
    (lambda: BiPoly.from_terms([(0, -1, 1)]), "nonnegative"),
    (lambda: parse_poly_text("bidegree 1 1\n1 0 1\n0 1 2\n1 0 3\n"),
     r"line 4: duplicate term for \(1, 0\)"),
], ids=["empty", "empty-row", "ragged", "beyond-p-degree", "beyond-x-degree",
        "negative-p-exponent", "negative-x-exponent", "parsed-duplicate"])
def test_malformed_input_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# ---------------------------------------------------------------------------
# the reduction against the reference polynomial files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, name", [("gap", "gap.poly"),
                                         ("endpoint_y0", "endpoint_y0.poly")])
def test_reduction_matches_the_reference_files(reduction, field, name):
    ref = parse_poly_text((ROOT / "perfbench" / "ref" / name).read_text())
    got = getattr(reduction, field)
    assert got == ref
    assert got.bidegree == ref.bidegree and got._integers == ref._integers
    assert got.coeffs == ref.coeffs
