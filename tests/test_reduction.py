"""Structure of the scaled third-Hankel majorant H(p, x, y)."""
import random
from fractions import Fraction

from starcert.bernstein import UNIT_BOX, enclosure, to_bernstein
from starcert.gft import h3_schwarz_poly, schwarz_parametrize
from starcert.reduction import HANKEL3_SCALE, MAJORANT_TARGET

F = Fraction


def test_bidegrees(reduction):
    assert reduction.gap.bidegree == (6, 4)
    assert reduction.endpoint_y1.bidegree == (6, 4)
    assert reduction.endpoint_y0.bidegree == (6, 4)
    assert MAJORANT_TARGET == 1024 and HANKEL3_SCALE == 9216


def test_scale_normalization():
    # the bound 1024 on the majorant means 1024/9216 = 1/9 for H3 itself
    assert F(MAJORANT_TARGET, HANKEL3_SCALE) == F(1, 9)


def test_endpoints_consistent_with_groups(reduction):
    r = reduction
    assert r.endpoint_y1 == r.base + r.ycoef + r.y2coef
    assert r.endpoint_y0 == r.base + r.ycoef + r.comp
    assert r.gap == MAJORANT_TARGET - r.endpoint_y1
    rng = random.Random(19)
    for _ in range(40):
        p = F(rng.randint(0, 16), 16)
        x = F(rng.randint(0, 16), 16)
        assert r.majorant(p, x, 1) == r.endpoint_y1.evaluate(p, x)


def capped(r, p, x, y):
    """H1 = y^2 endpoint_y1 + (1 - y^2) endpoint_y0, by the identities."""
    return y * y * r.endpoint_y1.evaluate(p, x) + (1 - y * y) * r.endpoint_y0.evaluate(p, x)


def test_capped_majorant_freezes_linear_term(reduction):
    """The capped form H1 replaces y by 1 in the linear group only, so
    H1 - H = ycoef (1 - y), and ycoef >= 0 on [0,1]^2 by its Bernstein
    coefficients: H1 dominates H on the whole cube."""
    assert enclosure(to_bernstein(reduction.ycoef, UNIT_BOX))[0] == 0
    rng = random.Random(21)
    for _ in range(60):
        p, x, y = (F(rng.randint(0, 12), 12) for _ in range(3))
        assert capped(reduction, p, x, y) - reduction.majorant(p, x, y) == \
            reduction.ycoef.evaluate(p, x) * (1 - y)


def test_capped_is_bounded_by_its_endpoints(reduction):
    """Affine in y^2: H1 is a convex combination of its values at y = 1
    and y = 0, so below the larger one."""
    rng = random.Random(27)
    for _ in range(60):
        p = F(rng.randint(0, 10), 10)
        x = F(rng.randint(0, 10), 10)
        hi = max(reduction.endpoint_y1.evaluate(p, x),
                 reduction.endpoint_y0.evaluate(p, x))
        for num in range(0, 11, 2):
            assert capped(reduction, p, x, F(num, 10)) <= hi


def test_ycoef_group_nonnegative(reduction):
    for i in range(13):
        for j in range(13):
            assert reduction.ycoef.evaluate(F(i, 12), F(j, 12)) >= 0


def test_majorant_dominates_parametrized_polynomial(reduction):
    """|9216 H3| <= H(c1, |gamma|, |eta|) on random disk samples - the
    inequality the whole certification rests on."""
    import cmath
    rng = random.Random(33)
    for _ in range(200):
        c1 = rng.uniform(0, 1)
        g = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 6.283185))
        e = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 6.283185))
        r = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 6.283185))
        val = abs(h3_schwarz_poly(schwarz_parametrize(c1, (g, e, r))))
        assert val <= reduction.majorant(c1, abs(g), abs(e)) + 1e-9


def test_gap_vanishes_only_at_origin_corner(reduction):
    assert reduction.gap.evaluate(0, 0) == 0
    # interior positivity spot checks
    for p, x in [(F(1, 16), F(1, 16)), (F(1, 2), F(1, 2)), (1, 1), (1, 0), (0, 1)]:
        assert reduction.gap.evaluate(p, x) > 0
