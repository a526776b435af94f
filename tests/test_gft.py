"""Coefficient maps, parametrizations, Y-function, Janowski and target scans."""
import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from starcert import gft, oracles
from starcert.gft import (JanowskiParams, h2_envelope, h2_terms,
                          h3_schwarz_poly, hankel2, hankel3, janowski_check,
                          lz_parametrize, ma_minda_scan, schwarz_parametrize,
                          schwarz_to_coeffs, y_max, y_max_detail)
from starcert.poly import BiPoly
from test_acceptance import _y_oracle_refined

F = Fraction


def rand_frac(rng, lo=-1, hi=1, den=60):
    d = rng.randint(2, den)
    return F(rng.randint(int(lo * d), int(hi * d)), d)


# ---------------------------------------------------------------------------
# coefficient maps
# ---------------------------------------------------------------------------

def test_known_coefficients():
    a = schwarz_to_coeffs((1, 0, 0, 0))
    assert tuple(a) == (1, F(5, 8), F(7, 24), F(43, 384))
    assert tuple(schwarz_to_coeffs((0, 1, 0, 0))) == (0, F(1, 2), 0, F(3, 16))
    assert tuple(schwarz_to_coeffs((0, 0, 1, 0))) == (0, 0, F(1, 3), 0)


def _caratheodory_from_schwarz(w):
    """p1..p4 of p = (1 + w)/(1 - w), by series division of the Schwarz
    coefficients w1..w4."""
    p = _series_quotient([F(1)] + list(w), [1] + [-t for t in w])
    return tuple(p[1:])


def test_caratheodory_route_agrees():
    """a2..a4 reached through p = (1 + w)/(1 - w) and the printed p-forms
    a2 = p1/2, a3 = (p1^2 + 8 p2)/32, a4 = (32 p3 - p1^3)/192 equal those
    of schwarz_to_coeffs, exactly."""
    rng = random.Random(3)
    for _ in range(40):
        c = tuple(rand_frac(rng) for _ in range(4))
        a = schwarz_to_coeffs(c)
        p1, p2, p3, _p4 = _caratheodory_from_schwarz(c)
        assert (p1 / 2, (p1 * p1 + 8 * p2) / 32,
                (32 * p3 - p1 ** 3) / 192) == tuple(a[:3])


def test_hankel_values():
    assert hankel2(schwarz_to_coeffs((0, 1, 0, 0))) == F(-1, 4)
    assert hankel3(schwarz_to_coeffs((0, 0, 1, 0))) == F(-1, 9)


def test_h3_poly_is_scaled_hankel3():
    rng = random.Random(17)
    for _ in range(60):
        c = tuple(rand_frac(rng, den=9) for _ in range(4))
        assert h3_schwarz_poly(c) == 9216 * hankel3(schwarz_to_coeffs(c))


def test_h3_poly_identity_is_proven_on_a_product_grid():
    # Give c_k weight k.  Then a_k has weight k - 1 in the Schwarz map, and
    # every term of H3(1) and of h3_schwarz_poly has weight 6, so each side
    # has degree at most 6, 3, 2 and 1 in c1, c2, c3 and c4.  A polynomial
    # with those degree bounds that vanishes on a product of 7, 4, 3 and 2
    # points is zero (vanish in c4 for fixed c1..c3, then in c3, ...), so
    # agreement on this 168-point grid proves the identity.
    for c in itertools.product(range(7), range(4), range(3), range(2)):
        assert h3_schwarz_poly(c) == 9216 * hankel3(schwarz_to_coeffs(c))


def test_rotation_leaves_hankel_moduli_fixed():
    rng = random.Random(29)
    for _ in range(50):
        a = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(4))
        th = rng.uniform(0, 2 * math.pi)
        rot = tuple(ak * cmath.exp(1j * (k + 1) * th)
                    for k, ak in enumerate(a))  # a_{k+2} -> e^{i(k+1)t} a_{k+2}
        assert abs(hankel2(rot)) == pytest.approx(abs(hankel2(a)), abs=1e-12)
        assert abs(hankel3(rot)) == pytest.approx(abs(hankel3(a)), abs=1e-12)


# ---------------------------------------------------------------------------
# parametrizations
# ---------------------------------------------------------------------------

def test_lz_domain_checks():
    with pytest.raises(ValueError):
        lz_parametrize(F(5, 2), (0, 0, 0))
    with pytest.raises(ValueError):
        lz_parametrize(1, (2, 0, 0))
    with pytest.raises(ValueError):
        schwarz_parametrize(F(3, 2), (0, 0, 0))


def test_lz_extremal_point():
    # gamma = 1 with p1 = 2 pins the constant function data p_n = 2
    p = lz_parametrize(2, (1, 0, 0))
    assert tuple(p) == (2, 2, 2, 2)


class GaussQ:
    """a + b i with rational a and b: the arithmetic the parametrizations
    and the Schur recursion below use, kept exact."""

    def __init__(self, real, imag=0):
        self.real, self.imag = F(real), F(imag)

    @staticmethod
    def of(v):
        return v if isinstance(v, GaussQ) else GaussQ(v)

    def conjugate(self):
        return GaussQ(self.real, -self.imag)

    def __add__(self, other):
        other = GaussQ.of(other)
        return GaussQ(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self):
        return GaussQ(-self.real, -self.imag)

    def __sub__(self, other):
        return self + -GaussQ.of(other)

    def __rsub__(self, other):
        return GaussQ.of(other) - self

    def __mul__(self, other):
        other = GaussQ.of(other)
        return GaussQ(self.real * other.real - self.imag * other.imag,
                      self.real * other.imag + self.imag * other.real)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = GaussQ(1)
        for _ in range(k):
            out = out * self
        return out

    def __truediv__(self, n: int):
        return GaussQ(self.real / n, self.imag / n)

    def __eq__(self, other):
        other = GaussQ.of(other)
        return (self.real, self.imag) == (other.real, other.imag)

    def __repr__(self):
        return f"({self.real} + {self.imag}i)"


def _series_quotient(num, den):
    """num/den as power series, both of one length and den[0] == 1."""
    out = []
    for n, a in enumerate(num):
        out.append(a - sum(den[j] * out[n - j] for j in range(1, n + 1)))
    return out


def _schur_to_series(params):
    """Coefficients 1..4 of w = z omega_0, and 1..4 of p = (1 + w)/(1 - w),
    for the Schur parameters (gamma_0, ..., gamma_3) of w.

    omega_k = (gamma_k + z omega_(k+1)) / (1 + conj(gamma_k) z omega_(k+1)),
    so omega_k to z^(3-k) needs omega_(k+1) to z^(2-k) only: omega_3 is the
    constant gamma_3."""
    omega = [params[3]]
    for g in reversed(params[:3]):
        omega = _series_quotient([g] + omega,
                                 [1] + [g.conjugate() * t for t in omega])
    # w = z omega_0: coefficient k of w is coefficient k - 1 of omega_0
    p = _series_quotient([GaussQ(1)] + omega, [1] + [-t for t in omega])
    return tuple(omega), tuple(p[1:])


UNIMODULAR = [GaussQ(a, b) for a, b in (
    (1, 0), (0, 1), (-1, 0), (0, -1), (F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13)),
    (F(8, 17), F(-15, 17)), (F(-7, 25), F(-24, 25)))]


def _disk_point(rng):
    """A Gaussian rational of the closed unit disk, unimodular one time in four."""
    if rng.random() < 0.25:
        return rng.choice(UNIMODULAR)
    while True:
        d = rng.randint(1, 12)
        a, b = F(rng.randint(-d, d), d), F(rng.randint(-d, d), d)
        if a * a + b * b <= 1:
            return GaussQ(a, b)


def test_parametrizations_match_the_schur_recursion():
    """Both parametrizations are the Schur parameters of a Schwarz function:
    (c1, gamma, eta, rho) fed to the Schur recursion give w's coefficients
    c1..c4 and p's p1..p4 exactly, on complex data (the conj(gamma) eta^2
    terms of c4 and p4 included), c1 = 0 and 1 and unimodular parameters
    included.  A sample, not a proof: the degrees in the seven real
    variables are up to 4, 3, 3, 2, 2, 1 and 1."""
    rng = random.Random(5)
    c1s = [F(0), F(1)] + [F(rng.randint(0, 60), 60) for _ in range(118)]
    for c1 in c1s:
        t = tuple(_disk_point(rng) for _ in range(3))
        c, p = _schur_to_series((GaussQ(c1),) + t)
        assert schwarz_parametrize(c1, t) == c
        assert lz_parametrize(2 * c1, t) == p


def test_parametrizations_correspond():
    """Same disk parameters through either route give the same
    Caratheodory data: p(from w(c1, t)) == lz(2 c1, t), exactly."""
    rng = random.Random(5)
    for _ in range(40):
        c1 = F(rng.randint(0, 50), 100)
        t = tuple(rand_frac(rng, den=40) for _ in range(3))
        w = schwarz_parametrize(c1, t)
        assert _caratheodory_from_schwarz(w) == tuple(lz_parametrize(2 * c1, t))


def test_lz_outputs_are_caratheodory_like():
    rng = random.Random(13)
    for _ in range(200):
        p1 = rng.uniform(0, 2)
        t = tuple(rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                  for _ in range(3))
        p = lz_parametrize(p1, t)
        assert all(abs(v) <= 2 + 1e-12 for v in p)


# ---------------------------------------------------------------------------
# Y(A, B, C) = max |A + Bz + Cz^2| + 1 - |z|^2
# ---------------------------------------------------------------------------

def _y_oracle(A, B, C, n_r=241, n_t=720):
    r = np.linspace(0.0, 1.0, n_r)[:, None]
    t = np.linspace(0.0, 2 * math.pi, n_t, endpoint=False)[None, :]
    z = r * np.exp(1j * t)
    return float((np.abs(A + B * z + C * z * z) + 1 - r * r).max())


def test_y_max_dominates_oracle():
    rng = random.Random(101)
    for _ in range(120):
        A, B, C = (rng.uniform(-2, 2) for _ in range(3))
        if abs(C) < 1e-9:
            continue
        assert y_max(A, B, C) >= _y_oracle(A, B, C) - 1e-9


# one fixed (A, B, C) per branch of y_max_detail
Y_BRANCHES = {
    "i.edge": (F(7, 8), F(-9, 8), F(7, 4)),
    "i.parabola": (-1, 0, F(-1, 4)),
    "ii.inner": (F(-1, 8), F(9, 8), F(3, 8)),
    "ii.outer": (1, -2, F(-1, 4)),
    "R.edge": (1, -3, F(-1, 25)),
    "R.opposite": (F(1, 8), F(7, 4), F(-1, 2)),
    "R.curve": (F(-3, 2), F(11, 8), 1),
}


def test_y_max_branches_all_reachable():
    for branch, abc in Y_BRANCHES.items():
        d = y_max_detail(*abc)
        assert d.branch == branch
        assert d.value == pytest.approx(_y_oracle_refined(*map(float, abc)),
                                        abs=1e-6), branch


def test_y_max_known_case():
    # A=B=0: max |C| r^2 + 1 - r^2 -> 1 for |C| <= 1, |C| for |C| >= 1
    assert y_max(0.0, 0.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert y_max(0.0, 0.0, 2.0) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Janowski
# ---------------------------------------------------------------------------

def test_janowski_validation():
    with pytest.raises(ValueError):
        JanowskiParams(F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        JanowskiParams(2, 0)


def test_janowski_known_verdicts():
    ok, rep = janowski_check(JanowskiParams(F(1, 2), F(-1, 4)))
    assert ok and rep.interval_test and rep.disk_test
    assert rep.center == F(6, 5) and rep.radius == F(4, 5)
    ok, rep = janowski_check(JanowskiParams(1, F(1, 3)))
    assert not ok and not rep.interval_test and not rep.disk_test


def test_janowski_tests_always_agree():
    rng = random.Random(23)
    for _ in range(300):
        b = F(rng.randint(-80, 80), 100)
        a = b + F(rng.randint(1, 100), 100)
        if a > 1:
            a = F(1)
        if not (-1 < b < a <= 1):
            continue
        _, rep = janowski_check(JanowskiParams(a, b))
        assert rep.agree


def test_scan_and_disk_reports_derive_their_verdicts():
    # the scan stores what it measured; the disk is read from A and B
    assert not {"checks", "radius_cap", "passed"} & set(gft.PhiScanReport._fields)
    assert not hasattr(gft, "DiskReport") and "DiskReport" not in gft.__all__
    j = JanowskiParams(F(1, 2), F(-1, 4))
    ok, rep = janowski_check(j)
    assert ok is True and rep is j
    assert (rep.inner_value, rep.outer_value) == (F(2, 5), F(2))
    for name in ("A", "B", "center", "interval_test", "disk_test"):
        with pytest.raises(AttributeError):
            setattr(j, name, 0)
    assert (j.A, j.B) == (F(1, 2), F(-1, 4))


def test_janowski_accepts_floats_consistently():
    ok_f, rep_f = janowski_check(JanowskiParams(0.5, -0.25))
    ok_q, rep_q = janowski_check(JanowskiParams(F(1, 2), F(-1, 4)))
    assert ok_f == ok_q and rep_f.interval_test == rep_f.disk_test


# ---------------------------------------------------------------------------
# target function scan
# ---------------------------------------------------------------------------

def test_ma_minda_scan_passes():
    rep = ma_minda_scan(grid_density=48)
    assert rep.passed, rep.checks
    assert rep.min_modulus > 0.25 and rep.max_modulus < 2.25
    assert rep.max_starlike_ratio < 0.2
    assert rep.boundary_min == pytest.approx(1.0, abs=1e-10)
    assert rep.boundary_at_0 == pytest.approx(1.0, abs=1e-12)
    assert rep.boundary_at_pi == pytest.approx(1.0, abs=1e-12)
    # the minimum is attained at t = 0 or t = pi
    assert min(rep.boundary_argmin,
               abs(rep.boundary_argmin - math.pi)) < 1e-6


def ref_phi_scan(grid, npts, radius_cap=1 - 1e-6):
    """The ma_minda_scan statistics evaluated over whole arrays at once."""
    radii = np.linspace(0.0, radius_cap, grid)
    angles = np.linspace(0.0, 2 * math.pi, 4 * grid, endpoint=False)
    z = radii[:, None] * np.exp(1j * angles)[None, :]
    phi = (1 + z / 2) ** 2
    mod = np.abs(phi)
    t = np.linspace(0.0, 2 * math.pi, npts, endpoint=False)
    bnd = np.abs((1 + np.exp(1j * t) / 2) ** 2 - 1.25) ** 2
    k = int(np.argmin(bnd))
    return (float(mod.min()), float(mod.max()), float(phi.real.min()),
            float(np.abs(z / (8 + 3 * z)).max()), float(bnd.min()), float(t[k]))


@pytest.mark.parametrize("grid", [8, 64, 130, 131])
def test_blocked_scan_matches_whole_array_reference(grid):
    # 130 and 131 span several blocks of the disk grid and two of the
    # circle; 131^2 = 17161 points is odd, so the circle gets one more
    rep = ma_minda_scan(grid)
    npts = grid * grid + grid % 2
    assert (rep.min_modulus, rep.max_modulus, rep.min_real, rep.max_starlike_ratio,
            rep.boundary_min, rep.boundary_argmin) == ref_phi_scan(grid, npts)


def test_blocked_scan_splits_rows_longer_than_a_block(monkeypatch):
    # in blocks of 2^8 samples each row of 360 points runs in two pieces
    # (256 and 104), and the circle's 8100 points end in a partial block;
    # at the real block size rows are this long from grid 1025 on
    monkeypatch.setattr(oracles, "_BLOCK_SAMPLES", 1 << 8)
    rep = ma_minda_scan(90)
    assert (rep.min_modulus, rep.max_modulus, rep.min_real, rep.max_starlike_ratio,
            rep.boundary_min, rep.boundary_argmin) == ref_phi_scan(90, 8100)


@pytest.fixture(scope="module")
def passing_scan():
    rep = ma_minda_scan(grid_density=16)
    assert rep.passed and rep.radius_cap == 1 - 1e-6
    return rep


@pytest.mark.parametrize("field, bound, check", [
    ("min_modulus", 0.25, "modulus_above_quarter"),
    ("max_modulus", 2.25, "modulus_below_nine_quarters"),
    ("min_real", 0.0, "real_part_positive"),
    ("max_starlike_ratio", 0.2, "starlike_ratio_below_fifth"),
    ("boundary_min", 1 - 2e-10, "boundary_distance_at_least_one"),
    ("boundary_at_pi", 1 + 2e-10, "tangency_at_0_and_pi"),
])
def test_each_scan_check_fails_at_its_bound(passing_scan, field, bound, check):
    rep = passing_scan._replace(**{field: bound})
    assert [name for name, ok in rep.checks.items() if not ok] == [check]
    assert rep.passed is False


@pytest.mark.parametrize("angle", [0.0, math.pi])
def test_tangency_is_read_from_the_scan(monkeypatch, angle):
    # raise the boundary samples near one tangency point: the minimum
    # (at the other point) still passes, the tangency check must not
    real = oracles._boundary_distance
    monkeypatch.setattr(oracles, "_boundary_distance",
                        lambda t: real(t) + (np.abs(t - angle) < 1e-9))
    rep = ma_minda_scan(grid_density=16)
    assert rep.checks["boundary_distance_at_least_one"]
    assert rep.checks["tangency_at_0_and_pi"] is False and not rep.passed
    assert (rep.boundary_at_0, rep.boundary_at_pi) == pytest.approx(
        (2, 1) if angle == 0 else (1, 2), abs=1e-12)


def test_scan_rejects_tiny_grid():
    with pytest.raises(ValueError):
        ma_minda_scan(grid_density=4)


# ---------------------------------------------------------------------------
# H2 slice coefficients
# ---------------------------------------------------------------------------

def test_h2_slice_identity_exact():
    """H2 computed through the parametrized coefficients equals
    A + B g + C g^2 + |D| e (1 - g^2) for real rational g, e."""
    rng = random.Random(37)
    for _ in range(40):
        p1 = F(rng.randint(1, 199), 100)
        g = rand_frac(rng, den=50)
        e = rand_frac(rng, den=50)
        a2, a3, a4, _ = schwarz_to_coeffs(schwarz_parametrize(p1 / 2, (g, e, 0)))
        A, B, C, D = h2_terms(p1)
        assert a2 * a4 - a3 * a3 == A + B * g + C * g * g + D * e * (1 - g * g)


def test_h2_envelope_matches_terms():
    rng = random.Random(41)
    for _ in range(30):
        p1 = F(rng.randint(1, 199), 100)
        A, B, C, D = h2_terms(p1)
        assert abs(A) + abs(B) + abs(C) == h2_envelope(p1)


def test_h2_capped_slice_dominates_the_grouped_bound():
    """With x for y = |gamma| and M = -A + B x - C x^2 + |D| (1 - x^2),
    x^2 g1 + (1 - x^2) g0 - M = B (1 - x) as polynomials in (p1, x): the
    capped slice bound is at least M wherever B >= 0 and x <= 1."""
    A, B, C, D, g1, g0 = gft._h2_slice(BiPoly.var_p())
    x = BiPoly.var_x()
    M = -A + B * x - C * x * x + D * (1 - x * x)
    assert x * x * g1 + (1 - x * x) * g0 - M == B * (1 - x)


@pytest.mark.parametrize("p1", [3, F(-1, 2)])
def test_h2_terms_refuses_p1_outside_its_range(p1):
    with pytest.raises(ValueError, match=r"p1 must lie in \[0, 2\]"):
        h2_terms(p1)


def test_h2_envelope_boundaries_and_slope():
    assert h2_envelope(0) == F(1, 4)
    assert h2_envelope(2) == F(19, 192)
    assert h2_envelope(F(1, 2)) > h2_envelope(1) > h2_envelope(F(3, 2))
    with pytest.raises(ValueError):
        h2_envelope(F(5, 2))
