"""Acceptance suite: thirteen end-to-end criteria, one test each.

Every test prints a single summary line so a verbose run reads as a
checklist.  Exact values are asserted with rational equality; numeric
cross-checks state their tolerances inline.
"""
import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import starcert as sc
from test_radius import h_prime_identities_hold

F = Fraction
HALF = F(1, 2)


def _ok(msg):
    print(f"ACCEPTANCE PASS: {msg}")


# ---------------------------------------------------------------------------
# 1. series expansion of the extremal members
# ---------------------------------------------------------------------------

def test_c01_series_members():
    f1 = sc.member_from_schwarz(sc.schwarz_monomial(1, 4))
    assert (f1.coeff(2), f1.coeff(3), f1.coeff(4)) == (1, F(5, 8), F(7, 24))
    f2 = sc.member_from_schwarz(sc.schwarz_monomial(2, 4))
    assert (f2.coeff(2), f2.coeff(3), f2.coeff(4)) == (0, F(1, 2), 0)
    f3 = sc.member_from_schwarz(sc.schwarz_monomial(3, 5))
    assert (f3.coeff(2), f3.coeff(3), f3.coeff(4), f3.coeff(5)) == \
        (0, 0, F(1, 3), 0)
    _ok("series: w=z -> (1, 5/8, 7/24); w=z^2 -> a3=1/2; w=z^3 -> a4=1/3, exact")


# ---------------------------------------------------------------------------
# 2-4. Bernstein matrices of the gap polynomial, three rounds
# ---------------------------------------------------------------------------

# The four printed first-round matrices, transcribed in full (7 x 5 each).
B_Q1 = [
    [0, 0, F(112, 3), 103, 196],
    [0, F(-34, 3), F(124, 9), F(415, 6), 158],
    [F(512, 15), F(29, 3), F(1141, 60), F(3551, 60), F(4123, 30)],
    [F(199, 2), F(1209, 20), F(2453, 48), F(575, 8), F(5351, 40)],
    [F(2834, 15), F(64571, 480), F(25151, 240), F(16589, 160), F(17441, 120)],
    [F(3521, 12), F(7177, 32), F(50297, 288), F(607, 4), F(8261, 48)],
    [F(25827, 64), F(41391, 128), F(16507, 64), F(27783, 128), F(13983, 64)],
]
B_Q2 = [
    [196, 289, F(1228, 3), 556, 736],
    [158, F(1481, 6), F(3322, 9), 528, 736],
    [F(4123, 30), F(12941, 60), F(19921, 60), F(4937, 10), F(10774, 15)],
    [F(5351, 40), F(7827, 40), F(71689, 240), F(3631, 8), F(3414, 5)],
    [F(17441, 120), F(89761, 480), F(4343, 16), F(198149, 480), F(38131, 60)],
    [F(8261, 48), F(4619, 24), F(73745, 288), F(12141, 32), F(2353, 4)],
    [F(13983, 64), F(28149, 128), F(16873, 64), F(47025, 128), F(35631, 64)],
]
B_Q3 = [
    [F(25827, 64), F(41391, 128), F(16507, 64), F(27783, 128), F(13983, 64)],
    [F(49313, 96), F(27037, 64), F(49133, 144), F(18071, 64), F(25427, 96)],
    [F(151069, 240), F(7963, 15), F(157649, 360), F(3649, 10), F(26469, 80)],
    [F(29659, 40), F(2569, 4), F(43627, 80), F(9313, 20), F(4209, 10)],
    [F(16799, 20), F(90179, 120), F(59713, 90), F(70729, 120), F(10877, 20)],
    [F(5497, 6), F(10285, 12), 798, F(8975, 12), F(4295, 6)],
    [963, 963, 963, 963, 963],
]
B_Q4 = [
    [F(13983, 64), F(28149, 128), F(16873, 64), F(47025, 128), F(35631, 64)],
    [F(25427, 96), F(47495, 192), F(2441, 9), F(22743, 64), F(16807, 32)],
    [F(26469, 80), F(11873, 40), F(21727, 72), F(21883, 60), F(122269, 240)],
    [F(4209, 10), F(7523, 20), F(29307, 80), F(16367, 40), F(21007, 40)],
    [F(10877, 20), F(11959, 24), F(21656, 45), F(20291, 40), F(35521, 60)],
    [F(4295, 6), F(2735, 4), F(2009, 3), F(8191, 12), F(1463, 2)],
    [963, 963, 963, 963, 963],
]

ROUND1 = [
    (sc.Box(0, HALF, 0, HALF), B_Q1, F(-34, 3)),
    (sc.Box(0, HALF, HALF, 1), B_Q2, F(5351, 40)),
    (sc.Box(HALF, 1, 0, HALF), B_Q3, F(27783, 128)),
    (sc.Box(HALF, 1, HALF, 1), B_Q4, F(13983, 64)),
]


def test_c02_bernstein_round_one(reduction):
    for box, matrix, expected_min in ROUND1:
        patch = sc.to_bernstein(reduction.gap, box)
        rows = [list(r) for r in patch.bcoeffs]
        assert rows == matrix                      # all 35 entries, exact
        assert min(min(r) for r in rows) == expected_min
    _ok("round 1 matrices reproduced entry-for-entry; minima "
        "-34/3, 5351/40, 27783/128, 13983/64")


ROUND2_MINS = {
    (0, F(1, 4), 0, F(1, 4)): F(-17, 6),
    (0, F(1, 4), F(1, 4), HALF): F(2191, 60),
    (F(1, 4), HALF, 0, F(1, 4)): F(1307517, 16384),
    (F(1, 4), HALF, F(1, 4), HALF): F(338553, 4096),
}

ROUND3_MINS = {
    (0, F(1, 8), 0, F(1, 8)): F(-17, 24),
    (0, F(1, 8), F(1, 8), F(1, 4)): F(59645, 6144),
    (F(1, 8), F(1, 4), 0, F(1, 8)): F(195731055, 8388608),
    (F(1, 8), F(1, 4), F(1, 8), F(1, 4)): F(209583495, 8388608),
}


def test_c03_bernstein_round_two(reduction):
    for box_tuple, expected in ROUND2_MINS.items():
        patch = sc.to_bernstein(reduction.gap, sc.Box(*box_tuple))
        assert sc.enclosure(patch)[0] == expected
    _ok("round 2 minima -17/6, 2191/60, 1307517/16384, 338553/4096, exact")


def test_c04_bernstein_round_three(reduction):
    for box_tuple, expected in ROUND3_MINS.items():
        patch = sc.to_bernstein(reduction.gap, sc.Box(*box_tuple))
        assert sc.enclosure(patch)[0] == expected
    _ok("round 3 minima -17/24, 59645/6144, 195731055/8388608, "
        "209583495/8388608, exact")


# ---------------------------------------------------------------------------
# 5. corner estimate at the origin
# ---------------------------------------------------------------------------

def test_c05_corner_estimate(reduction):
    # at the origin corner the recentred quadratic part is the gap's own
    gap, box = reduction.gap, sc.Box(0, F(1, 8), 0, F(1, 8))
    quad_pp, quad_px, quad_xx = gap.coeff(2, 0), gap.coeff(1, 1), gap.coeff(0, 2)
    assert (quad_pp, quad_px, quad_xx) == (2048, -1088, 896)
    lam = min(quad_pp - abs(quad_px) / 2, quad_xx - abs(quad_px) / 2)
    assert lam == 352                               # from 1504 p^2 + 352 x^2
    margin = sc.corner_margin(gap, box, (F(0), F(0)))
    assert margin == F(3959871, 131072)
    assert lam - margin == F(42177473, 131072)      # the tail sum
    _ok("corner estimate: lambda=352, tail=42177473/131072, "
        "margin=3959871/131072; certifies [0,1/8]^2")


# ---------------------------------------------------------------------------
# 6. end-to-end certification of the 1/9 bound
# ---------------------------------------------------------------------------

def test_c06_certify_h3_tree(reduction):
    report = sc.verify_h3()
    assert report.verified
    assert report.bound == F(1, 9)
    cert = report.certificate
    assert cert.succeeded
    leaves = {(leaf.box.as_tuple(), leaf.status) for leaf in cert.leaves()}
    positives = {t for t, s in leaves if s == "coeff_positive"}
    corners = {t for t, s in leaves if s == "corner_certified"}
    expected_positive = {
        sc.Box(0, HALF, HALF, 1).as_tuple(),            # Q2
        sc.Box(HALF, 1, 0, HALF).as_tuple(),            # Q3
        sc.Box(HALF, 1, HALF, 1).as_tuple(),            # Q4
        sc.Box(0, F(1, 4), F(1, 4), HALF).as_tuple(),   # Q12
        sc.Box(F(1, 4), HALF, 0, F(1, 4)).as_tuple(),   # Q13
        sc.Box(F(1, 4), HALF, F(1, 4), HALF).as_tuple(),  # Q14
        sc.Box(0, F(1, 8), F(1, 8), F(1, 4)).as_tuple(),  # Q112
        sc.Box(F(1, 8), F(1, 4), 0, F(1, 8)).as_tuple(),  # Q113
        sc.Box(F(1, 8), F(1, 4), F(1, 8), F(1, 4)).as_tuple(),  # Q114
    }
    assert positives == expected_positive
    assert corners == {sc.Box(0, F(1, 8), 0, F(1, 8)).as_tuple()}
    assert sc.check_certificate(reduction.gap, cert, sc.UNIT_BOX)
    _ok("certified tree: 9 positive leaves + 1 corner leaf; bound 1/9; "
        "independent re-validation passes")


# ---------------------------------------------------------------------------
# 7. the y = 0 endpoint polynomial
# ---------------------------------------------------------------------------

def test_c07_endpoint_matrix(reduction):
    patch = sc.to_bernstein(reduction.endpoint_y0, sc.UNIT_BOX)
    b = patch.bcoeffs
    assert max(max(r) for r in b) == 910
    assert b[0][0] == 0
    assert all(v == 61 for v in b[6])
    # a few more printed entries
    assert b[0][1:] == (288, 576, 648, 288)
    assert b[3][3] == 910 and b[3][0] == 196
    assert b[1][1] == F(1000, 3) and b[2][2] == F(2252, 3)
    assert sc.bound_above(reduction.endpoint_y0) == 910 <= 1024
    _ok("endpoint matrix: max coefficient 910, entry (0,0)=0, row 6 all 61")


# ---------------------------------------------------------------------------
# 8. the |H2(2)| <= 1/4 chain
# ---------------------------------------------------------------------------

def test_c08_h2_chain():
    report = sc.verify_h2(grid=32)
    assert report.verified and report.bound == F(1, 4)
    d = report.details
    assert d["envelope_identity_exact"]
    assert d["ycoef_nonnegative"] and d["capped_between_endpoints"]
    assert d["oracle_samples"] >= 10 ** 5
    assert d["oracle_max"] <= 0.25 + 1e-9
    # independent repetition of the exact pieces
    assert sc.h2_envelope(0) == F(1, 4) and sc.h2_envelope(2) == F(19, 192)
    assert sc.hankel2(sc.schwarz_to_coeffs((0, 1, 0, 0))) == F(-1, 4)
    rng = random.Random(424242)
    for _ in range(50):
        p1 = F(rng.randint(1, 1999), 1000)
        A, B, C, D = sc.h2_terms(p1)
        assert abs(A) + abs(B) + abs(C) == \
            F(768 - 96 * p1 ** 2 - 5 * p1 ** 4, 3072)
    _ok(f"H2 chain: envelope identity on 50 rational p1, endpoints 1/4 and "
        f"19/192, witness -1/4; oracle max {d['oracle_max']:.12f} over "
        f"{d['oracle_samples']} samples <= 1/4 + 1e-9")


# ---------------------------------------------------------------------------
# 9. the scaled H3 identity
# ---------------------------------------------------------------------------

def test_c09_h3_identity():
    rng = random.Random(99)
    for _ in range(100):
        c = tuple(F(rng.randint(-30, 30), rng.randint(1, 30))
                  for _ in range(4))
        assert sc.h3_schwarz_poly(c) == \
            9216 * sc.hankel3(sc.schwarz_to_coeffs(c))
    assert sc.h3_schwarz_poly((0, 0, 1, 0)) == -1024
    _ok("H3 identity on 100 random rational tuples; witness w=z^3 -> -1024")


# ---------------------------------------------------------------------------
# 10. the |a4| maximum
# ---------------------------------------------------------------------------

def test_c10_max_a4():
    res = sc.max_a4(grid=48, refine=60)
    assert res.value == pytest.approx(0.338667, abs=1e-5)
    assert res.c1 == pytest.approx(0.508001, abs=1e-3)
    assert sc.a4_family(0.508001) == pytest.approx(0.338667, abs=1e-6)
    _ok(f"max |a4| = {res.value:.9f} at c1 = {res.c1:.6f}; family value at "
        f"0.508001 within 1e-6 of 0.338667")


# ---------------------------------------------------------------------------
# 11. radius of the convexity functional
# ---------------------------------------------------------------------------

# first high-precision run of solve_radius(0, 1e-19), frozen:
RADIUS_BASELINE = F("0.335278400446203024")


def test_c11_radius():
    values = [sc.radius_g(F(i, 1000)) for i in range(1000)]
    assert all(a > b for a, b in zip(values, values[1:]))     # exact compare
    assert h_prime_identities_hold()                          # h' > 0 on (0, 1)
    res = sc.solve_radius(0)
    assert res.bracket_hi - res.bracket_lo <= F(1, 10 ** 12)
    assert res.bracket_lo <= RADIUS_BASELINE <= res.bracket_hi
    assert 0.33 < res.root < 0.35
    _ok(f"radius: g strictly decreasing on 1000-point grid, h' > 0 on (0, 1) "
        f"by two polynomial identities; root "
        f"{res.root:.15f} bracketed to {float(res.bracket_hi - res.bracket_lo):.2e}")


# ---------------------------------------------------------------------------
# 12. Janowski disk test and target-function scans
# ---------------------------------------------------------------------------

def test_c12_janowski_and_scans():
    rng = random.Random(2024)
    agreements = 0
    for _ in range(10 ** 4):
        b = rng.uniform(-0.999, 0.999)
        a = rng.uniform(b + 1e-6, 1.0)
        _, rep = sc.janowski_check(sc.JanowskiParams(a, b))
        agreements += rep.agree
    assert agreements == 10 ** 4
    rep = sc.ma_minda_scan(grid_density=100)
    assert rep.passed
    assert rep.boundary_min >= 1 - 1e-10
    assert rep.boundary_at_0 == pytest.approx(1, abs=1e-10)
    assert rep.boundary_at_pi == pytest.approx(1, abs=1e-10)
    assert 0.25 < rep.min_modulus and rep.max_modulus < 2.25
    assert rep.min_real > 0 and rep.max_starlike_ratio < 0.2
    _ok("janowski tests agree on 10^4 samples; boundary min 1 at t in {0, pi} "
        "on 10^4-point grid; |phi| in (1/4, 9/4), Re phi > 0, ratio < 1/5")


# ---------------------------------------------------------------------------
# 13. property suites, >= 200 random cases each
# ---------------------------------------------------------------------------

def _y_oracle_refined(A, B, C):
    """Dense polar grid followed by two local zooms around the argmax."""
    def sweep(r_vals, t_vals):
        z = r_vals[:, None] * np.exp(1j * t_vals)[None, :]
        vals = np.abs(A + B * z + C * z * z) + 1 - r_vals[:, None] ** 2
        k = np.unravel_index(np.argmax(vals), vals.shape)
        return float(vals[k]), float(r_vals[k[0]]), float(t_vals[k[1]])

    best, r0, t0 = sweep(np.linspace(0, 1, 201),
                         np.linspace(0, 2 * math.pi, 512, endpoint=False))
    w_r, w_t = 0.01, 2 * math.pi / 256
    for _ in range(2):
        r_loc = np.clip(np.linspace(r0 - w_r, r0 + w_r, 41), 0, 1)
        t_loc = np.linspace(t0 - w_t, t0 + w_t, 41)
        cand, r0, t0 = sweep(r_loc, t_loc)
        best = max(best, cand)
        w_r /= 15
        w_t /= 15
    return best


def test_c13_property_suites(reduction):
    rng = random.Random(777)

    # enclosure soundness + subdivision exactness + min monotonicity
    for _ in range(200):
        f = sc.BiPoly([[F(rng.randint(-12, 12), rng.randint(1, 6))
                        for _ in range(3)] for _ in range(4)])
        patch = sc.to_bernstein(f, sc.UNIT_BOX)
        lo, hi = sc.enclosure(patch)
        p = F(rng.randint(0, 24), 24)
        x = F(rng.randint(0, 24), 24)
        assert lo <= f.evaluate(p, x) <= hi
        children = sc.subdivide(patch)
        assert min(sc.enclosure(c)[0] for c in children) >= lo
        pick = children[rng.randrange(4)]
        assert pick.bcoeffs == sc.to_bernstein(f, pick.box).bcoeffs

    # rotation invariance of |H2| and |H3|
    for _ in range(200):
        a = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(4))
        th = rng.uniform(0, 2 * math.pi)
        rot = tuple(v * cmath.exp(1j * (k + 1) * th) for k, v in enumerate(a))
        assert abs(sc.hankel2(rot)) == pytest.approx(abs(sc.hankel2(a)), abs=1e-12)
        assert abs(sc.hankel3(rot)) == pytest.approx(abs(sc.hankel3(a)), abs=1e-12)

    # Y(A, B, C) against the refined grid oracle, within 1e-6
    for _ in range(200):
        A = rng.uniform(-1.5, 1.5)
        B = rng.uniform(-1.5, 1.5)
        C = rng.uniform(-1.5, 1.5)
        if abs(C) < 1e-3:
            continue
        got = sc.y_max(A, B, C)
        want = _y_oracle_refined(A, B, C)
        assert got == pytest.approx(want, abs=1e-6), (A, B, C)

    # Caratheodory-style inequalities along the parametrization
    for _ in range(200):
        p1 = rng.uniform(0, 2)
        t = tuple(rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                  for _ in range(3))
        p = sc.lz_parametrize(p1, t)
        assert all(abs(v) <= 2 + 1e-12 for v in p)
        pairs = [(p[1], p[0] * p[0]), (p[2], p[1] * p[0]),
                 (p[3], p[2] * p[0]), (p[3], p[1] * p[1])]
        assert all(abs(pn - prod) <= 2 + 1e-12 for pn, prod in pairs)

    _ok("property suites: enclosure/subdivision/monotonicity, rotation "
        "invariance, Y vs refined oracle (1e-6), Caratheodory products; "
        "200 cases each")
