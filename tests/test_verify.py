"""End-to-end pipelines and their reports."""
import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from starcert import (bernstein, gft, oracles, radius, reduction as reduction_module,
                      verify)
from starcert.cli import main
from starcert.poly import BiPoly
from starcert.verify import (VerificationReport, a4_family, max_a4, verify_h2,
                             verify_h3)

F = Fraction


@pytest.fixture(scope="module")
def h2_report():
    return verify_h2()


@pytest.fixture(scope="module")
def h3_report():
    return verify_h3()


def test_verify_h2(h2_report):
    assert h2_report.verified
    assert h2_report.bound == F(1, 4)
    d = h2_report.details
    assert d["oracle_samples"] >= 10 ** 5
    assert d["oracle_max"] <= 0.25 + 1e-9
    assert d["envelope_identity_exact"] and d["ycoef_nonnegative"]
    assert d["capped_between_endpoints"]
    assert d["endpoint_y1_bernstein_max"] == "1/4"
    assert d["endpoint_y0_bernstein_max"] == "3/16"
    assert "certificate_succeeded" not in d
    assert d["sharpness_w_z2"] == "-1/4"


def test_verify_h2_rejects_small_grid():
    with pytest.raises(ValueError):
        verify_h2(grid=8)


@pytest.mark.parametrize("grid", [0, 3])
def test_verify_h3_rejects_small_grid(grid):
    # grid 3 draws 6912 oracle samples, below the oracle's own 10^4 floor
    with pytest.raises(ValueError, match="grid must be >= 4"):
        verify_h3(grid=grid)


def test_verify_h3_smallest_grid():
    report = verify_h3(grid=4)
    assert report.verified and report.details["oracle_samples"] == 23040
    assert verify._h3_samples(4) == 23040


def test_verify_h3(h3_report):
    assert h3_report.verified
    assert h3_report.bound == F(1, 9)
    d = h3_report.details
    assert d["certificate_succeeded"] and d["certificate_revalidated"]
    assert d["certificate_leaves"] == 10
    assert d["endpoint_y0_bernstein_max"] == "910"
    assert d["oracle_max_scaled"] <= 1024 * (1 + 1e-9)
    assert d["sharpness_w_z3_scaled"] == "-1024"
    assert d["ycoef_nonnegative"] and d["capped_between_endpoints"]
    assert d["endpoint_y1_bernstein_max"] == "3208/3"


def test_verify_h3_certificate_attached(h3_report):
    cert = h3_report.certificate
    assert cert is not None and cert.succeeded
    # depth-3 tree: root + 3 internal + 10 leaves
    assert cert.root.depth() == 4
    assert len(cert.leaves()) == 10


def test_verify_h3_certificate_bytes_match_the_reference(h3_report):
    # the same bytes `certify-h3 --out` writes; every exact step of the
    # chain (root conversion, subdivision, corner shifts) shows in them
    ref = Path(__file__).resolve().parents[1] / "perfbench/ref/h3_cert.json"
    assert (h3_report.certificate.to_json() + "\n").encode() == ref.read_bytes()


def test_report_json_schema(h2_report):
    doc = h2_report.to_json_doc()
    assert set(doc) == {"claim", "bound", "status", "artifacts", "details"}
    assert doc["bound"] == "1/4"
    assert doc["status"] == "verified"
    assert doc["artifacts"] == []
    assert doc["details"] == h2_report.details
    assert doc["details"]["failure"] is None
    assert json.loads(json.dumps(doc)) == doc  # JSON-native as it is


def test_report_render_mentions_bound(h2_report):
    text = h2_report.render()
    assert "1/4" in text and "verified" in text


def test_report_failed_status_flag():
    for failure, status in ((None, "verified"), ("certification", "failed"),
                            ("oracle", "failed")):
        rep = VerificationReport(claim="x", bound=F(1, 2), details={"failure": failure})
        assert rep.status == rep.to_json_doc()["status"] == status
        assert rep.verified is (failure is None)
        with pytest.raises(AttributeError):
            rep.status = "verified"


def test_records_store_no_restated_field():
    # the verdict is stored once, in details; the family values are constants;
    # the scan's checks and cap, and the radius midpoint, are read, not stored
    assert VerificationReport._fields == ("claim", "bound", "details", "certificate")
    assert verify.A4Search._fields == ("value", "c1", "gamma", "eta", "samples")
    assert gft.PhiScanReport._fields == (
        "grid_density", "min_modulus", "max_modulus", "min_real",
        "max_starlike_ratio", "boundary_min", "boundary_argmin",
        "boundary_at_0", "boundary_at_pi", "samples")
    assert radius.RadiusResult._fields == ("bracket_lo", "bracket_hi", "iterations", "gamma")
    res = radius.solve_radius(0, 1e-3)
    assert res.root == float((res.bracket_lo + res.bracket_hi) / 2)


def test_a4_family_values():
    assert a4_family(0.0) == 0.0
    assert a4_family(0.508001) == pytest.approx(0.338667, abs=1e-6)


def test_max_a4_search():
    res = max_a4(grid=24, refine=40)
    assert res.value == pytest.approx(0.338667, abs=1e-5)
    assert res.c1 == pytest.approx(0.508001, abs=1e-3)
    assert res.family_value == pytest.approx(res.value, abs=1e-7)
    assert res.family_t == pytest.approx((8 / 31) ** 0.5, abs=1e-7)
    assert res.family_t == math.sqrt(8 / 31)
    assert abs(res.gamma) <= 1 + 1e-12 and abs(res.eta) <= 1 + 1e-12
    assert res.samples > 10 ** 5
    assert res.samples == verify._a4_samples(24, 40)


def test_max_a4_validates_arguments():
    with pytest.raises(ValueError):
        max_a4(grid=4)
    with pytest.raises(ValueError):
        max_a4(refine=0)


# ---------------------------------------------------------------------------
# blocked float oracles against their one-shot references
# ---------------------------------------------------------------------------

def ref_h3_oracle(grid):
    """The H3 grid oracle as one _h3_param call per c1 over the whole
    (gamma, eta, rho) slab: (max, sample count)."""
    gam = oracles._polar_grid(grid // 2 + 1, 2 * grid)
    eta = oracles._polar_grid(3, grid)
    rho = oracles._polar_grid(2, 8)
    observed, samples = 0.0, 0
    for c1 in np.linspace(0.0, 1.0, grid + 1):
        vals = np.abs(oracles._h3_param(c1, gam[:, None, None], eta[None, :, None],
                                        rho[None, None, :]))
        observed = max(observed, float(vals.max()))
        samples += vals.size
    return observed, samples


def ref_a4_coarse(grid):
    """The max_a4 coarse scan as one broadcast over (c1, gamma, eta) and
    np.argmax: ((value, c1, gamma, eta), sample count)."""
    c1s = np.linspace(0.0, 1.0, grid + 1)
    gam = oracles._polar_grid(grid // 3 + 1, 2 * grid)
    eta = oracles._polar_grid(3, 8)
    vals = np.abs(oracles._a4(c1s[:, None, None], gam[None, :, None],
                              eta[None, None, :]))
    i, j, k = np.unravel_index(np.argmax(vals), vals.shape)
    return ((float(vals[i, j, k]), float(c1s[i]), complex(gam[j]),
             complex(eta[k])), vals.size)


def _window(center, w_r, w_t, n):
    """The n x n polar window of max_a4's refinement around ``center``."""
    r = np.clip(np.linspace(abs(center) - w_r, abs(center) + w_r, n), 0.0, 1.0)
    t = math.atan2(center.imag, center.real)
    return (r[:, None] * np.exp(1j * np.linspace(t - w_t, t + w_t, n))[None, :]).ravel()


def ref_a4_search(grid, refine):
    """max_a4's search with the coarse scan and each refinement one
    broadcast and np.argmax: ((value, c1, gamma, eta), sample count)."""
    (val, c1b, gb, eb), samples = ref_a4_coarse(grid)
    w_c, w_r, w_t = 1.5 / grid, 0.4, 0.4
    for _ in range(refine):
        c1s = np.clip(np.linspace(c1b - w_c, c1b + w_c, 9), 0.0, 1.0)
        gam, eta = _window(gb, w_r, w_t, 9), _window(eb, w_r, w_t, 5)
        vals = np.abs(oracles._a4(c1s[:, None, None], gam[None, :, None],
                                  eta[None, None, :]))
        samples += vals.size
        i, j, k = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[i, j, k] > val:
            val, c1b, gb, eb = (float(vals[i, j, k]), float(c1s[i]),
                                complex(gam[j]), complex(eta[k]))
        w_c, w_r, w_t = 0.65 * w_c, 0.65 * w_r, 0.65 * w_t
    return (val, c1b, gb, eb), samples


def ref_h2_scan(grid):
    """The verify_h2 oracle as one broadcast over the whole (p1, gamma,
    eta) grid: (max, sample count)."""
    gam = oracles._polar_grid(grid // 3 + 1, grid)[None, :, None]
    eta = oracles._polar_grid(3, 16)[None, None, :]
    coef = []
    for p1 in np.linspace(0.0, 2.0, grid):
        s = 4 - p1 * p1
        coef.append((-19 * p1 ** 4 / 3072, p1 * p1 * s / 384,
                     (p1 ** 4 + 8 * p1 * p1 - 48) / 192, p1 * s / 24))
    a, b, c, d0 = (np.array(col)[:, None, None] for col in zip(*coef))
    vals = np.abs(a + b * gam + c * gam ** 2 + d0 * eta * (1 - np.abs(gam) ** 2))
    return float(vals.max()), vals.size


@pytest.mark.parametrize("grid", [4, 12, 20])
def test_h3_oracle_matches_whole_slab_reference(grid, h3_report):
    report = h3_report if grid == 12 else verify_h3(grid=grid)
    d = report.details
    assert (d["oracle_max_scaled"], d["oracle_samples"]) == ref_h3_oracle(grid)


@pytest.mark.parametrize("grid", [16, 24, 48])
def test_a4_coarse_matches_full_broadcast_argmax(grid):
    assert oracles._a4_coarse(grid) == ref_a4_coarse(grid)


def test_a4_coarse_breaks_ties_like_argmax(monkeypatch):
    # rounded values tie across many c1 rows, and at grid 48 across the
    # ten blocks of each row; the first in C order wins
    exact = oracles._a4
    monkeypatch.setattr(oracles, "_a4", lambda *args: np.round(np.abs(exact(*args)), 1))
    assert oracles._a4_coarse(24) == ref_a4_coarse(24)
    row = (48 // 3 + 1) * 96 * 24
    assert row > 9 * oracles._BLOCK_SAMPLES
    assert oracles._a4_coarse(48) == ref_a4_coarse(48)


def test_phi_scan_breaks_boundary_ties_like_argmin(monkeypatch):
    # rounded distances tie on a run of angles around the first block
    # boundary; the first of the run wins, the index np.argmin picks
    # over the whole circle
    npts, block = 100 * 100, oracles._BLOCK_SAMPLES
    step = 2 * math.pi / npts
    exact = oracles._boundary_distance
    rounded = lambda t: np.round(exact(t - block * step), 1)  # noqa: E731
    monkeypatch.setattr(oracles, "_boundary_distance", rounded)
    t = np.arange(npts, dtype=float) * step
    bnd = rounded(t)
    k = int(np.argmin(bnd))
    assert k < block and bnd[k] == bnd[block] == bnd[block - 1]
    scan = oracles._phi_scan(100, gft._PHI_SCAN_RADIUS, npts)
    assert scan[4:6] == (float(bnd[k]), float(t[k]))


def _disk(rng, n, modulus):
    """n points of the closed unit disk, all of modulus ``modulus`` unless
    it is None."""
    r = rng.uniform(0, 1, n) if modulus is None else np.full(n, modulus)
    return r * np.exp(1j * rng.uniform(0, 2 * math.pi, n))


AFFINE_SEED = 20240605


def test_affine_splits_match_the_literal_kernels():
    """rho enters only through c4 (eta only through c3), and the value is
    affine in c4 (in c3)."""
    rng = np.random.default_rng(AFFINE_SEED)
    n = 200
    edges = (None, 0.0, 1.0)
    for c1_end, gam_mod, eta_mod, rho_mod in itertools.product(edges, repeat=4):
        c1 = rng.uniform(0, 1, n) if c1_end is None else np.full(n, c1_end)
        gam, eta, rho = (_disk(rng, n, m) for m in (gam_mod, eta_mod, rho_mod))
        p = oracles._h3_param(c1, gam, eta, 0.0)
        q = oracles._h3_param(c1, gam, eta, 1.0) - p
        literal = np.abs(oracles._h3_param(c1, gam, eta, rho))
        assert np.all(abs(np.abs(p + q * rho) - literal)
                      <= 1e-12 * np.maximum(1, literal))
        p = oracles._a4(c1, gam, 0.0)
        q = oracles._a4(c1, gam, 1.0) - p
        literal = np.abs(oracles._a4(c1, gam, eta))
        assert np.all(abs(np.abs(p + q * eta) - literal)
                      <= 1e-12 * np.maximum(1, literal))


# ---------------------------------------------------------------------------
# the vectorised checks fail on a broken reduction
# ---------------------------------------------------------------------------

def _lowered(red, group, delta):
    """``red`` with ``group`` lowered by ``delta``; the endpoints and the gap
    move along, so every exact identity and certificate still holds."""
    e1 = delta if group != "comp" else 0
    e0 = delta if group != "y2coef" else 0
    return red._replace(**{group: getattr(red, group) - delta},
                        endpoint_y1=red.endpoint_y1 - e1,
                        endpoint_y0=red.endpoint_y0 - e0, gap=red.gap + e1)


P2 = BiPoly.var_p() ** 2 * F(1, 10 ** 4)


@pytest.mark.parametrize("group, delta", [
    ("base", lambda red: P2), ("y2coef", lambda red: P2),
    ("comp", lambda red: F(1, 10 ** 4)),
    ("ycoef", lambda red: red.ycoef * F(1, 10 ** 4)),
    ("comp", lambda red: red.comp * F(1, 10 ** 4))],
    ids=["base-p2", "y2coef-p2", "comp-const", "ycoef-scaled", "comp-scaled"])
def test_lowered_majorant_fails_domination(monkeypatch, reduction, capsys,
                                           group, delta):
    # H comes within 1e-6 of |P| + |Q| on 664 of the 1,440 (c1, gamma, eta)
    # points at grid 4, among them every point with c1 = 0, c1 = 1 or
    # gamma = 0, so each group lowered by 1e-4 leaves H short somewhere
    lowered = _lowered(reduction, group, delta(reduction))
    monkeypatch.setattr(verify, "build_h3_reduction", lambda: lowered)
    report = verify_h3(grid=4)
    d = report.details
    for step in ("gap_is_target_minus_endpoint_y1", "certificate_succeeded",
                 "certificate_revalidated", "ycoef_nonnegative",
                 "capped_between_endpoints"):
        assert d[step] is True, step
    assert d["majorant_dominates_samples"] is False
    assert report.status == "failed" and d["failure"] == "oracle"
    assert main(["certify-h3", "--grid", "4"]) == 3
    assert "majorant_dominates_samples: False" in capsys.readouterr().out


def test_broken_grid_kernel_fails_the_oracle(monkeypatch, capsys):
    # a relative error of 1e-6 lifts the sampled maximum 1024 past the
    # oracle's 1024 (1 + 1e-9), and |P| + |Q| past H where they meet; no
    # exact step reads the kernel
    exact = oracles._h3_param
    monkeypatch.setattr(oracles, "_h3_param",
                        lambda *args: exact(*args) * (1 + 1e-6))
    report = verify_h3(grid=4)
    d = report.details
    for step in ("gap_is_target_minus_endpoint_y1", "certificate_succeeded",
                 "certificate_revalidated", "ycoef_nonnegative",
                 "capped_between_endpoints"):
        assert d[step] is True, step
    assert d["majorant_dominates_samples"] is False
    assert d["endpoint_y0_bernstein_max"] == "910"
    assert d["sharpness_w_z3_scaled"] == "-1024"
    assert d["oracle_max_scaled"] > 1024 * (1 + 1e-9)
    assert report.status == "failed" and d["failure"] == "oracle"
    assert main(["certify-h3", "--grid", "4"]) == 3
    assert "failure: oracle" in capsys.readouterr().out


def test_gap_must_be_target_minus_endpoint_y1(monkeypatch, reduction, capsys):
    # gap + 1 is still positive, so its certificate holds; only the
    # polynomial identity with endpoint_y1 catches the fault
    shifted = reduction._replace(gap=reduction.gap + 1)
    monkeypatch.setattr(verify, "build_h3_reduction", lambda: shifted)
    report = verify_h3(grid=4)
    d = report.details
    assert d["certificate_succeeded"] and d["certificate_revalidated"]
    assert d["gap_is_target_minus_endpoint_y1"] is False
    assert report.status == "failed" and d["failure"] == "certification"
    assert main(["certify-h3", "--grid", "4"]) == 2
    assert "gap_is_target_minus_endpoint_y1: False" in capsys.readouterr().out


def test_h3_sharpness_is_an_exact_step(monkeypatch, capsys):
    monkeypatch.setattr(verify, "hankel3", lambda a: F(-1023, 9216))
    report = verify_h3(grid=4)
    assert report.details["sharpness_w_z3_scaled"] == "-1023"
    assert report.details["failure"] == "certification"
    assert main(["certify-h3", "--grid", "4"]) == 2
    capsys.readouterr()


def test_h3_exact_failure_outranks_an_oracle_failure(monkeypatch, capsys):
    # the scaled kernel alone fails the grid oracle (see
    # test_broken_grid_kernel_fails_the_oracle); the wrong sharpness value
    # fails an exact step at the same time, and that decides the verdict
    exact = oracles._h3_param
    monkeypatch.setattr(oracles, "_h3_param",
                        lambda *args: exact(*args) * (1 + 1e-6))
    monkeypatch.setattr(verify, "hankel3", lambda a: F(-1023, 9216))
    report = verify_h3(grid=4)
    d = report.details
    assert d["oracle_max_scaled"] > 1024 * (1 + 1e-9)
    assert d["sharpness_w_z3_scaled"] == "-1023"
    assert report.status == "failed" and d["failure"] == "certification"
    assert main(["certify-h3", "--grid", "4"]) == 2
    assert "failure: certification" in capsys.readouterr().out


def _certify_at_depth_2(poly, box, max_depth, rule):
    # the corner box [0, 1/8]^2 needs depth 3, so this tree has a failed leaf
    return bernstein.certify_positive(poly, box, 2, rule)


def _endpoint_y0_raised():
    # comp + 1024 with endpoint_y0 moved to match keeps both identities;
    # its largest coefficient 1934 sends it to a certificate of
    # 1024 - endpoint_y0, which fails wherever the old endpoint_y0 > 0
    red = reduction_module.build_h3_reduction()
    return red._replace(comp=red.comp + 1024, endpoint_y0=red.endpoint_y0 + 1024)


@pytest.mark.parametrize("patches, key, value", [
    ({"build_h3_reduction": _endpoint_y0_raised}, "endpoint_y0_bernstein_max", "1934"),
    ({"certify_positive": _certify_at_depth_2, "check_certificate": lambda *args: True},
     "certificate_succeeded", False),
    ({"check_certificate": lambda *args: False}, "certificate_revalidated", False),
])
def test_each_h3_exact_step_decides_alone(monkeypatch, capsys, patches, key, value):
    # the certificate's success and its re-check cover each other on honest
    # trees, so each is broken here with the other still holding
    for name, stub in patches.items():
        monkeypatch.setattr(verify, name, stub)
    report = verify_h3(grid=4)
    assert report.details[key] == value
    assert report.status == "failed" and report.details["failure"] == "certification"
    assert main(["certify-h3", "--grid", "4"]) == 2
    assert "failure: certification" in capsys.readouterr().out


@pytest.mark.parametrize("group, delta", [
    ("base", 1), ("ycoef", 1), ("ycoef", -1), ("y2coef", 1), ("comp", 1)])
def test_corrupted_group_fails_capped_between_endpoints(monkeypatch, reduction,
                                                        group, delta):
    corrupted = reduction._replace(**{group: getattr(reduction, group) + delta})
    monkeypatch.setattr(verify, "build_h3_reduction", lambda: corrupted)
    report = verify_h3(grid=4)
    assert report.details["capped_between_endpoints"] is False
    assert report.details["failure"] == "certification"


def test_capped_step_needs_ycoef_nonnegative(monkeypatch, reduction):
    # ycoef - 1 with matching endpoints keeps both identities; only the
    # Bernstein enclosure of ycoef (smallest coefficient -1) catches it
    shifted = reduction._replace(ycoef=reduction.ycoef - 1, base=reduction.base + 1)
    monkeypatch.setattr(verify, "build_h3_reduction", lambda: shifted)
    report = verify_h3(grid=4)
    assert report.details["capped_between_endpoints"] is True
    assert report.details["ycoef_nonnegative"] is False
    assert report.details["failure"] == "certification"


# ---------------------------------------------------------------------------
# the H2 sign proofs fail on broken slice polynomials
# ---------------------------------------------------------------------------

def _slice_with(change):
    real = verify._h2_slice
    return lambda q: change(*real(q))


@pytest.mark.parametrize("name, stub, key, value", [
    ("hankel2", lambda a: F(-1, 5), "sharpness_w_z2", "-1/5"),
    # B - k, with -C and |D| raised by k so both endpoints still match
    ("_h2_slice", _slice_with(lambda A, B, C, D, g1, g0, k=F(1, 1000):
                              (A, B - k, C - k, D + k, g1, g0)),
     "ycoef_nonnegative", False),
    ("_h2_slice", _slice_with(lambda A, B, C, D, g1, g0:
                              (A, B, C, D, g1, g0 + F(1, 1000))),
     "capped_between_endpoints", False),
    # |D| + 1/8 and g0 moved to match: g0's largest coefficient 5/16 needs a
    # certificate of 1/4 - g0, and g0 now exceeds 1/4 near p1 = 1.3
    ("_h2_slice", _slice_with(lambda A, B, C, D, g1, g0:
                              (A, B, C, D + F(1, 8), g1, g0 + F(1, 8))),
     "endpoint_y0_bernstein_max", "5/16"),
])
def test_each_h2_exact_step_decides_alone(monkeypatch, capsys, name, stub, key, value):
    monkeypatch.setattr(verify, name, stub)
    report = verify_h2()
    d = report.details
    assert d[key] == value
    for fact in ("envelope_identity_exact", "ycoef_nonnegative",
                 "capped_between_endpoints"):
        assert d[fact] is (fact != key), fact
    # only g0 above the target takes a certificate, and it fails
    assert d.get("certificate_succeeded", False) is False
    assert report.status == "failed" and d["failure"] == "certification"
    assert main(["verify-h2"]) == 2
    assert "failure: certification" in capsys.readouterr().out


@pytest.mark.parametrize("change, identity, capped", [
    # C's sign flips: -C >= 0 and g1 = -A + B - C both fail
    (lambda A, B, C, D, g1, g0: (A, B, -C, D, g1, g0), False, False),
    # D's sign flips, g0 moved to match: only the group sign fails
    (lambda A, B, C, D, g1, g0: (A, B, C, -D, g1, g0 - 2 * D), False, True),
    # g1 lowered by a constant: only its identity fails, as g1 <= 1/4 still
    (lambda A, B, C, D, g1, g0: (A, B, C, D, g1 - F(1, 1000), g0), True, False),
])
def test_broken_slice_fails_verify_h2(monkeypatch, capsys, change, identity, capped):
    monkeypatch.setattr(verify, "_h2_slice", _slice_with(change))
    report = verify_h2()
    d = report.details
    assert d["envelope_identity_exact"] is identity
    assert d["capped_between_endpoints"] is capped
    assert d["ycoef_nonnegative"] and "certificate_succeeded" not in d
    assert report.status == "failed" and d["failure"] == "certification"
    assert main(["verify-h2"]) == 2
    assert "status: failed" in capsys.readouterr().out


@pytest.mark.parametrize("flip_c, failure, code", [
    (False, "oracle", 3), (True, "certification", 2)])
def test_h2_exact_failure_outranks_an_oracle_failure(monkeypatch, capsys,
                                                     flip_c, failure, code):
    # a grid scaled by 1.5 samples gamma and eta outside the disk, which
    # lifts the oracle's maximum far past 1/4 while no exact step reads it
    grid = oracles._polar_grid
    monkeypatch.setattr(oracles, "_polar_grid", lambda *args: grid(*args) * 1.5)
    if flip_c:
        monkeypatch.setattr(verify, "_h2_slice", _slice_with(
            lambda A, B, C, D, g1, g0: (A, B, -C, D, g1, g0)))
    report = verify_h2()
    d = report.details
    assert d["oracle_max"] > 0.7
    assert d["envelope_identity_exact"] is not flip_c
    assert report.status == "failed" and d["failure"] == failure
    assert main(["verify-h2"]) == code
    assert f"failure: {failure}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the sample budget
# ---------------------------------------------------------------------------

def _last_block_partial(items, per_item=1):
    """Whether blocks of an items x per_item array end in a partial one."""
    return items % max(1, oracles._BLOCK_SAMPLES // per_item) != 0


def test_sample_counts_match_the_oracles(h2_report, h3_report):
    assert verify._h2_samples(32) == h2_report.details["oracle_samples"] == 540672
    assert verify._h3_samples(12) == h3_report.details["oracle_samples"] == 1257984
    search = max_a4()
    assert verify._a4_samples(48, 60) == search.samples == 3012732
    assert gft._phi_scan_samples(64, 64 * 64) == 64 * 256 + 4096 == 20480
    # at grids whose last block is partial, each count is the budget
    # formula's and each maximum (max_a4's witness too) is that of a
    # one-shot reference
    assert _last_block_partial(11 * 32, 48)                   # gamma of verify_h2
    assert (h2_report.details["oracle_max"], 540672) == ref_h2_scan(32)
    assert _last_block_partial(7 * 24, 36)                    # gamma of verify_h3
    assert _last_block_partial(oracles._BLOCK_SAMPLES // 36, 36 * 16)  # its rho stage
    assert (h3_report.details["oracle_max_scaled"], 1257984) == ref_h3_oracle(12)
    assert _last_block_partial(17 * 96, 24)                   # gamma of max_a4
    assert _last_block_partial(9, 81 * 25)                    # its refinements
    assert ((search.value, search.c1, search.gamma, search.eta), search.samples) == \
        ref_a4_search(48, 60)
    assert _last_block_partial(7 * 40, 24)                    # at grid 20
    search = max_a4(grid=20, refine=10)
    assert ((search.value, search.c1, search.gamma, search.eta), search.samples) == \
        ref_a4_search(20, 10)
    assert search.samples == verify._a4_samples(20, 10)
    # scan-phi, counted as the points where its oracle evaluates phi: at
    # 130 the disk grid's and the circle's last blocks are partial (its
    # extrema are checked against a one-shot reference in test_gft.py);
    # at 1025 each row of 4100 points is longer than a block
    assert _last_block_partial(130, 4 * 130) and _last_block_partial(130 ** 2)
    assert 4 * 1025 > oracles._BLOCK_SAMPLES and _last_block_partial(4 * 1025)
    for grid_density in (130, 1025):
        npts = grid_density ** 2 + grid_density % 2
        assert gft.ma_minda_scan(grid_density).samples == \
            gft._phi_scan_samples(grid_density, npts)


# ---------------------------------------------------------------------------
# memory: the oracles never hold a whole grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("oracle, ceiling_mb", [
    (max_a4, 8), (verify_h3, 4),
    # 44,928 (gamma, eta) points per c1: only a blocked P, Q stage passes
    pytest.param(functools.partial(verify_h3, grid=24), 4, id="verify_h3_24-4"),
    # 367,200 (gamma, eta) points per p1 and 367,200 per c1: only
    # blocks of gamma pass
    pytest.param(functools.partial(verify_h2, grid=150), 2, id="verify_h2_150-2"),
    pytest.param(functools.partial(max_a4, grid=150, refine=1), 2,
                 id="max_a4_150_1-2")])
def test_oracle_peak_allocation(oracle, ceiling_mb, h3_report):
    # tracemalloc counts numpy buffers; evaluated whole, the grids peaked
    # at about 90 MB (max_a4) and 7 MB (verify_h3); verify_h3 at grid 24
    # at 5.1 MB with its P, Q stage held whole per c1, and verify_h2 and
    # max_a4 at grid 150 at 14.4 MB and 11.4 MB with whole rows per p1 or
    # c1.  In blocks of 2^12 samples every row peaks below 0.6 MB.
    # h3_report has filled the lazy caches.
    tracemalloc.start()
    try:
        oracle()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ceiling_mb * 2 ** 20
