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

from starcert import bernstein, gft, verify
from starcert.bernstein import BiPoly
from starcert.cli import main
from starcert.verify import (DEFAULT_SEED, VerificationReport, a4_family,
                             max_a4, verify_h2, verify_h3)

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
    assert d["envelope_identity_exact"] and d["case_conditions_hold"]
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
    assert set(doc) == {"claim", "bound", "status", "artifacts"}
    assert doc["bound"] == "1/4"
    assert doc["status"] == "verified"
    assert isinstance(doc["artifacts"], list)
    json.dumps(doc)  # must be serializable as-is


def test_report_render_mentions_bound(h2_report):
    text = h2_report.render()
    assert "1/4" in text and "verified" in text


def test_report_failed_status_flag():
    rep = VerificationReport(claim="x", bound=F(1, 2), status="failed")
    assert not rep.verified


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
    """The H3 grid oracle as one _h3_param_abs call per c1 over the whole
    (gamma, eta, rho) slab: (max, sample count)."""
    gam = verify._polar_grid(grid // 2 + 1, 2 * grid)
    eta = verify._polar_grid(3, grid)
    rho = verify._polar_grid(2, 8)
    observed, samples = 0.0, 0
    for c1 in np.linspace(0.0, 1.0, grid + 1):
        vals = verify._h3_param_abs(c1, gam[:, None, None], eta[None, :, None],
                                    rho[None, None, :])
        observed = max(observed, float(vals.max()))
        samples += vals.size
    return observed, samples


def ref_a4_coarse(grid):
    """The max_a4 coarse scan as one broadcast over (c1, gamma, eta) and
    np.argmax: ((value, c1, gamma, eta), sample count)."""
    c1s = np.linspace(0.0, 1.0, grid + 1)
    gam = verify._polar_grid(grid // 3 + 1, 2 * grid)
    eta = verify._polar_grid(3, 8)
    vals = verify._a4_abs(c1s[:, None, None], gam[None, :, None],
                          eta[None, None, :])
    i, j, k = np.unravel_index(np.argmax(vals), vals.shape)
    return ((float(vals[i, j, k]), float(c1s[i]), complex(gam[j]),
             complex(eta[k])), vals.size)


@pytest.mark.parametrize("grid", [4, 12, 20])
def test_h3_oracle_matches_whole_slab_reference(grid, h3_report):
    report = h3_report if grid == 12 else verify_h3(grid=grid)
    d = report.details
    assert (d["oracle_max_scaled"], d["oracle_samples"]) == ref_h3_oracle(grid)


@pytest.mark.parametrize("grid", [16, 24, 48])
def test_a4_coarse_matches_full_broadcast_argmax(grid):
    assert verify._a4_coarse(grid) == ref_a4_coarse(grid)


def test_a4_coarse_breaks_ties_like_argmax(monkeypatch):
    # rounded values tie across many c1 rows; the first in C order wins
    exact = verify._a4_abs
    monkeypatch.setattr(verify, "_a4_abs", lambda *args: np.round(exact(*args), 1))
    assert verify._a4_coarse(24) == ref_a4_coarse(24)


def _disk(rng, n, modulus):
    """n points of the closed unit disk, all of modulus ``modulus`` unless
    it is None."""
    r = rng.uniform(0, 1, n) if modulus is None else np.full(n, modulus)
    return r * np.exp(1j * rng.uniform(0, 2 * math.pi, n))


def test_affine_splits_match_the_literal_kernels():
    """rho enters only through c4 (eta only through c3), and the value is
    affine in c4 (in c3)."""
    rng = np.random.default_rng(DEFAULT_SEED)
    n = 200
    edges = (None, 0.0, 1.0)
    for c1_end, gam_mod, eta_mod, rho_mod in itertools.product(edges, repeat=4):
        c1 = rng.uniform(0, 1, n) if c1_end is None else np.full(n, c1_end)
        gam, eta, rho = (_disk(rng, n, m) for m in (gam_mod, eta_mod, rho_mod))
        p = verify._h3_param(c1, gam, eta, 0.0)
        q = verify._h3_param(c1, gam, eta, 1.0) - p
        literal = verify._h3_param_abs(c1, gam, eta, rho)
        assert np.all(abs(np.abs(p + q * rho) - literal)
                      <= 1e-12 * np.maximum(1, literal))
        p = verify._a4(c1, gam, 0.0)
        q = verify._a4(c1, gam, 1.0) - p
        literal = verify._a4_abs(c1, gam, eta)
        assert np.all(abs(np.abs(p + q * eta) - literal)
                      <= 1e-12 * np.maximum(1, literal))


def test_domination_samples_match_sequential_draws():
    rng = np.random.default_rng(DEFAULT_SEED)
    rounds = []
    for _ in range(300):
        c1 = rng.uniform(0, 1)
        g = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        e = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        r = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        rounds.append((c1, g, e, r))
    got = verify._domination_samples(DEFAULT_SEED)
    for drawn, sequential in zip(got, zip(*rounds)):
        assert np.array_equal(drawn, np.array(sequential))


# SeedSequence hashes the seed's 32-bit words into a pool of four: one word,
# two, and seven (the words past the pool are mixed in last)
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 0, 1, 2 ** 32 + 5,
                                  12345678901234567890, 2 ** 200 + 12345])
def test_pcg64_draws_match_numpy(seed):
    assert np.array_equal(np.array(verify._pcg64_doubles(seed, 2100)),
                          np.random.default_rng(seed).random(2100))
    turn = 2 * math.pi
    u = np.random.default_rng(seed).uniform(0, (1, 1, turn, 1, turn, 1, turn),
                                            (300, 7))
    expected = (u[:, 0], u[:, 1] * np.exp(1j * u[:, 2]),
                u[:, 3] * np.exp(1j * u[:, 4]), u[:, 5] * np.exp(1j * u[:, 6]))
    for drawn, reference in zip(verify._domination_samples(seed), expected):
        assert np.array_equal(drawn, reference)


def test_pcg64_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        verify._pcg64_doubles(-1, 1)
    with pytest.raises(ValueError):
        np.random.default_rng(-1)


# ---------------------------------------------------------------------------
# the vectorised checks fail on a broken reduction
# ---------------------------------------------------------------------------

def test_lowered_majorant_fails_domination(monkeypatch, reduction, capsys):
    # the smallest sampled margin H - |9216 H3| is about 0.13; the endpoints
    # and the gap move with base, so every exact identity still holds and
    # only the domination samples see the fault
    lowered = reduction._replace(
        base=reduction.base - 1, endpoint_y1=reduction.endpoint_y1 - 1,
        endpoint_y0=reduction.endpoint_y0 - 1, gap=reduction.gap + 1)
    monkeypatch.setattr(verify, "build_h3_reduction", lambda: lowered)
    report = verify_h3(grid=4)
    assert report.details["capped_between_endpoints"] is True
    assert report.details["majorant_dominates_samples"] is False
    assert report.status == "failed" and report.details["failure"] == "oracle"
    assert main(["certify-h3", "--grid", "4"]) == 3
    assert "majorant_dominates_samples: False" in capsys.readouterr().out


def test_broken_grid_kernel_fails_the_oracle(monkeypatch, capsys):
    # a relative error of 1e-6 lifts the sampled maximum 1024 past the
    # oracle's 1024 (1 + 1e-9), yet stays inside the majorant's margin;
    # no exact step reads the kernel
    exact = verify._h3_param
    monkeypatch.setattr(verify, "_h3_param",
                        lambda *args: exact(*args) * (1 + 1e-6))
    report = verify_h3(grid=4)
    d = report.details
    for step in ("gap_is_target_minus_endpoint_y1", "certificate_succeeded",
                 "certificate_revalidated", "ycoef_nonnegative",
                 "capped_between_endpoints", "majorant_dominates_samples"):
        assert d[step] is True, step
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
    monkeypatch.setattr(verify, "h3_schwarz_poly", lambda w: F(-1023))
    report = verify_h3(grid=4)
    assert report.details["sharpness_w_z3_scaled"] == "-1023"
    assert report.details["failure"] == "certification"
    assert main(["certify-h3", "--grid", "4"]) == 2
    capsys.readouterr()


def test_h3_exact_failure_outranks_an_oracle_failure(monkeypatch, capsys):
    # the scaled kernel alone fails the grid oracle (see
    # test_broken_grid_kernel_fails_the_oracle); the wrong sharpness value
    # fails an exact step at the same time, and that decides the verdict
    exact = verify._h3_param
    monkeypatch.setattr(verify, "_h3_param",
                        lambda *args: exact(*args) * (1 + 1e-6))
    monkeypatch.setattr(verify, "h3_schwarz_poly", lambda w: F(-1023))
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


@pytest.mark.parametrize("patches, key, value", [
    ({"bound_above": lambda *args: F(1025)}, "endpoint_y0_bernstein_max", "1025"),
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


@pytest.mark.parametrize("name, stub, key, value", [
    ("h2_envelope", lambda p1: gft.h2_envelope(p1) + F(1, 1000),
     "endpoint_values", "WRONG"),
    ("hankel2", lambda a: F(-1, 5), "sharpness_w_z2", "-1/5"),
])
def test_each_h2_exact_step_decides_alone(monkeypatch, capsys, name, stub, key, value):
    monkeypatch.setattr(verify, name, stub)
    report = verify_h2()
    assert report.details[key] == value
    assert report.status == "failed" and report.details["failure"] == "certification"
    assert main(["verify-h2"]) == 2
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


@pytest.mark.parametrize("change, identity, cases", [
    # C's sign flips: -C >= 0 and -A + B - C = g1 both fail
    (lambda A, B, C, D, g1: (A, B, -C, D, g1), False, False),
    # g1 off by a constant: the identity fails, the signs still hold
    (lambda A, B, C, D, g1: (A, B, C, D, g1 + F(1, 1000)), False, True),
    # D vanishes: the normalization by |D| and |C1| >= 1 fail
    (lambda A, B, C, D, g1: (A, B, C, D * 0, g1), True, False),
])
def test_broken_slice_fails_verify_h2(monkeypatch, capsys, change, identity, cases):
    monkeypatch.setattr(verify, "_h2_slice", _slice_with(change))
    report = verify_h2()
    d = report.details
    assert (d["envelope_identity_exact"], d["case_conditions_hold"]) == (identity, cases)
    assert report.status == "failed" and d["failure"] == "certification"
    assert main(["verify-h2"]) == 2
    assert "status: failed" in capsys.readouterr().out


@pytest.mark.parametrize("flip_c, failure, code", [
    (False, "oracle", 3), (True, "certification", 2)])
def test_h2_exact_failure_outranks_an_oracle_failure(monkeypatch, capsys,
                                                     flip_c, failure, code):
    # a grid scaled by 1.5 samples gamma and eta outside the disk, which
    # lifts the oracle's maximum far past 1/4 while no exact step reads it
    grid = verify._polar_grid
    monkeypatch.setattr(verify, "_polar_grid", lambda *args: grid(*args) * 1.5)
    if flip_c:
        monkeypatch.setattr(verify, "_h2_slice", _slice_with(
            lambda A, B, C, D, g1: (A, B, -C, D, g1)))
    report = verify_h2()
    d = report.details
    assert d["oracle_max"] > 0.7
    assert d["envelope_identity_exact"] is not flip_c
    assert report.status == "failed" and d["failure"] == failure
    assert main(["verify-h2"]) == code
    assert f"failure: {failure}" in capsys.readouterr().out


def test_h2_envelope_must_decrease(monkeypatch):
    # g1 + p1^3/1000 - with -A + B - C moved to match - has a positive slope term
    bump = BiPoly.var_p() ** 3 * F(1, 1000)
    monkeypatch.setattr(verify, "_h2_slice", _slice_with(
        lambda A, B, C, D, g1: (A, B + bump, C, D, g1 + bump)))
    d = verify_h2().details
    assert d["envelope_identity_exact"] and d["case_conditions_hold"]
    assert d["envelope_strictly_decreasing"] is False and d["failure"] == "certification"


# ---------------------------------------------------------------------------
# the sample budget
# ---------------------------------------------------------------------------

def test_sample_counts_match_the_oracles(h2_report, h3_report):
    assert verify._h2_samples(32) == h2_report.details["oracle_samples"] == 540672
    assert verify._h3_samples(12) == h3_report.details["oracle_samples"] == 1257984
    assert verify._a4_samples(48, 60) == max_a4().samples == 3012732
    assert gft._phi_scan_samples(64, 64 * 64) == 64 * 256 + 4096 == 20480


# ---------------------------------------------------------------------------
# memory: the oracles never hold a whole grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("oracle, ceiling_mb", [
    (max_a4, 8), (verify_h3, 4),
    # 44,928 (gamma, eta) points per c1: only a blocked P, Q stage passes
    pytest.param(functools.partial(verify_h3, grid=24), 4, id="verify_h3_24-4")])
def test_oracle_peak_allocation(oracle, ceiling_mb, h3_report):
    # tracemalloc counts numpy buffers; evaluated whole, the grids peaked
    # at about 90 MB (max_a4) and 7 MB (verify_h3), in blocks at 2.3 MB
    # and 1.0 MB; at grid 24 verify_h3 peaks at 2.1 MB, and at 5.1 MB
    # with its P, Q stage held whole per c1.  h3_report has filled the
    # lazy caches.
    tracemalloc.start()
    try:
        oracle()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ceiling_mb * 2 ** 20
