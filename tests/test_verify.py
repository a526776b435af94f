"""End-to-end pipelines and their reports."""
import json
from fractions import Fraction

import pytest

from starcert.verify import (VerificationReport, a4_family, max_a4,
                             verify_h2, verify_h3)

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
    assert d["envelope_identity_exact_50"] and d["case_conditions_hold"]
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


def test_verify_h3(h3_report):
    assert h3_report.verified
    assert h3_report.bound == F(1, 9)
    d = h3_report.details
    assert d["certificate_succeeded"] and d["certificate_revalidated"]
    assert d["certificate_leaves"] == 10
    assert d["endpoint_y0_bernstein_max"] == "910"
    assert d["oracle_max_scaled"] <= 1024 * (1 + 1e-9)
    assert d["sharpness_w_z3_scaled"] == "-1024"


def test_verify_h3_certificate_attached(h3_report):
    cert = h3_report.certificate
    assert cert is not None and cert.succeeded
    # depth-3 tree: root + 3 internal + 10 leaves
    assert cert.root.depth() == 4
    assert len(cert.leaves()) == 10


def test_verify_h3_needs_enough_depth():
    with pytest.raises(ValueError):
        verify_h3(max_depth=2)


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
    assert abs(res.gamma) <= 1 + 1e-12 and abs(res.eta) <= 1 + 1e-12
    assert res.samples > 10 ** 5


def test_max_a4_validates_arguments():
    with pytest.raises(ValueError):
        max_a4(grid=4)
    with pytest.raises(ValueError):
        max_a4(refine=0)
