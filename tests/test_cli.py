"""Command-line interface: output shapes, artifacts, exit codes."""
import json

import pytest

from starcert.bernstein import PositivityCertificate
from starcert.cli import _read_schwarz, main

POLY_TEXT = "bidegree 2 2\n2 0 3\n1 1 -2\n0 2 3\n0 0 1/50\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_monomial(capsys):
    code, out, _ = run(capsys, "expand", "--schwarz", "z", "--order", "4")
    assert code == 0
    assert out.strip() == "a2=1 a3=5/8 a4=7/24"


def test_expand_power(capsys):
    code, out, _ = run(capsys, "expand", "--schwarz", "z^3", "--order", "5")
    assert code == 0
    assert out.strip() == "a2=0 a3=0 a4=1/3 a5=0"


def test_expand_coefficient_file(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("# w(z) = z/2 + z^2/4\n1/2 1/4\n")
    code, out, _ = run(capsys, "expand", "--schwarz", str(wfile), "--order", "3")
    assert code == 0
    assert out.startswith("a2=1/2 ")


def test_expand_bad_spec(capsys):
    code, _, err = run(capsys, "expand", "--schwarz", "q")
    assert code == 64
    assert err == ("starcert expand: --schwarz wants 'z', 'z^k' or a file; "
                   "cannot read q: No such file or directory\n")


def test_schwarz_monomial_is_built_at_the_requested_order():
    assert _read_schwarz("z^1000000", 5).order == 5


def test_radius_output(capsys):
    code, out, _ = run(capsys, "radius", "--gamma", "0/1")
    assert code == 0
    assert "0.3352784004" in out
    assert "bracket" in out


def test_radius_bad_gamma(capsys):
    code, _, err = run(capsys, "radius", "--gamma", "3/2")
    assert code == 64 and "radius" in err


def test_radius_decimal_gamma_is_exact(capsys):
    code, out, err = run(capsys, "radius", "--gamma", "0.5")
    assert code == 0 and err == ""
    assert out == run(capsys, "radius", "--gamma", "1/2")[1]


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_radius_rejects_nonfinite_tol(capsys, tol):
    code, out, err = run(capsys, "radius", f"--tol={tol}")
    assert code == 64 and out == ""
    assert "tol must be positive and finite" in err


def test_janowski_verdicts(capsys):
    code, out, _ = run(capsys, "janowski", "--A", "1/2", "--B", "-1/4")
    assert code == 0 and "inside" in out
    code, out, _ = run(capsys, "janowski", "--A", "1", "--B", "1/3")
    assert code == 2 and "NOT inside" in out


def test_janowski_bad_params(capsys):
    code, _, err = run(capsys, "janowski", "--A", "1/4", "--B", "1/2")
    assert code == 64


def test_scan_phi(capsys):
    code, out, _ = run(capsys, "scan-phi", "--grid", "24")
    assert code == 0
    assert out.count("pass") == 6 and "FAIL" not in out


def test_verify_h2_json(tmp_path, capsys):
    path = tmp_path / "h2.json"
    code, out, _ = run(capsys, "verify-h2", "--json", str(path))
    assert code == 0 and "status: verified" in out
    doc = json.loads(path.read_text())
    assert doc["bound"] == "1/4" and doc["status"] == "verified"


def test_certify_h3_writes_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify-h3", "--out", str(cert_path))
    assert code == 0
    assert "leaves by status" in out
    cert = PositivityCertificate.from_json(cert_path.read_text())
    assert len(cert.leaves()) == 10


def test_max_a4(capsys):
    code, out, _ = run(capsys, "max-a4", "--grid", "16", "--refine", "25")
    assert code == 0
    assert "0.33866" in out


def test_bernstein_certify_and_bound(tmp_path, capsys):
    poly = tmp_path / "f.poly"
    poly.write_text("bidegree 2 2\n2 0 3\n1 1 -2\n0 2 3\n0 0 1/50\n")
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "bernstein", "--poly", str(poly), "--certify",
                       "--max-depth", "3", "--out", str(out_path))
    assert code == 0 and "succeeded" in out
    assert out_path.exists()

    code, out, _ = run(capsys, "bernstein", "--poly", str(poly),
                       "--bound-above", "--depth", "1")
    assert code == 0 and "201/50" in out

    # insufficient depth: honest failure, exit 2
    code, out, _ = run(capsys, "bernstein", "--poly", str(poly), "--certify",
                       "--max-depth", "1")
    assert code == 2 and "FAILED" in out and "witness" in out


def test_bernstein_corner_flag(tmp_path, capsys):
    poly = tmp_path / "g.poly"
    # vanishes quadratically at the origin; tail small on [0,1/8]^2
    poly.write_text("bidegree 3 3\n2 0 5\n1 1 -2\n0 2 4\n3 0 -1\n0 3 -1\n")
    code, out, err = run(capsys, "bernstein", "--poly", str(poly),
                         "--box", "0", "1/8", "0", "1/8",
                         "--certify", "--corner", "0", "0")
    assert code == 0 and "corner_certified" in out
    # decimals are read exactly
    assert run(capsys, "bernstein", "--poly", str(poly),
               "--box", "0", "0.125", "0", ".125",
               "--certify", "--corner", "0.0", "0") == (code, out, err)


def test_bernstein_box_reads_decimals(tmp_path, capsys):
    poly = tmp_path / "f.poly"
    poly.write_text(POLY_TEXT)
    bound = ["bernstein", "--poly", str(poly), "--bound-above"]
    exact = run(capsys, *bound, "--box", "0", "1/2", "0", "1")
    assert exact[0] == 0 and "[0,1/2]x[0,1]" in exact[1]
    assert run(capsys, *bound, "--box", "0", "0.5", "0", "1") == exact


def test_bernstein_missing_poly(tmp_path, capsys):
    path = tmp_path / "nope.poly"
    code, out, err = run(capsys, "bernstein", "--poly", str(path), "--certify")
    assert code == 64 and out == ""
    assert err == (f"starcert bernstein: cannot read {path}: "
                   "No such file or directory\n")


@pytest.mark.parametrize("flags", [
    ["--bound-above", "--out", "x.json"],
    ["--bound-above", "--corner", "0", "0"],
    ["--bound-above", "--max-depth", "2"],
    ["--certify", "--depth", "4"],
])
def test_bernstein_refuses_flags_of_the_other_mode(tmp_path, capsys,
                                                   monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.poly").write_text(POLY_TEXT)
    code, out, err = run(capsys, "bernstein", "--poly", "f.poly", *flags)
    assert code == 64 and out == ""
    assert err == f"starcert bernstein: {flags[1]} does not apply to {flags[0]}\n"
    assert not (tmp_path / "x.json").exists()


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["bernstein", "--poly", "f.poly"])  # neither mode flag
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["radius", "--gamma", "1e999999999"])  # exponents are refused
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["bernstein", "--poly", "f.poly", "--bound-above",
              "--box", "0", "1e-1", "0", "1"])
    assert exc.value.code == 64


@pytest.mark.parametrize("argv", [
    ["verify-h2", "--json"],
    ["certify-h3", "--out"],
    ["certify-h3", "--json"],
    ["bernstein", "--poly", "f.poly", "--certify", "--out"],
    ["max-a4", "--grid", "16", "--refine", "1", "--json"],
])
def test_unwritable_output_path_exits_64(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.poly").write_text("bidegree 2 2\n2 0 3\n1 1 -2\n0 2 3\n0 0 1/50\n")
    target = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, *argv, str(target))
    assert code == 64
    assert err == f"starcert {argv[0]}: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("grid", ["0", "3"])
def test_certify_h3_rejects_small_grid(capsys, grid):
    code, out, err = run(capsys, "certify-h3", "--grid", grid)
    assert code == 64 and out == ""
    assert err == "starcert certify-h3: grid must be >= 4\n"


def test_certify_h3_smallest_grid(capsys):
    code, out, _ = run(capsys, "certify-h3", "--grid", "4")
    assert code == 0 and "oracle_samples: 23040" in out
