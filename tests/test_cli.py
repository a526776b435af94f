"""Command-line interface: output shapes, artifacts, exit codes."""
import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from starcert import bernstein, oracles, verify
from starcert.bernstein import UNIT_BOX, PositivityCertificate
from starcert.cli import _build_parser, _read_schwarz, main
from starcert.gft import ma_minda_scan
from starcert.poly import parse_poly_text
from starcert.verify import VerificationReport

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


@pytest.mark.parametrize("order", ["-3", "0"])
@pytest.mark.parametrize("schwarz", ["z", "z^2", "file"])
def test_expand_refuses_order_below_one(tmp_path, capsys, schwarz, order):
    if schwarz == "file":
        schwarz = tmp_path / "w.txt"
        schwarz.write_text("1/2 1/4\n")
    assert run(capsys, "expand", "--schwarz", str(schwarz), "--order", order) == (
        64, "", "starcert expand: order must be >= 1\n")


def test_schwarz_monomial_is_built_at_the_requested_order():
    assert _read_schwarz("z^1000000", 5).order == 5


@pytest.mark.parametrize("schwarz, order", [
    ("z", "1001"), ("z", "1000000000"), ("z^1000000000", "1000000000")])
def test_expand_refuses_order_above_cap_before_allocating(capsys, schwarz, order):
    # --order 2000 once ran 3.8 s into Python's integer-string limit
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, "expand", "--schwarz", schwarz, "--order", order)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (64, "", "starcert expand: order must be at most 1000\n")
    assert seconds < 1 and peak < 2 ** 20


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


def test_scan_phi_failed_check_exits_3(capsys, monkeypatch):
    # the circle's samples raised by 1: the minimum 2 still passes, the
    # tangency check does not
    real = oracles._boundary_distance
    monkeypatch.setattr(oracles, "_boundary_distance", lambda t: real(t) + 1)
    assert ma_minda_scan(16).passed is False
    code, out, _ = run(capsys, "scan-phi", "--grid", "16")
    assert code == 3
    assert out.count("  pass  ") == 5 and out.count("  FAIL  ") == 1
    assert "  FAIL  tangency_at_0_and_pi" in out


CLI_CALL = 'from starcert.cli import main; main(["scan-phi", "--grid", "8"])'
LIBRARY_CALL = "from starcert.gft import ma_minda_scan; ma_minda_scan(8)"
BLAS_PROBE = r"""
import os, sys
{call}
print(len(os.listdir("/proc/self/task")),
      os.environ.get("OPENBLAS_NUM_THREADS", "unset"), file=sys.stderr)
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs /proc/self/task to count threads")
@pytest.mark.parametrize("call, user_value", [
    (CLI_CALL, None), (CLI_CALL, "2"), (LIBRARY_CALL, None), (LIBRARY_CALL, "2")],
    ids=["None", "2", "library-None", "library-2"])
def test_numpy_subcommands_start_no_idle_blas_workers(call, user_value):
    # numpy loads with starcert.oracles, which caps the OpenBLAS pool for
    # the CLI and for library calls alike; it leaves the environment as it
    # found it, and a value the user set wins
    pytest.importorskip("numpy")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE.format(call=call)], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    count, value = proc.stderr.split()
    assert value == (user_value or "unset")
    if user_value is None:
        assert int(count) == 1


@pytest.mark.parametrize("argv", [
    ["expand", "--schwarz", "z"], ["radius"], ["janowski", "--A", "1/2", "--B", "-1/4"],
    ["bernstein", "--poly", "POLY", "--certify"]], ids=lambda argv: argv[0])
def test_a_closed_stdout_is_a_usage_error(tmp_path, argv):
    # the read end is closed before the child starts, so its first write
    # to stdout fails with EPIPE; that ends in one line and exit 64, not
    # in a traceback and exit 1
    poly = tmp_path / "f.poly"
    poly.write_text(POLY_TEXT)
    argv = [str(poly) if arg == "POLY" else arg for arg in argv]
    src = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from starcert.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert proc.returncode == 64
    assert proc.stderr == f"starcert {argv[0]}: cannot write stdout: Broken pipe\n"


def test_main_leaves_the_environment_as_it_found_it(capsys, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert main(["scan-phi", "--grid", "8"]) == 0
    assert main(["janowski", "--A", "1/4", "--B", "1/2"]) == 64
    assert dict(os.environ) == before


def test_verify_h2_json(tmp_path, capsys):
    path = tmp_path / "h2.json"
    code, out, _ = run(capsys, "verify-h2", "--json", str(path))
    assert code == 0 and "status: verified" in out
    doc = json.loads(path.read_text())
    assert doc["bound"] == "1/4" and doc["status"] == "verified"


@pytest.mark.parametrize("command", ["verify-h2", "certify-h3"])
@pytest.mark.parametrize("failure, status, exit_code", [
    (None, "verified", 0), ("certification", "failed", 2), ("oracle", "failed", 3)])
def test_one_failure_kind_gives_status_json_and_exit_code(
        tmp_path, capsys, monkeypatch, command, failure, status, exit_code):
    cert = bernstein.certify_positive(parse_poly_text(POLY_TEXT), UNIT_BOX, 3)
    report = VerificationReport("a claim", Fraction(1, 4),
                                {"oracle_max": 0.5, "failure": failure}, cert)
    monkeypatch.setattr(verify, "verify_h2", lambda grid: report)
    monkeypatch.setattr(verify, "verify_h3", lambda grid: report)
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, command, "--json", str(path))
    lines = out.splitlines()
    assert f"status: {status}" in lines and f"  failure: {failure}" in lines
    doc = json.loads(path.read_text())
    assert doc["status"] == status and doc["details"]["failure"] == failure
    assert code == exit_code


def test_certify_h3_writes_certificate(tmp_path, capsys):
    cert_path, json_path = tmp_path / "cert.json", tmp_path / "report.json"
    code, out, _ = run(capsys, "certify-h3", "--out", str(cert_path),
                       "--json", str(json_path))
    assert code == 0
    assert "leaves by status" in out
    cert = PositivityCertificate.from_json(cert_path.read_text())
    assert len(cert.leaves()) == 10
    doc = json.loads(json_path.read_text())
    assert doc["artifacts"] == [str(cert_path)]
    assert doc["details"]["certificate_leaves"] == 10


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


@pytest.mark.parametrize("mode", ["--certify", "--bound-above"])
def test_bernstein_refuses_bidegree_above_cap(tmp_path, capsys, mode):
    # one line asking for a 10^10-entry coefficient matrix
    path = tmp_path / "huge.poly"
    path.write_text("bidegree 100000 100000\n")
    code, out, err = run(capsys, "bernstein", "--poly", str(path), mode)
    assert code == 64 and out == ""
    assert err == ("starcert bernstein: bidegree (100000, 100000) exceeds "
                   "the cap of 256 per variable\n")


def test_bernstein_refuses_max_depth_above_cap(tmp_path, capsys):
    # p^2 + x^2: only the origin box subdivides, and --max-depth 500 once
    # ended in a RecursionError traceback
    path = tmp_path / "origin.poly"
    path.write_text("bidegree 2 2\n2 0 1\n0 2 1\n")
    code, out, err = run(capsys, "bernstein", "--poly", str(path), "--certify",
                         "--max-depth", "65")
    assert (code, out) == (64, "")
    assert err == "starcert bernstein: max_depth must be at most 64\n"


def test_bernstein_refuses_bound_depth_above_cap(tmp_path, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("converted before refusing the depth")
    monkeypatch.setattr(bernstein, "to_bernstein", no_work)
    path = tmp_path / "f.poly"
    path.write_text(POLY_TEXT)
    code, out, err = run(capsys, "bernstein", "--poly", str(path),
                         "--bound-above", "--depth", "13")
    assert (code, out) == (64, "")
    assert err == "starcert bernstein: depth must be at most 12\n"


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


def test_usage_errors_exit_64(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.poly").write_text(POLY_TEXT)
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
    with pytest.raises(SystemExit) as exc:
        main(["verify-h2", "--seed", "1"])  # the exact H2 chain draws nothing
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["certify-h3", "--max-depth", "3"])  # the tree's depth is fixed
    assert exc.value.code == 64
    capsys.readouterr()
    # reasons name the input as the user wrote it, never Python internals
    assert run(capsys, "bernstein", "--poly", "f.poly", "--bound-above",
               "--box", "0", "0", "0", "1") == (
        64, "", "starcert bernstein: degenerate box [0,0]x[0,1]\n")
    for spec in ("z^", "z^1.5"):
        assert run(capsys, "expand", "--schwarz", spec) == (
            64, "", f"starcert expand: --schwarz wants 'z', 'z^k' or a file; "
                    f"got '{spec}'\n")


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


HUGE_GRIDS = [
    ["verify-h2", "--grid", "100000"],
    ["certify-h3", "--grid", "100000"],
    ["max-a4", "--grid", "100000"],
    ["max-a4", "--refine", "10000000"],
    ["scan-phi", "--grid", "100000"],
]


@pytest.mark.parametrize("argv", HUGE_GRIDS)
def test_huge_grid_exits_64_before_allocating(capsys, argv):
    # max-a4 --grid 100000 once asked for 33,334 x 200,000 complex values.
    # The entry modules are imported before tracing starts, so the ceiling
    # counts the refused call alone, whichever test ran first.
    from starcert import gft, verify  # noqa: F401
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (64, "")
    assert err.startswith(f"starcert {argv[0]}: the grid asks for ")
    assert err.endswith(" samples, more than the budget of 1000000000\n")
    assert peak < 2 ** 20


REFUSED_PROBE = r"""
import json, sys
from starcert.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, "numpy" in sys.modules, "starcert.oracles" in sys.modules]))
"""


@pytest.mark.parametrize("argv", HUGE_GRIDS)
def test_huge_grid_exits_64_before_loading_numpy(argv):
    # in a fresh interpreter: each entry point checks its sample budget
    # before it imports the oracles, and with them numpy
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", REFUSED_PROBE, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert json.loads(proc.stdout) == [64, False, False]
    assert proc.stderr.startswith(f"starcert {argv[0]}: the grid asks for ")


def _readme_cli_calls() -> list:
    """The words of each `starcert` call in README's CLI block, with
    continued lines joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split()
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("starcert ")]


def test_readme_cli_flags_are_accepted_by_the_parser():
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    calls = _readme_cli_calls()
    assert {words[1] for words in calls} == set(subparsers)
    for words in calls:
        options = subparsers[words[1]]._option_string_actions
        for flag in (w.strip("[]") for w in words[2:] if w.lstrip("[").startswith("--")):
            assert flag in options, f"README: starcert {words[1]} {flag}"
