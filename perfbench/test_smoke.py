"""Smoke test of the benchmark: every workload at a tiny size, no timing gates.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs with --smoke, untraced and traced.  The test asserts
that every metric BENCHMARK.json names, and fail_ratio, is printed with
its unit and that no operation gave a wrong answer.
"""
import json
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][1] == m["unit"]
    assert printed["fail_ratio"] == (0.0, "1")


def test_refuses_to_run_without_sources():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "recheck", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    assert proc.returncode != 0 and proc.stdout == ""


def test_checks_catch_a_wrong_certificate():
    from starcert.bernstein import UNIT_BOX, BiPoly, certify_positive

    valley = gen.positive_valleys(random.Random(5), 1)[0]
    text = certify_positive(BiPoly.from_terms(valley.terms), UNIT_BOX, 8).to_json()
    doc = json.loads(text)
    assert gen.check_valley_cert(doc, valley) == []

    leaf = doc
    while leaf["children"]:
        leaf = leaf["children"][-1]
    leaf["min_bcoeff"] = str(Fraction(leaf["max_bcoeff"]) + 1)
    assert gen.check_valley_cert(doc, valley)

    for seed in range(20):
        assert json.loads(gen.tamper(text, random.Random(seed))[0]) != json.loads(text)
