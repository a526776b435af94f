"""Each narrative demo runs to the end and prints its key results."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starcert

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(starcert.__file__).resolve().parent.parent

# (demo, lines that must appear in its stdout, each with its count)
EXPECTED = [
    ("01_series_expansion.py",
     {"  w(z) = z       a2=1  a3=5/8  a4=7/24  a5=43/384": 1,
      "  a5: series 4519/129024  map 4519/129024   [ok]": 1}),
    ("02_hankel_bounds.py",
     {"status: verified": 2,
      "bound:  1/4 = 0.25": 1,
      "bound:  1/9 = 0.111111111111": 1,
      "  envelope_identity_exact: True": 1,
      "  ycoef_nonnegative: True": 2,
      "  capped_between_endpoints: True": 2,
      "certificate: 13 nodes, 10 leaves": 1}),
    ("03_bernstein_certificates.py",
     {"certificate succeeded: True (13 nodes, 10 leaves)": 1,
      "independent re-validation: passed": 1,
      "depth-1 attempt succeeded: False": 1}),
    ("04_radius_and_janowski.py",
     {"g = 0 at r = 0.335278400445787": 1,
      "  (A, B) = (1/2, -1/4): image disk center 6/5, radius 4/5 -> inside": 1,
      "  (A, B) = (1, 1/3): image disk center 3/4, radius 3/4 -> NOT inside": 1}),
    ("05_coefficient_maximum.py",
     {"max |a4| ~= 0.338667005   (3012732 samples)": 1,
      "one-variable family: value 0.338667005 at t = 0.508000508": 1}),
]


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == [d for d, _ in EXPECTED]


@pytest.mark.parametrize("demo, lines", EXPECTED, ids=[d for d, _ in EXPECTED])
def test_demo_runs(demo, lines):
    proc = subprocess.run([sys.executable, str(DEMOS / demo)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    out = proc.stdout.splitlines()
    for line, count in lines.items():
        assert out.count(line) == count, line
    if demo == "04_radius_and_janowski.py":
        assert sum(ln.startswith("  pass  ") for ln in out) == 6
        assert "FAIL" not in proc.stdout
