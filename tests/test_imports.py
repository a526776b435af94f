"""The package namespace and what each entry point loads."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starcert

MODULES = ("rationals", "series", "bernstein", "reduction", "radius", "gft",
           "verify")
# names the package exports that were once missing from every module's __all__
HISTORIC = ("UNIT_BOX", "DEFAULT_ORDER", "parse_rational", "format_rational",
            "as_fraction")

PROBE = r"""
import json, sys
loaded = lambda: "numpy" in sys.modules
modules = lambda: sorted(m for m in sys.modules if m.startswith("starcert"))
steps = []
import starcert
steps.append(("import starcert", loaded(), modules()))
import starcert.cli
steps.append(("import starcert.cli", loaded(), modules()))
for argv in (["expand", "--schwarz", "z"], ["radius"],
             ["janowski", "--A", "1/2", "--B", "-1/4"],
             ["bernstein", "--poly", sys.argv[1], "--bound-above"],
             ["scan-phi", "--grid", "8"], ["certify-h3", "--grid", "4"]):
    starcert.cli.main(argv)
    steps.append((argv[0], loaded(), "dataclasses" in sys.modules,
                  "numpy.random" in sys.modules))
print(json.dumps(steps))
"""


def _fresh(code: str, *args: str) -> str:
    """The last line a fresh interpreter prints, starcert from this checkout."""
    src = str(Path(starcert.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    return proc.stdout.splitlines()[-1]


def test_exact_subcommands_do_not_load_numpy(tmp_path):
    pytest.importorskip("numpy")
    poly = tmp_path / "f.poly"
    poly.write_text("bidegree 2 2\n2 0 3\n1 1 -2\n0 2 3\n0 0 1/50\n")
    steps = json.loads(_fresh(PROBE, str(poly)))
    assert steps[:2] == [
        ["import starcert", False, ["starcert"]],
        ["import starcert.cli", False,
         ["starcert", "starcert.cli", "starcert.rationals"]]]
    assert [step[:2] for step in steps[2:]] == [
        ["expand", False], ["radius", False], ["janowski", False],
        ["bernstein", False],
        # the probe itself sees numpy once a float scan runs
        ["scan-phi", True], ["certify-h3", True]]
    # no starcert class is a dataclass, so nothing loads dataclasses (and
    # with it inspect, ast, dis and tokenize)
    assert [step[2] for step in steps[2:6]] == [False] * 4
    # certify-h3 draws its domination samples without numpy.random, so it
    # is loaded only if numpy loads it itself, as numpy before 2.0 does
    numpy_loads_random = _fresh("import sys, numpy; print('numpy.random' in sys.modules)")
    assert steps[-1][3] is (numpy_loads_random == "True")


def test_every_public_name_resolves_through_the_package():
    names = [n for m in MODULES
             for n in importlib.import_module(f"starcert.{m}").__all__]
    assert set(HISTORIC) <= set(names)
    assert sorted(starcert.__all__) == sorted(names)
    for m in MODULES:
        module = importlib.import_module(f"starcert.{m}")
        assert getattr(starcert, m) is module
        for name in module.__all__:
            assert getattr(starcert, name) is getattr(module, name)
    namespace = {}
    exec("from starcert import *", namespace)
    assert set(names) <= set(namespace)
    with pytest.raises(AttributeError):
        starcert.no_such_name
