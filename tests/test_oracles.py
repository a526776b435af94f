"""The float oracles: their independence from the certified path, and the
kernels the Hankel oracles share with their entry points."""
import ast
from pathlib import Path

import numpy as np

from starcert import oracles

SRC = Path(oracles.__file__).resolve().parent

# where starcert.oracles may be imported: each entry point checks its
# sample budget first, and nothing else in starcert reaches the oracles
ENTRY_POINTS = {("gft", "ma_minda_scan"), ("verify", "verify_h2"),
                ("verify", "verify_h3"), ("verify", "max_a4")}


def _imports(tree):
    """(module, enclosing function or None) for each import in a syntax
    tree.  A relative import is read as one from starcert, and
    ``from starcert import X`` as an import of starcert.X."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = ("starcert." * bool(child.level) + (child.module or "")).rstrip(".")
                if base == "starcert":
                    found.extend((f"starcert.{alias.name}", function)
                                 for alias in child.names)
                else:
                    found.append((base, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, None)
    return found


def _module_imports(name):
    return _imports(ast.parse((SRC / f"{name}.py").read_text()))


def test_the_import_reader_sees_each_form():
    tree = ast.parse("import numpy as np\n"
                     "from . import oracles, poly\n"
                     "def f():\n"
                     "    from .oracles import _h3_scan\n"
                     "    import starcert.oracles\n"
                     "    from starcert import oracles\n")
    assert _imports(tree) == [("numpy", None), ("starcert.oracles", None),
                              ("starcert.poly", None)] + [("starcert.oracles", "f")] * 3


def test_oracles_import_nothing_from_starcert():
    # the first standing rule: the oracles re-derive every formula, so a
    # fault in the certified chain cannot reach them
    imported = _module_imports("oracles")
    assert [name for name, _ in imported if name.split(".")[0] == "starcert"] == []
    assert imported.count(("numpy", None)) == 1


def test_only_the_entry_points_import_the_oracles_and_only_they_load_numpy():
    importers, numpy_owners = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for name, function in _module_imports(path.stem):
            if name == "starcert.oracles":
                importers.add((path.stem, function))
            if name.split(".")[0] == "numpy":
                numpy_owners.add((path.stem, function))
    assert importers == ENTRY_POINTS
    assert numpy_owners == {("oracles", None)}


def test_polar_grid_lists_its_points_ring_by_ring():
    # _h3_scan indexes the majorant on _h3_rings by k // (2 grid) for gamma
    # and k // grid for eta
    grid = 6
    _, gamma_radii, eta_radii = oracles._h3_rings(grid)
    gam = oracles._polar_grid(grid // 2 + 1, 2 * grid)
    eta = oracles._polar_grid(3, grid)
    assert np.allclose(np.abs(gam), gamma_radii[np.arange(gam.size) // (2 * grid), 0])
    assert np.allclose(np.abs(eta), eta_radii[np.arange(eta.size) // grid])


def test_h3_scan_holds_the_majorant_at_the_peak_over_the_rho_disk(reduction):
    c1, x, y = oracles._h3_rings(4)
    maj = reduction.majorant(c1, x, y)
    observed, samples, dominated = oracles._h3_scan(4, maj)
    assert dominated is True and samples == 23040
    assert observed <= 1024 * (1 + 1e-9)
    # H comes within 1e-12 of |P| + |Q| on much of the grid
    assert oracles._h3_scan(4, maj - 1e-4)[2] is False
    # comp (1 - |eta|^2) is the share of H that bounds the rho term: lowered
    # by 1e-4 of itself, H still dominates |P| at every point, and falls
    # short only of the peak |P| + |Q| over the closed rho disk
    share = reduction.comp.evaluate(c1, x) * (1 - y * y)
    assert oracles._h3_scan(4, maj - 1e-4 * share)[2] is False
