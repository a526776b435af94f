"""The float oracles: their independence from the certified path, their
formulas against the certified definitions, and the kernels the Hankel
oracles share with their entry points."""
import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np

from starcert import oracles
from starcert.gft import hankel2, hankel3, schwarz_parametrize, schwarz_to_coeffs
from starcert.reduction import HANKEL3_SCALE
from starcert.verify import verify_h3

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


def _h3_sizes(grid):
    """The grid sizes verify_h3 passes its oracle at ``grid``."""
    with mock.patch.object(oracles, "_h3_rings", wraps=oracles._h3_rings) as rings:
        verify_h3(grid)
    return rings.call_args.args[0]


def test_polar_grid_lists_its_points_ring_by_ring():
    # _h3_scan indexes the majorant on _h3_rings by k // (gamma angles) for
    # gamma and k // (eta angles) for eta
    sizes = _h3_sizes(6)
    assert sizes == (7, 4, 12, 3, 6, 2, 8)
    _, gamma_radii, eta_radii = oracles._h3_rings(sizes)
    gam = oracles._polar_grid(*sizes[1:3])
    eta = oracles._polar_grid(*sizes[3:5])
    assert np.allclose(np.abs(gam), gamma_radii[np.arange(gam.size) // sizes[2], 0])
    assert np.allclose(np.abs(eta), eta_radii[np.arange(eta.size) // sizes[4]])


def test_h3_scan_holds_the_majorant_at_the_peak_over_the_rho_disk(reduction):
    sizes = _h3_sizes(4)
    c1, x, y = oracles._h3_rings(sizes)
    maj = reduction.majorant(c1, x, y)
    observed, samples, dominated = oracles._h3_scan(sizes, maj)
    assert dominated is True and samples == 23040
    assert observed <= 1024 * (1 + 1e-9)
    # H comes within 1e-12 of |P| + |Q| on much of the grid
    assert oracles._h3_scan(sizes, maj - 1e-4)[2] is False
    # comp (1 - |eta|^2) is the share of H that bounds the rho term: lowered
    # by 1e-4 of itself, H still dominates |P| at every point, and falls
    # short only of the peak |P| + |Q| over the closed rho disk
    share = reduction.comp.evaluate(c1, x) * (1 - y * y)
    assert oracles._h3_scan(sizes, maj - 1e-4 * share)[2] is False


# ---------------------------------------------------------------------------
# the re-derived formulas agree with the certified definitions
# ---------------------------------------------------------------------------

FORMULA_SEED = 20261022


def _coeffs(c1, gamma, eta, rho):
    """a2..a5 through the certified path, at one point."""
    return schwarz_to_coeffs(schwarz_parametrize(c1, (gamma, eta, rho)))


def test_kernels_match_the_certified_formulas():
    # the oracles call no certified code, so only this comparison ties a
    # kernel's coefficients to hankel3 and schwarz_to_coeffs; every fourth
    # point of each disk sits on the unit circle
    rng = np.random.default_rng(FORMULA_SEED)
    n = 256
    c1 = rng.uniform(0, 1, n)
    gam, eta, rho = (np.where(np.arange(n) % 4 == 0, 1.0, rng.uniform(0, 1, n))
                     * np.exp(1j * rng.uniform(0, 2 * math.pi, n)) for _ in range(3))
    h3 = oracles._h3_param(c1, gam, eta, rho)
    a4 = oracles._a4(c1, gam, eta)
    for k in range(n):
        a = _coeffs(float(c1[k]), complex(gam[k]), complex(eta[k]), complex(rho[k]))
        ref = HANKEL3_SCALE * hankel3(a)
        assert abs(h3[k] - ref) <= 1e-12 * max(1, abs(ref)), k
        assert abs(a4[k] - a[2]) <= 1e-12 * max(1, abs(a[2])), k


def test_h2_scan_matches_the_certified_determinant():
    sizes = (8, 3, 8, 3, 16)
    observed, _ = oracles._h2_scan(sizes)
    gam = oracles._polar_grid(*sizes[1:3])
    eta = oracles._polar_grid(*sizes[3:])
    ref = max(abs(hankel2(_coeffs(float(p1) / 2, complex(g), complex(e), 0)))
              for p1 in np.linspace(0.0, 2.0, sizes[0]) for g in gam for e in eta)
    assert abs(observed - ref) <= 1e-12 * ref
