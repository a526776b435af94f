"""The mutation gate's list stays in step with the sources it mutates.

``tools/mutants.py`` runs the suite once per mutant, so it is not part of
the suite; these checks catch a stale mutant (one whose text no longer
matches its source exactly once) without running it.
"""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _gate():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_matches_its_source_once():
    mutants = _gate().MUTANTS
    for mutant in mutants:
        text = (ROOT / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
    names = [mutant.name for mutant in mutants]
    assert len(set(names)) == len(names)


def test_each_mutant_runs_its_module_tests_first_and_every_other_file():
    gate = _gate()
    every = {p.relative_to(ROOT).as_posix() for p in ROOT.glob("tests/test_*.py")}
    for mutant in gate.MUTANTS:
        files = gate.mutant_test_files(ROOT, mutant.path)
        assert files[0] == f"tests/test_{Path(mutant.path).stem}.py"
        assert len(files) == len(set(files))
        assert set(files) == every - {gate.SELF_TEST}
