"""Mutation gate for the trusted path: every mutant below must be killed.

    python3 tools/mutants.py

Each mutant is one exact text replacement in one source file, which must
match exactly once.  The working tree is copied to a temporary directory;
for each mutant the replacement is made there, and the test suite runs with

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 FILES

FILES are the test files under tests/, the mutated module's own
tests/test_<module>.py first and the rest in name order, so most mutants
die in the first file.  tests/test_mutants.py is left out of these runs:
it checks that each mutant's text is in its source, which no mutated copy
passes.  A mutant is killed when that run fails.  The unmutated copy runs
first, the whole suite in its usual order, and must pass, or no mutant
result would mean anything.  Exit code 0 when every mutant is killed, 1
when any survives, 2 when the unmutated suite fails or a replacement does
not match exactly once.  Standard library only; the repository itself is
never modified.

A mutant that is equivalent to the original (no test can kill it) stays in
the list with its reason in ``equivalent``; it is not run.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".bench_out",
                                ".pytest_cache", "*.egg-info")

BERNSTEIN = "src/starcert/bernstein.py"
VERIFY = "src/starcert/verify.py"
GFT = "src/starcert/gft.py"
SELF_TEST = "tests/test_mutants.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    equivalent: Optional[str] = None


MUTANTS = [
    # check_certificate and the corner estimate
    Mutant("positive-leaf-min-zero", BERNSTEIN,
           "if lo <= 0:", "if lo < 0:"),
    Mutant("corner-margin-zero", BERNSTEIN,
           "return margin > 0, margin", "return margin >= 0, margin"),
    Mutant("witness-outside-box", BERNSTEIN,
           'raise CertificateError("failure witness outside its box")', "pass"),
    Mutant("failed-leaf-positive", BERNSTEIN,
           'raise CertificateError("failed leaf has positive enclosure")', "pass"),
    Mutant("corner-cross-half", BERNSTEIN,
           "abs(split.quad_px) / 2", "abs(split.quad_px) / 4"),
    Mutant("corner-tail-power", BERNSTEIN,
           "split.half_width ** (i + j - 2)", "split.half_width ** (i + j - 3)"),
    Mutant("corner-linear-part", BERNSTEIN,
           "if (0, 0) in g or (1, 0) in g or (0, 1) in g:",
           "if (0, 0) in g:"),
    # Box refuses an empty axis, in its constructor
    Mutant("box-degenerate", BERNSTEIN,
           "if not (pln * phd < phn * pld and", "if not (pln * phd <= phn * pld and"),
    # the midpoint rule the builder and the checker share: a split at 2/3
    # still gives valid boxes, so only the checker's direct conversion of
    # each node can tell
    Mutant("quadrant-midpoint", BERNSTEIN,
           "ln * hd + hn * ld, 2 * ld * hd", "ln * hd + 2 * hn * ld, 3 * ld * hd"),
    # verify_h3's exact conjunction, one step dropped at a time
    Mutant("h3-gap", VERIFY,
           "exact = (gap_ok and cert.succeeded", "exact = (cert.succeeded"),
    Mutant("h3-succeeded", VERIFY,
           "cert.succeeded and recheck", "recheck"),
    Mutant("h3-recheck", VERIFY,
           "recheck and y0_max", "y0_max"),
    Mutant("h3-endpoint-y0", VERIFY,
           "recheck and y0_max <= MAJORANT_TARGET\n", "recheck\n"),
    Mutant("h3-ycoef", VERIFY,
           "and ycoef_ok and endpoint_ok", "and endpoint_ok"),
    Mutant("h3-endpoints", VERIFY,
           "and ycoef_ok and endpoint_ok", "and ycoef_ok"),
    Mutant("h3-sharpness", VERIFY,
           "and endpoint_ok and sharp == -MAJORANT_TARGET)", "and endpoint_ok)"),
    # the PCG64 output that the domination draws reproduce: rotated left
    Mutant("pcg64-rotation", VERIFY,
           "x = (x >> rot | x << (64 - rot)) & _MASK64",
           "x = (x << rot | x >> (64 - rot)) & _MASK64"),
    # verify_h2's exact conjunction
    Mutant("h2-identity", VERIFY,
           "exact = (identity_ok and cases_ok", "exact = (cases_ok"),
    Mutant("h2-cases", VERIFY,
           "identity_ok and cases_ok and decreasing", "identity_ok and decreasing"),
    Mutant("h2-decreasing", VERIFY,
           "cases_ok and decreasing and endpoints_ok", "cases_ok and endpoints_ok"),
    Mutant("h2-endpoints", VERIFY,
           "decreasing and endpoints_ok", "decreasing"),
    Mutant("h2-sharpness", VERIFY,
           "\n             and witness == Fraction(-1, 4))", ")"),
    # the Y(A, B, C) lemma
    Mutant("y-max-r-edge", GFT,
           'return aA + aB - aC, "R.edge"', 'return aA + aB + aC, "R.edge"'),
    # the Caratheodory parametrization derived from the Schwarz one
    Mutant("p4-derived", GFT,
           "3 * c1 * c1 * c2", "2 * c1 * c1 * c2"),
]


def mutant_test_files(tree: Path, mutated: str) -> list:
    """The test files a mutant of ``mutated`` runs, in order: its module's
    own tests/test_<module>.py first, then the others by name, without
    SELF_TEST."""
    first = f"tests/test_{Path(mutated).stem}.py"
    rest = sorted(p.relative_to(tree).as_posix() for p in tree.glob("tests/test_*.py"))
    return ([first] if first in rest else []) + [
        f for f in rest if f not in (first, SELF_TEST)]


def _suite_passes(tree: Path, files: Sequence[str] = ()) -> bool:
    # no bytecode: a .pyc keyed by mtime and size could outlive a mutant
    # that keeps the file's size
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([*PYTEST, *files], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    for mutant in MUTANTS:
        count = (ROOT / mutant.path).read_text().count(mutant.old)
        if count != 1:
            print(f"{mutant.name}: {mutant.old!r} matches {count} times in "
                  f"{mutant.path}, not once")
            return 2

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        start = time.monotonic()
        if not _suite_passes(tree):
            print("the unmutated suite fails, so no mutant can be judged")
            return 2
        print(f"unmutated suite passes ({time.monotonic() - start:.1f} s)", flush=True)

        survivors = []
        for mutant in MUTANTS:
            if mutant.equivalent:
                print(f"equivalent  {mutant.name}: {mutant.equivalent}")
                continue
            path = tree / mutant.path
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            start = time.monotonic()
            killed = not _suite_passes(tree, mutant_test_files(tree, mutant.path))
            path.write_text(original)
            print(f"{'killed  ' if killed else 'SURVIVED'}  {mutant.name} "
                  f"({time.monotonic() - start:.1f} s)", flush=True)
            if not killed:
                survivors.append(mutant.name)
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survived"
          + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
