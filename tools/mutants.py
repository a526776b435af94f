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
POLY = "src/starcert/poly.py"
VERIFY = "src/starcert/verify.py"
GFT = "src/starcert/gft.py"
ORACLES = "src/starcert/oracles.py"
CLI = "src/starcert/cli.py"
REDUCTION = "src/starcert/reduction.py"
SELF_TEST = "tests/test_mutants.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    equivalent: Optional[str] = None


MUTANTS = [
    # check_certificate and the corner estimate: a margin of exactly 0
    # accepted by the builder or by the checker
    Mutant("positive-leaf-min-zero", BERNSTEIN,
           "if lo <= 0:", "if lo < 0:"),
    Mutant("corner-margin-zero-build", BERNSTEIN,
           "if margin is not None and margin > 0:", "if margin is not None and margin >= 0:"),
    Mutant("corner-margin-zero-check", BERNSTEIN,
           "if margin <= 0:", "if margin < 0:"),
    Mutant("witness-outside-box", BERNSTEIN,
           'raise CertificateError("failure witness outside its box")', "pass"),
    # one side of the witness-in-box test dropped: only a witness above
    # p_hi and inside on x (_witness_above_p_hi) tells
    Mutant("witness-box-side", BERNSTEIN,
           "node.box.p_lo <= wp <= node.box.p_hi", "node.box.p_lo <= wp"),
    Mutant("failed-leaf-positive", BERNSTEIN,
           'raise CertificateError("failed leaf has positive enclosure")', "pass"),
    # the walk: children pushed in their own order are checked last child
    # first, so another fault than the first in pre-order is reported; a
    # failed leaf that leaves the verdict True
    Mutant("walk-order", BERNSTEIN,
           "stack += reversed(node.children)", "stack += node.children"),
    Mutant("failed-leaf-verdict", BERNSTEIN,
           "proved = False", "pass"),
    # corner_margin: the cross term split at 1/4 in place of 1/2, the tail
    # bounded with h^(i+j-3), a linear part let through, and a corner
    # whose x coordinate is not an end of the box
    Mutant("corner-cross-half", BERNSTEIN,
           "- abs(g.get((1, 1), 0))", "- abs(g.get((1, 1), 0)) // 2"),
    Mutant("corner-tail-power", BERNSTEIN,
           "hn ** (i + j - 2) * hd ** (k - i - j + 2)",
           "hn ** (i + j - 3) * hd ** (k - i - j + 3)"),
    Mutant("corner-linear-part", BERNSTEIN,
           "if (0, 0) in g or (1, 0) in g or (0, 1) in g:",
           "if (0, 0) in g:"),
    Mutant("corner-membership", BERNSTEIN,
           " or cx not in (x_ends[:2], x_ends[2:])", ""),
    # the checker's packed product: a field one bit short of the width
    # bound, or fields read without their bias
    Mutant("packed-width", BERNSTEIN,
           "(n + 1).bit_length() + 1) // 8)", "(n + 1).bit_length()) // 8)"),
    Mutant("packed-bias", BERNSTEIN,
           "(sum(map(mul, stage, row)) + bias)", "(sum(map(mul, stage, row)))"),
    # Box refuses an empty axis, in its constructor
    Mutant("box-degenerate", BERNSTEIN,
           "if not (pln * phd < phn * pld and", "if not (pln * phd <= phn * pld and"),
    # a Fraction view of a Box reading the other axis's ends, which the
    # witness-in-box test and the lattice witness read; on a square box
    # neither can tell.  test_corner_bcoeffs_interpolate kills it first, and
    # test_box_views_match_a_fraction_reference compares every view with
    # the ends it was given
    Mutant("box-view-axis", BERNSTEIN,
           "x_hi = property(lambda self: Fraction(*self._ends[1][2:]))",
           "x_hi = property(lambda self: Fraction(*self._ends[0][2:]))"),
    # the midpoint rule the builder and the checker share: a split at 2/3
    # still gives valid boxes, so only the checker's direct conversion of
    # each node can tell
    Mutant("quadrant-midpoint", BERNSTEIN,
           "ln * hd + hn * ld, 2 * ld * hd", "ln * hd + 2 * hn * ld, 3 * ld * hd"),
    # the integer ring: a sum's common-denominator scales swapped, and no
    # gcd, so results keep a common factor and equal polynomials can
    # store different pairs
    Mutant("sum-scale", POLY,
           "sa, sb = d // da, d // db", "sa, sb = d // db, d // da"),
    Mutant("canonical-gcd", POLY,
           "g = den if den == 1 else gcd(den, *chain.from_iterable(rows))", "g = 1"),
    # the capped-slice step both Hankel pipelines call: ycoef >= 0 or one
    # endpoint identity dropped; an endpoint whose largest coefficient
    # equals the target (H2's g1, exactly 1/4) sent to a certificate that
    # fails; an endpoint above the target accepted with its certificate
    # ignored, unchecked or failed
    Mutant("step-ycoef", VERIFY,
           "proven, cert, tops = ycoef_ok and capped, None, []",
           "proven, cert, tops = capped, None, []"),
    Mutant("step-e1-identity", VERIFY,
           "capped = e1 == base + ycoef + y2coef and e0", "capped = e0"),
    Mutant("step-e0-identity", VERIFY,
           " and e0 == base + ycoef + comp", ""),
    Mutant("step-strict-target", VERIFY,
           "if top > target:", "if top >= target:"),
    Mutant("step-uncertified", VERIFY,
           "proven = proven and cert.succeeded and recheck", "pass"),
    Mutant("step-succeeded", VERIFY,
           "and cert.succeeded and recheck", "and recheck"),
    Mutant("step-recheck", VERIFY,
           "cert.succeeded and recheck\n", "cert.succeeded\n"),
    # a re-check that raises escapes as a traceback in place of a
    # refused certificate
    Mutant("step-recheck-raises", VERIFY,
           "            except CertificateError:\n                recheck = False",
           "            except CertificateError:\n                raise"),
    # an H3 endpoint re-derived from the groups in place of its recorded
    # table: the identity check then compares the groups with themselves,
    # and only a slipped table (test_a_table_slip_fails_capped_between_endpoints)
    # can tell
    Mutant("h3-gap-from-groups", REDUCTION,
           "gap = BiPoly.from_terms(_GAP_TABLE)",
           "gap = MAJORANT_TARGET - (base + ycoef + y2coef)"),
    Mutant("h3-y0-from-groups", REDUCTION,
           "endpoint_y0 = BiPoly.from_terms(_ENDPOINT_Y0_TABLE)",
           "endpoint_y0 = base + ycoef + comp"),
    # verify_h3's exact conjunction, one step dropped at a time
    Mutant("h3-step", VERIFY,
           "exact = step_ok and sharp", "exact = sharp"),
    Mutant("h3-sharpness", VERIFY,
           " and sharp == -MAJORANT_TARGET", ""),
    # the H3 oracle's majorant domination on its grid: |P| alone in place
    # of the peak |P| + |Q| over the rho disk, a tolerance of 1e-3, and
    # each eta point matched with H on the wrong ring
    Mutant("domination-rho-disk", ORACLES,
           "np.abs(p) + np.abs(q)", "np.abs(p)"),
    Mutant("domination-tolerance", ORACLES,
           "maj_c1[gam_ring, eta_ring] + 1e-9", "maj_c1[gam_ring, eta_ring] + 1e-3"),
    Mutant("domination-eta-ring", ORACLES,
           "np.arange(eta.size) // eta_angles", "np.arange(eta.size) // gamma_angles"),
    # a coefficient of the H3 kernel: the scans only compare it with
    # itself, so only test_kernels_match_the_certified_formulas can tell
    Mutant("oracle-h3-kernel", ORACLES,
           "36 * c2 * c4", "35 * c2 * c4"),
    # the block loop every oracle runs, with its last partial block
    # dropped: test_sample_counts_match_the_oracles counts each oracle's
    # samples at grids whose last block is partial
    Mutant("oracle-last-block", ORACLES,
           "for start in range(0, n, step):", "for start in range(0, n - n % step, step):"),
    # the oracles reaching into the certified path: the module still
    # imports and every value is the same, so only the import-graph test
    # in tests/test_oracles.py can tell
    Mutant("oracle-imports-certified", ORACLES, "    import numpy as np\n",
           "    import numpy as np\n    from .gft import schwarz_parametrize\n"),
    # the BLAS cap left in the environment after numpy loads: only a fresh
    # process that starts with the variable unset can tell
    Mutant("blas-env-kept", ORACLES,
           '        del os.environ["OPENBLAS_NUM_THREADS"]', "        pass"),
    # verify_h2's exact conjunction: the group signs, the step, sharpness
    Mutant("h2-signs", VERIFY,
           "exact = signs_ok and step_ok", "exact = step_ok"),
    Mutant("h2-step", VERIFY,
           "signs_ok and step_ok and witness", "signs_ok and witness"),
    Mutant("h2-sharpness", VERIFY,
           " and witness == Fraction(-1, 4)", ""),
    # each verdict is stored once and read through one rule: the exit
    # codes of the two failure kinds swapped, a status read as "verified"
    # for a certification failure, and a scan that passes when any one of
    # its checks does
    Mutant("report-exit-swapped", CLI,
           '"certification": CERT_EXIT, "oracle": ORACLE_EXIT}',
           '"certification": ORACLE_EXIT, "oracle": CERT_EXIT}'),
    Mutant("report-status-oracle-only", VERIFY,
           'return "verified" if self.details["failure"] is None else "failed"',
           'return "failed" if self.details["failure"] == "oracle" else "verified"'),
    Mutant("phi-scan-any", GFT,
           "return all(self.checks.values())", "return any(self.checks.values())"),
    # the scan's checks and the Janowski disk test, each read from the
    # measured or given values: a bound let through, the tangency at
    # either point enough, and the disk's radius subtracted
    Mutant("phi-scan-modulus-bound", GFT,
           "self.min_modulus > 0.25", "self.min_modulus >= 0.25"),
    Mutant("phi-scan-ratio-bound", GFT,
           "self.max_starlike_ratio < 0.2", "self.max_starlike_ratio <= 0.2"),
    Mutant("phi-scan-tangency-or", GFT,
           "and abs(self.boundary_at_pi", "or abs(self.boundary_at_pi"),
    Mutant("janowski-disk-radius", GFT,
           "Fraction(5, 4)) + self.radius", "Fraction(5, 4)) - self.radius"),
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
