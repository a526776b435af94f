"""The benchmark workloads and the layer sweep of the traced run.

Every workload is a closed loop with one client: one operation at a time,
the next one started when the previous one returns.  ``items()`` is one
pass over the workload's seeded inputs; ``run(item)`` performs one
operation and ``check(item, result)`` returns the problems found against
answers that do not come from starcert.

paper-cli
    Each invocation of the README's ``starcert`` block, as a fresh
    process: what a reader of the paper runs.  Dominated by interpreter
    start-up, ``import starcert`` (numpy) and the float oracles.
recheck
    In-process ``from_json`` + ``check_certificate`` on certificates made
    during set-up, a seeded share of them tampered.  Exercises the
    power-to-Bernstein route of the checker and the JSON parser, and
    never subdivides.

De Casteljau subdivision (``certify_positive``, ``bound_above``) is timed
per layer, by the sweep of the traced run, on every workload.
"""
from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import gen

HERE = Path(__file__).resolve().parent
REF = HERE / "ref"

# the paper's constants and answers derived by hand, not by starcert
A2_A5 = "a2=1 a3=5/8 a4=7/24 a5=43/384"
A2_A5_Z3 = "a2=0 a3=0 a4=1/3 a5=0"
MAX_A4 = (2 / 3) * math.sqrt(8 / 31)   # max of t(1-t^2) - 7/24 t^3 on [0, 1]
Y0_BERNSTEIN_MAX = 910
README_POLY_MIN = Fraction(1, 50)      # 3p^2 - 2px + 3x^2 >= 0
README_POLY_BERNSTEIN_MAX = Fraction(201, 50)   # b_22 = 1/50 + 3 + 3 - 2


def radius_g(r: float) -> float:
    """The convexity functional g(r) in floats, written out independently."""
    return (1 - r - r * r / 4) - r * (1 + r / 2) / ((1 - r / 2) ** 2 * (1 - r * r))


def _grid_max(poly: dict, k: int) -> Fraction:
    pts = [Fraction(i, k) for i in range(k + 1)]
    return max(gen.peval(poly, p, x) for p in pts for x in pts)


class Outcome(NamedTuple):
    """One operation: wall and CPU time, peak RSS if it had its own process."""

    wall_ns: int
    cpu_ns: int
    rss_kb: Optional[int]
    result: object


def in_process(fn, *args) -> Outcome:
    c0, t0 = time.process_time_ns(), time.perf_counter_ns()
    result = fn(*args)
    t1, c1 = time.perf_counter_ns(), time.process_time_ns()
    return Outcome(t1 - t0, c1 - c0, None, result)


# ---------------------------------------------------------------------------
# paper-cli
# ---------------------------------------------------------------------------

def _lines(out: str) -> dict:
    """'key: value' lines of a report, keys stripped."""
    found = {}
    for line in out.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            found.setdefault(key.strip(), value.strip())
    return found


def _expect(problems: list, cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def _chk_expand(expected):
    def check(code, out, work):
        return [] if code == 0 and out.strip() == expected else \
            [f"expand: exit {code}, output {out.strip()!r}"]
    return check


def _chk_verify_h2(code, out, work):
    f, p = _lines(out), []
    _expect(p, code == 0 and f.get("status") == "verified", "verify-h2 not verified")
    _expect(p, f.get("bound", "").startswith("1/4 "), "verify-h2 bound != 1/4")
    _expect(p, f.get("sharpness_w_z2") == "-1/4", "H2 at w = z^2 != -1/4")
    _expect(p, int(f.get("oracle_samples", 0)) >= 10 ** 5, "too few H2 samples")
    _expect(p, float(f.get("oracle_max", 1)) <= 0.25 + 1e-9, "H2 oracle above 1/4")
    return p


def _chk_h3_report(code, out, p):
    f = _lines(out)
    _expect(p, code == 0 and f.get("status") == "verified", "certify-h3 not verified")
    _expect(p, f.get("bound", "").startswith("1/9 "), "certify-h3 bound != 1/9")
    _expect(p, f.get("certificate_leaves") == "10", "gap certificate leaves != 10")
    _expect(p, f.get("endpoint_y0_bernstein_max") == str(Y0_BERNSTEIN_MAX),
            "endpoint_y0 maximum != 910")
    _expect(p, f.get("sharpness_w_z3_scaled") == "-1024", "w = z^3 not sharp")


def _chk_certify_h3(code, out, work):
    p = []
    _chk_h3_report(code, out, p)
    return p


def _chk_certify_h3_out(code, out, work):
    p = []
    _chk_h3_report(code, out, p)
    path = work / "h3_cert.json"
    got = path.read_bytes() if path.exists() else b""
    _expect(p, got == (REF / "h3_cert.json").read_bytes(),
            "certificate JSON differs from perfbench/ref/h3_cert.json")
    _expect(p, got != b"" and len(gen.nodes(json.loads(got))) == 13,
            "gap certificate nodes != 13")
    return p


def _chk_certify_h3_json(code, out, work):
    p = []
    _chk_h3_report(code, out, p)
    path = work / "h3_report.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    _expect(p, doc.get("bound") == "1/9" and doc.get("status") == "verified",
            "report JSON does not state the verified bound 1/9")
    return p


def _chk_radius(gamma: Fraction, tol: float):
    def check(code, out, work):
        f, p = _lines(out), []
        m = re.fullmatch(r"\[(\S+), (\S+)\]", f.get("bracket", ""))
        if code != 0 or not m:
            return [f"radius: exit {code}, no bracket"]
        lo, hi = Fraction(m.group(1)), Fraction(m.group(2))
        g = float(gamma)
        _expect(p, Fraction(f.get("gamma", "nan")) == gamma, "radius: wrong gamma")
        _expect(p, 0 < hi - lo <= Fraction(tol), "radius: bracket wider than tol")
        _expect(p, radius_g(float(lo)) - g > 0 > radius_g(float(hi)) - g,
                "radius: no sign change of g - gamma over the bracket")
        return p
    return check


def _chk_max_a4(code, out, work):
    f = _lines(out)
    value = float(f.get("max |a4|", "0").split()[0])
    family = float(f.get("family argmax", "value=0").rsplit("value=", 1)[1])
    if code == 0 and abs(value - MAX_A4) < 1e-6 and abs(family - MAX_A4) < 1e-6:
        return []
    return [f"max-a4: exit {code}, {value} and {family} vs {MAX_A4:.9f}"]


def _chk_janowski(inside: bool):
    def check(code, out, work):
        verdict = _lines(out).get("verdict")
        ok = (code, verdict) == ((0, "inside") if inside else (2, "NOT inside"))
        return [] if ok else [f"janowski: exit {code}, verdict {verdict!r}"]
    return check


def _chk_scan_phi(code, out, work):
    passes = sum(1 for ln in out.splitlines() if ln.strip().startswith("pass "))
    ok = code == 0 and passes == 6 and "FAIL" not in out
    return [] if ok else [f"scan-phi: exit {code}, {passes} checks passed"]


_LEAF = re.compile(r"box=\[(\S+),(\S+)\]x\[(\S+),(\S+)\] min_coeff=(\S+)")


def _chk_bernstein_certify(code, out, work):
    poly = gen.read_poly((REF / "readme.poly").read_text())
    p = []
    _expect(p, code == 0 and "certificate: succeeded" in out,
            "README polynomial (>= 1/50) not certified")
    leaves = [tuple(Fraction(v) for v in m.groups()) for m in _LEAF.finditer(out)]
    _expect(p, bool(leaves), "no leaves printed")
    for p0, p1, x0, x1, low in leaves:
        corners = [gen.peval(poly, a, b) for a in (p0, p1) for b in (x0, x1)]
        _expect(p, 0 < low <= min(corners), f"leaf bound {low} on [{p0},{p1}]x[{x0},{x1}]")
    return p


def _chk_bernstein_bound(code, out, work):
    m = re.search(r": (\S+) = ", out)
    ok = code == 0 and m and Fraction(m.group(1)) == README_POLY_BERNSTEIN_MAX
    return [] if ok else [f"bernstein --bound-above: exit {code}, {out.strip()!r}"]


def readme_invocations(work: Path) -> list:
    """(subcommand, argv, checker) for each call in the README's CLI block.

    certify-h3 appears three times (plain, --out, --json), so it makes up
    3/14 of the calls and the 90th percentile falls near the middle of
    its band of latencies, not on the edge between two subcommands.
    """
    poly = str(REF / "readme.poly")
    return [
        ("expand", ["expand", "--schwarz", "z", "--order", "5"], _chk_expand(A2_A5)),
        ("expand", ["expand", "--schwarz", "z^3"], _chk_expand(A2_A5_Z3)),
        ("verify-h2", ["verify-h2"], _chk_verify_h2),
        ("certify-h3", ["certify-h3"], _chk_certify_h3),
        ("certify-h3", ["certify-h3", "--out", str(work / "h3_cert.json")],
         _chk_certify_h3_out),
        ("certify-h3", ["certify-h3", "--json", str(work / "h3_report.json")],
         _chk_certify_h3_json),
        ("radius", ["radius"], _chk_radius(Fraction(0), 1e-12)),
        ("radius", ["radius", "--gamma", "1/10"], _chk_radius(Fraction(1, 10), 1e-12)),
        ("max-a4", ["max-a4"], _chk_max_a4),
        ("janowski", ["janowski", "--A", "1/2", "--B", "-1/4"], _chk_janowski(True)),
        ("janowski", ["janowski", "--A", "1", "--B", "1/3"], _chk_janowski(False)),
        ("scan-phi", ["scan-phi"], _chk_scan_phi),
        ("bernstein", ["bernstein", "--poly", poly, "--certify"], _chk_bernstein_certify),
        ("bernstein", ["bernstein", "--poly", poly, "--bound-above"], _chk_bernstein_bound),
    ]


def numpy_import_ms(stderr: str):
    """Cumulative time of the first 'numpy' line of -X importtime output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[2].strip() == "numpy":
            return int(parts[1]) / 1000
    return None


class CliRunner:
    """Runs ``starcert`` in fresh processes with the checkout's sources."""

    def __init__(self, src: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("PYTHONSTARTUP", None)

    def spawn(self, argv: list, traced: bool) -> tuple:
        """(Outcome with result (exit code, stdout, stderr), spans or None)."""
        spans = self.work / "spans.json"
        if traced:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "child.py"),
                   "cli", str(spans)] + argv
            spans.unlink(missing_ok=True)
        else:
            cmd = [sys.executable, "-m", "starcert"] + argv
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = round((usage.ru_utime + usage.ru_stime) * 1e9)
        result = (proc.returncode, out_path.read_text(), err_path.read_text())
        data = json.loads(spans.read_text()) if traced and spans.exists() else None
        return Outcome(t1 - t0, cpu, usage.ru_maxrss, result), data


class PaperCli:
    name = "paper-cli"
    in_process = False

    def __init__(self, seed: int, smoke: bool, runner: CliRunner):
        self.runner = runner
        self.calls = readme_invocations(runner.work)

    def items(self) -> list:
        return list(range(len(self.calls)))

    def label(self, item) -> str:
        return "cli." + self.calls[item][0]

    def run(self, item, tracer=None) -> Outcome:
        sub, argv, _ = self.calls[item]
        for name in ("h3_cert.json", "h3_report.json"):
            (self.runner.work / name).unlink(missing_ok=True)
        if tracer is None:
            return self.runner.spawn(argv, traced=False)[0]
        with tracer.span("cli." + sub) as sid:
            outcome, data = self.runner.spawn(argv, traced=True)
        if data is not None:
            tracer.merge(data["spans"], sid, data["counts"])
        ms = numpy_import_ms(outcome.result[2])
        if ms is not None:
            tracer.note("cli.import_numpy_ms", ms)
        return outcome

    def check(self, item, result) -> list:
        code, out, _ = result
        return self.calls[item][2](code, out, self.runner.work)


# ---------------------------------------------------------------------------
# recheck
# ---------------------------------------------------------------------------

POSITIVE_DEPTH = 8
NEGATIVE_DEPTH = 3


def _ref_bipoly(name: str):
    from starcert.bernstein import BiPoly
    terms = gen.read_poly((REF / name).read_text())
    return terms, BiPoly.from_terms(terms)


class Recheck:
    """Per pass: 64 positive and 2 negative valley certificates, the
    paper's gap certificate, and 8 tampered copies of seeded ones.

    Every seed checks certificates of the same shapes (see gen.reflect);
    tampered copies stay near 10% because a check that stops at a seeded
    node takes a seeded share of the full time.
    """

    name = "recheck"
    in_process = True

    def __init__(self, seed: int, smoke: bool, runner=None):
        import starcert.bernstein as B
        self.B = B
        rng = random.Random(seed)
        npos, nneg, ntamper = (2, 1, 2) if smoke else (64, 2, 8)
        self.setup_problems: list = []
        docs = []
        for v in gen.positive_valleys(rng, npos) + gen.negative_valleys(rng, nneg):
            poly = B.BiPoly.from_terms(v.terms)
            depth = POSITIVE_DEPTH if v.positive else NEGATIVE_DEPTH
            text = B.certify_positive(poly, B.UNIT_BOX, depth).to_json()
            self.setup_problems += gen.check_valley_cert(json.loads(text), v)
            docs.append((text, poly, None, v.positive))
        gap_terms, gap = _ref_bipoly("gap.poly")
        gap_text = (REF / "h3_cert.json").read_text()
        self.setup_problems += gen.check_cert_doc(json.loads(gap_text), gap_terms)
        docs.append((gap_text, gap, B.CornerRule(0, 0), True))
        # expected: True (proof), False (honest failed tree), None (rejected)
        self.pool = list(docs)
        for _ in range(ntamper):
            text, poly, rule, _ = rng.choice(docs)
            self.pool.append((gen.tamper(text, rng)[0], poly, rule, None))

    def items(self) -> list:
        return list(range(len(self.pool)))

    def label(self, item) -> str:
        return "op.recheck" if self.pool[item][3] is not None else "op.recheck_tampered"

    def _recheck(self, text, poly, rule):
        cert = self.B.PositivityCertificate.from_json(text, rule)
        try:
            return self.B.check_certificate(poly, cert, self.B.UNIT_BOX)
        except self.B.CertificateError:
            return None

    def run(self, item, tracer=None) -> Outcome:
        text, poly, rule, _ = self.pool[item]
        return in_process(self._recheck, text, poly, rule)

    def count(self, tracer, item, result) -> None:
        if self.pool[item][3] is None:
            tracer.add("bernstein.tamper_attempted", 1)
            tracer.add("bernstein.tamper_rejected", int(result is None))

    def check(self, item, result) -> list:
        expected = self.pool[item][3]
        if result is expected:
            return []
        return [f"check_certificate gave {result}, expected {expected}"]


WORKLOADS = {w.name: w for w in (PaperCli, Recheck)}


# ---------------------------------------------------------------------------
# the layer sweep: every traced layer once, whatever the workload
# ---------------------------------------------------------------------------

def sweep_steps() -> list:
    """(label, call, check) steps; call() returns what check() inspects."""
    import starcert
    from starcert import bernstein as B, gft, radius, series, verify

    y0_terms, y0 = _ref_bipoly("endpoint_y0.poly")
    readme_terms, readme = _ref_bipoly("readme.poly")
    gap_terms, gap = _ref_bipoly("gap.poly")
    gap_text = (REF / "h3_cert.json").read_text()
    bounds: list = []
    y0_grid = []

    def member(order):
        f = series.member_from_schwarz(series.schwarz_monomial(1, order), order)
        return " ".join(f"a{k}={f.coeff(k)}" for k in range(2, 6))

    def radius_ok(gamma):
        res = radius.solve_radius(gamma, 1e-12)
        g = float(gamma)
        return (0 < res.bracket_hi - res.bracket_lo <= Fraction(1e-12)
                and radius_g(float(res.bracket_lo)) - g > 0
                > radius_g(float(res.bracket_hi)) - g)

    def bound(depth):
        value = B.bound_above(y0, B.UNIT_BOX, depth)
        if not y0_grid:
            y0_grid.append(_grid_max(y0_terms, 16))
        ok = y0_grid[0] <= value <= (bounds[-1] if bounds else Y0_BERNSTEIN_MAX)
        bounds.append(value)
        return ok and (depth > 0 or value == Y0_BERNSTEIN_MAX)

    def h3():
        rep = verify.verify_h3()
        cert = rep.certificate
        return (rep.verified and rep.bound == Fraction(1, 9)
                and cert.node_count() == 13 and len(cert.leaves()) == 10
                and cert.to_json() + "\n" == gap_text)

    def readme_roundtrip():
        cert = B.certify_positive(readme, B.UNIT_BOX, 3)
        text = cert.to_json()
        back = B.PositivityCertificate.from_json(text)
        return (cert.succeeded and B.check_certificate(readme, back, B.UNIT_BOX)
                and not gen.check_cert_doc(json.loads(text), readme_terms))

    def readme_shallow():
        # fails at depth 1, honestly: every witness value is >= 1/50
        doc = json.loads(B.certify_positive(readme, B.UNIT_BOX, 1).to_json())
        witnesses = [Fraction(n["witness"][2]) for n in gen.nodes(doc) if "witness" in n]
        return (bool(witnesses) and min(witnesses) >= README_POLY_MIN
                and not gen.check_cert_doc(doc, readme_terms))

    def gap_tampered(kind):
        text = gen.tamper(gap_text, random.Random(kind), kind)[0]
        cert = B.PositivityCertificate.from_json(text, B.CornerRule(0, 0))
        try:
            B.check_certificate(gap, cert, B.UNIT_BOX)
        except B.CertificateError:
            return True
        return False

    steps = [
        ("series.member_from_schwarz", lambda: member(5), lambda r: r == A2_A5),
        ("series.member_from_schwarz_o16", lambda: member(16), lambda r: r == A2_A5),
        ("radius.solve_radius", lambda: radius_ok(Fraction(0)), bool),
        ("radius.solve_radius", lambda: radius_ok(Fraction(1, 10)), bool),
        ("gft.janowski_check",
         lambda: gft.janowski_check(gft.JanowskiParams(Fraction(1, 2), Fraction(-1, 4)))[0],
         lambda r: r is True),
        ("gft.janowski_check",
         lambda: gft.janowski_check(gft.JanowskiParams(1, Fraction(1, 3)))[0],
         lambda r: r is False),
        ("gft.ma_minda_scan", lambda: gft.ma_minda_scan(64).passed, bool),
        ("verify.verify_h2",
         lambda: (lambda r: r.verified and r.bound == Fraction(1, 4)
                  and r.details["sharpness_w_z2"] == "-1/4")(verify.verify_h2()), bool),
        ("verify.verify_h3", h3, bool),
        ("verify.max_a4", lambda: abs(verify.max_a4().value - MAX_A4) < 1e-6, bool),
        ("reduction.build_h3_reduction",
         lambda: starcert.build_h3_reduction().endpoint_y0 == y0, bool),
    ]
    steps += [(f"bernstein.bound_above_d{d}", (lambda d=d: bound(d)), bool)
              for d in (0, 2, 4, 5, 6)]
    steps += [("bernstein.certify_positive", readme_roundtrip, bool),
              ("bernstein.certify_failed", readme_shallow, bool)]
    steps += [(f"bernstein.tamper_{kind}", (lambda kind=kind: gap_tampered(kind)), bool)
              for kind in ("bound", "box", "status", "margin")]
    return steps
