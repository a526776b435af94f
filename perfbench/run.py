"""starcert benchmark: seeded workloads with known-answer checks.

    python3 perfbench/run.py --workload {paper-cli,recheck} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere; the program measured is the starcert package under
``src/`` of the checkout that holds this file (nothing installed is used).
Workloads are described in workloads.py, metrics in BENCHMARK.json.

--trace 0  measures the end-to-end metrics with tracing off:
           setup_s      median over fresh interpreters, started before
                        and between the passes of the loop, of the time to
                        ``import starcert`` and run ``build_h3_reduction()``
           op_p50_ms, op_p90_ms, ops_per_s, cpu_ms_per_op, peak_rss_mb
                        over a closed loop of whole passes, about S
                        seconds long (at least 100 operations unless
                        --smoke)
--trace 1  measures the per-layer metrics: the loop runs whole passes
           for about S/2 seconds untraced, then the same passes traced
           (the difference in ops_per_s is the tracing overhead), then
           one traced pass over the workload's inputs (the counts) and a
           traced sweep that calls every layer once (so every layer has a
           timing on every workload).  Spans
           are written to .bench_out/trace-<workload>-<seed>.json.
--smoke    tiny inputs, for perfbench/test_smoke.py.

Every operation is checked against an answer that does not come from
starcert; fail_ratio is printed with the other metrics, ``failed`` counts
the operations with a wrong answer, and any failure makes the exit code 1.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_STARTS = 5       # fresh starts before the loop
SETUP_WARMUP = 2       # starts not counted: they fill the file cache
SETUP_PER_PASS = 2     # fresh starts after each pass of the timed loop
MIN_OPS = 100

END_TO_END = [("setup_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("ops_per_s", "1/s"), ("cpu_ms_per_op", "ms"),
              ("peak_rss_mb", "MB")]

CLI_SUBCOMMANDS = ("expand", "verify-h2", "certify-h3", "radius", "max-a4",
                   "janowski", "scan-phi", "bernstein")

# (metric, unit, span name): per-call median of that span's duration
SPAN_TIMES = (
    [(f"cli.{sub}_ms", "ms", f"cli.{sub}") for sub in CLI_SUBCOMMANDS]
    + [(f"{name}_ms", "ms", name) for name in (
        "reduction.build_h3_reduction", "verify.verify_h3", "verify.verify_h2",
        "verify.max_a4", "series.member_from_schwarz",
        "series.member_from_schwarz_o16", "radius.solve_radius",
        "gft.janowski_check", "gft.ma_minda_scan", "bernstein.subdivide",
        "bernstein.certify_positive", "bernstein.certify_failed",
        "bernstein.bound_above_d0", "bernstein.bound_above_d2",
        "bernstein.bound_above_d4", "bernstein.bound_above_d5",
        "bernstein.bound_above_d6", "bernstein.to_bernstein",
        "bernstein.check_certificate", "bernstein.from_json",
        "bernstein.to_json")])

COUNTS = [("verify.h2_oracle_samples", "count"), ("verify.h3_oracle_samples", "count"),
          ("verify.a4_samples", "count"), ("radius.bisections", "count"),
          ("bernstein.subdivide_calls", "count"), ("bernstein.to_bernstein_calls", "count"),
          ("bernstein.json_bytes", "bytes"), ("bernstein.nodes", "count"),
          ("bernstein.leaves_failed", "count"), ("bernstein.max_depth_reached", "count"),
          ("bernstein.coeff_max_bits", "bits")]


def per_layer_names() -> list:
    from tracing import LAYERS
    return ([("cli.import_ms", "ms"), ("cli.import_numpy_ms", "ms"),
             ("verify.h3_oracle_self_ms", "ms")]
            + [(m, u) for m, u, _ in SPAN_TIMES] + COUNTS
            + [("bernstein.tamper_rejected_ratio", "1")]
            + [(f"{layer}.self_ms", "ms") for layer in LAYERS]
            + [("trace.overhead_ops_per_s", "1/s")])


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit,
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke}


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted, and the problems found in them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def judge(self, label: str, check, *args) -> list:
        self.attempted += 1
        try:
            problems = check(*args)
        except Exception as exc:  # a malformed result is a wrong answer
            problems = [f"check raised {exc!r}"]
        self.failed += bool(problems)
        self.problems += [f"{label}: {p}" for p in problems]
        return problems


def setup_probes(n: int, tracer, warmup: int = 0) -> list:
    """Seconds to import starcert and build the reduction, per fresh start.

    ``warmup`` more starts go first and are not counted.

    With a tracer, every second start runs under -X importtime to time the
    numpy import; the others give cli.import_ms and the reduction spans.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for k in range(-warmup, n):
        importtime = tracer is not None and k % 2 == 1
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
            [str(HERE / "child.py"), "setup"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=120, check=True)
        stamp = json.loads(proc.stdout.strip().splitlines()[-1])
        if k < 0:
            continue
        times.append((stamp["built"] - stamp["start"]) / 1e9)
        if tracer is None:
            continue
        tracer.op = f"P{k}"
        if importtime:
            from workloads import numpy_import_ms
            ms = numpy_import_ms(proc.stderr)
            if ms is not None:
                tracer.note("cli.import_numpy_ms", ms)
        else:
            tracer.note("cli.import_ms", (stamp["imported"] - stamp["start"]) / 1e6)
            tracer.record(tracer.new_id(), "reduction.build_h3_reduction",
                          stamp["imported"], stamp["built"], None)
    return times


def loop(wl, tally: Tally, seed: int, seconds: float, min_ops: int,
         tracer=None, phase: str = "L", passes=None, after_pass=None) -> tuple:
    """Closed loop over whole passes of the workload's inputs.

    Each pass runs every input once, in an order shuffled by
    ``random.Random(seed)``, so two loops with the same seed run the same
    sequence.  Runs ``passes`` passes or, without it, whole passes until
    the run is nearest to ``seconds`` long and ``min_ops`` operations are
    done.  Checks run between operations, outside the timed calls, and
    ``after_pass()`` (if given) after each pass.  Returns (outcomes,
    passes run).
    """
    rng = random.Random(seed)
    outcomes = []
    start = time.perf_counter()
    cap = start + max(2 * seconds, 30)
    done = 0
    while True:
        order = wl.items()
        rng.shuffle(order)
        for item in order:
            label = wl.label(item)
            if tracer is not None:
                tracer.op = f"{phase}{len(outcomes)}"
            # a CLI call records its own span, around the child process
            with (tracer.span(label) if tracer is not None and wl.in_process
                  else nullcontext()):
                out = wl.run(item, tracer)
            outcomes.append(out)
            tally.judge(label, wl.check, item, out.result)
            if tracer is not None and hasattr(wl, "count"):
                wl.count(tracer, item, out.result)
        done += 1
        if after_pass is not None:
            after_pass()
        now = time.perf_counter()
        if passes is not None:
            if done >= passes:
                return outcomes, done
        elif ((now - start) * (1 + 0.5 / done) >= seconds
              and len(outcomes) >= min_ops) or now >= cap:
            # stopping now ends the run nearer to ``seconds`` than one more pass
            return outcomes, done


def quantile(values: list, q: float) -> float:
    """Linear-interpolated quantile of the sorted values (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(outcomes: list, setup_times: list, in_process: bool) -> dict:
    wall = [o.wall_ns / 1e6 for o in outcomes]
    if in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(o.rss_kb for o in outcomes)
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": quantile(wall, 0.5),
        "op_p90_ms": quantile(wall, 0.9),
        "ops_per_s": len(wall) / (sum(wall) / 1e3),
        "cpu_ms_per_op": sum(o.cpu_ns for o in outcomes) / 1e6 / len(outcomes),
        "peak_rss_mb": rss_kb / 1024,
    }


def ops_per_s(outcomes: list) -> float:
    return len(outcomes) / (sum(o.wall_ns for o in outcomes) / 1e9)


def layer_metrics(tracer, counted: set, overhead: float) -> dict:
    from tracing import LAYERS, self_times
    own = self_times(tracer.spans)
    durations: dict = {}
    for sid, name, start, end, _, _ in tracer.spans:
        durations.setdefault(name, []).append(end - start)
    out = {}
    for metric, _, name in SPAN_TIMES:
        out[metric] = statistics.median(durations[name]) / 1e6
    out["verify.h3_oracle_self_ms"] = statistics.median(
        own[sid] for sid, name, *_ in tracer.spans if name == "verify.verify_h3") / 1e6
    for name in ("cli.import_ms", "cli.import_numpy_ms"):
        out[name] = statistics.median(tracer.values[name])
    for name, _ in COUNTS:
        out[name] = tracer.counts.get(name, 0)
    out["bernstein.tamper_rejected_ratio"] = (
        tracer.counts["bernstein.tamper_rejected"]
        / tracer.counts["bernstein.tamper_attempted"])
    selfs = dict.fromkeys(LAYERS, 0)
    for sid, name, _, _, _, op in tracer.spans:
        layer = name.split(".", 1)[0]
        if layer in selfs and op is not None and op[0] in counted:
            selfs[layer] += own[sid]
    for layer, ns in selfs.items():
        out[f"{layer}.self_ms"] = ns / 1e6
    out["trace.overhead_ops_per_s"] = overhead
    return out


# ---------------------------------------------------------------------------

def run(args) -> int:
    if not (SRC / "starcert" / "__init__.py").is_file():
        print(f"perfbench: no starcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import starcert
    if Path(starcert.__file__).resolve().parent != SRC / "starcert":
        print(f"perfbench: imported starcert from {starcert.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads as W

    env = environment(args)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cli = W.CliRunner(SRC, work)
        wl = W.WORKLOADS[args.workload](args.seed, args.smoke, cli)
        tally = Tally()
        if getattr(wl, "setup_problems", None):
            tally.judge("setup", lambda: wl.setup_problems)
        starts = 3 if args.smoke else SETUP_STARTS
        min_ops = 0 if args.smoke else MIN_OPS
        passes = 1 if args.smoke else None

        if not args.trace:
            # fresh starts before and between passes, so that setup_s
            # samples the same stretch of time as the operations
            setup_times = setup_probes(starts, None, SETUP_WARMUP)
            outcomes, _ = loop(
                wl, tally, args.seed, args.seconds, min_ops, passes=passes,
                after_pass=lambda: setup_times.extend(
                    setup_probes(SETUP_PER_PASS, None)))
            metrics = end_to_end(outcomes, setup_times, wl.in_process)
            units = dict(END_TO_END)
            trace_doc = None
        else:
            tracer = tracing.Tracer()
            setup_probes(starts, tracer, SETUP_WARMUP)
            # the same passes, untraced then traced: the tracing overhead
            plain, done = loop(wl, tally, args.seed, args.seconds / 2, 0,
                               passes=passes)
            with tracing.installed(tracer):
                traced, _ = loop(wl, tally, args.seed, 0, 0, tracer, "L",
                                 passes=done)
                tracer.counts.clear()   # counts are of one pass and the sweep
                loop(wl, tally, args.seed, 0, 0, tracer, "C", passes=1)
                run_sweep(W, wl, cli, tally, tracer, args.seed)
            metrics = layer_metrics(tracer, {"C", "S"},
                                    ops_per_s(traced) - ops_per_s(plain))
            units = dict(per_layer_names())
            trace_doc = {"env": env, "spans": tracer.spans, "counts": tracer.counts,
                         "values": tracer.values}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace_doc is not None:
        trace_doc["metrics"] = metrics
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(trace_doc))
        print(f"spans: {path.relative_to(ROOT)} ({len(trace_doc['spans'])} spans)")

    failed = tally.failed
    for problem in tally.problems[:20]:
        print(f"WRONG {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"metric fail_ratio {failed / tally.attempted:.6g} 1")
    print(json.dumps({
        "correct": failed == 0, "attempted": tally.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_sweep(W, wl, cli, tally, tracer, seed: int) -> None:
    """One traced call into every layer; phase 'S' of the trace."""
    for k, (label, call, check) in enumerate(W.sweep_steps()):
        tracer.op = f"S{k}"
        with tracer.span("op." + label):
            try:
                result = call()
            except Exception as exc:
                result = exc
        tally.judge(label, lambda: [] if not isinstance(result, Exception)
                    and check(result) else [f"got {result!r}"])
        if label.startswith("bernstein.tamper_"):
            tracer.add("bernstein.tamper_attempted", 1)
            tracer.add("bernstein.tamper_rejected", int(result is True))
    if wl.name != "paper-cli":
        loop(W.PaperCli(0, True, cli), tally, seed, 0, 0, tracer, "S", passes=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-cli", "recheck"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
