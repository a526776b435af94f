"""Fresh-interpreter probes that perfbench/run.py starts as child processes.

    python3 perfbench/child.py setup
        Imports starcert, then calls build_h3_reduction(), and prints the
        perf_counter_ns readings before, between and after as JSON.

    python3 perfbench/child.py cli SPANS ARG...
        Runs ``starcert ARG...`` as ``python3 -m starcert`` would, with
        every public starcert call traced (see tracing.py), writes the
        spans and counts to SPANS as JSON, and exits with the command's
        exit code.

Run under ``python3 -X importtime`` to let the parent read the time spent
importing numpy from standard error.
"""
import json
import sys
import time


def _setup() -> int:
    start = time.perf_counter_ns()
    import starcert
    imported = time.perf_counter_ns()
    starcert.build_h3_reduction()
    built = time.perf_counter_ns()
    print(json.dumps({"start": start, "imported": imported, "built": built}))
    return 0


def _cli(spans_path: str, argv: list) -> int:
    from tracing import Tracer, installed

    tracer = Tracer()
    start = time.perf_counter_ns()
    import starcert.cli
    tracer.record(tracer.new_id(), "cli.import", start, time.perf_counter_ns(),
                  None)
    try:
        with installed(tracer):
            code = starcert.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        raise SystemExit(_setup())
    raise SystemExit(_cli(sys.argv[2], sys.argv[3:]))
