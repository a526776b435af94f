"""Spans around the calls into each starcert module, kept in memory.

:func:`installed` replaces every public function of a starcert module
(its ``__all__``), and the certificate JSON methods, with a wrapper that
records a span: name, start, end, parent span and operation id.  The
replacement is made in every starcert module that bound the function by
name, so calls between modules (``verify_h3`` calling
``certify_positive``) and inside one (``certify_positive`` calling
``subdivide``) are recorded too.  Nothing in starcert is edited.

Wrappers also read counts off the results (certificate nodes, oracle
samples, bisections, JSON bytes).

Clock: ``time.perf_counter_ns``, which is CLOCK_MONOTONIC on Linux and so
comparable between the benchmark and the child processes it starts.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "series", "gft", "reduction", "bernstein", "radius",
          "verify", "rationals")

# called once per Fraction coefficient; a span each would swamp the trace
UNTRACED = {"rationals.as_fraction"}

# counts that keep their largest value instead of adding up
PEAKS = {"bernstein.max_depth_reached", "bernstein.coeff_max_bits"}


class Tracer:
    """Spans as tuples (id, name, start_ns, end_ns, parent_id, op_id)."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.values: dict = {}      # measurements that are not spans
        self.op = None
        self._stack: list = []
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def record(self, sid: int, name: str, start: int, end: int, parent) -> None:
        self.spans.append((sid, name, start, end, parent, self.op))

    @contextmanager
    def span(self, name: str):
        sid = self.new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.record(sid, name, start, end, parent)

    def note(self, name: str, value) -> None:
        self.values.setdefault(name, []).append(value)

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def merge(self, spans: list, parent: int, counts: dict) -> None:
        """Adopt spans recorded by a child process under span ``parent``."""
        remap = {span[0]: self.new_id() for span in spans}
        for sid, name, start, end, par, _ in spans:
            self.spans.append((remap[sid], name, start, end,
                               remap.get(par, parent), self.op))
        for name, value in counts.items():
            (self.peak if name in PEAKS else self.add)(name, value)


# ---------------------------------------------------------------------------
# naming and counting at the call boundary
# ---------------------------------------------------------------------------

def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _rational_bits(values) -> int:
    return max(max(q.numerator.bit_length(), q.denominator.bit_length())
               for q in values)


def cert_counts(tracer: Tracer, cert) -> None:
    nodes = [cert.root]
    for node in nodes:
        nodes.extend(node.children)
    tracer.add("bernstein.nodes", len(nodes))
    tracer.add("bernstein.leaves_failed",
               sum(1 for n in nodes if n.status == "failed"))
    tracer.peak("bernstein.max_depth_reached", cert.root.depth() - 1)
    values = []
    for n in nodes:
        values.extend(n.box.as_tuple())
        values += [n.min_bcoeff, n.max_bcoeff]
        if n.margin is not None:
            values.append(n.margin)
        if n.witness is not None:
            values.extend(n.witness)
    tracer.peak("bernstein.coeff_max_bits", _rational_bits(values))


def _name_bound_above(fn, args, kwargs, result):
    return f"bernstein.bound_above_d{_bound(fn, args, kwargs)['depth']}"


def _name_certify(fn, args, kwargs, result):
    return ("bernstein.certify_positive" if result.succeeded
            else "bernstein.certify_failed")


def _name_member(fn, args, kwargs, result):
    order = result.order
    return "series.member_from_schwarz" + ("" if order == 5 else f"_o{order}")


NAMERS = {
    "bernstein.bound_above": _name_bound_above,
    "bernstein.certify_positive": _name_certify,
    "series.member_from_schwarz": _name_member,
}

COUNTERS = {
    "bernstein.certify_positive": lambda t, a, r: cert_counts(t, r),
    "bernstein.from_json": lambda t, a, r: (cert_counts(t, r),
                                            t.add("bernstein.json_bytes", len(a[1]))),
    "bernstein.to_json": lambda t, a, r: t.add("bernstein.json_bytes", len(r)),
    "bernstein.subdivide": lambda t, a, r: t.add("bernstein.subdivide_calls", 1),
    "bernstein.to_bernstein": lambda t, a, r: t.add("bernstein.to_bernstein_calls", 1),
    "radius.solve_radius": lambda t, a, r: t.add("radius.bisections", r.iterations),
    "verify.verify_h2": lambda t, a, r: t.add("verify.h2_oracle_samples",
                                              r.details["oracle_samples"]),
    "verify.verify_h3": lambda t, a, r: t.add("verify.h3_oracle_samples",
                                              r.details["oracle_samples"]),
    "verify.max_a4": lambda t, a, r: t.add("verify.a4_samples", r.samples),
}


def _wrap(tracer: Tracer, name: str, fn):
    namer = NAMERS.get(name)
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.new_id()
        stack = tracer._stack
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.record(sid, name, start, time.perf_counter_ns(), parent)
            raise
        finally:
            stack.pop()
        end = time.perf_counter_ns()
        span_name = namer(fn, args, kwargs, result) if namer else name
        tracer.record(sid, span_name, start, end, parent)
        if counter is not None:
            counter(tracer, args, result)
        return result

    return traced


def _targets():
    """(span name, owner, attribute, original) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"starcert.{layer}")
        public = getattr(mod, "__all__", None) or [
            a for a in vars(mod) if not a.startswith("_")]
        for attr in public:
            fn = getattr(mod, attr)
            name = f"{layer}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and name not in UNTRACED):
                out.append((name, mod, attr, fn))
    cls = importlib.import_module("starcert.bernstein").PositivityCertificate
    out.append(("bernstein.to_json", cls, "to_json", cls.__dict__["to_json"]))
    out.append(("bernstein.from_json", cls, "from_json", cls.__dict__["from_json"]))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Route every public starcert call through ``tracer`` inside the block."""
    targets = _targets()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "starcert" or n.startswith("starcert."))]
    undo = []
    for name, owner, attr, orig in targets:
        if isinstance(orig, classmethod):
            owner_new = classmethod(_wrap(tracer, name, orig.__func__))
            undo.append((owner, attr, orig))
            setattr(owner, attr, owner_new)
            continue
        wrapped = _wrap(tracer, name, orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)
        if owner not in modules:
            undo.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# reading a trace
# ---------------------------------------------------------------------------

def self_times(spans: list) -> dict:
    """span id -> its duration minus the time its child spans cover (ns)."""
    own = {sid: end - start for sid, _, start, end, _, _ in spans}
    for sid, _, start, end, parent, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own
