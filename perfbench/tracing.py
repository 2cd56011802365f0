"""Spans around the package's layers, recorded from outside the package.

`install` rebinds the names that `shinglesync.stringrecon` and
`shinglesync.setrecon` look up at call time (module functions, and classes
whose traced subclasses time one method), so no package file changes.  Each
span keeps its wall interval and the CPU time of the thread that ran it
(`time.thread_time`).  The two parties of a session share one interpreter
lock, so a span's wall time also covers whatever the other party ran
meanwhile; per-layer busy time is therefore per-thread CPU.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass

from shinglesync import setrecon, stringrecon
from shinglesync.transport import FrameKind

ROOT = "session"

# span name -> per-layer CPU metric that receives its self time
LAYER_CPU = {
    "setrecon.eval": "setrecon.eval_cpu_s",
    "setrecon.feed": "setrecon.feed_cpu_s",
    "setrecon.encode": "setrecon.encode_cpu_s",
    "setrecon.roots": "setrecon.roots_cpu_s",
    "setrecon.fixed": "setrecon.fixed_cpu_s",
    "field.interp": "field.interp_cpu_s",
    "field.find_roots": "field.find_roots_cpu_s",
    "decider.merge": "decider.merge_cpu_s",
    "shingles": "shingles.cpu_s",
    "stringrecon.seams": "stringrecon.seams_cpu_s",
    "stringrecon.pack": "stringrecon.pack_cpu_s",
    "stringrecon.unpack": "stringrecon.unpack_cpu_s",
    "stringrecon.rebuild": "stringrecon.rebuild_cpu_s",
    "debruijn.decode": "debruijn.decode_cpu_s",
    "transport.send": "transport.send_cpu_s",
    "transport.recv": "transport.recv_cpu_s",
}


@dataclass
class Span:
    name: str
    wall_start: float
    wall_end: float
    cpu_s: float
    parent: int  # index of the enclosing span in the same party's list, -1 for a root


class Tracer:
    """In-memory spans and counters, kept per (session, party).

    Each party runs in one thread and writes only its own list and counter,
    so the two threads never update a shared structure.
    """

    def __init__(self):
        self.spans: dict[tuple[int, str], list[Span | None]] = {}
        self.counts: dict[tuple[int, str], Counter] = {}
        self._local = threading.local()

    def bind(self, session: int, party: str) -> None:
        """Record the calling thread's spans and counts under a session and a party."""
        local = self._local
        local.stack = []
        local.spans = self.spans[(session, party)] = []
        local.counts = self.counts[(session, party)] = Counter()

    def count(self, name: str, amount: int = 1) -> None:
        self._local.counts[name] += amount

    def wrap(self, name, fn):
        """`fn` with every call recorded as a span called `name`."""

        def traced(*args, **kwargs):
            local = self._local
            spans, stack = local.spans, local.stack
            index = len(spans)
            spans.append(None)  # filled in when the call returns
            parent = stack[-1] if stack else -1
            stack.append(index)
            wall0 = time.perf_counter()
            cpu0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu1 = time.thread_time()
                wall1 = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, wall0, wall1, cpu1 - cpu0, parent)

        return traced

    def trace_endpoint(self, endpoint) -> None:
        """Time one endpoint's send and recv and count the frames it sends."""
        send = self.wrap("transport.send", endpoint.send)

        def counted_send(frame):
            self.count("transport.frames")
            if frame.kind == FrameKind.DELTA_REQ:
                self.count("transport.round_trips")
            return send(frame)

        endpoint.send = counted_send
        endpoint.recv = self.wrap("transport.recv", endpoint.recv)

    def session_counts(self, session: int) -> Counter:
        out: Counter = Counter()
        for (sid, _party), counts in self.counts.items():
            if sid == session:
                out.update(counts)
        return out

    def session_layers(self, session: int) -> dict[str, float]:
        """CPU self time per layer, session CPU and recv wait for one session,
        summed over both parties."""
        out = {metric: 0.0 for metric in LAYER_CPU.values()}
        out["session.cpu_s"] = 0.0
        out["session.unattributed_cpu_s"] = 0.0
        out["transport.recv_wait_s"] = 0.0
        for (sid, _party), spans in self.spans.items():
            if sid != session:
                continue
            child_cpu: Counter = Counter()
            for s in spans:
                if s.parent >= 0:
                    child_cpu[s.parent] += s.cpu_s
            for i, s in enumerate(spans):
                self_cpu = s.cpu_s - child_cpu[i]
                if s.name == ROOT:
                    out["session.cpu_s"] += s.cpu_s
                    out["session.unattributed_cpu_s"] += self_cpu
                else:
                    out[LAYER_CPU[s.name]] += self_cpu
                if s.name == "transport.recv":
                    out["transport.recv_wait_s"] += s.wall_end - s.wall_start
        return out

    def write(self, path) -> None:
        """Write every finished span as one JSON object per line."""
        with open(path, "w") as fh:
            for (session, party), spans in self.spans.items():
                for index, s in enumerate(spans):
                    if s is not None:  # None: the call never returned
                        row = {"session": session, "party": party, "index": index, **asdict(s)}
                        fh.write(json.dumps(row) + "\n")


def _counted(fn, counter):
    """`fn` that first hands its arguments to `counter`."""

    def call(*args, **kwargs):
        counter(*args)
        return fn(*args, **kwargs)

    return call


def _subclass(base: type, methods: dict) -> type:
    return type("Traced" + base.__name__, (base,), methods)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Rebind the traced names for the duration of the block."""
    wrap, count = tracer.wrap, tracer.count
    sr = stringrecon

    def source_mults(source, n_pairs):
        count("setrecon.eval_mults", n_pairs * len(source.elements))

    def feed_mults(decoder, *_):
        if decoder.result is None:
            count("setrecon.eval_mults", len(decoder.elements))

    def bundle_mults(elements, points, _field):
        count("setrecon.eval_mults", len(elements) * len(points))

    def interp_call(*_):
        count("field.interp_calls")

    def interp(fn):
        return _counted(wrap("field.interp", fn), interp_call)

    graph = sr.DeBruijnGraph
    bindings = {
        sr: {
            "shingle_sequence": wrap("shingles", sr.shingle_sequence),
            "merge_until_ud": wrap("decider.merge", sr.merge_until_ud),
            "seams_to_records": wrap("stringrecon.seams", sr.seams_to_records),
            "encode_merges": wrap("stringrecon.pack", sr.encode_merges),
            "decode_merges": wrap("stringrecon.unpack", sr.decode_merges),
            "apply_merge_records": wrap("stringrecon.rebuild", sr.apply_merge_records),
            "DeBruijnGraph": _subclass(graph, {
                "build": classmethod(wrap("debruijn.decode", graph.build.__func__)),
                "decode_unique": wrap("debruijn.decode", graph.decode_unique),
            }),
            "reconcile_fixed": wrap("setrecon.fixed", sr.reconcile_fixed),
            "roots_by_candidates": wrap("setrecon.roots", sr.roots_by_candidates),
            "RatelessSource": _subclass(sr.RatelessSource, {
                "next_pairs": _counted(wrap("setrecon.eval", sr.RatelessSource.next_pairs), source_mults),
            }),
            "RatelessDecoder": _subclass(sr.RatelessDecoder, {
                "feed": _counted(wrap("setrecon.feed", sr.RatelessDecoder.feed), feed_mults),
            }),
            "ShingleCodec": _subclass(sr.ShingleCodec, {
                "encode_multiset": wrap("setrecon.encode", sr.ShingleCodec.encode_multiset),
            }),
            # the pairs that go on the wire: rateless batches and the fixed bundle
            "encode_pairs": _counted(sr.encode_pairs, lambda pairs: count("setrecon.pairs", len(pairs))),
            "encode_bundle": _counted(
                sr.encode_bundle, lambda bundle: count("setrecon.pairs", len(bundle.points))
            ),
        },
        setrecon: {
            "eval_bundle": _counted(wrap("setrecon.eval", setrecon.eval_bundle), bundle_mults),
            "roots_by_candidates": wrap("setrecon.roots", setrecon.roots_by_candidates),
            "find_roots": wrap("field.find_roots", setrecon.find_roots),
            "interpolate_rational": interp(setrecon.interpolate_rational),
            "interpolate_rational_gauss": interp(setrecon.interpolate_rational_gauss),
            "rational_from_modulus": interp(setrecon.rational_from_modulus),
            "NewtonInterpolator": _subclass(setrecon.NewtonInterpolator, {
                "add_point": interp(setrecon.NewtonInterpolator.add_point),
            }),
        },
    }
    saved = {mod: {name: getattr(mod, name) for name in names} for mod, names in bindings.items()}
    try:
        for mod, names in bindings.items():
            for name, value in names.items():
                setattr(mod, name, value)
        yield tracer
    finally:
        for mod, names in saved.items():
            for name, value in names.items():
                setattr(mod, name, value)
