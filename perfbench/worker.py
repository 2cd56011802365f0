"""One workload of the benchmark, run in its own process by run.py.

Sessions are complete two-party `run_protocol` runs over an in-process
`channel_pair`, one thread per party, closed loop with one session in flight.
Every run also feeds the streaming decider two 10^6-symbol streams over 16
symbols, so the decider's per-symbol cost is measured next to each session
cell.  Every session and every stream passes its correctness gates or counts
as failed.

    python3 perfbench/worker.py --workload edit-4k --seed 1 --seconds 10 --trace 0

prints one JSON object of raw results as its last line.  `--setup-only`
builds the inputs and exits; run.py times that as the set-up.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from shinglesync import (  # noqa: E402
    Alphabet,
    ReconConfig,
    UdDecider,
    bigram_map,
    channel_pair,
    decoding_count,
    random_edits,
    recommend_shingle_len,
    run_protocol,
)
from shinglesync.stringrecon import MODE_FIXED, MODE_RATELESS  # noqa: E402

import clock  # noqa: E402
import tracing  # noqa: E402

SYMBOLS = "01"
SIGMA = 16  # decider alphabet size
DECIDER_N = 10**6  # symbols per decider stream
MIN_DECIDER_PASSES = 8  # per run, however long its sessions take
SESSION_DEADLINE_S = 90.0  # a session still running after this counts as failed
BIT_BIAS = 0.6  # fed to the paper's shingle-length rule
K = 8  # verification points


@dataclass(frozen=True)
class Workload:
    n: int
    alpha: int
    mode: str
    sessions: int  # per untraced run; fixed, so a seed always sees the same inputs
    m_hat: int = 64

    @property
    def l(self) -> int:
        return recommend_shingle_len(self.n, BIT_BIAS)


# The reasons for each cell are recorded in BENCHMARK.json.  Session counts
# fill 25-30 s at the seed commit's speed on a 2-vCPU Xeon.
WORKLOADS = {
    "edit-4k": Workload(n=4096, alpha=16, mode=MODE_RATELESS, sessions=7),
    "edit-16k": Workload(n=16384, alpha=1, mode=MODE_RATELESS, sessions=6),
    # m_hat covers the worst-case difference 2 * alpha * (l + 1) = 152
    "fixed-4k": Workload(n=4096, alpha=4, mode=MODE_FIXED, sessions=12, m_hat=256),
}


@dataclass(frozen=True)
class SessionInput:
    word_a: str
    word_b: str
    config: ReconConfig
    alpha: int


def session_input(workload: Workload, name: str, seed: int, index: int) -> SessionInput:
    """The `index`-th session of a run; the same (name, seed, index) gives the same input."""
    rng = random.Random(f"{name}:{seed}:{index}")
    word_a = "".join(rng.choice(SYMBOLS) for _ in range(workload.n))
    word_b = random_edits(word_a, workload.alpha, rng, SYMBOLS)
    config = ReconConfig(
        l=workload.l, mode=workload.mode, m_hat=workload.m_hat, k=K,
        seed=rng.randrange(1 << 62),
    )
    return SessionInput(word_a, word_b, config, workload.alpha)


def raw_bits(inp: SessionInput) -> int:
    """Cost of sending both strings as they are."""
    sigma = len(set(SYMBOLS))
    return (len(inp.word_a) + len(inp.word_b)) * max(1, math.ceil(math.log2(sigma)))


def true_difference(inp: SessionInput) -> int:
    """Shingle instances on exactly one side, counted without the package."""
    l = inp.config.l
    pad = inp.config.delimiter * (l - 1)

    def windows(word: str) -> Counter:
        padded = pad + word + pad
        return Counter(padded[i : i + l] for i in range(len(padded) - l + 1))

    a, b = windows(inp.word_a), windows(inp.word_b)
    return sum(((a - b) + (b - a)).values())


@dataclass
class SessionResult:
    wall_s: float
    failures: list[str]
    wire_bits: int
    reports: tuple  # (initiator report, responder report); None when a party failed
    finished: bool


def session_gates(inp: SessionInput, recovered, reports, counters) -> list[str]:
    """Why a finished session is wrong; empty when it is right.

    `recovered` and `reports` are (initiator, responder) pairs; `counters` is
    (A bits sent, A bits received, B bits sent, B bits received) read from
    the endpoints.
    """
    out = []
    rec_a, rec_b = recovered
    if rec_a != inp.word_b:
        out.append("initiator recovered a wrong string")
    if rec_b != inp.word_a:
        out.append("responder recovered a wrong string")
    if any(r is None or r.outcome != "ok" for r in reports):
        out.append("a report does not end outcome=ok")
        return out
    a_sent, a_recv, b_sent, b_recv = counters
    sent = sum(s for r in reports for s, _ in r.bits.values())
    received = sum(v for r in reports for _, v in r.bits.values())
    if sent != a_sent + b_sent or received != a_recv + b_recv:
        out.append("report bits differ from the endpoint counters")
    rep_a, rep_b = reports
    if sum(s for s, _ in rep_a.bits.values()) != sum(v for _, v in rep_b.bits.values()):
        out.append("initiator bits sent differ from responder bits received")
    if a_sent != b_recv or b_sent != a_recv:
        out.append("bits sent on one endpoint differ from bits received on the other")
    return out


def run_session(inp: SessionInput, tracer=None, session_id: int = 0,
                deadline_s: float = SESSION_DEADLINE_S) -> SessionResult:
    """One closed-loop session, hello to both parties returning."""
    end_a, end_b = channel_pair()
    if tracer is not None:
        tracer.trace_endpoint(end_a)
        tracer.trace_endpoint(end_b)
    results: list = [None, None]
    errors: list = [None, None]

    def party(slot, word, endpoint, role):
        try:
            call = run_protocol
            if tracer is not None:
                tracer.bind(session_id, role)
                call = tracer.wrap(tracing.ROOT, run_protocol)
            results[slot] = call(word, endpoint, role, inp.config, inp.alpha)
        except Exception as exc:  # reported as a failed session
            errors[slot] = f"{role}: {type(exc).__name__}: {exc}"

    threads = [
        threading.Thread(target=party, args=(0, inp.word_a, end_a, "initiator"), daemon=True),
        threading.Thread(target=party, args=(1, inp.word_b, end_b, "responder"), daemon=True),
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(max(0.0, deadline_s - (time.perf_counter() - start)))
    wall = time.perf_counter() - start
    if any(t.is_alive() for t in threads):
        # wake parties blocked in recv; one stuck computing is left behind
        end_a.close()
        end_b.close()
        return SessionResult(wall, [f"unfinished after {deadline_s:.0f} s"], 0, (None, None), False)
    failures = [e for e in errors if e]
    recovered = tuple(r[0] if r else None for r in results)
    reports = tuple(r[1] if r else None for r in results)
    counters = (end_a.bits_sent(), end_a.bits_received(), end_b.bits_sent(), end_b.bits_received())
    failures += session_gates(inp, recovered, reports, counters)
    return SessionResult(wall, failures, end_a.bits_sent() + end_b.bits_sent(), reports, True)


# ---------------------------------------------------------------------------
# decider streams


def decider_streams(seed: int, n: int = DECIDER_N) -> tuple[Alphabet, list[int], list[int]]:
    """A uniform random stream, rejected within a few symbols (absorbed
    path), and the runs a^k b^k ... over all symbols, which stays uniquely
    decodable to the end (live path, every slot visited)."""
    alphabet = Alphabet("".join(chr(ord("a") + i) for i in range(SIGMA)))
    rng = random.Random(f"decider:{seed}")
    low_bits = bytes(b % SIGMA for b in range(256))
    absorbed = list(rng.randbytes(n).translate(low_bits))
    live = [s for s in range(SIGMA) for _ in range(n // SIGMA)]
    return alphabet, absorbed, live


def absorbed_gates(alphabet: Alphabet, ids: list[int], decider: UdDecider) -> list[str]:
    """The reject position must be where the prefix first stops decoding uniquely."""
    verdict = decider.verdict
    if verdict.ok:
        return ["random stream was never rejected"]
    p = verdict.position
    word = "".join(alphabet.symbols[i] for i in ids[:p])
    out = []
    if decoding_count(bigram_map(word[: p - 1]), cap=2).count != 1:
        out.append(f"prefix before reject position {p} does not decode uniquely")
    if decoding_count(bigram_map(word), cap=2).count < 2:
        out.append(f"prefix up to reject position {p} still decodes uniquely")
    return out


def live_gates(decider: UdDecider) -> list[str]:
    out = []
    if not decider.verdict.ok:
        out.append(f"live stream rejected at {decider.verdict.position}")
    if decider.slot_count() != SIGMA:
        out.append(f"slot count {decider.slot_count()} != {SIGMA}")
    if decider.stack_depth() > SIGMA:
        out.append(f"stack depth {decider.stack_depth()} > {SIGMA}")
    return out


def decider_block(alphabet: Alphabet, absorbed: list[int], live: list[int]):
    """Feed each stream once to a fresh decider: raw ns per symbol on each
    path, and the gate failures of each failed stream."""
    ns_per_symbol, failures = {}, []
    for path, ids in (("absorbed", absorbed), ("live", live)):
        decider = UdDecider(alphabet)
        start = time.perf_counter()
        decider.feed_ids(ids)
        ns_per_symbol[path] = (time.perf_counter() - start) / len(ids) * 1e9
        gates = absorbed_gates(alphabet, ids, decider) if path == "absorbed" else live_gates(decider)
        if gates:
            failures.append(f"{path} stream: " + "; ".join(gates))
    return ns_per_symbol, failures


# ---------------------------------------------------------------------------
# runs


def measure(name: str, seed: int, seconds: float, workload: Workload | None = None,
            decider_n: int = DECIDER_N) -> dict:
    """Untraced run.  Each block is one decider pass over both streams and
    then, while the workload's sessions last, one session; blocks go on
    until `seconds` have passed.  Times are reported as medians scaled to
    the reference speed (see clock.py), and unscaled beside them."""
    workload = workload or WORKLOADS[name]
    alphabet, absorbed, live = decider_streams(seed, decider_n)
    speed = clock.SpeedScale()
    # each timing as (unscaled, scaled)
    times: dict[str, list[tuple[float, float]]] = {
        "session_s_p50": [], "absorbed_ns_per_symbol": [], "live_ns_per_symbol": [],
    }
    sessions = times["session_s_p50"]
    bits, raws, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while (len(sessions) < workload.sessions or len(times["live_ns_per_symbol"]) < MIN_DECIDER_PASSES
           or time.perf_counter() - start < seconds):
        block_ns, block_failures = decider_block(alphabet, absorbed, live)
        factor = speed.factor()
        for path, value in block_ns.items():
            times[f"{path}_ns_per_symbol"].append((value, value * factor))
        attempted += 2
        failed += len(block_failures)
        failures += block_failures
        if len(sessions) < workload.sessions:
            inp = session_input(workload, name, seed, len(sessions))
            result = run_session(inp)
            sessions.append((result.wall_s, result.wall_s * speed.factor()))
            bits.append(result.wire_bits)
            raws.append(raw_bits(inp))
            attempted += 1
            if result.failures:
                failed += 1
                failures += result.failures
            if not result.finished:
                break
    medians = {key: [statistics.median(t[i] for t in v) for i in (0, 1)] for key, v in times.items()}
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "sessions": len(sessions),
        **{key: scaled for key, (_, scaled) in medians.items()},
        "unscaled": {key: unscaled for key, (unscaled, _) in medians.items()},
        "wire_bits": sum(bits) / len(bits),
        "raw_bits": sum(raws) / len(raws),
        "wire_ratio": sum(bits) / sum(raws),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(name: str, seed: int, workload: Workload | None = None,
                   spans_path: Path | None = None) -> dict:
    """Traced run over the first half of the workload's inputs: each runs
    once untraced and once traced, in alternating order so that drift
    cancels, and the difference is the tracing overhead."""
    workload = workload or WORKLOADS[name]
    tracer = tracing.Tracer()
    speed = clock.SpeedScale()
    plain_walls, traced_walls, rows = [], [], []
    attempted = failed = 0
    failures: list[str] = []
    for index in range((workload.sessions + 1) // 2):
        inp = session_input(workload, name, seed, index)
        for mode in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
            if mode == "plain":
                plain = run_session(inp)
                plain_factor = speed.factor()
            else:
                with tracing.install(tracer):
                    traced = run_session(inp, tracer, session_id=index)
                traced_factor = speed.factor()
        if traced.finished and not traced.failures:
            row = _layer_row(tracer, index, inp, traced)
            layer_sum = sum(row[metric] for metric in tracing.LAYER_CPU.values())
            if abs(layer_sum + row["session.unattributed_cpu_s"] - row["session.cpu_s"]) > 1e-6:
                traced.failures.append("layer CPU plus unattributed CPU is not the session CPU")
            else:
                rows.append(row)
        attempted += 2
        for result in (plain, traced):
            if result.failures:
                failed += 1
                failures += result.failures
        if not (plain.finished and traced.finished):
            break
        plain_walls.append(plain.wall_s * plain_factor)
        traced_walls.append(traced.wall_s * traced_factor)
    if spans_path is not None:
        tracer.write(spans_path)
    metrics = {key: sum(r[key] for r in rows) / len(rows) for key in rows[0]} if rows else {}
    if traced_walls:
        metrics["trace.traced_session_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.traced_session_s"] - statistics.median(plain_walls)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "sessions": len(rows),
        "metrics": metrics,
    }


def _layer_row(tracer, session_id: int, inp: SessionInput, result: SessionResult) -> dict:
    """Per-layer numbers of one traced session."""
    row = tracer.session_layers(session_id)
    counts = tracer.session_counts(session_id)
    for key in ("setrecon.pairs", "setrecon.eval_mults", "field.interp_calls",
                "transport.frames", "transport.round_trips"):
        row[key] = counts[key]
    row["setrecon.pairs_per_diff"] = counts["setrecon.pairs"] / max(1, true_difference(inp))
    rep_a, rep_b = result.reports
    shingles = len(inp.word_a) + len(inp.word_b) + 2 * (inp.config.l - 1)
    row["decider.merge_fraction"] = (rep_a.merges_local + rep_b.merges_local) / shingles
    for step in ("hello", "step2", "step5", "done"):
        row[f"stringrecon.bits.{step}"] = rep_a.step_bits(step)[0] + rep_b.step_bits(step)[0]
    return row


def setup_only(name: str, seed: int) -> None:
    """Everything a run builds before it measures."""
    session_input(WORKLOADS[name], name, seed, 0)
    decider_streams(seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    if args.trace:
        out = measure_traced(args.workload, args.seed, spans_path=args.spans)
    else:
        out = measure(args.workload, args.seed, args.seconds)
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
