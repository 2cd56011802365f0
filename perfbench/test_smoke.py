"""Smoke checks for the benchmark: every workload's code path at tiny n, and
the correctness gates catching a wrong result.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (first: it puts the package source on sys.path)
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_N = 256
TINY_STREAM = 1600


def tiny(name):
    return dataclasses.replace(worker.WORKLOADS[name], n=TINY_N, sessions=1)


def test_workloads_and_layers_match_the_spec():
    assert sorted(worker.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    trajectory = json.loads((HERE / "trajectory.json").read_text())
    assert set(trajectory["layer_targets"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_untraced_run_passes_its_gates(name):
    out = worker.measure(name, seed=1, seconds=0, workload=tiny(name), decider_n=TINY_STREAM)
    assert out["failed"] == 0, out["failures"]
    assert out["sessions"] == 1
    expected = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}
    assert expected <= out.keys()
    assert all(out[m] > 0 for m in expected)


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_traced_run_reports_every_layer(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    out = worker.measure_traced(name, seed=1, workload=tiny(name), spans_path=spans)
    assert out["failed"] == 0, out["failures"]
    metrics = out["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    layers = sum(metrics[m] for m in tracing.LAYER_CPU.values())
    assert layers + metrics["session.unattributed_cpu_s"] == pytest.approx(metrics["session.cpu_s"])
    assert metrics["setrecon.pairs"] > 0 and metrics["stringrecon.bits.step2"] > 0
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {r["party"] for r in rows} == {"initiator", "responder"}
    assert sum(r["name"] == tracing.ROOT for r in rows) == 2


def test_tracing_restores_the_package():
    from shinglesync import setrecon, stringrecon

    before = (stringrecon.merge_until_ud, stringrecon.RatelessDecoder, setrecon.find_roots)
    with tracing.install(tracing.Tracer()):
        assert stringrecon.merge_until_ud is not before[0]
    assert (stringrecon.merge_until_ud, stringrecon.RatelessDecoder, setrecon.find_roots) == before


@pytest.fixture(scope="module")
def finished_session():
    inp = worker.session_input(tiny("edit-4k"), "edit-4k", 1, 0)
    ends = worker.channel_pair()
    results = [None, None]

    def party(slot, word, role):
        results[slot] = worker.run_protocol(word, ends[slot], role, inp.config, inp.alpha)

    threads = [
        worker.threading.Thread(target=party, args=(0, inp.word_a, "initiator")),
        worker.threading.Thread(target=party, args=(1, inp.word_b, "responder")),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads)
    recovered = tuple(r[0] for r in results)
    reports = tuple(r[1] for r in results)
    a, b = ends
    counters = (a.bits_sent(), a.bits_received(), b.bits_sent(), b.bits_received())
    return inp, recovered, reports, counters


def test_gates_accept_a_correct_session(finished_session):
    assert worker.session_gates(*finished_session) == []


def test_gates_catch_a_corrupted_string(finished_session):
    inp, (rec_a, rec_b), reports, counters = finished_session
    flipped = rec_a[:-1] + ("1" if rec_a[-1] == "0" else "0")
    assert worker.session_gates(inp, (flipped, rec_b), reports, counters)


def test_gates_catch_a_bit_count_off_by_one(finished_session):
    inp, recovered, reports, counters = finished_session
    off = (counters[0] + 1, *counters[1:])
    assert worker.session_gates(inp, recovered, reports, off)
    rep_a = dataclasses.replace(reports[0], bits={k: list(v) for k, v in reports[0].bits.items()})
    rep_a.bits["step2"][0] += 1
    assert worker.session_gates(inp, recovered, (rep_a, reports[1]), counters)


def test_decider_gates_catch_a_wrong_verdict():
    alphabet, absorbed, live = worker.decider_streams(1, TINY_STREAM)
    rejected = worker.UdDecider(alphabet)
    rejected.feed_ids(absorbed)
    assert worker.absorbed_gates(alphabet, absorbed, rejected) == []
    verdict = rejected.verdict
    for wrong in (verdict.position - 1, verdict.position + 1):
        early_or_late = SimpleNamespace(verdict=dataclasses.replace(verdict, position=wrong))
        assert worker.absorbed_gates(alphabet, absorbed, early_or_late)
    live_decider = worker.UdDecider(alphabet)
    live_decider.feed_ids(live)
    assert worker.live_gates(live_decider) == []
    assert worker.live_gates(rejected)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "edit-4k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
