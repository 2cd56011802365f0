#!/usr/bin/env python3
"""shinglesync benchmark: two-party reconciliation sessions and the UD decider.

    python3 perfbench/run.py --workload edit-4k --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`).  The workload runs in a child process (`worker.py`), so its set-up
time and peak memory are its own and a hung session cannot outlive the run.
Set-up is timed as the median of several fresh processes that import the
package and build the run's inputs.  Times are scaled to a reference CPU
speed measured alongside them (clock.py).

With `--trace 0` the last line of standard output is a JSON object holding
every end-to-end metric; with `--trace 1` it holds the per-layer metrics of
a traced run, whose spans are written to `perfbench/out/`.  The lines before
it name each metric with its unit, together with the failure ratio, the raw
bits and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPS = 9
RUN_LIMIT_S = 170.0  # the worker is killed past this; the run then fails


def worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), *extra]


def time_setup(args) -> tuple[float, float]:
    """Median wall time of a fresh process that imports the package and
    builds the run's inputs: unscaled, and scaled to the reference speed."""
    cmd = worker_cmd(args, "--setup-only")
    subprocess.run(cmd, check=True, cwd=ROOT)  # fills the bytecode cache
    speed = clock.SpeedScale()
    unscaled, scaled = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        unscaled.append(time.perf_counter() - start)
        scaled.append(unscaled[-1] * speed.factor())
    return statistics.median(unscaled), statistics.median(scaled)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shinglesync" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    setup = time_setup(args) if not args.trace else None
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        extra += ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(
            worker_cmd(args, *extra), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)),
        )
    except subprocess.TimeoutExpired:
        print("workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"workload exited with code {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    measured = raw["metrics"] if args.trace else {**raw, "setup_s": setup[1]}
    # a traced run whose every session failed has no layer numbers
    values = {name: measured.get(name, 0.0) for name in units}
    fail_ratio = raw["failed"] / raw["attempted"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"sessions={raw['sessions']} attempted={raw['attempted']} failed={raw['failed']}")
    print(f"fail_ratio {fail_ratio:.4f} ratio")
    if not args.trace:
        print(f"raw_bits {raw['raw_bits']:.0f} bit")
        for name, value in {**raw["unscaled"], "setup_s": setup[0]}.items():
            print(f"unscaled {name} {value:.6g} {units[name]}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    for failure in raw["failures"]:
        print(f"FAILED: {failure}")
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
