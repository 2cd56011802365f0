#!/usr/bin/env python3
"""Run in-process reconciliation sessions over a sweep of edit counts.

Prints each session's report, the initiator's, so the per-step bit accounting
is easy to eyeball against the edit count and shingle length, then the
responder's walk, session checks and rejected candidates, which only its
report holds, its estimate of the difference, which the initiator reads off
the first request in rateless mode only, and its thread CPU and wall time
by step, then the session's wall time and the process's peak resident set
so far: in MiB, and in bytes a symbol a party, its rise over the peak
before the first session (the interpreter and the package) over both
words' symbols.

    PYTHONPATH=src python3 scripts/recon_demo.py --n 65536 --alphas 16

The shingle length is the paper's Lambert-W length for n unless `--l`
gives one; at n = 2**20 that is 29, past the cap of 28 for binary words,
so that row runs with `--l 27`:

    PYTHONPATH=src python3 scripts/recon_demo.py --n 1048576 --alphas 16 --l 27
"""

import argparse
import random
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from shinglesync import (
    MODE_FIXED,
    MODE_RATELESS,
    ReconConfig,
    channel_pair,
    random_edits,
    recommend_shingle_len,
    run_protocol,
)


def run_session(word_a: str, word_b: str, config: ReconConfig, alpha: int):
    a, b = channel_pair()
    with ThreadPoolExecutor(2) as pool:
        fut_a = pool.submit(run_protocol, word_a, a, "initiator", config, alpha)
        fut_b = pool.submit(run_protocol, word_b, b, "responder", config, alpha)
        recovered_a, report_a = fut_a.result()
        recovered_b, report_b = fut_b.result()
    assert recovered_a == word_b and recovered_b == word_a
    return report_a, report_b


def peak_rss_bytes() -> int:
    """The process's peak resident set: Linux's VmHWM, which starts afresh
    at exec, where /proc has it; elsewhere `ru_maxrss`, which on Linux would
    keep the peak of a large parent that forked this process, and counts
    bytes on macOS."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--alphas", type=int, nargs="+", default=[1, 4, 16])
    parser.add_argument("--mode", choices=[MODE_RATELESS, MODE_FIXED], default=MODE_RATELESS)
    parser.add_argument("--m-hat", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--l", type=int, help="shingle length (default: the paper's length for n)")
    args = parser.parse_args()

    before = peak_rss_bytes()
    rng = random.Random(args.seed)
    l = args.l or recommend_shingle_len(args.n, 0.6)
    for alpha in args.alphas:
        word_a = "".join(rng.choice("01") for _ in range(args.n))
        word_b = random_edits(word_a, alpha, rng, "01")
        config = ReconConfig(l=l, mode=args.mode, m_hat=args.m_hat, seed=rng.randrange(2**32))
        start = time.perf_counter()
        report_a, report_b = run_session(word_a, word_b, config, alpha)
        wall = time.perf_counter() - start
        peak = peak_rss_bytes()
        print(f"# alpha={alpha}")
        print(report_a.to_text(), end="")
        # the route only the responder takes: its walk, its checks and its
        # rejected candidates, the estimate that chose its buckets, and
        # where its CPU and wall time went
        print(f"responder_step2_walked={report_b.step2_walked}")
        print(f"responder_step2_checks={report_b.step2_checks}")
        print(f"responder_step2_rejected={report_b.step2_rejected}")
        print(f"responder_step2_estimate={report_b.step2_estimate}")
        for step, seconds in report_b.step_cpu_s.items():
            print(f"responder_{step}_cpu_s={seconds:.6f}")
            print(f"responder_{step}_wall_s={report_b.step_wall_s[step]:.6f}")
        print(f"session_wall_s={wall:.3f}")
        print(f"peak_rss_mib={peak / 2**20:.1f}")
        print(f"peak_rss_bytes_per_symbol_party={(peak - before) / (len(word_a) + len(word_b)):.0f}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
