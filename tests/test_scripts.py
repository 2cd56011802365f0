"""Smoke runs of the scripts under `scripts/`, at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import shinglesync

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(shinglesync.__file__).resolve().parents[1]


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_recon_demo_fixed_session():
    # 267 instances make sixteen buckets, each bundled 64 / 16 values beside
    # the session check's one value; no bucket holds more than 3 one-sided
    # instances, so the bundle covers them all and no round tops one up.
    # No shingle occurs more than twice: 1 occurrence bit, and elements up
    # to code_count(2, 12) * 2, in 15 bits, so the span's floor for 267 +
    # 268 instances, 2**(11 + 4), puts the prime in 16
    lines = run_script("recon_demo.py", "--n", "256", "--alphas", "1", "--mode", "fixed", "--m-hat", "64")
    assert lines[0] == "# alpha=1"
    # fixed mode reconciles the fine buckets the bundle's values are for
    for line in ("role=initiator", "outcome=ok", "mode=fixed", "n_local=256", "step2_pairs=64",
                 "step2_buckets=16", "step2_fine_buckets=16", "step2_rounds=0", "occ_bits=1",
                 "elem_bits=15", "value_bits=16"):
        assert line in lines
    # the route only the responder takes, beside the initiator's report,
    # which reads 0 for each: the walk found the initiator's 9 one-sided
    # instances, one check passed, no candidate was rejected, and the fine
    # buckets' sizes differ by 15 in all, which no request carries in fixed
    # mode
    for line in ("step2_walked=0", "step2_checks=0", "step2_rejected=0", "step2_estimate=0",
                 "responder_step2_walked=9", "responder_step2_checks=1", "responder_step2_rejected=0",
                 "responder_step2_estimate=15"):
        assert line in lines
    # each party's thread CPU and wall time by step: the initiator's in its
    # report, the responder's beside it
    fields = dict(line.split("=", 1) for line in lines if "=" in line)
    for step in ("step1", "step2", "merge", "step5", "rebuild"):
        assert float(fields[f"{step}_cpu_s"]) >= 0 and float(fields[f"responder_{step}_cpu_s"]) >= 0
        for party in ("", "responder_"):
            assert float(fields[f"{party}{step}_wall_s"]) >= float(fields[f"{party}{step}_cpu_s"]) - 1e-3
    # the bits by frame kind: the bundle is the initiator's, the hand-off the responder's
    assert any(line.startswith("eval_bundle_frame_bits_sent=") and line != "eval_bundle_frame_bits_sent=0"
               for line in lines)
    assert "eval_bundle_frame_bits_recv=0" in lines and "delta_frame_bits_recv=0" not in lines
    # the session's wall time and the process's peak resident set: in MiB,
    # and its rise over the peak before the session in bytes over both
    # words' symbols, which is no more than the whole peak
    fields = dict(line.split("=", 1) for line in lines if "=" in line)
    assert float(fields["session_wall_s"]) > 0
    peak_mib, per_symbol = float(fields["peak_rss_mib"]), int(fields["peak_rss_bytes_per_symbol_party"])
    symbols = int(fields["n_local"]) + int(fields["n_remote"])
    assert peak_mib > 0 and per_symbol >= 0
    assert per_symbol * symbols <= peak_mib * 2**20


def test_recon_demo_takes_the_shingle_length():
    # the paper's length for n = 256 is 12; --l sets another
    lines = run_script("recon_demo.py", "--n", "256", "--alphas", "1", "--l", "9")
    fields = dict(line.split("=", 1) for line in lines if "=" in line)
    assert fields["l"] == "9" and fields["outcome"] == "ok"
    # binary words of 256 symbols at l = 9, where no shingle occurs more
    # than twice: the elements, up to code_count(2, 9) * 2, take 12 bits,
    # and the span's floor for 264 + 265 instances, 2**(11 + 4), puts the
    # prime in 16
    assert fields["occ_bits"] == "1" and fields["elem_bits"] == "12" and fields["value_bits"] == "16"
    # a rateless session: the fine buckets' sizes differ by 5 in all, so the
    # responder joins the 16 fine buckets into 2, and the initiator reads
    # the estimate off the first request
    assert (fields["step2_fine_buckets"], fields["step2_buckets"]) == ("16", "2")
    assert fields["step2_estimate"] == fields["responder_step2_estimate"] == "5"
    assert "l=12" in run_script("recon_demo.py", "--n", "256", "--alphas", "1")


def test_merge_stats_sweep():
    lines = run_script("merge_stats.py", "--n", "256", "--trials", "2")
    assert lines[0].startswith("sizing rules: n=256 p=0.6 -> Lambert-W l=")
    assert lines[1].split() == ["l", "zero-merge", "median", "merges", "max", "merges", "us/symbol"]
    rows = [line.split() for line in lines[2:]]
    assert rows and all(len(row) == 5 for row in rows)
    assert all(0.0 <= float(row[1]) <= 1.0 for row in rows)
    assert all(float(row[4]) > 0 for row in rows)
