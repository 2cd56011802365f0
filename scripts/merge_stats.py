#!/usr/bin/env python3
"""Measure how often random bit strings shingle without any merges.

Sweeps shingle lengths upward from the paper's Lambert-W rule
(recommend_shingle_len) and reports, per length, the fraction of trials whose
ordered shingling streams through the decider with zero merges, plus the
merge-count distribution and the time merge_until_ud takes per symbol, in
microseconds, over all trials (the shingling pass excluded).  It prints the pairwise-collision rule's length
(merge_free_shingle_len) beside the Lambert-W one.  The Lambert-W rule bounds
the expected recurrence of a single gram, not collisions between all gram
pairs, so its lengths sit well below the zero-merge knee; the pairwise rule
bounds the expected number of colliding node-gram pairs by one.

The Lambert-W rule needs biased bits (p > 0.5).  For uniform bits (--p 0.5)
it is printed as undefined, and the sweep starts `--spread` lengths below the
pairwise rule instead, which brackets the zero-merge knee.
"""

import argparse
import random
import statistics
import time

from shinglesync import Alphabet, ShingledWord, merge_free_shingle_len, merge_until_ud, recommend_shingle_len

BITS = Alphabet("01")


def zero_merge_stats(n: int, l: int, trials: int, seed: int, bias: float) -> tuple[float, list[int], float]:
    """The zero-merge fraction, the merge counts and the merge microseconds per symbol."""
    rng = random.Random(seed)
    counts = []
    merge_s = 0.0
    for _ in range(trials):
        word = ShingledWord("".join("0" if rng.random() < bias else "1" for _ in range(n)), l, BITS)
        start = time.perf_counter()
        firsts = merge_until_ud(word)
        merge_s += time.perf_counter() - start
        counts.append(len(word.keys) - len(firsts))
    zero = sum(1 for c in counts if c == 0)
    return zero / trials, counts, merge_s * 1e6 / (trials * n)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4096, help="bits per trial string")
    parser.add_argument("--p", type=float, default=0.6, help="bit bias of the trial strings, fed to both sizing rules")
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--spread", type=int, default=10,
        help="lengths to sweep above the Lambert-W rule, or below the pairwise rule at --p 0.5",
    )
    args = parser.parse_args()

    l_pairs = merge_free_shingle_len(args.n, args.p)
    if args.p > 0.5:
        l_rule = recommend_shingle_len(args.n, args.p)
        first = l_rule
    else:  # uniform bits; merge_free_shingle_len has rejected p < 0.5
        l_rule = "undefined"
        first = max(2, l_pairs - args.spread)
    print(f"sizing rules: n={args.n} p={args.p} -> Lambert-W l={l_rule}, pairwise-collision l={l_pairs}")
    print(f"{'l':>4} {'zero-merge':>11} {'median merges':>14} {'max merges':>11} {'us/symbol':>10}")
    for l in range(first, first + args.spread + 1):
        frac, counts, us = zero_merge_stats(args.n, l, args.trials, args.seed + l, args.p)
        print(f"{l:>4} {frac:>11.2f} {int(statistics.median(counts)):>14} {max(counts):>11} {us:>10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
