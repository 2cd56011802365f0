"""Memory bounds, measured with tracemalloc: a shingled word's columns,
its merge and the decode of its merged multiset, and one in-process session
at n = 16384."""

import random
import threading
import tracemalloc
from collections import Counter

from shinglesync import (
    Alphabet,
    DeBruijnGraph,
    ReconConfig,
    ShingledWord,
    ShingleMultiset,
    channel_pair,
    merge_until_ud,
    random_edits,
    recommend_shingle_len,
    run_protocol,
)

from conftest import span_labels

N = 2**14
# the shingle length of the paper's rule for random binary words, as the
# benchmark takes it
L = recommend_shingle_len(N, 0.6)


def binary_word(seed: int) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice("01") for _ in range(N))


def traced(run) -> tuple[int, int]:
    """(bytes held after `run()`, peak bytes while it ran), over what was
    held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kept = run()
        held, peak = tracemalloc.get_traced_memory()
        del kept
    finally:
        tracemalloc.stop()
    return held - before, peak - before


def test_a_shingled_word_holds_64_bytes_a_symbol_and_peaks_at_128():
    # a dict of keys held some 170 bytes a symbol, and its build peaked
    # near 256
    word, alphabet = binary_word(14), Alphabet("01")
    held, peak = traced(lambda: ShingledWord(word, L, alphabet))
    assert held / N <= 64
    assert peak / N <= 128


def test_the_merge_of_a_word_peaks_within_128_bytes_a_symbol():
    # with a dict from each node pair to its label's first position, a
    # boxed pair key logged a label and a list of on-cycle flags, it peaked
    # at about 134
    word = ShingledWord(binary_word(16), L, Alphabet("01"))
    _, peak = traced(lambda: merge_until_ud(word))
    assert peak / N <= 128


def test_the_decode_of_a_merged_word_peaks_within_80_bytes_a_symbol():
    # the multiset a session's responder decodes; a string-keyed graph, its
    # adjacency dict and the node-gram decider's second interning peaked
    # at about 99
    word = binary_word(16)
    shingled = ShingledWord(word, L, Alphabet("01"))
    merged = ShingleMultiset(Counter(span_labels(shingled, merge_until_ud(shingled))), base_len=L)
    del shingled
    decoded = []
    _, peak = traced(lambda: decoded.append(DeBruijnGraph.build(merged, L).decode_unique()))
    assert decoded == [word]
    assert peak / N <= 80


def test_a_session_at_n_16384_peaks_within_6_mib():
    # both parties, one edit apart, each in its own thread as a benchmark
    # session runs them; the dict tables peaked near 9 MiB
    word_a = binary_word(16)
    word_b = random_edits(word_a, 1, random.Random(16), "01")
    config = ReconConfig(l=L, seed=16)
    results = {}

    def session():
        end_a, end_b = channel_pair()
        parties = [
            threading.Thread(target=lambda: results.update(a=run_protocol(word_a, end_a, "initiator", config))),
            threading.Thread(target=lambda: results.update(b=run_protocol(word_b, end_b, "responder", config))),
        ]
        for party in parties:
            party.start()
        for party in parties:
            party.join(120)
        assert not any(party.is_alive() for party in parties)

    _, peak = traced(session)
    assert results["a"][0] == word_b and results["b"][0] == word_a
    assert peak <= 6 * 2**20
