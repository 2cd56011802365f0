import copy
import hashlib
import itertools
import json
import random
import re
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shinglesync import (
    Alphabet,
    Reason,
    ShingledWord,
    ShingleMultiset,
    TokenDecider,
    UdDecider,
    Verdict,
    bigram_map,
    decoding_count,
    is_ud,
    merge_until_ud,
    noconcat,
    qgram_map,
    shingle_sequence,
)
from shinglesync import decider as decider_module
from shinglesync.decider import LAST_STRETCH, _Core, _first_difference
from shinglesync.errors import (
    InvalidSymbolError,
    InvalidTokenError,
)

from conftest import (
    StepCore,
    StepTokens,
    periodic_words,
    reference_merge,
    span_labels,
    words_ab,
    words_abc,
    words_abcd,
)


def push_all(word, alphabet=None):
    decider = UdDecider(alphabet or Alphabet.from_text(word))
    verdict = decider.verdict
    for ch in word:
        verdict = decider.push(ch)
    return decider, verdict


class TestCharDecider:
    def test_katana_rejected_by_cycle_intrusion_at_6(self):
        _, verdict = push_all("katana")
        assert not verdict.ok
        assert verdict.reason is Reason.CYCLE_INTRUSION
        assert verdict.position == 6

    def test_kanata_rejected(self):
        _, verdict = push_all("kanata")
        assert not verdict.ok

    def test_axbxa_accepted(self):
        _, verdict = push_all("axbxa")
        assert verdict.ok

    def test_axbxbax_rejected_by_communicating_parents_at_7(self):
        _, verdict = push_all("axbxbax")
        assert not verdict.ok
        assert verdict.reason is Reason.COMMUNICATING_PARENTS
        assert verdict.position == 7

    def test_double_letter_accepted(self):
        _, verdict = push_all("aa")
        assert verdict.ok
        assert decoding_count(bigram_map("aa")).count == 1

    def test_empty_and_single(self):
        assert is_ud("")
        assert is_ud("a")

    def test_fresh_state(self):
        decider = UdDecider(Alphabet("ab"))
        assert decider.verdict.ok
        assert decider.slot_count() == 2

    def test_large_alphabet_allocation_is_alphabet_sized(self):
        alphabet = Alphabet([chr(i) for i in range(256, 512)])
        decider = UdDecider(alphabet)
        assert decider.slot_count() == 256

    def test_invalid_symbol_leaves_state_unchanged(self):
        decider = UdDecider(Alphabet("ab"))
        decider.push("a")
        with pytest.raises(InvalidSymbolError):
            decider.push("z")
        assert decider.push("b").ok

    @pytest.mark.parametrize(
        "size, bad",
        [(2, 2), (2, 256), (300, 300)]
        + [(size, bad) for size in (2, 300) for bad in (-1, 2**64, 1.5, 1.0, None, "a")],
    )
    def test_feed_ids_refuses_ids_outside_the_alphabet(self, size, bad):
        # both routes: two symbols go as bytes, 300 as an id list.  -1 would
        # alias the last symbol and |alphabet| would index past the state;
        # 256 and 2**64 are no byte, 2**64 no int of 64 bits either, and the
        # rest no int: the batch is refused, naming the id, before any of it
        # is consumed
        alphabet = Alphabet("ab") if size == 2 else Alphabet([chr(256 + i) for i in range(size)])
        decider = UdDecider(alphabet)
        with pytest.raises(InvalidSymbolError, match=re.escape(f"symbol id {bad!r} not in an alphabet of {size}")):
            decider.feed_ids([0, bad, 0])
        assert core_state(decider._core) == core_state(_Core(size)) and decider.verdict.ok

    def test_feed_ids_refuses_a_foreign_id_from_an_iterator(self):
        # a generator is one pass: the refusal names the id from a copy, not
        # from the generator the byte conversion used up
        decider = UdDecider(Alphabet("ab"))
        with pytest.raises(InvalidSymbolError, match="symbol id 5 not in an alphabet of 2"):
            decider.feed_ids(iter([0, 5]))
        assert core_state(decider._core) == core_state(_Core(2)) and decider.verdict.ok
        assert decider.feed_ids(iter([0, 1, 0])).ok and decider._core.pos == 3

    def test_feed_ids_takes_no_lone_int(self):
        # bytes(3) is three zero bytes, not a batch of ids
        decider = UdDecider(Alphabet("ab"))
        with pytest.raises(TypeError):
            decider.feed_ids(3)
        assert decider._core.pos == 0

    def test_rejection_is_absorbing(self):
        decider, verdict = push_all("katana")
        assert not verdict.ok
        followup = decider.push("k")
        assert not followup.ok
        assert followup.position == 6

    @given(words_abc, words_abc)
    def test_non_ud_prefix_absorbs_suffix(self, u, v):
        alphabet = Alphabet("abc")
        if not is_ud(u, alphabet):
            assert not is_ud(u + v, alphabet)

    def test_space_bound_after_long_stream(self, rng):
        alphabet = Alphabet("abcdefgh")
        decider = UdDecider(alphabet)
        for _ in range(5000):
            decider.push(rng.choice("abcdefgh"))
        assert decider.slot_count() == 8
        assert decider.stack_depth() <= 8

    def test_push_and_feed_agree(self, rng):
        alphabet = Alphabet("abc")
        for _ in range(200):
            w = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 20)))
            a = UdDecider(alphabet)
            for ch in w:
                a.push(ch)
            b = UdDecider(alphabet)
            b.feed(w)
            assert a.verdict == b.verdict


class TestWordIntake:
    # "\x01" is a code point below the alphabet's size, "é" a latin-1 byte
    # and "λ" past U+00FF: each is named, and nothing is consumed
    @pytest.mark.parametrize("foreign", ["\x01", "é", "λ"])
    def test_feed_and_is_ud_name_a_foreign_symbol(self, foreign):
        alphabet = Alphabet("ab")
        decider = UdDecider(alphabet)
        decider.feed("ab")
        before = core_state(decider._core)
        with pytest.raises(InvalidSymbolError, match=re.escape(f"symbol {foreign!r} not in alphabet")):
            decider.feed("ba" + foreign + "a")
        assert core_state(decider._core) == before and decider.verdict.ok
        with pytest.raises(InvalidSymbolError, match=re.escape(f"symbol {foreign!r} not in alphabet")):
            is_ud("a" + foreign, alphabet)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="aλbμ", max_size=30))
    def test_an_alphabet_past_u00ff_still_decides(self, word):
        alphabet = Alphabet("aλbμ")
        verdict = UdDecider(alphabet).feed(word)
        assert verdict == _Core(4).feed(alphabet.encode(word))
        assert is_ud(word, alphabet) == verdict.ok

    @settings(max_examples=300, deadline=None)
    @given(words_abcd, st.sampled_from(["abcd", "dcba", "abcdé"]))
    def test_word_verdicts_match_the_rule_loop(self, word, symbols):
        alphabet = Alphabet(symbols)
        verdict = UdDecider(alphabet).feed(word)
        assert verdict == _Core(len(alphabet)).feed(alphabet.encode(word))
        assert is_ud(word, alphabet) == verdict.ok


class TestOracleEquivalence:
    def test_exhaustive_sigma2(self):
        alphabet = Alphabet("ab")
        for n in range(9):
            for tup in itertools.product("ab", repeat=n):
                w = "".join(tup)
                assert is_ud(w, alphabet) == (decoding_count(bigram_map(w)).count == 1), w

    @settings(max_examples=300)
    @given(words_abc)
    def test_random_sigma3(self, w):
        assert is_ud(w) == (decoding_count(bigram_map(w)).count == 1)

    def test_random_sigma4_long_words(self):
        rng = random.Random(0xFACE)
        alphabet = Alphabet("abcd")
        for _ in range(10_000):
            w = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 65)))
            assert is_ud(w, alphabet) == (decoding_count(bigram_map(w)).count == 1), w


def fused_labels(word, l, fuses):
    """The shingles of `word`, each fused onto the label before it where its
    flag in `fuses` is set: a chained stream of mixed-length labels."""
    labels = []
    for s, fuse in zip(shingle_sequence(word, l), itertools.chain(fuses, itertools.repeat(False))):
        if fuse and labels:
            labels[-1] = noconcat(labels[-1], s, l)
        else:
            labels.append(s)
    return labels


# (l, labels): a word's shingles with some fused, or random labels of length
# l to l + 3, which often put two labels on one node pair
label_streams = st.integers(min_value=2, max_value=3).flatmap(
    lambda l: st.tuples(
        st.just(l),
        st.one_of(
            st.builds(fused_labels, words_abc, st.just(l), st.lists(st.booleans(), max_size=20)),
            st.lists(st.text(alphabet="ab$", min_size=l, max_size=l + 3), max_size=16),
        ),
    )
)


class TestTokenDecider:
    def test_q2_tokens_match_char_decider(self, rng):
        for _ in range(300):
            w = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 20)))
            td = TokenDecider(2)
            verdict = td.push_word(w)
            assert verdict.ok == is_ud(w), w

    def test_katana_token_stream_rejected(self):
        td = TokenDecider(2)
        verdict = td.push_word("katana")
        assert not verdict.ok
        assert verdict.reason is Reason.CYCLE_INTRUSION

    def test_merged_fixture_stream_accepted(self):
        td = TokenDecider(2)
        for s in ["$k", "ka", "at", "tana", "a$"]:
            verdict = td.push_shingle(s)
        assert verdict.ok

    @settings(max_examples=150, deadline=None)
    @given(words_abc)
    def test_q3_matches_enumeration(self, w):
        td = TokenDecider(3)
        assert td.push_word(w).ok == (decoding_count(qgram_map(w, 3)).count == 1)

    def test_push_token_validates_length(self):
        td = TokenDecider(3)
        with pytest.raises(InvalidTokenError):
            td.push_token("abc")

    def test_prefix_token_stream_rejects_like_chars(self):
        # the node-gram stream of katana's shingles: one leading anchor token,
        # then the characters; the verdict and reason match the char decider
        # with positions shifted by that anchor
        td = TokenDecider(2)
        verdict = td.verdict
        for tok in ["$", "k", "a", "t", "a", "n", "a"]:
            verdict = td.push_token(tok)
            if not verdict.ok:
                break
        assert not verdict.ok
        assert verdict.reason is Reason.CYCLE_INTRUSION
        assert verdict.position == 7

    def test_parallel_label_ends_a_batch(self):
        # "abc" is a second label on the node pair (a, c): the labels after it
        # are never walked
        td = TokenDecider(2)
        verdict = td.push_shingles(["$a", "ac", "ca", "abc", "cd", "de"])
        assert verdict == Verdict(False, Reason.PARALLEL_LABELS, 5)
        assert td.push_shingles(["e$"]) == verdict

    @settings(max_examples=400, deadline=None)
    @given(label_streams, st.lists(st.integers(min_value=0, max_value=5), max_size=12))
    @example((2, ["$a", "ac", "ca", "abc", "cd"]), [2, 0, 3])
    @example((3, ["$$a", "$ab", "abba", "bab", "abaa", "baa", "aa$"]), [1, 4])
    def test_batches_match_one_label_at_a_time(self, case, sizes):
        # every batch's verdict against single pushes and the one-push-a-call
        # reference; while it is ok, the slots, grams, edge labels and core
        # state too (a rejection absorbs, so no caller reads them after it)
        l, labels = case
        batched, single, reference = TokenDecider(l), TokenDecider(l), StepTokens(l)
        rest = labels
        for size in sizes + [len(labels)]:
            batch, rest = rest[:size], rest[size:]
            verdict = batched.push_shingles(batch)
            for label in batch:
                single.push_shingle(label)
                reference.push_shingle(label)
            assert verdict == single.verdict == reference.core.verdict
            if not verdict.ok:
                continue
            assert batched.slot_count() == single.slot_count() == len(reference.core.first_ix)
            assert list(batched._edge_labels.items()) == list(reference.edge_labels.items())
            assert list(single._edge_labels.items()) == list(reference.edge_labels.items())
            assert list(batched._ids.items()) == list(reference.ids.items())
            assert core_state(batched._core) == core_state(single._core) == core_state(reference.core)

    def test_token_slots_track_alphabet_not_stream(self, rng):
        td = TokenDecider(2)
        for _ in range(2000):
            td.push_token(rng.choice("ab"))
        assert td.slot_count() == 2

    def test_batches_retain_memory_by_alphabet_not_stream(self):
        # 20,001 shingles over two grams: after the last batch of 1,000 the
        # decider holds no more than after the first
        shingles = shingle_sequence("a" * 20000, 2)
        td = TokenDecider(2)
        tracemalloc.start()
        try:
            assert td.push_shingles(shingles[:1000]).ok
            after_first = tracemalloc.get_traced_memory()[0]
            for at in range(1000, len(shingles), 1000):
                assert td.push_shingles(shingles[at : at + 1000]).ok
            after_last = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after_last - after_first <= 4096


# SHA-256 of `json.dumps(firsts)` from `merge_until_ud` over the binary word
# of `random.Random(f"merge-golden:{n}")`: 721, 3,792 and 116 labels.  The
# spans are those the loop gave before it held its own copy of the rules.
# At l = 10 the loop rejects 19 steps by communicating parents, the rest by
# cycle intrusion; at (16384, 20) one label glues 8,549 shingles.
MERGE_GOLDEN = {
    (4096, 18): "c3b66edb5d5986d5deeb4baa11a3ed21cdd24db7bbbae1801a9f5f71edee56ee",
    (16384, 20): "10d3bcb589f4006e117fbb294712eba4ef99947dac0d05bc738281f1621eab33",
    (4096, 10): "4b95338c4401de198708f27e2d4dfcdd96fbad30c389e08a3b49da571a85b6ef",
}


def merged(word, l):
    """The merge loop's live labels over `word`, and its merge count."""
    shingled = ShingledWord(word, l, Alphabet.from_text(word))
    firsts = merge_until_ud(shingled)
    return span_labels(shingled, firsts), len(shingled.keys) - len(firsts)


class TestMerging:
    def test_katana_merges_to_tana(self):
        labels, merges = merged("katana", 2)
        assert labels == ["$k", "ka", "at", "tana", "a$"]
        # one label fused "ta", "an" and "na": two merges
        assert merges == 2

    def test_ud_stream_all_accepted_and_state_matches_plain(self):
        plain = TokenDecider(2)
        shingles = shingle_sequence("axbxa", 2)
        for s in shingles:
            assert plain.push_shingle(s).ok
        labels, merges = merged("axbxa", 2)
        assert merges == 0
        assert labels == shingles

    def test_all_same_character_needs_no_merges(self):
        labels, merges = merged("aaaa", 2)
        assert merges == 0
        ms = ShingleMultiset(Counter(labels), base_len=2)
        result = decoding_count(ms)
        assert result.count == 1 and result.witnesses == ("aaaa",)

    @settings(max_examples=200, deadline=None)
    @given(words_abc, st.integers(min_value=2, max_value=3))
    def test_merged_multiset_decodes_to_original(self, w, l):
        labels, _ = merged(w, l)
        ms = ShingleMultiset(Counter(labels), base_len=l)
        result = decoding_count(ms)
        assert result.count == 1 and result.witnesses == (w,)

    @given(words_ab)
    def test_merge_count_bounded_by_stream_length(self, w):
        _, merges = merged(w, 2)
        assert merges <= len(w) + 1

    def test_rejected_step_leaves_the_core_as_it_was(self):
        # what the merge reference's undo relies on: a rejected step changes
        # only the verdict, so the stream's accepted ids rebuild the core
        katan = [0, 1, 2, 1, 3]  # symbol ids; 4 is a fresh symbol
        reference, probe = _Core(5), _Core(5)
        for cid in katan:
            reference.step(cid)
            probe.step(cid)
        verdict = probe.step(1)  # katana's last "a"
        assert not verdict.ok and verdict.reason is Reason.CYCLE_INTRUSION and verdict.position == 6
        assert core_state(probe) == core_state(reference)
        assert probe.step(4) == verdict and core_state(probe) == core_state(reference)
        assert reference.step(4).ok

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["a", "ab", "abc"]).flatmap(lambda symbols: st.text(alphabet=symbols, max_size=300)),
        st.integers(min_value=2, max_value=8),
    )
    def test_span_merge_matches_the_string_loop(self, w, l):
        # the live labels in stream order, against the string loop
        shingled = ShingledWord(w, l, Alphabet.from_text(w))
        assert span_labels(shingled, merge_until_ud(shingled)) == reference_merge(w, l)

    @settings(max_examples=300, deadline=None)
    @given(periodic_words, st.integers(min_value=2, max_value=8))
    def test_span_merge_matches_the_string_loop_on_periodic_words(self, w, l):
        # cycles close over and over, and nodes take their second parent,
        # so the per-node label slots are looked up and freed through both
        shingled = ShingledWord(w, l, Alphabet.from_text(w))
        assert span_labels(shingled, merge_until_ud(shingled)) == reference_merge(w, l)

    @pytest.mark.parametrize("n, l", list(MERGE_GOLDEN))
    def test_session_scale_merges_are_golden(self, n, l):
        rng = random.Random(f"merge-golden:{n}")
        word = ShingledWord("".join(rng.choice("01") for _ in range(n)), l, Alphabet("01"))
        digest = hashlib.sha256(json.dumps(merge_until_ud(word)).encode()).hexdigest()
        assert digest == MERGE_GOLDEN[(n, l)]

    def test_parallel_labels_rejected_on_replay(self):
        # two differently-labeled edges between the same node pair are always
        # ambiguous; a plain decider must reject such a stream
        td = TokenDecider(2)
        for s in ["$a", "ac", "ca", "abc"]:
            verdict = td.push_shingle(s)
        assert not verdict.ok
        assert verdict.reason is Reason.PARALLEL_LABELS


# `StepCore.child` is the reference's first child entry, `child0`
CORE_FIELDS = ("first_ix", "last_ix", "on_cycle", "child", "parent0", "parent1", "stack", "prev", "pos")

# an id count and a stream of ids below it
core_ops = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.integers(min_value=0, max_value=k - 1), max_size=200))
)


def core_state(core):
    return copy.deepcopy([getattr(core, f) for f in CORE_FIELDS])


def entries(first, second):
    """Each slot's filled entries of a two-entry adjacency, in fill order."""
    return [[v for v in pair if v >= 0] for pair in zip(first, second)]


# an id count and a stream of ids below it, cut into batches
core_batches = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.tuples(
        st.just(k), st.lists(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=12), max_size=30)
    )
)


class TestCoreProperties:
    # katana and axbxbax as ids: each reaches a rejection rule, so every run
    # checks a cycle intrusion and a communicating-parents step
    @settings(max_examples=300, deadline=None)
    @given(core_ops)
    @example((4, [0, 1, 2, 1, 3, 1, 3]))
    @example((3, [0, 1, 2, 1, 2, 0, 1, 0]))
    def test_rejected_steps_change_only_the_verdict(self, case):
        k, ops = case
        core = _Core(k)
        accepted = []
        for cid in ops:
            before = core_state(core)
            verdict = core.step(cid)
            if not verdict.ok:
                assert core_state(core) == before and core.verdict == verdict
                continue
            accepted.append(cid)
            # the parent entries list each distinct edge of the accepted
            # stream once, never more than two at a node
            edges = set(zip(accepted, accepted[1:]))
            parents = entries(core.parent0, core.parent1)
            assert sorted((p, v) for v in range(k) for p in parents[v]) == sorted(edges)
            assert all(len(set(adj)) == len(adj) <= 2 for adj in parents)
            # what the proof in the `decider` docstring rests on: the child
            # entry is a node's first successor, the current node has one
            # successor at most, and a node with two parents is on a cycle
            first_successor = {}
            for v, c in zip(accepted, accepted[1:]):
                first_successor.setdefault(v, c)
            assert core.child == [first_successor.get(v, -1) for v in range(k)]
            assert len({c for v, c in edges if v == cid}) <= 1
            assert all(core.on_cycle[v] for v in range(k) if core.parent1[v] >= 0)
        replay = _Core(k)
        for cid in accepted:
            assert replay.step(cid).ok
        assert core_state(core) == core_state(replay)

    # katana and axbxbax as ids again, cut into batches
    @settings(max_examples=500, deadline=None)
    @given(core_batches)
    @example((4, [[0, 1], [], [2], [1, 3, 1, 3], [0]]))
    @example((3, [[0, 1, 2, 1, 2, 0], [1], [0, 1]]))
    def test_batches_match_the_step_reference(self, case):
        k, batches = case
        core, reference = _Core(k), StepCore(k)
        for batch in batches:
            verdict = core.feed(batch)
            for cid in batch:
                reference.step(cid)
            assert verdict == core.verdict == reference.verdict
            assert core_state(core) == core_state(reference)

    @pytest.mark.parametrize("k, length", [(2, 14), (3, 10), (4, 8)])
    def test_two_rules_match_the_three_rule_reference_on_every_stream(self, k, length):
        # 140,969 streams in all; the reference raises where its degree rule
        # would fire, or where a live step's node already has a second child
        for ids in itertools.product(range(k), repeat=length):
            reference = StepCore(k)
            for cid in ids:
                if not reference.step(cid).ok:
                    break
            assert _Core(k).feed(ids) == reference.verdict, ids

    @pytest.mark.parametrize(
        "k, ids, reason, position",
        [(4, [0, 1, 2, 1, 3, 1], Reason.CYCLE_INTRUSION, 6), (3, [0, 1, 2, 1, 2, 0, 1], Reason.COMMUNICATING_PARENTS, 7)],
    )
    def test_a_batch_after_a_rejection_changes_nothing(self, k, ids, reason, position):
        core = _Core(k)
        verdict = core.feed(ids + [0, 1])
        assert verdict == Verdict(False, reason, position) and core.pos == position - 1
        before = core_state(core)
        assert core.feed(list(range(k)) * 3) == verdict
        assert core_state(core) == before


@st.composite
def byte_batches(draw):
    """An id count of 1 to 6, and a stream of ids below it cut into batches:
    a random stream, or a period repeated past the first stretches with a
    few ids changed."""
    k = draw(st.integers(min_value=1, max_value=6))
    symbol = st.integers(min_value=0, max_value=k - 1)
    if draw(st.booleans()):
        ids = draw(st.lists(symbol, max_size=200))
    else:
        period = draw(st.lists(symbol, min_size=1, max_size=6))
        ids = (period * 600)[: draw(st.integers(min_value=0, max_value=600))]
        for at, cid in draw(st.lists(st.tuples(st.integers(min_value=0, max_value=599), symbol), max_size=3)):
            if at < len(ids):
                ids[at] = cid
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(ids)), max_size=6)))
    return k, [ids[i:j] for i, j in zip([0, *cuts], [*cuts, len(ids)])]


class TestBulkRoute:
    @settings(max_examples=500, deadline=None)
    @given(byte_batches())
    @example((4, [[0, 1], [], [2], [1, 3, 1, 3], [0]]))
    @example((3, [[0, 1, 2, 1, 2, 0], [1], [0, 1]]))
    def test_byte_batches_match_the_step_reference(self, case):
        k, batches = case
        core, reference = _Core(k), StepCore(k)
        for batch in batches:
            verdict = core.feed_bytes(bytes(batch))
            for cid in batch:
                reference.step(cid)
            assert verdict == core.verdict == reference.verdict
            assert core_state(core) == core_state(reference)

    def test_a_stretch_whose_end_test_fails_rejects_at_the_loops_position(self, monkeypatch):
        # 0 walks a chain of 50 symbols into 1, whose parents, the chain's
        # last symbol and 1 itself, overlap once 1 -> 0 closes the loop; the
        # stretch after that new edge walks the chain and then 1 eleven
        # times, and its 51st step, at position 105, is the one that fails
        chain = list(range(2, 52))
        ids = [0, *chain, 1, 1, 0, *chain] + [1] * 11
        stretches = []
        walk = _Core._walk

        def spy(core, data, lo, hi):
            stretches.append((lo, hi, walk(core, data, lo, hi)))
            return stretches[-1][-1]

        monkeypatch.setattr(_Core, "_walk", spy)
        core, reference = _Core(52), _Core(52)
        verdict = core.feed_bytes(bytes(ids))
        assert verdict == reference.feed(ids) == Verdict(False, Reason.COMMUNICATING_PARENTS, 105)
        assert core_state(core) == core_state(reference)
        assert stretches[-1] == (54, 115, False)

    @pytest.mark.parametrize("change", [None, 0, 1, 63, 64, 65, 4095, 4096, 65535, "run end"])
    def test_long_stretches_match_the_rule_loop(self, monkeypatch, change):
        # the benchmark's live stream: a run of each symbol, each run longer
        # than two full-length stretches; one id is changed at an offset into
        # the second run's first full-length stretch, where the first
        # difference is found by halving, or at that run's last symbol
        sigma, run = 4, 2 * LAST_STRETCH + 4096
        ids = [s for s in range(sigma) for _ in range(run)]
        alphabet = Alphabet("abcd")
        stretches = []
        walk = _Core._walk

        def stretch_spy(core, data, lo, hi):
            stretches.append((lo, hi))
            return walk(core, data, lo, hi)

        monkeypatch.setattr(_Core, "_walk", stretch_spy)
        assert UdDecider(alphabet).feed_ids(ids).ok
        full = next(lo for lo, hi in stretches if hi - lo == LAST_STRETCH and lo >= run)
        if change is not None:
            ids[2 * run - 1 if change == "run end" else full + change] = 2
        found = []

        def finder_spy(a, b):
            i = _first_difference(a, b)
            assert a[:i] == b[:i] and a[i] != b[i]
            found.append((len(a), i))
            return i

        monkeypatch.setattr(decider_module, "_first_difference", finder_spy)
        decider, reference = UdDecider(alphabet), _Core(sigma)
        assert decider.feed_ids(ids) == reference.feed(ids)
        assert core_state(decider._core) == core_state(reference)
        if isinstance(change, int):
            assert (LAST_STRETCH, change) in found

    @pytest.mark.parametrize("size", [255, 300])
    @pytest.mark.parametrize(
        "container", [list, tuple, bytes, bytearray, pytest.param(lambda ids: ids, id="range"), iter]
    )
    def test_every_container_gives_the_same_result(self, size, container):
        # the cycle through 255 symbols, walked again in bulk, then every
        # other symbol, which intrudes on the cycle: three batches, each a
        # range, so that every container can carry them on both routes
        alphabet = Alphabet([chr(256 + i) for i in range(size)])
        decider, reference = UdDecider(alphabet), _Core(size)
        for batch in (range(255), range(255), range(0, 255, 2)):
            ids = container(batch)
            refs = sys.getrefcount(ids)
            verdict = decider.feed_ids(ids)
            assert verdict == reference.feed(batch)
            # the core keeps no reference to the batch, and changes no buffer
            assert sys.getrefcount(ids) == refs
            if isinstance(ids, bytearray):
                assert ids == bytearray(batch)
        assert verdict == Verdict(False, Reason.CYCLE_INTRUSION, 512)
        assert core_state(decider._core) == core_state(reference)

    @pytest.mark.parametrize("size, bulk", [(255, True), (256, False)])
    def test_the_largest_byte_alphabet_and_the_next(self, monkeypatch, size, bulk):
        alphabet = Alphabet([chr(i) for i in range(256, 256 + size)])
        rng = random.Random(size)
        # the cycle through every symbol stays decodable; a random tail rejects
        ids = list(range(size)) * 3 + [rng.randrange(size) for _ in range(size)]
        routes = []
        feed_bytes = _Core.feed_bytes
        monkeypatch.setattr(_Core, "feed_bytes", lambda core, data: routes.append(data) or feed_bytes(core, data))
        decider = UdDecider(alphabet)
        verdict = decider.feed_ids(ids)
        reference = _Core(size)
        assert verdict == reference.feed(ids) and not verdict.ok
        assert core_state(decider._core) == core_state(reference)
        word = "".join(alphabet.symbols[i] for i in ids)
        assert UdDecider(alphabet).feed(word) == verdict
        assert bool(routes) == bulk

    @pytest.mark.parametrize("sigma", [2, 16, 255])
    @pytest.mark.parametrize("runs", [True, False])
    def test_an_accepted_stream_takes_at_most_two_steps_a_symbol_through_the_loop(self, monkeypatch, sigma, runs):
        # a run of each symbol in turn (2 sigma - 1 distinct edges, as the
        # benchmark's live stream), or the cycle through all symbols (sigma
        # edges): each new edge is a single step, and so is the first visit
        n = 10**5
        if runs:
            ids = [s for s in range(sigma) for _ in range(n // sigma)]
        else:
            ids = list(range(sigma)) * (n // sigma)
        # each batch the rule loop takes, by its length
        steps = []
        feed = _Core.feed

        def spy(core, batch):
            batch = list(batch)
            steps.append(len(batch))
            return feed(core, batch)

        monkeypatch.setattr(_Core, "feed", spy)
        decider = UdDecider(Alphabet([chr(256 + i) for i in range(sigma)]))
        assert decider.feed_ids(ids).ok
        assert sum(steps) == len(steps) <= 2 * sigma + 1
