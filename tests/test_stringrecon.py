import dataclasses
import hashlib
import itertools
import json
import math
import random
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shinglesync import (
    DEFAULT_DELIMITER,
    MODE_FIXED,
    MODE_RATELESS,
    Alphabet,
    ReconConfig,
    ShingledWord,
    ShingleMultiset,
    ShingleTable,
    TokenDecider,
    apply_merge_records,
    channel_pair,
    decoding_count,
    delimited,
    merge_until_ud,
    random_edits,
    recommend_shingle_len,
    run_protocol,
    seams_to_records,
    shingle_sequence,
)
from shinglesync import field, setrecon, shingles, stringrecon, transport
from shinglesync.errors import (
    BoundExceededError,
    EncodingCapacityError,
    InvalidParameterError,
    InvalidSymbolError,
    InvariantError,
    ProtocolError,
    SessionAbortError,
    ShingleSyncError,
    TransportClosedError,
)
from shinglesync.field import P61, FieldSpec, is_probable_prime
from shinglesync.setrecon import EvalBundle, RatelessDecoder, ShingleCodec, partition
from shinglesync.shingles import CodeSpace, code_count
from shinglesync.stringrecon import (
    FIELD,
    MAX_K,
    PROTOCOL_VERSION,
    MergeChains,
    SessionReport,
    _MeteredEndpoint,
    _own_spans,
    _pack_block,
    _reconcile_step,
    _unpack_block,
    _windows,
    _caps,
    _work_cap,
    check_field,
    decode_bundle,
    decode_handoff,
    decode_hello,
    decode_merges,
    decode_reply,
    decode_pairs,
    decode_request,
    decode_runs,
    encode_bundle,
    encode_handoff,
    encode_hello,
    encode_merges,
    encode_reply,
    encode_pairs,
    encode_request,
    encode_runs,
    occ_bits_cap,
    session_field,
    coarse_shift,
    decode_shift,
    step2_buckets,
    whole_value,
    word_occ_bits,
)
from shinglesync.transport import Frame, FrameKind, Listener, connect, encode_varint

from conftest import (
    char_values_loop,
    copied_table,
    reference_moved,
    session_codec,
    session_elements,
    shingle_code,
    span_labels,
    table_columns,
    table_counts,
)


def run_session(word_a, word_b, config_a, config_b=None, alpha=None, timeout=120):
    """Run the initiator on `word_a` and the responder on `word_b`, and
    return both results; what either raises is raised here.

    Each party closes its endpoint when it returns or raises, as in
    `scripted_session`, so a party that stops with an error wakes its peer's
    wait for a frame at once.  Past `timeout` both endpoints are closed.
    """
    a, b = channel_pair()

    def party(word, endpoint, role, config):
        try:
            return run_protocol(word, endpoint, role, config, alpha)
        finally:
            endpoint.close()

    with ThreadPoolExecutor(2) as pool:
        fut_a = pool.submit(party, word_a, a, "initiator", config_a)
        fut_b = pool.submit(party, word_b, b, "responder", config_b or config_a)
        try:
            res_a = fut_a.result(timeout=timeout)
            res_b = fut_b.result(timeout=timeout)
        finally:
            a.close()
            b.close()
    return res_a, res_b


def bucket_differences(word_a, word_b, l, buckets, seed):
    """Shingle instances on one side only in each step-2 bucket, for two words
    over {0, 1}."""
    occ_bits = session_codec(word_a, word_b, l).occ_bits
    parts_a, parts_b = (
        partition(session_elements(w, l, Alphabet("01"), occ_bits), buckets, seed) for w in (word_a, word_b)
    )
    return [len(set(pa) ^ set(pb)) for pa, pb in zip(parts_a, parts_b)]


def scripted_session(word, role, config, script, timeout=30):
    """Run one party while `script` plays its peer on the other endpoint.

    Returns what the party raised, or None when it returned; what the script
    raises, past the channel closing, is raised here.  Each side closes its
    endpoint when it stops, so the other's wait for a frame ends.  Both run
    in daemon threads: if either still runs after `timeout` seconds, both
    endpoints are closed, which wakes either wait, and the test fails naming
    the sides that were still waiting.  The threads are named "party" and
    "script".
    """
    mine, peer = channel_pair()
    raised = {}

    def party():
        try:
            run_protocol(word, mine, role, config)
        except Exception as exc:  # noqa: BLE001 - handed to the test
            raised["party"] = exc
        finally:
            mine.close()

    def peer_script():
        try:
            script(peer)
        except TransportClosedError:
            pass
        except BaseException as exc:  # noqa: BLE001 - raised in the test
            raised["script"] = exc
        finally:
            peer.close()

    threads = {
        "party": threading.Thread(target=party, name="party", daemon=True),
        "script": threading.Thread(target=peer_script, name="script", daemon=True),
    }
    for thread in threads.values():
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads.values():
        thread.join(max(0.0, deadline - time.monotonic()))
    waiting = [name for name, thread in threads.items() if thread.is_alive()]
    if waiting:
        mine.close()
        peer.close()
        pytest.fail(f"{' and '.join(waiting)} still waiting after {timeout} s")
    if "script" in raised:
        raise raised["script"]
    return raised.get("party")


def hello_for(config, word):
    """The initiator's hello for `config` and `word`."""
    return Frame(FrameKind.HELLO, encode_hello(config, len(word), "".join(sorted(set(word)))))


def reply_for(word):
    """The responder's hello for `word`."""
    return Frame(FrameKind.HELLO, encode_reply(len(word), "".join(sorted(set(word)))))


def hello_with(config, word, **fields):
    """An initiator's hello payload for `config` and `word` whose fields
    named in `fields` (`mode`, the mode byte, and `l`, `m_hat` and `k`)
    hold the values given, whatever a config allows."""
    values = {"mode": 0 if config.mode == MODE_FIXED else 1, "l": config.l, "m_hat": config.m_hat, "k": config.k}
    values.update(fields)
    symbols = "".join(sorted(set(word))).encode()
    return (
        bytes([PROTOCOL_VERSION, values["mode"]])
        + b"".join(encode_varint(values[name]) for name in ("l", "m_hat", "k"))
        + config.seed.to_bytes(8, "big")
        + encode_varint(len(word))
        + encode_varint(len(symbols))
        + symbols
    )


def shingled(word, l):
    return ShingledWord(word, l, Alphabet(sorted(set(word))))


def window_codes(word):
    """The code of each window of a `ShingledWord`, read off its table's row."""
    table = word.table
    return [table.codes[table.row(key)] for key in word.keys]


def walk_log(table, row):
    """A walk from the shingle of row `row` over every instance the table
    has left, taking the last live successor at each choice: its path, or
    None at a dead end, and the choices it was put to."""
    left = table.mults[:]
    left[row] -= 1
    choices = []

    def choose(at, live):
        choices.append((at, live))
        if not live:
            raise LookupError
        return live[-1]

    try:
        path = table.walk(row, sum(left), left, choose)
    except LookupError:
        path = None
    return path, choices


def packed_choices(choices):
    """(index, live count) choices as `MergeChains` packs them: each index
    in ceil(log2 live) bits, big-endian, zero-padded to a byte."""
    bits = "".join(format(index, f"0{(live - 1).bit_length()}b") for index, live in choices)
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[at : at + 8], 2) for at in range(0, len(bits), 8))


def reference_chains(word, l, firsts):
    """The chains of the labels that start at `firsts`, from the shingle
    strings: each label's first shingle's index among the sorted distinct
    shingles, its glued count, and the choice of each glued shingle reached
    from a shingle that two or more distinct shingles extend with instances
    left, its index among them in sorted order, counted down chain by chain
    in order."""
    ordered = shingle_sequence(word, l)
    distinct = sorted(set(ordered))
    left = Counter(ordered)
    heads, glued, choices = [], [], []
    for first, end in zip(firsts, firsts[1:] + [len(ordered)]):
        if end - first > 1:
            heads.append(distinct.index(ordered[first]))
            glued.append(end - first - 1)
            left[ordered[first]] -= 1
            for before, after in zip(ordered[first:end], ordered[first + 1 : end]):
                extensions = [s for s in distinct if s[:-1] == before[1:] and left[s] > 0]
                if len(extensions) >= 2:
                    choices.append((extensions.index(after), len(extensions)))
                left[after] -= 1
    return MergeChains(heads, glued, packed_choices(choices))


def merged_multiset(word, l):
    w = shingled(word, l)
    return ShingleMultiset(Counter(span_labels(w, merge_until_ud(w))), base_len=l)


class TestMergeBookkeeping:
    def test_katana_merge_set(self):
        w = shingled("katana", 2)
        firsts = merge_until_ud(w)
        merged = ShingleMultiset(Counter(span_labels(w, firsts)))
        assert merged == ShingleMultiset({"$k": 1, "ka": 1, "at": 1, "tana": 1, "a$": 1})
        assert len(w.keys) - len(firsts) == 2
        result = decoding_count(merged, l=2)
        assert result.count == 1 and result.witnesses == ("katana",)

    def test_ud_word_has_empty_merge_log(self):
        w = shingled("axbxa", 2)
        assert merge_until_ud(w) == list(range(len(w.keys)))

    def test_repeated_character_word(self):
        assert decoding_count(merged_multiset("aaaa", 2), l=2).witnesses == ("aaaa",)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.text(alphabet="abcd"[:k], max_size=40)), st.integers(2, 6))
    def test_records_rebuild_remote_merge(self, w, l):
        # sender's chains through the frame to the receiver's rebuild, which
        # holds the sender's multiset after step 2
        word = shingled(w, l)
        firsts = merge_until_ud(word)
        chains = seams_to_records(word, firsts)
        assert chains == reference_chains(w, l, firsts)
        instances = len(word.keys)
        received = decode_merges(encode_merges(chains, instances), instances)
        assert received == chains
        # the count the receiver reports as merges_remote
        assert sum(received.glued) == instances - len(firsts)
        assert apply_merge_records(word.table, received) == ShingleMultiset(Counter(span_labels(word, firsts)))

    @pytest.mark.parametrize("symbols", ["ab", "abc", "abcd"])
    def test_choices_round_trip_at_every_branch_width(self, monkeypatch, symbols):
        # random words over 2 to 4 symbols, through the frame to the
        # receiver's rebuild, which reads every choice at the width of its
        # own branch point: branch points with every count of live
        # successors up to |symbols| + 1, the delimiter's included, occur
        read = Counter()
        real = stringrecon._choice_bits
        rng = random.Random(f"choices:{symbols}")
        for _ in range(40):
            w = "".join(rng.choice(symbols) for _ in range(rng.randrange(10, 60)))
            l = rng.randrange(2, 4)
            word = ShingledWord(w, l, Alphabet(symbols))
            firsts = merge_until_ud(word)
            chains = seams_to_records(word, firsts)
            assert chains == reference_chains(w, l, firsts)
            received = decode_merges(encode_merges(chains, len(word.keys)), len(word.keys))
            assert received == chains
            monkeypatch.setattr(stringrecon, "_choice_bits", lambda live: (read.update([live]), real(live))[1])
            rebuilt = apply_merge_records(copied_table(word.table), received)
            monkeypatch.setattr(stringrecon, "_choice_bits", real)
            assert rebuilt == ShingleMultiset(Counter(span_labels(word, firsts)))
        assert set(read) == set(range(2, len(symbols) + 2))

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="abc", max_size=30), st.text(alphabet="abd", max_size=30), st.integers(2, 5))
    def test_moved_table_is_the_peer_multiset(self, mine, theirs, l):
        # local less the local-only shingles plus the remote-only ones: the
        # remote multiset, whose sorted keys are its canonical order
        alphabet = Alphabet("abcd")
        ms_mine, ms_theirs = (ShingleMultiset(Counter(shingle_sequence(w, l))) for w in (mine, theirs))
        moved = ShingledWord(mine, l, alphabet).table
        moved.move(
            ShingleMultiset(ms_mine.entries - ms_theirs.entries),
            ShingleMultiset(ms_theirs.entries - ms_mine.entries),
        )
        assert list(moved.keys) == sorted(table_counts(moved))
        assert [moved.shingle(row) for row in range(len(moved))] == sorted(ms_theirs.entries)
        assert {moved.shingle(row): count for row, count in enumerate(moved.mults)} == ms_theirs.entries

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 4).flatmap(lambda k: st.tuples(st.just("abcd"[:k]), st.text(alphabet="abcd"[:k], max_size=40))),
        st.integers(0, 8),
        st.integers(0, 2**32),
        st.integers(2, 6),
    )
    def test_move_in_place_matches_the_copying_reference(self, symbols_word, edits, seed, l):
        # the local table, its columns patched by the step-2 difference,
        # against the same multiset's columns laid out afresh beside it, each
        # row's successors found by bisection
        symbols, mine = symbols_word
        theirs = random_edits(mine, edits, random.Random(seed), symbols)
        alphabet = Alphabet(symbols)
        ours, peer = Counter(shingle_sequence(mine, l)), Counter(shingle_sequence(theirs, l))
        remove, add = ShingleMultiset(ours - peer), ShingleMultiset(peer - ours)
        table = ShingledWord(mine, l, alphabet).table
        reference = reference_moved(table, remove, add)
        table.move(remove, add)
        assert table_counts(table) == table_counts(reference)
        assert [table.shingle(row) for row in range(len(table))] == [
            reference.shingle(row) for row in range(len(reference))
        ]
        assert {table.shingle(row): count for row, count in enumerate(table.mults)} == peer
        assert list(table.keys) == list(reference.keys) == sorted(table_counts(table))
        assert list(table.codes) == list(reference.codes)
        assert table.branch_runs() == reference.branch_runs()
        assert (table.succ, table.single) == (reference.succ, reference.single)
        for row in range(len(table)):
            assert walk_log(table, row) == walk_log(reference, row)
        sender = ShingledWord(theirs, l, alphabet)
        firsts = merge_until_ud(sender)
        chains = seams_to_records(sender, firsts)
        assert apply_merge_records(table, chains) == apply_merge_records(reference, chains) == ShingleMultiset(
            Counter(span_labels(sender, firsts))
        )

    def test_move_that_raises_changes_nothing(self):
        table = shingled("abca", 2).table
        before = (table_columns(table), table.branch_runs())
        with pytest.raises(InvalidParameterError, match="cannot remove 2 x 'ab', only 1 present"):
            table.move(ShingleMultiset({"bc": 1, "ab": 2}), ShingleMultiset({"cc": 1}))
        with pytest.raises(InvalidSymbolError):
            table.move(ShingleMultiset({"bc": 1}), ShingleMultiset({"cc": 1, "cx": 1}))
        assert (table_columns(table), table.branch_runs()) == before

    def test_bad_records_rejected(self):
        # "abca" at l = 2 holds one instance each of '$a', 'a$', 'ab', 'bc'
        # and 'ca', in key order.  Node 'a' is the one branch point: 'a$'
        # and 'ab' leave it, so a choice there takes 1 bit.  The rebuild
        # uses up the table's counts, so each gets a copy
        table = shingled("abca", 2).table
        # a head past the five distinct keys
        with pytest.raises(ProtocolError, match="past the 5 distinct keys"):
            apply_merge_records(copied_table(table), MergeChains([5], [1], b""))
        # two chains that both start at the one '$a'
        with pytest.raises(ProtocolError, match="starts at a shingle with no instance left"):
            apply_merge_records(copied_table(table), MergeChains([0, 0], [1, 1], b"\x00"))
        # from '$a' at the branch point with no choice to take
        with pytest.raises(ProtocolError, match="branch point past the last choice"):
            apply_merge_records(copied_table(table), MergeChains([0], [1], b""))
        # 'bc' to 'ca' is the one way on: no choice is read, and the byte
        # that holds one is left over
        with pytest.raises(ProtocolError, match="1 bytes of choices left over"):
            apply_merge_records(copied_table(table), MergeChains([3], [1], b"\x80"))
        # from '$a' to 'ab', index 1 in the first bit: the other seven pad
        with pytest.raises(ProtocolError, match="nonzero padding bits"):
            apply_merge_records(copied_table(table), MergeChains([0], [1], b"\x81"))
        # 'bc', 'ca', 'a$' (index 0), '$a', 'ab', then no successor of 'ab'
        # is left
        with pytest.raises(ProtocolError, match="no successor has an instance left"):
            apply_merge_records(copied_table(table), MergeChains([3], [5], b"\x00"))
        assert apply_merge_records(copied_table(table), MergeChains([0], [1], b"\x80")) == ShingleMultiset(
            {"$ab": 1, "a$": 1, "bc": 1, "ca": 1}
        )

    def test_a_choice_past_the_live_successors_is_refused(self):
        # "abacad" at l = 2: node 'a' has three successors, 'ab', 'ac' and
        # 'ad', so a choice there takes 2 bits, and 3 names none of them
        table = shingled("abacad", 2).table
        head = table.row(table.key("$a"))
        for index, label in enumerate(("$ab", "$ac", "$ad")):
            rebuilt = apply_merge_records(copied_table(table), MergeChains([head], [1], bytes([index << 6])))
            assert rebuilt[label] == 1
        with pytest.raises(ProtocolError, match="choice 3 is past the 3 live successors"):
            apply_merge_records(copied_table(table), MergeChains([head], [1], b"\xc0"))

    def test_chain_that_loops_past_its_instances_rejected(self):
        # 'aa' is a loop on node 'a' with three instances: a chain may go round
        # it three times, not four.  Node 'a' branches to 'a$' and 'aa' while
        # 'aa' has an instance left; once it has none, 'a$' is the one way on
        # and takes no rank, so a fourth round's rank is left over
        table = shingled("aaaa", 2).table
        head = table.row(table.key("aa"))
        # 'aa' is index 1 of the live 'a$' and 'aa', a bit each time
        assert apply_merge_records(copied_table(table), MergeChains([head], [2], b"\xc0")) == ShingleMultiset(
            {"$a": 1, "aaaa": 1, "a$": 1}
        )
        assert apply_merge_records(copied_table(table), MergeChains([head], [3], b"\xc0")) == ShingleMultiset(
            {"$a": 1, "aaaa$": 1}
        )
        # a third choice is no choice: its bit is left in the padding
        with pytest.raises(ProtocolError, match="nonzero padding bits"):
            apply_merge_records(copied_table(table), MergeChains([head], [3], b"\xe0"))

    def test_full_collapse_single_composite(self):
        # every boundary glued: one chain, and the rebuilt multiset is one
        # composite shingle
        word = shingled("abc", 2)
        chains = seams_to_records(word, [0])
        assert chains == reference_chains("abc", 2, [0]) == MergeChains([0], [3], b"")
        assert apply_merge_records(word.table, chains) == ShingleMultiset({"$abc$": 1})


# bytes produced by the original, unmasked packer: the wire format must not drift
GOLDEN_VALUES = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765]
GOLDEN_PACKED_13 = bytes.fromhex("0000004004003002802001a01501100dc0b209007485e44c43db31ea8620aba6d0")
# "katana" at l = 2 merges one label, 'tana': the chain from 'ta', the 7th
# of its 7 distinct shingles, gluing 'an' and 'na'.  Out of 'ta', 'a$', 'an'
# and 'at' all have an instance left, so the step to 'an' ships its index 1
# among those three in 2 bits; 'na' is the one way out of 'an'.  The count 1
# at 2 bits, as 7 instances hold at most 3 chains, then (6, 2) at 3 bits for
# its 7 instances (the head, the glued count), then the choice: '01' and six
# bits of padding
GOLDEN_CHAINS = bytes.fromhex("40c840")


@st.composite
def width_and_values(draw):
    bits = draw(st.integers(min_value=1, max_value=P61.bit_length()))
    values = draw(st.lists(st.integers(min_value=0, max_value=2**bits - 1), max_size=3000))
    return bits, values


@st.composite
def merge_chains(draw):
    """Chains an honest sender could frame: (chains, instances, base)."""
    base = draw(st.integers(1, 9))
    glued = draw(st.lists(st.integers(1, 40), max_size=20))
    instances = draw(st.integers(max(1, len(glued) + sum(glued)), 3000))
    heads = draw(st.lists(st.integers(0, instances - 1), min_size=len(glued), max_size=len(glued)))
    live = st.integers(2, base).flatmap(lambda c: st.tuples(st.integers(0, c - 1), st.just(c)))
    choices = draw(st.lists(live, max_size=sum(glued))) if base > 1 else []
    return MergeChains(heads, glued, packed_choices(choices)), instances


def value_block_bytes(count, p):
    """Bytes of a block of `count` residues mod `p`, at its bit length."""
    return (p.bit_length() * count + 7) // 8


# the prime of a binary session at l = 26 between 4096-symbol words at
# occurrence width 13, the widest they allow, whose residues cross at 42 bits
P42 = session_field(2, 26, 13, 2 * (4096 + 25)).p
# the session check's prime below 2**25 instances, whose value crosses at 89
# bits
M89 = 2**89 - 1
# the multiset of "0110" at l = 2 over '$', '0' and '1': '$0', '01', '11',
# '10' and '0$' once each, the initiator's table in the hand-off codec tests
TABLE_01 = ShingledWord("0110", 2, Alphabet("01")).table


class TestWireCodecs:
    @settings(max_examples=60, deadline=None)
    @given(width_and_values())
    def test_index_packing_round_trip(self, case):
        bits, values = case
        packed = _pack_block(values, bits)
        assert _unpack_block(packed, bits, len(values), "test") == values
        assert len(packed) == (bits * len(values) + 7) // 8

    def test_index_packing_golden_bytes(self):
        assert _pack_block(GOLDEN_VALUES, 13) == GOLDEN_PACKED_13
        assert _unpack_block(GOLDEN_PACKED_13, 13, len(GOLDEN_VALUES), "test") == GOLDEN_VALUES
        assert _pack_block([1, 0, 1, 1, 0, 1, 1], 1) == bytes([0xB6])
        assert _pack_block([2**32 - 1, 0, 12345678, 2**31], 32) == bytes.fromhex("ffffffff0000000000bc614e80000000")
        word = shingled("katana", 2)
        chains = seams_to_records(word, merge_until_ud(word))
        assert chains == MergeChains([6], [2], bytes([0b01_000000]))
        assert encode_merges(chains, 7) == GOLDEN_CHAINS
        assert decode_merges(GOLDEN_CHAINS, 7) == chains

    def test_value_blocks_are_62_bits_wide(self):
        # mod P61, the widest prime a session derives, a residue block is one
        # big-endian integer of count * 62 bits, zero-padded to a byte
        values = [1, P61 - 1, 0, 2**61 + 3]
        as_int = 0
        for v in values:
            as_int = (as_int << 62) | v
        nbytes = value_block_bytes(len(values), P61)
        assert encode_pairs([(0, v) for v in values], p=P61) == (
            as_int << (8 * nbytes - 62 * len(values))
        ).to_bytes(nbytes, "big")

    def test_value_blocks_take_the_bit_length_of_the_prime(self):
        assert P42.bit_length() == 42
        values = [1, P42 - 1, 2, 2**41 + 3]
        payload = encode_pairs([(0, v) for v in values], p=P42)
        assert len(payload) == value_block_bytes(4, P42) == 21
        assert decode_pairs(payload, 4, P42) == values
        assert int.from_bytes(payload, "big") == sum(v << (42 * (3 - i)) for i, v in enumerate(values))

    def test_truncated_index_block_rejected(self):
        for bad in (GOLDEN_PACKED_13[:-1], GOLDEN_PACKED_13 + b"\x00"):
            with pytest.raises(ProtocolError):
                _unpack_block(bad, 13, len(GOLDEN_VALUES), "test")

    def test_block_padding_must_be_zero(self):
        # 20 values of 13 bits leave 4 padding bits in the last byte
        bad = GOLDEN_PACKED_13[:-1] + bytes([GOLDEN_PACKED_13[-1] | 1])
        with pytest.raises(ProtocolError):
            _unpack_block(bad, 13, len(GOLDEN_VALUES), "test")

    @given(merge_chains())
    def test_merges_frame_round_trip(self, case):
        chains, instances = case
        payload = encode_merges(chains, instances)
        index_bits = (instances - 1).bit_length() or 1
        count_bytes = (((instances // 2).bit_length() or 1) + 7) // 8
        head_bytes = (2 * len(chains.heads) * index_bits + 7) // 8
        # no count of choices: they end the frame as they are
        assert len(payload) == count_bytes + head_bytes + len(chains.choices)
        assert payload.endswith(chains.choices)
        assert decode_merges(payload, instances) == chains

    @pytest.mark.parametrize(
        "payload,match",
        [(GOLDEN_CHAINS[:1], "holds 0 bytes, not 2 values"), (b"", "holds 0 bytes, not 1 values")],
        ids=["no-head-block", "short-count"],
    )
    def test_merges_frame_must_hold_its_head_block(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            decode_merges(payload, 7)

    def test_merges_choices_are_what_the_walk_reads(self):
        # the choices are the rest of the frame, however long: the walk
        # reads them and refuses what it leaves over (`apply_merge_records`)
        table = shingled("katana", 2).table
        for payload, match in (
            (GOLDEN_CHAINS[:-1], "branch point past the last choice"),
            (GOLDEN_CHAINS + b"\x00", "1 bytes of choices left over"),
            (GOLDEN_CHAINS[:-1] + b"\x41", "nonzero padding bits"),
        ):
            chains = decode_merges(payload, 7)
            assert chains.choices == payload[2:]
            with pytest.raises(ProtocolError, match=match):
                apply_merge_records(copied_table(table), chains)
        assert apply_merge_records(copied_table(table), decode_merges(GOLDEN_CHAINS, 7))["tana"] == 1

    def test_merges_past_the_instances_refused_before_the_walk(self):
        # one chain gluing 7 onto its head covers 8 of 7 instances
        payload = _pack_block([1], 2) + _pack_block([6, 7], 3) + b"\xff"
        with pytest.raises(ProtocolError, match="more than the 7"):
            decode_merges(payload, 7)

    def test_merges_count_is_as_wide_as_half_the_instances(self):
        # every chain covers two instances or more: 8 instances hold at most
        # 4 chains, so the count takes 3 bits, and 5 of them are refused
        # before the head block is read
        chains = MergeChains([0, 2, 4, 6], [1] * 4, b"")
        payload = encode_merges(chains, 8)
        assert payload[:1] == bytes([0b100_00000]) and decode_merges(payload, 8) == chains
        with pytest.raises(ProtocolError, match="5 chains, more than 8 instances hold"):
            decode_merges(_pack_block([5], 3) + bytes(100), 8)
        # a sender of one instance holds no chain, yet its count takes a bit
        assert encode_merges(MergeChains([], [], b""), 1) == bytes(1)

    def test_pair_frame_round_trip_and_exact_length(self):
        # values only, at the bit length of the prime, 62 bits mod P61: the
        # peer derives the points and the count
        payload = encode_pairs([(1, 2), (3, P61 - 1)], p=P61)
        assert len(payload) == value_block_bytes(2, P61) == 16
        assert decode_pairs(payload, 2, P61) == [2, P61 - 1]
        assert encode_pairs([], p=P61) == b"" and decode_pairs(b"", 0, P61) == []
        for bad, count in ((payload[:-1], 2), (payload + b"\x00", 2), (payload, 1), (payload, 3)):
            with pytest.raises(ProtocolError):
                decode_pairs(bad, count, P61)

    def test_value_blocks_hold_residues_only(self):
        # every value from p to the top of its width is refused, in each
        # frame that carries residues, mod P61 and mod derived primes
        for p in (P61, P42, session_field(4, 2, 3, 12).p):
            width = p.bit_length()
            for value in (p, p + 1, 2**width - 1):
                block = _pack_block([7, value], width)
                for decode in (
                    lambda: decode_pairs(block, 2, p),
                    # the width byte, one size of 5 at 3 bits, its 1-bit
                    # offset, and the check value
                    lambda: decode_bundle(
                        bytes([0, 0b101_00000, 1, 0]) + _pack_block([1], 89) + block, 1, 2, 5, p, M89
                    ),
                ):
                    with pytest.raises(ProtocolError, match=f"the prime {p} or more"):
                        decode()
            assert decode_pairs(_pack_block([7, p - 1], width), 2, p) == [7, p - 1]
            # no characteristic value at a point is 0
            with pytest.raises(ProtocolError, match="a value of 0"):
                decode_pairs(_pack_block([7, 0], width), 2, p)
        # the check value is a residue mod the check prime: 2**89 - 1, all
        # ones at 89 bits, is none
        head = bytes([0, 0b101_00000, 1, 0])
        with pytest.raises(ProtocolError, match=f"bundle check block holds a value of the prime {M89} or more"):
            decode_bundle(head + _pack_block([M89], 89), 1, 0, 5, P61, M89)
        assert decode_bundle(head + _pack_block([M89 - 1], 89), 1, 0, 5, P61, M89) == ([5], [], M89 - 1)

    def test_bundle_frame_round_trip_and_exact_length(self):
        # the session's occurrence width; the smallest bucket size at the bit
        # length of the sender's instance count (5: 3 bits); the offsets'
        # width and each size's offset from the smallest; the check value at
        # the bit length of the check prime, 89 bits in 12 bytes; then the
        # values, as many as the hello implies
        check = M89 - 2
        bundle = EvalBundle((7, 9), (1, P61 - 1), 5)
        payload = encode_bundle(bundle, occ_bits=3, bucket_sizes=[5], p=P61, check=check, m=M89)
        assert payload[:4] == bytes([3, 0b101_00000, 1, 0])
        assert payload[4:16] == _pack_block([check], 89) == bytes([0xFF] * 10 + [0xFE, 0b1_0000000])
        assert len(payload) == 4 + 12 + value_block_bytes(2, P61)
        assert decode_bundle(payload, 1, 2, 5, P61, M89) == ([5], [1, P61 - 1], check)
        # the same values mod a 42-bit prime take 42 bits each
        narrow = encode_bundle(EvalBundle((7, 9), (1, P42 - 1), 5), occ_bits=0, bucket_sizes=[5], p=P42, check=5, m=M89)
        assert len(narrow) == 4 + 12 + value_block_bytes(2, P42) == 27
        assert decode_bundle(narrow, 1, 2, 5, P42, M89) == ([5], [1, P42 - 1], 5)
        # the smallest of 4 sizes for 3 instances at 2 bits, then offsets
        # of 2 bits, and in a rateless bundle no value after the check's
        empty = encode_bundle(EvalBundle((), (), 3), occ_bits=1, bucket_sizes=[1, 0, 2, 0], p=P61, check=1, m=M89)
        assert empty == bytes([1, 0b00_000000, 2, 0b01_00_10_00]) + _pack_block([1], 89)
        assert decode_bundle(empty, 4, 0, 3, P61, M89) == ([1, 0, 2, 0], [], 1)
        # a check value of 0 is no product of nonzero factors
        with pytest.raises(ProtocolError, match="bundle check block holds a value of 0"):
            decode_bundle(empty[:4] + bytes(12), 4, 0, 3, P61, M89)
        # 607 instances: the smallest size at 10 bits, and offsets as wide as
        # the spread needs, 3 bits for sizes 300 and 307
        wide = encode_bundle(EvalBundle((), (), 607), occ_bits=2, bucket_sizes=[300, 307], p=P61, check=1, m=M89)
        assert wide == bytes([2]) + _pack_block([300], 10) + bytes([3, 0b000_111_00]) + _pack_block([1], 89)
        assert decode_bundle(wide, 2, 0, 607, P61, M89) == ([300, 307], [], 1)
        for bad in (payload[:1], payload[:3], payload[:15], payload[:-1], payload + b"\x00"):
            with pytest.raises(ProtocolError):
                decode_bundle(bad, 1, 2, 5, P61, M89)
        for count in (1, 3):
            with pytest.raises(ProtocolError):
                decode_bundle(payload, 1, count, 5, P61, M89)
        # five offsets need two bytes; one instance leaves the offsets 1 bit
        for buckets, instances in ((5, 3), (4, 1)):
            with pytest.raises(ProtocolError):
                decode_bundle(empty, buckets, 0, instances, P61, M89)

    def test_request_frame_round_trip_and_exact_length(self):
        # a width byte, then the counts at that width: the bit length of the largest
        payload = encode_request([3, 0, 2**16 - 1])
        assert payload == bytes.fromhex("1000030000ffff")
        assert decode_request(payload, 3) == [3, 0, 2**16 - 1]
        narrow = encode_request([3, 0, 1])
        assert narrow == bytes([2, 0b11_00_01_00])
        assert decode_request(narrow, 3) == [3, 0, 1]
        # a request asks for a value: all zeros, which protocol 17 sent for
        # a fresh session check, are refused
        assert encode_request([0] * 9) == bytes([1, 0, 0])
        with pytest.raises(ProtocolError, match="pair request asks for no value"):
            decode_request(bytes([1, 0, 0]), 9)
        for bad, buckets in ((payload, 2), (payload, 4), (payload[:-1], 3), (b"", 1), (b"\x01", 1)):
            with pytest.raises(ProtocolError):
                decode_request(bad, buckets)

    def test_handoff_and_runs_frames_round_trip_and_exact_length(self):
        # a runs frame: the run count and each run's window count at the bit
        # length of the windows' total (3: 2 bits), then each run's r + l - 1
        # characters as 2-bit ranks
        runs = encode_runs(["$0", "011"], 2, "$01")
        assert runs == bytes([0b10_01_10_00, 0b00_01_01_10, 0b10_000000])
        assert decode_runs(runs, 2, 3, "$01") == ["$0", "011"]
        assert encode_runs([], 2, "$01") == bytes(1) and decode_runs(bytes(1), 2, 0, "$01") == []
        for bad, total in ((runs[:-1], 3), (runs + b"\x00", 3), (runs, 2), (runs, 4)):
            with pytest.raises(ProtocolError):
                decode_runs(bad, 2, total, "$01")
        # the responder's hand-off: the walk's total at the bit length of
        # the initiator's instance count (2: 2 bits), the walk's runs, then
        # its own runs, whose windows total the walk's plus the responder's
        # instances less the initiator's
        walked = encode_handoff(["011"], ["$0"], 2, 2, "$01")
        assert walked == bytes([0b01_000000]) + encode_runs(["$0"], 2, "$01") + encode_runs(["011"], 2, "$01")
        assert decode_handoff(walked, 3, 2, TABLE_01) == (["011"], ["$0"])
        assert decode_handoff(encode_handoff([], [], 1, 2, "$01"), 1, 1, TABLE_01) == ([], [])
        # protocol 17's residual width byte, or any byte past the runs, is refused
        for extra in (b"\x00", b"\x01\x80", bytes(12)):
            with pytest.raises(ProtocolError, match=f"runs frame holds {len(extra)} bytes past its runs"):
                decode_handoff(walked + extra, 3, 2, TABLE_01)
        for bad in (b"", walked[:1], walked[:-1]):
            with pytest.raises(ProtocolError):
                decode_handoff(bad, 3, 2, TABLE_01)
        # another instance count derives another total for the runs
        for instances in (1, 4):
            with pytest.raises(ProtocolError):
                decode_handoff(walked, instances, 2, TABLE_01)
        # the walk holds at most the initiator's instances, and at least its
        # surplus over the responder's
        with pytest.raises(ProtocolError, match="found 3 instances, more than the initiator's 2"):
            decode_handoff(_pack_block([3], 2) + bytes(10), 5, 2, TABLE_01)
        with pytest.raises(ProtocolError, match="fewer than the initiator's 2 surplus instances"):
            decode_handoff(_pack_block([0], 3) + bytes(10), 2, 4, TABLE_01)

    def test_hello_round_trip(self):
        config = ReconConfig(l=7, mode=MODE_FIXED, m_hat=33, k=5, seed=12345)
        payload = encode_hello(config, 999, "abc")
        assert decode_hello(payload) == (config, 999, "abc")
        # version, mode, l, m_hat and k in a byte each, the 8-byte seed, the
        # word length 999 in two bytes, the symbol count and the symbols
        assert payload == bytes([19, 0, 7, 33, 5]) + (12345).to_bytes(8, "big") + b"\xe7\x07\x03abc"
        # the responder's hello: the version and its word, no parameters
        reply = encode_reply(999, "abc")
        assert reply == bytes([19]) + b"\xe7\x07\x03abc"
        assert decode_reply(reply) == (999, "abc")

    @pytest.mark.parametrize(
        "payload,match",
        [
            (b"", "empty hello frame"),
            (bytes([19]), "holds no mode"),
            (bytes([19, 1]), "hello l ends inside its varint"),
            # l = 2**32, in the five bytes 2**32 - 1 takes
            (bytes([19, 1, 0x80, 0x80, 0x80, 0x80, 0x10]), f"hello l {2**32} is past {2**32 - 1}"),
            # a sixth byte, refused before it is read
            (bytes([19, 1, 0x80, 0x80, 0x80, 0x80, 0x80]) + bytes(20), "hello l takes more than 5 varint bytes"),
            (bytes([19, 1, 0x87, 0x00]) + bytes(20), "hello l is not a minimal varint"),
            (bytes([19, 1, 7, 0x80, 0x80, 0x80, 0x80, 0x10]), f"hello m_hat {2**32} is past"),
            # k takes one byte, as it is at most 8
            (bytes([19, 1, 7, 0, 0x81, 0x00]), "hello k takes more than 1 varint bytes"),
            (bytes([19, 1, 7, 0, 9]), "hello k 9 is past 8"),
            (bytes([19, 1, 7, 0, 1]) + bytes(7), "holds no seed"),
            # a word length of 2**64, in the ten bytes 2**64 - 1 takes
            (bytes([19, 1, 7, 0, 1]) + bytes(8) + bytes([0x80] * 9 + [0x02]), f"word length {2**64} is past"),
            (bytes([19, 1, 7, 0, 1]) + bytes(8) + bytes([0x80] * 10), "word length takes more than 10 varint bytes"),
            (bytes([19, 1, 7, 0, 1]) + bytes(8) + b"\x05\x03ab", "hello frame length mismatch"),
            (bytes([19, 1, 7, 0, 1]) + bytes(8) + b"\x05\x01ab", "hello frame length mismatch"),
        ],
        ids=[
            "empty", "no-mode", "no-l", "l-past-2-32", "l-sixth-byte", "l-not-minimal", "m_hat-past-2-32",
            "k-second-byte", "k-past-the-cap", "no-seed", "word-past-2-64", "word-eleventh-byte",
            "symbols-short", "symbols-long",
        ],
    )
    def test_hostile_hello_varints_are_refused(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            decode_hello(payload)

    @pytest.mark.parametrize(
        "payload,match",
        [
            (bytes([19]), "hello reply word length ends inside its varint"),
            (bytes([19, 0x80, 0x00, 0]), "hello reply word length is not a minimal varint"),
            (bytes([19, 2, 2, 0x61]), "hello reply frame length mismatch"),
            # a reply that still echoes the parameters is no reply
            (encode_hello(ReconConfig(l=7), 2, "ab"), "hello reply"),
        ],
        ids=["empty-word", "not-minimal", "symbols-short", "with-parameters"],
    )
    def test_hostile_replies_are_refused(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            decode_reply(payload)

    def test_config_holds_only_what_sessions_vary(self):
        assert [f.name for f in dataclasses.fields(ReconConfig)] == ["l", "mode", "m_hat", "k", "seed"]
        assert ReconConfig(l=2).delimiter == DEFAULT_DELIMITER

    @pytest.mark.parametrize(
        "name,value",
        [("l", 2), ("l", 2**32 - 1), ("m_hat", 0), ("m_hat", 2**32 - 1),
         ("k", 1), ("k", 8), ("seed", 0), ("seed", 2**64 - 1)],
    )
    def test_config_bounds_fit_the_hello(self, name, value):
        config = ReconConfig(**{"l": 7, name: value})
        assert decode_hello(encode_hello(config, 5, "ab"))[0] == config

    @pytest.mark.parametrize(
        "name,value",
        [("l", 1), ("l", 2**32), ("m_hat", -1), ("m_hat", 2**32),
         ("k", 0), ("k", 9), ("k", 2**16), ("seed", -1), ("seed", 2**64)],
    )
    def test_config_rejects_what_the_hello_cannot_carry(self, name, value):
        with pytest.raises(InvalidParameterError):
            ReconConfig(**{"l": 7, name: value})

    @staticmethod
    def refuses_version(version):
        # in both directions: the responder refuses the initiator's hello,
        # and the initiator the responder's
        hello = bytearray(hello_for(ReconConfig(l=7, seed=1), "ab").payload)
        assert hello[0] == PROTOCOL_VERSION == 19
        hello[0] = version
        with pytest.raises(ProtocolError, match=f"unsupported protocol version {version}"):
            decode_hello(bytes(hello))
        reply = bytearray(reply_for("ab").payload)
        reply[0] = version
        with pytest.raises(ProtocolError, match=f"unsupported protocol version {version}"):
            decode_reply(bytes(reply))

        def script(peer):
            peer.send(Frame(FrameKind.HELLO, bytes(hello)))
            peer.recv()

        exc = scripted_session("ab", "responder", ReconConfig(l=7, seed=1), script)
        assert isinstance(exc, ProtocolError) and f"version {version}" in str(exc)

        def replying(peer):
            peer.recv()
            peer.send(Frame(FrameKind.HELLO, bytes(reply)))
            peer.recv()

        exc = scripted_session("ab", "initiator", ReconConfig(l=7, seed=1), replying)
        assert isinstance(exc, ProtocolError) and f"version {version}" in str(exc)

    def test_hello_of_protocol_version_10_is_refused(self):
        # version 10 built its elements in the library codec's scheme
        self.refuses_version(10)

    def test_hello_of_protocol_version_11_is_refused(self):
        # version 11 sent every residue mod P61, at 62 bits
        self.refuses_version(11)

    def test_hello_of_protocol_version_12_is_refused(self):
        # version 12 took the occurrence width from the word lengths, and
        # sent no OCC_WIDTH frame
        self.refuses_version(12)

    def test_hello_of_protocol_version_13_is_refused(self):
        # version 13 handed every bucket's remote polynomial over as
        # coefficients, and the initiator answered with its roots as runs
        self.refuses_version(13)

    def test_hello_of_protocol_version_14_is_refused(self):
        # version 14 drew its points from a 2**40 span at every size, so its
        # residues were wider and its points other than these
        self.refuses_version(14)

    def test_hello_of_protocol_version_15_is_refused(self):
        # version 15 read every element's shingle in base |symbols| + 1, a
        # digit for the delimiter in every character, so its fields were
        # wider and its elements other than these
        self.refuses_version(15)

    def test_hello_of_protocol_version_16_is_refused(self):
        # version 16 reconciled every fine bucket, and its first pair request
        # held no bucket shift
        self.refuses_version(16)

    def test_hello_of_protocol_version_17_is_refused(self):
        # version 17 carried k session check values in the session's field,
        # whose span they widened, and handed over what its walk missed as
        # residual coefficients
        self.refuses_version(17)

    def test_hello_of_protocol_version_18_is_refused(self):
        # version 18 framed with a 4-byte length, the responder echoed the
        # initiator's parameters, and MERGES shipped a full rank at each
        # branch point
        self.refuses_version(18)

    def test_hello_symbols_must_be_utf8(self):
        payload = encode_hello(ReconConfig(l=7, seed=1), 2, "ab")
        bad = payload[:-2] + b"\xff\xfe"
        with pytest.raises(ProtocolError):
            decode_hello(bad)

    @pytest.mark.parametrize(
        "fields",
        [{"l": 1}, {"mode": 2}, {"k": 0}],
        ids=["l-below-2", "unknown-mode", "k-zero"],
    )
    def test_hello_fields_are_validated(self, fields):
        with pytest.raises(ProtocolError):
            decode_hello(hello_with(ReconConfig(l=7, seed=1), "ab", **fields))


class TestSessions:
    def test_equal_strings(self):
        config = ReconConfig(l=2, mode=MODE_RATELESS, seed=5)
        (ra, rep_a), (rb, rep_b) = run_session("hello", "hello", config)
        assert ra == rb == "hello"
        assert rep_a.outcome == rep_b.outcome == "ok"
        assert rep_a.merges_local == rep_b.merges_local == 0

    @pytest.mark.parametrize("mode,m_hat", [(MODE_FIXED, 16), (MODE_RATELESS, 0)])
    def test_katana_vs_katna(self, mode, m_hat):
        config = ReconConfig(l=2, mode=mode, m_hat=m_hat, k=4, seed=11)
        (ra, rep_a), (rb, rep_b) = run_session("katana", "katna", config)
        assert ra == "katna" and rb == "katana"
        assert "tana" in merged_multiset("katana", 2).entries
        assert rep_a.merges_local == 2 and rep_b.merges_remote == 2

    def test_a_party_that_raises_ends_the_session_at_once(self, monkeypatch):
        # a broken walk names each of its first run's instances twice: the
        # initiator refuses the hand-off, and its peer, which waits for the
        # next frame, is woken by the closed channel and not by the
        # receive timeout
        walk = stringrecon._walk

        def broken_walk(*args):
            walked, found = walk(*args)
            return walked + walked[:1], found

        monkeypatch.setattr(stringrecon, "_walk", broken_walk)
        config = ReconConfig(l=2, mode=MODE_RATELESS, seed=11)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="the peer names 2 instances of"):
            run_session("katana", "katna", config)
        assert time.monotonic() - start < 10

    def test_empty_vs_nonempty(self):
        config = ReconConfig(l=2, mode=MODE_RATELESS, seed=2)
        (ra, _), (rb, _) = run_session("", "ab", config)
        assert ra == "ab" and rb == ""

    def test_report_text_has_step_accounting(self):
        config = ReconConfig(l=2, mode=MODE_RATELESS, seed=8)
        (_, rep_a), _ = run_session("abcabc", "abcab", config, alpha=1)
        text = rep_a.to_text()
        for key in (
            "role=initiator",
            "outcome=ok",
            "alpha=1",
            "step2_bits_sent=",
            "step5_bits_sent=",
            "total_bits_sent=",
            "merges_local=",
        ):
            assert key in text, key

    def test_report_has_raw_bits_and_longest_label(self):
        config = ReconConfig(l=2, mode=MODE_RATELESS, seed=8)
        (_, rep_a), (_, rep_b) = run_session("katana", "katna", config)
        # 4 symbols, 2 bits each
        assert rep_a.raw_bits == rep_b.raw_bits == (6 + 5) * 2
        for word, rep in (("katana", rep_a), ("katna", rep_b)):
            w = shingled(word, 2)
            firsts = merge_until_ud(w)
            assert rep.longest_label == max(len(label) for label in span_labels(w, firsts)) - 1
            assert f"longest_label={rep.longest_label}\n" in rep.to_text()
            assert f"raw_bits={rep.raw_bits}\n" in rep.to_text()
        # 'tana', three positions
        assert rep_a.longest_label == 3
        # the symbols of both hellos: 2 bits a symbol, where each word alone needs 1
        (_, rep_a), (_, rep_b) = run_session("ab", "cd", config)
        assert rep_a.raw_bits == rep_b.raw_bits == 8
        # a single symbol still costs 1 bit a symbol
        (_, rep_a), _ = run_session("aaa", "aa", config)
        assert rep_a.raw_bits == 5

    def test_report_has_merges_bits_and_wire_ratio(self, rng):
        config = ReconConfig(l=6, mode=MODE_RATELESS, seed=8)
        wa = "".join(rng.choice("01") for _ in range(300))
        wb = random_edits(wa, 4, rng, "01")
        (_, rep_a), (_, rep_b) = run_session(wa, wb, config)
        for word, rep in ((wa, rep_a), (wb, rep_b)):
            w = shingled(word, 6)
            chains = seams_to_records(w, merge_until_ud(w))
            payload = encode_merges(chains, len(w.keys))
            assert rep.frame_bits["MERGES"][0] == 8 * (1 + len(encode_varint(len(payload))) + len(payload))
            # a choice only at a branch point, a bit where a binary word's
            # node has two successors left: far fewer than the glued shingles
            assert 0 < 8 * len(chains.choices) < rep.merges_local
            total = sum(sent + received for sent, received in rep.bits.values())
            assert rep.wire_ratio() == total / rep.raw_bits == total / (len(wa) + len(wb))
            text = rep.to_text()
            assert f"merges_frame_bits_sent={rep.frame_bits['MERGES'][0]}\n" in text
            assert f"wire_ratio={round(rep.wire_ratio(), 4)}\n" in text
            assert json.loads(rep.to_json()) == rep.figures()
        assert rep_a.wire_ratio() == rep_b.wire_ratio()
        # no ratio before the hellos give raw_bits
        assert SessionReport(role="initiator").wire_ratio() is None
        assert "wire_ratio" not in SessionReport(role="initiator").to_text()

    @pytest.mark.parametrize("mode,m_hat", [(MODE_FIXED, 16), (MODE_RATELESS, 0)])
    def test_both_parties_report_the_step2_pairs(self, mode, m_hat):
        config = ReconConfig(l=3, mode=mode, m_hat=m_hat, k=4, seed=9)
        (_, rep_a), (_, rep_b) = run_session("katana", "katna", config)
        assert rep_a.step2_pairs == rep_b.step2_pairs > 0
        # only the responder runs the session check
        assert (rep_a.step2_checks, rep_b.step2_checks) == (0, 1)
        if mode == MODE_FIXED:
            # two buckets, whose first batches of m_hat / 2 values cover the
            # difference, all in the bundle beside the session check's value
            assert rep_a.step2_buckets == 2
            assert rep_a.step2_pairs == m_hat
            assert rep_a.step2_rounds == 0
        assert f"step2_pairs={rep_a.step2_pairs}\n" in rep_a.to_text()

    def test_zero_difference_rateless_session_sends_one_value(self, rng):
        # the bundle's sizes match, so the estimate is 0, and the bundle's
        # check value verifies the session, whatever k.  6 instances make
        # two fine buckets, too few to join: one value verifies each
        config = ReconConfig(l=2, mode=MODE_RATELESS, k=6, seed=5)
        (_, rep_a), (_, rep_b) = run_session("hello", "hello", config)
        assert rep_a.step2_fine_buckets == rep_b.step2_fine_buckets == 2
        assert rep_a.step2_buckets == rep_b.step2_buckets == 2
        assert rep_a.step2_estimate == rep_b.step2_estimate == 0
        assert rep_a.step2_pairs == rep_b.step2_pairs == 2
        # 300 + 12 instances make sixteen fine buckets, which join into one,
        # which one value verifies
        word = "".join(rng.choice("01") for _ in range(300))
        config = ReconConfig(l=13, mode=MODE_RATELESS, k=8, seed=5)
        (_, rep_a), (_, rep_b) = run_session(word, word, config)
        assert rep_a.step2_fine_buckets == rep_b.step2_fine_buckets == 16
        assert rep_a.step2_buckets == rep_b.step2_buckets == 1
        assert rep_a.step2_pairs == rep_b.step2_pairs == 1
        # the check value rides in the bundle: one round asks for the bucket's value
        assert rep_a.step2_rounds == 1 and rep_b.step2_checks == 1

    @pytest.mark.parametrize("mode,m_hat", [(MODE_FIXED, 96), (MODE_RATELESS, 0)])
    def test_both_parties_report_buckets_and_rounds(self, monkeypatch, rng, mode, m_hat):
        kinds = []
        real_send = _MeteredEndpoint.send

        def spy(wire, kind, payload=b""):
            kinds.append(kind)
            return real_send(wire, kind, payload)

        monkeypatch.setattr(_MeteredEndpoint, "send", spy)
        wa = "".join(rng.choice("01") for _ in range(300))
        wb = random_edits(wa, 3, rng, "01")
        config = ReconConfig(l=13, mode=mode, m_hat=m_hat, k=8, seed=29)
        (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        assert rep_a.step2_fine_buckets == rep_b.step2_fine_buckets == 16
        # fixed mode reconciles the fine buckets; a rateless responder may
        # join them, and both parties report what it chose
        assert rep_a.step2_buckets == rep_b.step2_buckets <= 16
        assert mode == MODE_RATELESS or rep_a.step2_buckets == 16
        assert rep_b.step2_estimate > 0
        assert rep_a.step2_estimate == (0 if mode == MODE_FIXED else rep_b.step2_estimate)
        assert rep_a.step2_rounds == rep_b.step2_rounds == kinds.count(FrameKind.DELTA_REQ)
        assert (rep_a.step2_checks, rep_b.step2_checks) == (0, 1)
        # a rateless bundle holds no bucket values; these fixed first batches
        # of 96 / 16 leave fewer buckets to top up, and the bundle holds the check
        assert rep_a.step2_rounds >= (mode == MODE_RATELESS)
        text = rep_b.to_text()
        for name in ("step2_buckets", "step2_fine_buckets", "step2_estimate", "step2_rounds", "step2_checks",
                     "step2_rejected", "step2_walked"):
            assert f"{name}={getattr(rep_b, name)}\n" in text
        assert "step2_residual" not in text

    @pytest.mark.parametrize("mode,m_hat", [(MODE_FIXED, 96), (MODE_RATELESS, 0)])
    def test_sessions_never_factor_or_solve(self, monkeypatch, rng, mode, m_hat):
        # both modes run the one rateless decoder and the polynomial hand-off
        def forbidden(*_args, **_kwargs):
            raise AssertionError("a session reached the fixed-mode route")

        for mod, name in ((field, "find_roots"), (setrecon, "find_roots"),
                          (field, "interpolate_rational"), (setrecon, "interpolate_rational"),
                          (setrecon, "reconcile_fixed"), (stringrecon, "reconcile_fixed")):
            monkeypatch.setattr(mod, name, forbidden)
        wa = "".join(rng.choice("01") for _ in range(96))
        wb = random_edits(wa, 3, rng, "01")
        config = ReconConfig(l=13, mode=mode, m_hat=m_hat, k=8, seed=41)
        (ra, _), (rb, _) = run_session(wa, wb, config)
        assert ra == wb and rb == wa

    def test_sessions_decode_without_the_node_gram_decider(self, monkeypatch, rng):
        # the decode checks its walk on the graph's own node ids, so no gram
        # is interned a second time in a `TokenDecider`
        def forbidden(*_args):
            raise AssertionError("a session pushed shingles into a node-gram decider")

        monkeypatch.setattr(TokenDecider, "push_shingles", forbidden)
        wa = "".join(rng.choice("01") for _ in range(300))
        wb = random_edits(wa, 4, rng, "01")
        (ra, _), (rb, _) = run_session(wa, wb, ReconConfig(l=13, seed=53))
        assert ra == wb and rb == wa

    def test_each_party_sorts_and_indexes_its_keys_once(self, monkeypatch, rng):
        # a party sorts its positions by key in `ShingledWord`, which lays
        # out the one table it builds, its successor rows included, from
        # that one sort; step 6 moves that table into the peer's and patches
        # the columns, sorting only the keys the move changes
        sorts, indexes = [], []
        real_init = ShingleTable.__init__

        def sorted_spy(items, *args, **kwargs):
            out = sorted(items, *args, **kwargs)
            sorts.append((threading.current_thread().name, len(out)))
            return out

        def init_spy(table, *args):
            indexes.append(threading.current_thread().name)
            real_init(table, *args)

        monkeypatch.setattr(shingles, "sorted", sorted_spy, raising=False)
        monkeypatch.setattr(ShingleTable, "__init__", init_spy)
        wa = "".join(rng.choice("01") for _ in range(2000))
        wb = random_edits(wa, 4, rng, "01")
        (ra, _), (rb, _) = run_session(wa, wb, ReconConfig(l=13, seed=47))
        assert ra == wb and rb == wa
        full = [thread for thread, size in sorts if size > 1000]
        assert len(full) == len(set(full)) == 2
        assert len(indexes) == len(set(indexes)) == 2

    @pytest.mark.parametrize("mode,m_hat", [(MODE_FIXED, 96), (MODE_RATELESS, 0)])
    def test_sessions_decode_no_instance(self, monkeypatch, rng, mode, m_hat):
        # each party knows its own one-sided instances by their positions in
        # its word, and the peer's arrive as runs of symbols; the elements
        # come from the table keys, not from the library codec
        def forbidden(*_args):
            raise AssertionError("a session used the library codec")

        for name in ("decode", "encode", "encode_multiset"):
            monkeypatch.setattr(ShingleCodec, name, forbidden)
        wa = "".join(rng.choice("01") for _ in range(300))
        wb = random_edits(wa, 4, rng, "01")
        config = ReconConfig(l=13, mode=mode, m_hat=m_hat, k=8, seed=43)
        (ra, _), (rb, _) = run_session(wa, wb, config)
        assert ra == wb and rb == wa

    def test_bits_by_frame_kind_add_up_to_the_steps_and_the_endpoints(self, rng):
        wa = "".join(rng.choice("01") for _ in range(300))
        wb = random_edits(wa, 3, rng, "01")
        config = ReconConfig(l=13, mode=MODE_RATELESS, k=8, seed=47)
        ends = channel_pair()
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(run_protocol, word, end, role, config)
                       for word, end, role in ((wa, ends[0], "initiator"), (wb, ends[1], "responder"))]
            (ra, rep_a), (rb, rep_b) = (fut.result(timeout=60) for fut in futures)
        assert ra == wb and rb == wa
        for rep, end in ((rep_a, ends[0]), (rep_b, ends[1])):
            for side, counter in ((0, end.bits_sent), (1, end.bits_received)):
                by_kind = sum(bits[side] for bits in rep.frame_bits.values())
                by_step = sum(bits[side] for bits in rep.bits.values())
                assert by_kind == by_step == counter()
            figures = rep.figures()
            for kind, (sent, received) in rep.frame_bits.items():
                assert figures[f"{kind.lower()}_frame_bits_sent"] == sent
                assert f"{kind.lower()}_frame_bits_recv={received}\n" in rep.to_text()
            assert json.loads(rep.to_json()) == figures
        kinds = {"HELLO", "OCC_WIDTH", "EVAL_BUNDLE", "EVAL_PAIR", "DELTA_REQ", "DELTA", "MERGES", "DONE"}
        assert set(rep_a.frame_bits) == set(rep_b.frame_bits) == kinds
        # what one party sends of a kind, the other receives
        assert all(rep_a.frame_bits[kind] == rep_b.frame_bits[kind][::-1] for kind in kinds)
        # only the initiator sends values, and only the responder requests them
        assert rep_a.frame_bits["EVAL_PAIR"][1] == rep_a.frame_bits["DELTA_REQ"][0] == 0
        # only the responder states its occurrence width, in one byte after
        # the kind byte and the one-byte length
        assert rep_a.frame_bits["OCC_WIDTH"] == [0, 16 + 8]

    def test_responder_hands_over_the_instances_it_found(self, monkeypatch):
        # "aa" three times on the responder's side against once: the hand-off
        # holds two instances of "aa", as the first run of windows of
        # "$aaaab$" that holds them, "aaa"
        sent = []
        real_encode = stringrecon.encode_handoff

        def spy(runs, *rest):
            sent.append(runs)
            return real_encode(runs, *rest)

        monkeypatch.setattr(stringrecon, "encode_handoff", spy)
        wa, wb = "aab", "aaaab"
        config = ReconConfig(l=2, mode=MODE_RATELESS, k=8, seed=7)
        (ra, _), (rb, _) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        assert sent == [["aaa"]]

    def test_fixed_responder_feeds_m_plus_k_bundle_pairs(self, monkeypatch, rng):
        fed = []
        real_feed = RatelessDecoder.feed

        def spy(decoder, point, value, local=None):
            fed.append(point)
            return real_feed(decoder, point, value, local)

        monkeypatch.setattr(RatelessDecoder, "feed", spy)
        wa = "".join(rng.choice("01") for _ in range(96))
        wb = random_edits(wa, 2, rng, "01")
        l, k, m_hat = 13, 8, 96
        config = ReconConfig(l=l, mode=MODE_FIXED, m_hat=m_hat, k=k, seed=17)
        # 108 instances a side make eight buckets, each bundled 96 / 8 values
        buckets, first = 8, 12
        diffs = bucket_differences(wa, wb, l, buckets, config.seed)
        assert all(m + 1 <= first for m in diffs) and sum(diffs) > 0
        (ra, rep_a), (rb, _) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        # the bundle alone, which holds the session check's value beside them
        assert rep_a.step2_pairs == buckets * first and rep_a.step2_rounds == 0
        # each bucket's decoder feeds the first m_b + 1 of its own points: a
        # bucket's k is 1, the session check verifies the rest
        points = session_codec(wa, wb, l).field.sample_points(config.seed, buckets * first)
        assert fed == [z for b, m in enumerate(diffs) for z in points[b * first : b * first + m + 1]]

    def test_fixed_session_recovers_a_difference_of_m_hat_with_top_ups(self):
        # a bucket's first batch is its share of m_hat, so a bucket holding
        # its share of the difference or more tops up its one verification
        # value, or more, in a later round
        wa = "".join(random.Random(8).choice("01") for _ in range(96))
        wb = flip(wa, 40)
        l, k = 13, 8
        ca, cb = Counter(shingle_sequence(wa, l)), Counter(shingle_sequence(wb, l))
        m = sum(((ca - cb) + (cb - ca)).values())
        assert m > 0
        config = ReconConfig(l=l, mode=MODE_FIXED, m_hat=m, k=k, seed=19)
        buckets = 8
        diffs = bucket_differences(wa, wb, l, buckets, config.seed)
        assert sum(diffs) == m
        first = -(-m // buckets)
        assert any(d + 1 > first for d in diffs)
        (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        assert rep_a.step2_buckets == buckets
        # a bucket is served its first batch or, past it, m_b + 1
        assert rep_a.step2_pairs == rep_b.step2_pairs == sum(max(first, d + 1) for d in diffs)
        assert rep_a.step2_rounds == rep_b.step2_rounds >= 1

    def test_fixed_bundle_is_bounded_by_both_words_instances(self):
        # no difference holds more than both words' instances, so the largest
        # m_hat a hello may state bundles no more than those, a bucket's share
        # rounded up, beside the check's value, and the session recovers
        rng = random.Random(64)
        wa = "".join(rng.choice("01") for _ in range(64))
        wb = random_edits(wa, 2, rng, "01")
        l, k = 8, 8
        config = ReconConfig(l=l, mode=MODE_FIXED, m_hat=2**32 - 1, k=k, seed=5)
        instances = len(wa) + len(wb) + 2 * (l - 1)
        buckets = step2_buckets(len(wa) + l - 1, len(wb) + l - 1)
        start = time.perf_counter()
        (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        assert time.perf_counter() - start < 10
        assert rep_a.step2_pairs == rep_b.step2_pairs == buckets * -(-instances // buckets)
        assert rep_a.step2_pairs <= instances + buckets and rep_a.step2_rounds == 0

    def test_hello_bits_are_the_frame_arithmetic(self):
        config = ReconConfig(l=2, mode=MODE_RATELESS, seed=5)
        (_, rep_a), (_, rep_b) = run_session("katana", "kana", config)
        # each frame header is the kind byte and a one-byte length.  The
        # initiator's hello: version, mode, l = 2, m_hat = 64 and k = 8 in a
        # byte each, the 8-byte seed, the word length 6 and the symbol
        # count in a byte each, and the symbols
        assert rep_a.step_bits("hello") == (16 + 8 * (5 + 8 + 2 + len("aknt")), 16 + 8 * (1 + 2 + len("akn")))
        # the responder's: version, its word length 4 and symbol count, and
        # its symbols, with no parameters
        assert rep_b.step_bits("hello") == rep_a.step_bits("hello")[::-1]

    @pytest.mark.parametrize("over", ["channel", "socket"])
    def test_silent_peer_ends_the_session_at_the_receive_deadline(self, monkeypatch, over):
        # the peer sends its hello and then nothing, without closing
        monkeypatch.setattr(transport, "RECV_TIMEOUT_S", 0.2)
        if over == "channel":
            mine, peer = channel_pair()
        else:
            listener = Listener("127.0.0.1", 0)
            peer = connect("127.0.0.1", listener.port)
            mine = listener.accept()
            listener.close()
        config = ReconConfig(l=2, mode=MODE_RATELESS, seed=3)
        peer.send(hello_for(config, "abcab"))
        raised = {}

        def party():
            try:
                run_protocol("abcba", mine, "responder", config)
            except Exception as exc:  # noqa: BLE001 - handed to the test
                raised["exc"] = exc

        thread = threading.Thread(target=party, daemon=True)
        start = time.perf_counter()
        thread.start()
        thread.join(5)
        elapsed = time.perf_counter() - start
        mine.close()
        peer.close()
        assert not thread.is_alive() and elapsed < 5
        assert isinstance(raised.get("exc"), TransportClosedError)

    def test_scripted_session_fails_at_its_timeout_when_both_sides_wait(self):
        # the responder waits for a hello and the script for the responder's
        # first frame, so neither side ever closes its end
        start = time.perf_counter()
        with pytest.raises(pytest.fail.Exception, match="party and script still waiting after 2 s"):
            scripted_session("abcba", "responder", ReconConfig(l=2), lambda peer: peer.recv(), timeout=2)
        assert time.perf_counter() - start < 5

    def test_rateless_step2_bits_are_the_frame_arithmetic(self, monkeypatch, rng):
        batches, requests, walks = [], [], []
        real_pairs, real_request = stringrecon.encode_pairs, stringrecon.encode_request
        real_handoff = stringrecon.encode_handoff

        def handoff_spy(runs, walked, *rest):
            walks.append(walked)
            return real_handoff(runs, walked, *rest)

        def pairs_spy(pairs, **kwargs):
            batches.append(len(pairs))
            return real_pairs(pairs, **kwargs)

        def request_spy(counts):
            requests.append(counts)
            return real_request(counts)

        monkeypatch.setattr(stringrecon, "encode_pairs", pairs_spy)
        monkeypatch.setattr(stringrecon, "encode_request", request_spy)
        monkeypatch.setattr(stringrecon, "encode_handoff", handoff_spy)
        def framed(payload_bits):
            # the kind byte and the payload's byte length as a varint
            return 8 + 8 * len(encode_varint(payload_bits // 8)) + payload_bits

        l = 13
        alphabet = Alphabet("01")
        # 40 + 12 instances make eight fine buckets, too small to join, and
        # 1000 + 12 make 32, which the responder joins
        for n, fine in ((40, 8), (1000, 32)):
            batches.clear()
            requests.clear()
            walks.clear()
            wa = "".join(rng.choice("01") for _ in range(n))
            wb = random_edits(wa, 3, rng, "01")
            ca, cb = Counter(shingle_sequence(wa, l)), Counter(shingle_sequence(wb, l))
            config = ReconConfig(l=l, mode=MODE_RATELESS, k=8, seed=23)
            (_, rep_a), (_, rep_b) = run_session(wa, wb, config)
            codec = session_codec(wa, wb, l)
            sizes, own = (
                [len(part) for part in partition(session_elements(w, l, alphabet, codec.occ_bits), fine, 23)]
                for w in (wa, wb)
            )
            # the responder's estimate is the fine buckets' size gaps, and
            # the initiator reads it off the first request
            assert rep_a.step2_estimate == rep_b.step2_estimate == sum(abs(a - b) for a, b in zip(sizes, own))
            assert rep_a.step2_fine_buckets == rep_b.step2_fine_buckets == fine
            buckets = fine >> coarse_shift(own, sizes, config.k)
            assert rep_a.step2_buckets == rep_b.step2_buckets == buckets
            assert (buckets < fine) == (n > 40)
            # every residue crosses at the bit length of the prime both
            # parties derive from the hellos
            value_bits = codec.field.p.bit_length()
            assert rep_a.value_bits == rep_b.value_bits == value_bits < 62
            assert f"value_bits={value_bits}\n" in rep_a.to_text()
            pairs, rounds = rep_a.step2_pairs, rep_a.step2_rounds
            # one value frame per request
            assert sum(batches) == pairs == rep_b.step2_pairs
            assert len(batches) == len(requests) == rounds == rep_b.step2_rounds
            # the walk finds every one-sided instance of the initiator's,
            # and the check after it passes
            (walked,) = walks
            assert _windows(walked, l) == ShingleMultiset(ca - cb)
            assert rep_b.step2_walked == sum((ca - cb).values()) > 0
            assert rep_a.step2_walked == 0 and rep_b.step2_checks == 1

            def block(count, width=rep_a.value_bits):  # zero-padded to a byte
                return 8 * ((width * count + 7) // 8)

            def runs_bits(mine, theirs, word):
                # each side's one-sided instances as the runs of its word
                # that take them; the run count and window counts at the bit
                # length of their total, then 2 bits a character
                w = ShingledWord(word, l, alphabet)
                wanted = Counter({w.table.key(s): m for s, m in (mine - theirs).items()})
                runs = w.runs(wanted)
                total = sum((mine - theirs).values())
                assert sum(len(run) - l + 1 for run in runs) == total
                return block(1 + len(runs), max(1, total.bit_length())) + block(sum(map(len, runs)), 2)

            # initiator: a bundle of the session's width byte, the smallest
            # bucket size at the bit length of its instance count, the
            # offsets' width byte and each size's offset at that width, and
            # the check value at 89 bits; one value frame per request; no
            # DELTA
            instances_a = sum(ca.values())
            offset_bits = max(1, (max(sizes) - min(sizes)).bit_length())
            sent_a = (
                framed(8 + block(1, instances_a.bit_length()) + 8 + block(fine, offset_bits) + block(1, 89))
                + sum(framed(block(batch)) for batch in batches)
            )
            # responder: its width byte; the shift byte that opens the first
            # request, each request's width byte and counts at that width;
            # then the walk's total at the bit length of the initiator's
            # instance count, the walk's runs, and its own runs
            found = sum((ca - cb).values())
            walk_bits = block(1 + len(walked), found.bit_length()) + block(sum(map(len, walked)), 2)
            request_bits = [8 + block(buckets, max(1, max(counts).bit_length())) for counts in requests]
            request_bits[0] += 8  # the shift
            sent_b = (
                framed(8)
                + sum(map(framed, request_bits))
                + framed(block(1, instances_a.bit_length()) + walk_bits + runs_bits(cb, ca, wb))
            )
            assert rep_a.step_bits("step2") == (sent_a, sent_b)
            assert rep_b.step_bits("step2") == (sent_b, sent_a)

    def test_random_edit_sessions_both_modes(self, rng):
        for mode, m_hat in ((MODE_RATELESS, 0), (MODE_FIXED, 96)):
            for trial in range(4):
                n = 96
                wa = "".join(rng.choice("01") for _ in range(n))
                wb = random_edits(wa, rng.choice([1, 2, 4]), rng, "01")
                config = ReconConfig(l=13, mode=mode, m_hat=m_hat, k=8, seed=300 + trial)
                (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
                assert ra == wb and rb == wa
                bound = 2 * n * math.log2(n - config.l + 1)
                assert rep_a.step_bits("step5")[0] <= bound
                assert rep_b.step_bits("step5")[0] <= bound

    def test_fixed_mode_past_its_bound_tops_up(self, rng):
        # a difference far past m_hat = 4 is requested bucket by bucket
        wa = "".join(rng.choice("01") for _ in range(128))
        wb = random_edits(wa, 12, rng, "01")
        config = ReconConfig(l=13, mode=MODE_FIXED, m_hat=4, k=4, seed=77)
        (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        # 140 instances make sixteen buckets, each bundled one value beside
        # the session check: some top up
        assert rep_a.step2_buckets == 16
        assert rep_a.step2_rounds == rep_b.step2_rounds >= 1
        assert rep_a.step2_pairs == rep_b.step2_pairs > 16 * 1

    def test_a_responder_hello_with_parameters_is_refused(self):
        # the responder adopts the initiator's parameters, so its hello
        # carries none: one that does, as protocol 18's echo did, is no
        # reply, and the initiator answers it with ABORT
        config = ReconConfig(l=2, mode=MODE_RATELESS, seed=4)
        a, b = channel_pair()
        seen = []

        def fake_responder():
            b.recv()
            b.send(hello_for(config, "ab"))
            seen.append(b.recv().kind)

        thread = threading.Thread(target=fake_responder, daemon=True)
        thread.start()
        with pytest.raises(ProtocolError, match="hello reply"):
            run_protocol("ab", a, "initiator", config)
        thread.join(60)
        assert not thread.is_alive() and seen == [FrameKind.ABORT]

    def test_socket_transport_interchangeable(self, rng):
        wa = "".join(rng.choice("01") for _ in range(64))
        wb = random_edits(wa, 2, rng, "01")
        config = ReconConfig(l=12, mode=MODE_RATELESS, seed=13)
        listener = Listener("127.0.0.1", 0)
        results = {}

        def serve():
            endpoint = listener.accept()
            try:
                results["b"] = run_protocol(wb, endpoint, "responder", config)
            finally:
                endpoint.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = connect("127.0.0.1", listener.port)
        try:
            results["a"] = run_protocol(wa, client, "initiator", config)
        finally:
            client.close()
            thread.join(60)
            listener.close()
        assert not thread.is_alive()
        assert results["a"][0] == wb and results["b"][0] == wa


def step2_exchange(word_a, word_b, buckets, config, codec):
    """Step 2 alone between an initiator holding `word_a` and a responder
    holding `word_b`, at a given bucket count; returns both parties' (only
    local, only remote) multisets and reports."""
    a, b = channel_pair()
    reports = (SessionReport("initiator"), SessionReport("responder"))
    with ThreadPoolExecutor(2) as pool:
        futures = [
            pool.submit(_reconcile_step, _MeteredEndpoint(end, rep), role, config, codec.alphabet,
                        ShingledWord(mine, config.l, codec.alphabet), len(theirs) + config.l - 1, buckets, rep)
            for end, rep, role, mine, theirs in (
                (a, reports[0], "initiator", word_a, word_b),
                (b, reports[1], "responder", word_b, word_a),
            )
        ]
        deltas = [fut.result(timeout=60) for fut in futures]
    return deltas, reports


class TestStep2Evaluation:
    """Characteristic values in whole fixed-mode sessions."""

    def test_fixed_session_evaluates_once_per_party(self, monkeypatch):
        batches = []
        real_values = setrecon._char_values

        def values_spy(elements, points, p):
            batches.append((threading.current_thread().name, len(points)))
            return real_values(elements, points, p)

        fed, fed_alone = [], []
        real_feed = RatelessDecoder.feed

        def feed_spy(decoder, point, value, local=None):
            fed.append(threading.current_thread().name)
            if local is None:
                fed_alone.append(point)
            return real_feed(decoder, point, value, local)

        monkeypatch.setattr(setrecon, "_char_values", values_spy)
        monkeypatch.setattr(RatelessDecoder, "feed", feed_spy)
        rng = random.Random(3)
        wa = "".join(rng.choice("01") for _ in range(400))
        wb = random_edits(wa, 2, rng, "01")
        config = ReconConfig(l=12, mode=MODE_FIXED, m_hat=64, k=8, seed=5)
        (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        (responder,) = set(fed)
        (initiator,) = {thread for thread, _ in batches} - {responder}
        # the initiator evaluates every value it sends once; the responder each
        # value it feeds once, in batches, and no value that reaches a bucket
        # already done
        assert sum(m for thread, m in batches if thread == initiator) == rep_a.step2_pairs
        assert len(fed) <= sum(m for thread, m in batches if thread == responder) <= rep_b.step2_pairs
        assert fed_alone == []

    def test_fixed_bundle_payload_is_golden(self):
        rng = random.Random(11)
        wa = "".join(rng.choice("01") for _ in range(600))
        wb = random_edits(wa, 3, rng, "01")
        config = ReconConfig(l=12, mode=MODE_FIXED, m_hat=64, k=8, seed=7)
        a, b = channel_pair()
        sent = []
        send = a.send

        def record(frame):
            sent.append(frame)
            send(frame)

        a.send = record
        with ThreadPoolExecutor(2) as pool:
            fut_a = pool.submit(run_protocol, wa, a, "initiator", config)
            fut_b = pool.submit(run_protocol, wb, b, "responder", config)
            assert fut_a.result(timeout=60)[0] == wb and fut_b.result(timeout=60)[0] == wa
        (payload,) = [f.payload for f in sent if f.kind == FrameKind.EVAL_BUNDLE]
        # 611 instances a side make 32 buckets, each bundled 64 / 32 values;
        # the session's width, the smallest size at 10 bits, the offsets'
        # width and the offsets, and the initiator's whole-set value at the
        # check point, mod 2**89 - 1, come before them
        buckets, first = 32, 2
        codec = session_codec(wa, wb, config.l)
        p = codec.field.p
        m, z = check_field(2 * 611, config.seed)
        assert m == M89
        elements = session_elements(wa, config.l, Alphabet("01"), codec.occ_bits)
        parts = partition(elements, buckets, config.seed)
        least = min(map(len, parts))
        width = max(len(part) - least for part in parts).bit_length()
        assert payload[:4] == bytes([codec.occ_bits]) + _pack_block([least], 10) + bytes([width])
        assert len(payload) == 4 + (width * buckets + 7) // 8 + 12 + value_block_bytes(buckets * first, p)
        sizes, values, check = decode_bundle(payload, buckets, buckets * first, 611, p, m)
        assert sizes == [len(part) for part in parts]
        points = codec.field.sample_points(config.seed, buckets * first)
        for b, part in enumerate(parts):
            window = slice(b * first, (b + 1) * first)
            assert values[window] == char_values_loop(part, points[window], p)
        assert check == whole_value(elements, z, m) == char_values_loop(elements, [z], m)[0]
        # no shingle of either word occurs more than twice: elements at 1
        # occurrence bit, code_count(2, 12) * 2 = 32,714 of them, in 15 bits;
        # the span's floor for 1,222 instances, 2**(12 + 4), puts the prime
        # in 17 bits, where protocol 17's check floor at k = 8 put it in 21
        assert (codec.occ_bits, codec.field.point_span, p.bit_length()) == (1, 2**16, 17)
        assert hashlib.sha256(payload).hexdigest() == (
            "632c881bcaaa50716d106d391cd0e3e568a24947434aaf1dbf5b15245ef454df"
        )


# SHA-256 of each party's MERGES and DELTA payloads in one seeded rateless
# session over 2048 bits with 8 edits at l = 16 (3 chains, about 1,160
# merges and 25-27 choices a side, each of two live successors, in 4 bytes);
# each MERGES frame's chain count takes 11 bits, for half of its 2,063
# instances.  Only the responder sends
# a DELTA: its walk finds all 112 of the initiator's one-sided instances,
# so it carries their runs beside its own
GOLDEN_SESSION = {
    ("initiator", "MERGES"): "b6cd370cafe7194aac75f2e78eb768d2956de34e7b31ede75b92d148c9d7d48a",
    ("responder", "MERGES"): "cb416d0ddaa74c1839146b45691c1e1581f7511a609c1b62362741874a447d73",
    ("responder", "DELTA"): "1edd5db301c951e3694f139ae0c3d7fdcab921277b18070819fdfd11ca668c29",
}


def test_session_wire_is_golden():
    rng = random.Random(2048)
    wa = "".join(rng.choice("01") for _ in range(2048))
    wb = random_edits(wa, 8, rng, "01")
    config = ReconConfig(l=16, mode=MODE_RATELESS, seed=21)
    ends = channel_pair()
    digests, handoffs = {}, []
    for role, end in zip(("initiator", "responder"), ends):
        def record(frame, send=end.send, role=role):
            if frame.kind in (FrameKind.MERGES, FrameKind.DELTA):
                digests[(role, frame.kind.name)] = hashlib.sha256(frame.payload).hexdigest()
                if frame.kind == FrameKind.DELTA:
                    handoffs.append(frame.payload)
            send(frame)

        end.send = record
    with ThreadPoolExecutor(2) as pool:
        fut_a = pool.submit(run_protocol, wa, ends[0], "initiator", config)
        fut_b = pool.submit(run_protocol, wb, ends[1], "responder", config)
        assert fut_a.result(timeout=60)[0] == wb and fut_b.result(timeout=60)[0] == wa
    # the hand-off read as the initiator reads it: each side's one-sided
    # instances, as the words' shinglings give them
    count_a, count_b = Counter(shingle_sequence(wa, 16)), Counter(shingle_sequence(wb, 16))
    table = shingled(wa, 16).table
    (payload,) = handoffs
    runs, walked = decode_handoff(payload, len(wb) + 15, len(wa) + 15, table)
    assert _windows(walked, 16) == ShingleMultiset(count_a - count_b) and sum((count_a - count_b).values()) == 112
    assert _windows(runs, 16) == ShingleMultiset(count_b - count_a)
    assert digests == GOLDEN_SESSION


class TestPartitionedStep2:
    def test_bucket_rule(self):
        # the largest power of two B with B**2 <= 2 * min(instances)
        assert step2_buckets(1, 10**6) == step2_buckets(0, 0) == 1
        assert step2_buckets(2, 2) == 2
        assert step2_buckets(7, 8) == 2 and step2_buckets(8, 8) == 4
        assert step2_buckets(96 + 12, 96 + 12) == 8  # 96 bits at l = 13
        # 4096 bits at l = 18 hold 4113 instances, and 16 edits move them by
        # under 20: never across the threshold at 4096 + 4096
        for instances in (4097, 4113, 4129, 8191):
            assert step2_buckets(instances, 4113) == 64
        assert step2_buckets(2047, 4113) == 32
        assert step2_buckets(16403, 16403) == 128

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([1, 2, 4, 16]),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    def test_difference_recovered_with_m_plus_k_pairs_per_bucket(self, buckets, seed, extra_a, extra_b):
        # two words over four symbols share a middle, and each adds up to
        # three symbols at either end: at most 12 one-sided instances a side
        rng = random.Random(seed)

        def symbols(count):
            return "".join(rng.choice("abcd") for _ in range(count))

        middle = symbols(80)
        word_a = symbols(extra_a) + middle + symbols(rng.randint(0, extra_a))
        word_b = symbols(extra_b) + middle + symbols(rng.randint(0, extra_b))
        config = ReconConfig(l=4, mode=MODE_RATELESS, k=8, seed=seed)
        count_a, count_b = Counter(shingle_sequence(word_a, 4)), Counter(shingle_sequence(word_b, 4))
        only_a, only_b = ShingleMultiset(count_a - count_b), ShingleMultiset(count_b - count_a)
        codec = session_codec(word_a, word_b, 4)
        (delta_a, delta_b), (rep_a, rep_b) = step2_exchange(word_a, word_b, buckets, config, codec)
        assert delta_a == (only_a, only_b)
        assert delta_b == (only_b, only_a)
        # at most 12 instances per side, so no bucket's rung passes the exact
        # part of the ladder, and each bucket the responder reconciles lands
        # on m_b + 1, its one verification value
        coarse = rep_b.step2_buckets
        assert rep_a.step2_buckets == coarse <= buckets == rep_a.step2_fine_buckets == rep_b.step2_fine_buckets
        parts_a = partition(session_elements(word_a, 4, codec.alphabet, codec.occ_bits), coarse, seed)
        parts_b = partition(session_elements(word_b, 4, codec.alphabet, codec.occ_bits), coarse, seed)
        expected = sum(len(set(pa) ^ set(pb)) + 1 for pa, pb in zip(parts_a, parts_b))
        assert rep_a.step2_pairs == rep_b.step2_pairs == expected


class TestCoarseBuckets:
    """The responder's coarse buckets: B' from its estimate of the
    difference, the fine buckets' size gaps, and each coarse bucket's
    ladder started at its own part of that lower bound."""

    def test_coarse_buckets_join_runs_of_fine_buckets(self, rng):
        # bucket_of takes the hash's top bits, so coarse bucket c holds
        # exactly the fine buckets c * 2**shift to (c + 1) * 2**shift - 1
        elements = [rng.randrange(1, 2**40) for _ in range(500)]
        fine = partition(elements, 32, 9)
        for shift in range(6):
            joined = [sorted(itertools.chain.from_iterable(fine[at : at + 2**shift])) for at in range(0, 32, 2**shift)]
            assert [sorted(part) for part in partition(elements, 32 >> shift, 9)] == joined

    def test_the_estimate_sizes_the_coarse_buckets(self):
        big = [130] * 128
        # no size gap: one coarse bucket
        assert coarse_shift(big, big, 8) == 7
        # a gap of 9 wants four buckets of at most 4, a gap of 512 or more
        # keeps all 128
        assert coarse_shift(big, [131] * 9 + [130] * 119, 8) == 5
        assert coarse_shift(big, [134] * 128, 8) == 0
        # a bucket is sized by the gaps, not by the size difference
        assert coarse_shift(big, [131, 129] * 4 + [130] * 120, 8) == 6

    def test_small_fine_buckets_keep_room_for_the_margin(self):
        # two instances a side in each of sixteen buckets leave room for
        # 2 + 2 + k = 12 values a bucket, under the 8 * (0 + 1) + 8 that even
        # an estimate of 0 must have room for: no bucket joins
        assert coarse_shift([2] * 16, [2] * 16, 8) == 0
        # at three times the instances the room is 20, and all sixteen join
        assert coarse_shift([6] * 16, [6] * 16, 8) == 4
        # the room is both parties' caps in all, as their meters count it
        assert _caps([6] * 16, [6] * 16, 8) == (16 * 6 * 20, 16 * 6 * 20)
        # and the initiator serves its largest buckets first within its
        # total budget of its instances, the responder's and B * k values
        assert _caps([6] * 16, [10] + [6] * 15, 8) == (6 * 24 + 15 * 6 * 20, (10 + 96 + 8) * 10 + 210 * 6)

    def test_fewer_than_sixteen_fine_buckets_never_join(self):
        # a difference can hide from the estimate over a few fine buckets:
        # however much room, these keep them all
        assert coarse_shift([6] * 4, [6] * 4, 8) == 0
        assert coarse_shift([60] * 8, [60] * 8, 8) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.booleans(),
        st.text(alphabet="01", min_size=1, max_size=6),
        st.integers(8, 160),
        st.integers(0, 4),
        st.integers(3, 8),
        st.integers(0, 2**32),
    )
    # a unary word with two edits: its 2 one-sided instances lie in one
    # coarse bucket out of 16 fine ones, and the walk's third pass finds
    # them
    @example(True, "0", 150, 2, 4, 1)
    def test_the_estimate_is_a_lower_bound(self, periodic, period, n, edits, l, seed):
        # random words, or periodic ones, whose edits may close cycles that
        # touch no run of the responder's
        rng = random.Random(seed)
        wa = (period * n)[:n] if periodic else "".join(rng.choice("01") for _ in range(n))
        wb = random_edits(wa, edits, rng, "01")
        config = ReconConfig(l=l, seed=seed)
        decoders = []
        real = RatelessDecoder.from_elements.__func__

        def spy(cls, elements, codec, remote_set_size, k=8, least=0):
            decoders.append((sorted(elements), least))
            return real(cls, elements, codec, remote_set_size, k, least)

        with mock.patch.object(RatelessDecoder, "from_elements", classmethod(spy)):
            (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        codec = session_codec(wa, wb, l)
        elems_a, elems_b = (session_elements(w, l, codec.alphabet, codec.occ_bits) for w in (wa, wb))
        assert rep_a.step2_estimate == rep_b.step2_estimate <= len(set(elems_a) ^ set(elems_b))
        coarse = rep_b.step2_buckets
        assert rep_a.step2_buckets == coarse <= rep_a.step2_fine_buckets == rep_b.step2_fine_buckets
        parts_a, parts_b = partition(elems_a, coarse, seed), partition(elems_b, coarse, seed)
        assert [elements for elements, _ in decoders] == [sorted(part) for part in parts_b]
        for (_, least), part_a, part_b in zip(decoders, parts_a, parts_b):
            assert least <= len(set(part_a) ^ set(part_b))
        if (periodic, period, n, edits, l, seed) == (True, "0", 150, 2, 4, 1):
            assert (coarse, rep_b.step2_fine_buckets, rep_b.step2_walked) == (1, 16, 2)

    def test_a_word_without_runs_is_walked_at_the_coarse_buckets(self):
        # a unary word one symbol longer: the responder has no run, so the
        # walk's first two passes have no start, and its third, from every
        # node of its word, finds the one instance more in the single coarse
        # bucket the estimate of 1 asks for
        (ra, rep_a), (rb, rep_b) = run_session("0" * 301, "0" * 300, ReconConfig(l=3, seed=3))
        assert ra == "0" * 300 and rb == "0" * 301
        assert (rep_b.step2_fine_buckets, rep_b.step2_buckets, rep_b.step2_estimate) == (16, 1, 1)
        assert (rep_b.step2_walked, rep_b.step2_checks) == (1, 1)

    # protocol v16's wire bits for the three sessions below, which
    # reconciled all 128 fine buckets
    V16_BITS = (8296, 7856, 7904)

    def test_a_one_edit_session_at_16384_symbols_sends_under_0_5_of_v16(self):
        # the benchmark's edit-16k cell in size: a random binary word and
        # one random edit, rateless, at the paper's shingle length
        n = 16384
        reports, bits = [], 0
        for seed in (1, 2, 3):
            rng = random.Random(f"edit16k-guard:{seed}")
            wa = "".join(rng.choice("01") for _ in range(n))
            wb = random_edits(wa, 1, rng, "01")
            config = ReconConfig(l=recommend_shingle_len(n, 0.6), seed=rng.randrange(1 << 62))
            (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
            assert ra == wb and rb == wa
            assert rep_a.step2_fine_buckets == 128 > rep_a.step2_buckets == rep_b.step2_buckets
            reports.append(rep_a)
            bits += sum(sent + received for sent, received in rep_a.bits.values())
        assert sum(rep.step2_rounds for rep in reports) <= 3 * len(reports)
        # 0.56 at protocol v18, 0.42 at v19
        assert bits <= 0.5 * sum(self.V16_BITS)


class TestSessionElements:
    """A session's elements, `code * 2**w + occ`, against the reference
    built from the shingles' strings, and the field both parties derive
    for them."""

    # symbol sets whose ranks put the delimiter '$' first ('a' and up),
    # between symbols ('!' and '#' below it, '~' above) and last
    SYMBOL_SETS = ["a", "01", "abc", "!~", "!#~", "!#"]

    @staticmethod
    def every_shingle(symbols, l):
        """Every length-l shingle over `symbols`: `$**lead + x + $**trail`
        for each run x of m >= 1 symbols, and the all-delimiter shingle."""
        yield "$" * l
        for m in range(1, l + 1):
            for lead in range(l - m + 1):
                for x in itertools.product(symbols, repeat=m):
                    yield "$" * lead + "".join(x) + "$" * (l - m - lead)

    @pytest.mark.parametrize("symbols", SYMBOL_SETS)
    def test_codes_are_exact_injective_and_in_range(self, symbols):
        # every shingle of l = 2..6, the empty word's all-delimiter one
        # included, takes the reference's code, no two the same, and the
        # codes fill [0, code_count) exactly
        alphabet = Alphabet(symbols)
        for l in range(2, 7):
            space = CodeSpace(alphabet, l)
            codes = {}
            for shingle in self.every_shingle(symbols, l):
                code = space.code(shingle)
                assert code == shingle_code(shingle, l, symbols)
                assert codes.setdefault(code, shingle) == shingle
            assert sorted(codes) == list(range(space.size))
            assert space.size == code_count(len(symbols), l) <= (len(symbols) + 1) ** l
            # a shingle without a delimiter is coded by its value alone
            assert space.code(symbols[-1] * l) == len(symbols) ** l - 1
            assert space.code("$" * l) == space.size - 1
            assert window_codes(ShingledWord("", l, alphabet)) == [space.size - 1] * (l - 1)

    @pytest.mark.parametrize("symbols", SYMBOL_SETS)
    def test_rolling_codes_match_the_windows(self, symbols):
        # every word of up to 6 symbols, so every mix of the word's ends and
        # interior, shorter and longer than l
        alphabet = Alphabet(symbols)
        for l in range(2, 7):
            for n in range(7):
                for word in map("".join, itertools.islice(itertools.product(symbols, repeat=n), 100)):
                    codes = window_codes(ShingledWord(word, l, alphabet))
                    assert codes == [shingle_code(s, l, symbols) for s in shingle_sequence(word, l)]

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["01", "abc", "!#~"]).flatmap(
            lambda symbols: st.tuples(st.just(symbols), st.text(alphabet=symbols, max_size=60))
        ),
        st.data(),
    )
    def test_elements_match_the_reference(self, case, data):
        symbols, word = case
        alphabet = Alphabet(symbols)
        l = data.draw(st.integers(2, ShingleCodec(alphabet, FIELD).max_shingle_len))
        # the word's own width, or any wider one a peer's word sets
        shingled = ShingledWord(word, l, alphabet)
        occ_bits = data.draw(st.integers(word_occ_bits(shingled.table), 16))
        elements = stringrecon._elements(shingled.table, occ_bits)
        assert elements == session_elements(word, l, alphabet, occ_bits)
        assert 0 not in elements and len(set(elements)) == len(elements)
        instances = 2 * (len(word) + l - 1)
        assert max(elements) < session_field(len(symbols), l, occ_bits, instances).encoding_limit

    @pytest.mark.parametrize("symbols", ["01", "abc"])
    def test_every_length_up_to_the_cap_stays_in_range(self, symbols):
        alphabet = Alphabet(symbols)
        top = ShingleCodec(alphabet, FIELD).max_shingle_len
        for l in range(2, top + 1):
            # the largest element any word of this length can hold, at the
            # widest occurrence width, fits P61
            assert code_count(len(symbols), l) * 2**16 < FIELD.encoding_limit
            for word in ("", symbols[-1] * l, symbols * 3 + symbols[0] * l):
                shingled = ShingledWord(word, l, alphabet)
                occ_bits = word_occ_bits(shingled.table)
                elements = stringrecon._elements(shingled.table, occ_bits)
                assert elements == session_elements(word, l, alphabet, occ_bits)
                assert 0 not in elements and len(set(elements)) == len(elements)
                field = session_field(len(symbols), l, occ_bits, 2 * (len(word) + l - 1))
                assert field.p <= FIELD.p
                assert max(elements) < field.encoding_limit
        # the empty word's l - 1 windows are all delimiters, the last code
        last = code_count(len(symbols), 3) - 1
        assert stringrecon._elements(ShingledWord("", 3, alphabet).table, 16) == [last * 2**16 + 1, last * 2**16 + 2]
        # one past the cap, the largest key no longer fits
        assert (len(symbols) + 1) ** (top + 1) * 2**16 >= FIELD.encoding_limit

    def test_a_multiplicity_past_the_occurrence_bits_is_refused(self):
        # '00' occurs n - 1 times in a word of n zeros
        alphabet = Alphabet("0")
        full = ShingledWord("0" * (2**16 + 1), 2, alphabet)
        assert word_occ_bits(full.table) == 16
        # '$0' and '0$' sort first, then the 2**16 instances of '00', whose
        # code is 0
        assert full.space.code("00") == 0
        assert stringrecon._elements(full.table, 16)[2:] == list(range(1, 2**16 + 1))
        past = ShingledWord("0" * (2**16 + 2), 2, alphabet)
        for refuse in (lambda word: word_occ_bits(word.table), lambda word: stringrecon._elements(word.table, 16)):
            with pytest.raises(EncodingCapacityError, match="occurrence 65537 exceeds 16 bits"):
                refuse(past)
        # a word's own width holds every multiplicity it has, and no more
        short = ShingledWord("0" * 10, 2, alphabet)
        assert word_occ_bits(short.table) == 4
        assert stringrecon._elements(short.table, 4)[2:] == list(range(1, 10))
        with pytest.raises(EncodingCapacityError, match="occurrence 9 exceeds 3 bits"):
            stringrecon._elements(short.table, 3)

    def test_root_keys_and_peer_instances_share_the_format(self):
        word = ShingledWord("abcab", 3, Alphabet("abc"))
        table = word.table
        instances = ShingleMultiset(shingle_sequence("abcab", 3)).instances()
        for occ_bits in (3, 16):
            elements = stringrecon._elements(word.table, occ_bits)
            for (shingle, occ), element in zip(instances, elements):
                assert stringrecon._element(word.space.code(shingle), occ, occ_bits) == element
                assert stringrecon._root_keys(word, [element], occ_bits) == Counter({table.key(shingle): 1})
            # the roots' keys, counted: every instance of the word
            assert stringrecon._root_keys(word, elements, occ_bits) == Counter(table_counts(table))
        with pytest.raises(InvariantError, match="1 of the roots are no element of the word"):
            stringrecon._root_keys(word, [word.space.code("ccc") * 8 + 1], 3)

    @pytest.mark.parametrize(
        "n_local,n_remote,l,occ_bits",
        [(0, 0, 2, 0), (1, 0, 2, 1), (0, 5, 2, 3), (4096, 4092, 18, 13), (16384, 16380, 20, 15),
         (2**16, 2**16, 23, 16), (2**20, 2**20 - 3, 27, 16), (2**64 - 1, 5, 28, 16)],
    )
    def test_occurrence_width_holds_the_larger_word(self, n_local, n_remote, l, occ_bits):
        # the most instances of one shingle either word holds is its
        # n + l - 1, which the widest width a peer may state must reach,
        # capped at 16 bits
        most = max(n_local, n_remote) + l - 1
        assert occ_bits_cap(most) == occ_bits
        assert 2**occ_bits >= most or occ_bits == 16
        assert occ_bits == 0 or 2 ** (occ_bits - 1) < most
        # a word of one symbol repeated holds the heaviest shingle its
        # length allows, and its own width stays within the cap
        if most < 2**15:
            word = "0" * max(n_local, n_remote)
            assert word_occ_bits(ShingledWord(word, l, Alphabet("0")).table) <= occ_bits

    def test_prime_is_the_smallest_above_the_elements_and_the_points(self):
        for symbols in (1, 2, 3, 4, 26):
            for l in (2, 3, 5, 8, 13):
                for occ_bits in (0, 1, 7, 13, 16):
                    for instances in (0, 8226, 2**21):
                        spec = session_field(symbols, l, occ_bits, instances)
                        top = reference_codes(symbols, l) * 2**occ_bits
                        floor = top + 2 ** span_bits(symbols, l, occ_bits, instances)
                        assert spec.point_span == floor - top and spec.p > floor
                        assert is_probable_prime(spec.p)
                        assert not any(map(is_probable_prime, range(floor + 1, spec.p)))
                        # the largest element, C * 2**w, lies below the points
                        assert top < spec.encoding_limit

    # each cell's id names its l, width and instances, and protocol 17's
    # residue width, whose span's floor was 8 bits wider at k = 8
    CELLS = [
        (18, 13, 8226, 34, 34), (20, 15, 32806, 38, 38), (23, 16, 131116, 42, 42), (27, 16, 2097204, 46, 46),
        (18, 1, 8226, 24, 22), (18, 2, 8226, 24, 23), (20, 1, 32806, 26, 24), (20, 2, 32806, 26, 25),
        (23, 1, 131116, 28, 27), (23, 2, 131116, 28, 28), (27, 2, 2097204, 32, 32),
    ]

    @pytest.mark.parametrize(
        "l,occ_bits,instances,v17_bits,bits", CELLS, ids=["-".join(map(str, cell[:4])) for cell in CELLS]
    )
    def test_widths_of_the_benchmark_cells(self, l, occ_bits, instances, v17_bits, bits):
        # binary words: two symbols, between two words of n + l - 1
        # instances each at 4096, 16384, 2**16 and 2**20 symbols.  The first
        # four widths are the widest the word lengths allow
        # (`occ_bits_cap`), the rest those of words whose shingles occur at
        # most 2 to 4 times, as random words' do.  Their elements take 21 to
        # 31 bits, and the span's floor, (2 (N_A + N_B)).bit_length() + 4
        # bits, no longer passes them: the prime is the one the elements
        # set, one bit above them, 22 or 23 bits at 4096 symbols and 24 or
        # 25 at 16384 where protocol 17 took 24 and 26.  Only the widest
        # widths' elements leave the floor no room below their next power
        # of two, and keep protocol 17's width
        assert session_field(2, l, occ_bits, instances).p.bit_length() == bits <= v17_bits
        assert bits - (reference_codes(2, l) * 2**occ_bits).bit_length() <= 1

    @pytest.mark.parametrize("symbols", ["0", "01", "abc", "abcdefghij"])
    def test_a_hostile_word_length_cannot_widen_the_field_past_p61(self, symbols):
        # whatever u64 word length a hello announces, the widest width a
        # peer may state is 16 bits, and at the capped l the prime is then
        # at most P61, 62 bits
        occ_bits = occ_bits_cap(2**64 - 1 + 2 - 1)
        assert occ_bits == 16
        top = ShingleCodec(Alphabet(symbols), FIELD).max_shingle_len
        field = session_field(len(symbols), top, occ_bits, 2 * (2**64 - 1 + top - 1))
        assert field.p <= P61 and field.p.bit_length() <= 62

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["0", "01", "abc", "abcdefghij", "abcdefghijklmnopqrstuvwxyz"]),
        st.data(),
        st.integers(0, 2**65),
    )
    def test_no_field_is_wider_than_protocol_14s(self, symbols, data, instances):
        # for any hello and occurrence width a peer may state, the 2**40
        # cap, and codes no more than the keys, keep the prime at or below
        # the one of protocol 14's fixed span over its keys
        l = data.draw(st.integers(2, ShingleCodec(Alphabet(symbols), FIELD).max_shingle_len))
        occ_bits = data.draw(st.integers(0, occ_bits_cap(2**64 - 1 + l - 1)))
        field = session_field(len(symbols), l, occ_bits, instances)
        assert field.p <= protocol14_prime(len(symbols) + 1, l, occ_bits) <= P61
        assert field.point_span <= FIELD.point_span

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 26), st.integers(2, 30), st.integers(0, 16), st.integers(0, 2**65))
    def test_the_span_never_falls_below_its_floor(self, symbols, l, occ_bits, instances):
        span = session_field(symbols, l, occ_bits, instances).point_span
        assert span == 2 ** span_bits(symbols, l, occ_bits, instances)
        if span < 2**40:
            # below the cap, more than 2**SPAN_MARGIN_BITS times twice both
            # words' instances
            assert span > 2**stringrecon.SPAN_MARGIN_BITS * 2 * instances
        else:
            assert span == FIELD.point_span

    @pytest.mark.parametrize("k", [1, 2, MAX_K])
    def test_small_sessions_recover_at_every_k(self, k):
        # the narrowest spans: short words, whose span's floor is just over
        # twice their instances
        rng = random.Random(f"small:{k}")
        for symbols in ("01", "abcd"):
            for n in (16, 64, 256):
                for trial in range(3):
                    wa = "".join(rng.choice(symbols) for _ in range(n))
                    wb = random_edits(wa, rng.randint(1, 4), rng, symbols)
                    l = rng.randint(3, 8)
                    config = ReconConfig(l=l, k=k, seed=rng.randrange(2**32))
                    (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
                    assert ra == wb and rb == wa
                    # none of these seeded sessions rejects a candidate or
                    # runs a second check
                    assert rep_b.step2_rejected == 0 and rep_b.step2_checks == 1
                    codec = session_codec(wa, wb, l)
                    assert rep_a.value_bits == rep_b.value_bits == codec.field.p.bit_length()
                    assert codec.field.point_span == 2 ** span_bits(
                        len(codec.alphabet), l, codec.occ_bits, len(wa) + len(wb) + 2 * (l - 1)
                    )

    @pytest.mark.parametrize(
        "word_a,word_b,l",
        [("a" * 5, "a" * 8, 3), ("a" * 8, "a" * 5, 4), ("!#!!#", "!##!#!", 3), ("#!#!!#!", "", 3)],
        ids=["unary", "unary-shorter-peer", "below-the-delimiter", "below-the-delimiter-empty-peer"],
    )
    def test_sessions_over_one_symbol_and_symbols_below_the_delimiter(self, word_a, word_b, l):
        # a unary pair codes every interior shingle as 0 and differs only in
        # multiplicities; '!' and '#' both rank below '$', so the delimiter's
        # rank is last and every symbol's digit its own rank
        (ra, rep_a), (rb, rep_b) = run_session(word_a, word_b, ReconConfig(l=l, seed=5))
        assert ra == word_b and rb == word_a
        codec = session_codec(word_a, word_b, l)
        assert rep_a.value_bits == rep_b.value_bits == codec.field.p.bit_length()
        assert rep_a.elem_bits == rep_b.elem_bits == (reference_codes(len(codec.alphabet), l) << codec.occ_bits).bit_length()

    def test_both_parties_derive_one_field_from_the_hellos(self, monkeypatch):
        fields = []
        real = stringrecon.session_field

        def spy(symbols, l, occ_bits, instances):
            field = real(symbols, l, occ_bits, instances)
            fields.append(field)
            return field

        monkeypatch.setattr(stringrecon, "session_field", spy)
        (ra, rep_a), (rb, rep_b) = run_session("0110100", "abaaaab", ReconConfig(l=3, seed=4))
        assert ra == "abaaaab" and rb == "0110100"
        # four symbols; no shingle of the initiator's word repeats, but
        # 'aaa' of the responder's occurs twice, so the session's width is
        # the responder's 1 bit.  Both words hold 7 + 2 instances, and the
        # span's floor, 2**(6 + 4), sets the span above the elements' 109 * 2
        # = 218
        assert fields == [session_field(4, 3, 1, 18)] * 2 == [FieldSpec(1249, 2**10)] * 2
        assert rep_a.occ_bits == rep_b.occ_bits == 1
        assert rep_a.elem_bits == rep_b.elem_bits == 8
        assert rep_a.value_bits == rep_b.value_bits == fields[0].p.bit_length() == 11


class TestSessionCheck:
    """The session check: one whole-set value at a point of a Mersenne
    prime field of its own (`check_field`), compared after the walk
    (`_session_check`)."""

    @pytest.mark.parametrize(
        "instances,q",
        [(0, 89), (2**25 - 1, 89), (2**25, 107), (2**43 - 1, 107), (2**43, 127), (2**63 - 1, 127), (2**63, 521),
         (2 * (2**64 + 2**32), 521)],
    )
    def test_the_check_prime_is_64_bits_wider_than_the_instances(self, instances, q):
        # the smallest Mersenne prime whose exponent is at least 64 past the
        # instances' bit length, up to what two u64 word lengths and l below
        # 2**32 allow; the point lies above P61, past every element, and
        # follows the seed alone
        m, z = check_field(instances, 5)
        assert m == 2**q - 1 and is_probable_prime(m) and q >= 64 + instances.bit_length()
        assert P61 <= z < m and check_field(instances, 5) == (m, z) != check_field(instances, 6)
        # a wrong multiset passes with probability at most instances / (m - P61)
        assert instances * 2**64 <= m - P61

    def test_the_check_compares_the_multisets_after_the_walk(self):
        # the initiator's multiset is the responder's less its one-sided
        # elements plus the walked ones: the check passes, and fails when a
        # walked element, an own root or the initiator's value is off
        m, z = check_field(30, 9)
        rng = random.Random(9)
        shared = [rng.randrange(1, 2**20) for _ in range(10)]
        own, walked = [2**20 + 1, 2**20 + 2], [2**20 + 3]
        theirs, mine = whole_value(shared + walked, z, m), whole_value(shared + own, z, m)
        assert stringrecon._session_check(theirs, mine, own, walked, z, m)
        assert not stringrecon._session_check(theirs, mine, own, [2**20 + 4], z, m)
        assert not stringrecon._session_check(theirs, mine, own[:1], walked, z, m)
        assert not stringrecon._session_check(theirs * 2 % m, mine, own, walked, z, m)
        assert whole_value([], z, m) == 1

    def test_each_party_reports_its_cpu_by_step(self):
        # one read of the thread's clock and one of the wall clock at each
        # step boundary, in session order, in the report's figures and its
        # JSON; a step's thread takes no more CPU than the wall time it
        # spans, within the clocks' resolution
        steps = ["step1", "step2", "merge", "step5", "rebuild"]
        (_, rep_a), (_, rep_b) = run_session("katana", "katna", ReconConfig(l=2, seed=3))
        for rep in (rep_a, rep_b):
            assert list(rep.step_cpu_s) == list(rep.step_wall_s) == steps
            assert all(seconds >= 0 for seconds in rep.step_cpu_s.values())
            assert all(rep.step_wall_s[step] >= rep.step_cpu_s[step] - 1e-3 for step in steps)
            figures = rep.figures()
            assert [name for name in figures if name.endswith("_cpu_s")] == [f"{step}_cpu_s" for step in steps]
            assert [name for name in figures if name.endswith("_wall_s")] == [f"{step}_wall_s" for step in steps]
            assert json.loads(rep.to_json()) == figures
        assert SessionReport(role="initiator").step_cpu_s == SessionReport(role="initiator").step_wall_s == {}


def protocol14_prime(base, l, occ_bits):
    """The prime of protocol 14, whose points spanned 2**40 at every size:
    the smallest above base**l * 2**occ_bits + 2**40."""
    p = base**l * 2**occ_bits + 2**40 + 1
    while not is_probable_prime(p):
        p += 1
    return p


def reference_codes(symbols, l):
    """The number of codes of length-l shingles over `symbols` symbols by
    the reference (`shingle_code`): one past the all-delimiter shingle's,
    the last."""
    return shingle_code("$" * l, l, "".join(chr(ord("a") + i) for i in range(symbols))) + 1


def span_rule(top, instances):
    """The point span's exponent by the field rule, spelled out, for the
    largest element `top`: the largest s that keeps top + 2**s within its
    bit length, or the floor, 4 more than the smallest s with 2**s above
    twice the instances, whichever is larger, at most 40."""
    free = max((s for s in range(top.bit_length()) if top + 2**s < 2 ** top.bit_length()), default=-1)
    floor = next(s for s in itertools.count() if 2**s > 2 * instances) + 4
    return min(40, max(free, floor))


def span_bits(symbols, l, occ_bits, instances):
    """The span's exponent of a session over `symbols` symbols, whose
    largest element is the reference's code count times 2**occ_bits."""
    return span_rule(reference_codes(symbols, l) * 2**occ_bits, instances)


def flip(word, i):
    return word[:i] + ("1" if word[i] == "0" else "0") + word[i + 1 :]


WIDE_A = "".join(random.Random(6).choice("01") for _ in range(96))
WIDE_B = flip(WIDE_A, 40)
# the occurrence widths and primes of the scripted sessions below, "abcab"
# against "abcba" at l = 2 and WIDE_A against WIDE_B at l = 13, as both
# parties derive them
ABC_W, ABC_P = session_codec("abcab", "abcba", 2).occ_bits, session_codec("abcab", "abcba", 2).field.p
WIDE_W, WIDE_P = session_codec(WIDE_A, WIDE_B, 13).occ_bits, session_codec(WIDE_A, WIDE_B, 13).field.p


def width_frame(word, l):
    """The OCC_WIDTH frame of an honest responder holding `word`: the bit
    length of its largest multiplicity less 1."""
    largest = max(Counter(shingle_sequence(word, l)).values())
    return Frame(FrameKind.OCC_WIDTH, bytes([(largest - 1).bit_length()]))


class TestHostileStep2:
    """A scripted peer sends one bad hello or step-2 frame; the party must stop
    with `ProtocolError` at once (`BoundExceededError` once a fixed-mode
    bundle exhausts the decoder's budget)."""

    # a seed under which "abcab" splits unevenly over its two buckets
    # (`SIZES`), so a hand-off degree can exceed a bucket's instances
    CONFIG = ReconConfig(l=2, mode=MODE_RATELESS, k=8, seed=17)
    # two 96-bit words: 108 instances each, so eight buckets
    WIDE = ReconConfig(l=13, mode=MODE_RATELESS, k=8, seed=3)

    def initiator_facing(self, *requests, wide=False, fixed=False, served=None, shift=0):
        """The initiator against a responder that sends `requests` as DELTA_REQ
        payloads, checking the values served after each and counting them
        into `served`; a request may be a function of the bucket sizes in
        the initiator's bundle.  The words are "abcab" against "abcba" (6 instances each, so
        two buckets), or WIDE_A against WIDE_B (eight buckets) when `wide`.
        In rateless mode the first request opens with the bucket shift
        `shift`, and the rest count the buckets it leaves.  When `fixed`, the
        session runs in fixed mode with m_hat = 4, so the bundle holds
        ceil(4 / B) values per bucket, and no shift crosses."""
        config, mine, theirs = (self.WIDE, WIDE_A, WIDE_B) if wide else (self.CONFIG, "abcab", "abcba")
        p = WIDE_P if wide else ABC_P
        instances = len(mine) + config.l - 1
        buckets = step2_buckets(instances, len(theirs) + config.l - 1)
        first = 0
        if fixed:
            config = dataclasses.replace(config, mode=MODE_FIXED, m_hat=4)
            first = -(-4 // buckets)
        served = [] if served is None else served

        def script(peer):
            peer.recv()
            peer.send(reply_for(theirs))
            peer.send(width_frame(theirs, config.l))
            sizes, _, _ = decode_bundle(peer.recv().payload, buckets, first * buckets, instances, p, M89)
            head = b"" if fixed or shift is None else bytes([shift])
            for request in requests:
                payload = request(sizes) if callable(request) else request
                peer.send(Frame(FrameKind.DELTA_REQ, head + payload))
                head = b""
                frame = peer.recv()
                if frame.kind != FrameKind.EVAL_PAIR:
                    return
                count = sum(decode_request(payload, buckets >> (shift or 0)))
                served.append(decode_pairs(frame.payload, count, p))

        return scripted_session(mine, "initiator", config, script)

    # "abcab" puts 4 and 2 of its instances in its two buckets
    SIZES = [4, 2]

    def test_the_scripted_words_split_as_the_cases_assume(self):
        codec = session_codec("abcab", "abcba", self.CONFIG.l)
        assert codec.field.p == ABC_P
        split = [
            [len(part) for part in partition(session_elements(word, 2, codec.alphabet, codec.occ_bits), 2, seed)]
            for word, seed in (("abcab", self.CONFIG.seed), ("abcba", 40))
        ]
        # the responder "abcba" holds 1 instance in bucket 0 at seed 40
        assert split == [self.SIZES, [1, 5]]

    @pytest.mark.parametrize(
        "payload", [b"", b"\x00\x00\x08", b"\x00\x00\x00\x08\x00", b"\x01", b"\x01\x80\x00"]
    )
    def test_pair_request_frame_length_is_checked(self, payload):
        # two buckets: a request is its width byte, from 1 to 16, and then
        # two counts that width wide; refused are no width, a width of 0, a
        # block one byte short and one byte over
        assert isinstance(self.initiator_facing(payload), ProtocolError)

    @pytest.mark.parametrize("width", [0, 17, 255])
    def test_pair_request_width_is_bounded(self, width):
        exc = self.initiator_facing(bytes([width]) + bytes(5))
        assert isinstance(exc, ProtocolError) and f"width {width}" in str(exc)

    def test_pair_request_vector_needs_one_count_per_bucket(self):
        # eight buckets at 8 bits a count: seven or nine counts miss the length
        for counts in ([128] * 7, [128] * 9):
            exc = self.initiator_facing(encode_request(counts), wide=True)
            assert isinstance(exc, ProtocolError) and "pair request block holds" in str(exc)

    def test_pair_request_padding_must_be_zero(self):
        exc = self.initiator_facing(bytes([1, 0b10_000001]))
        assert isinstance(exc, ProtocolError) and "padding" in str(exc)

    def test_an_all_zero_request_is_refused(self):
        # the bundle holds the one session check value, so a request of all
        # zeros, which asked protocol 17's initiator for a fresh check, asks
        # for nothing: refused at once, or after a request that was served
        for requests in ([encode_request([0, 0])], [encode_request([1, 1]), encode_request([0, 0])]):
            served = []
            exc = self.initiator_facing(*requests, served=served)
            assert isinstance(exc, ProtocolError) and "pair request asks for no value" in str(exc), exc
            assert [len(values) for values in served] == [2] * (len(requests) - 1)

    # the budgets bound what the requests add to the bundle, so both modes
    # share every count below
    def test_pair_requests_stay_within_the_budget(self):
        # bucket 0 is served its 4 instances, the responder's 6 and k = 8
        budget = self.SIZES[0] + 6 + 8
        for fixed in (False, True):
            exc = self.initiator_facing(encode_request([budget + 1, 0]), fixed=fixed)
            assert isinstance(exc, ProtocolError) and "in bucket 0" in str(exc)
            exc = self.initiator_facing(encode_request([budget - 3, 0]), encode_request([4, 0]), fixed=fixed)
            assert isinstance(exc, ProtocolError) and "in bucket 0" in str(exc)
            exc = self.initiator_facing(encode_request([2**16 - 1, 0]), fixed=fixed)
            assert isinstance(exc, ProtocolError)
            # eight buckets, each asked up to its own budget: together past the
            # session's 108 + 108 + 8 * 8
            exc = self.initiator_facing(
                lambda sizes: encode_request([size + 108 + 8 for size in sizes]), wide=True, fixed=fixed
            )
            assert isinstance(exc, ProtocolError) and "budget of 280" in str(exc)

    def test_bucket_requests_stay_within_the_bucket_budget(self):
        # a bucket is served its own instances, every remote instance and k:
        # exactly that passes, one more value fails
        def one_bucket(count):
            return [0, count] + [0] * 6

        for fixed in (False, True):
            exc = self.initiator_facing(
                lambda sizes: encode_request(one_bucket(sizes[1] + 108 + 8)),
                encode_request(one_bucket(1)),
                wide=True,
                fixed=fixed,
            )
            assert isinstance(exc, ProtocolError) and "in bucket 1" in str(exc)

    def test_first_request_shift_is_bounded_by_the_fine_buckets(self):
        # two fine buckets allow a shift of 1, eight a shift of 3: one more
        # is refused before any count is read
        exc = self.initiator_facing(encode_request([1]), shift=2)
        assert isinstance(exc, ProtocolError) and "bucket shift 2 is past 1" in str(exc), exc
        exc = self.initiator_facing(encode_request([1]), wide=True, shift=4)
        assert isinstance(exc, ProtocolError) and "bucket shift 4 is past 3" in str(exc), exc
        exc = self.initiator_facing(b"", shift=None)
        assert isinstance(exc, ProtocolError) and "holds no bucket shift" in str(exc), exc
        # a shift of 1 joins the two buckets: one count asks for values of both
        served = []
        exc = self.initiator_facing(encode_request([3]), encode_request([1]), shift=1, served=served)
        assert [len(values) for values in served] == [3, 1]
        assert not isinstance(exc, ProtocolError)

    def test_fixed_mode_takes_no_shift(self):
        # the bundle's values are the fine buckets', so no shift crosses: a
        # first request that opens with one does not parse
        for shift in (0, 1):
            exc = self.initiator_facing(bytes([shift]) + encode_request([1, 0]), fixed=True)
            assert isinstance(exc, ProtocolError) and "pair request" in str(exc), exc

    def test_requests_at_the_coarse_buckets_stay_within_the_work_cap(self):
        # one coarse bucket of WIDE_A's 108 instances: each value costs all
        # of them, so the requests may take only the values that fit the
        # work protocol v16's budgets allowed at the eight fine buckets,
        # less the check's one pass, though the coarse budget of 108 + 108 +
        # 8 values allows more
        def allowed(sizes):
            cap = _work_cap(sizes, [size + 108 + 8 for size in sizes], 108 + 108 + 8 * 8, 108)
            return (cap - 108) // 108

        served = []
        exc = self.initiator_facing(
            lambda sizes: encode_request([allowed(sizes)]), encode_request([1]), wide=True, shift=3, served=served
        )
        assert isinstance(exc, ProtocolError) and "past the" in str(exc) and "8 fine buckets allow" in str(exc), exc
        assert len(served) == 1 and len(served[0]) < 108 + 108 + 8

    def test_bundle_sizes_that_hide_the_difference_end_at_the_work_cap(self):
        # a hostile initiator states the responder's own fine sizes, so the
        # estimate is 0 and the responder joins all sixteen buckets, the
        # fewest it may join, into one, then serves garbage: the responder
        # stops at its work cap, far below the budget of the one decoder,
        # and the initiator sees ABORT
        word_a = "".join(random.Random(7).choice("01") for _ in range(200))
        word_b = flip(word_a, 100)
        instances = 200 + 12
        codec = session_codec(word_a, word_b, 13)
        w, p = codec.occ_bits, codec.field.p
        own = [len(part) for part in partition(session_elements(word_b, 13, codec.alphabet, w), 16, 3)]
        assert step2_buckets(instances, instances) == 16 and coarse_shift(own, own, 8) == 4
        rng = random.Random(5)
        requested = []

        def script(peer):
            peer.send(hello_for(self.WIDE, word_a))
            peer.recv()
            peer.recv()
            bundle = EvalBundle((), (), instances)
            check = rng.randrange(1, M89)
            payload = encode_bundle(bundle, occ_bits=w, bucket_sizes=own, p=p, check=check, m=M89)
            peer.send(Frame(FrameKind.EVAL_BUNDLE, payload))
            shift = None
            while (frame := peer.recv()).kind == FrameKind.DELTA_REQ:
                payload = frame.payload
                if shift is None:
                    shift, payload = decode_shift(payload, 16)
                    requested.append(shift)
                counts = decode_request(payload, 16 >> shift)
                requested.append(sum(counts))
                values = [(0, rng.randrange(1, p)) for _ in range(sum(counts))]
                peer.send(Frame(FrameKind.EVAL_PAIR, encode_pairs(values, p=p)))
            requested.append(frame.kind)

        exc = scripted_session(word_b, "responder", self.WIDE, script)
        assert isinstance(exc, BoundExceededError) and "16 fine buckets allow" in str(exc), exc
        shift, *counts, last = requested
        assert shift == 4 and last == FrameKind.ABORT
        budgets = [size + size + 8 for size in own]
        cap = _work_cap(own, budgets, sum(budgets), instances)
        assert instances + instances * sum(counts) <= cap < instances + instances * (2 * instances + 1)

    def test_short_words_do_not_join_at_the_work_cap(self):
        # "babaabaa" against "bbaaabaa" at l = 10 and k = 2 show no size gap
        # in any of their four fine buckets, yet differ in most of their 17
        # instances a side: joined into one bucket, step 2 passed the cap of
        # 221 evaluations at 238; below 16 fine buckets nothing joins
        config = ReconConfig(l=10, k=2, seed=3610395624)
        (ra, rep_a), (rb, rep_b) = run_session("babaabaa", "bbaaabaa", config)
        assert (ra, rb) == ("bbaaabaa", "babaabaa")
        assert rep_b.step2_estimate == 0 and rep_b.step2_buckets == rep_b.step2_fine_buckets == 4

    def test_random_short_sessions_stay_within_the_work_cap(self):
        # short binary words, edited or unrelated, at every shingle length,
        # k and seed: an honest session recovers both words
        rng = random.Random("short-sessions")
        with ThreadPoolExecutor(2) as pool:
            for trial in range(300):
                wa = "".join(rng.choice("ab") for _ in range(rng.randrange(1, 17)))
                if trial % 2:
                    wb = random_edits(wa, rng.randrange(1, 5), rng, "ab")
                else:
                    wb = "".join(rng.choice("ab") for _ in wa)
                config = ReconConfig(l=rng.randrange(2, 12), k=rng.randrange(1, MAX_K + 1), seed=rng.randrange(2**32))
                ends = channel_pair()
                futures = [
                    pool.submit(run_protocol, word, end, role, config)
                    for word, end, role in ((wa, ends[0], "initiator"), (wb, ends[1], "responder"))
                ]
                assert [future.result(timeout=60)[0] for future in futures] == [wb, wa], (wa, wb, config)

    def initiator_handed(self, handoff, responder="abcba"):
        """The initiator "abcab" against a responder (`responder`, "abcba"
        unless given) that sends the hand-off `handoff` right after the
        bundle; returns what the initiator raised and the kind of the frame
        it sent after the hand-off, if any, on which the responder stops."""
        after = []

        def script(peer):
            peer.recv()
            peer.send(reply_for(responder))
            peer.send(width_frame(responder, 2))
            assert peer.recv().kind == FrameKind.EVAL_BUNDLE
            peer.send(Frame(FrameKind.DELTA, handoff))
            after.append(peer.recv().kind)

        return scripted_session("abcab", "initiator", self.CONFIG, script), after

    # both words hold 6 instances, so the responder's runs hold as many
    # windows as the walk's, and the walk's total takes 3 bits
    HONEST_HANDOFF = encode_handoff(["cba$"], ["cab$"], 6, 2, "$abc")

    @pytest.mark.parametrize(
        "responder,handoff,match",
        [
            # 7 walked instances, past the initiator's 6
            ("abcba", _pack_block([7], 3) + bytes(100), "found 7 instances, more than the initiator's 6"),
            # no walked instance, yet the walk's runs count one run, at 1 bit
            ("abcba", _pack_block([0], 3) + _pack_block([1], 1) + bytes(100), "1 runs for 0 windows"),
            # the responder "abc" holds 4 instances against the initiator's
            # 6: with no walked instance its runs would hold -2 windows
            ("abc", _pack_block([0], 3) + bytes(100), "fewer than the initiator's 2 surplus instances"),
            # the walk's three runs "ab" name 'ab' three times, of which
            # "abcab" holds two
            (
                "abcba",
                _pack_block([3], 3) + encode_runs(["ab"] * 3, 2, "$abc") + encode_runs(["ab"] * 3, 2, "$abc"),
                "names 3 instances of 'ab', of which the word holds 2",
            ),
            # the responder's run of two windows, "a$" and "$b", that no
            # padded word holds
            ("abcba", encode_handoff(["a$b"], ["cab"], 6, 2, "$abc"), "delimiter between two symbols"),
            # the honest hand-off with protocol 17's residual width byte, or
            # a residual's coefficients, after it
            ("abcba", HONEST_HANDOFF + bytes(1), "holds 1 bytes past its runs"),
            ("abcba", HONEST_HANDOFF + bytes([1]) + _pack_block([5, 7], ABC_P.bit_length()), "bytes past its runs"),
        ],
        ids=[
            "walk-total-past-the-instances",
            "runs-past-the-walk-total",
            "negative-total",
            "walk-runs-past-the-word",
            "malformed-instance",
            "residual-width-byte",
            "residual-coefficients",
        ],
    )
    def test_hand_off_is_checked_before_the_initiator_replies(self, responder, handoff, match):
        # the initiator answers a refused hand-off with ABORT alone
        exc, after = self.initiator_handed(handoff, responder)
        assert isinstance(exc, ProtocolError) and match in str(exc), exc
        assert after == [FrameKind.ABORT]

    def test_the_honest_hand_off_is_accepted(self):
        # the frame every refused case above is a variation of: "abcab"
        # takes 'ca', 'ab' and 'b$' from the walk, and the responder's own
        # 'cb', 'ba' and 'a$', and goes on to its MERGES
        exc, after = self.initiator_handed(self.HONEST_HANDOFF)
        assert isinstance(exc, TransportClosedError) and after == [FrameKind.MERGES], (exc, after)

    def initiator_told(self, frame):
        """The initiator "abcab" against a responder "abcba" that opens step
        2 with `frame`; returns what the initiator raised and the kinds of
        the frames it sent after its hello."""
        sent = []

        def script(peer):
            peer.recv()
            peer.send(reply_for("abcba"))
            peer.send(frame)
            while True:
                sent.append(peer.recv().kind)

        return scripted_session("abcab", "initiator", self.CONFIG, script), sent

    @pytest.mark.parametrize(
        "frame,match",
        [
            (Frame(FrameKind.OCC_WIDTH, b""), "takes 1 byte, not 0"),
            (Frame(FrameKind.OCC_WIDTH, bytes([0, 0])), "takes 1 byte, not 2"),
            (Frame(FrameKind.EVAL_BUNDLE, bytes([0])), "expected OCC_WIDTH, got EVAL_BUNDLE"),
            (Frame(FrameKind.OCC_WIDTH, bytes([17])), "width 17 is outside [0, 3]"),
            # no shingle of a word of 6 instances occurs 2**3 + 1 times
            (Frame(FrameKind.OCC_WIDTH, bytes([4])), "width 4 is outside [0, 3]"),
        ],
        ids=["empty", "too-long", "wrong-kind", "past-16", "past-the-word"],
    )
    def test_width_frame_is_checked_before_any_value(self, frame, match):
        # the initiator answers a refused width with ABORT alone
        exc, sent = self.initiator_told(frame)
        assert isinstance(exc, ProtocolError) and match in str(exc), exc
        assert sent == [FrameKind.ABORT]

    def responder_opened(self, monkeypatch, payload):
        """The responder "abcab", whose own width is 1 as 'ab' occurs twice,
        against an initiator "abcba" whose bundle is `payload`; returns what
        the responder raised, which must come before any residue is read."""

        def no_residues(*_args):
            raise AssertionError("a residue was read")

        monkeypatch.setattr(stringrecon, "_unpack_residues", no_residues)

        def script(peer):
            peer.send(hello_for(self.CONFIG, "abcba"))
            peer.recv()
            assert peer.recv() == width_frame("abcab", 2) == Frame(FrameKind.OCC_WIDTH, bytes([1]))
            peer.send(Frame(FrameKind.EVAL_BUNDLE, payload))
            peer.recv()

        return scripted_session("abcab", "responder", self.CONFIG, script)

    @pytest.mark.parametrize(
        "payload,match",
        [
            (b"", "takes 1 byte, not 0"),
            (bytes([0, 0b010_00000, 2, 0b10_00_0000]) + bytes(100), "width 0 is outside [1, 3]"),
            (bytes([17, 0b010_00000, 2, 0b10_00_0000]) + bytes(100), "width 17 is outside [1, 3]"),
            # both words hold 6 instances, so no width past 3 bits
            (bytes([4, 0b010_00000, 2, 0b10_00_0000]) + bytes(100), "width 4 is outside [1, 3]"),
            (bytes([1, 0b010_00000, 0]) + bytes(100), "offset width 0 is outside [1, 3]"),
            # size offsets 4 bits wide, past the 3 of the 6 instances
            (bytes([1, 0b010_00000, 4, 0b0100_0000]) + bytes(100), "offset width 4 is outside [1, 3]"),
            # the smallest size 3, and an offset of 4: 7 of 6 instances
            (bytes([1, 0b011_00000, 3, 0b100_000_00]) + bytes(100), "size 7 is past the 6 instances"),
        ],
        ids=[
            "empty",
            "below-the-own-width",
            "past-16",
            "past-the-words",
            "offset-width-zero",
            "offset-width",
            "size-past-the-instances",
        ],
    )
    def test_bundle_head_is_checked_before_any_value(self, monkeypatch, payload, match):
        exc = self.responder_opened(monkeypatch, payload)
        assert isinstance(exc, ProtocolError) and match in str(exc), exc

    def test_responder_rejects_a_hello_with_k_zero(self):
        config = ReconConfig(l=2, mode=MODE_RATELESS, k=8, seed=3)

        def script(peer):
            peer.send(Frame(FrameKind.HELLO, hello_with(config, "abcab", k=0)))
            peer.recv()

        assert isinstance(scripted_session("abcba", "responder", config, script), ProtocolError)

    def test_hello_shingle_length_is_bounded_before_shingling(self, monkeypatch):
        # a length-64 shingle over {0, 1} needs 3**64 > 2**61 values: the
        # session stops before building windows of that length
        def no_shingling(*_args, **_kwargs):
            raise AssertionError("shingled at an unencodable l")

        monkeypatch.setattr(stringrecon, "ShingledWord", no_shingling)
        config = ReconConfig(l=64, mode=MODE_RATELESS, k=8, seed=3)

        def script(peer):
            peer.send(hello_for(config, "0110"))
            peer.recv()
            peer.recv()

        assert isinstance(scripted_session("0101", "responder", config, script), ProtocolError)

    def test_hello_k_past_the_cap_is_refused_before_shingling(self, monkeypatch):
        # k sets up to k walks and k more values a bucket of the responder's
        # work, so a hello may ask for no more than MAX_K
        def no_shingling(*_args, **_kwargs):
            raise AssertionError("shingled under k = 9")

        monkeypatch.setattr(stringrecon, "ShingledWord", no_shingling)

        def script(peer):
            peer.send(Frame(FrameKind.HELLO, hello_with(self.CONFIG, "abcab", k=MAX_K + 1)))
            peer.recv()

        exc = scripted_session("abcba", "responder", self.CONFIG, script)
        assert isinstance(exc, ProtocolError) and "hello k 9 is past 8" in str(exc), exc

    def responder_facing(self, config, bundle, pairs_for=None, payload=None):
        """The responder "abcba" against an initiator "abcab" that sends `bundle`
        and a check value of 1, with all its instances in the first of its
        two buckets, or the bundle frame `payload` when given, and then
        answers the first pair request with `pairs_for(count)`, for the
        values requested in all."""
        payload = payload or encode_bundle(
            bundle, occ_bits=ABC_W, bucket_sizes=[bundle.set_size, 0], p=ABC_P, check=1, m=M89
        )

        def script(peer):
            peer.send(hello_for(config, "abcab"))
            peer.recv()
            assert peer.recv() == width_frame("abcba", 2)
            peer.send(Frame(FrameKind.EVAL_BUNDLE, payload))
            if pairs_for is not None:
                request = peer.recv().payload
                shift = 0
                if config.mode == MODE_RATELESS:
                    shift, request = decode_shift(request, 2)
                count = sum(decode_request(request, 2 >> shift))
                peer.send(Frame(FrameKind.EVAL_PAIR, encode_pairs(pairs_for(count), p=ABC_P)))

        return scripted_session("abcba", "responder", config, script)

    def test_pair_frame_must_hold_the_requested_count(self):
        # at this session's 10-bit residues a frame one value short or over
        # fills another number of bytes, or leaves its last value to the
        # zero padding, which no characteristic value is
        points = session_codec("abcab", "abcba", 2).field.sample_points(1, 20)
        for extra in (-1, 1):
            exc = self.responder_facing(
                self.CONFIG,
                EvalBundle((), (), 6),
                lambda count: [(z, 1) for z in points[: count + extra]],
            )
            assert isinstance(exc, ProtocolError), exc

    @pytest.mark.parametrize("value", [ABC_P, 2**ABC_P.bit_length() - 1], ids=["p", "all-ones"])
    def test_pair_values_must_be_residues(self, value):
        # the session's prime p is 0 mod p but is no residue: the frame is
        # rejected, not fed
        exc = self.responder_facing(self.CONFIG, EvalBundle((), (), 6), lambda count: [(0, value)] * count)
        assert isinstance(exc, ProtocolError) and f"the prime {ABC_P} or more" in str(exc), exc

    def test_bundle_set_size_must_match_the_hello(self):
        assert isinstance(self.responder_facing(self.CONFIG, EvalBundle((), (), 7)), ProtocolError)

    def test_bundle_padding_must_be_zero(self):
        # sizes 4 and 2 for 6 instances: the smallest, 2, at 3 bits, then
        # the offsets 2 and 0 at 2 bits, then a padding bit
        exc = self.responder_facing(self.CONFIG, None, payload=bytes([ABC_W, 0b010_00000, 2, 0b10_00_0001]))
        assert isinstance(exc, ProtocolError) and "padding" in str(exc)

    def test_bundle_bucket_sizes_must_sum_to_the_hello(self):
        # WIDE_A has 108 instances in eight buckets; any split with that sum passes
        def first_reply(sizes):
            replies = []

            def script(peer):
                peer.send(hello_for(self.WIDE, WIDE_A))
                peer.recv()
                peer.recv()
                bundle = EvalBundle((), (), 108)
                payload = encode_bundle(bundle, occ_bits=WIDE_W, bucket_sizes=sizes, p=WIDE_P, check=1, m=M89)
                peer.send(Frame(FrameKind.EVAL_BUNDLE, payload))
                replies.append(peer.recv().kind)

            return scripted_session(WIDE_B, "responder", self.WIDE, script), replies

        for sizes in ([14] * 8, [108, 1] + [0] * 6, [0] * 8):
            exc, replies = first_reply(sizes)
            assert isinstance(exc, ProtocolError) and replies == [FrameKind.ABORT]
        exc, replies = first_reply([100, 8] + [0] * 6)
        assert replies == [FrameKind.DELTA_REQ]

    def test_responder_refuses_a_delta_from_the_initiator(self):
        # only the responder hands over: a DELTA where the initiator's
        # MERGES belongs is refused
        replaced = []

        def tamper(frame):
            if frame.kind == FrameKind.MERGES:
                replaced.append(frame)
                return Frame(FrameKind.DELTA, encode_runs(["ab"], 2, "$abc"))
            return frame

        exc = scripted_session("abcba", "responder", self.CONFIG, tampered_initiator("abcba", self.CONFIG, tamper))
        assert isinstance(exc, ProtocolError) and "expected MERGES, got DELTA" in str(exc), exc
        assert len(replaced) == 1

    def test_fixed_responder_never_draws_the_peer_m_hat(self):
        # drawing m_hat = 2**32 - 1 points for the two buckets would take
        # hours; the responder expects a bundle of min(m_hat, 6 + 6) values
        # beside the check's, and refuses one of 4
        config = ReconConfig(l=2, mode=MODE_FIXED, m_hat=2**32 - 1, k=8, seed=3)
        points = tuple(FIELD.sample_points(3, 4))
        exc = self.responder_facing(config, EvalBundle(points, (1, 1, 1, 1), 6))
        assert isinstance(exc, ProtocolError) and "not 12 values" in str(exc), exc

    def test_fixed_responder_stops_at_its_budget(self, monkeypatch, rng):
        # a bundle of garbage for a huge m_hat, sized by both words' 12
        # instances, is fed to each decoder only up to its budget
        fed = Counter()
        budgets = {}
        real_feed = RatelessDecoder.feed

        def spy(decoder, point, value, local=None):
            fed[id(decoder)] += 1
            budgets[id(decoder)] = decoder.budget
            return real_feed(decoder, point, value, local)

        monkeypatch.setattr(RatelessDecoder, "feed", spy)
        config = ReconConfig(l=2, mode=MODE_FIXED, m_hat=100_000, k=8, seed=40)
        count = 2 * 6

        start = time.perf_counter()
        exc = self.responder_facing(config, EvalBundle(tuple(range(count)), tuple(rng.randrange(1, ABC_P) for _ in range(count)), 6))
        assert isinstance(exc, BoundExceededError)
        assert time.perf_counter() - start < 10
        # bucket 0: the responder's 1 instance, the initiator's 6 and one
        # verification value; bucket 1: the responder's other 5, none of the
        # initiator's and one, which its first batch of 6 exhausts
        assert list(budgets.values()) == [1 + 6 + 1, 5 + 0 + 1]
        assert list(fed.values()) == [6, 6]

    @pytest.mark.parametrize(
        "check,match",
        [
            (lambda block: block[:-1], "bundle check block holds 11 bytes"),
            (lambda block: _pack_block([M89], 89), f"bundle check block holds a value of the prime {M89} or more"),
        ],
        ids=["short", "m"],
    )
    def test_check_value_is_checked(self, check, match):
        def tamper(frame):
            return with_check_block(frame, 2, 6, check)

        exc = scripted_session("abcba", "responder", self.CONFIG, tampered_initiator("abcab", self.CONFIG, tamper))
        assert isinstance(exc, ProtocolError) and match in str(exc), exc

    @pytest.mark.parametrize("k", [1, 3, MAX_K])
    def test_a_check_value_that_never_matches_ends_the_session(self, k):
        # the bundle's check value is one off, so every check fails, and
        # every failed check reopens all buckets for a value: after k checks
        # the responder gives up with a typed error
        bundles = []

        def tamper(frame):
            if frame.kind == FrameKind.EVAL_BUNDLE:
                bundles.append(frame)
                # the block holds the value's 89 bits, then 7 padding bits
                def one_off(block):
                    return _pack_block([(int.from_bytes(block, "big") >> 7) + 1], 89)

                return with_check_block(frame, 8, 108, one_off)
            return frame

        config = dataclasses.replace(self.WIDE, k=k)
        start = time.perf_counter()
        exc = scripted_session(WIDE_B, "responder", config, tampered_initiator(WIDE_A, config, tamper))
        assert time.perf_counter() - start < 10
        assert isinstance(exc, ProtocolError) and str(exc) == f"the session check failed {k} times", exc
        assert len(bundles) == 1

    def test_failing_checks_evaluate_the_whole_set_once(self, monkeypatch):
        # check values that fail every check: the responder evaluates its
        # whole set once, at the bundle, however many of the k checks it runs
        evaluated = []
        real = stringrecon.whole_value

        def spy(elements, z, m):
            if threading.current_thread().name == "party":  # the responder
                evaluated.append(len(elements))
            return real(elements, z, m)

        monkeypatch.setattr(stringrecon, "whole_value", spy)

        def tamper(frame):
            if frame.kind == FrameKind.EVAL_BUNDLE:
                return with_check_block(frame, 8, 108, lambda block: _pack_block([1], 89))
            return frame

        exc = scripted_session(WIDE_B, "responder", self.WIDE, tampered_initiator(WIDE_A, self.WIDE, tamper))
        assert isinstance(exc, ProtocolError) and str(exc) == "the session check failed 8 times", exc
        # the whole set's 108 instances, then each check's two sides: the
        # responder's one-sided roots and the walked elements
        assert evaluated[0] == 108 and evaluated.count(108) == 1
        assert len(evaluated) == 1 + 2 * 8 and sum(evaluated[1:]) < 8 * 108

    def test_a_wrong_bucket_candidate_is_caught_and_reopened(self, monkeypatch, rng):
        # the first bucket to accept a candidate accepts a wrong one: its
        # remote side gains a root in the point range, which no walk finds.
        # The walk leaves it, every bucket reopens for one value, and the
        # right candidates come back
        real_decode = RatelessDecoder._decode
        wrong = []

        def decode_once_wrong(decoder, num, den):
            accepted = real_decode(decoder, num, den)
            if accepted and not wrong:
                remote = field.pmul(list(decoder.result.remote_poly), [12345, 1], decoder.codec.field.p)
                decoder.result = dataclasses.replace(decoder.result, remote_poly=tuple(remote))
                wrong.append(decoder)
            return accepted

        monkeypatch.setattr(RatelessDecoder, "_decode", decode_once_wrong)
        wa = "".join(rng.choice("01") for _ in range(300))
        wb = random_edits(wa, 3, rng, "01")
        config = ReconConfig(l=13, mode=MODE_RATELESS, k=8, seed=31)
        (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        assert len(wrong) == 1
        assert (rep_a.step2_checks, rep_b.step2_checks) == (0, 2)
        # the reopened buckets, all of them
        assert rep_b.step2_rejected >= rep_b.step2_buckets
        assert rep_a.step2_rejected == 0


class TestAbort:
    def test_a_refusing_party_aborts_its_open_peer_at_once(self):
        # the responder's MERGES frame is garbage; the initiator refuses it
        # with ProtocolError and sends ABORT, so the responder, whose
        # endpoint stays open and whose receive deadline is 300 s, stops
        # with SessionAbortError within a second
        config = ReconConfig(l=3, mode=MODE_RATELESS, seed=3)
        ends = channel_pair()
        send = ends[1].send

        def tampered(frame):
            if frame.kind == FrameKind.MERGES:
                frame = Frame(FrameKind.MERGES, bytes([0xFF] * 3))
            send(frame)

        ends[1].send = tampered
        with ThreadPoolExecutor(2) as pool:
            futures = {
                role: pool.submit(run_protocol, word, end, role, config)
                for role, word, end in (("initiator", "00101", ends[0]), ("responder", "00100", ends[1]))
            }
            try:
                refused = futures["initiator"].exception(timeout=60)
                start = time.perf_counter()
                aborted = futures["responder"].exception(timeout=5)
                waited = time.perf_counter() - start
            finally:
                # wakes a responder still waiting, so a failure ends here
                for end in ends:
                    end.close()
        assert transport.RECV_TIMEOUT_S == 300
        assert isinstance(refused, ProtocolError)
        assert isinstance(aborted, SessionAbortError) and str(aborted) == str(refused)
        assert waited < 1


class TestHeavyShingles:
    """A shingle that occurs many times widens the session's occurrence
    width, and with it the field; one past 2**16 occurrences is refused."""

    def test_a_long_run_widens_the_session_and_both_words_are_recovered(self):
        rng = random.Random(17)

        def bits(count):
            return "".join(rng.choice("01") for _ in range(count))

        l = 20
        light = bits(600)
        heavy = light[:300] + "1" * 1500 + light[300:]
        config = ReconConfig(l=l, seed=9)
        widths = {}
        for wa in (light, heavy):
            wb = random_edits(wa, 2, rng, "01")
            (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
            assert ra == wb and rb == wa
            codec = session_codec(wa, wb, l)
            assert rep_a.occ_bits == rep_b.occ_bits == codec.occ_bits
            assert rep_a.value_bits == rep_b.value_bits == codec.field.p.bit_length()
            widths[wa is heavy] = (rep_a.occ_bits, rep_a.value_bits)
        # the run of 1500 ones holds about 1481 instances of the all-ones
        # shingle: 11 occurrence bits.  Its elements, up to
        # code_count(2, 20) * 2**11, take 33 bits, and the span's floor,
        # 14 + 4 bits, puts the prime at 34; the light words' elements, up
        # to code_count(2, 20), take 22 bits, and a floor of 12 + 4 bits
        # puts it at 23
        assert widths[False] == (0, 23)
        assert widths[True][0] == 11
        assert widths[True][1] == session_field(2, l, 11, 2 * (2100 + l - 1)).p.bit_length() == 34

    @pytest.mark.parametrize("heavy_role", ["initiator", "responder"])
    def test_a_multiplicity_past_2_16_is_refused(self, heavy_role):
        # '00' occurs 2**16 + 1 times in 2**16 + 2 zeros: the party holding
        # them stops before it states a width, and its peer sees the abort
        heavy, light = "0" * (2**16 + 2), "0" * 10
        words = {"initiator": light, "responder": light, heavy_role: heavy}
        ends = channel_pair()
        with ThreadPoolExecutor(2) as pool:
            futures = {
                role: pool.submit(run_protocol, words[role], end, role, ReconConfig(l=2))
                for role, end in zip(("initiator", "responder"), ends)
            }
            errors = {role: fut.exception(timeout=60) for role, fut in futures.items()}
        light_role = "responder" if heavy_role == "initiator" else "initiator"
        assert isinstance(errors[heavy_role], EncodingCapacityError)
        assert "occurrence 65537 exceeds 16 bits" in str(errors[heavy_role])
        assert isinstance(errors[light_role], SessionAbortError)

    def test_an_aborting_partys_report_counts_its_abort(self, monkeypatch):
        # each party's report sums to its endpoint's counters, the ABORT the
        # heavy initiator sends and its peer receives included
        reports = {}
        real_report = stringrecon.SessionReport

        def recorded(role, **kwargs):
            reports[role] = real_report(role, **kwargs)
            return reports[role]

        monkeypatch.setattr(stringrecon, "SessionReport", recorded)
        words = {"initiator": "0" * (2**16 + 2), "responder": "0" * 10}
        ends = dict(zip(words, channel_pair()))
        with ThreadPoolExecutor(2) as pool:
            futures = {
                role: pool.submit(run_protocol, word, ends[role], role, ReconConfig(l=2))
                for role, word in words.items()
            }
            errors = {role: fut.exception(timeout=60) for role, fut in futures.items()}
        assert isinstance(errors["initiator"], EncodingCapacityError)
        assert isinstance(errors["responder"], SessionAbortError)
        message = len(str(errors["initiator"]).encode())
        abort_bits = 8 * (1 + len(encode_varint(message)) + message)
        assert reports["initiator"].frame_bits["ABORT"] == [abort_bits, 0]
        assert reports["responder"].frame_bits["ABORT"] == [0, abort_bits]
        for role, rep in reports.items():
            assert sum(sent for sent, _ in rep.bits.values()) == ends[role].bits_sent()
            assert sum(received for _, received in rep.bits.values()) == ends[role].bits_received()
            assert sum(sent for sent, _ in rep.frame_bits.values()) == ends[role].bits_sent()


@st.composite
def word_pairs(draw):
    """Symbols (2 to 4), a shingle length, a word and a peer word that differs
    from it in its first and last l symbols, where windows hold delimiters,
    and maybe once between."""
    symbols = "abcd"[: draw(st.integers(2, 4))]
    l = draw(st.integers(2, 5))
    word = draw(st.text(alphabet=symbols, max_size=40))
    head = draw(st.integers(0, min(l, len(word))))
    tail = draw(st.integers(max(head, len(word) - l), len(word)))
    middle = word[head:tail]
    if middle and draw(st.booleans()):
        at = draw(st.integers(0, len(middle) - 1))
        middle = middle[:at] + draw(st.sampled_from(symbols)) + middle[at + 1 :]
    ends = st.text(alphabet=symbols, max_size=l)
    return symbols, l, word, draw(ends) + middle + draw(ends)


# "0101$$", a run of 4 windows of "00101" padded at l = 3, as a runs frame:
# the run count and window count at 3 bits, for the total of 4, then the six
# characters at 2 bits, for the ranks of '$', '0' and '1'
HONEST_RUNS = bytes([0b001_100_00, 0b01_10_01_10, 0b00_00_0000])


class TestRuns:
    """One-sided instances cross as runs of windows of the sender's word."""

    @settings(max_examples=80, deadline=None)
    @given(word_pairs())
    def test_runs_round_trip(self, case):
        symbols, l, word, other = case
        alphabet = Alphabet(symbols)
        mine, theirs = Counter(shingle_sequence(word, l)), Counter(shingle_sequence(other, l))
        only = mine - theirs
        # the one-sided instances as a decoder finds them: elements of the
        # sender's own, above the peer's count of each shingle
        occ_bits = session_codec(word, other, l).occ_bits
        element = dict(zip(ShingleMultiset(mine).instances(), session_elements(word, l, alphabet, occ_bits)))
        roots = [element[s, occ] for s, m in only.items() for occ in range(theirs[s] + 1, theirs[s] + m + 1)]
        shingled_word = ShingledWord(word, l, alphabet)
        runs = [shingled_word.text[start : end + l] for start, end in _own_spans(shingled_word, roots, occ_bits)]
        assert all(run in delimited(word, l) for run in runs)
        chars = "".join(sorted(shingled_word.table.ranks))
        payload = encode_runs(runs, l, chars)
        assert decode_runs(payload, l, sum(only.values()), chars) == runs
        assert _windows(runs, l) == ShingleMultiset(only)

    def test_honest_runs_frame(self):
        # the frame every refused case below is a variation of
        assert encode_runs(["0101$$"], 3, "$01") == HONEST_RUNS
        assert decode_runs(HONEST_RUNS, 3, 4, "$01") == ["0101$$"]

    @pytest.mark.parametrize(
        "payload,match",
        [
            (_pack_block([2, 4, 0], 3) + bytes(2), "a run holds no window"),
            (_pack_block([2, 4, 1], 3) + bytes(2), "hold 5 windows, not the 4"),
            (_pack_block([1, 3], 3) + bytes(2), "hold 3 windows, not the 4"),
            (_pack_block([5], 3), "5 runs for 4 windows"),
            # '1$0' holds a delimiter between two symbols
            (encode_runs(["01$0$$"], 3, "$01"), "delimiter between two symbols"),
            (_pack_block([1, 4], 3) + _pack_block([1, 2, 1, 3, 0, 0], 2), "rank of 3"),
            (HONEST_RUNS[:-1] + bytes([1]), "padding"),
            (HONEST_RUNS[:-1], "runs block holds 1 bytes"),
            (HONEST_RUNS + bytes(1), "1 bytes past its runs"),
        ],
        ids=[
            "zero-window-run",
            "windows-past-the-total",
            "windows-short-of-the-total",
            "runs-past-the-total",
            "delimiter-inside-a-window",
            "rank-past-base",
            "padding",
            "truncated",
            "over-long",
        ],
    )
    def test_malformed_runs_are_refused(self, payload, match):
        # a runs frame whose windows the receiver knows to total 4
        with pytest.raises(ProtocolError, match=match):
            decode_runs(payload, 3, 4, "$01")


def periodic_pair(rng):
    """Two words that share a periodic stretch whose period count differs by
    -1, +1 or +2, with up to 30 random symbols on each side, 0 to 3
    substitutions in one of them, and a shingle length of 3 to 8, over 2
    to 4 symbols: (word_a, word_b, l)."""
    symbols = "abcd"[: rng.randint(2, 4)]

    def text(count):
        return "".join(rng.choice(symbols) for _ in range(count))

    period, count, change = text(rng.randint(1, 5)), rng.randint(2, 12), rng.choice([-1, 1, 2])
    left, right = text(rng.randint(0, 30)), text(rng.randint(0, 30))
    wa, wb = left + period * count + right, left + period * (count + change) + right
    chars = list(wb)
    for _ in range(rng.randint(0, 3)):
        if chars:
            chars[rng.randrange(len(chars))] = rng.choice(symbols)
    wb = "".join(chars)
    return (wa, wb, rng.randint(3, 8)) if rng.random() < 0.5 else (wb, wa, rng.randint(3, 8))


class TestWalk:
    """The responder's walk over its own table (`_walk`), which finds the
    initiator's one-sided instances by testing its own graph's steps
    against the hand-off polynomials, and finds them all."""

    @staticmethod
    def walk_counted(word, spans, polys, buckets, seed, occ_bits, p):
        """`_walk`'s result, and the points it evaluated a polynomial at."""
        points = []
        real = stringrecon.peval

        def spy(poly, x, p):
            points.append(x)
            return real(poly, x, p)

        with mock.patch.object(stringrecon, "peval", spy):
            out = stringrecon._walk(word, spans, polys, setrecon.bucket_of(buckets, seed), occ_bits, p)
        return out, points

    @staticmethod
    def bound(word, spans, degrees):
        """The most evaluations a walk may make: base for each run and two
        for each root in the first pass, base for each node within 2l
        positions of a run in the second, and base for each of the word's
        len(keys) + 1 nodes and two for each root in the third."""
        base, l = word.table.base, word.l
        second = sum(end - start + 1 + 4 * l + 1 for start, end in spans)
        third = len(word.keys) + 1 + 2 * degrees
        return base * (len(spans) + 2 * degrees) + base * second + base * third

    @pytest.mark.parametrize("symbols", ["01", "!~", "!#", "!#~x"])
    def test_edits_at_both_ends_are_walked_at_any_rank_of_the_delimiter(self, symbols):
        # a substitution at each end makes one-sided windows that hold
        # delimiters on both sides, and the responder a run at each end to
        # walk from.  The walk derives their codes from its nodes' classes
        # and finds them all, with the delimiter ranked first, between the
        # symbols and last
        rng = random.Random(f"ends:{symbols}")

        def other(ch):
            return rng.choice(symbols.replace(ch, ""))

        for trial in range(8):
            wa = "".join(rng.choice(symbols) for _ in range(rng.choice([2, 5, 30, 80])))
            wb = other(wa[0]) + wa[1:-1] + other(wa[-1])
            config = ReconConfig(l=rng.randint(3, 6), seed=rng.randrange(2**32))
            (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
            assert ra == wb and rb == wa
            only_a = Counter(shingle_sequence(wa, config.l)) - Counter(shingle_sequence(wb, config.l))
            assert (rep_b.step2_walked, rep_b.step2_checks) == (sum(only_a.values()), 1)

    def test_a_polynomial_without_a_candidate_root_leaves_the_walk_unfinished(self):
        # the roots p - 1, p - 2 and p - 3 lie in the point range, where no
        # element does.  The runs "$a" and "cba$" of "$abcba$" start the
        # first pass at the nodes '$' and 'c'; the second starts at every
        # node within 2l = 4 positions of them, and the third at every node
        # of the word, in both cases all four of its nodes.  Each start
        # node tries its base successors once, the walk finds nothing, and
        # the roots it leaves mean a wrong polynomial
        word = ShingledWord("abcba", 2, Alphabet("abc"))
        spans = [(0, 0), (3, 5)]
        assert [word.text[start : end + 2] for start, end in spans] == ["$a", "cba$"]
        polys = [field.poly_from_roots([ABC_P - 1, ABC_P - 2], ABC_P), field.poly_from_roots([ABC_P - 3], ABC_P)]
        out, points = self.walk_counted(word, spans, polys, 2, 3, ABC_W, ABC_P)
        assert out is None
        assert len(points) == word.table.base * (2 + 4 + 4) <= self.bound(word, spans, 3)

    @settings(max_examples=150, deadline=None)
    @given(word_pairs(), st.sampled_from([1, 2, 4]), st.integers(0, 2**16))
    def test_the_walk_finds_every_one_sided_instance_within_its_bound(self, case, buckets, seed):
        # the initiator `word`, the responder `other`; each bucket's
        # polynomial has the initiator's one-sided elements in it as roots,
        # over the symbols of both words, as in a session
        _, l, word, other = case
        codec = session_codec(word, other, l)
        alphabet, occ_bits, p = codec.alphabet, codec.occ_bits, codec.field.p
        mine, theirs = Counter(shingle_sequence(word, l)), Counter(shingle_sequence(other, l))
        element = dict(zip(ShingleMultiset(mine).instances(), session_elements(word, l, alphabet, occ_bits)))
        one_sided = [element[s, occ] for s, m in (mine - theirs).items() for occ in range(theirs[s] + 1, mine[s] + 1)]
        polys = [field.poly_from_roots(part, p) for part in partition(one_sided, buckets, seed)]
        responder = ShingledWord(other, l, alphabet)
        spans = responder.spans(Counter({responder.table.key(s): m for s, m in (theirs - mine).items()}))
        out, points = self.walk_counted(responder, spans, polys, buckets, seed, occ_bits, p)
        # the walk is complete: its windows are the one-sided instances,
        # every run one a padded word may hold, and its elements their roots
        walked, found = out
        assert _windows(walked, l) == ShingleMultiset(mine - theirs)
        assert all(map(shingles.is_valid_shingle, walked))
        assert sorted(found) == sorted(one_sided)
        assert len(points) <= self.bound(responder, spans, len(one_sided))

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_the_walk_is_complete_over_every_pair_of_short_binary_words(self, l):
        # every pair of binary words of up to 5 symbols, one bucket: the
        # walk finds all of the initiator's one-sided instances
        words = ["".join(bits) for n in range(6) for bits in itertools.product("01", repeat=n)]
        alphabet = Alphabet("01")
        for word, other in itertools.product(words, repeat=2):
            mine, theirs = Counter(shingle_sequence(word, l)), Counter(shingle_sequence(other, l))
            responder = ShingledWord(other, l, alphabet)
            occ_bits = max(word_occ_bits(ShingledWord(word, l, alphabet).table), word_occ_bits(responder.table))
            element = dict(zip(ShingleMultiset(mine).instances(), session_elements(word, l, alphabet, occ_bits)))
            one_sided = [
                element[s, occ] for s in (mine - theirs) for occ in range(theirs[s] + 1, mine[s] + 1)
            ]
            spans = responder.spans(Counter({responder.table.key(s): m for s, m in (theirs - mine).items()}))
            polys = [field.poly_from_roots(one_sided, P61)]
            out = stringrecon._walk(responder, spans, polys, lambda e: 0, occ_bits, P61)
            assert out is not None and sorted(out[1]) == sorted(one_sided), (word, other)

    def test_a_word_without_runs_is_walked_from_every_node(self):
        # the responder's windows are all the initiator's: it has no run,
        # so the first two passes have no start, and the third finds the
        # one '000' more of the initiator's.  Only the responder hands over
        (ra, rep_a), (rb, rep_b) = run_session("00000000", "0000000", ReconConfig(l=3, seed=3))
        assert ra == "0000000" and rb == "00000000"
        assert (rep_b.step2_walked, rep_b.step2_checks) == (1, 1)
        assert rep_a.frame_bits["DELTA"][0] == rep_b.frame_bits["DELTA"][1] == 0

    def test_a_cycle_that_touches_no_run_is_found_near_the_runs(self):
        # "1111110011000" twice in the initiator's word, and once with an
        # edit in the responder's, at l = 18: of the initiator's 14
        # one-sided windows, 13 close a cycle through no node of the
        # responder's run, which the walk's second pass, from the nodes
        # near the run, finds
        wa = "1110111111001100011111100110001110110001"
        wb = "11101111110011000111011100110001110110001"
        mine, theirs = Counter(shingle_sequence(wa, 18)), Counter(shingle_sequence(wb, 18))
        responder = shingled(wb, 18)
        (run,) = responder.runs(Counter({responder.table.key(s): m for s, m in (theirs - mine).items()}))
        run_nodes = {run[i : i + 17] for i in range(len(run) - 16)}
        cycle = Counter({s: m for s, m in (mine - theirs).items() if s[:17] not in run_nodes})
        assert sum(cycle.values()) == 13 and sum((mine - theirs).values()) == 14
        balance = Counter()
        for s, m in cycle.items():
            balance[s[:17]] += m
            balance[s[1:]] -= m
        assert not any(balance.values()) and not run_nodes & set(balance)
        (ra, rep_a), (rb, rep_b) = run_session(wa, wb, ReconConfig(l=18, seed=1))
        assert ra == wb and rb == wa
        assert rep_b.step2_walked == 14

    def test_a_short_shingle_length_is_walked_in_full(self):
        # a short shingle length: the first two passes find 4 of the
        # initiator's 6 one-sided instances, and the third the other 2
        rng = random.Random("partial:72")
        wa = "".join(rng.choice("01") for _ in range(64))
        wb = random_edits(wa, 4, rng, "01")
        (ra, rep_a), (rb, rep_b) = run_session(wa, wb, ReconConfig(l=4, seed=72))
        assert ra == wb and rb == wa
        count_a, count_b = Counter(shingle_sequence(wa, 4)), Counter(shingle_sequence(wb, 4))
        assert sum((count_a - count_b).values()) == 6
        assert (rep_a.step2_walked, rep_b.step2_walked, rep_b.step2_checks) == (0, 6, 1)

    def test_periodic_stretches_are_walked_in_full(self, monkeypatch):
        # seeded sessions over periodic stretches whose period count
        # changes, where the initiator's one-sided windows may close cycles
        # far from every run of the responder's, and a unary pair whose
        # responder has no run at all: every session recovers both words,
        # and the responder's hand-off is its one DELTA
        deltas = []
        real_send = _MeteredEndpoint.send

        def spy(wire, kind, payload=b""):
            if kind == FrameKind.DELTA:
                deltas.append(wire.report.role)
            return real_send(wire, kind, payload)

        monkeypatch.setattr(_MeteredEndpoint, "send", spy)
        rng = random.Random("periodic")
        cases = [("0000000", "00000000", 3)] + [periodic_pair(rng) for _ in range(300)]
        for index, (wa, wb, l) in enumerate(cases):
            deltas.clear()
            (ra, _), (rb, rep_b) = run_session(wa, wb, ReconConfig(l=l, seed=index))
            assert (ra, rb) == (wb, wa), (wa, wb, l)
            assert deltas == ["responder"], (wa, wb, l)


def with_check_block(frame, buckets, instances, check):
    """A bundle frame from a sender of `instances` shingle instances over
    `buckets` fine buckets whose check block, the 12 bytes after the bucket
    sizes, is replaced by `check(block)`; any other frame as it is."""
    if frame.kind != FrameKind.EVAL_BUNDLE:
        return frame
    payload = frame.payload
    at = 1 + (max(1, instances.bit_length()) + 7) // 8
    head = at + 1 + (buckets * payload[at] + 7) // 8
    return Frame(frame.kind, payload[:head] + check(payload[head : head + 12]) + payload[head + 12 :])


def tampered_initiator(word, config, tamper):
    """A script for `scripted_session`: the honest initiator holding `word`,
    whose every outgoing frame passes through `tamper(frame)` first."""

    def script(peer):
        send = peer.send
        peer.send = lambda frame: send(tamper(frame))
        try:
            run_protocol(word, peer, "initiator", config)
        except ShingleSyncError:
            pass  # the responder stopped first

    return script


def merges_frame(heads_and_glued, choices):
    """A MERGES payload from a sender of 7 instances: the chain count 2
    bits wide, index values 3, then the choices, a string of bits,
    zero-padded to a byte."""
    return (
        _pack_block([len(heads_and_glued) // 2], 2)
        + _pack_block(heads_and_glued, 3)
        + _pack_block([int(bit) for bit in choices], 1)
    )


# an honest responder "00100" at l = 3 holds one instance each of the keys of
# '$$0', '$00', '0$$', '00$', '001', '010' and '100', in that order.  Node
# '00' is its one branch point: '00$' and '001' leave it, so a choice there
# takes a bit.  The chain from '$00' gluing '001', index 1, is one it could
# send.
GLUE_1_4 = merges_frame([1, 1], "1")


class TestHostileMerges:
    """The responder is honest but for its MERGES frame; the initiator must
    stop with `ProtocolError`, and the responder, which its ABORT reaches,
    with `SessionAbortError`."""

    CONFIG = ReconConfig(l=3, mode=MODE_RATELESS, k=8, seed=3)

    @staticmethod
    def refused(initiator, responder, payload, match, config=CONFIG):
        outcome = {}

        def script(peer):
            send = peer.send

            def tampered(frame):
                if frame.kind == FrameKind.MERGES:
                    frame = Frame(FrameKind.MERGES, payload)
                send(frame)

            peer.send = tampered
            try:
                run_protocol(responder, peer, "responder", config)
            except ShingleSyncError as exc:
                outcome["responder"] = exc

        exc = scripted_session(initiator, "initiator", config, script)
        assert isinstance(exc, ProtocolError) and match in str(exc), exc
        assert isinstance(outcome.get("responder"), SessionAbortError), outcome
        assert match in str(outcome["responder"])

    @pytest.mark.parametrize(
        "payload,match",
        [
            (GLUE_1_4[:-1], "branch point past the last choice"),
            (GLUE_1_4 + b"\x00", "1 bytes of choices left over"),
            (GLUE_1_4[:-1] + bytes([GLUE_1_4[-1] | 1]), "nonzero padding bits"),
            (GLUE_1_4[:1], "holds 0 bytes, not 2 values"),
            (merges_frame([7, 1], "1"), "past the 7 distinct keys"),
            (merges_frame([1, 0], ""), "glues no shingle"),
            (merges_frame([1, 7], "1" * 7), "more than the 7"),
            # two chains through the one '$00'
            (merges_frame([1, 1, 1, 1], "11"), "starts at a shingle with no instance left"),
            # three chains, the most a 2-bit count states, gluing two each
            # need nine of the seven instances
            (merges_frame([1, 2] * 3, "111"), "cover 9 instances, more than the 7"),
            # '$$0' to '$00' is the one way on: no choice is read
            (merges_frame([0, 1], "1"), "1 bytes of choices left over"),
            # '010' then '100'; then the one way out of '001' is the used-up '010'
            (merges_frame([5, 1, 4, 1], ""), "no successor has an instance left"),
            # from '100' through '00$' (index 0) and '0$$', the word's last
            # shingle, on to its first, '$$0'
            (merges_frame([6, 3], "0"), "delimiters that end the word"),
        ],
        ids=[
            "truncated",
            "over-long",
            "padding",
            "no-head-block",
            "head-past-the-keys",
            "glued-zero",
            "past-the-instances",
            "used-up",
            "too-many-chains",
            "choices-left-over",
            "only-successor-used-up",
            "past-the-word-end",
        ],
    )
    def test_malformed_merges_frame_is_refused(self, payload, match):
        self.refused("00101", "00100", payload, match)

    def test_a_choice_past_the_live_successors_ends_the_session(self):
        # the responder "abacad" at l = 2 holds '$a', 'ab', 'ac', 'ad', 'ba',
        # 'ca' and 'd$' once each, 7 instances as `merges_frame` takes; from
        # '$a' the walk reaches node 'a' with three successors left, so the
        # choice takes 2 bits, and index 3 names none of them
        config = ReconConfig(l=2, seed=3)
        self.refused("abacae", "abacad", merges_frame([0, 1], "11"), "choice 3 is past the 3 live successors", config)

    def test_honest_chain_is_accepted(self):
        # the frame every refused case above is a variation of
        table = shingled("00100", 3).table
        chains = decode_merges(GLUE_1_4, 7)
        assert chains == MergeChains([1], [1], b"\x80")
        assert apply_merge_records(table, chains) == ShingleMultiset(
            {"$$0": 1, "$001": 1, "0$$": 1, "00$": 1, "010": 1, "100": 1}
        )


class TestRandomEdits:
    def test_edit_count_changes_length_by_at_most_alpha(self, rng):
        for _ in range(100):
            w = "".join(rng.choice("01") for _ in range(rng.randrange(0, 50)))
            alpha = rng.randrange(0, 6)
            edited = random_edits(w, alpha, rng, "01")
            assert abs(len(edited) - len(w)) <= alpha

    def test_zero_edits_is_identity(self, rng):
        assert random_edits("0101", 0, rng, "01") == "0101"
