import dataclasses
import hashlib
import math
import random
import struct
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shinglesync import (
    DEFAULT_DELIMITER,
    MODE_FIXED,
    MODE_RATELESS,
    Alphabet,
    MergeRecord,
    ReconConfig,
    ShingleMultiset,
    apply_merge_records,
    channel_pair,
    decoding_count,
    merge_until_ud,
    random_edits,
    run_protocol,
    seams_to_records,
    shingle_sequence,
)
from shinglesync import field, setrecon, stringrecon, transport
from shinglesync.errors import (
    BoundExceededError,
    InvalidParameterError,
    InvariantError,
    ProtocolError,
    SessionAbortError,
    TransportClosedError,
)
from shinglesync.field import P61
from shinglesync.setrecon import EvalBundle, RatelessDecoder, ShingleCodec, partition
from shinglesync.stringrecon import (
    _CONFIG,
    FIELD,
    VALUE_BITS,
    SessionReport,
    _MeteredEndpoint,
    _pack_block,
    _reconcile_step,
    _unpack_block,
    decode_bundle,
    decode_handoff,
    decode_hello,
    decode_merges,
    decode_pairs,
    decode_request,
    decode_roots,
    encode_bundle,
    encode_handoff,
    encode_hello,
    encode_merges,
    encode_pairs,
    encode_request,
    encode_roots,
    step2_buckets,
)
from shinglesync.transport import Frame, FrameKind, Listener, connect


def run_session(word_a, word_b, config_a, config_b=None, alpha=None, timeout=120):
    a, b = channel_pair()
    with ThreadPoolExecutor(2) as pool:
        fut_a = pool.submit(run_protocol, word_a, a, "initiator", config_a, alpha)
        fut_b = pool.submit(run_protocol, word_b, b, "responder", config_b or config_a, alpha)
        res_a = fut_a.result(timeout=timeout)
        res_b = fut_b.result(timeout=timeout)
    return res_a, res_b


def scripted_session(word, role, config, script, timeout=30):
    """Run one party while `script` plays its peer on the other endpoint.

    Returns what the party raised, or None when it returned.  The party
    closes its endpoint when it stops, so a script waiting for a frame that
    never comes ends; the party runs in a daemon thread, so a session that
    never ends fails the test instead of hanging it.
    """
    mine, peer = channel_pair()
    raised = {}

    def party():
        try:
            run_protocol(word, mine, role, config)
        except Exception as exc:  # noqa: BLE001 - handed to the test
            raised["exc"] = exc
        finally:
            mine.close()

    thread = threading.Thread(target=party, daemon=True)
    thread.start()
    try:
        script(peer)
    except TransportClosedError:
        pass
    peer.close()
    thread.join(timeout)
    assert not thread.is_alive(), "session still running"
    return raised.get("exc")


def hello_for(config, word):
    return Frame(FrameKind.HELLO, encode_hello(config, len(word), "".join(sorted(set(word)))))


def hello_with(config, word, index, value):
    """A hello payload for `config` whose config field number `index` (in
    `_CONFIG` order: l, mode, m_hat, k, seed) is replaced by `value`."""
    payload = bytearray(encode_hello(config, len(word), "".join(sorted(set(word)))))
    fields = list(_CONFIG.unpack_from(payload, 1))
    fields[index] = value
    _CONFIG.pack_into(payload, 1, *fields)
    return bytes(payload)


class TestMergeBookkeeping:
    def test_katana_merge_set(self):
        ordered = shingle_sequence("katana", 2)
        merged, seams = merge_until_ud(ordered, 2)
        assert merged == ShingleMultiset({"$k": 1, "ka": 1, "at": 1, "tana": 1, "a$": 1})
        assert seams == [(3, 4), (4, 5)]
        result = decoding_count(merged, l=2)
        assert result.count == 1 and result.witnesses == ("katana",)

    def test_ud_word_has_empty_merge_log(self):
        _, seams = merge_until_ud(shingle_sequence("axbxa", 2), 2)
        assert seams == []

    def test_repeated_character_word(self):
        merged, seams = merge_until_ud(shingle_sequence("aaaa", 2), 2)
        assert decoding_count(merged, l=2).witnesses == ("aaaa",)

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="abc", max_size=24), st.integers(min_value=2, max_value=3))
    def test_records_rebuild_remote_merge(self, w, l):
        ordered = shingle_sequence(w, l)
        merged, seams = merge_until_ud(ordered, l)
        initial = ShingleMultiset(Counter(ordered), base_len=l)
        records = seams_to_records(ordered, seams, initial.offsets())
        assert apply_merge_records(initial, records, l) == merged

    def test_bad_records_rejected(self):
        ms = ShingleMultiset(Counter(shingle_sequence("abc", 2)), base_len=2)
        with pytest.raises(ProtocolError):
            apply_merge_records(ms, [MergeRecord(99, 0)], 2)
        with pytest.raises(ProtocolError):
            apply_merge_records(ms, [MergeRecord(1, 0), MergeRecord(2, 0)], 2)

    def test_cyclic_records_rejected(self):
        ms = ShingleMultiset(Counter(shingle_sequence("abcd", 2)), base_len=2)
        with pytest.raises(ProtocolError):
            apply_merge_records(ms, [MergeRecord(1, 2), MergeRecord(2, 1)], 2)

    def test_full_collapse_single_composite(self):
        # every boundary glued: the rebuilt multiset is one composite shingle
        ordered = shingle_sequence("abc", 2)
        ms = ShingleMultiset(Counter(ordered), base_len=2)
        instances = ms.instances()
        index_of = {inst: i for i, inst in enumerate(instances)}
        seen = Counter()
        pos_inst = []
        for s in ordered:
            seen[s] += 1
            pos_inst.append((s, seen[s]))
        records = [
            MergeRecord(atom_index=index_of[pos_inst[i + 1]], anchor_index=index_of[pos_inst[i]])
            for i in range(len(ordered) - 1)
        ]
        assert seams_to_records(ordered, [(i, i + 1) for i in range(len(ordered) - 1)], ms.offsets()) == records
        rebuilt = apply_merge_records(ms, records, 2)
        assert rebuilt == ShingleMultiset({"$abc$": 1})


# bytes produced by the original, unmasked packer: the wire format must not drift
GOLDEN_VALUES = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765]
GOLDEN_PACKED_13 = bytes.fromhex("0000004004003002802001a01501100dc0b209007485e44c43db31ea8620aba6d0")
GOLDEN_MERGES_3 = bytes.fromhex("00000003af8c40")


@st.composite
def width_and_values(draw):
    bits = draw(st.integers(min_value=1, max_value=VALUE_BITS))
    values = draw(st.lists(st.integers(min_value=0, max_value=2**bits - 1), max_size=3000))
    return bits, values


def value_block_bytes(count):
    """Bytes of a block of `count` values at the value width."""
    return (VALUE_BITS * count + 7) // 8


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
        records = [MergeRecord(5, 3), MergeRecord(7, 0), MergeRecord(6, 1)]
        assert encode_merges(records, 3) == GOLDEN_MERGES_3
        assert decode_merges(GOLDEN_MERGES_3, 3) == records

    def test_value_blocks_are_62_bits_wide(self):
        # one big-endian integer of count * 62 bits, zero-padded to a byte
        assert VALUE_BITS == 62
        values = [1, P61 - 1, 0, 2**61 + 3]
        as_int = 0
        for v in values:
            as_int = (as_int << 62) | v
        nbytes = value_block_bytes(len(values))
        assert _pack_block(values, VALUE_BITS) == (as_int << (8 * nbytes - 62 * len(values))).to_bytes(nbytes, "big")

    def test_truncated_index_block_rejected(self):
        for bad in (GOLDEN_PACKED_13[:-1], GOLDEN_PACKED_13 + b"\x00"):
            with pytest.raises(ProtocolError):
                _unpack_block(bad, 13, len(GOLDEN_VALUES), "test")

    def test_block_padding_must_be_zero(self):
        # 20 values of 13 bits leave 4 padding bits in the last byte
        bad = GOLDEN_PACKED_13[:-1] + bytes([GOLDEN_PACKED_13[-1] | 1])
        with pytest.raises(ProtocolError):
            _unpack_block(bad, 13, len(GOLDEN_VALUES), "test")

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500)),
            max_size=30,
        )
    )
    def test_merges_frame_round_trip(self, pairs):
        records = [MergeRecord(a, b) for a, b in pairs]
        assert decode_merges(encode_merges(records, 9), 9) == records

    @pytest.mark.parametrize(
        "payload",
        [GOLDEN_MERGES_3 + b"\x00", GOLDEN_MERGES_3[:-1], b"\x00\x00\x00"],
        ids=["one-byte-long", "one-byte-short", "short-count"],
    )
    def test_merges_frame_length_must_match_count(self, payload):
        with pytest.raises(ProtocolError):
            decode_merges(payload, 3)

    def test_pair_frame_round_trip_and_exact_length(self):
        # values only, 62 bits each: the peer derives the points and the count
        payload = encode_pairs([(1, 2), (3, P61 - 1)])
        assert len(payload) == value_block_bytes(2) == 16
        assert decode_pairs(payload, 2) == [2, P61 - 1]
        assert encode_pairs([]) == b"" and decode_pairs(b"", 0) == []
        for bad, count in ((payload[:-1], 2), (payload + b"\x00", 2), (payload, 1), (payload, 3)):
            with pytest.raises(ProtocolError):
                decode_pairs(bad, count)

    def test_value_blocks_hold_residues_only(self):
        for value in (P61, 2**VALUE_BITS - 1):
            block = _pack_block([7, value], VALUE_BITS)
            for decode in (
                lambda: decode_pairs(block, 2),
                lambda: decode_roots(block, 2),
                lambda: decode_bundle(struct.pack(">I", 5) + block, 1, 2),
                lambda: decode_handoff(struct.pack(">II", 1, 1) + block, 1),
            ):
                with pytest.raises(ProtocolError):
                    decode()

    def test_bundle_frame_round_trip_and_exact_length(self):
        # one u32 size per bucket, then the values, as many as the hello implies
        payload = encode_bundle(EvalBundle((7, 9), (1, P61 - 1), 5), bucket_sizes=[5])
        assert len(payload) == 4 + value_block_bytes(2)
        assert decode_bundle(payload, 1, 2) == ([5], [1, P61 - 1])
        empty = encode_bundle(EvalBundle((), (), 3), bucket_sizes=[1, 0, 2, 0])
        assert len(empty) == 4 * 4
        assert decode_bundle(empty, 4, 0) == ([1, 0, 2, 0], [])
        for bad in (payload[:3], payload[:7], payload[:-1], payload + b"\x00"):
            with pytest.raises(ProtocolError):
                decode_bundle(bad, 1, 2)
        for count in (1, 3):
            with pytest.raises(ProtocolError):
                decode_bundle(payload, 1, count)
        with pytest.raises(ProtocolError):
            decode_bundle(empty, 2, 0)

    def test_request_frame_round_trip_and_exact_length(self):
        payload = encode_request([3, 0, 2**16 - 1])
        assert payload == bytes.fromhex("00030000ffff")
        assert decode_request(payload, 3) == [3, 0, 2**16 - 1]
        for bad, buckets in ((payload, 2), (payload, 4), (payload[:-1], 3), (b"", 1)):
            with pytest.raises(ProtocolError):
                decode_request(bad, buckets)

    def test_handoff_and_roots_frames_round_trip_and_exact_length(self):
        # 1 + B u32 counts, then the instances and per bucket a monic
        # polynomial without its leading 1, in one block
        payload = encode_handoff([4, 5], [[6, 1]])
        assert payload[:8] == struct.pack(">II", 2, 1)
        assert len(payload) == 4 * 2 + value_block_bytes(3)
        assert decode_handoff(payload, 1) == ([4, 5], [[6, 1]])
        assert decode_handoff(encode_handoff([], [[1]]), 1) == ([], [[1]])
        two = encode_handoff([4], [[1], [8, 9, 1]])
        assert len(two) == 4 * 3 + value_block_bytes(3)
        assert decode_handoff(two, 2) == ([4], [[1], [8, 9, 1]])
        for bad in (payload[:3], payload[:7], payload[:15], payload[:-1], payload + b"\x00"):
            with pytest.raises(ProtocolError):
                decode_handoff(bad, 1)
        with pytest.raises(ProtocolError):
            decode_handoff(payload, 2)
        roots = encode_roots([7, P61 - 1])
        assert len(roots) == value_block_bytes(2)
        assert decode_roots(roots, 2) == [7, P61 - 1]
        assert decode_roots(encode_roots([]), 0) == []
        for bad, count in ((roots[:-1], 2), (roots + b"\x00", 2), (roots, 1), (roots, 3)):
            with pytest.raises(ProtocolError):
                decode_roots(bad, count)

    def test_hello_round_trip(self):
        config = ReconConfig(l=7, mode=MODE_FIXED, m_hat=33, k=5, seed=12345)
        payload = encode_hello(config, 999, "abc")
        assert decode_hello(payload) == (config, 999, "abc")

    def test_config_holds_only_what_sessions_vary(self):
        assert [f.name for f in dataclasses.fields(ReconConfig)] == ["l", "mode", "m_hat", "k", "seed"]
        assert ReconConfig(l=2).delimiter == DEFAULT_DELIMITER

    @pytest.mark.parametrize(
        "name,value",
        [("l", 2), ("l", 2**32 - 1), ("m_hat", 0), ("m_hat", 2**32 - 1),
         ("k", 1), ("k", 2**16 - 1), ("seed", 0), ("seed", 2**64 - 1)],
    )
    def test_config_bounds_fit_the_hello(self, name, value):
        config = ReconConfig(**{"l": 7, name: value})
        assert decode_hello(encode_hello(config, 5, "ab"))[0] == config

    @pytest.mark.parametrize(
        "name,value",
        [("l", 1), ("l", 2**32), ("m_hat", -1), ("m_hat", 2**32),
         ("k", 0), ("k", 2**16), ("seed", -1), ("seed", 2**64)],
    )
    def test_config_rejects_what_the_hello_cannot_carry(self, name, value):
        with pytest.raises(InvalidParameterError):
            ReconConfig(**{"l": 7, name: value})

    def test_hello_symbols_must_be_utf8(self):
        payload = encode_hello(ReconConfig(l=7, seed=1), 2, "ab")
        bad = payload[:-2] + b"\xff\xfe"
        with pytest.raises(ProtocolError):
            decode_hello(bad)

    @pytest.mark.parametrize(
        "index,value",
        [(0, 1), (1, 2), (3, 0)],
        ids=["l-below-2", "unknown-mode", "k-zero"],
    )
    def test_hello_fields_are_validated(self, index, value):
        with pytest.raises(ProtocolError):
            decode_hello(hello_with(ReconConfig(l=7, seed=1), "ab", index, value))


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
        merged, _ = merge_until_ud(shingle_sequence("katana", 2), 2)
        assert "tana" in merged.entries
        assert rep_a.merges_local == 2 and rep_b.merges_remote == 2

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

    @pytest.mark.parametrize("mode,m_hat", [(MODE_FIXED, 16), (MODE_RATELESS, 0)])
    def test_both_parties_report_the_step2_pairs(self, mode, m_hat):
        config = ReconConfig(l=3, mode=mode, m_hat=m_hat, k=4, seed=9)
        (_, rep_a), (_, rep_b) = run_session("katana", "katna", config)
        assert rep_a.step2_pairs == rep_b.step2_pairs > 0
        if mode == MODE_FIXED:
            assert rep_a.step2_pairs == m_hat + 4
        assert f"step2_pairs={rep_a.step2_pairs}\n" in rep_a.to_text()

    def test_zero_difference_rateless_session_sends_k_pairs(self, rng):
        config = ReconConfig(l=2, mode=MODE_RATELESS, k=6, seed=5)
        (_, rep_a), (_, rep_b) = run_session("hello", "hello", config)
        assert rep_a.step2_pairs == rep_b.step2_pairs == 6
        # 300 + 12 instances make four buckets, each verified by its own k pairs
        word = "".join(rng.choice("01") for _ in range(300))
        config = ReconConfig(l=13, mode=MODE_RATELESS, k=8, seed=5)
        (_, rep_a), (_, rep_b) = run_session(word, word, config)
        assert rep_a.step2_buckets == rep_b.step2_buckets == 4
        assert rep_a.step2_pairs == rep_b.step2_pairs == 4 * 8

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
        assert rep_a.step2_buckets == rep_b.step2_buckets == (1 if mode == MODE_FIXED else 4)
        assert rep_a.step2_rounds == rep_b.step2_rounds == kinds.count(FrameKind.DELTA_REQ)
        assert (rep_a.step2_rounds > 0) == (mode == MODE_RATELESS)
        text = rep_b.to_text()
        assert f"step2_buckets={rep_b.step2_buckets}\n" in text
        assert f"step2_rounds={rep_b.step2_rounds}\n" in text

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

    def test_responder_hands_over_the_instances_it_found(self, monkeypatch):
        # "aa" three times on the responder's side against once: the hand-off
        # holds the responder's (aa, 2) and (aa, 3), not the shared (aa, 1)
        sent = []
        real_encode = stringrecon.encode_handoff

        def spy(sender_only, polys):
            sent.append(sender_only)
            return real_encode(sender_only, polys)

        monkeypatch.setattr(stringrecon, "encode_handoff", spy)
        wa, wb = "aab", "aaaab"
        config = ReconConfig(l=2, mode=MODE_RATELESS, k=8, seed=7)
        (ra, _), (rb, _) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        codec = ShingleCodec(Alphabet("ab"), FIELD)
        mine, theirs = (
            set(codec.encode_multiset(ShingleMultiset(Counter(shingle_sequence(w, 2)))))
            for w in (wb, wa)
        )
        assert len(sent) == 1 and sorted(sent[0]) == sorted(mine - theirs)
        assert sorted(sent[0]) == [codec.encode("aa", 2), codec.encode("aa", 3)]

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
        ca, cb = Counter(shingle_sequence(wa, l)), Counter(shingle_sequence(wb, l))
        m = sum(((ca - cb) + (cb - ca)).values())
        assert 0 < m < m_hat
        config = ReconConfig(l=l, mode=MODE_FIXED, m_hat=m_hat, k=k, seed=17)
        (ra, rep_a), (rb, _) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        assert rep_a.step2_pairs == m_hat + k
        assert len(fed) == m + k
        assert fed == FIELD.sample_points(config.seed, m + k)

    def test_fixed_bundle_of_m_hat_plus_k_values_recovers_a_difference_of_m_hat(self):
        wa = "".join(random.Random(8).choice("01") for _ in range(96))
        wb = flip(wa, 40)
        l, k = 13, 8
        ca, cb = Counter(shingle_sequence(wa, l)), Counter(shingle_sequence(wb, l))
        m = sum(((ca - cb) + (cb - ca)).values())
        assert m > 0
        config = ReconConfig(l=l, mode=MODE_FIXED, m_hat=m, k=k, seed=19)
        (ra, rep_a), (rb, rep_b) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        assert rep_a.step2_pairs == rep_b.step2_pairs == m + k

    def test_hello_bits_are_the_frame_arithmetic(self):
        config = ReconConfig(l=2, mode=MODE_RATELESS, seed=5)
        (_, rep_a), (_, rep_b) = run_session("katana", "kana", config)
        for rep, symbols in ((rep_a, "aknt"), (rep_b, "akn")):
            # frame header, then version, the five parameters, the word length
            # and symbol count, and the symbols
            assert rep.step_bits("hello")[0] == 40 + 8 * (1 + 19 + 12 + len(symbols))

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

    def test_rateless_step2_bits_are_the_frame_arithmetic(self, monkeypatch, rng):
        batches = []
        real_encode = stringrecon.encode_pairs

        def spy(pairs):
            batches.append(len(pairs))
            return real_encode(pairs)

        monkeypatch.setattr(stringrecon, "encode_pairs", spy)
        header = 40  # length:u32 and kind:u8
        l = 13
        # 40 + 12 instances keep one bucket; 300 + 12 make four
        for n, buckets in ((40, 1), (300, 4)):
            batches.clear()
            wa = "".join(rng.choice("01") for _ in range(n))
            wb = random_edits(wa, 3, rng, "01")
            ca, cb = Counter(shingle_sequence(wa, l)), Counter(shingle_sequence(wb, l))
            only_a, only_b = sum((ca - cb).values()), sum((cb - ca).values())
            config = ReconConfig(l=l, mode=MODE_RATELESS, k=8, seed=23)
            (_, rep_a), (_, rep_b) = run_session(wa, wb, config)
            assert rep_a.step2_buckets == buckets
            pairs, rounds = rep_a.step2_pairs, rep_a.step2_rounds
            assert sum(batches) == pairs == rep_b.step2_pairs
            assert len(batches) == rounds == rep_b.step2_rounds
            def block(count):  # 62-bit values, zero-padded to a byte
                return 8 * ((62 * count + 7) // 8)

            # initiator: bundle of bucket sizes and no values, one value frame
            # per request, its roots
            sent_a = (
                (header + 32 * buckets)
                + sum(header + block(batch) for batch in batches)
                + (header + block(only_a))
            )
            # responder: the u16 count vectors, then 1 + B u32 counts over one
            # block of its instances and the polynomials, whose degrees sum to only_a
            sent_b = rounds * (header + 16 * buckets) + header + 32 * (1 + buckets) + block(only_b + only_a)
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

    def test_fixed_mode_bound_exceeded_aborts_both_sides(self, rng):
        wa = "".join(rng.choice("01") for _ in range(128))
        wb = random_edits(wa, 12, rng, "01")
        config = ReconConfig(l=13, mode=MODE_FIXED, m_hat=4, k=4, seed=77)
        a, b = channel_pair()
        with ThreadPoolExecutor(2) as pool:
            fut_a = pool.submit(run_protocol, wa, a, "initiator", config)
            fut_b = pool.submit(run_protocol, wb, b, "responder", config)
            with pytest.raises(BoundExceededError):
                fut_b.result(timeout=60)
            with pytest.raises(SessionAbortError):
                fut_a.result(timeout=60)

    def test_merge_count_mismatch_raises(self, monkeypatch):
        real = stringrecon.merge_until_ud

        def one_instance_extra(ordered, l, delimiter="$"):
            merged, seams = real(ordered, l, delimiter)
            return merged.union(ShingleMultiset({"zz": 1})), seams

        monkeypatch.setattr(stringrecon, "merge_until_ud", one_instance_extra)
        config = ReconConfig(l=2, mode=MODE_RATELESS, seed=11)
        a, b = channel_pair()
        with ThreadPoolExecutor(2) as pool:
            fut_a = pool.submit(run_protocol, "katana", a, "initiator", config)
            fut_b = pool.submit(run_protocol, "katna", b, "responder", config)
            for fut in (fut_a, fut_b):
                with pytest.raises(InvariantError):
                    fut.result(timeout=60)

    def test_responder_echo_mismatch_detected(self):
        config = ReconConfig(l=2, mode=MODE_RATELESS, seed=4)
        a, b = channel_pair()

        def fake_responder():
            b.recv()
            b.send(hello_for(ReconConfig(l=3, mode=MODE_RATELESS, seed=4), "ab"))

        thread = threading.Thread(target=fake_responder, daemon=True)
        thread.start()
        with pytest.raises(SessionAbortError):
            run_protocol("ab", a, "initiator", config)
        thread.join(60)
        assert not thread.is_alive()

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


def step2_exchange(ms_a, ms_b, buckets, config, codec):
    """Step 2 alone between an initiator holding `ms_a` and a responder holding
    `ms_b`, at a given bucket count; returns both parties' (only local, only
    remote) multisets and reports."""
    a, b = channel_pair()
    reports = (SessionReport("initiator"), SessionReport("responder"))
    with ThreadPoolExecutor(2) as pool:
        futures = [
            pool.submit(_reconcile_step, _MeteredEndpoint(end, rep), role, config, codec, mine,
                        theirs.total(), buckets, rep)
            for end, rep, role, mine, theirs in (
                (a, reports[0], "initiator", ms_a, ms_b),
                (b, reports[1], "responder", ms_b, ms_a),
            )
        ]
        deltas = [fut.result(timeout=60) for fut in futures]
    return deltas, reports


class TestStep2Kernel:
    """The packed kernel (`field.char_values_p61`) in whole sessions."""

    @pytest.fixture
    def kernel_threads(self, monkeypatch):
        threads = []
        real = setrecon.char_values_p61

        def spy(elements, points):
            threads.append(threading.current_thread().name)
            return real(elements, points)

        monkeypatch.setattr(setrecon, "char_values_p61", spy)
        return threads

    @staticmethod
    def pair(seed, n, alpha):
        rng = random.Random(seed)
        word = "".join(rng.choice("01") for _ in range(n))
        return word, random_edits(word, alpha, rng, "01")

    def test_fixed_session_evaluates_once_per_party_with_the_kernel(self, kernel_threads):
        wa, wb = self.pair(3, 400, 2)
        # m_hat covers the worst-case difference 2 * alpha * (l + 1) = 52
        config = ReconConfig(l=12, mode=MODE_FIXED, m_hat=64, k=8, seed=5)
        assert config.m_hat + config.k >= setrecon.KERNEL_MIN_POINTS
        assert len(wa) + config.l - 1 >= setrecon.KERNEL_MIN_ELEMENTS
        (ra, _), (rb, _) = run_session(wa, wb, config)
        assert ra == wb and rb == wa
        # the initiator's bundle and the responder's side of it
        assert len(kernel_threads) == len(set(kernel_threads)) == 2

    def test_small_rateless_session_never_enters_the_kernel(self, kernel_threads):
        wa, wb = self.pair(4, 400, 2)
        (ra, _), (rb, _) = run_session(wa, wb, ReconConfig(l=12, mode=MODE_RATELESS, seed=5))
        assert ra == wb and rb == wa
        assert kernel_threads == []

    def test_fixed_bundle_payload_is_golden(self):
        # taken before the kernel existed, in the protocol-4 layout (u32 size,
        # u32 count, 64-bit values): the bundle's values are unchanged
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
        count = config.m_hat + config.k
        assert len(payload) == 4 + value_block_bytes(count)
        sizes, values = decode_bundle(payload, 1, count)
        v4_payload = struct.pack(">I", *sizes) + struct.pack(f">I{count}Q", count, *values)
        assert hashlib.sha256(v4_payload).hexdigest() == (
            "822dfc92a983410e4c3934b2a068815ab8041233c8999eba87b56b47efc79e30"
        )


class TestPartitionedStep2:
    def test_bucket_rule(self):
        assert step2_buckets(MODE_FIXED, 16403, 16403) == 1
        assert step2_buckets(MODE_RATELESS, 63, 10**6) == 1
        assert step2_buckets(MODE_RATELESS, 64, 64) == 2
        assert step2_buckets(MODE_RATELESS, 96 + 12, 96 + 12) == 2  # 96 bits at l = 13
        assert step2_buckets(MODE_RATELESS, 4113, 4113) == 16
        assert step2_buckets(MODE_RATELESS, 4113, 4095) == 8
        assert step2_buckets(MODE_RATELESS, 16403, 16403) == 32

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([1, 2, 4, 16]),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
    )
    def test_difference_recovered_with_m_plus_k_pairs_per_bucket(self, buckets, seed, extra_a, extra_b):
        rng = random.Random(seed)

        def shingles(count):
            return Counter("".join(rng.choice("abcd") for _ in range(4)) for _ in range(count))

        base = shingles(80)
        count_a, count_b = base + shingles(extra_a), base + shingles(extra_b)
        ms_a, ms_b = ShingleMultiset(count_a), ShingleMultiset(count_b)
        only_a, only_b = ShingleMultiset(count_a - count_b), ShingleMultiset(count_b - count_a)
        config = ReconConfig(l=4, mode=MODE_RATELESS, k=8, seed=seed)
        codec = ShingleCodec(Alphabet("abcd"), FIELD)
        (delta_a, delta_b), (rep_a, rep_b) = step2_exchange(ms_a, ms_b, buckets, config, codec)
        assert delta_a == (only_a, only_b)
        assert delta_b == (only_b, only_a)
        # at most 12 instances per side, so no bucket's rung passes the exact
        # part of the ladder, and each lands on m_b + k
        parts_a = partition(codec.encode_multiset(ms_a), buckets, seed)
        parts_b = partition(codec.encode_multiset(ms_b), buckets, seed)
        expected = sum(len(set(pa) ^ set(pb)) + config.k for pa, pb in zip(parts_a, parts_b))
        assert rep_a.step2_pairs == rep_b.step2_pairs == expected
        assert rep_a.step2_buckets == rep_b.step2_buckets == buckets


def flip(word, i):
    return word[:i] + ("1" if word[i] == "0" else "0") + word[i + 1 :]


WIDE_A = "".join(random.Random(6).choice("01") for _ in range(96))
WIDE_B = flip(WIDE_A, 40)


class TestHostileStep2:
    """A scripted peer sends one bad hello or step-2 frame; the party must stop
    with `ProtocolError` at once (`BoundExceededError` once a fixed-mode
    bundle exhausts the decoder's budget)."""

    CONFIG = ReconConfig(l=2, mode=MODE_RATELESS, k=8, seed=3)
    # two 96-bit words: 108 instances each, so two buckets
    WIDE = ReconConfig(l=13, mode=MODE_RATELESS, k=8, seed=3)

    def initiator_facing(self, *requests, wide=False):
        """The initiator against a responder that sends `requests` as DELTA_REQ
        payloads, checking the values served after each; a request may be a
        function of the bucket sizes in the initiator's bundle.  The words are
        "abcab" against "abcba" (one bucket), or WIDE_A against WIDE_B (two
        buckets) when `wide`."""
        config, mine, theirs, buckets = (
            (self.WIDE, WIDE_A, WIDE_B, 2) if wide else (self.CONFIG, "abcab", "abcba", 1)
        )

        def script(peer):
            peer.recv()
            peer.send(hello_for(config, theirs))
            sizes, _ = decode_bundle(peer.recv().payload, buckets, 0)
            for request in requests:
                payload = request(sizes) if callable(request) else request
                peer.send(Frame(FrameKind.DELTA_REQ, payload))
                frame = peer.recv()
                if frame.kind != FrameKind.EVAL_PAIR:
                    return
                decode_pairs(frame.payload, sum(decode_request(payload, buckets)))

        return scripted_session(mine, "initiator", config, script)

    @pytest.mark.parametrize("payload", [b"", b"\x00\x00\x08", b"\x00\x00\x00\x08\x00"])
    def test_pair_request_frame_length_is_checked(self, payload):
        # one bucket: a request is exactly one u16
        assert isinstance(self.initiator_facing(payload), ProtocolError)

    def test_pair_request_vector_needs_one_count_per_bucket(self):
        for counts in ([1], [1, 1, 1]):
            assert isinstance(self.initiator_facing(encode_request(counts), wide=True), ProtocolError)

    def test_pair_request_count_must_be_positive(self):
        assert isinstance(self.initiator_facing(encode_request([0])), ProtocolError)

    def test_all_zero_pair_request_rejected(self):
        assert isinstance(self.initiator_facing(encode_request([0, 0]), wide=True), ProtocolError)

    def test_pair_requests_stay_within_the_budget(self):
        # 6 + 6 instances at l = 2, plus k = 8
        budget = 6 + 6 + 8
        exc = self.initiator_facing(encode_request([budget + 1]))
        assert isinstance(exc, ProtocolError)
        exc = self.initiator_facing(encode_request([budget - 3]), encode_request([4]))
        assert isinstance(exc, ProtocolError)
        exc = self.initiator_facing(encode_request([2**16 - 1]))
        assert isinstance(exc, ProtocolError)
        # two buckets, each asked up to its own budget: together past the
        # session's 108 + 108 + 2 * 8
        exc = self.initiator_facing(
            lambda sizes: encode_request([size + 108 + 8 for size in sizes]), wide=True
        )
        assert isinstance(exc, ProtocolError) and "budget of 232" in str(exc)

    def test_bucket_requests_stay_within_the_bucket_budget(self):
        # a bucket is served its own instances, every remote instance and k:
        # exactly that passes, one more value fails
        exc = self.initiator_facing(
            lambda sizes: encode_request([0, sizes[1] + 108 + 8]),
            encode_request([0, 1]),
            wide=True,
        )
        assert isinstance(exc, ProtocolError) and "in bucket 1" in str(exc)

    def test_fixed_mode_initiator_refuses_pair_requests(self):
        config = ReconConfig(l=2, mode=MODE_FIXED, m_hat=4, k=8, seed=3)

        def script(peer):
            peer.recv()
            peer.send(hello_for(config, "abcba"))
            peer.recv()  # the bundle
            peer.send(Frame(FrameKind.DELTA_REQ, encode_request([1])))
            peer.recv()

        assert isinstance(scripted_session("abcab", "initiator", config, script), ProtocolError)

    @pytest.mark.parametrize(
        "handoff",
        [
            encode_handoff([5], [[1]]),  # 5 encodes no shingle
            encode_handoff([], [[7, 1]]),  # Z + 7 has no root among the initiator's elements
        ],
        ids=["malformed-instance", "poly-does-not-split"],
    )
    def test_initiator_checks_the_hand_off_before_replying(self, handoff):
        after = []

        def script(peer):
            peer.recv()
            peer.send(hello_for(self.CONFIG, "abcba"))
            peer.recv()  # the bundle
            peer.send(Frame(FrameKind.DELTA, handoff))
            while True:
                after.append(peer.recv().kind)

        exc = scripted_session("abcab", "initiator", self.CONFIG, script)
        assert isinstance(exc, ProtocolError)
        assert FrameKind.DELTA not in after

    def test_responder_rejects_a_hello_with_k_zero(self):
        config = ReconConfig(l=2, mode=MODE_RATELESS, k=8, seed=3)

        def script(peer):
            peer.send(Frame(FrameKind.HELLO, hello_with(config, "abcab", 3, 0)))
            peer.recv()

        assert isinstance(scripted_session("abcba", "responder", config, script), ProtocolError)

    def test_hello_shingle_length_is_bounded_before_shingling(self, monkeypatch):
        # a length-64 shingle over {0, 1} needs 3**64 > 2**61 values: the
        # session stops before building windows of that length
        def no_shingling(*_args, **_kwargs):
            raise AssertionError("shingled at an unencodable l")

        monkeypatch.setattr(stringrecon, "shingle_sequence", no_shingling)
        config = ReconConfig(l=64, mode=MODE_RATELESS, k=8, seed=3)

        def script(peer):
            peer.send(hello_for(config, "0110"))
            peer.recv()
            peer.recv()

        assert isinstance(scripted_session("0101", "responder", config, script), ProtocolError)

    def responder_facing(self, config, bundle, pairs_for=None):
        """The responder "abcba" against an initiator "abcab" that sends `bundle`
        as its one bucket and then answers the first pair request with
        `pairs_for(count)`."""

        def script(peer):
            peer.send(hello_for(config, "abcab"))
            peer.recv()
            peer.send(Frame(FrameKind.EVAL_BUNDLE, encode_bundle(bundle, bucket_sizes=[bundle.set_size])))
            if pairs_for is not None:
                (count,) = decode_request(peer.recv().payload, 1)
                peer.send(Frame(FrameKind.EVAL_PAIR, encode_pairs(pairs_for(count))))

        return scripted_session("abcba", "responder", config, script)

    def test_pair_frame_must_hold_the_requested_count(self):
        points = FIELD.sample_points(1, 40)
        for extra in (-1, 1):
            exc = self.responder_facing(
                self.CONFIG,
                EvalBundle((), (), 6),
                lambda count: [(z, 1) for z in points[: count + extra]],
            )
            assert isinstance(exc, ProtocolError)

    @pytest.mark.parametrize("value", [P61, 2**62 - 1], ids=["P61", "2**62-1"])
    def test_pair_values_must_be_residues(self, value):
        # P61 is 0 mod P61 but is no residue: the frame is rejected, not fed
        exc = self.responder_facing(self.CONFIG, EvalBundle((), (), 6), lambda count: [(0, value)] * count)
        assert isinstance(exc, ProtocolError)

    def test_bundle_set_size_must_match_the_hello(self):
        assert isinstance(self.responder_facing(self.CONFIG, EvalBundle((), (), 7)), ProtocolError)

    def test_bundle_bucket_sizes_must_sum_to_the_hello(self):
        # WIDE_A has 108 instances in two buckets; any split with that sum passes
        def first_reply(sizes):
            replies = []

            def script(peer):
                peer.send(hello_for(self.WIDE, WIDE_A))
                peer.recv()
                peer.send(Frame(FrameKind.EVAL_BUNDLE, encode_bundle(EvalBundle((), (), 0), bucket_sizes=sizes)))
                replies.append(peer.recv().kind)

            return scripted_session(WIDE_B, "responder", self.WIDE, script), replies

        for sizes in ([54, 53], [108, 1], [0, 0]):
            exc, replies = first_reply(sizes)
            assert isinstance(exc, ProtocolError) and replies == []
        exc, replies = first_reply([100, 8])
        assert replies == [FrameKind.DELTA_REQ]

    def test_responder_checks_the_roots_count(self):
        # equal words: every bucket polynomial has degree 0, so no root may come back
        config = self.CONFIG
        codec = ShingleCodec(Alphabet("abc"), FIELD)
        ms = ShingleMultiset(Counter(shingle_sequence("abcba", config.l)))
        source = setrecon.RatelessSource(ms, codec, config.seed)

        def script(peer):
            peer.send(hello_for(config, "abcba"))
            peer.recv()
            peer.send(Frame(FrameKind.EVAL_BUNDLE, encode_bundle(EvalBundle((), (), 6), bucket_sizes=[6])))
            while (frame := peer.recv()).kind == FrameKind.DELTA_REQ:
                (count,) = decode_request(frame.payload, 1)
                peer.send(Frame(FrameKind.EVAL_PAIR, encode_pairs(source.next_pairs(count))))
            assert decode_handoff(frame.payload, 1) == ([], [[1]])
            peer.send(Frame(FrameKind.DELTA, encode_roots([codec.encode("ab", 1)])))
            peer.recv()

        assert isinstance(scripted_session("abcba", "responder", config, script), ProtocolError)

    def test_fixed_responder_never_draws_the_peer_m_hat(self):
        # drawing m_hat + k = 2**32 + 7 points would take hours
        config = ReconConfig(l=2, mode=MODE_FIXED, m_hat=2**32 - 1, k=8, seed=3)
        points = tuple(FIELD.sample_points(3, 4))
        exc = self.responder_facing(config, EvalBundle(points, (1, 1, 1, 1), 6))
        assert isinstance(exc, ProtocolError)

    def test_fixed_responder_stops_at_its_budget(self, monkeypatch, rng):
        # a bundle matching a huge m_hat is fed only up to the decoder's budget
        budgets = []
        real_feed = RatelessDecoder.feed

        def spy(decoder, point, value, local=None):
            budgets.append(decoder.budget)
            return real_feed(decoder, point, value, local)

        monkeypatch.setattr(RatelessDecoder, "feed", spy)
        config = ReconConfig(l=2, mode=MODE_FIXED, m_hat=100_000, k=8, seed=3)
        count = config.m_hat + config.k
        values = tuple(rng.randrange(1, FIELD.p) for _ in range(count))
        start = time.perf_counter()
        exc = self.responder_facing(config, EvalBundle(tuple(range(count)), values, 6))
        assert isinstance(exc, BoundExceededError)
        assert time.perf_counter() - start < 10
        assert 0 < len(budgets) <= budgets[0] == 6 + 6 + 8


class TestRandomEdits:
    def test_edit_count_changes_length_by_at_most_alpha(self, rng):
        for _ in range(100):
            w = "".join(rng.choice("01") for _ in range(rng.randrange(0, 50)))
            alpha = rng.randrange(0, 6)
            edited = random_edits(w, alpha, rng, "01")
            assert abs(len(edited) - len(w)) <= alpha

    def test_zero_edits_is_identity(self, rng):
        assert random_edits("0101", 0, rng, "01") == "0101"
