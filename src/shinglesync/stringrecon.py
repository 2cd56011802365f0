"""End-to-end string reconciliation over a framed transport.

Session outline: exchange hello frames (parameters, lengths, observed
symbols), reconcile the two initial shingle multisets bucket by bucket (one
pre-sized bundle of characteristic values in fixed mode, values streamed on
request in rateless mode), merge each side's ordered shingling to unique
decodability, exchange merge seams as canonical instance-index pairs, rebuild
and uniquely decode the remote multiset, then confirm with digests.  Only the
multiset reconciliation and the merge exchange carry data proportional to the
difference; everything else is constant-size framing.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import struct
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import ClassVar

from .alphabet import DEFAULT_DELIMITER, Alphabet, validate_word
from .debruijn import DeBruijnGraph
from .decider import TokenDecider
from .errors import (
    BoundExceededError,
    InvalidParameterError,
    InvariantError,
    ProtocolError,
    SessionAbortError,
)
from .field import P61, FieldSpec, PointStream
# reconcile_fixed is unused here but stays importable from this module:
# perfbench/tracing.py rebinds it on it
from .setrecon import (  # noqa: F401
    EvalBundle,
    RatelessDecoder,
    RatelessSource,
    ShingleCodec,
    partition,
    reconcile_fixed,
    roots_by_candidates,
)
from .shingles import ShingleMultiset, fold, shingle_sequence
from .transport import Endpoint, Frame, FrameKind

PROTOCOL_VERSION = 5

# the one field every session runs over: P61 with points drawn from its top
# 2**40 residues; neither party announces it, so it never crosses the wire
FIELD = FieldSpec.default61()
# every residue on the wire (evaluation value, coefficient, instance) takes
# the bit length of P61
VALUE_BITS = P61.bit_length()

MAX_REQUEST = 0xFFFF  # a DELTA_REQ count is a u16: the most pairs one bucket asks for per round

MODE_FIXED = "fixed"
MODE_RATELESS = "rateless"


@dataclass(frozen=True)
class ReconConfig:
    """Parameters one session runs under; the initiator's copy wins.

    Only what sessions vary is a field.  Every session runs over the module
    constant `FIELD` (`FieldSpec.default61()`), `ShingleCodec`'s default
    `DEFAULT_OCC_BITS` occurrence bits and the delimiter `DEFAULT_DELIMITER`.
    """

    l: int
    mode: str = MODE_RATELESS
    m_hat: int = 64
    k: int = 8
    seed: int = 1
    delimiter: ClassVar[str] = DEFAULT_DELIMITER

    def __post_init__(self):
        # the bounds are the hello's field widths (`_CONFIG`)
        if not 2 <= self.l < 2**32:
            raise InvalidParameterError("l must be in [2, 2**32)")
        if not 0 <= self.m_hat < 2**32:
            raise InvalidParameterError("m_hat must be in [0, 2**32)")
        if not 1 <= self.k < 2**16:
            raise InvalidParameterError("k must be in [1, 2**16)")
        if not 0 <= self.seed < 2**64:
            raise InvalidParameterError("seed must be in [0, 2**64)")
        if self.mode not in (MODE_FIXED, MODE_RATELESS):
            raise InvalidParameterError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class MergeRecord:
    """One merge seam: the canonical instance index of the absorbed length-l
    shingle and of the anchor shingle it was concatenated onto."""

    atom_index: int
    anchor_index: int


@dataclass
class SessionReport:
    role: str
    l: int = 0
    mode: str = ""
    n_local: int = 0
    n_remote: int = 0
    outcome: str = "incomplete"
    merges_local: int = 0
    merges_remote: int = 0
    step2_pairs: int = 0  # evaluation values that crossed the wire in step 2
    step2_buckets: int = 0  # hash buckets step 2 split the instances into
    step2_rounds: int = 0  # DELTA_REQ frames, one per round of requested values
    alpha: int | None = None
    bits: dict[str, list[int]] = dc_field(default_factory=dict)

    def step_bits(self, step: str) -> tuple[int, int]:
        sent, received = self.bits.get(step, [0, 0])
        return sent, received

    def to_text(self) -> str:
        lines = [
            f"role={self.role}",
            f"outcome={self.outcome}",
            f"mode={self.mode}",
            f"l={self.l}",
            f"n_local={self.n_local}",
            f"n_remote={self.n_remote}",
        ]
        if self.alpha is not None:
            lines.append(f"alpha={self.alpha}")
        lines.append(f"merges_local={self.merges_local}")
        lines.append(f"merges_remote={self.merges_remote}")
        lines.append(f"step2_pairs={self.step2_pairs}")
        lines.append(f"step2_buckets={self.step2_buckets}")
        lines.append(f"step2_rounds={self.step2_rounds}")
        total_sent = total_recv = 0
        for step in sorted(self.bits):
            sent, received = self.bits[step]
            total_sent += sent
            total_recv += received
            lines.append(f"{step}_bits_sent={sent}")
            lines.append(f"{step}_bits_recv={received}")
        lines.append(f"total_bits_sent={total_sent}")
        lines.append(f"total_bits_recv={total_recv}")
        return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# merge bookkeeping


def merge_until_ud(
    ordered: list[str], l: int, delimiter: str = DEFAULT_DELIMITER
) -> tuple[ShingleMultiset, list[tuple[int, int]]]:
    """Stream ordered shingles through the merging decider.

    Returns the uniquely decodable merged multiset plus the glued seams as
    (left_position, right_position) pairs over the input ordering.
    """
    decider = TokenDecider(l, delimiter, track_undo=True)
    ranges: list[tuple[int, int]] = []
    seams: list[tuple[int, int]] = []
    for pos, shingle in enumerate(ordered):
        outcome = decider.push_or_merge(shingle)
        if outcome.merges:
            pieces = ranges[-outcome.merges :]
            del ranges[-outcome.merges :]
            pieces.append((pos, pos))
            for (lo_a, hi_a), (lo_b, _hi_b) in zip(pieces, pieces[1:]):
                assert hi_a + 1 == lo_b
                seams.append((hi_a, lo_b))
            ranges.append((pieces[0][0], pos))
        else:
            ranges.append((pos, pos))
    ms = ShingleMultiset(Counter(decider.labels()), base_len=l)
    return ms, seams


def seams_to_records(
    ordered: list[str], seams: list[tuple[int, int]], offsets: dict[str, int]
) -> list[MergeRecord]:
    """Convert position seams to canonical instance-index records.

    `offsets` is `ShingleMultiset.offsets()` of the multiset of `ordered`:
    the canonical index of the occ-th occurrence of shingle s is
    offsets[s] + occ - 1, the position of (s, occ) in `instances()`.
    """
    next_index = dict(offsets)
    # stream order meets the occurrences of each shingle in order 1, 2, ...
    index = []
    for s in ordered:
        index.append(next_index[s])
        next_index[s] += 1
    return [
        MergeRecord(atom_index=index[right], anchor_index=index[left])
        for left, right in seams
    ]


def apply_merge_records(
    ms: ShingleMultiset, records: list[MergeRecord], l: int
) -> ShingleMultiset:
    """Rebuild a merged multiset from an initial multiset plus seam records.

    Each record glues two instances left-to-right; gluing chains are folded
    with the non-overlapping concatenation.
    """
    instances = ms.instances()
    successor: dict[int, int] = {}
    has_pred: set[int] = set()
    for rec in records:
        if not (0 <= rec.anchor_index < len(instances) and 0 <= rec.atom_index < len(instances)):
            raise ProtocolError("merge record index out of range")
        if rec.anchor_index in successor or rec.atom_index in has_pred:
            raise ProtocolError("conflicting merge records")
        successor[rec.anchor_index] = rec.atom_index
        has_pred.add(rec.atom_index)
    merged: Counter = Counter()
    covered = 0
    consumed: set[int] = set()
    for idx in range(len(instances)):
        if idx in has_pred or idx in consumed or idx not in successor:
            continue
        chain = [idx]
        cur = idx
        while cur in successor:
            cur = successor[cur]
            if cur in consumed or len(chain) > len(instances):
                raise ProtocolError("merge records form a cycle")
            chain.append(cur)
        consumed.update(chain)
        covered += len(chain)
        merged[fold([instances[i][0] for i in chain], l)] += 1
    for idx, (shingle, _occ) in enumerate(instances):
        if idx not in consumed and idx not in has_pred:
            merged[shingle] += 1
            covered += 1
    # a pure record cycle has no chain head, leaving its instances uncovered
    if covered != len(instances):
        raise ProtocolError("merge records form a cycle")
    return ShingleMultiset(merged, base_len=l)


# ---------------------------------------------------------------------------
# wire payload codecs


def _pack_block(values: list[int], bits: int) -> bytes:
    """Big-endian bit packing of `bits`-wide values, zero-padded to a byte.

    `acc` is cut back to its `nbits` unemitted bits after each value, so every
    shift works on a few machine words whatever the length of the output.
    """
    acc = 0
    nbits = 0
    out = bytearray()
    for v in values:
        acc = (acc << bits) | v
        nbits += bits
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
        acc &= (1 << nbits) - 1
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def _unpack_block(data: bytes, bits: int, count: int, what: str) -> list[int]:
    """Inverse of `_pack_block`: `count` values that fill `data` exactly.

    The length is checked before anything is read, so a count the peer chose
    cannot drive the loop; the padding bits must be zero.
    """
    if len(data) != (count * bits + 7) // 8:
        raise ProtocolError(f"{what} block holds {len(data)} bytes, not {count} values of {bits} bits")
    acc = 0
    nbits = 0
    out = []
    it = iter(data)
    for _ in range(count):
        while nbits < bits:
            acc = (acc << 8) | next(it)
            nbits += 8
        nbits -= bits
        out.append(acc >> nbits)
        acc &= (1 << nbits) - 1
    if acc:
        raise ProtocolError(f"{what} block has nonzero padding bits")
    return out


def _unpack_residues(data: bytes, count: int, what: str) -> list[int]:
    """`count` residues mod P61, packed `VALUE_BITS` wide; any entry of P61 or
    more is no residue."""
    values = _unpack_block(data, VALUE_BITS, count, what)
    if values and max(values) >= P61:
        raise ProtocolError(f"{what} block holds a value of P61 or more")
    return values


# the session parameters in a hello: l, mode (0 fixed, 1 rateless), m_hat, k, seed
_CONFIG = struct.Struct(">IBIHQ")


def encode_hello(config: ReconConfig, word_len: int, symbols: str) -> bytes:
    """`version:u8`, the parameters the peer must adopt, the word's length and
    its observed symbols as `count:u32be` UTF-8 bytes."""
    sym = symbols.encode("utf-8")
    mode = 0 if config.mode == MODE_FIXED else 1
    return (
        struct.pack(">B", PROTOCOL_VERSION)
        + _CONFIG.pack(config.l, mode, config.m_hat, config.k, config.seed)
        + struct.pack(">QI", word_len, len(sym))
        + sym
    )


def decode_hello(payload: bytes) -> tuple[ReconConfig, int, str]:
    head = 1 + _CONFIG.size + 12  # version, config, word length, symbol bytes
    if len(payload) < head:
        raise ProtocolError("short hello frame")
    if payload[0] != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {payload[0]}")
    l, mode, m_hat, k, seed = _CONFIG.unpack_from(payload, 1)
    word_len, sym_len = struct.unpack_from(">QI", payload, 1 + _CONFIG.size)
    if len(payload) != head + sym_len:
        raise ProtocolError("hello frame length mismatch")
    try:
        sym = payload[head:].decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError("hello symbol field is not valid UTF-8") from None
    if mode not in (0, 1):
        raise ProtocolError(f"hello mode byte {mode} is neither 0 (fixed) nor 1 (rateless)")
    try:
        config = ReconConfig(l=l, mode=MODE_FIXED if mode == 0 else MODE_RATELESS, m_hat=m_hat, k=k, seed=seed)
    except InvalidParameterError as exc:
        raise ProtocolError(f"bad hello: {exc}") from None
    return config, word_len, sym


def encode_bundle(bundle: EvalBundle, *, bucket_sizes: list[int]) -> bytes:
    """One `u32be` instance count per bucket, whose sum is the bundle's set
    size, then the values; the peer derives the points from the seed and
    their number from the hello.

    `bucket_sizes` is keyword-only: perfbench/tracing.py counts the bundle's
    pairs from the one positional argument.
    """
    return _pack_block(bucket_sizes, 32) + _pack_block(list(bundle.values), VALUE_BITS)


def decode_bundle(payload: bytes, buckets: int, count: int) -> tuple[list[int], list[int]]:
    """(bucket sizes, values) of a bundle frame holding `count` values."""
    head = 4 * buckets
    return _unpack_block(payload[:head], 32, buckets, "bundle"), _unpack_residues(payload[head:], count, "bundle")


def encode_request(counts: list[int]) -> bytes:
    """One `count:u16be` per bucket: the values it asks for this round, 0 once it is done."""
    return _pack_block(counts, 16)


def decode_request(payload: bytes, buckets: int) -> list[int]:
    return _unpack_block(payload, 16, buckets, "pair request")


def encode_pairs(pairs: list[tuple[int, int]]) -> bytes:
    """The values of (point, value) pairs; the peer derives the points from
    the seed and their number from its own request."""
    return _pack_block([value for _point, value in pairs], VALUE_BITS)


def decode_pairs(payload: bytes, count: int) -> list[int]:
    return _unpack_residues(payload, count, "pair")


def encode_handoff(sender_only: list[int], polys: list[list[int]]) -> bytes:
    """The responder's DELTA: `1 + B` counts as `u32be`, then one block with
    its own difference instances (the roots its decoders found) and, per
    bucket, the little-endian coefficients of the monic polynomial whose
    roots are the initiator's instances in that bucket, the leading 1 left
    out."""
    blocks = [sender_only] + [poly[:-1] for poly in polys]
    values = [value for block in blocks for value in block]
    return _pack_block([len(block) for block in blocks], 32) + _pack_block(values, VALUE_BITS)


def decode_handoff(payload: bytes, buckets: int) -> tuple[list[int], list[list[int]]]:
    head = 4 * (1 + buckets)
    counts = _unpack_block(payload[:head], 32, 1 + buckets, "delta")
    values = iter(_unpack_residues(payload[head:], sum(counts), "delta"))
    sender_only, *coefficients = [list(itertools.islice(values, count)) for count in counts]
    return sender_only, [block + [1] for block in coefficients]


def encode_roots(roots: list[int]) -> bytes:
    """The initiator's DELTA: the hand-off polynomials' roots among its
    instances, as many as their degrees sum to."""
    return _pack_block(roots, VALUE_BITS)


def decode_roots(payload: bytes, count: int) -> list[int]:
    return _unpack_residues(payload, count, "delta")


def encode_merges(records: list[MergeRecord], index_bits: int) -> bytes:
    """`count:u32be`, then the records' indices packed `index_bits` wide; the
    peer derives the width from the sender's instance count."""
    flat = [index for rec in records for index in (rec.atom_index, rec.anchor_index)]
    return _pack_block([len(records)], 32) + _pack_block(flat, index_bits)


def decode_merges(payload: bytes, index_bits: int) -> list[MergeRecord]:
    (count,) = _unpack_block(payload[:4], 32, 1, "merges")
    flat = iter(_unpack_block(payload[4:], index_bits, 2 * count, "merges"))
    return [MergeRecord(atom_index=atom, anchor_index=anchor) for atom, anchor in zip(flat, flat)]


def _index_bits(n_instances: int) -> int:
    """The merge index width for a word with `n_instances` shingle instances."""
    return max(1, (max(n_instances - 1, 1)).bit_length())


def _digest(word: str) -> bytes:
    return hashlib.sha256(word.encode("utf-8")).digest()[:8]


# ---------------------------------------------------------------------------
# the session


class _MeteredEndpoint:
    """Tags every frame's bits with the protocol step that produced it."""

    def __init__(self, endpoint: Endpoint, report: SessionReport):
        self.endpoint = endpoint
        self.report = report
        self.step = "hello"

    def send(self, kind: FrameKind, payload: bytes = b"") -> None:
        before = self.endpoint.bits_sent()
        self.endpoint.send(Frame(kind, payload))
        self.report.bits.setdefault(self.step, [0, 0])[0] += self.endpoint.bits_sent() - before

    def recv(self) -> Frame:
        before = self.endpoint.bits_received()
        frame = self.endpoint.recv()
        self.report.bits.setdefault(self.step, [0, 0])[1] += self.endpoint.bits_received() - before
        if frame.kind == FrameKind.ABORT:
            raise SessionAbortError(frame.payload.decode("utf-8", "replace"))
        return frame

    def expect(self, kind: FrameKind) -> Frame:
        frame = self.recv()
        if frame.kind != kind:
            raise ProtocolError(f"expected {kind.name}, got {frame.kind.name}")
        return frame


ROLE_INITIATOR = "initiator"
ROLE_RESPONDER = "responder"


def run_protocol(
    word: str,
    endpoint: Endpoint,
    role: str,
    config: ReconConfig,
    alpha: int | None = None,
) -> tuple[str, SessionReport]:
    """Run one full reconciliation session; returns the remote word and report.

    Both endpoints call this with their own word and role.  The initiator's
    configuration wins the hello negotiation; the responder adopts it.
    """
    if role not in (ROLE_INITIATOR, ROLE_RESPONDER):
        raise InvalidParameterError(f"unknown role {role!r}")
    report = SessionReport(role=role, alpha=alpha)
    wire = _MeteredEndpoint(endpoint, report)
    try:
        return _run(word, wire, role, config, report), report
    except BaseException as exc:
        if report.outcome == "incomplete":
            report.outcome = f"error:{type(exc).__name__}"
        try:
            if not isinstance(exc, (SessionAbortError, ProtocolError)):
                endpoint.send(Frame(FrameKind.ABORT, str(exc).encode("utf-8")))
        except Exception:
            pass
        raise


def _run(
    word: str,
    wire: _MeteredEndpoint,
    role: str,
    config: ReconConfig,
    report: SessionReport,
) -> str:
    validate_word(word, config.delimiter)
    symbols = "".join(sorted(set(word)))
    if role == ROLE_INITIATOR:
        wire.send(FrameKind.HELLO, encode_hello(config, len(word), symbols))
        peer_cfg, n_remote, peer_syms = decode_hello(wire.expect(FrameKind.HELLO).payload)
        if peer_cfg != config:
            raise SessionAbortError("peer did not adopt the offered parameters")
    else:
        config, n_remote, peer_syms = decode_hello(wire.expect(FrameKind.HELLO).payload)
        wire.send(FrameKind.HELLO, encode_hello(config, len(word), symbols))

    report.l = config.l
    report.mode = config.mode
    report.n_local = len(word)
    report.n_remote = n_remote

    alphabet = Alphabet(sorted(set(word) | set(peer_syms)), delimiter=config.delimiter)
    codec = ShingleCodec(alphabet, FIELD)
    # before shingling: a peer may announce any l below 2**32, and shingling
    # builds |w| + l - 1 windows of length l
    if config.l > codec.max_shingle_len:
        raise ProtocolError(
            f"l = {config.l} exceeds {codec.max_shingle_len}, the longest shingle "
            "the encoding range holds"
        )

    # step 1: shingle locally
    ordered = shingle_sequence(word, config.l, config.delimiter)
    local_ms = ShingleMultiset(Counter(ordered), base_len=config.l)

    # step 2: reconcile the multisets
    wire.step = "step2"
    remote_instances = n_remote + config.l - 1
    buckets = step2_buckets(config.mode, local_ms.total(), remote_instances)
    only_local, only_remote = _reconcile_step(
        wire, role, config, codec, local_ms, remote_instances, buckets, report
    )
    remote_initial = local_ms.difference(only_local).union(only_remote)

    # steps 3-4: merge to unique decodability (local work only)
    merged_ms, seams = merge_until_ud(ordered, config.l, config.delimiter)
    records = seams_to_records(ordered, seams, local_ms.offsets())
    report.merges_local = len(records)
    # each record glues two instances into one; checked before it is shipped
    if merged_ms.total() != local_ms.total() - len(records):
        raise InvariantError(
            f"merged multiset holds {merged_ms.total()} instances, "
            f"expected {local_ms.total()} - {len(records)} merges"
        )

    # step 5: exchange merge seams
    wire.step = "step5"
    merges_payload = encode_merges(records, _index_bits(local_ms.total()))
    remote_bits = _index_bits(remote_instances)
    if role == ROLE_INITIATOR:
        wire.send(FrameKind.MERGES, merges_payload)
        remote_records = decode_merges(wire.expect(FrameKind.MERGES).payload, remote_bits)
    else:
        remote_records = decode_merges(wire.expect(FrameKind.MERGES).payload, remote_bits)
        wire.send(FrameKind.MERGES, merges_payload)
    report.merges_remote = len(remote_records)

    # step 6: rebuild and uniquely decode the remote string
    remote_merged = apply_merge_records(remote_initial, remote_records, config.l)
    remote_word = DeBruijnGraph.build(remote_merged, config.l, config.delimiter).decode_unique()

    wire.step = "done"
    if role == ROLE_INITIATOR:
        wire.send(FrameKind.DONE, _digest(remote_word))
        peer_digest = wire.expect(FrameKind.DONE).payload
    else:
        peer_digest = wire.expect(FrameKind.DONE).payload
        wire.send(FrameKind.DONE, _digest(remote_word))
    if peer_digest != _digest(word):
        report.outcome = "digest-mismatch"
        raise ProtocolError("peer recovered a different string")
    report.outcome = "ok"
    return remote_word


def step2_buckets(mode: str, local_instances: int, remote_instances: int) -> int:
    """How many hash buckets step 2 splits the instances into.

    Partitioned reconciliation (Minsky & Trachtenberg, "Practical set
    reconciliation", Allerton 2002) runs one decoder per bucket, so a point
    costs about n/B work per side instead of n, and root search scans only
    the bucket's own elements.  Each bucket pays k verification values and a
    few framing bits, so B grows only as the square root of the instance
    count: in rateless mode B is the largest power of two with
    16 * B**2 <= min(local, remote instances), which is 16 at 4096 instances,
    32 at 16384 and 1 below 64.  Both parties know both counts from the
    hellos, so B never crosses the wire.

    Fixed mode keeps B = 1, because `m_hat` bounds the whole difference and
    not each bucket's share of it.  A one-shot bound per bucket would need a
    tail margin of about m_hat/B + 5 * sqrt(m_hat/B) values in every bucket:
    at m_hat = 256 and B = 16 that is about 704 values against 264, some 17%
    more bits on a 4096-symbol session.
    """
    buckets = 1
    if mode == MODE_RATELESS:
        while 16 * (2 * buckets) ** 2 <= min(local_instances, remote_instances):
            buckets *= 2
    return buckets


def _reconcile_step(
    wire: _MeteredEndpoint,
    role: str,
    config: ReconConfig,
    codec: ShingleCodec,
    local_ms: ShingleMultiset,
    remote_instances: int,
    buckets: int,
    report: SessionReport,
) -> tuple[ShingleMultiset, ShingleMultiset]:
    """Step 2, one flow for both modes; returns the (local, remote) instances
    that are on one side only.

    Both parties hash their encoded instances into `buckets` buckets, and
    each bucket runs its own source (initiator) or decoder (responder) over
    the session's one point stream, whose points go to the buckets in bucket
    order.  The initiator sends characteristic values: the first m_hat + k
    per bucket in its bundle in fixed mode (where B = 1), none there in
    rateless mode and then whatever the responder requests, one DELTA_REQ
    holding a count for every bucket.  The responder feeds each bucket's
    decoder until it holds a verified difference, whose local roots it finds
    among its own elements.  It sends those roots and hands the rest over as
    one polynomial per bucket, whose roots the initiator finds among that
    bucket's elements.
    """
    fixed = config.mode == MODE_FIXED
    first = config.m_hat + config.k if fixed else 0
    points = PointStream(codec.field, config.seed)
    parts = partition(codec.encode_multiset(local_ms), buckets, config.seed)
    report.step2_buckets = buckets
    if role == ROLE_INITIATOR:
        sources = [RatelessSource.from_elements(part, codec, points) for part in parts]
        sizes = [len(part) for part in parts]
        # no bucket's true difference needs more pairs than its own instances,
        # every remote instance and k; no session's more than both totals and B * k
        bucket_budget = [size + remote_instances + config.k for size in sizes]
        budget = sum(sizes) + remote_instances + buckets * config.k
        served = [first] * buckets
        pairs = [pair for source in sources for pair in source.next_pairs(first)]
        bundle = EvalBundle(tuple(z for z, _ in pairs), tuple(v for _, v in pairs), sum(sizes))
        wire.send(FrameKind.EVAL_BUNDLE, encode_bundle(bundle, bucket_sizes=sizes))
        report.step2_pairs = len(pairs)
        while (frame := wire.recv()).kind != FrameKind.DELTA:
            if frame.kind != FrameKind.DELTA_REQ or fixed:
                raise ProtocolError(f"unexpected frame {frame.kind.name} during {config.mode} step 2")
            counts = decode_request(frame.payload, buckets)
            if not any(counts):
                raise ProtocolError("pair request asks for no values")
            for b, count in enumerate(counts):
                if served[b] + count > bucket_budget[b]:
                    raise ProtocolError(
                        f"pair request for {count} in bucket {b} after {served[b]} "
                        f"exceeds its budget of {bucket_budget[b]}"
                    )
            if report.step2_pairs + sum(counts) > budget:
                raise ProtocolError(
                    f"pair request for {sum(counts)} after {report.step2_pairs} "
                    f"exceeds the budget of {budget}"
                )
            pairs = [pair for source, count in zip(sources, counts) for pair in source.next_pairs(count)]
            wire.send(FrameKind.EVAL_PAIR, encode_pairs(pairs))
            served = [s + count for s, count in zip(served, counts)]
            report.step2_pairs += len(pairs)
            report.step2_rounds += 1
        remote_only, polys = decode_handoff(frame.payload, buckets)
        # the whole hand-off is checked before the reply goes out
        only_remote = _decode_instances(codec, remote_only)
        my_roots: list[int] = []
        for b, (poly, part) in enumerate(zip(polys, parts)):
            roots = roots_by_candidates(poly, part, codec.field.p)
            if roots is None:
                raise ProtocolError(f"hand-off polynomial of bucket {b} does not split over its local elements")
            my_roots += roots
        wire.send(FrameKind.DELTA, encode_roots(my_roots))
        return codec.decode_multiset(my_roots), only_remote

    sizes, values = decode_bundle(wire.expect(FrameKind.EVAL_BUNDLE).payload, buckets, first * buckets)
    if sum(sizes) != remote_instances:
        raise ProtocolError(
            f"bundle bucket sizes sum to {sum(sizes)}, not the {remote_instances} "
            "instances of the announced word"
        )
    report.step2_pairs = len(values)
    decoders = [
        RatelessDecoder.from_elements(part, codec, size, k=config.k)
        for part, size in zip(parts, sizes)
    ]
    counts = [first] * buckets
    while True:
        offset = 0
        for decoder, count in zip(decoders, counts):
            # every value takes the next point in bucket order, fed or not,
            # so both parties stay on the same points
            batch = zip(points.take(count), values[offset : offset + count])
            offset += count
            decoder.feed_all(batch)
        if all(decoder.result is not None for decoder in decoders):
            break
        if fixed:
            raise BoundExceededError(
                f"needs-larger-bound: no verified difference within the {first} bundled values"
            )
        counts = [0 if d.result is not None else min(d.pairs_wanted(), MAX_REQUEST) for d in decoders]
        wire.send(FrameKind.DELTA_REQ, encode_request(counts))
        report.step2_rounds += 1
        values = decode_pairs(wire.expect(FrameKind.EVAL_PAIR).payload, sum(counts))
        report.step2_pairs += len(values)
    only_local = ShingleMultiset()
    for decoder in decoders:
        only_local = only_local.union(decoder.result.only_local)
    local_roots = [root for decoder in decoders for root in decoder.result.local_roots]
    polys = [list(decoder.result.remote_poly) for decoder in decoders]
    wire.send(FrameKind.DELTA, encode_handoff(local_roots, polys))
    remote_elems = decode_roots(wire.expect(FrameKind.DELTA).payload, sum(len(poly) - 1 for poly in polys))
    return only_local, _decode_instances(codec, remote_elems)


def _decode_instances(codec: ShingleCodec, elements: list[int]) -> ShingleMultiset:
    """The shingles of instances the peer sent; a malformed one is the peer's fault."""
    try:
        return codec.decode_multiset(elements)
    except InvalidParameterError as exc:
        raise ProtocolError(f"peer sent a malformed instance: {exc}") from None


def random_edits(word: str, alpha: int, rng: random.Random, symbols: str) -> str:
    """Apply `alpha` uniform random single-character insertions/deletions."""
    chars = list(word)
    for _ in range(alpha):
        if chars and rng.random() < 0.5:
            del chars[rng.randrange(len(chars))]
        else:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(symbols))
    return "".join(chars)
