"""End-to-end string reconciliation over a framed transport.

Session outline: exchange hello frames (parameters, lengths, observed
symbols), reconcile the two initial shingle multisets (one pre-sized bundle
of characteristic values in fixed mode, values streamed on request in
rateless mode), merge each side's ordered shingling to unique
decodability, exchange merge seams as canonical instance-index pairs, rebuild
and uniquely decode the remote multiset, then confirm with digests.  Only the
multiset reconciliation and the merge exchange carry data proportional to the
difference; everything else is constant-size framing.
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections import Counter
from dataclasses import dataclass, field as dc_field

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
    DEFAULT_OCC_BITS,
    Delta,
    EvalBundle,
    RatelessDecoder,
    RatelessSource,
    ShingleCodec,
    reconcile_fixed,
    roots_by_candidates,
)
from .shingles import ShingleMultiset, fold, shingle_sequence
from .transport import Endpoint, Frame, FrameKind

PROTOCOL_VERSION = 2

MODE_FIXED = "fixed"
MODE_RATELESS = "rateless"


@dataclass(frozen=True)
class ReconConfig:
    """Parameters one session runs under; the initiator's copy wins."""

    l: int
    mode: str = MODE_RATELESS
    m_hat: int = 64
    k: int = 8
    seed: int = 1
    occ_bits: int = DEFAULT_OCC_BITS
    prime: int = P61
    point_span: int = 1 << 40
    delimiter: str = DEFAULT_DELIMITER

    def __post_init__(self):
        if self.l < 2:
            raise InvalidParameterError("l must be >= 2")
        if self.mode not in (MODE_FIXED, MODE_RATELESS):
            raise InvalidParameterError(f"unknown mode {self.mode!r}")

    def field_spec(self) -> FieldSpec:
        return FieldSpec(self.prime, self.point_span)


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


def seams_to_records(ordered: list[str], seams: list[tuple[int, int]]) -> list[MergeRecord]:
    """Convert position seams to canonical instance-index records.

    The canonical index of the occ-th occurrence of shingle s is the number of
    instances sorted before s (by UTF-8 bytes) plus occ - 1, the position of
    (s, occ) in `ShingleMultiset.instances()`.
    """
    counts = Counter(ordered)
    next_index: dict[str, int] = {}
    running = 0
    for s in sorted(counts, key=lambda x: x.encode("utf-8")):
        next_index[s] = running
        running += counts[s]
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


def _pack_indices(values: list[int], bits: int) -> bytes:
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


def _unpack_indices(data: bytes, bits: int, count: int) -> list[int]:
    """Inverse of `_pack_indices`: the first `count` values of the block."""
    acc = 0
    nbits = 0
    out = []
    it = iter(data)
    for _ in range(count):
        while nbits < bits:
            try:
                acc = (acc << 8) | next(it)
            except StopIteration:
                raise ProtocolError("truncated merge index block") from None
            nbits += 8
        nbits -= bits
        out.append(acc >> nbits)
        acc &= (1 << nbits) - 1
    return out


def encode_hello(config: ReconConfig, role: int, word_len: int, symbols: str) -> bytes:
    sym = symbols.encode("utf-8")
    return (
        struct.pack(
            ">BBIBIHBQQQQ",
            PROTOCOL_VERSION,
            role,
            config.l,
            0 if config.mode == MODE_FIXED else 1,
            config.m_hat,
            config.k,
            config.occ_bits,
            config.seed,
            config.prime,
            config.point_span,
            word_len,
        )
        + struct.pack(">I", len(sym))
        + sym
    )


def decode_hello(payload: bytes) -> tuple[ReconConfig, int, int, str]:
    head = struct.Struct(">BBIBIHBQQQQ")
    if len(payload) < head.size + 4:
        raise ProtocolError("short hello frame")
    version, role, l, mode, m_hat, k, occ_bits, seed, prime, span, word_len = head.unpack_from(payload)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    (sym_len,) = struct.unpack_from(">I", payload, head.size)
    if len(payload) != head.size + 4 + sym_len:
        raise ProtocolError("hello frame length mismatch")
    sym = payload[head.size + 4 :].decode("utf-8")
    config = ReconConfig(
        l=l,
        mode=MODE_FIXED if mode == 0 else MODE_RATELESS,
        m_hat=m_hat,
        k=k,
        seed=seed,
        occ_bits=occ_bits,
        prime=prime,
        point_span=span,
    )
    return config, role, word_len, sym


def _pack_values(values: list[int]) -> bytes:
    """One value block: `count:u32be` then `count` 8-byte big-endian values."""
    return struct.pack(f">I{len(values)}Q", len(values), *values)


def _unpack_values(payload: bytes, blocks: int, what: str, offset: int = 0) -> list[list[int]]:
    """`blocks` consecutive value blocks from `offset`, which must fill the payload exactly."""
    out = []
    for _ in range(blocks):
        if len(payload) < offset + 4:
            raise ProtocolError(f"short {what} frame")
        (count,) = struct.unpack_from(">I", payload, offset)
        offset += 4
        if len(payload) < offset + 8 * count:
            raise ProtocolError(f"{what} frame length mismatch")
        out.append(list(struct.unpack_from(f">{count}Q", payload, offset)))
        offset += 8 * count
    if offset != len(payload):
        raise ProtocolError(f"{what} frame length mismatch")
    return out


def encode_bundle(bundle: EvalBundle) -> bytes:
    """`set_size:u64be` then the values; the peer derives the points from the seed."""
    return struct.pack(">Q", bundle.set_size) + _pack_values(list(bundle.values))


def decode_bundle(payload: bytes) -> tuple[int, list[int]]:
    """(set size, values) of a bundle frame."""
    if len(payload) < 8:
        raise ProtocolError("short bundle frame")
    (set_size,) = struct.unpack_from(">Q", payload)
    return set_size, _unpack_values(payload, 1, "bundle", offset=8)[0]


def encode_pairs(pairs: list[tuple[int, int]]) -> bytes:
    """The values of (point, value) pairs; the peer derives the points from the seed."""
    return _pack_values([value for _point, value in pairs])


def decode_pairs(payload: bytes) -> list[int]:
    return _unpack_values(payload, 1, "pair")[0]


def encode_handoff(sender_only: list[int], poly: list[int]) -> bytes:
    """The responder's DELTA: its own difference instances, then the polynomial
    (little-endian coefficients) whose roots are the initiator's."""
    return _pack_values(sender_only) + _pack_values(poly)


def decode_handoff(payload: bytes) -> tuple[list[int], list[int]]:
    sender_only, poly = _unpack_values(payload, 2, "delta")
    return sender_only, poly


def encode_roots(roots: list[int]) -> bytes:
    """The initiator's DELTA: the hand-off polynomial's roots among its instances."""
    return _pack_values(roots)


def decode_roots(payload: bytes) -> list[int]:
    return _unpack_values(payload, 1, "delta")[0]


def encode_merges(records: list[MergeRecord], index_bits: int) -> bytes:
    flat: list[int] = []
    for rec in records:
        flat.append(rec.atom_index)
        flat.append(rec.anchor_index)
    return struct.pack(">IB", len(records), index_bits) + _pack_indices(flat, index_bits)


def decode_merges(payload: bytes) -> list[MergeRecord]:
    if len(payload) < 5:
        raise ProtocolError("short merges frame")
    count, bits = struct.unpack_from(">IB", payload)
    if not 1 <= bits <= 32:
        raise ProtocolError("bad merge index width")
    # checked before unpacking, so a peer-chosen count cannot drive the loop
    if len(payload) != 5 + (2 * count * bits + 7) // 8:
        raise ProtocolError("merges frame length mismatch")
    flat = _unpack_indices(payload[5:], bits, 2 * count)
    return [MergeRecord(atom_index=flat[2 * i], anchor_index=flat[2 * i + 1]) for i in range(count)]


def _index_bits(n_instances: int) -> int:
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
    my_hello = encode_hello(
        config, 0 if role == ROLE_INITIATOR else 1, len(word), "".join(sorted(set(word)))
    )
    if role == ROLE_INITIATOR:
        wire.send(FrameKind.HELLO, my_hello)
        peer_cfg, _peer_role, n_remote, peer_syms = decode_hello(wire.expect(FrameKind.HELLO).payload)
        if (peer_cfg.l, peer_cfg.mode, peer_cfg.m_hat, peer_cfg.k, peer_cfg.seed,
                peer_cfg.occ_bits, peer_cfg.prime, peer_cfg.point_span) != (
                config.l, config.mode, config.m_hat, config.k, config.seed,
                config.occ_bits, config.prime, config.point_span):
            raise SessionAbortError("peer did not adopt the offered parameters")
    else:
        peer_cfg, _peer_role, n_remote, peer_syms = decode_hello(wire.expect(FrameKind.HELLO).payload)
        config = ReconConfig(
            l=peer_cfg.l,
            mode=peer_cfg.mode,
            m_hat=peer_cfg.m_hat,
            k=peer_cfg.k,
            seed=peer_cfg.seed,
            occ_bits=peer_cfg.occ_bits,
            prime=peer_cfg.prime,
            point_span=peer_cfg.point_span,
            delimiter=config.delimiter,
        )
        my_hello = encode_hello(config, 1, len(word), "".join(sorted(set(word))))
        wire.send(FrameKind.HELLO, my_hello)

    report.l = config.l
    report.mode = config.mode
    report.n_local = len(word)
    report.n_remote = n_remote

    alphabet = Alphabet(sorted(set(word) | set(peer_syms)), delimiter=config.delimiter)
    field = config.field_spec()
    codec = ShingleCodec(alphabet, field, config.occ_bits)
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
    delta = _reconcile_step(wire, role, config, codec, local_ms, n_remote + config.l - 1, report)
    remote_initial = local_ms.difference(delta.only_local).union(delta.only_remote)

    # steps 3-4: merge to unique decodability (local work only)
    merged_ms, seams = merge_until_ud(ordered, config.l, config.delimiter)
    records = seams_to_records(ordered, seams)
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
    if role == ROLE_INITIATOR:
        wire.send(FrameKind.MERGES, merges_payload)
        remote_records = decode_merges(wire.expect(FrameKind.MERGES).payload)
    else:
        remote_records = decode_merges(wire.expect(FrameKind.MERGES).payload)
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


def _reconcile_step(
    wire: _MeteredEndpoint,
    role: str,
    config: ReconConfig,
    codec: ShingleCodec,
    local_ms: ShingleMultiset,
    remote_instances: int,
    report: SessionReport,
) -> Delta:
    """Step 2, one flow for both modes.

    The initiator sends characteristic values at the shared seed's points:
    the first m_hat + k + 1 in its bundle in fixed mode, none there in
    rateless mode and then whatever the responder requests.  The responder
    feeds them to its decoder until a verified difference emerges, pulls out
    its own side's instances and hands the rest over as a polynomial whose
    roots the initiator finds among its own elements.
    """
    fixed = config.mode == MODE_FIXED
    first = config.m_hat + config.k + 1 if fixed else 0
    if role == ROLE_INITIATOR:
        source = RatelessSource(local_ms, codec, config.seed)
        # no true difference needs more pairs than both multisets plus k
        budget = source.set_size + remote_instances + config.k
        pairs = source.next_pairs(first)
        bundle = EvalBundle(tuple(z for z, _ in pairs), tuple(v for _, v in pairs), source.set_size)
        wire.send(FrameKind.EVAL_BUNDLE, encode_bundle(bundle))
        report.step2_pairs = first
        while (frame := wire.recv()).kind != FrameKind.DELTA:
            if frame.kind != FrameKind.DELTA_REQ or fixed:
                raise ProtocolError(f"unexpected frame {frame.kind.name} during {config.mode} step 2")
            if len(frame.payload) != 4:
                raise ProtocolError("pair request frame length mismatch")
            (count,) = struct.unpack(">I", frame.payload)
            if not 1 <= count <= budget - report.step2_pairs:
                raise ProtocolError(
                    f"pair request for {count} after {report.step2_pairs} "
                    f"exceeds the budget of {budget}"
                )
            wire.send(FrameKind.EVAL_PAIR, encode_pairs(source.next_pairs(count)))
            report.step2_pairs += count
        remote_only, poly = decode_handoff(frame.payload)
        my_roots = roots_by_candidates(poly, source.elements, codec.field.p)
        if my_roots is None:
            raise SessionAbortError("hand-off polynomial does not split over local elements")
        wire.send(FrameKind.DELTA, encode_roots(my_roots))
        return Delta(
            only_local=codec.decode_multiset(my_roots),
            only_remote=codec.decode_multiset(remote_only),
        )

    set_size, values = decode_bundle(wire.expect(FrameKind.EVAL_BUNDLE).payload)
    if set_size != remote_instances:
        raise ProtocolError(
            f"bundle set size {set_size} does not match the {remote_instances} "
            "instances of the announced word"
        )
    if len(values) != first:
        raise ProtocolError(f"bundle holds {len(values)} values, expected {first}")
    report.step2_pairs = first
    decoder = RatelessDecoder(local_ms, codec, set_size, k=config.k, partial=True)
    points = PointStream(codec.field, config.seed)
    # each value meets its point only when fed, so no point is drawn past the result
    while (partial := decoder.feed_all((points.take(1)[0], v) for v in values)) is None:
        if fixed:
            raise BoundExceededError(
                f"needs-larger-bound: no verified difference within the {first} bundled values"
            )
        wanted = decoder.pairs_wanted()
        wire.send(FrameKind.DELTA_REQ, struct.pack(">I", wanted))
        values = decode_pairs(wire.expect(FrameKind.EVAL_PAIR).payload)
        if len(values) != wanted:
            raise ProtocolError(f"asked for {wanted} pairs, got {len(values)}")
        report.step2_pairs += wanted
    local_elems = [codec.encode(s, occ) for s, occ in partial.only_local.instances()]
    wire.send(FrameKind.DELTA, encode_handoff(local_elems, list(partial.remote_poly)))
    remote_elems = decode_roots(wire.expect(FrameKind.DELTA).payload)
    return Delta(
        only_local=partial.only_local,
        only_remote=codec.decode_multiset(remote_elems),
    )


def random_edits(word: str, alpha: int, rng: random.Random, symbols: str) -> str:
    """Apply `alpha` uniform random single-character insertions/deletions."""
    chars = list(word)
    for _ in range(alpha):
        if chars and rng.random() < 0.5:
            del chars[rng.randrange(len(chars))]
        else:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(symbols))
    return "".join(chars)
