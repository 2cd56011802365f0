"""End-to-end string reconciliation over a framed transport.

Session outline: exchange hello frames (parameters, lengths, observed
symbols), take the wider of the two words' occurrence widths, which with
both words' instance counts and k sets the field, reconcile the two initial
shingle multisets bucket by bucket (in rateless mode as few buckets as the
responder's estimate of the difference, read off the bundle's bucket sizes,
allows; a first batch of characteristic values
pre-sized from the bound in fixed mode and empty in rateless mode, then
values on request until every bucket holds a candidate verified by one
value, then one session check of k whole-set values, which the first batch
carries, that verifies every bucket at once; a failed check reopens every
bucket for one more value, and at most k checks run), hand over the one-sided instances as runs of consecutive
windows, r windows as r + l - 1 symbols (the responder sends its own and
those of the initiator's that it finds by walking its own de Bruijn graph
from its runs, testing each step against the buckets' remote polynomials;
only what the walk misses crosses as polynomial coefficients, whose roots
the initiator answers with runs of its word),
merge each side's ordered shingling to unique decodability, exchange one
chain per merged label (its first shingle's index among the sender's
distinct keys, its glued count, and the rank of a glued shingle's last
character only at a branch point, where the receiver's walk over the
sender's multiset has two or more successors left), rebuild and uniquely
decode the remote multiset, then confirm with digests.  Steps 1 to 6 run on
integer positions of the padded word (`ShingledWord`): one-sided instances
are found by position or by key and cross as runs, merged labels are spans of
positions, chains slices of its keys, and the remote multiset a
`ShingleTable`; no instance is decoded from its field element.  Only the
multiset reconciliation, which grows with the difference, and the merge
exchange, which grows with the merged labels, carry more than constant-size
framing.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import operator
import random
import struct
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Callable, ClassVar, NamedTuple

from .alphabet import DEFAULT_DELIMITER, Alphabet, validate_word
from .debruijn import DeBruijnGraph
from .decider import merge_until_ud
from .errors import (
    BoundExceededError,
    EncodingCapacityError,
    InvalidParameterError,
    InvariantError,
    ProtocolError,
    SessionAbortError,
)
from .field import FieldSpec, PointStream, is_probable_prime, pdivmod, peval, poly_from_roots
# reconcile_fixed is unused here but stays importable from this module:
# perfbench/tracing.py rebinds it on it
from .setrecon import (  # noqa: F401
    DEFAULT_OCC_BITS,
    Delta,
    EvalBundle,
    RatelessDecoder,
    RatelessSource,
    ShingleCodec,
    bucket_of,
    partition,
    reconcile_fixed,
    roots_by_candidates,
)
# shingle_sequence is unused here but stays importable from this module:
# perfbench/tracing.py rebinds it on it
from .shingles import (  # noqa: F401
    ShingledWord,
    ShingleMultiset,
    ShingleTable,
    code_count,
    is_valid_shingle,
    shingle_sequence,
)
from .transport import Endpoint, Frame, FrameKind

PROTOCOL_VERSION = 17

# the field that caps a hello's l: P61 with points drawn from its top 2**40
# residues.  No session runs over it: each derives its own, no wider, from
# the hellos (`session_field`), and draws its points from the top residues of
# that field, a span no wider than 2**40 that the session check's bound sets
FIELD = FieldSpec.default61()

# the session check's target below `FIELD`'s span: a wrong difference passes
# k checks with probability at most 2**-CHECK_BITS (`session_field`)
CHECK_BITS = 64

MAX_REQUEST = 0xFFFF  # the most pairs one bucket asks for per round
# a DELTA_REQ's counts are packed at most this wide, the bit length of MAX_REQUEST
MAX_REQUEST_BITS = MAX_REQUEST.bit_length()

MODE_FIXED = "fixed"
MODE_RATELESS = "rateless"

# the largest session check, and the default: the responder evaluates its
# whole set at k points for each of at most k checks, so a hello's k sets up
# to k**2 whole-set passes of the responder's work
MAX_K = 8


# a session's elements: occurrence occ = 1..2**w of the shingle with
# `CodeSpace` code `code` is code * 2**w + occ for the session's occurrence
# width w, the wider of the two words' own (`word_occ_bits`), injective,
# never 0, and at most C * 2**w for the C = `code_count` codes of the
# session's symbols and l, below the encoding limit of the session's field
# (`session_field`)


def word_occ_bits(table: ShingleTable) -> int:
    """A word's own occurrence width: the bit length of its largest
    multiplicity less 1, so that occurrences 1..2**w number every instance
    of its most frequent shingle.  A multiplicity past the 2**16 occurrences
    of the `DEFAULT_OCC_BITS` with which P61 caps l raises
    EncodingCapacityError."""
    largest = max(table.counts.values(), default=1)
    if largest > 1 << DEFAULT_OCC_BITS:
        raise EncodingCapacityError(f"occurrence {(1 << DEFAULT_OCC_BITS) + 1} exceeds {DEFAULT_OCC_BITS} bits")
    return (largest - 1).bit_length()


def occ_bits_cap(instances: int) -> int:
    """The widest occurrence width a word of `instances` shingle instances
    can need: the bit length of `instances - 1`, so that 2**w reaches every
    instance, capped at the `DEFAULT_OCC_BITS` with which P61 caps l
    (`ShingleCodec.max_shingle_len`).  Both parties know it for both words
    from the hellos, and refuse a stated width past it."""
    return min(DEFAULT_OCC_BITS, (instances - 1).bit_length())


def session_field(symbols: int, l: int, occ_bits: int, instances: int, k: int) -> FieldSpec:
    """The field of a session at shingle length `l` over `symbols` symbols
    (those of both hellos) and occurrence width `occ_bits`, between words of
    `instances` shingle instances in all, with a session check of `k`
    values: the smallest prime above E + 2**s, for the largest element
    E = C * 2**occ_bits, C = `code_count(symbols, l)`, with its top 2**s
    residues the point range, so every element lies below the points.

    The span 2**s is the larger of two, capped at `FIELD`'s 2**40.  The
    first is the widest span that keeps E + 2**s below the next power of
    two, so it costs the field no width.  The second is the floor that the
    session check's bound needs: at (2 * instances).bit_length() +
    ceil(CHECK_BITS / k) bits, ((D* + D) / 2**s)**k <= 2**-CHECK_BITS
    (`_session_check`).  Both parties derive it from the hellos, k and the
    session's occurrence width.  The span is never above the cap and C never
    above (symbols + 1)**l, so the prime is never above the one protocol 14
    took for the keys at a 2**40 span, and at every l the cap allows
    (`ShingleCodec.max_shingle_len` over `FIELD`) and every width up to
    `DEFAULT_OCC_BITS`, the most a peer may state, it is at most P61."""
    top = code_count(symbols, l) << occ_bits
    free = ((1 << top.bit_length()) - top - 1).bit_length() - 1
    floor = (2 * instances).bit_length() + -(-CHECK_BITS // k)
    span = min(FIELD.point_span, 1 << max(free, floor))
    p = top + span + 1
    while not is_probable_prime(p):
        p += 1
    return FieldSpec(p, span)


def _element(code: int, occ: int, occ_bits: int) -> int:
    """The element of occurrence `occ` of the shingle with code `code`."""
    return (code << occ_bits) + occ


def _elements(word: ShingledWord, occ_bits: int) -> list[int]:
    """The elements of a word's instances, shingle after shingle in
    canonical order, each shingle's code read at its first position."""
    table = word.table
    order = table.order
    mults = list(map(table.counts.__getitem__, order))
    if mults and max(mults) > 1 << occ_bits:
        raise EncodingCapacityError(f"occurrence {(1 << occ_bits) + 1} exceeds {occ_bits} bits")
    codes = map(word.codes.__getitem__, map(table.where.__getitem__, order))
    starts = [(code << occ_bits) + 1 for code in codes]  # _element(code, 1, occ_bits)
    return list(itertools.chain.from_iterable(map(range, starts, map(operator.add, starts, mults))))


def _root_keys(word: ShingledWord, roots: list[int], occ_bits: int) -> Counter:
    """The instances of the word's own elements `roots`, counted by key: each
    root's code is looked up among the word's codes, not decoded."""
    wanted = Counter((root - 1) >> occ_bits for root in roots)
    codes, keys = word.codes, word.keys
    key_of = {codes[at]: keys[at] for at in itertools.compress(itertools.count(), map(wanted.__contains__, codes))}
    if len(key_of) != len(wanted):
        raise InvariantError(f"{len(wanted) - len(key_of)} of the roots are no element of the word")
    return Counter({key_of[code]: count for code, count in wanted.items()})


@dataclass(frozen=True)
class ReconConfig:
    """Parameters one session runs under; the initiator's copy wins.

    Only what sessions vary is a field.  Every session runs under the
    delimiter `DEFAULT_DELIMITER`, with l capped by the module constant
    `FIELD` (`FieldSpec.default61()`) at `DEFAULT_OCC_BITS` occurrence bits,
    and over a field both parties derive in step 2: the occurrence width,
    the wider of the two words' own (`word_occ_bits`), crosses in the
    responder's OCC_WIDTH frame and the initiator's bundle, and the prime
    and its point span follow from l, the symbols and word lengths of both
    hellos, k and that width (`session_field`).
    """

    l: int
    mode: str = MODE_RATELESS
    m_hat: int = 64
    k: int = MAX_K
    seed: int = 1
    delimiter: ClassVar[str] = DEFAULT_DELIMITER

    def __post_init__(self):
        # the bounds are the hello's field widths (`_CONFIG`), but for k's:
        # MAX_K, far inside its u16, bounds the responder's work
        if not 2 <= self.l < 2**32:
            raise InvalidParameterError("l must be in [2, 2**32)")
        if not 0 <= self.m_hat < 2**32:
            raise InvalidParameterError("m_hat must be in [0, 2**32)")
        if not 1 <= self.k <= MAX_K:
            raise InvalidParameterError(f"k must be in [1, {MAX_K}]")
        if not 0 <= self.seed < 2**64:
            raise InvalidParameterError("seed must be in [0, 2**64)")
        if self.mode not in (MODE_FIXED, MODE_RATELESS):
            raise InvalidParameterError(f"unknown mode {self.mode!r}")


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
    ranks_sent: int = 0  # ranks in the local MERGES frame: one per branch point its chains pass
    step2_pairs: int = 0  # evaluation values that crossed the wire in step 2
    # the buckets step 2 reconciled, B', and the fine buckets whose sizes
    # the bundle carries, B: B' = B in fixed mode, and in rateless mode the
    # responder's choice from its estimate (`coarse_shift`)
    step2_buckets: int = 0
    step2_fine_buckets: int = 0
    # the responder's lower bound on the difference, sum over the fine
    # buckets of |own size - the initiator's|; the initiator reads it off a
    # rateless session's first request, and reports 0 in fixed mode
    step2_estimate: int = 0
    step2_rounds: int = 0  # DELTA_REQ frames, one per round of requested values or session check
    step2_checks: int = 0  # session checks run: each is k whole-set values
    # bucket candidates the responder refused, those taken back after a
    # failed session check included; 0 on the initiator, which sees none
    step2_rejected: int = 0
    # the initiator's one-sided instances the responder's walk found; 0 on
    # the initiator, which walks nothing
    step2_walked: int = 0
    # the degree sum of the residual the walk left, which crosses as
    # coefficients and the initiator answers with runs; 0 on the walk route
    step2_residual: int = 0
    # the session's occurrence width w: an element is code * 2**w + occ
    occ_bits: int = 0
    # the bit length of the session's largest element, C * 2**w: beside
    # value_bits it shows whether the elements or the session check's
    # floor set the prime
    elem_bits: int = 0
    # the bit length of the session's prime, the width every residue crosses at
    value_bits: int = 0
    # both words at ceil(log2 |symbols|) bits a symbol (at least 1), over the
    # union of the symbols the two hellos announce: the cost of sending them
    # as they are
    raw_bits: int = 0
    longest_label: int = 0  # shingle positions in the longest local merged label
    alpha: int | None = None
    bits: dict[str, list[int]] = dc_field(default_factory=dict)
    # the same bits by frame kind (`FrameKind` name), [sent, received]
    frame_bits: dict[str, list[int]] = dc_field(default_factory=dict)

    def step_bits(self, step: str) -> tuple[int, int]:
        sent, received = self.bits.get(step, [0, 0])
        return sent, received

    def wire_ratio(self) -> float | None:
        """Bits sent plus bits received over `raw_bits`; None until the
        hellos have given `raw_bits`, or when both words are empty."""
        if not self.raw_bits:
            return None
        return sum(sent + received for sent, received in self.bits.values()) / self.raw_bits

    def figures(self) -> dict[str, object]:
        """Every figure of the report by name, in the order `to_text` prints
        them: the bits by step, then by frame kind, then in total; `alpha`
        and `wire_ratio` only when known."""
        out: dict[str, object] = {
            "role": self.role,
            "outcome": self.outcome,
            "mode": self.mode,
            "l": self.l,
            "n_local": self.n_local,
            "n_remote": self.n_remote,
        }
        if self.alpha is not None:
            out["alpha"] = self.alpha
        for name in (
            "merges_local",
            "merges_remote",
            "ranks_sent",
            "step2_pairs",
            "step2_buckets",
            "step2_fine_buckets",
            "step2_estimate",
            "step2_rounds",
            "step2_checks",
            "step2_rejected",
            "step2_walked",
            "step2_residual",
            "occ_bits",
            "elem_bits",
            "value_bits",
            "longest_label",
            "raw_bits",
        ):
            out[name] = getattr(self, name)
        for step in sorted(self.bits):
            out[f"{step}_bits_sent"], out[f"{step}_bits_recv"] = self.bits[step]
        for kind in sorted(self.frame_bits):
            name = kind.lower()
            out[f"{name}_frame_bits_sent"], out[f"{name}_frame_bits_recv"] = self.frame_bits[kind]
        out["total_bits_sent"] = sum(sent for sent, _ in self.bits.values())
        out["total_bits_recv"] = sum(received for _, received in self.bits.values())
        ratio = self.wire_ratio()
        if ratio is not None:
            out["wire_ratio"] = round(ratio, 4)
        return out

    def to_text(self) -> str:
        """One `name=value` line per figure."""
        return "".join(f"{name}={value}\n" for name, value in self.figures().items())

    def to_json(self) -> str:
        """The figures of `to_text` as one JSON object on one line."""
        return json.dumps(self.figures())


# ---------------------------------------------------------------------------
# merge bookkeeping


class MergeChains(NamedTuple):
    """The merged labels of one party's shingling, one chain per label of two
    or more shingles.

    Chain j starts at the shingle whose key is the `heads[j]`-th of the
    party's sorted distinct keys and glues `glued[j]` more shingles onto it.
    A peer that holds the party's multiset walks the chains over it in order
    (`ShingleTable.walk`): each step uses up an instance and goes on to the
    one successor with an instance left where there is one.  `ranks` holds,
    chain after chain, the rest: at each branch point, where two or more
    successors are left, the next shingle's `key % base`, the rank of its
    last character, so the next key is `key % base**(l-1) * base + rank`.
    """

    heads: list[int]
    glued: list[int]
    ranks: list[int]


def seams_to_records(word: ShingledWord, firsts: list[int]) -> MergeChains:
    """The chains of a word's merged labels, given the first position of each
    label in stream order (as `merge_until_ud` returns them).

    Replays the peer's walk (`ShingleTable.walk`) over the word's own
    multiset, chain by chain, and keeps a glued shingle's rank only where
    the walk reaches a branch node with two or more successors left.  The
    walk uses up the chains' positions in stream order, and only the counts
    of a branch node's successors decide a step, so the replay counts just
    those, at the positions that hold them.
    """
    keys = word.keys
    table = word.table
    base = table.base
    order = table.order
    runs = table.branch_runs()
    left = {key: table.counts[key] for run in runs.values() for key in run}
    heads: list[int] = []
    glued: list[int] = []
    ranks: list[int] = []
    for first, end in zip(firsts, itertools.chain(firsts[1:], [len(keys)])):
        if end - first > 1:
            heads.append(bisect.bisect_left(order, keys[first]))
            glued.append(end - first - 1)
            for at in itertools.compress(range(first, end), map(left.__contains__, keys[first:end])):
                key = keys[at]
                # the step onto a glued shingle that leaves a branch node
                if at > first and len([k for k in runs[key // base] if left[k]]) > 1:
                    ranks.append(key % base)
                left[key] -= 1
    return MergeChains(heads, glued, ranks)


def apply_merge_records(initial: ShingleTable, chains: MergeChains) -> ShingleMultiset:
    """Rebuild a merged multiset from an initial multiset plus the chains of
    its merged labels.

    Each chain uses up one instance of every shingle it passes through, and
    the instances left over stay single labels.  A chain the peer could not
    have sent raises ProtocolError: one whose head is past the distinct keys
    or has no instance left, one that reaches a shingle with no successor
    left, or a branch point with no rank left or whose rank names no live
    successor, one whose label holds a delimiter inside it, and ranks left
    over after the last chain.

    The rebuild uses up `initial.counts` as its running count of the
    instances left, so the table holds no multiset afterwards, whether the
    rebuild returns or raises: a caller that reads the table again passes a
    copy.
    """
    order = initial.order
    left = initial.counts
    base = initial.base
    # key % top is the key of a shingle's last l - 1 characters
    top = base ** (initial.l - 1)
    # the character of each rank, for the last character of a key
    chars = sorted(initial.ranks)
    merged: dict[str, int] = {}
    ranks = iter(chains.ranks)

    def read_rank(key: int, live: list[int]) -> int:
        if not live:
            raise ProtocolError("merge chain steps on where no successor has an instance left")
        rank = next(ranks, None)
        if rank is None:
            raise ProtocolError("merge chain reaches a branch point with no shipped rank left")
        key = key % top * base + rank
        if key not in live:
            raise ProtocolError("merge chain's shipped rank names a successor with no instance left")
        return key

    for head, glued in zip(chains.heads, chains.glued):
        if head >= len(order):
            raise ProtocolError(f"merge chain starts at key {head}, past the {len(order)} distinct keys")
        key = order[head]
        if not left[key]:
            raise ProtocolError("merge chain starts at a shingle with no instance left")
        left[key] -= 1
        path = initial.walk(key, glued, left, read_rank)
        label = initial.shingle(key) + "".join([chars[after % base] for after in path])
        # a word's delimiters pad only its ends: no label of it walks on
        # from the last shingle to the first
        if not is_valid_shingle(label):
            raise ProtocolError("merge chain runs on through the delimiters that end the word")
        merged[label] = merged.get(label, 0) + 1
    leftover = sum(1 for _ in ranks)
    if leftover:
        raise ProtocolError(f"{leftover} shipped ranks left over after the last merge chain")
    for key, count in left.items():
        if count:
            merged[initial.shingle(key)] = count
    return ShingleMultiset(merged, base_len=initial.l)


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


def _unpack_residues(data: bytes, count: int, what: str, p: int) -> list[int]:
    """`count` residues mod the session's prime `p`, packed at its bit length;
    any entry of `p` or more is no residue."""
    values = _unpack_block(data, p.bit_length(), count, what)
    if values and max(values) >= p:
        raise ProtocolError(f"{what} block holds a value of the prime {p} or more")
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


def encode_occ_bits(occ_bits: int) -> bytes:
    """The responder's OCC_WIDTH frame: its word's own occurrence width,
    one byte."""
    return bytes([occ_bits])


def decode_occ_bits(payload: bytes, least: int, most: int, what: str) -> int:
    """The occurrence width in the one-byte `payload`, refused outside
    [`least`, `most`]: `most` is at most `DEFAULT_OCC_BITS`, the widest any
    element may take (`occ_bits_cap`)."""
    if len(payload) != 1:
        raise ProtocolError(f"{what} occurrence width takes 1 byte, not {len(payload)}")
    (occ_bits,) = payload
    if not least <= occ_bits <= most:
        raise ProtocolError(f"{what} occurrence width {occ_bits} is outside [{least}, {most}]")
    return occ_bits


def encode_bundle(bundle: EvalBundle, *, occ_bits: int, bucket_sizes: list[int], p: int) -> bytes:
    """The session's occurrence width `occ_bits`, one byte; the smallest
    bucket size, packed `_count_bits(set size)` wide for the bundle's set
    size, the sum of the sizes; `width:u8`, the bit length of the largest
    size's offset from the smallest (at least 1); each size's offset, packed
    `width` wide; then the values at the bit length of the session's prime
    `p`.  The peer derives the first width from the hellos, the points from
    the seed and their number from the hello.

    `occ_bits`, `bucket_sizes` and `p` are keyword-only: perfbench/tracing.py
    counts the bundle's pairs from the one positional argument.
    """
    least = min(bucket_sizes)
    offsets = [size - least for size in bucket_sizes]
    width = _count_bits(max(offsets))
    return (
        encode_occ_bits(occ_bits)
        + _pack_block([least], _count_bits(bundle.set_size))
        + bytes([width])
        + _pack_block(offsets, width)
        + _pack_block(list(bundle.values), p.bit_length())
    )


def decode_bundle(
    payload: bytes, buckets: int, count: int, instances: int, p: int
) -> tuple[list[int], list[int]]:
    """(bucket sizes, values) of a bundle frame holding `count` residues mod
    `p` from a sender of `instances` shingle instances.

    The occurrence width that opens the frame is read first, on its own
    (`decode_occ_bits`), as it sets `p`; this reads past it.  The offsets'
    width, at most `_count_bits(instances)`, and the largest size, at most
    `instances`, are checked before any value is read.
    """
    bits = _count_bits(instances)
    at = 1 + (bits + 7) // 8
    if len(payload) <= at:
        raise ProtocolError("bundle holds no offset width")
    (least,) = _unpack_block(payload[1:at], bits, 1, "bundle")
    width = payload[at]
    if not 1 <= width <= bits:
        raise ProtocolError(f"bundle size offset width {width} is outside [1, {bits}]")
    head = at + 1 + (buckets * width + 7) // 8
    sizes = [least + offset for offset in _unpack_block(payload[at + 1 : head], width, buckets, "bundle")]
    if max(sizes) > instances:
        raise ProtocolError(f"bundle bucket size {max(sizes)} is past the {instances} instances of the peer")
    return sizes, _unpack_residues(payload[head:], count, "bundle", p)


def encode_request(counts: list[int]) -> bytes:
    """`width:u8`, then one count per bucket packed `width` bits wide: the
    values the bucket asks for this round, 0 once it is done.  All counts 0
    ask for the session check.  The width is the bit length of the largest
    count, at least 1."""
    width = _count_bits(max(counts, default=0))
    return bytes([width]) + _pack_block(counts, width)


def decode_request(payload: bytes, buckets: int) -> list[int]:
    if not payload:
        raise ProtocolError("pair request holds no width")
    width = payload[0]
    if not 1 <= width <= MAX_REQUEST_BITS:
        raise ProtocolError(f"pair request width {width} is outside [1, {MAX_REQUEST_BITS}]")
    return _unpack_block(payload[1:], width, buckets, "pair request")


def decode_shift(payload: bytes, buckets: int) -> tuple[int, bytes]:
    """The bucket shift, `shift:u8`, that opens a rateless session's first
    pair request, and the request after it.  The responder reconciles
    buckets // 2**shift buckets (`coarse_shift`), so a shift past log2 of
    the `buckets` fine buckets is refused."""
    if not payload:
        raise ProtocolError("first pair request holds no bucket shift")
    most = buckets.bit_length() - 1
    if payload[0] > most:
        raise ProtocolError(f"bucket shift {payload[0]} is past {most}, log2 of the {buckets} fine buckets")
    return payload[0], payload[1:]


def encode_pairs(pairs: list[tuple[int, int]], *, p: int) -> bytes:
    """The values of (point, value) pairs at the bit length of the session's
    prime `p`; the peer derives the points from the seed and their number
    from its own request.

    `p` is keyword-only: perfbench/tracing.py counts the pairs from the one
    positional argument.
    """
    return _pack_block([value for _point, value in pairs], p.bit_length())


def decode_pairs(payload: bytes, count: int, p: int) -> list[int]:
    return _unpack_residues(payload, count, "pair", p)


def encode_runs(runs: list[str], l: int, chars: str) -> bytes:
    """One-sided instances as runs of consecutive windows of the sender's
    padded word (`ShingledWord.runs`): the run count and each run's window
    count r, packed at the bit length of the windows' total, then each run's
    r + l - 1 characters as their ranks in `chars`, the symbols and the
    delimiter in rank order, packed `_rank_bits(len(chars))` wide.  The
    peer derives the total, so no count of windows crosses the wire."""
    windows = [len(run) - l + 1 for run in runs]
    rank = {ch: i for i, ch in enumerate(chars)}
    return _pack_block([len(runs), *windows], _count_bits(sum(windows))) + _pack_block(
        [rank[ch] for run in runs for ch in run], _rank_bits(len(chars))
    )


def decode_runs(payload: bytes, l: int, total: int, chars: str) -> list[str]:
    """The runs of a runs frame whose windows the receiver knows to total
    `total`, each as its r + l - 1 characters (`_read_runs`), filling the
    frame exactly."""
    runs, end = _read_runs(payload, l, total, chars)
    if end != len(payload):
        raise ProtocolError(f"runs frame holds {len(payload) - end} bytes past its runs")
    return runs


def _read_runs(payload: bytes, l: int, total: int, chars: str) -> tuple[list[str], int]:
    """The runs at the start of `payload` whose windows total `total`, and
    the offset where they end.

    The run count, the window counts and their total are checked before any
    character is read: every run holds a window, and the windows sum to
    `total`, so the characters' length is fixed before they are unpacked.
    A rank past `chars` or a delimiter between two symbols of a run, which
    no padded word holds, is refused too.
    """
    bits = _count_bits(total)
    count_end = (bits + 7) // 8
    if len(payload) < count_end:
        raise ProtocolError("runs frame holds no run count")
    count = int.from_bytes(payload[:count_end], "big") >> (8 * count_end - bits)
    if count > total:
        raise ProtocolError(f"runs frame holds {count} runs for {total} windows")
    head = ((count + 1) * bits + 7) // 8
    _, *windows = _unpack_block(payload[:head], bits, count + 1, "runs")
    if 0 in windows:
        raise ProtocolError("a run holds no window")
    if sum(windows) != total:
        raise ProtocolError(f"runs hold {sum(windows)} windows, not the {total} the peer derives")
    rank_bits = _rank_bits(len(chars))
    length = total + count * (l - 1)
    end = head + (length * rank_bits + 7) // 8
    ranks = _unpack_block(payload[head:end], rank_bits, length, "runs")
    if ranks and max(ranks) >= len(chars):
        raise ProtocolError(f"a run holds a rank of {len(chars)} or more")
    text = "".join(map(chars.__getitem__, ranks))
    runs = []
    at = 0
    for r in windows:
        runs.append(text[at : at + r + l - 1])
        at += r + l - 1
        if not is_valid_shingle(runs[-1]):
            raise ProtocolError("a run holds a delimiter between two symbols")
    return runs, end


def encode_handoff(
    runs: list[str], walked: list[str], residuals: list[list[int]], remote_instances: int, l: int, chars: str, p: int
) -> bytes:
    """The responder's DELTA:

    - the windows of `walked`, the initiator's one-sided instances its walk
      found (`_walk`), as one count packed `_count_bits(remote_instances)`
      wide for the initiator's instance count;
    - `width:u8`, the bit length of the largest residual degree, 0 when no
      bucket has a residual, and only when it is not 0 the degree of each
      bucket's monic residual polynomial at that width;
    - `walked` as runs (`encode_runs`);
    - the responder's own one-sided instances `runs` as runs, whose windows
      total the walk's, plus the residual degrees, plus the responder's
      instance count less the initiator's;
    - one residue block of the residuals' little-endian coefficients mod
      `p`, the leading 1 left out.
    """
    found = sum(len(run) - l + 1 for run in walked)
    degrees = [len(poly) - 1 for poly in residuals]
    width = max(degrees, default=0).bit_length()
    return (
        _pack_block([found], _count_bits(remote_instances))
        + bytes([width])
        + (_pack_block(degrees, width) if width else b"")
        + encode_runs(walked, l, chars)
        + encode_runs(runs, l, chars)
        + _pack_block([c for poly in residuals for c in poly[:-1]], p.bit_length())
    )


def decode_handoff(
    payload: bytes, instances: int, bucket_sizes: list[int], table: ShingleTable, p: int
) -> tuple[list[str], list[str], list[list[int]]]:
    """(the responder's runs, the runs of its walk, one monic residual
    polynomial per bucket mod `p`) of a DELTA from a responder of
    `instances` shingle instances, to the initiator whose buckets hold
    `bucket_sizes` instances and whose word's multiset is `table`.

    Everything is checked before a residue is read: the walk's total is at
    most the initiator's instances; a residual width is no wider than the
    largest bucket's size needs, and states a residual; no residual has
    higher degree than the initiator's instances in its bucket, since a
    root search costs the degree times the bucket's instances; the walk and
    the residuals together hold at most the initiator's instances, and so
    many that the derived total of the responder's runs is not negative;
    and the walk's runs hold no shingle more often than the initiator's word.
    """
    mine = sum(bucket_sizes)
    bits = _count_bits(mine)
    at = (bits + 7) // 8
    if len(payload) <= at:
        raise ProtocolError("hand-off holds no residual width")
    (found,) = _unpack_block(payload[:at], bits, 1, "delta")
    if found > mine:
        raise ProtocolError(f"the walk found {found} instances, more than the initiator's {mine}")
    width = payload[at]
    at += 1
    degrees = [0] * len(bucket_sizes)
    if width:
        most = _count_bits(max(bucket_sizes, default=0))
        if width > most:
            raise ProtocolError(f"residual degree width {width} is outside [0, {most}]")
        head = at + (len(bucket_sizes) * width + 7) // 8
        degrees = _unpack_block(payload[at:head], width, len(bucket_sizes), "delta")
        at = head
        for b, (degree, size) in enumerate(zip(degrees, bucket_sizes)):
            if degree > size:
                raise ProtocolError(
                    f"residual polynomial of bucket {b} has degree {degree}, "
                    f"more than the bucket's {size} instances"
                )
        if not any(degrees):
            raise ProtocolError(f"residual degree width {width} holds no residual")
    residual = sum(degrees)
    if found + residual > mine:
        raise ProtocolError(
            f"the walk's {found} instances and the residual's {residual} are more than the initiator's {mine}"
        )
    total = found + residual + instances - mine
    if total < 0:
        raise ProtocolError(
            f"the walk and the residual hold {found + residual} instances, fewer than the initiator's "
            f"{mine - instances} surplus instances"
        )
    chars = "".join(sorted(table.ranks))
    walked, used = _read_runs(payload[at:], table.l, found, chars)
    _check_held(table, _windows(walked, table.l))
    runs, end = _read_runs(payload[at + used :], table.l, total, chars)
    at += used + end
    values = iter(_unpack_residues(payload[at:], residual, "delta", p))
    polys = [list(itertools.islice(values, degree)) + [1] for degree in degrees]
    return runs, walked, polys


def _check_held(table: ShingleTable, windows: ShingleMultiset) -> None:
    """Refuse one-sided instances of the table's word that it does not hold:
    a shingle more often than the word has it."""
    for shingle, mult in windows.entries.items():
        have = table.counts.get(table.key(shingle), 0)
        if mult > have:
            raise ProtocolError(f"the peer names {mult} instances of {shingle!r}, of which the word holds {have}")


def encode_merges(chains: MergeChains, instances: int, base: int) -> bytes:
    """The chain count, packed `_count_bits(instances // 2)` wide, as every
    chain covers two instances or more; one block packed
    `_count_bits(instances - 1)` wide of the shipped-rank count and each
    chain's head and glued count, each below the sender's instance count;
    then one block of the shipped ranks packed `_rank_bits(base)` wide: a
    merge costs a rank only at a branch point, 2 bits for a binary word.
    The peer derives the widths from the sender's instance count and the
    session's alphabet."""
    head_block = [len(chains.ranks)] + [value for chain in zip(chains.heads, chains.glued) for value in chain]
    return (
        _pack_block([len(chains.heads)], _count_bits(instances // 2))
        + _pack_block(head_block, _count_bits(instances - 1))
        + _pack_block(chains.ranks, _rank_bits(base))
    )


def decode_merges(payload: bytes, instances: int, base: int) -> MergeChains:
    """The chains of a MERGES payload from a sender of `instances` shingle
    instances over `base` ranks.

    Every chain glues at least one shingle onto its head, all chains
    together cover at most the sender's instances, and at most every glued
    shingle ships a rank, which is checked before the rank block is read: no
    count the peer chooses makes this unpack more values than its instances
    allow.
    """
    count_bits = _count_bits(instances // 2)
    start = (count_bits + 7) // 8
    (count,) = _unpack_block(payload[:start], count_bits, 1, "merges")
    if 2 * count > instances:
        raise ProtocolError(f"merges frame holds {count} chains, more than {instances} instances hold")
    bits = _count_bits(instances - 1)
    end = start + ((2 * count + 1) * bits + 7) // 8
    shipped, *block = _unpack_block(payload[start:end], bits, 2 * count + 1, "merges")
    heads, glued = block[0::2], block[1::2]
    if 0 in glued:
        raise ProtocolError("merge chain glues no shingle")
    merges = sum(glued)
    if merges + count > instances:
        raise ProtocolError(
            f"merge chains cover {merges + count} instances, more than the {instances} the peer announced"
        )
    if shipped > merges:
        raise ProtocolError(f"merges frame ships {shipped} ranks for {merges} glued shingles")
    ranks = _unpack_block(payload[end:], _rank_bits(base), shipped, "merges")
    if ranks and max(ranks) >= base:
        raise ProtocolError(f"merge chain holds a rank of {base} or more")
    return MergeChains(heads, glued, ranks)


def _count_bits(most: int) -> int:
    """The width of a count from 0 to `most`: its bit length, at least 1.
    Both parties know `most` before the count crosses the wire."""
    return max(1, most.bit_length())


def _rank_bits(base: int) -> int:
    """The width of a rank among `base` characters, 2 for binary words with
    the delimiter."""
    return (base - 1).bit_length()


def _digest(word: str) -> bytes:
    return hashlib.sha256(word.encode("utf-8")).digest()[:8]


# ---------------------------------------------------------------------------
# the session


class _MeteredEndpoint:
    """Tags every frame's bits with the protocol step that produced it and
    with the frame's kind."""

    def __init__(self, endpoint: Endpoint, report: SessionReport):
        self.endpoint = endpoint
        self.report = report
        self.step = "hello"

    def _tag(self, kind: FrameKind, side: int, bits: int) -> None:
        self.report.bits.setdefault(self.step, [0, 0])[side] += bits
        self.report.frame_bits.setdefault(kind.name, [0, 0])[side] += bits

    def send(self, kind: FrameKind, payload: bytes = b"") -> None:
        before = self.endpoint.bits_sent()
        self.endpoint.send(Frame(kind, payload))
        self._tag(kind, 0, self.endpoint.bits_sent() - before)

    def recv(self) -> Frame:
        before = self.endpoint.bits_received()
        frame = self.endpoint.recv()
        self._tag(frame.kind, 1, self.endpoint.bits_received() - before)
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
                wire.send(FrameKind.ABORT, str(exc).encode("utf-8"))
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
    report.raw_bits = (len(word) + n_remote) * max(1, (len(alphabet) - 1).bit_length())
    # before shingling: a peer may announce any l below 2**32, and shingling
    # builds |w| + l - 1 windows of length l
    longest = ShingleCodec(alphabet, FIELD).max_shingle_len
    if config.l > longest:
        raise ProtocolError(
            f"l = {config.l} exceeds {longest}, the longest shingle "
            f"the encoding range holds for the {len(alphabet)} symbols of both words together"
        )

    # step 1: one rolling pass gives every shingle its node ids and key
    local = ShingledWord(word, config.l, alphabet)
    instances = len(local.keys)

    # step 2: reconcile the multisets
    wire.step = "step2"
    remote_instances = n_remote + config.l - 1
    buckets = step2_buckets(instances, remote_instances)
    only_local, only_remote = _reconcile_step(
        wire, role, config, alphabet, local, remote_instances, buckets, report
    )
    # the word's codes go after step 2, its node ids after the merge and its
    # keys after step 4, before step 6 allocates
    del local.codes

    # steps 3-4: merge to unique decodability (local work only)
    firsts = merge_until_ud(local)
    del local.nodes
    report.merges_local = instances - len(firsts)
    report.longest_label = max(b - a for a, b in zip(firsts, [*firsts[1:], instances]))
    chains = seams_to_records(local, firsts)
    report.ranks_sent = len(chains.ranks)
    table = local.table
    del local, firsts

    # step 5: exchange the chains of the merged labels
    wire.step = "step5"
    base = table.base
    merges_payload = encode_merges(chains, instances, base)
    if role == ROLE_INITIATOR:
        wire.send(FrameKind.MERGES, merges_payload)
        remote_chains = decode_merges(wire.expect(FrameKind.MERGES).payload, remote_instances, base)
    else:
        remote_chains = decode_merges(wire.expect(FrameKind.MERGES).payload, remote_instances, base)
        wire.send(FrameKind.MERGES, merges_payload)
    report.merges_remote = sum(remote_chains.glued)

    # step 6: rebuild and uniquely decode the remote string.  The local
    # table, moved in place by the step-2 difference, is the peer's initial
    # multiset; it goes before the decode
    table.move(only_local, only_remote)
    remote_merged = apply_merge_records(table, remote_chains)
    del table
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


def step2_buckets(local_instances: int, remote_instances: int) -> int:
    """B, the fine buckets of step 2: how many hash buckets the initiator's
    bundle states sizes for, in either mode.

    Partitioned reconciliation (Minsky & Trachtenberg, "Practical set
    reconciliation", Allerton 2002) runs one decoder per bucket, so a point
    costs about n/B work per side instead of n, and root search scans only
    the bucket's own elements.  B is the largest power of two with
    B**2 <= 2 * min(local, remote instances), which is 64 at 4096-symbol
    words, 128 at 16384 and 1 below 2 instances.  The factor 2 puts the
    threshold well clear of a power of two, so words of one length do not
    land on both sides of it.  Both parties know both counts from the
    hellos, so B never crosses the wire.

    B sizes the bundle and, with it, the most step-2 work either party does
    (`_work_cap`).  The buckets step 2 reconciles are B' <= B, which the
    responder sizes by the difference, from the bundle's sizes and its own
    (`coarse_shift`).
    """
    buckets = 1
    while (2 * buckets) ** 2 <= 2 * min(local_instances, remote_instances):
        buckets *= 2
    return buckets


# the estimated one-sided instances a coarse bucket is sized for
COARSE_LOAD = 4
# how many times its part of the estimate plus one a coarse bucket must have
# room for within the work cap (`coarse_shift`)
COARSE_MARGIN = 8


def coarse_shift(own: list[int], theirs: list[int], k: int) -> int:
    """log2(B / B') for the B fine buckets that hold `own` of the
    responder's instances and `theirs` of the initiator's.

    Every bucket costs a verification value and a count in every request,
    so a bucket that holds no difference is waste.  The estimate, sum over
    the fine buckets of |own - theirs|, is a lower bound on the difference,
    close to it when the difference is small against B.  B' is the smallest
    power of two with B' * `COARSE_LOAD` >= the estimate, capped at B.

    A coarse bucket's value costs each party its whole run of fine buckets,
    and both parties hold step 2 to the work that protocol v16 allowed at
    the fine buckets (`_work_cap`).  So B' is doubled until every coarse
    bucket has room, within its run's share of either party's cap, for
    `COARSE_MARGIN` times its own part of the estimate plus one, and its k
    verification values: a run's share is each fine bucket's
    instances times the values it may take, both words' instances in it
    and k.  Where the fine buckets are small that room is small, and the
    estimate, only a lower bound, is least sure where it is large against
    B: without the margin a few differences more than it shows would pass
    the cap of an honest session.

    Coarse bucket c joins the fine buckets c * 2**shift up to
    (c + 1) * 2**shift, as `bucket_of` takes the hash's top bits."""
    gaps = list(map(abs, map(operator.sub, own, theirs)))
    coarse = 1
    while coarse * COARSE_LOAD < sum(gaps) and coarse < len(own):
        coarse *= 2
    shift = (len(own) // coarse).bit_length() - 1
    budgets = [mine + other + k for mine, other in zip(own, theirs)]
    while shift:
        wanted = [COARSE_MARGIN * (sum(gap) + 1) + k for gap in _runs(gaps, shift)]
        if all(
            need * sum(size) <= sum(map(operator.mul, size, budget))
            for fine in (own, theirs)
            for need, size, budget in zip(wanted, _runs(fine, shift), _runs(budgets, shift))
        ):
            break
        shift -= 1
    return shift


def _runs(values: list, shift: int) -> list[list]:
    """The runs of 2**shift consecutive entries of a fine-bucket list, one
    per coarse bucket."""
    width = 1 << shift
    return [values[at : at + width] for at in range(0, len(values), width)]


def _work_cap(sizes: list[int], budgets: list[int], total: int, whole: int, k: int) -> int:
    """The most step-2 evaluation work, values times the instances they are
    evaluated over, that protocol v16's budgets allow one party at the fine
    buckets: bucket values within each bucket's budget (`budgets`, over
    buckets of `sizes` instances) and `total` in all, the largest buckets
    served first, plus at most k session checks of k values over the
    `whole` set.  At the coarse buckets no budget keeps a bucket's values
    from costing its whole run of fine buckets, so both parties hold step 2
    to this."""
    work = k * k * whole
    for size, budget in sorted(zip(sizes, budgets), reverse=True):
        take = min(budget, total)
        work += take * size
        total -= take
    return work


class _WorkMeter:
    """Step 2's evaluation work so far, values times the instances each is
    evaluated over, held to `cap` (`_work_cap`) of `fine` fine buckets: a
    charge past it raises `error`."""

    def __init__(self, cap: int, fine: int, error: type[Exception], work: int):
        self.cap, self.fine, self.error, self.work = cap, fine, error, work

    def charge(self, amount: int) -> None:
        self.work += amount
        if self.work > self.cap:
            raise self.error(
                f"step 2 would take {self.work} element evaluations, "
                f"past the {self.cap} its {self.fine} fine buckets allow"
            )


def _reconcile_step(
    wire: _MeteredEndpoint,
    role: str,
    config: ReconConfig,
    alphabet: Alphabet,
    local: ShingledWord,
    remote_instances: int,
    buckets: int,
    report: SessionReport,
) -> tuple[ShingleMultiset, ShingleMultiset]:
    """Step 2, one flow for both modes; returns the (local, remote) instances
    that are on one side only.

    The responder opens with its word's own occurrence width
    (`word_occ_bits`), and the initiator's bundle opens with the session's,
    the wider of the two; the session's field follows from it, from both
    words' instance counts and from k (`session_field`).  Every residue is
    mod that field's prime and crosses at its bit length.  Both parties
    build their elements from their shingles' codes at the session's
    occurrence width (`_elements`) and hash them into `buckets` fine
    buckets, whose sizes the initiator's bundle carries.  The responder
    joins runs of fine buckets into as few coarse buckets as its estimate
    of the difference, the fine buckets' size gaps, allows (`coarse_shift`),
    and a rateless session's first DELTA_REQ opens with the shift; in fixed
    mode the bundle's values are the fine buckets' and they stay.  Each
    bucket runs its own source (initiator) or decoder (responder, its
    ladder started at the bucket's part of the estimate) over the session's
    one point stream, whose points go to the buckets in bucket order.  The
    initiator sends characteristic values: a first batch per bucket in its
    bundle, then whatever the responder requests, one DELTA_REQ holding a
    count for every bucket.  The mode chooses only the first batch: none in
    rateless mode,
    and in fixed mode ceil(min(m_hat, N_A + N_B) / B), a bucket's share of
    the bound, which no difference can pass, so a bucket whose share of the
    difference is larger tops up through the requests.  The bundle also
    carries the first session check: the initiator's whole-set
    characteristic values at the k points after the bucket values' points.  The responder feeds each bucket's decoder until
    it holds a candidate that fits one further value and whose local side
    splits over the bucket's own elements.  Once every bucket holds one, it
    runs the session check: the initiator's check values must equal the
    responder's own times the product of the buckets' candidate ratios.  A
    failed check reopens every bucket for one more value and asks for a
    fresh check by a request of all zeros, and at most k checks run.  The
    responder then finds the initiator's one-sided instances itself, by a
    walk over its own table from its runs that tests each step against the
    buckets' remote polynomials (`_walk`), and sends its own instances and
    those it found as runs, then the residual of each polynomial, what the
    walk left, as coefficients.  On this, the walk route, that is all.
    Only when a residual is left does the initiator find its roots among
    its bucket's elements and answer with their instances as runs of its
    own word, which the responder checks against the residuals.

    Both parties hold the values they evaluate, each times its bucket's
    instances, and the session checks to `_work_cap`, what protocol v16's
    budgets allowed at the fine buckets.
    """
    l = config.l
    # a stated width may reach what the stating word's instances need, so no
    # peer widens the field past what the hellos allow
    own_bits = word_occ_bits(local.table)
    if role == ROLE_INITIATOR:
        peer_bits = decode_occ_bits(
            wire.expect(FrameKind.OCC_WIDTH).payload, 0, occ_bits_cap(remote_instances), "peer"
        )
        occ_bits = max(own_bits, peer_bits)
    else:
        wire.send(FrameKind.OCC_WIDTH, encode_occ_bits(own_bits))
        bundle_payload = wire.expect(FrameKind.EVAL_BUNDLE).payload
        most = occ_bits_cap(max(len(local.keys), remote_instances))
        occ_bits = decode_occ_bits(bundle_payload[:1], own_bits, most, "bundle")
    # no difference holds more than both words' instances, which both
    # parties know from the hellos
    instances = len(local.keys) + remote_instances
    codec = ShingleCodec(alphabet, session_field(len(alphabet), l, occ_bits, instances, config.k), occ_bits)
    p = codec.field.p
    report.occ_bits = occ_bits
    report.elem_bits = (local.space.size << occ_bits).bit_length()
    report.value_bits = p.bit_length()
    rateless = config.mode == MODE_RATELESS
    first = 0 if rateless else -(-min(config.m_hat, instances) // buckets)
    points = PointStream(codec.field, config.seed)
    elements = _elements(local, occ_bits)
    parts = partition(elements, buckets, config.seed)
    # the session check's whole-set values, on the same point stream
    whole = RatelessSource.from_elements(elements, codec, points)
    check_work = config.k * len(elements)
    chars = "".join(sorted(local.table.ranks))
    report.step2_buckets = report.step2_fine_buckets = buckets
    if role == ROLE_INITIATOR:

        def budgets(sizes: list[int]) -> tuple[list[int], int]:
            # the budgets bound what the responder requests beyond the
            # bundle, which the initiator sized itself and which may
            # over-serve a bucket done early: no bucket's true difference
            # needs more pairs than its own instances, every remote instance
            # and its one verification value, nor one more for each of the
            # k - 1 failed checks that may reopen it; no session's more than
            # both totals and B * k
            return (
                [size + remote_instances + config.k for size in sizes],
                sum(sizes) + remote_instances + len(sizes) * config.k,
            )

        sizes = [len(part) for part in parts]
        bucket_budget, budget = budgets(sizes)
        # a request past it is the peer's
        meter = _WorkMeter(
            _work_cap(sizes, bucket_budget, budget, len(elements), config.k), buckets, ProtocolError, check_work
        )
        sources = [RatelessSource.from_elements(part, codec, points) for part in parts]
        requested = [0] * buckets
        pairs = [pair for source in sources for pair in source.next_pairs(first)]
        pairs += whole.next_pairs(config.k)
        report.step2_checks = 1
        bundle = EvalBundle(tuple(z for z, _ in pairs), tuple(v for _, v in pairs), sum(sizes))
        wire.send(FrameKind.EVAL_BUNDLE, encode_bundle(bundle, occ_bits=occ_bits, bucket_sizes=sizes, p=p))
        report.step2_pairs = len(pairs)
        # in fixed mode no shift crosses: the bundle's values are the fine
        # buckets', so they stay
        shift = None if rateless else 0
        while (frame := wire.recv()).kind != FrameKind.DELTA:
            if frame.kind != FrameKind.DELTA_REQ:
                raise ProtocolError(f"unexpected frame {frame.kind.name} during step 2")
            payload = frame.payload
            if shift is None:
                shift, payload = decode_shift(payload, buckets)
                if shift:
                    parts = [list(itertools.chain.from_iterable(run)) for run in _runs(parts, shift)]
                    sizes = [len(part) for part in parts]
                    bucket_budget, budget = budgets(sizes)
                    sources = [RatelessSource.from_elements(part, codec, points) for part in parts]
                    buckets = report.step2_buckets = len(parts)
                    requested = [0] * buckets
            counts = decode_request(payload, buckets)
            if rateless and not report.step2_rounds:
                # each bucket's first count is its share of the estimate and
                # its one verification value (`RatelessDecoder.from_elements`)
                report.step2_estimate = sum(count - 1 for count in counts if count)
            if not any(counts):
                # a session check after the bundle's failed
                if report.step2_checks == config.k:
                    raise ProtocolError(f"the peer asks for more than k = {config.k} session checks")
                report.step2_checks += 1
                meter.charge(check_work)
                pairs = whole.next_pairs(config.k)
            else:
                for b, count in enumerate(counts):
                    if requested[b] + count > bucket_budget[b]:
                        raise ProtocolError(
                            f"pair request for {count} in bucket {b} after {requested[b]} "
                            f"exceeds its budget of {bucket_budget[b]}"
                        )
                if sum(requested) + sum(counts) > budget:
                    raise ProtocolError(
                        f"pair request for {sum(counts)} after {sum(requested)} "
                        f"exceeds the budget of {budget}"
                    )
                meter.charge(sum(map(operator.mul, counts, sizes)))
                pairs = [pair for source, count in zip(sources, counts) for pair in source.next_pairs(count)]
                requested = [r + count for r, count in zip(requested, counts)]
            wire.send(FrameKind.EVAL_PAIR, encode_pairs(pairs, p=p))
            report.step2_pairs += len(pairs)
            report.step2_rounds += 1
        # the hand-off's counts are bounded before anything in it is read,
        # and the whole hand-off is checked before any reply goes out
        remote_runs, walked, residuals = decode_handoff(frame.payload, remote_instances, sizes, local.table, p)
        only_local = _windows(walked, l)
        report.step2_residual = sum(len(poly) - 1 for poly in residuals)
        if report.step2_residual:
            my_roots: list[int] = []
            for b, (poly, part) in enumerate(zip(residuals, parts)):
                roots = roots_by_candidates(poly, part, p)
                if roots is None:
                    raise ProtocolError(f"residual polynomial of bucket {b} does not split over its local elements")
                my_roots += roots
            my_runs = _own_runs(local, my_roots, occ_bits)
            only_local = only_local.union(_windows(my_runs, l))
            _check_held(local.table, only_local)
            wire.send(FrameKind.DELTA, encode_runs(my_runs, l, chars))
        return only_local, _windows(remote_runs, l)

    bundled = first * buckets
    sizes, values = decode_bundle(bundle_payload, buckets, bundled + config.k, remote_instances, p)
    if sum(sizes) != remote_instances:
        raise ProtocolError(
            f"bundle bucket sizes sum to {sum(sizes)}, not the {remote_instances} "
            "instances of the announced word"
        )
    report.step2_pairs = len(values)
    own_sizes = [len(part) for part in parts]
    # each fine bucket's size gap bounds its difference from below
    gaps = list(map(abs, map(operator.sub, own_sizes, sizes)))
    report.step2_estimate = sum(gaps)
    # a decoder takes at most its own instances, the initiator's and one
    # value for each of the k checks that may verify it (`reopen`)
    decoder_budgets = [mine + theirs + config.k for mine, theirs in zip(own_sizes, sizes)]
    # the responder stops before it asks for work past it
    meter = _WorkMeter(
        _work_cap(own_sizes, decoder_budgets, sum(decoder_budgets), len(elements), config.k),
        buckets,
        BoundExceededError,
        check_work,
    )
    shift = coarse_shift(own_sizes, sizes, config.k) if rateless else 0
    # the shift opens the first request of a rateless session
    head = bytes([shift]) if rateless else b""
    if shift:
        parts = [list(itertools.chain.from_iterable(run)) for run in _runs(parts, shift)]
        sizes, gaps = ([sum(run) for run in _runs(fine, shift)] for fine in (sizes, gaps))
        buckets = report.step2_buckets = len(parts)
    decoders = [
        RatelessDecoder.from_elements(part, codec, size, k=1, least=gap) for part, size, gap in zip(parts, sizes, gaps)
    ]

    def feed(counts: list[int], values: list[int]) -> None:
        offset = 0
        for decoder, count in zip(decoders, counts):
            # every value takes the next point in bucket order, fed or not,
            # so both parties stay on the same points
            decoder.feed_all(zip(points.take(count), values[offset : offset + count]))
            offset += count

    def request(counts: list[int]) -> None:
        nonlocal head
        wire.send(FrameKind.DELTA_REQ, head + encode_request(counts))
        head = b""
        report.step2_rounds += 1

    feed([first] * buckets, values[:bundled])
    # the bundle's check values are at the points after its bucket values'
    own, theirs = whole.next_pairs(config.k), values[bundled:]
    while True:
        report.step2_rejected = sum(decoder.rejected for decoder in decoders)
        if all(decoder.result is not None for decoder in decoders):
            if not theirs:
                meter.charge(check_work)
                request([0] * buckets)
                theirs = decode_pairs(wire.expect(FrameKind.EVAL_PAIR).payload, config.k, p)
                report.step2_pairs += len(theirs)
                own = whole.next_pairs(config.k)
            report.step2_checks += 1
            results = [decoder.result for decoder in decoders]
            if _session_check(own, theirs, results, p):
                break
            if report.step2_checks == config.k:
                raise ProtocolError(f"the session check failed {config.k} times")
            for decoder in decoders:
                decoder.reopen()
            theirs = []
        counts = [0 if d.result is not None else min(d.pairs_wanted(), MAX_REQUEST) for d in decoders]
        meter.charge(sum(count * len(decoder.elements) for count, decoder in zip(counts, decoders)))
        request(counts)
        values = decode_pairs(wire.expect(FrameKind.EVAL_PAIR).payload, sum(counts), p)
        report.step2_pairs += len(values)
        feed(counts, values)
    spans = _own_spans(local, [root for result in results for root in result.local_roots], occ_bits)
    my_runs = [local.text[start : end + l] for start, end in spans]
    polys = [list(result.remote_poly) for result in results]
    walked, found, residuals = _walk(local, spans, polys, bucket_of(buckets, config.seed), occ_bits, p)
    report.step2_walked = sum(found.values())
    report.step2_residual = sum(len(poly) - 1 for poly in residuals)
    wire.send(FrameKind.DELTA, encode_handoff(my_runs, walked, residuals, remote_instances, l, chars, p))
    only_remote = _windows(walked, l)
    if report.step2_residual:
        remote_runs = decode_runs(wire.expect(FrameKind.DELTA).payload, l, report.step2_residual, chars)
        only_remote = only_remote.union(
            _initiator_only(remote_runs, local, residuals, found, config.seed, occ_bits, p)
        )
    return _windows(my_runs, l), only_remote


def _walk(
    word: ShingledWord,
    spans: list[tuple[int, int]],
    polys: list[list[int]],
    bucket: Callable[[int], int],
    occ_bits: int,
    p: int,
) -> tuple[list[str], Counter, list[list[int]]]:
    """The initiator's one-sided instances that the responder finds in its
    own de Bruijn graph, as (their runs, their count by key, each bucket's
    residual polynomial, `polys[b]` with the found roots divided out).

    `word` is the responder's, `spans` the first and last position of each
    of its runs (`_own_spans`), and `polys[b]` bucket b's hand-off
    polynomial, whose roots are the initiator's elements in that bucket
    that the responder lacks: of the shingle with key `key`, the
    occurrences above the responder's count c(key).  The windows an edit
    adds to the initiator's word form a path that leaves the shared part of
    the graph at the node where the responder's own run for that edit
    starts.  So the walk starts from the first node of each run, and from
    a node tries every successor key, `node * base + rank`, at its next
    occurrence c(key) + found(key) + 1 (`_element`).  Each node carries
    beside its key its delimiters and the value of its symbols
    (`CodeSpace.parse`), so a candidate's code follows from its node's, as
    value * |symbols| + digit where no delimiter takes part, with no
    candidate read digit by digit; a symbol after a trailing delimiter is
    no shingle and is not tried.  It skips a candidate past the
    2**occ_bits occurrences or whose bucket (`bucket`) has found its
    degree's count, keeps one that is a root, and then goes on to the
    root's successor node, coming back to the node while it keeps yielding
    roots.  A test is exact, as a polynomial has only its own roots, and
    the walk stops once every bucket has found its degree's count.

    What a walk from the runs misses is a closed walk of the initiator's
    windows, balanced at every node, that touches no run: an edit in a
    periodic stretch can add a period.  Such a cycle passes near the edit,
    so while roots are left the walk starts again from every node of the
    word within 2l positions of a run.

    A node is visited once from each start and at most twice for each root
    found, so the first pass makes at most base * (runs + 2 * sum of the
    degrees) evaluations, and the second, which runs only when the first
    leaves a root, at most base * (r + 4l + 1) more for each run of r
    windows.  No run it returns goes on through the l - 1 delimiters from a
    word's end to its start: a nonempty word has one window that leaves
    that node, so the initiator's is one-sided only when the responder's is
    too, and then the responder's first run starts at the node, where the
    walk tries first.  A root both passes miss stays in the residual.
    """
    table, keys, space = word.table, word.keys, word.space
    l, base, counts = table.l, table.base, table.counts
    top = base ** (l - 1)
    s, first, last = space.symbols, space.first, space.size - 1
    # the delimiter's rank, and each symbol's digit by its rank
    gap = table.ranks[space.delimiter]
    digit = [rank - (rank > gap) for rank in range(base)]
    # the value of l - 1 symbols is below stop, and the delimiter after
    # them takes the code closing + their value
    stop, closing = s ** (l - 1), first[0, 1]
    most = 1 << occ_bits
    left = [len(poly) - 1 for poly in polys]
    remaining = sum(left)
    roots: list[list[int]] = [[] for _ in polys]
    found: Counter = Counter()
    # each walked run as its first node, then the keys of its windows
    paths: list[list[int]] = []

    def state_of(lead: int, value: int, trail: int) -> tuple[int, int, int, int, int]:
        """A node's state: its leading delimiters, the value of its symbols
        and its trailing delimiters, then the codes of its successors
        (`CodeSpace.window`): `sym`, to which a symbol's digit d adds, for
        one more symbol in its class, and `after`, by the delimiter, its
        class with one more trailing delimiter."""
        m = l - 1 - lead - trail
        if not m:
            # a node of delimiters only counts them as leading
            return l - 1, 0, 0, first[l - 1, 0], last
        return lead, value, trail, first[lead, 0] + value * s, first[lead, trail + 1] + value

    def node_at(at: int) -> tuple[int, tuple[int, int, int, int, int]]:
        """The node window `at` leaves from, or past the last window the
        node it enters: its key and its state (`state_of`)."""
        key = keys[at] // base if at < len(keys) else keys[-1] % top
        return key, state_of(*space.parse(word.text[at : at + l - 1]))

    def entered(state: tuple[int, int, int, int, int], rank: int) -> tuple[int, int, int, int, int]:
        """The state of the node that the window of rank `rank` from a node
        in `state` enters: the window's last l - 1 characters."""
        lead, value, trail = state[:3]
        m = l - 1 - lead - trail  # the node's symbols
        if rank == gap:
            trail += 1
        else:
            value, m = value * s + digit[rank], m + 1
        if lead:
            return state_of(lead - 1, value, trail)
        return state_of(0, value % s ** (m - 1), trail)

    def walk_from(starts: list[tuple[int, tuple[int, int, int, int, int]]]) -> None:
        nonlocal remaining
        # (node, its state, the path whose last window ends at the node, or None)
        stack = [(node, state, None) for node, state in reversed(dict(starts).items())]
        while remaining and stack:
            node, state, path = stack.pop()
            lead, _, trail, sym, after = state
            hits = []
            for rank in range(base):
                if rank == gap:
                    code = after
                elif trail:
                    # a symbol after a trailing delimiter: no shingle
                    continue
                else:
                    code = sym + digit[rank]
                key = node * base + rank
                occ = counts.get(key, 0) + found.get(key, 0) + 1
                if occ > most:
                    continue
                element = (code << occ_bits) + occ  # _element(code, occ, occ_bits)
                b = bucket(element)
                if left[b] and not peval(polys[b], element, p):
                    left[b] -= 1
                    roots[b].append(element)
                    found[key] += 1
                    hits.append((key, code))
            if not hits:
                continue
            remaining -= len(hits)
            # back to this node once the paths from it are walked
            stack.append((node, state, None))
            steps = []
            for key, code in hits:
                # the first root carries on the path that reached the node
                if path is None or steps:
                    paths.append([node])
                    path = len(paths) - 1
                paths[path].append(key)
                if lead or trail or key % base == gap:
                    steps.append((key % top, entered(state, key % base), path))
                else:
                    # a window of symbols only enters the node of its last
                    # l - 1, and from it the windows of symbols go on
                    value = code % stop
                    steps.append((key % top, (0, value, 0, value * s, closing + value), path))
            stack += reversed(steps)

    walk_from([node_at(start) for start, _ in spans])
    if remaining:
        walk_from(
            [
                node_at(at)
                for start, end in spans
                for at in range(max(0, start - 2 * l), min(len(keys), end + 2 * l + 1) + 1)
            ]
        )
    chars = "".join(sorted(table.ranks))

    def spell(node: int) -> str:
        digits = []
        for _ in range(l - 1):
            node, rank = divmod(node, base)
            digits.append(chars[rank])
        return "".join(reversed(digits))

    walked = [spell(first) + "".join(chars[key % base] for key in path) for first, *path in paths]
    residuals = [
        pdivmod(poly, poly_from_roots(found_b, p), p)[0] if rest else [1]
        for poly, found_b, rest in zip(polys, roots, left)
    ]
    return walked, found, residuals


def _session_check(
    own: list[tuple[int, int]], theirs: list[int], results: list[Delta], p: int
) -> bool:
    """Whether the initiator's whole-set value at each check point equals the
    responder's own times the product of the buckets' candidate ratios, the
    remote side over the local side; checked without a division as
    theirs * prod local_b == own * prod remote_b.

    A wrong difference passes with probability at most ((D* + D) / 2**s)**k
    over the k points, for the true difference degree D*, the candidates'
    total degree D and the session's point span 2**s (Minsky, Trachtenberg &
    Zippel, IEEE Trans. IT 2003).  Both degrees are at most N_A + N_B, both
    words' instances, so below the span's cap of 2**40 the span's floor
    (`session_field`) holds the bound at 2**-CHECK_BITS; at the cap it is
    the 2**40 span's bound.
    """
    for (z, mine), value in zip(own, theirs):
        local, remote = value, mine
        for result in results:
            remote = remote * peval(result.remote_poly, z, p) % p
            for root in result.local_roots:
                local = local * (z - root) % p
        if local != remote:
            return False
    return True


def _own_runs(word: ShingledWord, roots: list[int], occ_bits: int) -> list[str]:
    """The runs of `_own_spans`, each as the r + l - 1 characters of the
    padded word its r windows cover."""
    return [word.text[start : end + word.l] for start, end in _own_spans(word, roots, occ_bits)]


def _own_spans(word: ShingledWord, roots: list[int], occ_bits: int) -> list[tuple[int, int]]:
    """The first and last position of each run of the word that holds its
    instances with the elements `roots` at occurrence width `occ_bits`,
    found by their keys (`_root_keys`), not decoded."""
    spans = word.spans(_root_keys(word, roots, occ_bits))
    if sum(end - start + 1 for start, end in spans) != len(roots):
        raise InvariantError(f"the word's runs do not hold its {len(roots)} one-sided instances")
    return spans


def _windows(runs: list[str], l: int) -> ShingleMultiset:
    """The length-l windows of runs, as a multiset."""
    windows = Counter(run[i : i + l] for run in runs for i in range(len(run) - l + 1))
    return ShingleMultiset(windows, base_len=l)


def _initiator_only(
    runs: list[str],
    local: ShingledWord,
    polys: list[list[int]],
    walked: Counter,
    seed: int,
    occ_bits: int,
    p: int,
) -> ShingleMultiset:
    """The initiator's instances from its runs, checked against the
    residual polynomials the walk left.

    Each window is an instance above the responder's own count of its
    shingle and the instances of it the walk found (`walked`, by key),
    whose element at occurrence width `occ_bits` (`_element`, from the
    code the window's characters read) lands in the bucket `partition`
    puts it in; every bucket must then hold exactly its polynomial's roots
    mod `p`: as many instances as its degree, each of them a root.
    """
    only_remote = _windows(runs, local.l)
    table = local.table
    elements = []
    for shingle, mult in only_remote.entries.items():
        key = table.key(shingle)
        have = table.counts.get(key, 0) + walked[key]
        if have + mult > 1 << occ_bits:
            raise ProtocolError(f"peer sent occurrence {have + mult} of a shingle, past the encoding range")
        code = local.space.code(shingle)
        elements += [_element(code, occ, occ_bits) for occ in range(have + 1, have + mult + 1)]
    for b, (part, poly) in enumerate(zip(partition(elements, len(polys), seed), polys)):
        if len(part) != len(poly) - 1:
            raise ProtocolError(
                f"the peer's runs put {len(part)} instances in bucket {b}, "
                f"whose hand-off polynomial has degree {len(poly) - 1}"
            )
        if any(peval(poly, e, p) for e in part):
            raise ProtocolError(f"a run of the peer's holds an instance that is no root in bucket {b}")
    return only_remote


def random_edits(word: str, alpha: int, rng: random.Random, symbols: str) -> str:
    """Apply `alpha` uniform random single-character insertions/deletions."""
    chars = list(word)
    for _ in range(alpha):
        if chars and rng.random() < 0.5:
            del chars[rng.randrange(len(chars))]
        else:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(symbols))
    return "".join(chars)
