"""End-to-end string reconciliation over a framed transport.

Session outline: exchange hello frames (parameters, lengths, observed
symbols), take the wider of the two words' occurrence widths, which with
both words' instance counts sets the field, reconcile the two initial
shingle multisets bucket by bucket (in rateless mode as few buckets as the
responder's estimate of the difference, read off the bundle's bucket sizes,
allows; a first batch of characteristic values pre-sized from the bound in
fixed mode and empty in rateless mode, then values on request until every
bucket holds a candidate verified by one value), hand over the one-sided
instances as runs of consecutive windows, r windows as r + l - 1 symbols
(the responder sends its own and the initiator's, which it finds by walking
its own de Bruijn graph, testing each step against the buckets' remote
polynomials; the walk is complete, so it finds every one of them), after one
session check that verifies the whole difference at once: the initiator's
whole-set value at one point of a wide field of its own, which its bundle
carries, against the responder's own times the walked elements' factors over
its own one-sided ones.  A walk that leaves roots or a failed check reopens
every bucket for one more value, and at most k checks run.  Then merge each
side's ordered shingling to unique decodability, exchange one chain per
merged label (its first shingle's index among the sender's distinct keys,
its glued count, and only at a branch point, where the receiver's walk over
the sender's multiset has c >= 2 successors left, the next shingle's index
among them in ceil(log2 c) bits), rebuild and uniquely decode the remote
multiset, then confirm with digests.  Steps 1 to 6 run on integer positions of the
padded word (`ShingledWord`): one-sided instances are found by position or
by key and cross as runs, merged labels are spans of positions, chains
slices of its keys, and the remote multiset a `ShingleTable`; no instance is
decoded from its field element.  Only the multiset reconciliation, which
grows with the difference, and the merge exchange, which grows with the
merged labels, carry more than constant-size framing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import random
import time
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
from .field import FieldSpec, PointStream, is_probable_prime, peval
# reconcile_fixed and roots_by_candidates are unused here but stay importable
# from this module: perfbench/tracing.py rebinds them on it
from .setrecon import (  # noqa: F401
    DEFAULT_OCC_BITS,
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
from .transport import MAX_PAYLOAD, Endpoint, Frame, FrameKind, encode_varint, read_varint

PROTOCOL_VERSION = 19

# the field that caps a hello's l: P61 with points drawn from its top 2**40
# residues.  No session runs over it: each derives its own, no wider, from
# the hellos (`session_field`), and draws its points from the top residues of
# that field, a span no wider than 2**40
FIELD = FieldSpec.default61()

# the session check's target: a wrong difference passes one check with
# probability at most 2**-CHECK_BITS (`check_field`)
CHECK_BITS = 64
# the exponents q of the Mersenne primes 2**q - 1 the session check may run in
CHECK_EXPONENTS = (89, 107, 127, 521)
# the point span's floor over twice both words' instances, in bits
# (`session_field`)
SPAN_MARGIN_BITS = 4

MAX_REQUEST = 0xFFFF  # the most pairs one bucket asks for per round
# a DELTA_REQ's counts are packed at most this wide, the bit length of MAX_REQUEST
MAX_REQUEST_BITS = MAX_REQUEST.bit_length()

MODE_FIXED = "fixed"
MODE_RATELESS = "rateless"

# the most session checks a session runs, and the default: a failed check
# reopens every bucket for one more value and walks again, so a hello's k
# sets up to k walks and k more values a bucket of the responder's work
MAX_K = 8

# the largest l and m_hat a session may state, and the longest word: the
# bounds to which a hello's varints are read (`decode_hello`)
MOST_L = MOST_M_HAT = 2**32 - 1
MOST_WORD = 2**64 - 1


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
    largest = max(table.mults, default=1)
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


def session_field(symbols: int, l: int, occ_bits: int, instances: int) -> FieldSpec:
    """The field of a session at shingle length `l` over `symbols` symbols
    (those of both hellos) and occurrence width `occ_bits`, between words of
    `instances` shingle instances in all: the smallest prime above E + 2**s,
    for the largest element E = C * 2**occ_bits, C = `code_count(symbols,
    l)`, with its top 2**s residues the point range, so every element lies
    below the points.

    The span 2**s is the larger of two, capped at `FIELD`'s 2**40.  The
    first is the widest span that keeps E + 2**s below the next power of
    two, so it costs the field no width.  The second is a floor sized for
    a bucket's one verification value, not for the session: 2**s is more
    than 2**SPAN_MARGIN_BITS times twice both words' instances.  A wrong
    candidate agrees with the true ratio at no more points than the two
    sides' degrees, about twice both words' instances at most, so it fits
    a random point with probability of about 2**-SPAN_MARGIN_BITS at most.
    One that slips through costs a reopened round, as the session check,
    in a field of its own (`check_field`), catches it.  Without the margin,
    short sessions at k = 1 failed their one check about once in 400; the
    benchmark's words, whose elements take 21 bits and more, leave room
    for it below their next power of two, so it costs them no width.  Both
    parties derive the field from the hellos and the session's occurrence
    width.  The span is never above the cap and C never above
    (symbols + 1)**l, so the prime is never above the one protocol 14 took
    for the keys at a 2**40 span, and at every l the cap allows
    (`ShingleCodec.max_shingle_len` over `FIELD`) and every width up to
    `DEFAULT_OCC_BITS`, the most a peer may state, it is at most P61."""
    top = code_count(symbols, l) << occ_bits
    free = ((1 << top.bit_length()) - top - 1).bit_length() - 1
    floor = (2 * instances).bit_length() + SPAN_MARGIN_BITS
    span = min(FIELD.point_span, 1 << max(free, floor))
    p = top + span + 1
    while not is_probable_prime(p):
        p += 1
    return FieldSpec(p, span)


def check_field(instances: int, seed: int) -> tuple[int, int]:
    """(m, z*): the session check's prime and point between words of
    `instances` shingle instances in all.

    m is the smallest Mersenne prime 2**q - 1 whose q is at least
    CHECK_BITS + instances.bit_length(): 2**89 - 1 below 2**25 instances.
    z* is drawn from the seed in [P61, m), above every element of every
    session field, which is at most P61 (`session_field`), so no factor
    z* - e of a whole-set value is 0 mod m.  Both sides of the check
    (`_session_check`) are polynomials in z* of degree at most `instances`,
    so two different multisets pass with probability at most instances /
    (m - P61) <= 2**-CHECK_BITS over the seed.  Both parties derive both
    from the hellos and the seed, so neither crosses the wire."""
    need = CHECK_BITS + instances.bit_length()
    m = (1 << next(q for q in CHECK_EXPONENTS if q >= need)) - 1
    return m, random.Random(b"shinglesync-check:%d" % seed).randrange(FIELD.p, m)


def whole_value(elements: list[int], z: int, m: int) -> int:
    """prod (z - e) mod m over `elements`: a whole-set value of the session
    check, one multiply an element."""
    acc = 1
    for e in elements:
        acc = acc * (z - e) % m
    return acc


def _element(code: int, occ: int, occ_bits: int) -> int:
    """The element of occurrence `occ` of the shingle with code `code`."""
    return (code << occ_bits) + occ


def _elements(table: ShingleTable, occ_bits: int) -> list[int]:
    """The elements of a table's instances, shingle after shingle in
    canonical order: its rows, each code and multiplicity read off its
    columns."""
    mults = table.mults
    if max(mults, default=1) > 1 << occ_bits:
        raise EncodingCapacityError(f"occurrence {(1 << occ_bits) + 1} exceeds {occ_bits} bits")
    # _element(code, 1, occ_bits) of every row, then each row's further
    # occurrences spliced in after it
    ones = list(map(operator.add, map(operator.lshift, table.codes, itertools.repeat(occ_bits)), itertools.repeat(1)))
    parts: list = []
    at = 0
    for row in itertools.compress(itertools.count(), map(operator.lt, itertools.repeat(1), mults)):
        parts += ones[at : row + 1], range(ones[row] + 1, ones[row] + mults[row])
        at = row + 1
    if not parts:
        return ones
    parts.append(ones[at:])
    return list(itertools.chain.from_iterable(parts))


def _root_keys(word: ShingledWord, roots: list[int], occ_bits: int) -> Counter:
    """The instances of the word's own elements `roots`, counted by key: each
    root's code is looked up among the codes of the word's table, not
    decoded."""
    wanted = Counter((root - 1) >> occ_bits for root in roots)
    table = word.table
    rows = list(itertools.compress(itertools.count(), map(wanted.__contains__, table.codes)))
    if len(rows) != len(wanted):
        raise InvariantError(f"{len(wanted) - len(rows)} of the roots are no element of the word")
    return Counter({table.keys[row]: wanted[table.codes[row]] for row in rows})


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
    hellos and that width (`session_field`).  k caps the session checks a
    session runs.
    """

    l: int
    mode: str = MODE_RATELESS
    m_hat: int = 64
    k: int = MAX_K
    seed: int = 1
    delimiter: ClassVar[str] = DEFAULT_DELIMITER

    def __post_init__(self):
        # the seed crosses in 8 bytes
        if not 2 <= self.l <= MOST_L:
            raise InvalidParameterError("l must be in [2, 2**32)")
        if not 0 <= self.m_hat <= MOST_M_HAT:
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
    step2_rounds: int = 0  # DELTA_REQ frames, one per round of requested values
    # session checks the responder ran, each after a walk; 0 on the
    # initiator, which sees none
    step2_checks: int = 0
    # bucket candidates the responder refused, those taken back after a
    # failed session check or an unfinished walk included; 0 on the
    # initiator, which sees none
    step2_rejected: int = 0
    # the initiator's one-sided instances the responder's walk found; 0 on
    # the initiator, which walks nothing
    step2_walked: int = 0
    # the session's occurrence width w: an element is code * 2**w + occ
    occ_bits: int = 0
    # the bit length of the session's largest element, C * 2**w: beside
    # value_bits it shows whether the elements or the span's floor set the
    # prime
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
    # the party's thread CPU seconds by step, each the gap between two reads
    # of the thread's clock at the step's ends, in session order: "step1"
    # (shingling), "step2" (the multiset reconciliation), "merge" (steps 3
    # and 4), "step5" (the chains' exchange) and "rebuild" (step 6's
    # rebuild and decode)
    step_cpu_s: dict[str, float] = dc_field(default_factory=dict)
    # the same steps' wall seconds, from one read of `time.perf_counter` at
    # each step boundary: beside the CPU, the time a step waited, on the
    # peer or for the interpreter lock
    step_wall_s: dict[str, float] = dc_field(default_factory=dict)

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
        them: the bits by step, then by frame kind, then in total, then the
        CPU and wall seconds by step; `alpha` and `wire_ratio` only when
        known."""
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
            "step2_pairs",
            "step2_buckets",
            "step2_fine_buckets",
            "step2_estimate",
            "step2_rounds",
            "step2_checks",
            "step2_rejected",
            "step2_walked",
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
        for step, seconds in self.step_cpu_s.items():
            out[f"{step}_cpu_s"] = round(seconds, 6)
            out[f"{step}_wall_s"] = round(self.step_wall_s[step], 6)
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
    one successor with an instance left where there is one.  `choices`
    holds, chain after chain, the rest: at each branch point, where c >= 2
    successors are left, the index of the next shingle among them in key
    order, in ceil(log2 c) bits (`_choice_bits`), packed big-endian and
    zero-padded to a byte.  Only the walk tells where one choice ends and
    the next starts.
    """

    heads: list[int]
    glued: list[int]
    choices: bytes


def _choice_bits(live: int) -> int:
    """The width of a choice among `live` successors: ceil(log2 live), 1 bit
    for the two of a binary word's branch point."""
    return (live - 1).bit_length()


def seams_to_records(word: ShingledWord, firsts: list[int]) -> MergeChains:
    """The chains of a word's merged labels, given the first position of each
    label in stream order (as `merge_until_ud` returns them).

    Replays the peer's walk (`ShingleTable.walk`) over the word's own
    multiset, chain by chain, and keeps a glued shingle's choice only where
    the walk reaches a branch node with two or more successors left.  The
    walk uses up the chains' positions in stream order, and only the counts
    of a branch node's successors decide a step, so the replay counts just
    those, at the positions that hold them.

    A position finds its row from the word's node ids, each the first row
    of its node's run (`ShingledWord`), and the last character of its
    window, so the word's keys are not read.
    """
    table, nodes, text, l = word.table, word.nodes, word.text, word.l
    keys, base, ranks = table.keys, table.base, table.ranks
    left = table.mults[:]

    def row_at(at: int) -> int:
        """The row of the shingle at position `at`: the row of its node's
        run whose key ends in its last character."""
        row, last = nodes[at], ranks[text[at + l - 1]]
        while keys[row] % base != last:
            row += 1
        return row

    # the end of each branch node's run by its first row: the one dict the
    # merge builds, over the branch nodes only, as every glued position
    # asks it
    branch = dict(table.branch_runs())
    heads: list[int] = []
    glued: list[int] = []
    choices: list[tuple[int, int]] = []
    for first, end in zip(firsts, itertools.chain(firsts[1:], [len(nodes) - 1])):
        if end - first > 1:
            heads.append(row_at(first))
            glued.append(end - first - 1)
            for at in itertools.compress(range(first, end), map(branch.__contains__, nodes[first:end])):
                row = row_at(at)
                # the step onto a glued shingle that leaves a branch node
                if at > first:
                    live = [r for r in range(nodes[at], branch[nodes[at]]) if left[r]]
                    if len(live) > 1:
                        choices.append((live.index(row), len(live)))
                left[row] -= 1
    return MergeChains(heads, glued, _pack_choices(choices))


def _pack_choices(choices: list[tuple[int, int]]) -> bytes:
    """(index, live successors) choices as `MergeChains` holds them: each
    index in `_choice_bits(live)` bits, big-endian, zero-padded to a byte,
    emitted a byte at a time as `_pack_block` does."""
    acc = 0
    nbits = 0
    out = bytearray()
    for index, live in choices:
        width = _choice_bits(live)
        acc = (acc << width) | index
        nbits += width
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
        acc &= (1 << nbits) - 1
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def apply_merge_records(initial: ShingleTable, chains: MergeChains) -> ShingleMultiset:
    """Rebuild a merged multiset from an initial multiset plus the chains of
    its merged labels.

    Each chain uses up one instance of every shingle it passes through, and
    the instances left over stay single labels.  The choices are read as
    the walk reaches each branch point, at the width its live successors
    set.  A chain the peer could not have sent raises ProtocolError: one
    whose head is past the distinct keys or has no instance left, one that
    reaches a shingle with no successor left, or a branch point past the
    last choice or whose choice is no index of a live successor, one whose
    label holds a delimiter inside it, and whole bytes or nonzero padding
    bits of choices left over after the last chain.

    The rebuild uses up `initial.mults` as its running count of the
    instances left, so the table holds no multiset afterwards, whether the
    rebuild returns or raises: a caller that reads the table again passes a
    copy.
    """
    keys = initial.keys
    left = initial.mults
    base = initial.base
    # the character of each rank, for the last character of a key
    chars = sorted(initial.ranks)
    merged: dict[str, int] = {}
    data = iter(chains.choices)
    acc = nbits = 0

    def read_choice(row: int, live: list[int]) -> int:
        nonlocal acc, nbits
        if not live:
            raise ProtocolError("merge chain steps on where no successor has an instance left")
        width = _choice_bits(len(live))
        while nbits < width:
            byte = next(data, None)
            if byte is None:
                raise ProtocolError("merge chain reaches a branch point past the last choice")
            acc = (acc << 8) | byte
            nbits += 8
        nbits -= width
        index = acc >> nbits
        acc &= (1 << nbits) - 1
        if index >= len(live):
            raise ProtocolError(f"merge chain's choice {index} is past the {len(live)} live successors")
        return live[index]

    for head, glued in zip(chains.heads, chains.glued):
        if head >= len(keys):
            raise ProtocolError(f"merge chain starts at key {head}, past the {len(keys)} distinct keys")
        if not left[head]:
            raise ProtocolError("merge chain starts at a shingle with no instance left")
        left[head] -= 1
        path = initial.walk(head, glued, left, read_choice)
        label = initial.shingle(head) + "".join([chars[keys[row] % base] for row in path])
        # a word's delimiters pad only its ends: no label of it walks on
        # from the last shingle to the first
        if not is_valid_shingle(label):
            raise ProtocolError("merge chain runs on through the delimiters that end the word")
        merged[label] = merged.get(label, 0) + 1
    leftover = sum(1 for _ in data)
    if leftover:
        raise ProtocolError(f"{leftover} bytes of choices left over after the last merge chain")
    if acc:
        raise ProtocolError("merge choices have nonzero padding bits")
    # the instances left over, a row's shingle sliced from the text at its
    # place, in C-level passes over the rows
    rows = list(itertools.compress(itertools.count(), left))
    places = [initial.places[row] for row in rows]
    ends = map(operator.add, places, itertools.repeat(initial.l))
    merged.update(zip(map(initial.text.__getitem__, map(slice, places, ends)), map(left.__getitem__, rows)))
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
    """`count` characteristic values mod the prime `p`, packed at its bit
    length: any entry of `p` or more is no residue, and 0 is no value of a
    product of factors z - e that are all nonzero.  At a narrow width a
    block one value short may fill as many bytes as the count asks for,
    its last value read from the padding: that value is 0."""
    values = _unpack_block(data, p.bit_length(), count, what)
    if values and max(values) >= p:
        raise ProtocolError(f"{what} block holds a value of the prime {p} or more")
    if 0 in values:
        raise ProtocolError(f"{what} block holds a value of 0, which no product of nonzero factors is")
    return values


def encode_hello(config: ReconConfig, word_len: int, symbols: str) -> bytes:
    """The initiator's hello: `version:u8`, `mode:u8` (0 fixed, 1
    rateless), l, m_hat and k as varints (`encode_varint`), `seed:u64be`,
    then its word (`_encode_word`).  The responder adopts these parameters,
    so its reply (`encode_reply`) does not echo them."""
    mode = 0 if config.mode == MODE_FIXED else 1
    return (
        bytes([PROTOCOL_VERSION, mode])
        + encode_varint(config.l)
        + encode_varint(config.m_hat)
        + encode_varint(config.k)
        + config.seed.to_bytes(8, "big")
        + _encode_word(word_len, symbols)
    )


def encode_reply(word_len: int, symbols: str) -> bytes:
    """The responder's hello: `version:u8`, then its word
    (`_encode_word`)."""
    return bytes([PROTOCOL_VERSION]) + _encode_word(word_len, symbols)


def _encode_word(word_len: int, symbols: str) -> bytes:
    """A hello's word: its length and the byte count of its observed
    symbols as varints, then the symbols in UTF-8."""
    sym = symbols.encode("utf-8")
    return encode_varint(word_len) + encode_varint(len(sym)) + sym


def decode_hello(payload: bytes) -> tuple[ReconConfig, int, str]:
    """(config, word length, symbols) of the initiator's hello.  Every
    varint is bounded by its parameter's bound before it is read in full
    (`read_varint`): l and m_hat below 2**32, k at most `MAX_K`, the word
    length below 2**64."""
    _check_version(payload)
    if len(payload) < 2:
        raise ProtocolError("hello holds no mode")
    mode = payload[1]
    if mode not in (0, 1):
        raise ProtocolError(f"hello mode byte {mode} is neither 0 (fixed) nor 1 (rateless)")
    l, at = read_varint(payload, 2, MOST_L, "hello l")
    m_hat, at = read_varint(payload, at, MOST_M_HAT, "hello m_hat")
    k, at = read_varint(payload, at, MAX_K, "hello k")
    if len(payload) < at + 8:
        raise ProtocolError("hello holds no seed")
    seed = int.from_bytes(payload[at : at + 8], "big")
    word_len, sym = _decode_word(payload, at + 8, "hello")
    try:
        config = ReconConfig(l=l, mode=MODE_FIXED if mode == 0 else MODE_RATELESS, m_hat=m_hat, k=k, seed=seed)
    except InvalidParameterError as exc:
        raise ProtocolError(f"bad hello: {exc}") from None
    return config, word_len, sym


def decode_reply(payload: bytes) -> tuple[int, str]:
    """(word length, symbols) of the responder's hello."""
    _check_version(payload)
    return _decode_word(payload, 1, "hello reply")


def _check_version(payload: bytes) -> None:
    if not payload:
        raise ProtocolError("empty hello frame")
    if payload[0] != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {payload[0]}")


def _decode_word(payload: bytes, at: int, what: str) -> tuple[int, str]:
    """The word (`_encode_word`) that ends a hello at `payload[at:]`."""
    word_len, at = read_varint(payload, at, MOST_WORD, f"{what} word length")
    sym_len, at = read_varint(payload, at, MAX_PAYLOAD, f"{what} symbol byte count")
    if len(payload) != at + sym_len:
        raise ProtocolError(f"{what} frame length mismatch")
    try:
        return word_len, payload[at:].decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError(f"{what} symbol field is not valid UTF-8") from None


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


def encode_bundle(
    bundle: EvalBundle, *, occ_bits: int, bucket_sizes: list[int], p: int, check: int, m: int
) -> bytes:
    """The session's occurrence width `occ_bits`, one byte; the smallest
    bucket size, packed `_count_bits(set size)` wide for the bundle's set
    size, the sum of the sizes; `width:u8`, the bit length of the largest
    size's offset from the smallest (at least 1); each size's offset, packed
    `width` wide; the session check's whole-set value `check` at the bit
    length of the check prime `m`; then the bucket values at the bit length
    of the session's prime `p`.  The peer derives the first width and both
    primes from the hellos, the points from the seed and their number from
    the hello.

    Everything but the bundle is keyword-only: perfbench/tracing.py counts
    the bundle's pairs from the one positional argument.
    """
    least = min(bucket_sizes)
    offsets = [size - least for size in bucket_sizes]
    width = _count_bits(max(offsets))
    return (
        encode_occ_bits(occ_bits)
        + _pack_block([least], _count_bits(bundle.set_size))
        + bytes([width])
        + _pack_block(offsets, width)
        + _pack_block([check], m.bit_length())
        + _pack_block(list(bundle.values), p.bit_length())
    )


def decode_bundle(
    payload: bytes, buckets: int, count: int, instances: int, p: int, m: int
) -> tuple[list[int], list[int], int]:
    """(bucket sizes, values, check value) of a bundle frame holding `count`
    residues mod `p` and one mod the check prime `m` from a sender of
    `instances` shingle instances.

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
    values = head + (m.bit_length() + 7) // 8
    (check,) = _unpack_residues(payload[head:values], 1, "bundle check", m)
    return sizes, _unpack_residues(payload[values:], count, "bundle", p), check


def encode_request(counts: list[int]) -> bytes:
    """`width:u8`, then one count per bucket packed `width` bits wide: the
    values the bucket asks for this round, 0 once it is done.  The width is
    the bit length of the largest count, at least 1."""
    width = _count_bits(max(counts, default=0))
    return bytes([width]) + _pack_block(counts, width)


def decode_request(payload: bytes, buckets: int) -> list[int]:
    if not payload:
        raise ProtocolError("pair request holds no width")
    width = payload[0]
    if not 1 <= width <= MAX_REQUEST_BITS:
        raise ProtocolError(f"pair request width {width} is outside [1, {MAX_REQUEST_BITS}]")
    counts = _unpack_block(payload[1:], width, buckets, "pair request")
    # a request comes only while a bucket wants values, and after a failed
    # session check every bucket does
    if not any(counts):
        raise ProtocolError("pair request asks for no value")
    return counts


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


def encode_handoff(runs: list[str], walked: list[str], remote_instances: int, l: int, chars: str) -> bytes:
    """The responder's DELTA:

    - the windows of `walked`, the initiator's one-sided instances its walk
      found (`_walk`), as one count packed `_count_bits(remote_instances)`
      wide for the initiator's instance count;
    - `walked` as runs (`encode_runs`);
    - the responder's own one-sided instances `runs` as runs, whose windows
      total the walk's plus the responder's instance count less the
      initiator's.
    """
    found = sum(len(run) - l + 1 for run in walked)
    return (
        _pack_block([found], _count_bits(remote_instances))
        + encode_runs(walked, l, chars)
        + encode_runs(runs, l, chars)
    )


def decode_handoff(payload: bytes, instances: int, mine: int, table: ShingleTable) -> tuple[list[str], list[str]]:
    """(the responder's runs, the runs of its walk) of a DELTA from a
    responder of `instances` shingle instances, to the initiator of `mine`
    instances whose word's multiset is `table`.

    The walk's total is checked before any run is read: it is at most the
    initiator's instances, and so many that the derived total of the
    responder's runs is not negative.  The walk's runs hold no shingle more
    often than the initiator's word, and the responder's runs end the frame.
    """
    bits = _count_bits(mine)
    at = (bits + 7) // 8
    if len(payload) < at:
        raise ProtocolError("hand-off holds no walk total")
    (found,) = _unpack_block(payload[:at], bits, 1, "delta")
    if found > mine:
        raise ProtocolError(f"the walk found {found} instances, more than the initiator's {mine}")
    total = found + instances - mine
    if total < 0:
        raise ProtocolError(
            f"the walk holds {found} instances, fewer than the initiator's {mine - instances} surplus instances"
        )
    chars = "".join(sorted(table.ranks))
    walked, used = _read_runs(payload[at:], table.l, found, chars)
    _check_held(table, _windows(walked, table.l))
    return decode_runs(payload[at + used :], table.l, total, chars), walked


def _check_held(table: ShingleTable, windows: ShingleMultiset) -> None:
    """Refuse one-sided instances of the table's word that it does not hold:
    a shingle more often than the word has it."""
    for shingle, mult in windows.entries.items():
        have = table.count(table.key(shingle))
        if mult > have:
            raise ProtocolError(f"the peer names {mult} instances of {shingle!r}, of which the word holds {have}")


def encode_merges(chains: MergeChains, instances: int) -> bytes:
    """The chain count, packed `_count_bits(instances // 2)` wide, as every
    chain covers two instances or more; one block packed
    `_count_bits(instances - 1)` wide of each chain's head and glued count,
    each below the sender's instance count; then the choices as they are
    (`MergeChains`): a merge costs a choice only at a branch point, 1 bit
    where two successors are left.  The peer derives the widths from the
    sender's instance count and its own walk, so no count of choices
    crosses the wire."""
    head_block = [value for chain in zip(chains.heads, chains.glued) for value in chain]
    return (
        _pack_block([len(chains.heads)], _count_bits(instances // 2))
        + _pack_block(head_block, _count_bits(instances - 1))
        + chains.choices
    )


def decode_merges(payload: bytes, instances: int) -> MergeChains:
    """The chains of a MERGES payload from a sender of `instances` shingle
    instances.

    Every chain covers two instances or more, which is checked before the
    head block is read, so no count the peer chooses makes this unpack more
    values than its instances allow; every chain glues at least one
    shingle onto its head, and all chains together cover at most the
    sender's instances.  The choices, the rest of the frame, are read only
    by the walk (`apply_merge_records`).
    """
    count_bits = _count_bits(instances // 2)
    start = (count_bits + 7) // 8
    (count,) = _unpack_block(payload[:start], count_bits, 1, "merges")
    if 2 * count > instances:
        raise ProtocolError(f"merges frame holds {count} chains, more than {instances} instances hold")
    bits = _count_bits(instances - 1)
    end = start + (2 * count * bits + 7) // 8
    block = _unpack_block(payload[start:end], bits, 2 * count, "merges")
    heads, glued = block[0::2], block[1::2]
    if 0 in glued:
        raise ProtocolError("merge chain glues no shingle")
    if sum(glued) + count > instances:
        raise ProtocolError(
            f"merge chains cover {sum(glued) + count} instances, more than the {instances} the peer announced"
        )
    return MergeChains(heads, glued, payload[end:])


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
        # the peer stops at the ABORT, not at its receive deadline; an
        # ABORT it sent needs none
        try:
            if not isinstance(exc, SessionAbortError):
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
        n_remote, peer_syms = decode_reply(wire.expect(FrameKind.HELLO).payload)
    else:
        config, n_remote, peer_syms = decode_hello(wire.expect(FrameKind.HELLO).payload)
        wire.send(FrameKind.HELLO, encode_reply(len(word), symbols))

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

    # one read of the thread's clock and of the wall clock at each step
    # boundary
    clock, wall = time.thread_time(), time.perf_counter()

    def lap(step: str) -> None:
        nonlocal clock, wall
        now, now_wall = time.thread_time(), time.perf_counter()
        report.step_cpu_s[step], report.step_wall_s[step] = now - clock, now_wall - wall
        clock, wall = now, now_wall

    # step 1: one rolling pass gives every shingle its node ids and key
    local = ShingledWord(word, config.l, alphabet)
    instances = len(local.keys)
    lap("step1")

    # step 2: reconcile the multisets
    wire.step = "step2"
    remote_instances = n_remote + config.l - 1
    buckets = step2_buckets(instances, remote_instances)
    only_local, only_remote = _reconcile_step(
        wire, role, config, alphabet, local, remote_instances, buckets, report
    )
    lap("step2")
    # the word's codes and keys go after step 2, before the merge allocates,
    # and its node ids after step 4, before step 6 allocates
    local.table.codes = None
    del local.keys

    # steps 3-4: merge to unique decodability (local work only)
    firsts = merge_until_ud(local)
    report.merges_local = instances - len(firsts)
    report.longest_label = max(b - a for a, b in zip(firsts, [*firsts[1:], instances]))
    chains = seams_to_records(local, firsts)
    table = local.table
    del local, firsts
    lap("merge")

    # step 5: exchange the chains of the merged labels
    wire.step = "step5"
    merges_payload = encode_merges(chains, instances)
    if role == ROLE_INITIATOR:
        wire.send(FrameKind.MERGES, merges_payload)
        remote_chains = decode_merges(wire.expect(FrameKind.MERGES).payload, remote_instances)
    else:
        remote_chains = decode_merges(wire.expect(FrameKind.MERGES).payload, remote_instances)
        wire.send(FrameKind.MERGES, merges_payload)
    report.merges_remote = sum(remote_chains.glued)
    lap("step5")

    # step 6: rebuild and uniquely decode the remote string.  The local
    # table, moved in place by the step-2 difference, is the peer's initial
    # multiset; it goes before the decode
    table.move(only_local, only_remote)
    remote_merged = apply_merge_records(table, remote_chains)
    del table
    remote_word = DeBruijnGraph.build(remote_merged, config.l, config.delimiter).decode_unique()
    lap("rebuild")

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
# room for within the work caps (`coarse_shift`)
COARSE_MARGIN = 8
# the fewest fine buckets whose estimate may join them (`coarse_shift`)
COARSE_MIN_FINE = 16


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
    the fine buckets, one total over all of them (`_caps`).  So B' is
    doubled until both parties' caps have room for every coarse bucket to
    take `COARSE_MARGIN` times its own part of the estimate plus one, and
    its k verification values, each value times its instances.  Without
    the margin a few differences more than the estimate shows would pass
    the cap of an honest session.

    Below `COARSE_MIN_FINE` fine buckets nothing joins.  A difference hides
    from the estimate where a fine bucket holds as many one-sided instances
    of each word, and over a few fine buckets it can hide whole: short
    unrelated words of one length showed no gap in any of four fine
    buckets, joined them all into one, and about one such join in three
    then passed the cap of an honest session.  A join saves such words a
    few verification values.

    Coarse bucket c joins the fine buckets c * 2**shift up to
    (c + 1) * 2**shift, as `bucket_of` takes the hash's top bits."""
    if len(own) < COARSE_MIN_FINE:
        return 0
    gaps = list(map(abs, map(operator.sub, own, theirs)))
    coarse = 1
    while coarse * COARSE_LOAD < sum(gaps) and coarse < len(own):
        coarse *= 2
    shift = (len(own) // coarse).bit_length() - 1
    caps = _caps(own, theirs, k)
    while shift:
        wanted = [COARSE_MARGIN * (sum(gap) + 1) + k for gap in _runs(gaps, shift)]
        if all(
            sum(map(operator.mul, wanted, map(sum, _runs(fine, shift)))) <= cap
            for fine, cap in zip((own, theirs), caps)
        ):
            break
        shift -= 1
    return shift


def _caps(own: list[int], theirs: list[int], k: int) -> tuple[int, int]:
    """(the responder's, the initiator's) step-2 work cap, less the session
    check's one pass, for fine buckets of `own` of the responder's
    instances and `theirs` of the initiator's: what their meters hold step
    2 to (`_work_cap`), each over its own bucket budgets."""
    mine = _responder_budgets(own, theirs, k)
    return _work_cap(own, mine, sum(mine), 0), _work_cap(theirs, *_initiator_budgets(theirs, sum(own), k), 0)


def _responder_budgets(own: list[int], theirs: list[int], k: int) -> list[int]:
    """The values each of the responder's decoders may take, over buckets
    of `own` of its instances and `theirs` of the initiator's: its own
    instances, the initiator's and one value for each of the k checks that
    may verify it (`RatelessDecoder.reopen`)."""
    return [mine + other + k for mine, other in zip(own, theirs)]


def _initiator_budgets(sizes: list[int], remote_instances: int, k: int) -> tuple[list[int], int]:
    """(each bucket's, the session's) most values the initiator serves
    beyond its bundle, over buckets of `sizes` of its instances against a
    responder of `remote_instances`.  The bundle, which the initiator sized
    itself, may over-serve a bucket done early: no bucket's true difference
    needs more values than its own instances, every remote instance and its
    one verification value, nor one more for each of the k - 1 failed
    checks that may reopen it; no session's more than both totals and
    B * k."""
    return (
        [size + remote_instances + k for size in sizes],
        sum(sizes) + remote_instances + len(sizes) * k,
    )


def _runs(values: list, shift: int) -> list[list]:
    """The runs of 2**shift consecutive entries of a fine-bucket list, one
    per coarse bucket."""
    width = 1 << shift
    return [values[at : at + width] for at in range(0, len(values), width)]


def _work_cap(sizes: list[int], budgets: list[int], total: int, whole: int) -> int:
    """The most step-2 evaluation work, values times the instances they are
    evaluated over, that protocol v16's budgets allow one party at the fine
    buckets: bucket values within each bucket's budget (`budgets`, over
    buckets of `sizes` instances) and `total` in all, the largest buckets
    served first, plus the session check's one pass over the `whole` set.
    At the coarse buckets no budget keeps a bucket's values from costing its
    whole run of fine buckets, so both parties hold step 2 to this."""
    work = whole
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
    the wider of the two; the session's field follows from it and from both
    words' instance counts (`session_field`).  Every bucket value is mod
    that field's prime and crosses at its bit length.  Both parties build
    their elements from their shingles' codes at the session's occurrence
    width (`_elements`) and hash them into `buckets` fine buckets, whose
    sizes the initiator's bundle carries.  The responder joins runs of fine
    buckets into as few coarse buckets as its estimate of the difference,
    the fine buckets' size gaps, allows (`coarse_shift`), and a rateless
    session's first DELTA_REQ opens with the shift; in fixed mode the
    bundle's values are the fine buckets' and they stay.  Each bucket runs
    its own source (initiator) or decoder (responder, its ladder started at
    the bucket's part of the estimate) over the session's one point stream,
    whose points go to the buckets in bucket order.  The initiator sends
    characteristic values: a first batch per bucket in its bundle, then
    whatever the responder requests, one DELTA_REQ holding a count for every
    bucket.  The mode chooses only the first batch: none in rateless mode,
    and in fixed mode ceil(min(m_hat, N_A + N_B) / B), a bucket's share of
    the bound, which no difference can pass, so a bucket whose share of the
    difference is larger tops up through the requests.  The bundle also
    carries the session check's one value: the initiator's whole-set value
    at the point z* of the check's own field (`check_field`).

    The responder feeds each bucket's decoder until it holds a candidate
    that fits one further value and whose local side splits over the
    bucket's own elements.  Once every bucket holds one, it walks its own
    table for the initiator's one-sided instances, testing each step
    against the buckets' remote polynomials (`_walk`), and runs the session
    check: the initiator's value times its own one-sided elements' factors
    must equal its own whole-set value times the walked elements' factors
    (`_session_check`).  A walk that leaves roots, which only a wrong
    candidate does, or a failed check reopens every bucket for one more
    value, and at most k checks run.  It then sends its own instances and
    those it walked as runs, and the initiator checks them against its word.

    Both parties hold the values they evaluate, each times its bucket's
    instances, and the session check's one pass to `_work_cap`, what
    protocol v16's budgets allowed at the fine buckets.
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
    codec = ShingleCodec(alphabet, session_field(len(alphabet), l, occ_bits, instances), occ_bits)
    p = codec.field.p
    m, z = check_field(instances, config.seed)
    report.occ_bits = occ_bits
    report.elem_bits = (local.space.size << occ_bits).bit_length()
    report.value_bits = p.bit_length()
    rateless = config.mode == MODE_RATELESS
    first = 0 if rateless else -(-min(config.m_hat, instances) // buckets)
    points = PointStream(codec.field, config.seed)
    elements = _elements(local.table, occ_bits)
    parts = partition(elements, buckets, config.seed)
    # the session check's one whole-set value
    whole = whole_value(elements, z, m)
    chars = "".join(sorted(local.table.ranks))
    report.step2_buckets = report.step2_fine_buckets = buckets
    if role == ROLE_INITIATOR:

        sizes = [len(part) for part in parts]
        bucket_budget, budget = _initiator_budgets(sizes, remote_instances, config.k)
        # a request past it is the peer's
        meter = _WorkMeter(
            _work_cap(sizes, bucket_budget, budget, len(elements)), buckets, ProtocolError, len(elements)
        )
        sources = [RatelessSource.from_elements(part, codec, points) for part in parts]
        requested = [0] * buckets
        pairs = [pair for source in sources for pair in source.next_pairs(first)]
        bundle = EvalBundle(tuple(point for point, _ in pairs), tuple(v for _, v in pairs), sum(sizes))
        wire.send(
            FrameKind.EVAL_BUNDLE,
            encode_bundle(bundle, occ_bits=occ_bits, bucket_sizes=sizes, p=p, check=whole, m=m),
        )
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
                    bucket_budget, budget = _initiator_budgets(sizes, remote_instances, config.k)
                    sources = [RatelessSource.from_elements(part, codec, points) for part in parts]
                    buckets = report.step2_buckets = len(parts)
                    requested = [0] * buckets
            counts = decode_request(payload, buckets)
            if rateless and not report.step2_rounds:
                # each bucket's first count is its share of the estimate and
                # its one verification value (`RatelessDecoder.from_elements`)
                report.step2_estimate = sum(count - 1 for count in counts if count)
            for b, count in enumerate(counts):
                if requested[b] + count > bucket_budget[b]:
                    raise ProtocolError(
                        f"pair request for {count} in bucket {b} after {requested[b]} "
                        f"exceeds its budget of {bucket_budget[b]}"
                    )
            if sum(requested) + sum(counts) > budget:
                raise ProtocolError(
                    f"pair request for {sum(counts)} after {sum(requested)} exceeds the budget of {budget}"
                )
            meter.charge(sum(map(operator.mul, counts, sizes)))
            pairs = [pair for source, count in zip(sources, counts) for pair in source.next_pairs(count)]
            requested = [r + count for r, count in zip(requested, counts)]
            wire.send(FrameKind.EVAL_PAIR, encode_pairs(pairs, p=p))
            report.step2_pairs += len(pairs)
            report.step2_rounds += 1
        # the hand-off's counts are bounded before anything in it is read
        remote_runs, walked = decode_handoff(frame.payload, remote_instances, len(elements), local.table)
        return _windows(walked, l), _windows(remote_runs, l)

    bundled = first * buckets
    sizes, values, theirs = decode_bundle(bundle_payload, buckets, bundled, remote_instances, p, m)
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
    decoder_budgets = _responder_budgets(own_sizes, sizes, config.k)
    # the responder stops before it asks for work past it
    meter = _WorkMeter(
        _work_cap(own_sizes, decoder_budgets, sum(decoder_budgets), len(elements)),
        buckets,
        BoundExceededError,
        len(elements),
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

    feed([first] * buckets, values)
    bucket = bucket_of(buckets, config.seed)
    while True:
        report.step2_rejected = sum(decoder.rejected for decoder in decoders)
        if all(decoder.result is not None for decoder in decoders):
            report.step2_checks += 1
            results = [decoder.result for decoder in decoders]
            roots = [root for result in results for root in result.local_roots]
            spans = _own_spans(local, roots, occ_bits)
            walk = _walk(local, spans, [list(result.remote_poly) for result in results], bucket, occ_bits, p)
            if walk is not None and _session_check(theirs, whole, roots, walk[1], z, m):
                break
            if report.step2_checks == config.k:
                raise ProtocolError(f"the session check failed {config.k} times")
            for decoder in decoders:
                decoder.reopen()
        counts = [0 if d.result is not None else min(d.pairs_wanted(), MAX_REQUEST) for d in decoders]
        meter.charge(sum(count * len(decoder.elements) for count, decoder in zip(counts, decoders)))
        wire.send(FrameKind.DELTA_REQ, head + encode_request(counts))
        head = b""
        report.step2_rounds += 1
        values = decode_pairs(wire.expect(FrameKind.EVAL_PAIR).payload, sum(counts), p)
        report.step2_pairs += len(values)
        feed(counts, values)
    walked, found = walk
    report.step2_walked = len(found)
    my_runs = [local.text[start : end + l] for start, end in spans]
    wire.send(FrameKind.DELTA, encode_handoff(my_runs, walked, remote_instances, l, chars))
    return _windows(my_runs, l), _windows(walked, l)


def _walk(
    word: ShingledWord,
    spans: list[tuple[int, int]],
    polys: list[list[int]],
    bucket: Callable[[int], int],
    occ_bits: int,
    p: int,
) -> tuple[list[str], list[int]] | None:
    """The initiator's one-sided instances, which the responder finds in its
    own de Bruijn graph, as (their runs, their elements); None when a root
    is left, which only a wrong polynomial leaves.

    `word` is the responder's, `spans` the first and last position of each
    of its runs (`_own_spans`), and `polys[b]` bucket b's hand-off
    polynomial, whose roots are the initiator's elements in that bucket
    that the responder lacks: of the shingle with key `key`, the
    occurrences above the responder's count c(key).  From a node the walk
    tries every successor key, `node * base + rank`, at its next occurrence
    c(key) + found(key) + 1 (`_element`).  Each node carries beside its key
    its delimiters and the value of its symbols (`CodeSpace.parse`), so a
    candidate's code follows from its node's, as value * |symbols| + digit
    where no delimiter takes part, with no candidate read digit by digit; a
    symbol after a trailing delimiter is no shingle and is not tried.  It
    skips a candidate past the 2**occ_bits occurrences or whose bucket
    (`bucket`) has found its degree's count, keeps one that is a root, and
    then goes on to the root's successor node, coming back to the node
    while it keeps yielding roots.  A test is exact, as a polynomial has
    only its own roots, and the walk stops once every bucket has found its
    degree's count.

    Passes.  The windows an edit adds to the initiator's word form a path
    that leaves the shared part of the graph at the node where the
    responder's own run for that edit starts, so the first pass starts from
    the first node of each run.  An edit in a periodic stretch can add a
    closed walk of windows that touches no run; it passes near the edit, so
    while roots are left a second pass starts from every node within 2l
    positions of a run.  While roots are still left, a third pass starts
    from every node of the word, all len(keys) + 1 of them.

    The third pass is complete.  A node left with no hit has had every
    one-sided window that leaves it found, and every found window's end
    node is walked, so the walk reaches every node that a path of the
    initiator's one-sided windows leads to from a start.  Take any one-sided
    window of the initiator's, leaving node u.  If the responder's word has
    u, u is a start.  Otherwise go back along the initiator's padded word
    from that window to the last node x before it that the responder's word
    has; there is one, as both padded words start at the node of l - 1
    delimiters.  Every window from x on to u enters a node the responder's
    word lacks, so it is no window of the responder's, that is one-sided:
    the walk follows them from x to u.  So with the right polynomials the
    third pass finds every root, and a root left after it means a wrong
    candidate.

    Work.  A node is tried from each start once and, with each root found,
    at most twice more, so the first pass makes at most base * (runs + 2 *
    sum of the degrees) evaluations, the second at most base * (r + 4l + 1)
    more for each run of r windows, and the third at most base * (N + 1 + 2
    * sum of the degrees) more, for the N = len(keys) instances of the
    word.  No run it returns goes on through the l - 1 delimiters from a
    word's end to its start: a nonempty word has one window that leaves
    that node, so the initiator's is one-sided only when the responder's is
    too, and then the responder's first run starts at the node, where the
    walk tries first.
    """
    table, keys, space = word.table, word.keys, word.space
    l, base, row_keys, mults = table.l, table.base, table.keys, table.mults
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
            # the responder's count of each successor key, by its last rank
            counts = [0] * base
            lo, hi = table.run(node)
            for row in range(lo, hi):
                counts[row_keys[row] % base] = mults[row]
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
                occ = counts[rank] + found.get(key, 0) + 1
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
    if remaining:
        walk_from([node_at(at) for at in range(len(keys) + 1)])
    if remaining:
        return None
    chars = "".join(sorted(table.ranks))

    def spell(node: int) -> str:
        digits = []
        for _ in range(l - 1):
            node, rank = divmod(node, base)
            digits.append(chars[rank])
        return "".join(reversed(digits))

    walked = [spell(first) + "".join(chars[key % base] for key in path) for first, *path in paths]
    return walked, list(itertools.chain.from_iterable(roots))


def _session_check(theirs: int, own: int, local_roots: list[int], walked: list[int], z: int, m: int) -> bool:
    """Whether the initiator's whole-set value `theirs` at the check point
    z* equals the responder's own `own` times the walked elements' factors
    over its own one-sided elements' factors: checked without a division,
    as theirs * prod (z* - r) over `local_roots` == own * prod (z* - e)
    over `walked`, mod the check prime `m` (`check_field`).

    With the responder's one-sided factors divided out, both sides are
    monic polynomials in z* of degree N_A, the initiator's instances: a
    bucket's candidate takes as many roots from the responder's side as its
    size difference leaves to the walk.  So when the initiator's multiset
    is not the responder's less its one-sided instances plus the walked
    ones, the check passes with probability at most N_A / (m - P61), below
    2**-CHECK_BITS, over the seed (Minsky, Trachtenberg & Zippel, IEEE
    Trans. IT 2003).
    """
    return theirs * whole_value(local_roots, z, m) % m == own * whole_value(walked, z, m) % m


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


def random_edits(word: str, alpha: int, rng: random.Random, symbols: str) -> str:
    """Apply `alpha` uniform random single-character insertions/deletions."""
    chars = list(word)
    for _ in range(alpha):
        if chars and rng.random() < 0.5:
            del chars[rng.randrange(len(chars))]
        else:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(symbols))
    return "".join(chars)
