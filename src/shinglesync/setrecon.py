"""Multiset reconciliation via characteristic-polynomial evaluation.

Each (shingle, occurrence) instance maps injectively into the low range of a
prime field (by `ShingleCodec`, or from table keys in a session); both hosts
evaluate the product of (Z - element) over their multisets at shared points
drawn from the reserved top range.  The pointwise ratio of the two
evaluations equals the ratio of the difference polynomials,
whose roots decode back to the differing instances.  One decoder,
`RatelessDecoder`, absorbs the pairs one at a time and stops at the first
verified difference, whether they stream in on request (rateless mode) or
arrive as one bundle sized for a bound (fixed mode, `reconcile_fixed`).
The decoder finds its own side's roots among its own elements and keeps the
other side as a polynomial (`Delta.remote_poly`): a session tests the
candidates its own de Bruijn graph suggests against that, and only the
library's `Delta.only_remote` factors it.  `partition` splits encoded
elements into seeded hash buckets (`bucket_of` hashes one), and the
`from_elements` constructors build a source or
decoder for one bucket, so a session can reconcile each bucket on its own.
A session verifies each bucket with one pair (k = 1) and all buckets at
once with one whole-set check of its own; when that check fails,
`RatelessDecoder.reopen` takes a bucket's result back for one more pair.
Sources and decoders evaluate a batch of points at a time (`_char_values`).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Iterable

from .alphabet import Alphabet
from .errors import (
    BoundExceededError,
    EncodingCapacityError,
    InvalidParameterError,
    InvalidPointError,
    InvalidSymbolError,
    PointCollisionError,
)
# interpolate_rational, interpolate_rational_gauss, rational_from_modulus and
# NewtonInterpolator are unused here but stay importable from this module:
# perfbench/tracing.py rebinds them on it
from .field import (  # noqa: F401
    FieldSpec,
    NewtonInterpolator,
    PointStream,
    RationalInterpolator,
    find_roots,
    interpolate_rational,
    interpolate_rational_gauss,
    pdivmod,
    peval,
    pgcd,
    rational_from_modulus,
)
from .shingles import ShingleMultiset

DEFAULT_OCC_BITS = 16
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ShingleCodec:
    """Injective map between (shingle, occurrence) pairs and field elements.

    A shingle is read as digits base |alphabet|+1 (delimiter gets the top
    digit) behind a leading sentinel digit, then paired with the occurrence
    counter in the low `occ_bits` bits.  Everything must land below the
    field's reserved point range.  It serves shingles of any length; a
    session, which decodes no element, reads only `max_shingle_len` here.
    """

    alphabet: Alphabet
    field: FieldSpec
    occ_bits: int = DEFAULT_OCC_BITS

    @cached_property
    def _digits(self) -> dict[str, int]:
        """Each character's digit: a symbol's alphabet index, and the top
        digit, |alphabet|, for the delimiter."""
        digits = {ch: i for i, ch in enumerate(self.alphabet)}
        digits[self.alphabet.delimiter] = len(self.alphabet)
        return digits

    @cached_property
    def max_shingle_len(self) -> int:
        """The largest l whose smallest length-l encoding, base**l << occ_bits,
        lies below the encoding limit; no longer shingle can be encoded.

        A base below 2 (no symbols) is counted as 2, so the answer is finite.
        """
        base = max(2, len(self.alphabet) + 1)
        length, smallest = 0, 1 << self.occ_bits
        while smallest * base < self.field.encoding_limit:
            smallest *= base
            length += 1
        return length

    def encode(self, shingle: str, occurrence: int) -> int:
        if occurrence < 1:
            raise InvalidParameterError("occurrence counter starts at 1")
        if occurrence > (1 << self.occ_bits):
            raise EncodingCapacityError(f"occurrence {occurrence} exceeds {self.occ_bits} bits")
        base = len(self.alphabet) + 1
        digits = self._digits
        value = 1
        try:
            for ch in shingle:
                value = value * base + digits[ch]
        except KeyError as exc:
            raise InvalidSymbolError(f"symbol {exc.args[0]!r} not in alphabet") from None
        element = (value << self.occ_bits) | (occurrence - 1)
        if element >= self.field.encoding_limit:
            raise EncodingCapacityError(f"shingle {shingle!r} does not fit the encoding range")
        return element

    def decode(self, element: int) -> tuple[str, int]:
        if not 0 <= element < self.field.encoding_limit:
            raise InvalidParameterError("element outside the encoding range")
        occurrence = (element & ((1 << self.occ_bits) - 1)) + 1
        value = element >> self.occ_bits
        base = len(self.alphabet) + 1
        digits = []
        while value > 1:
            value, d = divmod(value, base)
            digits.append(d)
        if value != 1 or not digits:
            raise InvalidParameterError(f"element {element} is not a shingle encoding")
        chars = []
        for d in reversed(digits):
            chars.append(self.alphabet.delimiter if d == len(self.alphabet) else self.alphabet.symbols[d])
        return "".join(chars), occurrence

    def encode_multiset(self, ms: ShingleMultiset) -> list[int]:
        return [self.encode(s, occ) for s, occ in ms.instances()]

    def decode_multiset(self, elements: list[int]) -> ShingleMultiset:
        counts: dict[str, int] = {}
        for e in elements:
            s, _ = self.decode(e)
            counts[s] = counts.get(s, 0) + 1
        return ShingleMultiset(counts)


@dataclass(frozen=True)
class EvalBundle:
    """Characteristic-polynomial evaluations at shared sample points."""

    points: tuple[int, ...]
    values: tuple[int, ...]
    set_size: int

    def __post_init__(self):
        if len(self.points) != len(self.values):
            raise InvalidParameterError("points and values must align")
        if len(set(self.points)) != len(self.points):
            raise InvalidParameterError("sample points must be distinct")


@dataclass(frozen=True)
class Delta:
    """A verified difference, as the decoder leaves it.

    `local_roots` are the local elements missing on the remote side, and
    `only_local` decodes them.  `remote_poly` (little-endian, monic) has
    the remote side's missing elements as its roots, and `only_remote`
    factors it here.  A session reads neither multiset: it finds its own
    instances by position in its word, and the peer's by testing the
    candidates its own graph suggests against `remote_poly`; only the roots
    that escape that test cross to the peer, as the residual polynomial.
    """

    local_roots: tuple[int, ...]
    remote_poly: tuple[int, ...]
    codec: ShingleCodec = dc_field(compare=False)
    # the decoder's elements: no remote root may be one of them
    local_elements: list[int] = dc_field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.local_roots) + len(self.remote_poly) - 1

    @cached_property
    def only_local(self) -> ShingleMultiset:
        """The local side's instances; its roots are local elements, so they decode."""
        return self.codec.decode_multiset(list(self.local_roots))

    @cached_property
    def only_remote(self) -> ShingleMultiset:
        """The remote side's instances, from the roots of `remote_poly`.

        Raises BoundExceededError unless the polynomial splits into distinct
        roots, none of them a local element, that decode to instances (which
        also puts them below the encoding limit).
        """
        roots = find_roots(list(self.remote_poly), self.codec.field.p, random.Random(0x5EED))
        if roots is None:
            raise BoundExceededError("the remote difference polynomial does not split")
        if not set(self.local_elements).isdisjoint(roots):
            raise BoundExceededError("a remote difference root is a local element")
        try:
            return self.codec.decode_multiset(roots)
        except InvalidParameterError as exc:
            raise BoundExceededError(f"a remote difference root does not decode: {exc}") from None


def roots_by_candidates(poly: list[int], candidates: list[int], p: int) -> list[int] | None:
    """Roots of a squarefree polynomial known to lie in `candidates`.

    Evaluates at every candidate; returns None unless exactly degree-many
    distinct roots are found.  A monic linear polynomial's one root is read
    off its constant term and looked up, with no evaluation.
    """
    deg = len(poly) - 1
    if deg < 0:
        return None
    if deg == 0:
        return []
    if deg == 1 and poly[1] == 1:
        root = -poly[0] % p
        return [root] if root in set(candidates) else None
    roots = [e for e in set(candidates) if peval(poly, e, p) == 0]
    if len(roots) != deg:
        return None
    return sorted(roots)


def char_poly_evals(
    ms: ShingleMultiset, points: list[int], codec: ShingleCodec
) -> EvalBundle:
    """Evaluate prod (Z - element) over the encoded multiset at each point."""
    elements = codec.encode_multiset(ms)
    return eval_bundle(elements, points, codec.field)


def eval_bundle(elements: list[int], points: list[int], field: FieldSpec) -> EvalBundle:
    p = field.p
    limit = field.encoding_limit
    for z in points:
        if not limit <= z < p:
            raise InvalidPointError(f"point {z} lies inside the encoding range")
    return EvalBundle(tuple(points), tuple(_char_values(elements, points, p)), len(elements))


def _char_values(elements: list[int], points: list[int], p: int) -> list[int]:
    """prod (z - e) mod p over `elements`, at each point z, one multiply per
    element and point.  A session evaluates one bucket's elements at a time, so
    a point costs each party about n/B multiplies at B buckets."""
    out = []
    for z in points:
        acc = 1
        for e in elements:
            acc = acc * (z - e) % p
        out.append(acc)
    return out


def reconcile_fixed(
    local: ShingleMultiset,
    remote: EvalBundle,
    codec: ShingleCodec,
    bound: int,
    k: int = 8,
) -> Delta:
    """One-shot reconciliation assuming at most `bound` differing instances.

    Feeds the remote bundle's pairs in order to a `RatelessDecoder`, which
    pins down a difference of m instances with m + k pairs, so the bundle
    must carry at least `bound + k` points.  A bundle that runs out before a
    verified difference raises BoundExceededError, the caller's cue to raise
    the bound or switch to the rateless mode.
    """
    if bound < 0 or k < 1:
        raise InvalidParameterError("bound must be >= 0 and k >= 1")
    if len(remote.points) < bound + k:
        raise InvalidParameterError(f"need {bound + k} shared points, have {len(remote.points)}")
    decoder = RatelessDecoder(local, codec, remote.set_size, k=k)
    delta = decoder.feed_all(zip(remote.points, remote.values))
    if delta is None:
        raise BoundExceededError(f"no verified difference within {len(remote.points)} points")
    delta.only_remote  # factors the remote side now, so a bad one raises here
    return delta


def bucket_of(buckets: int, seed: int) -> Callable[[int], int]:
    """The bucket of one encoded element among `buckets`, a power of two: a
    seeded multiply-shift hash, the top log2(buckets) bits of a * e mod
    2**64 (Dietzfelbinger et al., J. Algorithms 1997), so two parties
    sharing the seed put every element in the same bucket.  `partition`
    splits a list by it, and a session tests single elements with it."""
    if buckets < 1 or buckets & (buckets - 1):
        raise InvalidParameterError(f"bucket count {buckets} is not a power of two")
    # the multiplier: odd, 64 bits, fixed by the seed
    a = int.from_bytes(hashlib.sha256(b"shinglesync-buckets:%d" % seed).digest()[:8], "big") | 1
    shift = 64 - (buckets.bit_length() - 1)
    return lambda e: (a * e & _MASK64) >> shift


def partition(elements: list[int], buckets: int, seed: int) -> list[list[int]]:
    """Split encoded elements into `buckets` lists by `bucket_of`; order
    within a bucket follows `elements`."""
    bucket = bucket_of(buckets, seed)
    out: list[list[int]] = [[] for _ in range(buckets)]
    for e, b in zip(elements, map(bucket, elements)):
        out[b].append(e)
    return out


class RatelessSource:
    """Produces (point, value) pairs for the local multiset on demand."""

    def __init__(self, ms: ShingleMultiset, codec: ShingleCodec, seed: int):
        self._start(codec.encode_multiset(ms), codec, PointStream(codec.field, seed))

    @classmethod
    def from_elements(
        cls, elements: list[int], codec: ShingleCodec, points: PointStream
    ) -> "RatelessSource":
        """A source over encoded elements that draws its points from `points`,
        a stream it may share with other sources."""
        source = cls.__new__(cls)
        source._start(list(elements), codec, points)
        return source

    def _start(self, elements: list[int], codec: ShingleCodec, points: PointStream) -> None:
        self.codec = codec
        self.elements = elements
        self.set_size = len(elements)
        self._points = points

    def next_pairs(self, count: int) -> list[tuple[int, int]]:
        points = self._points.take(count)
        return list(zip(points, _char_values(self.elements, points, self.codec.field.p)))


class RatelessDecoder:
    """Consumes remote (point, value) pairs until a verified delta emerges.

    Every pair is one node of an incremental rational interpolation
    (`RationalInterpolator`), fed at w = 1/z with value ratio * w**s, where s
    is the size difference and the larger side stays in the numerator, after
    a first node (0, 1) that makes both difference polynomials monic.  A
    difference of m instances is pinned down by m pairs; the candidate is
    accepted once it has fitted `k` further pairs unchanged and, after any
    common factor is cancelled, its local side has all its roots among the
    local elements.  The result is a `Delta`, whose remote side stays a
    polynomial.
    """

    def __init__(
        self,
        local: ShingleMultiset,
        codec: ShingleCodec,
        remote_set_size: int,
        k: int = 8,
    ):
        self._start(codec.encode_multiset(local), codec, remote_set_size, k)

    @classmethod
    def from_elements(
        cls,
        elements: list[int],
        codec: ShingleCodec,
        remote_set_size: int,
        k: int = 8,
        least: int = 0,
    ) -> "RatelessDecoder":
        """A decoder whose local side is a list of encoded elements.

        `least` is a lower bound on the difference, the instances on one
        side only: the request ladder starts at the first rung that reaches
        it, so the first request asks for `least` + k pairs, one more when
        `least` and the size difference differ in parity (`pairs_wanted`)."""
        decoder = cls.__new__(cls)
        decoder._start(list(elements), codec, remote_set_size, k, least)
        return decoder

    def _start(
        self, elements: list[int], codec: ShingleCodec, remote_set_size: int, k: int, least: int = 0
    ) -> None:
        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        if not 0 <= least <= len(elements) + remote_set_size:
            raise InvalidParameterError(f"a difference of {least} is outside [0, both sides' instances]")
        self.codec = codec
        self.k = k
        self.elements = elements
        self.size_diff = len(self.elements) - remote_set_size
        # the interpolator's shift, deg num - deg den, is never negative, so
        # the larger difference side goes in the numerator
        self._flip = self.size_diff < 0
        # no true difference exceeds both multisets, so it is found by then
        self.budget = len(self.elements) + remote_set_size + k
        # request ladder: instances beyond the forced size difference, per
        # side; a difference has the parity of the size difference, so one
        # of at least `least` holds at least half of the rest on each side
        self._t = -(-max(0, least - abs(self.size_diff)) // 2)
        self._interp = RationalInterpolator(codec.field.p, abs(self.size_diff))
        self._interp.add_node(0, 1)
        self.pairs_consumed = 0
        self.rejected = 0  # candidates refused by `_decode` or taken back by `reopen`
        self.result: Delta | None = None

    def reopen(self) -> None:
        """Take back the result, after a check beyond this decoder failed.

        The decoder then wants more pairs, and accepts a candidate only once
        it has fitted one pair more than before (`k` grows by one, and the
        budget with it): a right candidate comes back after one pair, and a
        wrong one changes at the first pair it does not fit.
        """
        if self.result is None:
            raise InvalidParameterError("no result to reopen")
        self.result = None
        self.k += 1
        self.budget += 1
        self.rejected += 1

    def pairs_wanted(self) -> int:
        """How many more pairs the current rung of the request ladder needs."""
        deg_num, deg_den = self._t + abs(self.size_diff), self._t
        return max(0, min(deg_num + deg_den + self.k, self.budget) - self.pairs_consumed)

    def feed(self, point: int, value: int, local: int | None = None) -> Delta | None:
        """Consume one remote pair; returns the result once confident.

        `local` is the local side's characteristic value at `point`, when the
        caller has already evaluated it (`feed_all` does, for a whole batch).
        """
        if self.result is not None:
            return self.result
        if value == 0:
            raise PointCollisionError("remote evaluation is zero at a sample point")
        field = self.codec.field
        if not field.encoding_limit <= point < field.p:
            raise InvalidPointError(f"point {point} lies inside the encoding range")
        p = field.p
        acc = _char_values(self.elements, [point], p)[0] if local is None else local
        if acc == 0:
            raise PointCollisionError("local evaluation is zero at a sample point")
        top, bot = (value, acc) if self._flip else (acc, value)
        # node w = 1/z carries (top / bot) * w**shift; one inverse of
        # z * q, q = bot * z**shift, gives both 1/z and 1/q
        q = bot * pow(point, self._interp.shift, p) % p
        inv = pow(point * q % p, -1, p)
        self._interp.add_node(inv * q % p, top * inv % p * point % p)
        self.pairs_consumed += 1
        if self._attempt():
            return self.result
        if self.pairs_consumed >= self.budget:
            raise BoundExceededError(f"no verified difference within {self.budget} pairs")
        while self.pairs_wanted() == 0:
            # exact up to 32 per side, widening beyond
            self._t += 1 if self._t < 32 else max(1, self._t // 8)
        return None

    def feed_all(self, pairs: Iterable[tuple[int, int]]) -> Delta | None:
        """Feed pairs in order until a result emerges; None if they run out first.

        Pairs beyond the decoder's budget are not drawn from `pairs`.  The
        local side is evaluated at the points of the rest in one `eval_bundle`
        call, then the pairs are fed one at a time, so pairs after the result
        are evaluated but not fed.  A batch `eval_bundle` refuses (a point
        outside the reserved range, or a repeated one) is fed without it, so
        its error surfaces at the pair that causes it.
        """
        if self.result is not None:
            return self.result
        pairs = list(itertools.islice(pairs, max(0, self.budget - self.pairs_consumed)))
        try:
            local = eval_bundle(self.elements, [z for z, _ in pairs], self.codec.field).values
        except (InvalidPointError, InvalidParameterError):
            local = (None,) * len(pairs)
        for (point, value), acc in zip(pairs, local):
            result = self.feed(point, value, acc)
            if result is not None:
                return result
        return None

    def _attempt(self) -> bool:
        candidate = self._interp.candidate(self.k)
        if candidate is None:
            return False
        if self._decode(*candidate):
            return True
        self._interp.reject()
        self.rejected += 1
        return False

    def _decode(self, num: list[int], den: list[int]) -> bool:
        p = self.codec.field.p
        local_poly, remote_poly = (den, num) if self._flip else (num, den)
        # drop any common factor, then pull the local side's roots out of the
        # local elements directly; the remote side stays a polynomial
        g = pgcd(local_poly, remote_poly, p)
        if len(g) > 1:
            local_poly = pdivmod(local_poly, g, p)[0]
            remote_poly = pdivmod(remote_poly, g, p)[0]
        local_roots = roots_by_candidates(local_poly, self.elements, p)
        if local_roots is None:
            return False
        self.result = Delta(tuple(local_roots), tuple(remote_poly), self.codec, self.elements)
        return True
