"""Shingles, shingle multisets, and the q-gram map.

A shingle is a nonempty string over the alphabet plus the delimiter, with the
delimiter confined to a leading or trailing run.  A word of length n shingled
at length l yields the n + l - 1 windows of the word padded with l - 1
delimiters on each side, so the first and last windows are anchored at pure
delimiter runs.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Iterable, Iterator

from .alphabet import DEFAULT_DELIMITER, validate_word
from .errors import InvalidParameterError, InvalidShingleError, OverlapMismatchError


def is_valid_shingle(s: str, delimiter: str = DEFAULT_DELIMITER) -> bool:
    """True iff `s` is nonempty and any delimiters form a prefix or suffix run."""
    if not s:
        return False
    core = s.strip(delimiter)
    return delimiter not in core


def require_shingle(s: str, delimiter: str = DEFAULT_DELIMITER) -> str:
    if not is_valid_shingle(s, delimiter):
        raise InvalidShingleError(f"malformed shingle {s!r}")
    return s


def delimited(word: str, l: int, delimiter: str = DEFAULT_DELIMITER) -> str:
    """The word padded with l - 1 delimiters on each side."""
    pad = delimiter * (l - 1)
    return pad + word + pad


def shingle_sequence(word: str, l: int, delimiter: str = DEFAULT_DELIMITER) -> list[str]:
    """The ordered windows s0, s1, ... of the padded word; length |w| + l - 1."""
    if l < 2:
        raise InvalidParameterError(f"shingle length l must be >= 2, got {l}")
    validate_word(word, delimiter)
    padded = delimited(word, l, delimiter)
    return [padded[i : i + l] for i in range(len(padded) - l + 1)]


class ShingleMultiset:
    """A multiset of shingles with positive multiplicities.

    `base_len` records the window length used at the initial shingling; it is
    0 when the multiset is heterogeneous or of unknown origin.
    """

    __slots__ = ("entries", "base_len", "_order")

    def __init__(self, entries: Iterable[str] | dict[str, int] | Counter | None = None, base_len: int = 0):
        if entries is None:
            counter: Counter = Counter()
        elif isinstance(entries, (dict, Counter)):
            counter = Counter(dict(entries))
        else:
            counter = Counter(entries)
        for s, mult in counter.items():
            if mult < 1:
                raise InvalidParameterError(f"multiplicity for {s!r} must be >= 1")
        self.entries = counter
        self.base_len = base_len
        self._order: list[str] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShingleMultiset):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):  # pragma: no cover - multisets are not hashable
        raise TypeError("ShingleMultiset is unhashable")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)

    def __contains__(self, s: str) -> bool:
        return s in self.entries

    def __getitem__(self, s: str) -> int:
        return self.entries.get(s, 0)

    def __repr__(self) -> str:
        inner = ", ".join(f"{s!r}: {m}" for s, m in sorted(self.entries.items()))
        return f"ShingleMultiset({{{inner}}}, base_len={self.base_len})"

    def total(self) -> int:
        """Total count with multiplicity."""
        return sum(self.entries.values())

    def min_len(self) -> int:
        return min((len(s) for s in self.entries), default=0)

    def _canonical_order(self) -> list[str]:
        """The distinct shingles by code point, which is the order of their
        UTF-8 bytes; sorted once and kept, as a multiset is not changed once built."""
        if self._order is None:
            self._order = sorted(self.entries)
        return self._order

    def offsets(self) -> dict[str, int]:
        """The canonical index of each shingle's first instance: the number of
        instances of the shingles before it in canonical order."""
        order = self._canonical_order()
        return dict(zip(order, accumulate((self.entries[s] for s in order), initial=0)))

    def instances(self) -> list[tuple[str, int]]:
        """Canonical instance list: (shingle, occurrence) in canonical order,
        so instance (s, occ) sits at index offsets()[s] + occ - 1.

        Occurrences run 1..multiplicity, which turns the multiset into a set.
        Both reconciliation endpoints compute the same list from the same
        multiset, so instance indices agree without any shared ordering state.
        """
        entries = self.entries
        return [(s, occ) for s in self._canonical_order() for occ in range(1, entries[s] + 1)]

    def union(self, other: "ShingleMultiset") -> "ShingleMultiset":
        return ShingleMultiset(self.entries + other.entries, base_len=self.base_len or other.base_len)

    def difference(self, other: "ShingleMultiset") -> "ShingleMultiset":
        """Multiset difference; raises if `other` is not contained in self."""
        result = Counter(self.entries)
        for s, mult in other.entries.items():
            have = result.get(s, 0)
            if have < mult:
                raise InvalidParameterError(f"cannot remove {mult} x {s!r}, only {have} present")
            if have == mult:
                del result[s]
            else:
                result[s] = have - mult
        return ShingleMultiset(result, base_len=self.base_len)

    def to_text(self) -> str:
        """Render the bit-exact text format: `<multiplicity> TAB <shingle>` per line.

        Lines are sorted by the shingle's UTF-8 bytes, which is code-point order.
        """
        lines = [f"{self.entries[s]}\t{s}" for s in sorted(self.entries)]
        return "".join(line + "\n" for line in lines)

    @classmethod
    def from_text(cls, text: str, delimiter: str = DEFAULT_DELIMITER) -> "ShingleMultiset":
        counter: Counter = Counter()
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line:
                continue
            mult_s, sep, shingle = line.partition("\t")
            if not sep:
                raise InvalidParameterError(f"line {lineno}: missing tab separator")
            try:
                mult = int(mult_s)
            except ValueError:
                raise InvalidParameterError(f"line {lineno}: bad multiplicity {mult_s!r}") from None
            if mult < 1:
                raise InvalidParameterError(f"line {lineno}: multiplicity must be >= 1")
            require_shingle(shingle, delimiter)
            counter[shingle] += mult
        return cls(counter)


def bigram_map(word: str, delimiter: str = DEFAULT_DELIMITER) -> ShingleMultiset:
    """Multiset of length-2 windows of the delimited word; |w| + 1 entries."""
    return qgram_map(word, 2, delimiter)


def qgram_map(word: str, q: int, delimiter: str = DEFAULT_DELIMITER) -> ShingleMultiset:
    """Multiset of length-q windows of the (q-1)-padded word; |w| + q - 1 entries."""
    return ShingleMultiset(shingle_sequence(word, q, delimiter), base_len=q)


def shingling(word: str, l: int, delimiter: str = DEFAULT_DELIMITER) -> ShingleMultiset:
    """Shingle `word` at length l.  Use shingle_sequence() for the ordered view."""
    return qgram_map(word, l, delimiter)


def interior_qgrams(word: str, q: int) -> Counter:
    """Multiset of length-q windows of the raw word, without delimiter padding."""
    if q < 1:
        raise InvalidParameterError(f"q must be >= 1, got {q}")
    return Counter(word[i : i + q] for i in range(len(word) - q + 1))


def overlaps(s: str, t: str, l: int) -> bool:
    """True iff the length l-1 suffix of `s` equals the length l-1 prefix of `t`."""
    if l < 1:
        raise InvalidParameterError(f"l must be >= 1, got {l}")
    k = l - 1
    if len(s) < k or len(t) < k:
        raise InvalidParameterError(f"shingles shorter than l-1={k}: {s!r}, {t!r}")
    if k == 0:
        return True
    return s[-k:] == t[:k]


def noconcat(s: str, t: str, l: int) -> str:
    """Non-overlapping concatenation: s and t fused over their l-1 shared chars."""
    if not overlaps(s, t, l):
        raise OverlapMismatchError(f"{s!r} does not overlap {t!r} at l={l}")
    return s + t[l - 1 :]


def fold(shingles: Iterable[str], l: int) -> str:
    """Fold an overlapping chain of shingles back into one string."""
    it = iter(shingles)
    try:
        acc = next(it)
    except StopIteration:
        raise InvalidParameterError("cannot fold an empty chain") from None
    for s in it:
        acc = noconcat(acc, s, l)
    return acc
