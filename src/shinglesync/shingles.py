"""Shingles, shingle multisets, and the q-gram map.

A shingle is a nonempty string over the alphabet plus the delimiter, with the
delimiter confined to a leading or trailing run.  A word of length n shingled
at length l yields the n + l - 1 windows of the word padded with l - 1
delimiters on each side, so the first and last windows are anchored at pure
delimiter runs.

`ShingledWord` holds the same windows as integers, from one rolling pass over
the padded word, and `ShingleTable` a multiset of length-l shingles under
integer keys that sort in canonical order.  `CodeSpace` numbers the same
shingles without a digit for the delimiter.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import compress, count
from typing import Callable, Iterable, Iterator, Sequence

from .alphabet import DEFAULT_DELIMITER, Alphabet, validate_word
from .errors import (
    InvalidParameterError,
    InvalidShingleError,
    InvalidSymbolError,
    OverlapMismatchError,
)


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

    def instances(self) -> list[tuple[str, int]]:
        """Canonical instance list: (shingle, occurrence) in canonical order,
        so instance (s, occ) sits after every instance of the shingles before
        s and occ - 1 instances of s.

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


def rank_digits(alphabet: Alphabet) -> dict[str, int]:
    """Each character's rank by code point among the symbols and the delimiter."""
    return {ch: i for i, ch in enumerate(sorted((*alphabet.symbols, alphabet.delimiter)))}


def code_count(symbols: int, l: int) -> int:
    """The number of `CodeSpace` codes of length-l shingles over `symbols`
    symbols: 1 + sum over m = 1..l of (l - m + 1) * symbols**m, which is
    never more than (symbols + 1)**l, the number of keys."""
    return 1 + sum((l - m + 1) * symbols**m for m in range(1, l + 1))


class CodeSpace:
    """Exact codes of the length-l shingles over an alphabet, with no digit
    spent on the delimiter.

    A shingle is `$**lead + x + $**trail` for a run x of m symbols.  Its code
    is the first code of its class (lead, trail) plus x's value in base
    |symbols|, each symbol's digit its rank by code point among the symbols.
    The classes with m >= 1 take consecutive blocks of |symbols|**m codes, by
    m from l down and then by lead, so a shingle without a delimiter is
    coded by its value alone; the all-delimiter shingle, m = 0, takes the
    last code.  The codes are injective and number `code_count`.
    """

    __slots__ = ("l", "delimiter", "digits", "symbols", "first", "size")

    def __init__(self, alphabet: Alphabet, l: int):
        self.l = l
        self.delimiter = alphabet.delimiter
        self.digits = {ch: i for i, ch in enumerate(sorted(alphabet.symbols))}
        self.symbols = len(self.digits)
        # the first code of each class (lead, trail) with a symbol
        self.first: dict[tuple[int, int], int] = {}
        at = 0
        for m in range(l, 0, -1):
            for lead in range(l - m + 1):
                self.first[lead, l - m - lead] = at
                at += self.symbols**m
        self.size = at + 1

    def window(self, lead: int, m: int, value: int) -> int:
        """The code of the shingle of `lead` leading delimiters, then `m`
        symbols of base-|symbols| value `value`, then delimiters."""
        if not m:
            return self.size - 1
        return self.first[lead, self.l - lead - m] + value

    def parse(self, s: str) -> tuple[int, int, int]:
        """(leading delimiters, value of the symbols, trailing delimiters) of
        `s`, a shingle or any shorter string of that form; a string of
        delimiters only counts them as leading."""
        core = s.lstrip(self.delimiter)
        symbols = core.rstrip(self.delimiter)
        value = 0
        try:
            for ch in symbols:
                value = value * self.symbols + self.digits[ch]
        except KeyError as exc:
            raise InvalidSymbolError(f"symbol {exc.args[0]!r} not in alphabet") from None
        return len(s) - len(core), value, len(core) - len(symbols)

    def code(self, shingle: str) -> int:
        """The code of a length-l shingle, read from its characters."""
        if len(shingle) != self.l:
            raise InvalidParameterError(f"shingle {shingle!r} does not have length l={self.l}")
        lead, value, trail = self.parse(shingle)
        return self.window(lead, self.l - lead - trail, value)


class ShingleTable:
    """A multiset of length-l shingles, each held under its key.

    A key reads its shingle as base-(|alphabet| + 1) digits, each character's
    digit its `rank_digits` rank, so keys order like their shingles: sorted
    keys are `ShingleMultiset`'s canonical order.  `key // base` and
    `key % base**(l-1)` are the keys of the shingle's first and last
    l - 1 characters, and `key % base` ranks its last character.

    `counts` holds the multiplicities.  The shingle of a counted key is
    `text[where[key] : where[key] + l]`.  `move` is the one change a table
    takes: it turns the multiset into another in place, and patches the
    sorted keys and successor index already built for the keys it adds or
    empties.  `order`, if given, is the sorted keys of `counts`.
    """

    __slots__ = ("l", "ranks", "base", "counts", "text", "where", "_top", "_order", "_runs", "_next")

    def __init__(
        self,
        l: int,
        ranks: dict[str, int],
        counts: dict[int, int],
        text: str,
        where: dict[int, int],
        order: list[int] | None = None,
    ):
        self.l = l
        self.ranks = ranks
        self.base = len(ranks)
        self.counts = counts
        self.text = text
        self.where = where
        # key % _top is the key of a shingle's last l - 1 characters
        self._top = self.base ** (l - 1)
        self._order = order
        self._runs: dict[int, list[int]] | None = None
        self._next: dict[int, int] | None = None

    @property
    def order(self) -> list[int]:
        """The distinct keys, sorted: `ShingleMultiset`'s canonical order."""
        if self._order is None:
            self._order = sorted(self.counts)
        return self._order

    def branch_runs(self) -> dict[int, list[int]]:
        """The successors of each branch node, by the node's key.

        A node is the key of l - 1 characters, and its successors are the
        distinct keys whose first l - 1 characters it is: the shingles a
        walk through the de Bruijn graph may take on from a shingle whose
        last l - 1 characters it is (`key % base**(l-1)`).  They are a run
        of the sorted keys, found without trying each of the base
        characters.  A branch node has two or more.  A walk that uses up
        instances may need a choice only at a branch node, and needs one
        there when two or more of its successors still have an instance.
        """
        if self._runs is None:
            self._index_successors()
        return self._runs

    def _index_successors(self) -> None:
        """Fill `_runs` and `_next`, the one successor of every node that is
        not a branch node: both at once, for `move` to patch together."""
        order, base = self.order, self.base
        # grams[i] is the node order[i] leaves from, so grams is sorted
        grams = [key // base for key in order]
        self._runs = {
            gram: order[bisect_left(grams, gram) : bisect_right(grams, gram)]
            for gram in {gram for gram, after in zip(grams, grams[1:]) if gram == after}
        }
        self._next = dict(zip(grams, order))
        for gram in self._runs:
            del self._next[gram]

    def walk(
        self, key: int, steps: int, left: dict[int, int], choose: Callable[[int, list[int]], int]
    ) -> list[int]:
        """The keys of the `steps` shingles a walk glues on after shingle
        `key`, each using up one instance in `left`, a running count of
        every distinct key.

        A step goes on to a live successor of the current shingle's last
        l - 1 characters (see `branch_runs`), one that still has an
        instance in `left`.  Where exactly one is live the walk takes it.
        Anywhere else, at a branch node with two or more live or at a dead
        end, it takes `choose(key, live)`.
        """
        if self._runs is None:
            self._index_successors()
        top, runs, only = self._top, self._runs, self._next.get
        path = []
        for _ in range(steps):
            after = only(key % top)
            if after is not None and left[after]:
                key = after
            else:
                live = [k for k in runs.get(key % top, ()) if left[k]]
                key = live[0] if len(live) == 1 else choose(key, live)
            left[key] -= 1
            path.append(key)
        return path

    def key(self, shingle: str) -> int:
        if len(shingle) != self.l:
            raise InvalidParameterError(f"shingle {shingle!r} does not have length l={self.l}")
        key = 0
        try:
            for ch in shingle:
                key = key * self.base + self.ranks[ch]
        except KeyError as exc:
            raise InvalidSymbolError(f"symbol {exc.args[0]!r} not in alphabet") from None
        return key

    def shingle(self, key: int) -> str:
        i = self.where[key]
        return self.text[i : i + self.l]

    def move(self, remove: ShingleMultiset, add: ShingleMultiset) -> None:
        """Turn this multiset into itself less `remove`, which it must
        contain, plus `add`, in place.  A move that raises changes nothing.

        A key that `add` brings in gets its shingle's place at the end of
        `text`.  The sorted keys and the successor index, where built, are
        patched for the keys the move brings in or empties, not rebuilt.
        """
        counts, where = self.counts, self.where
        dropped = [(self.key(s), s, mult) for s, mult in remove.entries.items()]
        added = [(self.key(s), s, mult) for s, mult in add.entries.items()]
        for key, s, mult in dropped:
            if counts.get(key, 0) < mult:
                raise InvalidParameterError(f"cannot remove {mult} x {s!r}, only {counts.get(key, 0)} present")
        # whether each key the move touches was counted before it
        held = {key: key in counts for key, _, _ in dropped + added}
        for key, _, mult in dropped:
            left = counts[key] - mult
            if left:
                counts[key] = left
            else:
                del counts[key]
        new = []
        for key, s, mult in added:
            counts[key] = counts.get(key, 0) + mult
            if key not in where:
                where[key] = len(self.text) + self.l * len(new)
                new.append(s)
        self.text += "".join(new)
        changed = [key for key, was in held.items() if was != (key in counts)]
        if changed and self._order is not None:
            self._order = _patched(self._order, sorted(changed), counts)
            if self._runs is not None:
                self._reindex({key // self.base for key in changed})

    def _reindex(self, grams: set[int]) -> None:
        """Set the `_runs` and `_next` entries of `grams` from the sorted keys."""
        order, base, runs, only = self._order, self.base, self._runs, self._next
        for gram in grams:
            start = bisect_left(order, gram * base)
            after = order[start : bisect_left(order, (gram + 1) * base, start)]
            runs.pop(gram, None)
            only.pop(gram, None)
            if len(after) > 1:
                runs[gram] = after
            elif after:
                only[gram] = after[0]


def _patched(order: list[int], changed: list[int], counts: dict[int, int]) -> list[int]:
    """Sorted `order` with the sorted keys of `changed` toggled: one that
    `counts` holds goes in, any other comes out.  Each change is a bisect,
    and the rest of `order` is copied a slice at a time."""
    out: list[int] = []
    at = 0
    for key in changed:
        cut = bisect_left(order, key, at)
        out += order[at:cut]
        if key in counts:
            out.append(key)
            at = cut
        else:
            at = cut + 1
    out += order[at:]
    return out


def _node_ids(keys: Sequence[int], base: int, top: int) -> array:
    """Dense ids of the nodes of shingles `keys`, equal ids for equal grams:
    node j is the first l - 1 characters of shingle j, and the last node
    the last l - 1 of the last shingle."""
    grams = [key // base for key in keys]
    grams.append(keys[-1] % top)
    ids = dict(zip(dict.fromkeys(grams), count()))
    return array("q", map(ids.__getitem__, grams))


def _tabled(keys: Sequence[int]) -> tuple[dict[int, int], dict[int, int], list[int]]:
    """The first position of each distinct key, its multiplicity in key
    order, and the sorted distinct keys, which share one int a key."""
    # later positions are overwritten
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    order = sorted(first)
    tally = Counter(keys)
    return first, dict(zip(order, map(tally.__getitem__, order))), order


def _window_codes(word: str, space: CodeSpace, codes: array | list) -> array | list:
    """The codes of the windows of `word` padded for `space`'s l, in
    `codes`, an empty sequence.

    One rolling pass reads the word's symbols in base |symbols|: after
    symbol u it holds the value of the up to l symbols that end there, the
    code of window u when that window is the word's own.  The l - 1 windows
    at each end are delimiter-padded, and each takes its class's code from
    the value of the symbols it holds, the last m of those the pass held
    after its last one."""
    l, s = space.l, space.symbols
    n = len(word)
    top = s ** (l - 1)
    code = 0
    for d in map(space.digits.__getitem__, word):
        code = code % top * s + d
        codes.append(code)

    def end(t: int) -> int:
        # window t holds word[a:b] behind max(0, l - 1 - t) delimiters
        a, b = max(0, t - l + 1), min(n, t + 1)
        return space.window(max(0, l - 1 - t), b - a, codes[b - 1] % s ** (b - a) if b > a else 0)

    head = codes[:0]
    head.extend(map(end, range(l - 1)))
    tail = list(map(end, range(max(n, l - 1), n + l - 1)))
    codes[: l - 1] = head
    codes.extend(tail)
    return codes


class ShingledWord:
    """The shingles of one word as integers, from one rolling pass.

    Shingle i is the window `text[i : i + l]` of the padded word: the edge
    from node i to node i + 1, where node j is the gram `text[j : j + l - 1]`.

    * `keys[i]` is the `ShingleTable` key of shingle i;
    * `codes[i]` is its code in `space`, the word's `CodeSpace`;
    * `nodes[j]` is a dense id of node j, equal ids for equal grams;
    * `table` holds the distinct shingles in canonical order, each at its
      first position, and their keys sorted once, here.

    `nodes` is an `array('q')`, and so are `keys` and `codes` where every
    key fits 63 bits, (|alphabet| + 1)**l <= 2**63: binary words up to
    l = 39.  Wider keys and codes are lists.  A session drops each sequence
    once the last step that reads it is done.
    """

    __slots__ = ("text", "l", "keys", "codes", "space", "nodes", "table")

    def __init__(self, word: str, l: int, alphabet: Alphabet):
        if l < 2:
            raise InvalidParameterError(f"shingle length l must be >= 2, got {l}")
        validate_word(word, alphabet.delimiter)
        text = delimited(word, l, alphabet.delimiter)
        ranks = rank_digits(alphabet)
        base = len(ranks)
        top = base ** (l - 1)
        try:
            rank_of = list(map(ranks.__getitem__, text))
        except KeyError as exc:
            raise InvalidSymbolError(f"symbol {exc.args[0]!r} not in alphabet") from None
        # 8 bytes a position where every key fits a machine word
        narrow = base**l <= 1 << 63
        keys = array("q") if narrow else []
        key = 0
        for r in rank_of:
            key = key % top * base + r
            keys.append(key)
        # the first l - 1 keys read only part of a window of leading delimiters
        del keys[: l - 1]
        # the ranks, and each helper's scratch, go before the next is
        # built, so the pass peaks near what it keeps
        del rank_of
        space = CodeSpace(alphabet, l)
        codes = _window_codes(word, space, array("q") if narrow else [])
        nodes = _node_ids(keys, base, top)
        first, counts, order = _tabled(keys)

        self.text = text
        self.l = l
        self.keys = keys
        self.codes = codes
        self.space = space
        self.nodes = nodes
        self.table = ShingleTable(l, ranks, counts, text, first, order)

    def runs(self, wanted: dict[int, int]) -> list[str]:
        """The runs of `spans`, each as the r + l - 1 characters of the
        padded word its r windows cover."""
        return [self.text[start : end + self.l] for start, end in self.spans(wanted)]

    def spans(self, wanted: dict[int, int]) -> list[tuple[int, int]]:
        """The first and last position of each maximal run of consecutive
        windows that `wanted`, a count of instances by key, picks, in word
        order.  A key wanted less often than it occurs gives first its
        positions next to a taken one, which extend a run, and only then the
        rest in word order."""
        keys, counts = self.keys, self.table.counts
        # the instances left to take of each key wanted in part
        left = {key: n for key, n in wanted.items() if n < counts.get(key, 0)}
        whole = wanted.keys() - left.keys()
        stack = list(compress(count(), map(whole.__contains__, keys)))
        taken = set(stack)
        rest = compress(count(), map(left.__contains__, keys))
        while stack or any(left.values()):
            if stack:
                at = stack.pop()
            else:
                at = next(at for at in rest if left[keys[at]] and at not in taken)
                left[keys[at]] -= 1
                taken.add(at)
            for near in (at - 1, at + 1):
                if near not in taken and 0 <= near < len(keys) and left.get(keys[near]):
                    left[keys[near]] -= 1
                    taken.add(near)
                    stack.append(near)
        ordered = sorted(taken)
        starts = [at for at in ordered if at - 1 not in taken]
        ends = [at for at in ordered if at + 1 not in taken]
        return list(zip(starts, ends))
