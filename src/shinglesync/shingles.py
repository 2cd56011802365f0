"""Shingles, shingle multisets, and the q-gram map.

A shingle is a nonempty string over the alphabet plus the delimiter, with the
delimiter confined to a leading or trailing run.  A word of length n shingled
at length l yields the n + l - 1 windows of the word padded with l - 1
delimiters on each side, so the first and last windows are anchored at pure
delimiter runs.

`ShingledWord` holds the same windows as integers, from one rolling pass over
the padded word and one sort of its positions by key, and `ShingleTable` a
multiset of length-l shingles as aligned array columns, a row for each
distinct shingle under an integer key, the rows in canonical order.
`CodeSpace` numbers the same shingles without a digit for the delimiter.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, eq, floordiv, itemgetter, ne, setitem, sub
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
        # one copy: a mapping's multiplicities, or a count of an iterable's shingles
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
    """A multiset of length-l shingles as aligned columns, a row for each
    distinct shingle.

    A key reads its shingle as base-(|alphabet| + 1) digits, each character's
    digit its `rank_digits` rank, so keys order like their shingles: sorted
    keys are `ShingleMultiset`'s canonical order.  `key // base` and
    `key % base**(l-1)` are the keys of the shingle's first and last
    l - 1 characters, and `key % base` ranks its last character.

    Row r holds the r-th distinct key in sorted order, so a row number is
    its shingle's place in canonical order:

    * `keys[r]`, the key;
    * `places[r]`, where its shingle is in `text`:
      `text[places[r] : places[r] + l]`;
    * `mults[r]`, its multiplicity;
    * `codes[r]`, its code in `space`, the word's `CodeSpace`: None once
      a session no longer reads them;
    * `succ[r]`, the first row of its successors, the rows whose shingles
      begin with its last l - 1 characters.  They are one contiguous run of
      at most base rows, as their keys share all but the last digit; where
      there are none, `succ[r]` is the row where they would start;
    * `single[r]`, 1 where that run is one row, else 0.

    Each column is an `array('q')`, `single` a `bytearray`, and `keys` and
    `codes` are lists where a key does not fit 63 bits.  A key finds its
    row by bisection (`row`).  `move` is the one change a table takes: it
    turns the multiset into another in place, and patches the columns once
    for the rows it adds or empties.
    """

    __slots__ = ("l", "ranks", "base", "space", "text", "keys", "places", "mults", "codes", "succ", "single", "_top")

    def __init__(
        self,
        l: int,
        ranks: dict[str, int],
        space: CodeSpace,
        text: str,
        keys: array | list,
        places: array,
        mults: array,
        codes: array | list | None,
        succ: array,
        single: bytearray,
    ):
        self.l = l
        self.ranks = ranks
        self.base = len(ranks)
        self.space = space
        self.text = text
        self.keys = keys
        self.places = places
        self.mults = mults
        self.codes = codes
        self.succ = succ
        self.single = single
        # key % _top is the key of a shingle's last l - 1 characters
        self._top = self.base ** (l - 1)

    def __len__(self) -> int:
        return len(self.keys)

    def row(self, key: int) -> int | None:
        """The row of `key`, or None where the table does not hold it."""
        at = bisect_left(self.keys, key)
        return at if at < len(self.keys) and self.keys[at] == key else None

    def count(self, key: int) -> int:
        """The multiplicity of `key`, 0 where the table does not hold it."""
        at = self.row(key)
        return 0 if at is None else self.mults[at]

    def run(self, node: int) -> tuple[int, int]:
        """The rows [lo, hi) of the shingles that begin with node `node`, the
        key of l - 1 characters: at most base rows from the first key at or
        past node * base."""
        keys, base = self.keys, self.base
        lo = bisect_left(keys, node * base)
        return lo, bisect_left(keys, (node + 1) * base, lo, min(len(keys), lo + base))

    def branch_runs(self) -> list[tuple[int, int]]:
        """The successors of each branch node, as rows [lo, hi).

        A node is the key of l - 1 characters, and its successors are the
        rows whose shingles begin with it: the shingles a walk through the
        de Bruijn graph may take on from a shingle whose last l - 1
        characters it is.  They are a run of rows, found without trying
        each of the base characters.  A branch node has two or more.  A
        walk that uses up instances may need a choice only at a branch
        node, and needs one there when two or more of its successors still
        have an instance.
        """
        grams = list(map(floordiv, self.keys, repeat(self.base)))
        runs: list[list[int]] = []
        # each row that begins with the gram of the row before it
        for row in compress(count(1), map(eq, islice(grams, 1, None), grams)):
            if runs and runs[-1][1] == row:
                runs[-1][1] = row + 1
            else:
                runs.append([row - 1, row + 1])
        return [(lo, hi) for lo, hi in runs]

    def walk(self, row: int, steps: int, left: array, choose: Callable[[int, list[int]], int]) -> list[int]:
        """The rows of the `steps` shingles a walk glues on after the shingle
        of row `row`, each using up one instance in `left`, a running count
        of every row.

        A step goes on to a live successor of the current shingle (see
        `branch_runs`), one that still has an instance in `left`.  Where
        exactly one is live the walk takes it.  Anywhere else, at a branch
        node with two or more live or at a dead end, it takes
        `choose(row, live)`.
        """
        keys, succ, single, top = self.keys, self.succ, self.single, self._top
        path = []
        for _ in range(steps):
            after = succ[row]
            if single[row] and left[after]:
                row = after
            else:
                lo, hi = self.run(keys[row] % top)
                live = [at for at in range(lo, hi) if left[at]]
                row = live[0] if len(live) == 1 else choose(row, live)
            left[row] -= 1
            path.append(row)
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

    def shingle(self, row: int) -> str:
        at = self.places[row]
        return self.text[at : at + self.l]

    def move(self, remove: ShingleMultiset, add: ShingleMultiset) -> None:
        """Turn this multiset into itself less `remove`, which it must
        contain, plus `add`, in place.  A move that raises changes nothing.

        A key that `add` brings in gets its shingle's place at the end of
        `text`.  The columns are patched once, a slice at a time between
        the rows the move brings in or empties, not rebuilt.  A row's
        successors start as many rows later as the move brought in less it
        emptied at the nodes below the one its shingle ends in, and only
        the rows whose own node's run changed are looked up again.
        """
        keys, mults, base, l, top = self.keys, self.mults, self.base, self.l, self._top
        # the row of each key held before the move, and its change
        rows: dict[int, int] = {}
        change: dict[int, int] = {}
        for s, mult in remove.entries.items():
            key = self.key(s)
            at = self.row(key)
            have = 0 if at is None else mults[at]
            if have < mult:
                raise InvalidParameterError(f"cannot remove {mult} x {s!r}, only {have} present")
            rows[key], change[key] = at, -mult
        new = []
        for s, mult in add.entries.items():
            key = self.key(s)
            if key in change:
                change[key] += mult
            elif (at := self.row(key)) is not None:
                rows[key], change[key] = at, mult
            else:
                code = None if self.codes is None else self.space.code(s)
                new.append((key, len(self.text) + l * len(new), mult, code, s))
        for key, at in rows.items():
            mults[at] += change[key]
        self.text += "".join(s for *_, s in new)
        # the rows the move empties, and those it brings in, in key order
        gone = sorted(at for at in rows.values() if not mults[at])
        new.sort()
        if not gone and not new:
            return
        # the rows each node whose run changes gains or loses
        grown: dict[int, int] = {}
        for node, delta in [(keys[at] // base, -1) for at in gone] + [(key // base, 1) for key, *_ in new]:
            grown[node] = grown.get(node, 0) + delta
        succ, ends = self._shifted(grown)
        # each kept stretch of old rows [lo, hi), then the new row after it
        ins = [bisect_left(keys, key) for key, *_ in new]
        plan: list[tuple[int, int, tuple | None]] = []
        at = 0
        for cut, _, row in sorted([*zip(ins, repeat(0), new), *zip(gone, repeat(1), repeat(None))]):
            plan.append((at, cut, row))
            at = cut if row else cut + 1
        plan.append((at, len(keys), None))
        columns = []
        for c, column in enumerate((keys, self.places, mults, self.codes, succ, self.single)):
            if column is not None:
                out = column[:0]
                for lo, hi, row in plan:
                    out += column[lo:hi]
                    if row:
                        out.append(row[c] if c < 4 else 0)
                column = out
            columns.append(column)
        self.keys, self.places, self.mults, self.codes, self.succ, self.single = columns
        # the new rows, and the rows whose shingles end in a changed node,
        # each past the rows that went before it and the new rows before it
        redo = [at - bisect_left(gone, at) + j for j, at in enumerate(ins)]
        redo += [at - bisect_left(gone, at) + bisect_right(ins, at) for at in ends if mults[at]]
        for at in redo:
            lo, hi = self.run(self.keys[at] % top)
            self.succ[at] = lo
            self.single[at] = hi - lo == 1

    def _shifted(self, grown: dict[int, int]) -> tuple[array, list[int]]:
        """(`succ` with each row's successors moved by the rows that the
        nodes of `grown` gain or lose below the node its shingle ends in,
        the rows whose shingles end in a node of `grown`).

        The rows of one first character end in nodes in ascending order, so
        the shift is the same over each stretch of them between two nodes
        of `grown`, and a row that ends in one of them ends its stretch."""
        keys, top = self.keys, self._top
        nodes = sorted(grown)
        # the shift of a stretch before the first node, and past each node
        shifts = [0, *accumulate(map(grown.__getitem__, nodes))]
        lengths: list[int] = []
        ends: list[int] = []
        for first in range(self.base):
            lo, end = bisect_left(keys, first * top), bisect_left(keys, (first + 1) * top)
            # the keys of the rows of this first character that end in the nodes
            ending = list(map(add, nodes, repeat(first * top)))
            cuts = [lo, *map(bisect_right, repeat(keys), ending, repeat(lo), repeat(end)), end]
            lengths += map(sub, islice(cuts, 1, None), cuts)
            lasts = list(map(sub, islice(cuts, 1, len(cuts) - 1), repeat(1)))
            ends += compress(lasts, map(eq, map(keys.__getitem__, lasts), ending))
        steps = map(repeat, chain.from_iterable(repeat(shifts, self.base)), lengths)
        return array("q", list(map(add, self.succ, chain.from_iterable(steps)))), ends


def _tabled(keys: array | list, base: int) -> tuple[array | list, array, array, bytes, array]:
    """The keys, places and multiplicities of the table (`ShingleTable`)
    of a word whose windows have keys `keys`, where each gram's run of rows
    opens, and the word's node ids, from one stable sort of the positions
    by key: equal keys keep word order, so each row's place is its key's
    first position.

    Node j, the first l - 1 characters of shingle j, takes the first row of
    its gram's run of rows, whose keys share their first l - 1 digits.  The
    last node, the l - 1 delimiters that end the padded word, is node 0,
    the l - 1 that start it.

    Each sequence goes once the next no longer reads it, so the sort's
    boxed keys and positions set the peak.
    """
    boxed = keys.tolist() if isinstance(keys, array) else keys
    at = sorted(range(len(keys)), key=boxed.__getitem__)
    ordered = list(map(boxed.__getitem__, at))
    del boxed
    # True at the first position, in key order, of each distinct key.  A
    # column whose boxed ints fit under the sort's peak is gathered into a
    # list, which CPython fills faster than an array, and then copied
    fresh = [True, *map(ne, islice(ordered, 1, None), ordered)]
    rows = keys[:0]
    rows.extend(compress(ordered, fresh))
    del ordered
    grams = list(map(floordiv, rows, repeat(base)))
    # 1 at each row that starts a gram's run, and past the last row
    opens = b"\x01" + bytes(map(ne, islice(grams, 1, None), grams)) + b"\x01"
    # each row that begins with the gram of the row before it, a few where
    # grams seldom repeat
    joined = list(compress(count(1), map(eq, islice(grams, 1, None), grams)))
    del grams
    # the first row of each row's run
    first = list(range(len(rows)))
    for row in joined:
        first[row] = first[row - 1]
    nodes = array("q", [0]) * (len(at) + 1)
    deque(map(setitem, repeat(nodes), at, map(first.__getitem__, accumulate(islice(fresh, 1, None), initial=0))), 0)
    nodes[-1] = nodes[0]
    del first
    places = array("q", list(compress(at, fresh)))
    del at
    starts = list(compress(count(), fresh))
    del fresh
    starts.append(len(nodes) - 1)
    mults = array("q", list(map(sub, islice(starts, 1, None), starts)))
    return rows, places, mults, opens, nodes


# the indices `_picked` takes at once
PICK_CHUNK = 1024


def _picked(indices: Sequence[int], sources: tuple[Sequence, ...], outs: tuple) -> None:
    """Extend each of `outs` by its source's items at `indices`: a C-level
    pass (`itemgetter`) over each chunk of `PICK_CHUNK` of them, shared by
    the sources, so only a chunk's indices and items are boxed at once."""
    for at in range(0, len(indices), PICK_CHUNK):
        chunk = indices[at : at + PICK_CHUNK]
        pick = itemgetter(*chunk)
        for source, out in zip(sources, outs):
            out.extend(pick(source) if len(chunk) > 1 else [source[chunk[0]]])


def _windows(word: str, ranks: dict[str, int], space: CodeSpace, keys: array | list, codes: array | list) -> None:
    """Fill `keys` and `codes`, empty sequences, with the `ShingleTable`
    key and the `space` code of each window of `word` padded for `space`'s
    l, from one rolling pass over the word's symbols.

    The key rolls over the padded word's characters in base |alphabet| + 1,
    starting from its l - 1 leading delimiters, so after symbol u it is the
    key of window u; l - 1 trailing delimiters give the last windows'.  The
    code rolls over the symbols alone in base |symbols|: after symbol u it
    holds the value of the up to l symbols that end there, the code of
    window u when that window is the word's own.  The l - 1 windows at each
    end are delimiter-padded, and each takes its class's code from the
    value of the symbols it holds, the last m of those the pass held after
    its last one."""
    l, s, base = space.l, space.symbols, len(ranks)
    n = len(word)
    top, stop = base ** (l - 1), s ** (l - 1)
    gap = ranks[space.delimiter]
    key = code = 0
    for _ in range(l - 1):
        key = key * base + gap
    try:
        for r, d in zip(map(ranks.__getitem__, word), map(space.digits.__getitem__, word)):
            key = key % top * base + r
            keys.append(key)
            code = code % stop * s + d
            codes.append(code)
    except KeyError as exc:
        raise InvalidSymbolError(f"symbol {exc.args[0]!r} not in alphabet") from None
    for _ in range(l - 1):
        key = key % top * base + gap
        keys.append(key)

    def end(t: int) -> int:
        # window t holds word[a:b] behind max(0, l - 1 - t) delimiters
        a, b = max(0, t - l + 1), min(n, t + 1)
        return space.window(max(0, l - 1 - t), b - a, codes[b - 1] % s ** (b - a) if b > a else 0)

    head = codes[:0]
    head.extend(map(end, range(l - 1)))
    tail = list(map(end, range(max(n, l - 1), n + l - 1)))
    codes[: l - 1] = head
    codes.extend(tail)


class ShingledWord:
    """The shingles of one word as integers, from one rolling pass.

    Shingle i is the window `text[i : i + l]` of the padded word: the edge
    from node i to node i + 1, where node j is the gram `text[j : j + l - 1]`.

    * `keys[i]` is the `ShingleTable` key of shingle i;
    * `nodes[j]` is an id of node j, equal ids for equal grams: the first
      row of the table whose shingle begins with that gram, so every id is
      below the table's rows;
    * `table` holds the word's multiset as columns (`ShingleTable`), each
      distinct shingle at its first position, with its code in `space`,
      the word's `CodeSpace`.

    One sort of the positions by key, equal keys in word order, gives every
    column and the node ids; no dict is built.  `nodes` is an
    `array('q')`, and so is `keys` where every key fits 63 bits,
    (|alphabet| + 1)**l <= 2**63: binary words up to l = 39.  Wider keys are
    a list.  A session drops each sequence once the last step that reads it
    is done.
    """

    __slots__ = ("text", "l", "keys", "space", "nodes", "table")

    def __init__(self, word: str, l: int, alphabet: Alphabet):
        if l < 2:
            raise InvalidParameterError(f"shingle length l must be >= 2, got {l}")
        validate_word(word, alphabet.delimiter)
        text = delimited(word, l, alphabet.delimiter)
        ranks = rank_digits(alphabet)
        base = len(ranks)
        space = CodeSpace(alphabet, l)
        # 8 bytes a position where every key fits a machine word
        narrow = base**l <= 1 << 63
        keys, windows = (array("q"), array("q")) if narrow else ([], [])
        _windows(word, ranks, space, keys, windows)
        rows, places, mults, opens, nodes = _tabled(keys, base)
        # each row's code, and the node its first window enters, whose run
        # starts at its id; then whether that run is one row
        codes, succ, single = windows[:0], array("q"), bytearray()
        _picked(places, (windows, nodes[1:]), (codes, succ))
        del windows
        _picked(succ, (opens[1:],), (single,))

        self.text = text
        self.l = l
        self.keys = keys
        self.space = space
        self.nodes = nodes
        self.table = ShingleTable(l, ranks, space, text, rows, places, mults, codes, succ, single)

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
        keys, table = self.keys, self.table
        # the instances left to take of each key wanted in part
        left = {key: n for key, n in wanted.items() if n < table.count(key)}
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
