"""Streaming unique-decodability decider.

The decider consumes symbols in batches and maintains, per symbol: the
first/last positions seen so far (a first position of 0 marks it unvisited),
an on-cycle flag, one child and two parent entries, and a stack of visited
symbols.  A stream is rejected the moment its consumed prefix stops being
uniquely decodable from its length-2 windows; rejection is absorbing.  State
size depends only on the alphabet, never on the stream length.

Two rejection rules apply when consuming character c after prefix u:

* cycle intrusion: a new edge arrives at a symbol already marked as lying on
  a cycle;
* communicating parents: c already has two distinct in-neighbors whose
  occurrence intervals in u overlap (the interval test stands in for a
  strong-connectivity query and is validated against the enumeration oracle).

Pevzner's loop-swap argument ("l-tuple DNA sequencing: computer analysis",
J. Biomol. Struct. Dyn. 1989) shows that they bound the degrees themselves:

* A symbol gains its second parent only by a new edge into a visited
  symbol, which closes a cycle through it and marks it on-cycle (the first
  symbol is marked by its first parent edge).  Cycle intrusion then rejects
  any new edge into it, so a third parent never reaches a rule.
* A step leaves the current symbol p while p has at most one child.  Had
  it children c0 != c1, the accepted prefix u would hold p at positions
  i < j < k = |u| with u[i+1] = c0 and u[j+1] = c1.  Swapping the closed
  walks u[i+1..j] and u[j+1..k], both from p back to p, gives a different
  word with the same bigrams, delimiters included: u would not be uniquely
  decodable, against the decider's soundness (checked exhaustively against
  the enumeration oracle).  So one child entry, p's first, tells a new edge.
* Both hold in `merge_until_ud`: its live labels form a node-id stream its
  rules accepted, and its undo restores state exactly.

Every rule is checked before a step changes any state, so a rejected step
changes only the verdict.  `_Core.feed` runs the rules over a batch in one
loop and stops at the batch's rejection; a push of one symbol is a one-id
batch.

So an accepted stream has at most 2|Σ| distinct edges, one a parent entry,
and all but that many of its steps walk an edge already walked: the step
from p to child[p].  Such a step changes only last_ix, and meets only the
communicating-parents rule.  `_Core.feed_bytes` takes ids as bytes or a
bytearray (an alphabet of at most 255 symbols, so 255 marks an empty child
entry) and splits the batch at its new edges.  A stretch of walked steps is
found in C: the batch translated through the child table is each step's
expected symbol, and the first difference from the batch ends the stretch.
Halving finds it by comparing slices, which runs as memcmp, down to 64
bytes, where an XOR as little-endian ints places it.  The stretch is
applied in bulk, each symbol's last position from `rfind`.  Along walked
edges first_ix, child, the parents, on_cycle and the stack stay as they
are, and intervals only grow; so if the two parents of each symbol the
stretch walks into are apart at its end, they were apart at every step of
it, and one test a symbol at the end stands for all of them.  Where the
test fails, the stretch replays through `feed`, which places the rejection
exactly (or accepts, when the intervals met only after the symbol's last
step).  Each new edge is a one-id `feed`.  A stretch is 64 symbols after a
new edge and doubles up to 64 KiB, so the C work a new edge wastes is
bounded, and a stream rejected early costs little past its intake.

`TokenDecider` runs the same transition system over an interned alphabet of
length l-1 node grams, where each pushed shingle contributes one edge.
`feed_labels` walks such labelled edges through a core and holds the rule
that a node pair carries one label; the token decider and the de Bruijn
decode, which walks its graph's own node ids, share it.
`merge_until_ud` runs the transition system with undo over a word's node
ids: a rejected shingle is fused with its predecessor into their transitive
closure and retried, which always terminates because a single label spanning
the whole stream is accepted.  Its loop holds its own copy of the two rules
and of their undo, in flat arrays, because a session's merge takes about two
steps and one undo a shingle; `tests/test_decider.py::TestMerging::
test_span_merge_matches_the_string_loop` pins the copy to `_Core.feed`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from .alphabet import DEFAULT_DELIMITER, Alphabet
from .errors import (
    InvalidParameterError,
    InvalidShingleError,
    InvalidSymbolError,
    InvalidTokenError,
)
from .shingles import ShingledWord, shingle_sequence


class Reason(Enum):
    CYCLE_INTRUSION = "cycle-intrusion"
    COMMUNICATING_PARENTS = "communicating-parents"
    # mixed-length streams only: a second, differently-labeled edge between
    # the same node pair makes the two labels swappable in any walk, so the
    # multiset cannot decode uniquely.  Fixed-length streams never trip this
    # because source and target grams determine a length-l label completely.
    PARALLEL_LABELS = "parallel-labels"


@dataclass(frozen=True)
class Verdict:
    """`ok` means the stream so far is still uniquely decodable.

    When not ok, `reason` names the rejection rule and `position` is the
    1-based index of the push that tripped it.
    """

    ok: bool
    reason: Reason | None = None
    position: int | None = None

    def __bool__(self) -> bool:
        return self.ok


STILL_UD = Verdict(True)

# The most symbols whose ids travel as bytes: 255 is the child table's blank.
BYTE_SLOTS = 255
# A walked stretch's length after a new edge, and its cap as it doubles.
FIRST_STRETCH = 64
LAST_STRETCH = 1 << 16
# The most bytes whose first difference is found by XOR as ints.
DIFF_WORD = 64


class _Core:
    """Shared transition system over dense integer symbol ids.

    The state is flat, one entry a slot in each list: `first_ix` and
    `last_ix` hold the 1-based positions of a symbol's first and last visits
    (`first_ix` is 0 while the symbol is unvisited), and each slot has one
    child and two parent entries, -1 while empty (the module docstring shows
    why they suffice).
    """

    __slots__ = (
        "first_ix",
        "last_ix",
        "on_cycle",
        "child",
        "parent0",
        "parent1",
        "stack",
        "prev",
        "pos",
        "verdict",
    )

    def __init__(self, slots: int):
        self.first_ix = [0] * slots
        self.last_ix = [0] * slots
        self.on_cycle = [False] * slots
        self.child = [-1] * slots
        self.parent0 = [-1] * slots
        self.parent1 = [-1] * slots
        self.stack: list[int] = []
        self.prev = -1
        self.pos = 0
        self.verdict: Verdict = STILL_UD

    def grow_to(self, slots: int) -> None:
        more = slots - len(self.first_ix)
        if more > 0:
            self.first_ix += [0] * more
            self.last_ix += [0] * more
            self.on_cycle += [False] * more
            self.child += [-1] * more
            self.parent0 += [-1] * more
            self.parent1 += [-1] * more

    def slot_count(self) -> int:
        return len(self.first_ix)

    def step(self, cid: int) -> Verdict:
        """Consume one symbol id: a one-id `feed`."""
        return self.feed((cid,))

    def feed(self, ids) -> Verdict:
        """Consume a batch of symbol ids, stopping at the first rejection.

        The two rules run in one loop over the state held in locals.  Every
        rule is checked before a step changes any state, so a rejected step
        changes only the verdict, which absorbs: the batch leaves exactly the
        state of its accepted prefix, fed one id at a time.
        """
        if not self.verdict.ok:
            return self.verdict
        first_ix, last_ix, on_cycle = self.first_ix, self.last_ix, self.on_cycle
        child, parent0, parent1 = self.child, self.parent0, self.parent1
        stack = self.stack
        p, pos = self.prev, self.pos
        ids = iter(ids)
        if p < 0:
            # the first symbol only visits, and a lone visit cannot fail
            for p in ids:
                pos = first_ix[p] = last_ix[p] = 1
                stack.append(p)
                break
        for pos, cid in enumerate(ids, pos + 1):
            new_edge = child[p] != cid
            if new_edge and on_cycle[cid]:  # only a visited symbol is on a cycle
                reason = Reason.CYCLE_INTRUSION
                break
            b = parent1[cid]
            if b >= 0:
                a = parent0[cid]
                if not (last_ix[a] < first_ix[b] or last_ix[b] < first_ix[a]):
                    reason = Reason.COMMUNICATING_PARENTS
                    break
            if new_edge:
                if not first_ix[cid]:
                    first_ix[cid] = pos
                    stack.append(cid)
                else:
                    # close a new cycle: unwind the visit stack to the
                    # previous occurrence of cid, marking everything popped
                    while True:
                        v = stack.pop()
                        on_cycle[v] = True
                        if v == cid:
                            break
                if child[p] < 0:
                    child[p] = cid
                if parent0[cid] < 0:
                    parent0[cid] = p
                else:
                    parent1[cid] = p
            last_ix[cid] = pos
            p = cid
        else:
            self.prev, self.pos = p, pos
            return STILL_UD
        self.prev, self.pos = p, pos - 1
        return self._reject(reason, pos)

    def feed_bytes(self, data: bytes | bytearray) -> Verdict:
        """`feed` for ids as bytes, in a core of at most `BYTE_SLOTS` slots:
        walked stretches go in bulk and every other step through `feed` (see
        the module docstring).  The verdict and the state are `feed`'s."""
        if not self.verdict.ok or not data:
            return self.verdict
        start = 0
        if self.prev < 0:
            self.feed(data[:1])  # a lone first visit cannot fail
            start = 1
        child = self.child
        table = bytearray(b"\xff") * 256
        for p, c in enumerate(child):
            if c >= 0:
                table[p] = c
        n, span = len(data), FIRST_STRETCH
        while start < n:
            end = min(start + span, n)
            # the symbol each step of the stretch takes if it walks its edge
            if start:
                expected = data[start - 1 : end - 1].translate(table)
            else:
                expected = (bytes((self.prev,)) + data[: end - 1]).translate(table)
            got = data[start:end]
            walked = end - start if expected == got else _first_difference(expected, got)
            if walked and not self._walk(data, start, start + walked):
                verdict = self.feed(data[start : start + walked])
                if not verdict.ok:
                    return verdict
            start += walked
            if start < end:
                p = self.prev
                verdict = self.feed(data[start : start + 1])
                if not verdict.ok:
                    return verdict
                table[p] = child[p]
                start += 1
                span = FIRST_STRETCH
            else:
                span = min(2 * span, LAST_STRETCH)
        return STILL_UD

    def _walk(self, data: bytes | bytearray, lo: int, hi: int) -> bool:
        """Apply `data[lo:hi]`, a stretch of walked edges from `prev`, in
        bulk, or change nothing and return False if its end test finds two
        parents' intervals that meet."""
        first_ix, last_ix, child = self.first_ix, self.last_ix, self.child
        parent0, parent1 = self.parent0, self.parent1
        base = self.pos + 1 - lo  # the 1-based position of data[i] is base + i
        # the stretch follows child entries from prev, so the symbols it
        # holds are the first ones of that walk, at most one a slot
        saved = {}
        c = self.prev
        for _ in range(min(hi - lo, len(child))):
            c = child[c]
            if c in saved:
                break
            saved[c] = last_ix[c]
            last_ix[c] = base + data.rfind(c, lo, hi)
        for c in saved:
            b = parent1[c]
            if b >= 0:
                a = parent0[c]
                if not (last_ix[a] < first_ix[b] or last_ix[b] < first_ix[a]):
                    for c, last in saved.items():
                        last_ix[c] = last
                    return False
        self.prev, self.pos = data[hi - 1], base + hi - 1
        return True

    def _reject(self, reason: Reason, pos: int) -> Verdict:
        """The one writer of a rejection."""
        self.verdict = Verdict(False, reason, pos)
        return self.verdict


def _first_difference(a: bytes | bytearray, b: bytes | bytearray) -> int:
    """The first index at which `a` and `b`, of one length, differ; they
    must differ somewhere.  Halving compares slices, in C by memcmp, down to
    `DIFF_WORD` bytes, and the XOR of those as little-endian ints places the
    first differing byte."""
    lo, hi = 0, len(a)
    while hi - lo > DIFF_WORD:
        mid = (lo + hi) >> 1
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    diff = int.from_bytes(a[lo:hi], "little") ^ int.from_bytes(b[lo:hi], "little")
    return lo + (((diff & -diff).bit_length() - 1) >> 3)


class UdDecider:
    """Character-level decider over a fixed alphabet.

    An alphabet of at most `BYTE_SLOTS` symbols takes the bulk route: every
    batch is checked and turned into id bytes in C, then fed to
    `_Core.feed_bytes`.  A larger one checks each batch in C, as an
    `array("q")`, and feeds `_Core.feed` the ids.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._core = _Core(len(alphabet))
        if len(alphabet) <= BYTE_SLOTS:
            # each latin-1 character's id, 255 for one outside the alphabet
            self._char_ids = bytearray(b"\xff") * 256
            for i, s in enumerate(alphabet):
                if ord(s) < 256:
                    self._char_ids[ord(s)] = i
            self._valid = bytes(range(len(alphabet)))
        else:
            self._char_ids = None

    @property
    def verdict(self) -> Verdict:
        return self._core.verdict

    def slot_count(self) -> int:
        return self._core.slot_count()

    def stack_depth(self) -> int:
        return len(self._core.stack)

    def push(self, char: str) -> Verdict:
        """Consume one character; invalid symbols raise and leave state intact."""
        return self._core.step(self.alphabet.index(char))

    def feed(self, word: str) -> Verdict:
        """Push a whole word as one batch, which stops at its rejection; a
        word holding a foreign symbol raises, naming it, before any state
        changes."""
        if self._char_ids is None:
            return self._core.feed(self.alphabet.encode(word))
        try:
            data = word.encode("latin-1").translate(self._char_ids)
        except UnicodeEncodeError:
            # a character past U+00FF: the alphabet's own lookup names a
            # foreign one, or maps one of its own
            data = bytearray(self.alphabet.encode(word))
        bad = data.find(255)
        if bad >= 0:
            raise InvalidSymbolError(f"symbol {word[bad]!r} not in alphabet")
        return self._core.feed_bytes(data)

    def feed_ids(self, ids: Iterable[int]) -> Verdict:
        """Push a batch of symbol ids, from any iterable of ints; a batch
        holding an id outside the alphabet raises, naming it, before any
        state changes."""
        if not isinstance(ids, (list, tuple, bytes, bytearray)):
            # a one-shot iterator would be used up by the first pass over it,
            # and the refusal searches it again; a lone int is no batch and
            # raises TypeError here
            ids = list(ids)
        if self._char_ids is None:
            # array("q") refuses anything but an int of 64 bits; extend reads
            # bytes as ids, where the constructor would read machine words
            packed = array("q")
            try:
                packed.extend(ids)
            except (TypeError, OverflowError):
                packed = None
            if packed is None or (packed and (min(packed) < 0 or max(packed) >= len(self.alphabet))):
                raise self._refusal(ids)
            return self._core.feed(ids)
        # bytearray() refuses anything but ints in 0..255, and deleting the
        # alphabet's ids leaves those of |alphabet| or more; the buffer goes
        # to the core as it is, one byte an id
        try:
            data = bytearray(ids)
        except (TypeError, ValueError):
            data = None
        if data is None or data.translate(None, self._valid):
            raise self._refusal(ids)
        return self._core.feed_bytes(data)

    def _refusal(self, ids) -> InvalidSymbolError:
        """The error that names the first of `ids` that is no id of the
        alphabet."""
        size = len(self.alphabet)
        bad = next(i for i in ids if not (isinstance(i, int) and 0 <= i < size))
        return InvalidSymbolError(f"symbol id {bad!r} not in an alphabet of {size}")


def is_ud(word: str, alphabet: Alphabet | None = None) -> bool:
    """True iff `word` is uniquely decodable from its length-2 windows."""
    if alphabet is None:
        alphabet = Alphabet.from_text(word)
    return UdDecider(alphabet).feed(word).ok


class TokenDecider:
    """Decider over the node grams of length-l shingles.

    Each pushed shingle walks one edge from its length l-1 prefix to its
    length l-1 suffix.  The state is the interned node grams and the one
    label on each node pair, so it grows with the token alphabet, not the
    stream length.
    """

    def __init__(self, l: int, delimiter: str = DEFAULT_DELIMITER):
        if l < 2:
            raise InvalidParameterError(f"shingle length l must be >= 2, got {l}")
        self.l = l
        self.delimiter = delimiter
        self._ids: dict[str, int] = {}
        self._core = _Core(0)
        # (source id, target id) -> the one label allowed on that node pair
        self._edge_labels: dict[tuple[int, int], str] = {}

    @property
    def verdict(self) -> Verdict:
        return self._core.verdict

    def slot_count(self) -> int:
        return self._core.slot_count()

    def _intern(self, token: str) -> int:
        tid = self._ids.get(token)
        if tid is None:
            tid = len(self._ids)
            self._ids[token] = tid
            self._core.grow_to(tid + 1)
        return tid

    def push_token(self, token: str) -> Verdict:
        """Consume one node gram directly (plain streaming, no edge labels)."""
        if len(token) != self.l - 1:
            raise InvalidTokenError(f"token {token!r} is not a length-{self.l - 1} gram")
        return self._core.step(self._intern(token))

    def push_shingle(self, shingle: str) -> Verdict:
        """Walk the edge of one shingle; the first push also visits its source."""
        return self.push_shingles((shingle,))

    def push_shingles(self, labels: list[str]) -> Verdict:
        """Walk the edges of a batch of shingles in one `feed_labels`.

        The verdict is that of pushing the labels one at a time: the batch
        stops at its first rejection, which absorbs, so what the labels
        after it interned is never read.  A label shorter than l raises
        before anything is pushed.
        """
        l = self.l
        for label in labels:
            if len(label) < l:
                raise InvalidShingleError(f"shingle {label!r} shorter than l={l}")
        core = self._core
        if not core.verdict.ok or not labels:
            return core.verdict
        k = l - 1
        tokens = self._ids
        sources, targets = [], []
        for label in labels:
            sources.append(tokens.setdefault(label[:k], len(tokens)))
            targets.append(tokens.setdefault(label[len(label) - k :], len(tokens)))
        core.grow_to(len(tokens))
        return feed_labels(core, self._edge_labels, sources, targets, labels)

    def push_word(self, word: str) -> Verdict:
        return self.push_shingles(shingle_sequence(word, self.l, self.delimiter))


def feed_labels(core: _Core, edge_labels: dict, sources, targets, labels) -> Verdict:
    """Walk one edge a label, from `sources[i]` to `targets[i]`, through
    `core`: `_Core.feed`'s two rules, and one label a node pair.

    The core walks the target ids, after the first source on the stream's
    first push.  `edge_labels` maps each node pair to the one label allowed
    on it, its first; the walk stops before the first label whose pair
    carries another, and if the core accepts every step before it, that
    label is rejected for parallel labels.  The ids index `core`'s slots.
    """
    visit = core.pos == 0
    path = [sources[0]] if visit else []
    for pair, label in zip(zip(sources, targets), labels):
        if edge_labels.setdefault(pair, label) != label:
            break
        path.append(pair[1])
    verdict = core.feed(path)
    if verdict.ok and len(path) - visit < len(labels):
        verdict = core._reject(Reason.PARALLEL_LABELS, core.pos + 1)
    return verdict


def merge_until_ud(word: ShingledWord) -> list[int]:
    """Merge a word's shingles, in stream order, until they decode uniquely.

    Each shingle walks its edge between the word's node ids through the
    decider's transition system.  A rejected label is fused with the live
    label before it, undoing that label's step, and retried.  A label is a
    span of shingle positions, so a fuse costs O(1).  Two labels on one node
    pair are equal only if their spans have equal lengths, and two single
    shingles on one node pair are always equal, so text is compared only for
    longer labels of equal length.

    The loop holds its own copy of `_Core`'s two rules, and an undo of
    them, over flat per-node arrays in locals, so a step or an undo makes
    no call into `_Core` and builds no `Verdict`, record tuple or per-node
    list; a closed cycle's popped nodes go on a side stack.  A node pair
    carries an edge exactly when it carries a label, and a node has at most
    two parents, so the label on each in-edge sits in a slot beside its
    parent entry: a pair is looked up by comparing its source with the
    target's two parents, and a new edge is a pair with neither.  A merge
    needs only whether a step is accepted, so a new edge meets cycle
    intrusion alone, as a node with two parents is on a cycle, and an edge
    walked again communicating parents alone.
    `tests/test_decider.py::TestMerging::test_span_merge_matches_the_string_loop`
    pins this copy to `_Core.feed`.

    Returns the first position of each live label in stream order: label j
    spans positions firsts[j] to firsts[j + 1] - 1.  Each merge glues two
    labels into one, so the word took len(word.keys) - len(firsts) merges.
    """
    nodes, text, l = word.nodes, word.text, word.l
    slots = max(nodes) + 1
    # `_Core`'s state; the first node only visits, and no undo reaches that
    # visit, since a label from position 0 is always accepted
    first_ix = [0] * slots
    last_ix = [0] * slots
    on_cycle = bytearray(slots)
    parent0 = [-1] * slots
    parent1 = [-1] * slots
    # the first position of the one label on the edge from each parent,
    # which ends at ends[first]
    span0 = [0] * slots
    span1 = [0] * slots
    stack = [nodes[0]]
    first_ix[nodes[0]] = last_ix[nodes[0]] = pos = 1
    # per closed cycle: the nodes it popped off the stack, then their count
    cycled: list[int] = []
    # per live label: its target's last_ix before its step, then whether
    # the step added a parent, a new edge
    log: list[int] = []
    ends = [0] * len(nodes)
    firsts: list[int] = []
    for last in range(len(nodes) - 1):
        dst = nodes[last + 1]
        first = last
        while True:
            src = nodes[first]
            if src == parent0[dst]:
                span = span0[dst]
            elif src == parent1[dst]:
                span = span1[dst]
            else:
                span = -1
            if span < 0:
                # a new edge: only cycle intrusion can reject
                if not on_cycle[dst]:
                    pos += 1
                    if not first_ix[dst]:
                        first_ix[dst] = pos
                        stack.append(dst)
                    else:
                        # close a new cycle: unwind the visit stack to the
                        # previous occurrence of dst, marking everything popped
                        popped = len(cycled)
                        while True:
                            v = stack.pop()
                            on_cycle[v] = True
                            cycled.append(v)
                            if v == dst:
                                break
                        cycled.append(len(cycled) - popped)
                    log.append(last_ix[dst])
                    log.append(True)
                    last_ix[dst] = pos
                    if parent0[dst] < 0:
                        parent0[dst] = src
                        span0[dst] = first
                    else:
                        parent1[dst] = src
                        span1[dst] = first
                    ends[first] = last
                    break
            elif ends[span] - span == last - first and (
                first == last or text[span : ends[span] + l] == text[first : last + l]
            ):
                # the edge is walked again: only communicating parents can reject
                a, b = parent0[dst], parent1[dst]
                if b < 0 or last_ix[a] < first_ix[b] or last_ix[b] < first_ix[a]:
                    pos += 1
                    log.append(last_ix[dst])
                    log.append(False)
                    last_ix[dst] = pos
                    break
            # undo the live label before, whose step walked into src
            new_edge = log.pop()
            last_ix[src] = log.pop()
            if new_edge:
                # its parent entry is the one set last, which frees its slot
                if parent1[src] >= 0:
                    parent1[src] = -1
                else:
                    parent0[src] = -1
                if first_ix[src] == pos:
                    first_ix[src] = 0
                    stack.pop()
                else:
                    for _ in range(cycled.pop()):
                        v = cycled.pop()
                        on_cycle[v] = False
                        stack.append(v)
            pos -= 1
            first = firsts.pop()
        firsts.append(first)
    return firsts
