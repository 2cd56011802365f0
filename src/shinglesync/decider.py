"""Streaming unique-decodability decider.

The decider consumes one symbol at a time and maintains, per symbol: the
first/last positions seen so far (a first position of 0 marks it unvisited),
an on-cycle flag, two child and two parent entries, and a stack of visited
symbols.  A stream is rejected the moment its consumed prefix stops being
uniquely decodable from its length-2 windows; rejection is absorbing.  State
size depends only on the alphabet, never on the stream length.

Three rejection rules apply when consuming character c after prefix u:

* cycle intrusion: a new edge arrives at a symbol already marked as lying on
  a cycle;
* communicating parents: c already has two distinct in-neighbors whose
  occurrence intervals in u overlap (the interval test stands in for a
  strong-connectivity query and is validated against the enumeration oracle);
* degree overflow: a third distinct parent or child appears.  This is an
  early exit only; it never changes the final verdict, just when it lands.
  It also keeps every symbol within its two child and two parent entries.

Every rule is checked before a step changes any state, so a rejected step
changes only the verdict.

`TokenDecider` runs the same transition system over an interned alphabet of
length l-1 node grams, where each pushed shingle contributes one edge.
`merge_until_ud` runs the transition system with undo over a word's node
ids: a rejected shingle is fused with its predecessor into their transitive
closure and retried, which always terminates because a single label spanning
the whole stream is accepted.  Its loop holds its own copy of the three rules
and of their undo, in flat arrays, because a session's merge takes about two
steps and one undo a shingle; `tests/test_decider.py::TestMerging::
test_span_merge_matches_the_string_loop` pins the copy to `_Core.step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .alphabet import DEFAULT_DELIMITER, Alphabet
from .errors import (
    InvalidParameterError,
    InvalidShingleError,
    InvalidTokenError,
)
from .shingles import ShingledWord, shingle_sequence


class Reason(Enum):
    CYCLE_INTRUSION = "cycle-intrusion"
    COMMUNICATING_PARENTS = "communicating-parents"
    DEGREE_OVERFLOW = "degree-overflow"
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


class _Core:
    """Shared transition system over dense integer symbol ids.

    The state is flat, one entry a slot in each list: `first_ix` and
    `last_ix` hold the 1-based positions of a symbol's first and last visits
    (`first_ix` is 0 while the symbol is unvisited), and each slot has two
    child and two parent entries, -1 while empty, since degree overflow
    rejects a third.
    """

    __slots__ = (
        "first_ix",
        "last_ix",
        "on_cycle",
        "child0",
        "child1",
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
        self.child0 = [-1] * slots
        self.child1 = [-1] * slots
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
            self.child0 += [-1] * more
            self.child1 += [-1] * more
            self.parent0 += [-1] * more
            self.parent1 += [-1] * more

    def slot_count(self) -> int:
        return len(self.first_ix)

    def step(self, cid: int) -> Verdict:
        """Consume one symbol id.  Every rule is checked before any state
        changes, so a rejected step changes only the verdict, which absorbs."""
        if not self.verdict.ok:
            return self.verdict
        pos = self.pos + 1
        p = self.prev
        child0, child1 = self.child0, self.child1
        # the first symbol only visits; every later one walks an edge from p
        new_edge = p >= 0 and child0[p] != cid and child1[p] != cid
        if new_edge and self.on_cycle[cid]:  # only a visited symbol is on a cycle
            return self._reject(Reason.CYCLE_INTRUSION, pos)
        b = self.parent1[cid]
        if b >= 0:
            a = self.parent0[cid]
            first_ix, last_ix = self.first_ix, self.last_ix
            if not (last_ix[a] < first_ix[b] or last_ix[b] < first_ix[a]):
                return self._reject(Reason.COMMUNICATING_PARENTS, pos)
        if new_edge and (child1[p] >= 0 or b >= 0):
            return self._reject(Reason.DEGREE_OVERFLOW, pos)

        if not self.first_ix[cid]:
            self.first_ix[cid] = pos
            self.stack.append(cid)
        elif new_edge:
            # close a new cycle: unwind the visit stack to the previous
            # occurrence of cid, marking everything popped
            stack, on_cycle = self.stack, self.on_cycle
            while True:
                v = stack.pop()
                on_cycle[v] = True
                if v == cid:
                    break
        self.last_ix[cid] = pos
        if new_edge:
            if child0[p] < 0:
                child0[p] = cid
            else:
                child1[p] = cid
            if self.parent0[cid] < 0:
                self.parent0[cid] = p
            else:
                self.parent1[cid] = p
        self.prev = cid
        self.pos = pos
        return STILL_UD

    def _reject(self, reason: Reason, pos: int) -> Verdict:
        """The one writer of a rejection."""
        self.verdict = Verdict(False, reason, pos)
        return self.verdict


class UdDecider:
    """Character-level decider over a fixed alphabet."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._core = _Core(len(alphabet))

    @property
    def verdict(self) -> Verdict:
        return self._core.verdict

    def slot_count(self) -> int:
        return self._core.slot_count()

    def stack_depth(self) -> int:
        return len(self._core.stack)

    def push(self, char: str) -> Verdict:
        """Consume one character; invalid symbols raise and leave state intact."""
        cid = self.alphabet.index(char)
        return self._core.step(cid)

    def feed(self, word: str) -> Verdict:
        """Push a whole word without early exit (absorbed pushes are cheap)."""
        return self.feed_ids(self.alphabet.encode(word))

    def feed_ids(self, ids: list[int]) -> Verdict:
        out = self.verdict
        step = self._core.step
        for cid in ids:
            out = step(cid)
        return out


def is_ud(word: str, alphabet: Alphabet | None = None) -> bool:
    """True iff `word` is uniquely decodable from its length-2 windows."""
    if alphabet is None:
        alphabet = Alphabet.from_text(word)
    core = _Core(len(alphabet))
    step = core.step
    for cid in alphabet.encode(word):
        if not step(cid).ok:
            return False
    return True


class TokenDecider:
    """Decider over the node grams of length-l shingles.

    Each pushed shingle walks one edge from its length l-1 prefix to its
    length l-1 suffix.  Node tokens are interned on first sight, so state
    grows with the token alphabet, not the stream length.
    """

    def __init__(self, l: int, delimiter: str = DEFAULT_DELIMITER):
        if l < 2:
            raise InvalidParameterError(f"shingle length l must be >= 2, got {l}")
        self.l = l
        self.delimiter = delimiter
        self._ids: dict[str, int] = {}
        self._core = _Core(0)
        self._labels: list[str] = []
        # (source id, target id) -> the one label allowed on that node pair
        self._edge_labels: dict[tuple[int, int], str] = {}

    @property
    def verdict(self) -> Verdict:
        return self._core.verdict

    def slot_count(self) -> int:
        return self._core.slot_count()

    def labels(self) -> list[str]:
        """Live shingle labels in stream order (post-merge view)."""
        return list(self._labels)

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

    def _split(self, shingle: str) -> tuple[str, str]:
        if len(shingle) < self.l:
            raise InvalidShingleError(f"shingle {shingle!r} shorter than l={self.l}")
        k = self.l - 1
        return shingle[:k], shingle[len(shingle) - k :]

    def push_shingle(self, shingle: str) -> Verdict:
        """Walk the edge of one shingle; the first push also visits its source."""
        src, dst = self._split(shingle)
        if not self._core.verdict.ok:
            return self._core.verdict
        sid = self._intern(src)
        if self._core.pos == 0:
            self._core.step(sid)  # a lone visit cannot fail
        did = self._intern(dst)
        key = (sid, did)
        existing = self._edge_labels.get(key)
        if existing is not None and existing != shingle:
            return self._core._reject(Reason.PARALLEL_LABELS, self._core.pos + 1)
        out = self._core.step(did)
        if out.ok:
            self._labels.append(shingle)
            if existing is None:
                self._edge_labels[key] = shingle
        return out

    def push_word(self, word: str) -> Verdict:
        out = self.verdict
        for s in shingle_sequence(word, self.l, self.delimiter):
            out = self.push_shingle(s)
        return out


def merge_until_ud(word: ShingledWord) -> tuple[list[int], list[int]]:
    """Merge a word's shingles, in stream order, until they decode uniquely.

    Each shingle walks its edge between the word's node ids through the
    decider's transition system.  A rejected label is fused with the live
    label before it, undoing that label's step, and retried.  A label is a
    span of shingle positions, so a fuse costs O(1).  Two labels on one node
    pair are equal only if their spans have equal lengths, and two single
    shingles on one node pair are always equal, so text is compared only for
    longer labels of equal length.

    The loop holds its own copy of `_Core`'s three rules, and an undo of
    them, over flat per-node arrays in locals, so a step or an undo makes
    no call into `_Core` and builds no `Verdict`, record tuple or per-node
    list; a closed cycle's popped nodes go on a side stack.  A node pair
    carries an edge exactly when it carries a label, so a new edge is a pair
    without one, and a child count stands in for `_Core`'s child entries.
    A merge needs only whether a step is accepted, so the rules are tested
    in `_Core.step`'s order without naming the one that rejects.
    `tests/test_decider.py::TestMerging::test_span_merge_matches_the_string_loop`
    pins this copy to `_Core.step`.

    Returns the first position of each live label in stream order (label j
    spans positions firsts[j] to firsts[j + 1] - 1), and the seams: the left
    position of every glued boundary, in the order they were glued, each
    merge's seams left to right.
    """
    nodes, text, l = word.nodes, word.text, word.l
    slots = max(nodes) + 1
    # `_Core`'s state; the first node only visits, and no undo reaches that
    # visit, since a label from position 0 is always accepted
    first_ix = [0] * slots
    last_ix = [0] * slots
    on_cycle = [False] * slots
    children = [0] * slots
    parent0 = [-1] * slots
    parent1 = [-1] * slots
    stack = [nodes[0]]
    first_ix[nodes[0]] = last_ix[nodes[0]] = pos = 1
    # per closed cycle: the nodes it popped off the stack, then their count
    cycled: list[int] = []
    # per live label: its target's last_ix before its step, then the node
    # pair whose label it became, or -1 if the pair had one
    log: list[int] = []
    # node pair -> first position of the one label on it, which ends at ends[first]
    spans: dict[int, int] = {}
    ends = [0] * len(nodes)
    firsts: list[int] = []
    seams: list[int] = []
    for last in range(len(nodes) - 1):
        dst = nodes[last + 1]
        first = last
        glued = len(seams)
        while True:
            src = nodes[first]
            pair = src * slots + dst
            span = spans.get(pair)
            if span is None:
                # a new edge: cycle intrusion, then a third parent, which
                # communicating parents or degree overflow rejects, then a
                # third child (degree overflow)
                if not on_cycle[dst] and parent1[dst] < 0 and children[src] < 2:
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
                    log.append(pair)
                    last_ix[dst] = pos
                    children[src] += 1
                    if parent0[dst] < 0:
                        parent0[dst] = src
                    else:
                        parent1[dst] = src
                    spans[pair] = first
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
                    log.append(-1)
                    last_ix[dst] = pos
                    break
            # undo the live label before, whose step walked into src
            pair = log.pop()
            last_ix[src] = log.pop()
            if pair >= 0:
                del spans[pair]
                children[pair // slots] -= 1
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
            seams.append(first - 1)
            first = firsts.pop()
        firsts.append(first)
        if len(seams) - glued > 1:
            seams[glued:] = seams[glued:][::-1]
    return firsts, seams
