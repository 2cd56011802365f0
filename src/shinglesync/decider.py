"""Streaming unique-decodability decider.

The decider consumes one symbol at a time and maintains, per symbol: a
visited flag, an on-cycle flag, adjacency lists capped at two entries, the
first/last positions seen so far, and a stack of visited symbols.  A stream is
rejected the moment its consumed prefix stops being uniquely decodable from
its length-2 windows; rejection is absorbing.  State size depends only on the
alphabet, never on the stream length.

Three rejection rules apply when consuming character c after prefix u:

* cycle intrusion: a new edge arrives at a symbol already marked as lying on
  a cycle;
* communicating parents: c already has two distinct in-neighbors whose
  occurrence intervals in u overlap (the interval test stands in for a
  strong-connectivity query and is validated against the enumeration oracle);
* degree overflow: a third distinct parent or child appears.  This is an
  early exit only; it never changes the final verdict, just when it lands.

Every rule is checked before a step changes any state, so a rejected step
changes nothing; with undo tracking on, `undo_last` reverts accepted steps only.

`TokenDecider` runs the same transition system over an interned alphabet of
length l-1 node grams, where each pushed shingle contributes one edge.
`merge_until_ud` runs the transition system with undo over a word's node
ids: a rejected shingle is fused with its predecessor into their transitive
closure and retried, which always terminates because a single label spanning
the whole stream is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .alphabet import DEFAULT_DELIMITER, Alphabet
from .errors import (
    InvalidParameterError,
    InvalidShingleError,
    InvalidTokenError,
    ProtocolMisuseError,
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

# undo record of an accepted step: (cid, old_prev, first_visit, popped,
# old_last, edge_added); `popped` is None unless the step closed a cycle
_Record = tuple[int, int, bool, list[int] | None, int, bool]


class _Core:
    """Shared transition system over dense integer symbol ids."""

    __slots__ = (
        "visited",
        "on_cycle",
        "children",
        "parents",
        "first_ix",
        "last_ix",
        "stack",
        "prev",
        "pos",
        "verdict",
        "_undo",
    )

    def __init__(self, slots: int, track_undo: bool = False):
        self.visited = [False] * slots
        self.on_cycle = [False] * slots
        self.children: list[list[int]] = [[] for _ in range(slots)]
        self.parents: list[list[int]] = [[] for _ in range(slots)]
        self.first_ix = [0] * slots
        self.last_ix = [0] * slots
        self.stack: list[int] = []
        self.prev = -1
        self.pos = 0
        self.verdict: Verdict = STILL_UD
        # None in absorbing mode
        self._undo: list[_Record] | None = [] if track_undo else None

    def grow_to(self, slots: int) -> None:
        while len(self.visited) < slots:
            self.visited.append(False)
            self.on_cycle.append(False)
            self.children.append([])
            self.parents.append([])
            self.first_ix.append(0)
            self.last_ix.append(0)

    def slot_count(self) -> int:
        return len(self.visited)

    def step(self, cid: int) -> Verdict:
        """Consume one symbol id.  Every rule is checked before any state
        changes, so a rejected step changes nothing.  The verdict absorbs
        unless undo tracking is on; `undo_last` reverts accepted steps only."""
        if not self.verdict.ok:
            return self.verdict
        pos = self.pos + 1
        p = self.prev
        first_visit = not self.visited[cid]
        # the first symbol only visits; every later one walks an edge from p
        new_edge = p >= 0 and cid not in self.children[p]
        if new_edge and self.on_cycle[cid]:  # only a visited symbol is on a cycle
            return self._reject(Reason.CYCLE_INTRUSION, pos)
        ps = self.parents[cid]
        if len(ps) == 2:
            a, b = ps
            if not (self.last_ix[a] < self.first_ix[b] or self.last_ix[b] < self.first_ix[a]):
                return self._reject(Reason.COMMUNICATING_PARENTS, pos)
        if new_edge and (len(self.children[p]) == 2 or len(ps) == 2):
            return self._reject(Reason.DEGREE_OVERFLOW, pos)

        popped = None
        if first_visit:
            self.visited[cid] = True
            self.stack.append(cid)
            self.first_ix[cid] = pos
        elif new_edge:
            # close a new cycle: unwind the visit stack to the previous
            # occurrence of cid, marking everything popped
            popped = []
            while True:
                v = self.stack.pop()
                self.on_cycle[v] = True
                popped.append(v)
                if v == cid:
                    break
        old_last = self.last_ix[cid]
        self.last_ix[cid] = pos
        if new_edge:
            self.children[p].append(cid)
            ps.append(p)
        self.prev = cid
        self.pos = pos
        if self._undo is not None:
            self._undo.append((cid, p, first_visit, popped, old_last, new_edge))
        return STILL_UD

    def _reject(self, reason: Reason, pos: int) -> Verdict:
        """The one writer of a rejection; absorbing mode keeps the verdict."""
        verdict = Verdict(False, reason, pos)
        if self._undo is None:
            self.verdict = verdict
        return verdict

    def undo_last(self) -> None:
        """Restore the state to just before the last accepted step."""
        if not self._undo:
            raise ProtocolMisuseError("nothing to undo")
        cid, old_prev, first_visit, popped, old_last, edge_added = self._undo.pop()
        if edge_added:
            self.children[old_prev].pop()
            self.parents[cid].pop()
        self.last_ix[cid] = old_last
        if first_visit:
            self.visited[cid] = False
            self.first_ix[cid] = 0
            assert self.stack and self.stack[-1] == cid
            self.stack.pop()
        elif popped:
            for v in reversed(popped):
                self.on_cycle[v] = False
                self.stack.append(v)
        self.prev = old_prev
        self.pos -= 1


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

    Each shingle walks its edge between the word's node ids through a `_Core`
    with undo.  A rejected label is fused with the live label before it,
    undoing that label's step, and retried.  A label is a span of shingle
    positions, so a fuse costs O(1).  Two labels on one node pair are equal
    only if their spans have equal lengths, and two single shingles on one
    node pair are always equal, so text is compared only for longer labels of
    equal length.

    Returns the first position of each live label in stream order (label j
    spans positions firsts[j] to firsts[j + 1] - 1), and the seams: the left
    position of every glued boundary, in the order they were glued, each
    merge's seams left to right.
    """
    nodes, text, l = word.nodes, word.text, word.l
    slots = max(nodes) + 1
    core = _Core(slots, track_undo=True)
    step, undo = core.step, core.undo_last
    step(nodes[0])
    firsts: list[int] = []
    # per live label: the node pair whose label it became, or -1 if the pair had one
    introduced: list[int] = []
    # node pair -> (first, last) position of the one label on it
    spans: dict[int, tuple[int, int]] = {}
    seams: list[int] = []
    for last in range(len(nodes) - 1):
        dst = nodes[last + 1]
        first = last
        glued = len(seams)
        while True:
            pair = nodes[first] * slots + dst
            span = spans.get(pair)
            if span is None:
                if step(dst).ok:
                    spans[pair] = (first, last)
                    introduced.append(pair)
                    break
            elif (
                span[1] - span[0] == last - first
                and (first == last or text[span[0] : span[1] + l] == text[first : last + l])
                and step(dst).ok
            ):
                introduced.append(-1)
                break
            undo()
            pair = introduced.pop()
            if pair >= 0:
                del spans[pair]
            seams.append(first - 1)
            first = firsts.pop()
        firsts.append(first)
        if len(seams) - glued > 1:
            seams[glued:] = seams[glued:][::-1]
    return firsts, seams
