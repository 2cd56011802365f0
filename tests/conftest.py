import random
from collections import Counter

import pytest
from hypothesis import strategies as st

from shinglesync.alphabet import Alphabet
from shinglesync.decider import STILL_UD, Reason, Verdict, _Core
from shinglesync.errors import InvalidParameterError
from shinglesync.setrecon import ShingleCodec
from shinglesync.shingles import ShingleTable, noconcat, shingle_sequence
from shinglesync.stringrecon import session_field

words_ab = st.text(alphabet="ab", max_size=16)
words_abc = st.text(alphabet="abc", max_size=14)
words_abcd = st.text(alphabet="abcd", max_size=24)


@pytest.fixture
def rng():
    return random.Random(0xBEEF)


def char_values_loop(elements, points, p):
    """The reference for characteristic values: one modular multiply per
    (point, element) pair."""
    out = []
    for z in points:
        acc = 1
        for e in elements:
            acc = acc * (z - e) % p
        out.append(acc)
    return out


def shingle_code(shingle, l, symbols, delimiter="$"):
    """The reference for a shingle's code, read from its string: a shingle
    is `delimiter * lead + x + delimiter * trail` for a run x of m >= 1
    symbols, and its classes (lead, m) are listed by m from l down and then
    by lead, each holding len(symbols)**m codes, so the shingle's code is
    the sizes of the classes listed before its own, plus x read in base
    len(symbols) with each symbol's digit its place in sorted order.  The
    all-delimiter shingle takes the one code after every class."""
    classes = [(lead, m) for m in range(l, 0, -1) for lead in range(l - m + 1)]
    core = shingle.lstrip(delimiter)
    x = core.rstrip(delimiter)
    if not x:
        return sum(len(symbols) ** m for _, m in classes)
    before = classes[: classes.index((len(shingle) - len(core), len(x)))]
    value = 0
    for ch in x:
        value = value * len(symbols) + sorted(symbols).index(ch)
    return sum(len(symbols) ** m for _, m in before) + value


def session_elements(word, l, alphabet, occ_bits):
    """The reference for a session's elements: every (shingle, occurrence)
    instance of the word's padded windows, shingle after shingle by code
    point and occurrence after occurrence, as code * 2**occ_bits + occ, the
    code read from the shingle's string (`shingle_code`)."""
    delimiter = alphabet.delimiter
    padded = delimiter * (l - 1) + word + delimiter * (l - 1)
    windows = Counter(padded[i : i + l] for i in range(len(padded) - l + 1))
    return [
        shingle_code(shingle, l, alphabet.symbols, delimiter) * 2**occ_bits + occ
        for shingle in sorted(windows)
        for occ in range(1, windows[shingle] + 1)
    ]


def session_codec(word_a, word_b, l):
    """The codec a session between `word_a` and `word_b` at shingle length
    `l` runs step 2 under, as both parties derive it: its occurrence width,
    the wider of the two words' own, and its field, over the symbols of both
    words and the instances of both."""
    alphabet = Alphabet(sorted(set(word_a) | set(word_b)))
    largest = max(max(Counter(shingle_sequence(word, l)).values()) for word in (word_a, word_b))
    occ_bits = (largest - 1).bit_length()
    instances = len(word_a) + len(word_b) + 2 * (l - 1)
    return ShingleCodec(alphabet, session_field(len(alphabet), l, occ_bits, instances), occ_bits)


class StepCore:
    """The reference for `_Core.feed`: the decider core as it stood when it
    consumed one symbol id a method call, with the same flat state, and the
    three rules it had then.  The third, degree overflow, is proved never to
    fire (see the `decider` docstring), so it and a live step whose current
    node already has a second child raise `AssertionError`, naming the
    stream, as no `Reason` is left for them."""

    def __init__(self, slots):
        self.first_ix = [0] * slots
        self.last_ix = [0] * slots
        self.on_cycle = [False] * slots
        self.child0 = [-1] * slots
        self.child1 = [-1] * slots
        self.parent0 = [-1] * slots
        self.parent1 = [-1] * slots
        self.stack = []
        self.prev = -1
        self.pos = 0
        self.verdict = STILL_UD
        self.stream = []  # the ids of its live steps

    @property
    def child(self):
        """`_Core`'s one child entry: each node's first child."""
        return self.child0

    def grow_to(self, slots):
        more = slots - len(self.first_ix)
        if more > 0:
            self.first_ix += [0] * more
            self.last_ix += [0] * more
            self.on_cycle += [False] * more
            self.child0 += [-1] * more
            self.child1 += [-1] * more
            self.parent0 += [-1] * more
            self.parent1 += [-1] * more

    def step(self, cid):
        if not self.verdict.ok:
            return self.verdict
        self.stream.append(cid)
        pos = self.pos + 1
        p = self.prev
        child0, child1 = self.child0, self.child1
        if p >= 0 and child1[p] >= 0:
            raise AssertionError(f"current node {p} has a second child in stream {self.stream}")
        new_edge = p >= 0 and child0[p] != cid and child1[p] != cid
        if new_edge and self.on_cycle[cid]:
            return self._reject(Reason.CYCLE_INTRUSION, pos)
        b = self.parent1[cid]
        if b >= 0:
            a = self.parent0[cid]
            first_ix, last_ix = self.first_ix, self.last_ix
            if not (last_ix[a] < first_ix[b] or last_ix[b] < first_ix[a]):
                return self._reject(Reason.COMMUNICATING_PARENTS, pos)
        if new_edge and (child1[p] >= 0 or b >= 0):
            raise AssertionError(f"degree overflow at position {pos} of stream {self.stream}")

        if not self.first_ix[cid]:
            self.first_ix[cid] = pos
            self.stack.append(cid)
        elif new_edge:
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

    def _reject(self, reason, pos):
        self.verdict = Verdict(False, reason, pos)
        return self.verdict


class StepTokens:
    """The reference for `TokenDecider.push_shingles`: shingles pushed one a
    call over a `StepCore`, as the token decider did before it took batches."""

    def __init__(self, l):
        self.l = l
        self.ids = {}
        self.core = StepCore(0)
        self.edge_labels = {}

    def intern(self, token):
        tid = self.ids.get(token)
        if tid is None:
            tid = self.ids[token] = len(self.ids)
            self.core.grow_to(tid + 1)
        return tid

    def push_shingle(self, shingle):
        k = self.l - 1
        if not self.core.verdict.ok:
            return self.core.verdict
        sid = self.intern(shingle[:k])
        if self.core.pos == 0:
            self.core.step(sid)
        did = self.intern(shingle[len(shingle) - k :])
        existing = self.edge_labels.get((sid, did))
        if existing is not None and existing != shingle:
            return self.core._reject(Reason.PARALLEL_LABELS, self.core.pos + 1)
        out = self.core.step(did)
        if out.ok and existing is None:
            self.edge_labels[(sid, did)] = shingle
        return out


def reference_merge(word, l, delimiter="$"):
    """The string merge loop sessions ran before labels became spans.

    A node-gram decider takes the ordered shingles; a rejected label is fused
    with the live label before it by `noconcat` and pushed again.  The
    decider's verdict absorbs, so an undo replays the accepted node ids, as
    one batch, on a fresh one: the reference needs no undo of the product's.
    Returns the live labels in stream order.
    """
    k = l - 1
    ids = {}
    # the node ids the decider has accepted: the first source, then one a label
    accepted = []
    core = _Core(0)
    labels = []
    # per live label: the node pair it introduced, or None if the pair had one
    introduced = []
    edge_labels = {}

    def intern(gram):
        if gram not in ids:
            ids[gram] = len(ids)
            core.grow_to(len(ids))
        return ids[gram]

    def push(label):
        src, dst = intern(label[:k]), intern(label[-k:])
        if not accepted:
            core.step(src)
            accepted.append(src)
        existing = edge_labels.get((src, dst))
        if existing is not None and existing != label:
            return False
        if not core.step(dst).ok:
            return False
        accepted.append(dst)
        labels.append(label)
        if existing is None:
            edge_labels[(src, dst)] = label
            introduced.append((src, dst))
        else:
            introduced.append(None)
        return True

    def undo():
        nonlocal core
        accepted.pop()
        if len(accepted) == 1:  # the first label goes, and with it the visit of its source
            accepted.pop()
        core = _Core(len(ids))
        assert core.feed(accepted).ok
        pair = introduced.pop()
        if pair is not None:
            del edge_labels[pair]
        return labels.pop()

    for shingle in shingle_sequence(word, l, delimiter):
        pending = shingle
        while not push(pending):
            pending = noconcat(undo(), pending, l)
    return labels


def span_labels(word, firsts):
    """The labels of `merge_until_ud`'s spans over a `ShingledWord`."""
    lasts = [first - 1 for first in firsts[1:]] + [len(word.keys) - 1]
    return [word.text[first : last + word.l] for first, last in zip(firsts, lasts)]


def copied_table(table):
    """A table with its own copy of `table`'s counts, for a rebuild
    (`apply_merge_records`) to use up while `table` stays whole."""
    return ShingleTable(table.l, table.ranks, dict(table.counts), table.text, table.where, list(table.order))


def reference_moved(table, remove, add):
    """The reference for `ShingleTable.move`: the peer's table built beside
    `table` from copies of its counts and places, as sessions built it
    before the move was made in place.  Its sorted keys and successor index
    are built afresh when first read."""
    counts = dict(table.counts)
    for s, mult in remove.entries.items():
        key = table.key(s)
        left = counts.get(key, 0) - mult
        if left < 0:
            raise InvalidParameterError(f"cannot remove {mult} x {s!r}, only {counts.get(key, 0)} present")
        if left:
            counts[key] = left
        else:
            del counts[key]
    where = dict(table.where)
    new = []
    for s, mult in add.entries.items():
        key = table.key(s)
        counts[key] = counts.get(key, 0) + mult
        if key not in where:
            where[key] = len(table.text) + table.l * len(new)
            new.append(s)
    return ShingleTable(table.l, table.ranks, counts, table.text + "".join(new), where)
