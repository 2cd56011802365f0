import random

import pytest
from hypothesis import strategies as st

from shinglesync.decider import _Core
from shinglesync.shingles import noconcat, shingle_sequence

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


def reference_merge(word, l, delimiter="$"):
    """The string merge loop sessions ran before labels became spans.

    A node-gram decider takes the ordered shingles; a rejected label is fused
    with the live label before it by `noconcat` and pushed again.  The
    decider's verdict absorbs, so an undo replays the accepted node ids on a
    fresh one: the reference needs no undo of the product's.  Returns the
    live labels in stream order and the seams: the left position of every
    glued boundary, in the order they were glued, each merge's seams left to
    right.
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
        for cid in accepted:
            assert core.step(cid).ok
        pair = introduced.pop()
        if pair is not None:
            del edge_labels[pair]
        return labels.pop()

    ranges = []
    seams = []
    for pos, shingle in enumerate(shingle_sequence(word, l, delimiter)):
        pending = shingle
        merges = 0
        while not push(pending):
            pending = noconcat(undo(), pending, l)
            merges += 1
        pieces = ranges[len(ranges) - merges :] + [(pos, pos)]
        del ranges[len(ranges) - merges :]
        seams += [hi for (_lo, hi) in pieces[:-1]]
        ranges.append((pieces[0][0], pos))
    return labels, seams


def span_labels(word, firsts):
    """The labels of `merge_until_ud`'s spans over a `ShingledWord`."""
    lasts = [first - 1 for first in firsts[1:]] + [len(word.keys) - 1]
    return [word.text[first : last + word.l] for first, last in zip(firsts, lasts)]
