"""The integer-id decode of `DeBruijnGraph` against the string-route
reference it replaced (`conftest.reference_decode`)."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from shinglesync import Alphabet, DeBruijnGraph, ShingledWord, ShingleMultiset, merge_until_ud, shingle_sequence
from shinglesync.errors import InconsistentMultisetError, NotUniqueError

from conftest import periodic_words, reference_decode, span_labels

words = st.one_of(
    st.sampled_from(["ab", "abc", "abcd"]).flatmap(lambda symbols: st.text(alphabet=symbols, max_size=60)),
    periodic_words,
)


@st.composite
def decode_cases(draw):
    """(word, l, kind, multiset): the word's merged multiset, or its plain
    shingling, or the merged multiset broken in one of four ways."""
    w, l = draw(words), draw(st.integers(min_value=2, max_value=6))
    kind = draw(st.sampled_from(["merged", "plain", "dropped", "duplicated", "unanchored", "parallel"]))
    if kind == "plain":
        return w, l, kind, ShingleMultiset(shingle_sequence(w, l), base_len=l)
    shingled = ShingledWord(w, l, Alphabet.from_text(w))
    entries = Counter(span_labels(shingled, merge_until_ud(shingled)))
    k = l - 1
    label = draw(st.sampled_from(sorted(entries)))
    if kind == "dropped":
        entries[label] -= 1
    elif kind == "duplicated":
        entries[label] += 1
    elif kind == "unanchored":
        for label in [s for s in entries if s.startswith("$" * k)]:
            del entries[label]
    elif kind == "parallel":
        # another label from the same source gram to the same target gram,
        # and one back, which keeps every node's degrees balanced
        source, target = label[:k], label[len(label) - k :]
        entries[source + draw(st.sampled_from("abc")) + target] += 1
        entries[target + source] += 1
    return w, l, kind, ShingleMultiset(+entries, base_len=l)


def outcome(decode):
    try:
        return decode()
    except (InconsistentMultisetError, NotUniqueError) as exc:
        return type(exc)


@settings(max_examples=600, deadline=None)
@given(decode_cases())
def test_the_integer_decode_matches_the_string_route(case):
    w, l, kind, ms = case
    got = outcome(DeBruijnGraph.build(ms, l).decode_unique)
    assert got == outcome(lambda: reference_decode(ms, l))
    if kind == "merged":
        assert got == w
