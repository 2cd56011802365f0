import pytest
from hypothesis import given
from hypothesis import strategies as st

from shinglesync import (
    ShingleMultiset,
    bigram_map,
    delimited,
    fold,
    noconcat,
    overlaps,
    qgram_map,
    shingle_sequence,
    shingling,
)
from shinglesync.errors import (
    InvalidParameterError,
    InvalidShingleError,
    InvalidSymbolError,
    OverlapMismatchError,
)
from shinglesync.shingles import is_valid_shingle

from conftest import words_abc


KATANA_BIGRAMS = {"$k": 1, "ka": 1, "at": 1, "ta": 1, "an": 1, "na": 1, "a$": 1}


def test_bigram_map_katana():
    assert dict(bigram_map("katana").entries) == KATANA_BIGRAMS


def test_bigram_map_empty_word():
    assert dict(bigram_map("").entries) == {"$$": 1}


def test_bigram_map_anagram_collision():
    assert bigram_map("katana") == bigram_map("kanata")


def test_qgram_q2_matches_bigram():
    assert qgram_map("katana", 2) == bigram_map("katana")


def test_qgram_ab_q3():
    assert dict(qgram_map("ab", 3).entries) == {"$$a": 1, "$ab": 1, "ab$": 1, "b$$": 1}


def test_qgram_empty_word_q3():
    assert dict(qgram_map("", 3).entries) == {"$$$": 2}


def test_qgram_rejects_small_q():
    with pytest.raises(InvalidParameterError):
        qgram_map("ab", 1)


def test_word_with_delimiter_rejected():
    with pytest.raises(InvalidSymbolError):
        bigram_map("a$b")


@given(words_abc, st.integers(min_value=2, max_value=5))
def test_qgram_total_count(w, q):
    assert qgram_map(w, q).total() == len(w) + q - 1


@given(words_abc, st.integers(min_value=2, max_value=5))
def test_ordered_shingling_folds_back(w, q):
    seq = shingle_sequence(w, q)
    assert all(overlaps(s, t, q) for s, t in zip(seq, seq[1:]))
    assert fold(seq, q) == delimited(w, q)


def test_shingling_fixtures():
    assert set(shingling("katana", 2).entries) == set(KATANA_BIGRAMS)
    assert dict(shingling("a", 2).entries) == {"$a": 1, "a$": 1}
    assert shingling("kanata", 2) == shingling("katana", 2)


def test_overlaps():
    assert overlaps("kata", "tana", 3)
    assert not overlaps("kata", "kata", 3)
    assert overlaps("ab", "bc", 2)
    with pytest.raises(InvalidParameterError):
        overlaps("a", "abc", 3)
    with pytest.raises(InvalidParameterError):
        overlaps("ab", "bc", 0)


def test_noconcat():
    assert noconcat("kata", "tana", 3) == "katana"
    assert noconcat("ab", "b", 2) == "ab"
    assert noconcat("$k", "ka", 2) == "$ka"
    with pytest.raises(OverlapMismatchError):
        noconcat("ab", "cd", 2)


@given(words_abc.filter(lambda w: len(w) >= 3))
def test_noconcat_associative_along_chain(w):
    seq = shingle_sequence(w, 2)
    s, t, u = seq[0], seq[1], seq[2]
    assert noconcat(noconcat(s, t, 2), u, 2) == noconcat(s, noconcat(t, u, 2), 2)


def test_multiset_text_format_golden():
    text = shingling("katana", 2).to_text()
    assert text == "1\t$k\n1\ta$\n1\tan\n1\tat\n1\tka\n1\tna\n1\tta\n"


@given(words_abc, st.integers(min_value=2, max_value=4))
def test_multiset_text_round_trip(w, l):
    ms = shingling(w, l)
    assert ShingleMultiset.from_text(ms.to_text()) == ms


def test_from_text_rejects_malformed():
    with pytest.raises(InvalidParameterError):
        ShingleMultiset.from_text("not-a-count\tab\n")
    with pytest.raises(InvalidParameterError):
        ShingleMultiset.from_text("2 ab\n")
    with pytest.raises(InvalidShingleError):
        ShingleMultiset.from_text("1\ta$b\n")
    with pytest.raises(InvalidParameterError):
        ShingleMultiset.from_text("0\tab\n")


def test_shingle_validity():
    assert is_valid_shingle("$$ab")
    assert is_valid_shingle("ab$$")
    assert is_valid_shingle("$ab$")
    assert not is_valid_shingle("a$b")
    assert not is_valid_shingle("")


def test_multiset_difference_and_union():
    a = shingling("katana", 2)
    b = ShingleMultiset({"ka": 1})
    diff = a.difference(b)
    assert diff["ka"] == 0 and diff.total() == a.total() - 1
    assert diff.union(b) == a
    with pytest.raises(InvalidParameterError):
        b.difference(ShingleMultiset({"zz": 1}))


def test_instances_are_canonical():
    ms = ShingleMultiset({"ab": 2, "$a": 1, "b$": 3})
    assert ms.instances() == [("$a", 1), ("ab", 1), ("ab", 2), ("b$", 1), ("b$", 2), ("b$", 3)]
    assert ms.offsets() == {"$a": 0, "ab": 1, "b$": 3}
    assert all(ms.instances()[ms.offsets()[s] + occ - 1] == (s, occ) for s, occ in ms.instances())


def test_canonical_order_is_utf8_byte_order_on_multibyte_symbols():
    # 1- to 4-byte UTF-8 symbols, where code-point and byte order could part
    symbols = ["a", "z", "\x7f", "\x80", "é", "ÿ", "\u07ff", "\u0800", "€", "\uffff", "\U00010000", "𝄞"]
    words = [x + y for x in symbols for y in symbols]
    ms = ShingleMultiset({w: 1 + i % 3 for i, w in enumerate(words)})
    by_bytes = sorted(words, key=lambda w: w.encode("utf-8"))
    assert sorted(words) == by_bytes
    assert [s for s, occ in ms.instances() if occ == 1] == by_bytes
    assert [line.split("\t")[1] for line in ms.to_text().splitlines()] == by_bytes
