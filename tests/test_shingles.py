from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shinglesync import (
    Alphabet,
    ShingledWord,
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
from shinglesync.stringrecon import _elements

from conftest import table_columns, words_abc


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


def test_canonical_order_is_utf8_byte_order_on_multibyte_symbols():
    # 1- to 4-byte UTF-8 symbols, where code-point and byte order could part
    symbols = ["a", "z", "\x7f", "\x80", "é", "ÿ", "\u07ff", "\u0800", "€", "\uffff", "\U00010000", "𝄞"]
    words = [x + y for x in symbols for y in symbols]
    ms = ShingleMultiset({w: 1 + i % 3 for i, w in enumerate(words)})
    by_bytes = sorted(words, key=lambda w: w.encode("utf-8"))
    assert sorted(words) == by_bytes
    assert [s for s, occ in ms.instances() if occ == 1] == by_bytes
    assert [line.split("\t")[1] for line in ms.to_text().splitlines()] == by_bytes


def test_runs_take_positions_in_word_order():
    # "$abcab$" at l = 2: windows '$a', 'ab', 'bc', 'ca', 'ab', 'b$'
    word = ShingledWord("abcab", 2, Alphabet("abc"))
    key = {word.text[i : i + 2]: k for i, k in enumerate(word.keys)}
    # one 'ab' of two is taken next to the taken 'ca' and 'b$', not where
    # it first occurs, so "cab$" stays one run
    assert word.runs({key["ab"]: 1, key["ca"]: 1, key["b$"]: 1}) == ["cab$"]
    assert word.runs({key["ab"]: 2, key["ca"]: 1, key["b$"]: 1}) == ["ab", "cab$"]
    # consecutive windows join into one run; what the word lacks is not taken
    assert word.runs({key["$a"]: 1, key["ab"]: 1, key["bc"]: 5}) == ["$abc"]
    # with no taken position next to one, the first in word order
    assert word.runs({key["ab"]: 1}) == ["ab"]
    assert word.runs({key["ab"]: 1, key["$a"]: 1}) == ["$ab"]
    assert word.runs({}) == []


def test_runs_keep_a_repeated_shingle_in_the_edited_run():
    # "$aabaab$" at l = 3 with the second "aab" one-sided: its windows
    # 'baa', 'aab' and 'ab$' are one run, though 'aab' first occurs earlier
    word = ShingledWord("aabaab", 3, Alphabet("ab"))
    key = {word.text[i : i + 3]: k for i, k in enumerate(word.keys)}
    assert word.runs({key["baa"]: 1, key["aab"]: 1, key["ab$"]: 1}) == ["baab$"]
    # "$abcabc$" at l = 2: the run grows from 'c$' one window at a time,
    # through the second 'bc' and the second 'ab'
    word = ShingledWord("abcabc", 2, Alphabet("abc"))
    key = {word.text[i : i + 2]: k for i, k in enumerate(word.keys)}
    assert word.runs({key["ab"]: 1, key["bc"]: 1, key["c$"]: 1}) == ["abc$"]


@given(words_abc, st.integers(2, 6))
def test_shingled_word_hands_its_table_the_sorted_keys(word, l):
    shingled = ShingledWord(word, l, Alphabet("abc"))
    table = shingled.table
    assert list(table.keys) == sorted(set(shingled.keys))
    assert [table.shingle(row) for row in range(len(table))] == sorted(set(shingle_sequence(word, l)))


@pytest.mark.parametrize("l", [39, 40])
def test_keys_and_codes_past_63_bits_stay_exact(l):
    # 3**39 fits 63 bits and 3**40 does not: the keys are held in an array
    # up to l = 39 and in a list past it, with the same values
    word = "0110100"
    shingled = ShingledWord(word, l, Alphabet("01"))
    windows = shingle_sequence(word, l)
    assert isinstance(shingled.keys, array) == (l == 39)
    assert list(shingled.keys) == [shingled.table.key(s) for s in windows]
    assert [shingled.table.shingle(shingled.table.row(key)) for key in shingled.keys] == windows
    table = shingled.table
    assert isinstance(table.keys, array) == isinstance(table.codes, array) == (l == 39)
    assert list(table.codes) == [shingled.space.code(table.shingle(row)) for row in range(len(table))]


def run_words(max_symbols=4):
    """Words over 1 to `max_symbols` symbols built from runs of one symbol,
    long enough that shingles repeat."""
    return st.integers(1, max_symbols).flatmap(
        lambda k: st.tuples(
            st.just("abcd"[:k]),
            st.lists(st.tuples(st.sampled_from("abcd"[:k]), st.integers(1, 12)), max_size=8).map(
                lambda parts: "".join(ch * n for ch, n in parts)
            ),
        )
    )


def reference_rows(table, counts, places):
    """Check a table's columns against a multiset `counts` of shingles and
    the place of each in the table's text."""
    order = sorted(counts)
    assert [table.shingle(row) for row in range(len(table))] == order
    assert list(table.keys) == [table.key(s) for s in order] == sorted(set(table.keys))
    assert list(table.mults) == [counts[s] for s in order]
    assert list(table.places) == [places[s] for s in order]
    assert list(table.codes) == [table.space.code(s) for s in order]
    # the instances' elements at 8 occurrence bits, as a multiset
    assert Counter(_elements(table, 8)) == Counter(
        (table.space.code(s) << 8) + occ for s in order for occ in range(1, counts[s] + 1)
    )
    # the runs of rows that share their first l - 1 characters, and each
    # row's successors: the run of rows that begin with its last l - 1
    l = table.l
    runs = [[row for row, s in enumerate(order) if s[:-1] == node] for node in dict.fromkeys(s[:-1] for s in order)]
    assert table.branch_runs() == [(run[0], run[-1] + 1) for run in runs if len(run) > 1]
    for row, s in enumerate(order):
        after = [r for r, t in enumerate(order) if t[: l - 1] == s[1:]]
        assert table.single[row] == (len(after) == 1)
        if after:
            assert table.succ[row] == after[0]


@settings(max_examples=200, deadline=None)
@given(run_words(), st.integers(2, 6), st.data())
def test_the_column_table_matches_a_counter_of_its_shingles(symbols_word, l, data):
    # the columns against a Counter and first positions of the windows,
    # before and after a random move, and a move that raises changes nothing
    symbols, word = symbols_word
    shingled = ShingledWord(word, l, Alphabet(symbols))
    table = shingled.table
    windows = shingle_sequence(word, l)
    counts = Counter(windows)
    places = {s: windows.index(s) for s in counts}
    reference_rows(table, counts, places)
    # node j is the first l - 1 characters of window j, the last node the
    # last l - 1 of the last window: equal ids exactly for equal grams
    grams = [s[:-1] for s in windows] + [windows[-1][1:]]
    assert len(shingled.nodes) == len(grams)
    assert len(set(zip(grams, shingled.nodes))) == len(set(grams)) == len(set(shingled.nodes))

    before = table_columns(table)
    s = data.draw(st.sampled_from(sorted(counts)))
    with pytest.raises(InvalidParameterError, match="cannot remove"):
        table.move(ShingleMultiset({s: counts[s] + 1}), ShingleMultiset({}))
    with pytest.raises(InvalidSymbolError):
        table.move(ShingleMultiset({s: 1}), ShingleMultiset({"x" * l: 1}))
    assert table_columns(table) == before

    remove = Counter({s: data.draw(st.integers(0, n)) for s, n in counts.items()})
    shingles = st.tuples(st.integers(0, l - 1), st.text(alphabet=symbols, min_size=1, max_size=l)).map(
        lambda lead_core: ("$" * lead_core[0] + lead_core[1] + "$" * l)[:l]
    )
    add = Counter(data.draw(st.lists(shingles, max_size=10)))
    # a shingle the table did not hold takes its place at the end of the
    # text, in the order `add` names them
    fresh = [s for s in add if s not in counts]
    places.update((s, len(table.text) + l * i) for i, s in enumerate(fresh))
    table.move(ShingleMultiset(+remove), ShingleMultiset(add))
    reference_rows(table, counts - remove + add, places)
