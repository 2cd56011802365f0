import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shinglesync import (
    DeBruijnGraph,
    Reason,
    ShingleMultiset,
    TokenDecider,
    decoding_count,
    shingling,
)
from shinglesync.errors import (
    InconsistentMultisetError,
    InvalidShingleError,
    NotUniqueError,
)


def katana_graph():
    return DeBruijnGraph.build(shingling("katana", 2), 2)


def test_build_katana():
    g = katana_graph()
    assert g.nodes == {"$", "k", "a", "t", "n"}
    assert g.total_weight() == 7
    assert g.edge("ka") == ("k", "a", 1)
    assert g.start_node == "$"


def test_build_two_edge_path():
    g = DeBruijnGraph.build(ShingleMultiset({"$a": 1, "a$": 1}), 2)
    assert g.nodes == {"$", "a"}
    assert g.decode_unique() == "a"


def test_build_rejects_short_shingles():
    with pytest.raises(InvalidShingleError):
        DeBruijnGraph.build(ShingleMultiset({"a": 1}), 2)


def test_decode_unique_rejects_ambiguous_graph():
    with pytest.raises(NotUniqueError):
        katana_graph().decode_unique()


@pytest.mark.parametrize(
    "entries, reason",
    [
        # "ab" and "acb" both run from a to b: abacb and acbab
        ({"$a": 1, "ab": 1, "ba": 1, "acb": 1, "b$": 1}, Reason.PARALLEL_LABELS),
        (shingling("katana", 2).entries, Reason.CYCLE_INTRUSION),
    ],
)
def test_decode_unique_rejects_a_walk_the_decider_rejects(entries, reason):
    g = DeBruijnGraph.build(ShingleMultiset(entries), 2)
    assert TokenDecider(2).push_shingles(g.eulerian_labels()).reason is reason
    with pytest.raises(NotUniqueError):
        g.decode_unique()


def test_decode_unique_rejects_unanchored_multiset():
    g = DeBruijnGraph.build(ShingleMultiset({"ab": 1, "bc": 1}), 2)
    with pytest.raises(InconsistentMultisetError):
        g.decode_unique()


def test_decode_unique_rejects_open_walk():
    g = DeBruijnGraph.build(ShingleMultiset({"$a": 1, "ab": 1}), 2)
    with pytest.raises(InconsistentMultisetError):
        g.decode_unique()


def test_decode_unique_rejects_disconnected_weight():
    g = DeBruijnGraph.build(ShingleMultiset({"$a": 1, "a$": 1, "bc": 1, "cb": 1}), 2)
    with pytest.raises(InconsistentMultisetError):
        g.decode_unique()


def test_decode_empty_word():
    g = DeBruijnGraph.build(ShingleMultiset({"$$": 1}), 2)
    assert g.decode_unique() == ""


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abc", max_size=14), st.integers(min_value=2, max_value=4))
def test_round_trip_on_ud_words(w, l):
    g = DeBruijnGraph.build(shingling(w, l), l)
    if decoding_count(shingling(w, l), l=l).count == 1:
        assert g.decode_unique() == w
    else:
        with pytest.raises(NotUniqueError):
            g.decode_unique()


def test_to_text_golden():
    g = DeBruijnGraph.build(ShingleMultiset({"$a": 1, "aa": 2, "a$": 1}), 2)
    assert g.to_text() == "$\ta\t1\t$a\na\t$\t1\ta$\na\ta\t2\taa\n"
