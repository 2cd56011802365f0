import random

import pytest
from hypothesis import strategies as st

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
