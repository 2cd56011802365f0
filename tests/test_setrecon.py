from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shinglesync import Alphabet, FieldSpec, ShingleMultiset
from shinglesync.errors import (
    BoundExceededError,
    EncodingCapacityError,
    InvalidParameterError,
    InvalidPointError,
    InvalidSymbolError,
    PointCollisionError,
)
from shinglesync import setrecon
from shinglesync.field import PointStream, poly_from_roots
from shinglesync.setrecon import (
    Delta,
    RatelessDecoder,
    RatelessSource,
    ShingleCodec,
    char_poly_evals,
    eval_bundle,
    partition,
    reconcile_fixed,
    roots_by_candidates,
)

FIELD = FieldSpec.default61()
ALPHA = Alphabet("abcdefgh")
CODEC = ShingleCodec(ALPHA, FIELD)


def random_multiset(rng, n, width=4):
    return ShingleMultiset(Counter("".join(rng.choice("abcdefgh") for _ in range(width)) for _ in range(n)))


def true_delta(a, b):
    ca, cb = Counter(a.entries), Counter(b.entries)
    only_a = ca - cb
    only_b = cb - ca
    return (
        ShingleMultiset(only_a) if only_a else ShingleMultiset(),
        ShingleMultiset(only_b) if only_b else ShingleMultiset(),
    )


class TestCodec:
    @given(st.text(alphabet="abcdefgh", min_size=1, max_size=10), st.integers(min_value=1, max_value=4096))
    def test_round_trip(self, s, occ):
        assert CODEC.decode(CODEC.encode(s, occ)) == (s, occ)

    def test_delimiter_runs_round_trip(self):
        assert CODEC.decode(CODEC.encode("$$ab", 2)) == ("$$ab", 2)

    def test_occurrences_distinguish_instances(self):
        assert CODEC.encode("ab", 1) != CODEC.encode("ab", 2)

    def test_determinism_across_instances(self):
        other = ShingleCodec(Alphabet("abcdefgh"), FieldSpec.default61())
        assert other.encode("abcd", 7) == CODEC.encode("abcd", 7)

    def test_capacity_errors(self):
        with pytest.raises(EncodingCapacityError):
            CODEC.encode("a" * 32, 1)
        with pytest.raises(EncodingCapacityError):
            CODEC.encode("a", 1 << 20)
        with pytest.raises(InvalidParameterError):
            CODEC.encode("a", 0)

    def test_foreign_symbol_rejected(self):
        for shingle in ("az", "a$b#"):
            with pytest.raises(InvalidSymbolError):
                CODEC.encode(shingle, 1)

    def test_multiset_encoding_is_canonical(self):
        ms = ShingleMultiset({"ab": 2, "cd": 1})
        elems = CODEC.encode_multiset(ms)
        assert elems == sorted(set(elems)) or len(set(elems)) == 3
        assert CODEC.decode_multiset(elems) == ms


class TestCharPoly:
    def test_empty_multiset_evaluates_to_one(self):
        pts = FIELD.sample_points(1, 5)
        bundle = char_poly_evals(ShingleMultiset(), pts, CODEC)
        assert all(v == 1 for v in bundle.values)
        assert bundle.set_size == 0

    def test_singleton_is_linear_factor(self):
        pts = FIELD.sample_points(2, 3)
        e = CODEC.encode("ab", 1)
        bundle = char_poly_evals(ShingleMultiset({"ab": 1}), pts, CODEC)
        assert list(bundle.values) == [(z - e) % FIELD.p for z in pts]

    def test_equal_multisets_give_equal_bundles(self, rng):
        ms = random_multiset(rng, 40)
        pts = FIELD.sample_points(3, 10)
        assert char_poly_evals(ms, pts, CODEC) == char_poly_evals(ms, pts, CODEC)

    def test_point_inside_encoding_range_rejected(self):
        with pytest.raises(InvalidPointError):
            eval_bundle([], [5], FIELD)

    def test_ratio_identity_common_instances_cancel(self, rng):
        base = random_multiset(rng, 60)
        xa, xb = random_multiset(rng, 5), random_multiset(rng, 7)
        a, b = base.union(xa), base.union(xb)
        pts = FIELD.sample_points(4, 8)
        va = char_poly_evals(a, pts, CODEC).values
        vb = char_poly_evals(b, pts, CODEC).values
        da = char_poly_evals(a.difference(base), pts, CODEC).values
        db = char_poly_evals(b.difference(base), pts, CODEC).values
        p = FIELD.p
        for i in range(len(pts)):
            lhs = va[i] * pow(vb[i], p - 2, p) % p
            rhs = da[i] * pow(db[i], p - 2, p) % p
            assert lhs == rhs


class TestFixedMode:
    def test_identical_multisets_empty_delta(self, rng):
        ms = random_multiset(rng, 64)
        pts = FIELD.sample_points(5, 8 + 8 + 1)
        delta = reconcile_fixed(ms, char_poly_evals(ms, pts, CODEC), CODEC, bound=8)
        assert delta.size == 0

    def test_single_extra_instance(self, rng):
        base = random_multiset(rng, 32)
        local = base.union(ShingleMultiset({"zzzz"[:4].replace("z", "a"): 1}))
        pts = FIELD.sample_points(6, 1 + 8 + 1)
        delta = reconcile_fixed(local, char_poly_evals(base, pts, CODEC), CODEC, bound=1)
        assert delta.only_local.total() == 1 and delta.only_remote.total() == 0

    def test_random_differences_recovered(self, rng):
        for trial in range(15):
            base = random_multiset(rng, 200)
            a = base.union(random_multiset(rng, rng.randrange(0, 12)))
            b = base.union(random_multiset(rng, rng.randrange(0, 12)))
            pts = FIELD.sample_points(100 + trial, 24 + 8 + 1)
            delta = reconcile_fixed(a, char_poly_evals(b, pts, CODEC), CODEC, bound=24)
            only_a, only_b = true_delta(a, b)
            assert delta.only_local == only_a
            assert delta.only_remote == only_b

    def test_soundness_of_returned_delta(self, rng):
        base = random_multiset(rng, 100)
        a = base.union(random_multiset(rng, 6))
        b = base.union(random_multiset(rng, 4))
        pts = FIELD.sample_points(11, 16 + 8 + 1)
        delta = reconcile_fixed(a, char_poly_evals(b, pts, CODEC), CODEC, bound=16)
        assert a.difference(delta.only_local).union(delta.only_remote) == b

    def test_bound_exceeded_raises(self, rng):
        base = random_multiset(rng, 60)
        a = base.union(random_multiset(rng, 20))
        b = base.union(random_multiset(rng, 20))
        pts = FIELD.sample_points(12, 8 + 8 + 1)
        with pytest.raises(BoundExceededError):
            reconcile_fixed(a, char_poly_evals(b, pts, CODEC), CODEC, bound=8)

    def test_insufficient_points_rejected(self, rng):
        ms = random_multiset(rng, 10)
        pts = FIELD.sample_points(13, 4)
        with pytest.raises(InvalidParameterError):
            reconcile_fixed(ms, char_poly_evals(ms, pts, CODEC), CODEC, bound=8)


def drive_rateless(a, b, k=8, seed=99):
    source = RatelessSource(b, CODEC, seed)
    decoder = RatelessDecoder(a, CODEC, remote_set_size=b.total(), k=k)
    result = None
    while result is None:
        for z, v in source.next_pairs(max(1, decoder.pairs_wanted())):
            result = decoder.feed(z, v)
            if result is not None:
                break
    return decoder, result


class TestRateless:
    def test_zero_difference_needs_k_pairs(self, rng):
        ms = random_multiset(rng, 50)
        decoder, delta = drive_rateless(ms, ms, k=8)
        assert delta.size == 0
        assert decoder.pairs_consumed == 8

    def test_m_differences_need_m_plus_k_pairs(self, rng):
        # 36 per side puts m above 64, where a Euclidean reconstruction
        # would need one pair more
        for half in (1, 4, 12, 36):
            base = random_multiset(rng, 80)
            a = base.union(random_multiset(rng, half))
            b = base.union(random_multiset(rng, half))
            only_a, only_b = true_delta(a, b)
            m = only_a.total() + only_b.total()
            assert half < 36 or m > 64
            decoder, delta = drive_rateless(a, b, k=8)
            assert (delta.only_local, delta.only_remote) == (only_a, only_b)
            assert decoder.pairs_consumed == m + 8

    def test_disjoint_equal_size_content(self, rng):
        a = ShingleMultiset(Counter("a" + "ab"[i % 2] + "abcdefgh"[i % 8] + "c" for i in range(10)))
        b = ShingleMultiset(Counter("d" + "de"[i % 2] + "abcdefgh"[i % 8] + "f" for i in range(10)))
        decoder, delta = drive_rateless(a, b, k=8)
        assert delta.only_local == a and delta.only_remote == b
        assert decoder.pairs_consumed <= 2 * 10 + 8

    def test_result_hands_over_remote_polynomial(self, rng):
        base = random_multiset(rng, 60)
        a = base.union(random_multiset(rng, 3))
        b = base.union(random_multiset(rng, 5))
        only_a, only_b = true_delta(a, b)
        _, result = drive_rateless(a, b)
        assert isinstance(result, Delta)
        assert result.only_local == only_a
        assert CODEC.decode_multiset(list(result.local_roots)) == only_a
        remote_roots = roots_by_candidates(
            list(result.remote_poly), CODEC.encode_multiset(b), FIELD.p
        )
        assert remote_roots is not None
        assert CODEC.decode_multiset(remote_roots) == only_b
        assert result.size == only_a.total() + only_b.total()

    def test_remote_root_among_local_elements_is_rejected(self, rng):
        base = random_multiset(rng, 40)
        a = base.union(random_multiset(rng, 3))
        b = base.union(random_multiset(rng, 4))
        decoder, result = drive_rateless(a, b)
        assert result.only_remote == true_delta(a, b)[1]
        # one remote root replaced by a local element that is on both sides
        common = next(e for e in decoder.elements if e not in result.local_roots)
        roots = [common] + roots_by_candidates(
            list(result.remote_poly), CODEC.encode_multiset(b), FIELD.p
        )[1:]
        poly = tuple(poly_from_roots(roots, FIELD.p))
        forged = Delta(result.local_roots, poly, CODEC, decoder.elements)
        with pytest.raises(BoundExceededError):
            forged.only_remote

    def test_point_collision_detected(self, rng):
        ms = random_multiset(rng, 4)
        decoder = RatelessDecoder(ms, CODEC, remote_set_size=4, k=2)
        with pytest.raises(PointCollisionError):
            decoder.feed(FIELD.p - 1, 0)
        with pytest.raises(InvalidPointError):
            decoder.feed(123, 1)
        # a local element at the point, which no encoding is, makes the local value 0
        decoder = RatelessDecoder.from_elements([FIELD.p - 1], CODEC, 1, k=2)
        with pytest.raises(PointCollisionError):
            decoder.feed(FIELD.p - 1, 5)

    def test_reopen_takes_one_more_pair(self, rng):
        a, b = random_multiset(rng, 40), random_multiset(rng, 37)
        decoder, result = drive_rateless(a, b, k=1, seed=5)
        consumed = decoder.pairs_consumed
        decoder.reopen()
        assert decoder.result is None and decoder.k == 2 and decoder.rejected == 1
        assert decoder.pairs_wanted() >= 1
        # the right candidate fits the next pair of the same stream and comes back
        source = RatelessSource(b, CODEC, 5)
        source.next_pairs(consumed)
        (z, v), = source.next_pairs(1)
        assert decoder.feed(z, v) == result
        with pytest.raises(InvalidParameterError):
            RatelessDecoder(a, CODEC, b.total(), k=1).reopen()

    def test_repeated_point_rejected(self, rng):
        ms = random_multiset(rng, 4)
        decoder = RatelessDecoder(ms, CODEC, remote_set_size=4, k=2)
        decoder.feed(FIELD.p - 1, 7)
        with pytest.raises(InvalidPointError):
            decoder.feed(FIELD.p - 1, 7)

    def test_random_values_exhaust_the_budget(self, rng):
        # no difference can exceed both multisets, so garbage stops there
        ms = random_multiset(rng, 6)
        decoder = RatelessDecoder(ms, CODEC, remote_set_size=9, k=3)
        assert decoder.budget == 6 + 9 + 3
        points = iter(FIELD.sample_points(21, decoder.budget))
        with pytest.raises(BoundExceededError):
            while True:
                wanted = decoder.pairs_wanted()
                assert 1 <= wanted <= decoder.budget - decoder.pairs_consumed
                for _ in range(wanted):
                    assert decoder.feed(next(points), rng.randrange(1, FIELD.p)) is None
        assert decoder.pairs_consumed == decoder.budget

    def test_wildly_skewed_sizes_decode_in_both_orientations(self, rng):
        # the decoder keeps the larger difference side in the numerator so the
        # Euclidean reconstruction stays shallow; both orientations must work
        big = random_multiset(rng, 400)
        small = random_multiset(rng, 12)
        for a, b in ((big, small), (small, big)):
            _, delta = drive_rateless(a, b, k=8, seed=7)
            assert (delta.only_local, delta.only_remote) == true_delta(a, b)

    def test_verification_never_accepts_wrong_delta(self, rng):
        # soundness sweep: every returned delta must equal the true difference
        for trial in range(60):
            base = random_multiset(rng, 40)
            a = base.union(random_multiset(rng, rng.randrange(0, 6)))
            b = base.union(random_multiset(rng, rng.randrange(0, 6)))
            _, delta = drive_rateless(a, b, k=8, seed=trial)
            assert (delta.only_local, delta.only_remote) == true_delta(a, b)


class TestPartition:
    def test_buckets_split_the_elements_by_a_seeded_hash(self, rng):
        elements = CODEC.encode_multiset(random_multiset(rng, 300))
        parts = partition(elements, 8, seed=5)
        assert len(parts) == 8 and sorted(sum(parts, [])) == sorted(elements)
        assert all(parts)  # 300 elements leave no bucket of 8 empty
        # the bucket depends on the element and the seed, not on the other elements
        shuffled = list(reversed(elements))
        assert [sorted(b) for b in partition(shuffled, 8, seed=5)] == [sorted(b) for b in parts]
        assert partition(elements, 8, seed=6) != parts
        assert partition(elements, 1, seed=5) == [elements]

    @pytest.mark.parametrize("buckets", [0, 3, 12])
    def test_bucket_count_must_be_a_power_of_two(self, buckets):
        with pytest.raises(InvalidParameterError):
            partition([1, 2], buckets, seed=1)

    def test_from_elements_matches_the_multiset_constructors(self, rng):
        base = random_multiset(rng, 60)
        a = base.union(random_multiset(rng, 3))
        b = base.union(random_multiset(rng, 5))
        elems_a, elems_b = CODEC.encode_multiset(a), CODEC.encode_multiset(b)
        source = RatelessSource.from_elements(elems_b, CODEC, PointStream(FIELD, 99))
        assert source.next_pairs(4) == RatelessSource(b, CODEC, 99).next_pairs(4)
        decoder = RatelessDecoder.from_elements(elems_a, CODEC, len(elems_b), k=8)
        result = None
        while result is None:
            for z, v in source.next_pairs(decoder.pairs_wanted()):
                result = decoder.feed(z, v)
        assert (result.only_local, result.only_remote) == true_delta(a, b)

    @pytest.mark.parametrize("least", [0, 3, 7, 8])
    def test_least_starts_the_ladder_at_the_bound(self, rng, least):
        # 3 instances on one side only and 5 on the other: a size difference
        # of 2 and a difference of 8, so any bound up to 8 holds; the first
        # request reaches the bound (one past an odd gap to the size
        # difference, as a difference has its parity) and k more, and the
        # decoder still lands on the difference
        base = random_multiset(rng, 60)
        a = base.union(random_multiset(rng, 3, width=5))
        b = base.union(random_multiset(rng, 5, width=6))
        elems_a, elems_b = CODEC.encode_multiset(a), CODEC.encode_multiset(b)
        source = RatelessSource.from_elements(elems_b, CODEC, PointStream(FIELD, 7))
        decoder = RatelessDecoder.from_elements(elems_a, CODEC, len(elems_b), k=2, least=least)
        assert decoder.pairs_wanted() == max(2, least + least % 2) + 2
        result = None
        while result is None:
            for z, v in source.next_pairs(decoder.pairs_wanted()):
                result = decoder.feed(z, v)
        assert (result.only_local, result.only_remote) == true_delta(a, b)

    @pytest.mark.parametrize("least", [-1, 4])
    def test_least_past_both_sides_is_refused(self, least):
        # no difference of a 1-element side and a 2-element side passes 3
        with pytest.raises(InvalidParameterError):
            RatelessDecoder.from_elements([1], CODEC, 2, k=1, least=least)

    def test_sources_sharing_a_stream_take_its_points_in_turn(self):
        points = PointStream(FIELD, 4)
        first = RatelessSource.from_elements([1, 2], CODEC, points)
        second = RatelessSource.from_elements([3], CODEC, points)
        drawn = [z for z, _ in first.next_pairs(2) + second.next_pairs(3)]
        assert drawn == FIELD.sample_points(4, 5)


@pytest.mark.parametrize("roots", [[5], [5, 9], [2, 5, 9]])
def test_roots_by_candidates_finds_exactly_the_roots(roots):
    # a root outside the candidates, or a candidate too few, is no answer;
    # the linear case is read off the constant term, the others evaluated
    p = 10007
    poly = poly_from_roots(roots, p)
    assert roots_by_candidates(poly, [1, *roots, 11], p) == roots
    assert roots_by_candidates(poly, [1, *roots[1:], 11], p) is None
    assert roots_by_candidates(poly, roots[1:], p) is None


def test_small_field_capacity_error():
    small = FieldSpec.small(10007)
    codec = ShingleCodec(Alphabet("ab"), small, occ_bits=2)
    ms = ShingleMultiset({"aa": 1})
    source = RatelessSource(ms, codec, seed=1)
    from shinglesync.errors import CapacityError

    with pytest.raises(CapacityError):
        source.next_pairs(small.point_span + 1)


class TestBatchEvaluation:
    def test_reconcile_fixed_evaluates_the_bundle_once(self, rng, monkeypatch):
        a = random_multiset(rng, 400, width=6)
        extra = random_multiset(rng, 5, width=7)
        bound, k = 40, 8
        bundle = char_poly_evals(a.union(extra), FIELD.sample_points(9, bound + k), CODEC)
        batches = []
        real = setrecon._char_values

        def spy(elements, points, p):
            batches.append((len(elements), len(points)))
            return real(elements, points, p)

        monkeypatch.setattr(setrecon, "_char_values", spy)
        delta = reconcile_fixed(a, bundle, CODEC, bound=bound, k=k)
        assert delta.only_remote == extra and delta.only_local.total() == 0
        # one batch at every bundled point: no fed pair falls back to
        # `feed`'s one-point evaluation
        assert batches == [(a.total(), bound + k)]

    def test_feed_all_raises_at_the_pair_that_is_wrong(self, rng):
        decoder = RatelessDecoder(random_multiset(rng, 300, width=6), CODEC, 300, k=8)
        points = FIELD.sample_points(4, 40)
        pairs = [(z, 1) for z in points]
        pairs[3] = (points[3], 0)  # a zero value, before a point in the encoding range
        pairs[30] = (123, 1)
        with pytest.raises(PointCollisionError):
            decoder.feed_all(pairs)
        assert decoder.pairs_consumed == 3

    def test_feed_all_draws_no_pair_beyond_the_budget(self, rng):
        decoder = RatelessDecoder(ShingleMultiset({"abcd": 1}), CODEC, 1, k=2)
        points = iter(FIELD.sample_points(5, 100))
        drawn = []

        def pairs():
            for z in points:
                drawn.append(z)
                yield z, rng.randrange(1, FIELD.p)

        with pytest.raises(BoundExceededError):
            decoder.feed_all(pairs())
        assert len(drawn) == decoder.budget == 1 + 1 + 2
