import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shinglesync.errors import InvalidParameterError, InvalidPointError
from shinglesync.field import (
    P61,
    FieldSpec,
    NewtonInterpolator,
    RationalInterpolator,
    find_roots,
    interpolate_rational_eea,
    interpolate_rational_gauss,
    is_probable_prime,
    padd,
    pdivmod,
    peval,
    pgcd,
    pmul,
    pmonic,
    poly_from_roots,
    ppowmod,
    pscale,
    solve_linear,
)

SMALL_P = 10007


def rand_poly(rng, p, max_deg=8):
    return [rng.randrange(p) for _ in range(rng.randrange(0, max_deg))]


def naive_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def test_p61_is_the_first_prime_past_2_61():
    assert is_probable_prime(P61)
    assert P61 > 2**61
    assert all(not is_probable_prime(n) for n in range(2**61, P61))


def test_field_spec_validation():
    with pytest.raises(InvalidParameterError):
        FieldSpec(10, 4)
    spec = FieldSpec.default61()
    assert spec.encoding_limit == P61 - (1 << 40)


def test_sample_points_land_in_reserved_range():
    spec = FieldSpec.small(SMALL_P)
    pts = spec.sample_points(7, 50)
    assert len(set(pts)) == 50
    assert all(spec.encoding_limit <= z < spec.p for z in pts)
    assert pts == spec.sample_points(7, 50)


def test_mul_matches_naive(rng):
    for _ in range(300):
        a, b = rand_poly(rng, SMALL_P), rand_poly(rng, SMALL_P)
        assert pmul(a, b, SMALL_P) == naive_mul(a, b, SMALL_P)


def test_divmod_round_trip(rng):
    for _ in range(300):
        a = rand_poly(rng, SMALL_P, 12)
        b = rand_poly(rng, SMALL_P, 6)
        if not b:
            b = [1]
        q, r = pdivmod(a, b, SMALL_P)
        assert padd(pmul(q, b, SMALL_P), r, SMALL_P) == [c % SMALL_P for c in a[: len(a)]] or not a
        assert len(r) < len(b) or not r


def test_monic_trims_before_it_inverts():
    # an untrimmed list's zero leading coefficient is no leading coefficient
    assert pmonic([3, 6, 0, 0], SMALL_P) == pmonic([3, 6], SMALL_P) == [(3 * pow(6, -1, SMALL_P)) % SMALL_P, 1]
    assert pmonic([0, 0], SMALL_P) == pmonic([], SMALL_P) == []


def test_gcd_divides_both(rng):
    for _ in range(100):
        g0 = pmonic(rand_poly(rng, SMALL_P, 4) + [1], SMALL_P)
        a = pmul(g0, rand_poly(rng, SMALL_P, 4) + [1], SMALL_P)
        b = pmul(g0, rand_poly(rng, SMALL_P, 4) + [1], SMALL_P)
        g = pgcd(a, b, SMALL_P)
        assert pdivmod(a, g, SMALL_P)[1] == []
        assert pdivmod(b, g, SMALL_P)[1] == []
        assert pdivmod(g, g0, SMALL_P)[1] == []


def test_powmod_against_pow(rng):
    mod = [3, 0, 1]  # Z^2 + 3
    for e in [0, 1, 2, 7, 255]:
        base = rand_poly(rng, SMALL_P, 4)
        direct = [1]
        for _ in range(e):
            direct = pdivmod(pmul(direct, base, SMALL_P), mod, SMALL_P)[1]
        assert ppowmod(base, e, mod, SMALL_P) == direct


def schoolbook_powmod(base, e, mod, p):
    """The reference for `ppowmod`: square and multiply with schoolbook
    products and remainders."""
    result = [1]
    base = pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = pdivmod(pmul(result, base, p), mod, p)[1]
        base = pdivmod(pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


@pytest.mark.parametrize("p", [3, SMALL_P, 2**31 - 1, P61, 2**89 - 1])
def test_powmod_matches_the_schoolbook_route(p):
    # moduli of degree 1 to 24, monic or not, and bases of degree at or
    # above the modulus's as well as below it; exponents from 0 to p
    rng = random.Random(p)
    for trial in range(24):
        n = 1 + trial
        mod = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        base = [rng.randrange(p) for _ in range(rng.choice([0, 1, 2, n, n + 1, 2 * n + 3]))]
        for e in (0, 1, 2, rng.randrange(3, 10**4), (p - 1) // 2, p):
            assert ppowmod(base, e, mod, p) == schoolbook_powmod(base, e, mod, p), (trial, e)


def test_powmod_by_a_constant_modulus():
    # everything is 0 mod a constant, but the empty power is 1, as in the
    # schoolbook route
    for e in (0, 1, 5):
        assert ppowmod([3, 1], e, [7], SMALL_P) == schoolbook_powmod([3, 1], e, [7], SMALL_P)
    with pytest.raises(ZeroDivisionError):
        ppowmod([3, 1], 2, [], SMALL_P)


def test_newton_interpolation_reproduces_values(rng):
    interp = NewtonInterpolator(SMALL_P)
    pts = rng.sample(range(SMALL_P), 12)
    vals = [rng.randrange(SMALL_P) for _ in pts]
    for z, v in zip(pts, vals):
        interp.add_point(z, v)
    poly = interp.polynomial()
    assert all(peval(poly, z, SMALL_P) == v for z, v in zip(pts, vals))
    assert len(poly) <= 12


def test_newton_rejects_duplicate_points():
    interp = NewtonInterpolator(SMALL_P)
    interp.add_point(1, 2)
    with pytest.raises(InvalidParameterError):
        interp.add_point(1, 5)


class TestRoots:
    def test_planted_roots_small_prime(self, rng):
        roots = sorted(rng.sample(range(SMALL_P), 9))
        f = poly_from_roots(roots, SMALL_P)
        assert find_roots(f, SMALL_P, rng) == roots

    def test_planted_roots_large_prime(self, rng):
        roots = sorted(rng.sample(range(10**9), 24))
        f = poly_from_roots(roots, P61)
        assert find_roots(f, P61, rng) == roots

    def test_gcd_splitting_matches_scan_oracle(self, rng):
        # the small-prime scan is the independent route; force the splitting
        # path by lying about the threshold via a large prime with the same roots
        roots = sorted(rng.sample(range(1, 5000), 12))
        f_small = poly_from_roots(roots, SMALL_P)
        f_big = poly_from_roots(roots, P61)
        assert find_roots(f_small, SMALL_P, rng) == find_roots(f_big, P61, rng) == roots

    def test_non_split_returns_none(self, rng):
        # Z^2 + 1 is irreducible mod P61 (P61 % 4 == 3)
        f = pmul(poly_from_roots([5, 7], P61), [1, 0, 1], P61)
        assert find_roots(f, P61, rng) is None

    def test_constant_poly_has_no_roots(self, rng):
        assert find_roots([4], SMALL_P, rng) == []

    @pytest.mark.parametrize("p", [P61, 2**31 - 1, 998244353])
    def test_low_degrees_and_repeated_roots(self, p, rng):
        # p % 4 == 3 for the first two and 1 for the third, which takes the
        # square root's longer route: linear and quadratic factors are
        # solved directly, and a repeated root or an irreducible quadratic
        # factor means the polynomial does not split into distinct roots
        for degree in range(1, 7):
            roots = sorted(rng.sample(range(p), degree))
            assert find_roots(poly_from_roots(roots, p), p, rng) == roots
            assert find_roots(poly_from_roots(roots + roots[:1], p), p, rng) is None
        nonresidue = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        irreducible = [(-nonresidue) % p, 0, 1]  # Z**2 - c
        assert find_roots(irreducible, p, rng) is None
        assert find_roots(pmul(poly_from_roots([5, 9], p), irreducible, p), p, rng) is None
        assert find_roots(pscale(poly_from_roots([5, 9], p), 3, p), p, rng) == [5, 9]


class TestLinearSolve:
    def test_known_system(self):
        # x + 2y = 5, 3x + y = 5 mod p -> x = 1, y = 2
        assert solve_linear([[1, 2], [3, 1]], [5, 5], SMALL_P) == [1, 2]

    def test_singular_consistent_uses_free_vars(self):
        sol = solve_linear([[1, 1], [2, 2]], [3, 6], SMALL_P)
        assert sol is not None
        x, y = sol
        assert (x + y) % SMALL_P == 3

    def test_inconsistent_returns_none(self):
        assert solve_linear([[1, 1], [1, 1]], [1, 2], SMALL_P) is None


class TestRationalInterpolation:
    @staticmethod
    def reduced(num, den, p):
        g = pgcd(num, den, p)
        if len(g) > 1:
            num = pdivmod(num, g, p)[0]
            den = pdivmod(den, g, p)[0]
        inv = pow(den[-1], p - 2, p)
        return pscale(num, inv, p), pscale(den, inv, p)

    def test_methods_agree_and_recover(self, rng):
        p = P61
        for _ in range(60):
            dn, dd = rng.randrange(0, 5), rng.randrange(0, 5)
            num = poly_from_roots(rng.sample(range(1, 10**6), dn), p)
            den = poly_from_roots(rng.sample(range(10**6, 2 * 10**6), dd), p)
            zs = [p - 1 - i for i in range(dn + dd + 6)]
            rs = [peval(num, z, p) * pow(peval(den, z, p), p - 2, p) % p for z in zs]
            g = interpolate_rational_gauss(zs, rs, dn, dd, p)
            e = interpolate_rational_eea(zs, rs, dn, dd, p)
            assert g is not None and e is not None
            assert self.reduced(*g, p) == self.reduced(*e, p) == (num, den)

    def test_overshoot_hypothesis_reduces_to_truth(self):
        p = P61
        num = poly_from_roots([11, 22], p)
        den = poly_from_roots([33], p)
        zs = [p - 1 - i for i in range(30)]
        rs = [peval(num, z, p) * pow(peval(den, z, p), p - 2, p) % p for z in zs]
        for dn, dd in [(5, 4), (9, 8)]:
            got = interpolate_rational_gauss(zs, rs, dn, dd, p)
            assert got is not None
            assert self.reduced(*got, p) == (num, den)

    def test_point_shortage_raises(self):
        with pytest.raises(InvalidParameterError):
            interpolate_rational_gauss([1, 2], [1, 1], 2, 2, SMALL_P)


class TestRationalInterpolator:
    SPEC = FieldSpec.default61()
    K = 8

    @classmethod
    def node(cls, num, den, z):
        """The node w = 1/z carrying num(z)/den(z) * w**shift, as the decoder feeds it."""
        p = cls.SPEC.p
        shift = len(num) - len(den)
        w = pow(z, p - 2, p)
        return w, peval(num, z, p) * pow(peval(den, z, p), p - 2, p) * pow(w, shift, p) % p

    @given(
        st.integers(0, 24),
        st.integers(0, 24),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_accepts_the_true_pair_after_degrees_plus_k_nodes(self, d1, d2, seed):
        rng = random.Random(seed)
        spec, k = self.SPEC, self.K
        dn, dd = max(d1, d2), min(d1, d2)
        roots = rng.sample(range(1, spec.encoding_limit), dn + dd)
        num = poly_from_roots(roots[:dn], spec.p)
        den = poly_from_roots(roots[dn:], spec.p)
        interp = RationalInterpolator(spec.p, dn - dd)
        interp.add_node(0, 1)
        for z in spec.sample_points(seed, dn + dd + k):
            assert interp.candidate(k) is None
            interp.add_node(*self.node(num, den, z))
        assert interp.candidate(k) == (num, den)

    def test_random_values_never_accepted(self, rng):
        p = self.SPEC.p
        for shift in (0, 1, 5):
            interp = RationalInterpolator(p, shift)
            interp.add_node(0, 1)
            for z in self.SPEC.sample_points(shift, 120):
                interp.add_node(pow(z, p - 2, p), rng.randrange(1, p))
                assert interp.candidate(2) is None

    def test_rejected_candidate_stays_rejected_until_it_changes(self):
        p = self.SPEC.p
        num, den = poly_from_roots([5, 6], p), poly_from_roots([7], p)
        interp = RationalInterpolator(p, 1)
        interp.add_node(0, 1)
        for z in self.SPEC.sample_points(3, 3 + 2):
            interp.add_node(*self.node(num, den, z))
        assert interp.candidate(2) == (num, den)
        interp.reject()
        assert interp.candidate(2) is None
        interp.add_node(*self.node(num, den, self.SPEC.p - 2))
        assert interp.candidate(2) is None

    def test_repeated_point_raises(self):
        interp = RationalInterpolator(SMALL_P, 0)
        interp.add_node(0, 1)
        interp.add_node(5, 3)
        with pytest.raises(InvalidPointError):
            interp.add_node(5, 3)
        with pytest.raises(InvalidPointError):
            interp.add_node(SMALL_P, 1)

    def test_shifted_degrees_sum_to_nodes_plus_shift(self, rng):
        interp = RationalInterpolator(SMALL_P, 3)
        for x in rng.sample(range(SMALL_P), 40):
            interp.add_node(x, rng.randrange(SMALL_P))
            assert sum(interp.degrees) == interp.nodes + 3
            for (a, b), d in zip(interp.basis, interp.degrees):
                assert d == max(len(a) - 1, len(b) - 1 + 3 if b else -1)

