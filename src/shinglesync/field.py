"""Prime-field and polynomial arithmetic for characteristic-polynomial reconciliation.

Polynomials over GF(p) are little-endian coefficient lists; [] is the zero
polynomial and trailing zero coefficients are trimmed.  Everything here is
plain Python integers, sized for a fixed 61-bit default prime with smaller
primes selectable for tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import CapacityError, InvalidParameterError, InvalidPointError

# Smallest prime above 2**61; products of two residues stay well inside
# Python's fast int range.
P61 = 2305843009213693967

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a witness set deterministic for all 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field together with its reserved evaluation-point range.

    Sample points are drawn from the top `point_span` residues, which are
    excluded from the shingle-encoding range, so a point can never coincide
    with an encoded element.
    """

    p: int
    point_span: int

    def __post_init__(self):
        if not is_probable_prime(self.p):
            raise InvalidParameterError(f"{self.p} is not prime")
        if not 0 < self.point_span < self.p:
            raise InvalidParameterError("point_span must be in (0, p)")

    @classmethod
    def default61(cls) -> "FieldSpec":
        return cls(P61, 1 << 40)

    @classmethod
    def small(cls, p: int) -> "FieldSpec":
        return cls(p, max(2, p // 4))

    @property
    def encoding_limit(self) -> int:
        return self.p - self.point_span

    def sample_points(self, seed: int, count: int) -> list[int]:
        """The first `count` points of `PointStream(self, seed)`."""
        return PointStream(self, seed).take(count)


class PointStream:
    """The seeded sequence of distinct points from a field's reserved top range.

    Both parties of a session draw the same sequence from the shared seed, so
    an evaluation crosses the wire as its value alone.
    """

    def __init__(self, field: FieldSpec, seed: int):
        self.field = field
        self._rng = random.Random(seed)
        self._seen: set[int] = set()

    def take(self, count: int) -> list[int]:
        """The next `count` points of the sequence."""
        field, seen = self.field, self._seen
        if count > field.point_span - len(seen):
            raise CapacityError("field too small for the requested number of points")
        out: list[int] = []
        while len(out) < count:
            z = field.p - 1 - self._rng.randrange(field.point_span)
            if z in seen:
                continue
            seen.add(z)
            out.append(z)
        return out


# ---------------------------------------------------------------------------
# polynomial arithmetic, little-endian coefficient lists


def ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return ptrim(out)


def psub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return ptrim(out)


def pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return ptrim(out)


def pscale(a: list[int], c: int, p: int) -> list[int]:
    c %= p
    return ptrim([ai * c % p for ai in a])


def pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    b = ptrim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = ptrim(list(a))
    if len(a) < len(b):
        return [], a
    inv_lead = pow(b[-1], -1, p)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[len(b) - 1 + i] * inv_lead % p
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return ptrim(q), ptrim(a[: len(b) - 1])


def pmod(a: list[int], b: list[int], p: int) -> list[int]:
    return pdivmod(a, b, p)[1]


def pmonic(a: list[int], p: int) -> list[int]:
    a = ptrim(list(a))
    if not a or a[-1] == 1:
        return a
    return pscale(a, pow(a[-1], -1, p), p)


def pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, pmod(a, b, p)
    return pmonic(a, p)


def peval(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _pack(a: list[int], width: int) -> int:
    """Kronecker substitution: the residues of `a` as one integer, a
    `width`-byte slot each, little-endian."""
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in a]), "little")


def _unpack(x: int, width: int, count: int, p: int) -> list[int]:
    """The low `count` slots of `width` bytes of `x`, each reduced mod p."""
    raw = (x & ((1 << 8 * width * count) - 1)).to_bytes(width * count, "little")
    return [int.from_bytes(raw[i : i + width], "little") % p for i in range(0, width * count, width)]


def ppowmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base**e reduced modulo the polynomial `mod`.

    The powers stay packed by Kronecker substitution (Harvey, J. Symbolic
    Comput. 2009), a coefficient to each slot of W bits, so a product is one
    big-integer product.  For the monic f = `mod` of degree n, coefficients
    are kept below 3p rather than p, and every slot below 2**t, t the bit
    length of 12 n p**2, with W > t, so no product carries from one slot
    into the next.  A product's remainder mod f takes a few big-integer
    operations and no loop over its coefficients:

    - `reduce_slots` brings every slot below 3p by Barrett's quotient
      floor(v mu / 2**t), mu = floor(2**t / p), on the even slots and then
      the odd ones, so that each v mu has the empty slot above it for room;
    - the quotient by f of a product of degree at most 2n - 2 is its top
      coefficients times mu_f = Z**(2n-2) div f, divided by Z**(n-2); mu_f
      is the reversed inverse of f's reversal mod Z**(n-1), found once a
      call by Newton iteration (von zur Gathen & Gerhard, "Modern Computer
      Algebra", ch. 9).  A quotient of one coefficient is the top one;
    - the remainder is the low n slots less the quotient times f, with
      3 n p**2, a multiple of p, added to each slot to keep it positive.
    """
    f = pmonic(mod, p)
    if not f:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(f) - 1
    if n < 2:
        # everything is 0 mod a constant, and base(r) mod Z - r; base**0
        # stays 1, as in the schoolbook route
        if not n:
            return [] if e else [1]
        return ptrim([pow(peval(base, -f[0] % p, p), e, p)])
    t = (12 * n * p * p).bit_length()
    width = t // 8 + 1
    slot = 8 * width
    mu = (1 << t) // p
    # each even slot, whole, and the low bits of each even slot that hold
    # a Barrett quotient, below 2**(t - p.bit_length() + 1)
    even = int.from_bytes((b"\xff" * width + bytes(width)) * n, "little")
    quotient = ((1 << t - p.bit_length() + 1) - 1).to_bytes(width, "little")
    quotients = int.from_bytes((quotient + bytes(width)) * n, "little")
    low, low_q = (1 << slot * n) - 1, (1 << slot * (n - 1)) - 1
    pad = _pack([3 * n * p * p] * n, width)

    def reduce_slots(x: int) -> int:
        ev = x & even
        od = x >> slot & even
        ev -= (ev * mu >> t & quotients) * p
        od -= (od * mu >> t & quotients) * p
        return ev | od << slot

    rev = f[::-1]
    # the inverse of rev mod Z**(n-1), doubling its precision a step
    inv, prec = [1], 1
    while prec < n - 1:
        prec = min(2 * prec, n - 1)
        fix = [(-c) % p for c in _unpack(_pack(rev[:prec], width) * _pack(inv, width), width, prec, p)]
        fix[0] = (fix[0] + 2) % p
        inv = _unpack(_pack(inv, width) * _pack(fix, width), width, prec, p)
    packed_mu, packed_f = _pack(inv[::-1], width), _pack(f, width)

    def reduce(x: int) -> int:
        """The product packed in `x`, of degree at most 2n - 2, mod f."""
        m = -(-x.bit_length() // slot) - n  # the quotient's length
        if m > 1:
            x = reduce_slots(x)
            q = reduce_slots((x >> slot * n) * packed_mu >> slot * (n - 2) & low_q)
            x = (x & low) + pad - (q * packed_f & low)
        elif m == 1:
            x = (x & low) + pad - ((x >> slot * n) % p * packed_f & low)
        return reduce_slots(x)

    x = 1
    packed_base = _pack(pmod(base, f, p), width)
    for bit in bin(e)[2:] if e else "":
        x = reduce(x * x)
        if bit == "1":
            x = reduce(x * packed_base)
    return ptrim(_unpack(x, width, n, p))


def poly_from_roots(roots: list[int], p: int) -> list[int]:
    out = [1]
    for r in roots:
        out = pmul(out, [(-r) % p, 1], p)
    return out


class NewtonInterpolator:
    """Incremental polynomial interpolation via divided differences.

    Points can be appended one at a time; polynomial() returns the unique
    interpolant of degree < number of points, in coefficient form.
    """

    def __init__(self, p: int):
        self.p = p
        self.xs: list[int] = []
        self.coeffs: list[int] = []  # divided-difference coefficients
        self._basis: list[int] = [1]  # prod (x - x_i), little-endian
        self._poly: list[int] = []

    def add_point(self, x: int, y: int) -> None:
        p = self.p
        # divided difference of the new point against the current polynomial
        denom = 1
        for xi in self.xs:
            denom = denom * (x - xi) % p
        if denom == 0:
            raise InvalidParameterError("duplicate interpolation point")
        num = (y - peval(self._poly, x, p)) % p
        c = num * pow(denom, -1, p) % p
        self._poly = padd(self._poly, pscale(self._basis, c, p), p)
        self._basis = pmul(self._basis, [(-x) % p, 1], p)
        self.xs.append(x)
        self.coeffs.append(c)

    def polynomial(self) -> list[int]:
        return list(self._poly)

    def modulus(self) -> list[int]:
        """prod (Z - x_i) over the points added so far."""
        return list(self._basis)


def _sub_scaled(a: list[int], b: list[int], c: int, p: int) -> None:
    """a -= c * b, in place."""
    if len(a) < len(b):
        a.extend([0] * (len(b) - len(a)))
    a[: len(b)] = [(ai - c * bi) % p for ai, bi in zip(a, b)]
    ptrim(a)


def _mul_linear(a: list[int], x: int, p: int) -> None:
    """a *= (Z - x), in place."""
    if a:
        a[:] = [(lo - x * hi) % p for lo, hi in zip([0, *a], [*a, 0])]


class RationalInterpolator:
    """Incremental rational interpolation over a two-element order basis.

    Keeps a basis of the module {(A, B) : A(x_i) = y_i * B(x_i) at every node
    added so far}, reduced for the shifted degree max(deg A, deg B + shift)
    (Beckermann & Labahn, SIAM J. Matrix Anal. Appl. 1994).  Each node costs
    O(degree): both residuals are evaluated, the element with a nonzero
    residual and the smaller shifted degree (the lower index on a tie) clears
    the other's residual, and is then multiplied by (Z - x).  The two shifted
    degrees always sum to the node count plus `shift`, so once the nodes
    outnumber the degrees of a pair that fits them all, that pair is the
    strictly smaller element and stays unchanged while further nodes agree.

    The nodes are meant to be w = 1/z with values r(z) * w**shift for a ratio
    r = num/den of monic polynomials with deg num - deg den = shift, plus
    the node (0, 1), which makes the reversed pair monic; `candidate` reads
    the pair back in z.
    """

    def __init__(self, p: int, shift: int):
        if shift < 0:
            raise InvalidParameterError("shift must be >= 0")
        self.p = p
        self.shift = shift
        self.nodes = 0
        self.basis: list[tuple[list[int], list[int]]] = [([1], []), ([], [1])]
        self.degrees = [0, shift]
        self.changed = [-1, -1]  # index of the node at which each element last changed
        self._xs: set[int] = set()
        self._rejected: tuple[int, int] | None = None

    def add_node(self, x: int, y: int) -> None:
        p = self.p
        x %= p
        if x in self._xs:
            # a repeated node would pass as one more verified node
            raise InvalidPointError(f"repeated interpolation node {x}")
        self._xs.add(x)
        residuals = [(peval(a, x, p) - y * peval(b, x, p)) % p for a, b in self.basis]
        live = [i for i in (0, 1) if residuals[i]]
        if live:
            pivot = min(live, key=lambda i: (self.degrees[i], i))
            other = 1 - pivot
            pa, pb = self.basis[pivot]
            if residuals[other]:
                c = residuals[other] * pow(residuals[pivot], -1, p) % p
                oa, ob = self.basis[other]
                _sub_scaled(oa, pa, c, p)
                _sub_scaled(ob, pb, c, p)
                self.changed[other] = self.nodes
            _mul_linear(pa, x, p)
            _mul_linear(pb, x, p)
            self.degrees[pivot] += 1
            self.changed[pivot] = self.nodes
        self.nodes += 1

    def _smaller(self) -> int | None:
        d0, d1 = self.degrees
        if d0 == d1:
            return None
        return 0 if d0 < d1 else 1

    def candidate(self, k: int) -> tuple[list[int], list[int]] | None:
        """Monic (num, den) in z = 1/w from the strictly smaller element.

        Returns None unless that element has fitted at least `k` nodes since
        it last changed, has not been rejected in its current form, and its
        reversed coefficients give deg num - deg den = shift with equal,
        nonzero leading coefficients.
        """
        i = self._smaller()
        if i is None or self.nodes - 1 - self.changed[i] < k:
            return None
        if self._rejected == (i, self.changed[i]):
            return None
        a, b = self.basis[i]
        num, den = ptrim(a[::-1]), ptrim(b[::-1])
        if not num or not den or len(num) - len(den) != self.shift or num[-1] != den[-1]:
            self._rejected = (i, self.changed[i])
            return None
        p = self.p
        inv = pow(num[-1], -1, p)
        return pscale(num, inv, p), pscale(den, inv, p)

    def reject(self) -> None:
        """Skip the current candidate until the element it came from changes."""
        i = self._smaller()
        if i is not None:
            self._rejected = (i, self.changed[i])


def _sqrt_mod(x: int, p: int) -> int:
    """A square root of the quadratic residue x mod the odd prime p
    (Tonelli-Shanks)."""
    if not x:
        return 0
    q, s = p - 1, 0
    while not q & 1:
        q, s = q >> 1, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(x, (q + 1) // 2, p), pow(x, q, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return r


def find_roots(f: list[int], p: int, rng: random.Random | None = None) -> list[int] | None:
    """All roots of a squarefree `f` that splits into distinct linear factors.

    Returns None when `f` does not split completely over GF(p).  Uses random
    equal-degree splitting (Rabin, SIAM J. Comput. 1980): a factor g splits
    by gcd(h - 1, g) for h = (Z + a)**((p-1)/2) mod g.  The first h, mod f,
    also settles whether f splits at all: since (Z + a)**p = Z**p + a, f
    divides Z**p - Z, the product of every (Z - c), exactly when
    h**2 (Z + a) = Z + a mod f.  A quadratic factor is solved by the square
    root of its discriminant, which for f itself must be a nonzero square.
    Small fields fall back to direct scanning so tests have an independent
    route.
    """
    f = pmonic(f, p)
    if not f:
        raise InvalidParameterError("zero polynomial has every root")
    if len(f) == 1:
        return []
    if p < (1 << 20):
        roots = [x for x in range(p) if peval(f, x, p) == 0]
        return roots if len(roots) == len(f) - 1 else None
    rng = rng or random.Random(0xC0FFEE)
    half = (p - 1) // 2
    roots: list[int] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if len(g) == 2:
            roots.append((-g[0]) % p)
            continue
        if len(g) == 3:
            c, b, _ = g
            disc = (b * b - 4 * c) % p
            if g is f and pow(disc, half, p) != 1:
                return None
            root = _sqrt_mod(disc, p)
            # (-b +- root) / 2, with 1/2 = (p + 1) / 2 mod p
            roots += [(r - b) * (half + 1) % p for r in (root, -root)]
            continue
        a = rng.randrange(p)
        h = ppowmod([a, 1], half, g, p)
        if g is f and pmod(pmul(ppowmod(h, 2, g, p), [a, 1], p), g, p) != [a, 1]:
            return None
        d = pgcd(psub(h, [1], p), g, p)
        stack += [d, pdivmod(g, d, p)[0]] if 0 < len(d) - 1 < len(g) - 1 else [g]
    return sorted(roots)


def solve_linear(matrix: list[list[int]], rhs: list[int], p: int) -> list[int] | None:
    """Gaussian elimination mod p with column pivoting; free variables are 0.

    Returns None when the system is inconsistent.
    """
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    rows = [list(r) + [b % p] for r, b in zip(matrix, rhs)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(vi - f * vr) % p for vi, vr in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if rows[i][n_cols]:
            return None
    solution = [0] * n_cols
    for i, c in enumerate(pivot_cols):
        solution[c] = rows[i][n_cols]
    return solution


def interpolate_rational_gauss(
    zs: list[int], rs: list[int], deg_num: int, deg_den: int, p: int
) -> tuple[list[int], list[int]] | None:
    """Monic num/den with num(z) = r * den(z) at each point, via a linear solve.

    Uses exactly deg_num + deg_den points; both polynomials are monic of the
    exact degrees requested, so the system is square.
    """
    u = deg_num + deg_den
    if len(zs) < u:
        raise InvalidParameterError(f"need {u} points, have {len(zs)}")
    matrix: list[list[int]] = []
    rhs: list[int] = []
    for z, r in zip(zs[:u], rs[:u]):
        row = [pow(z, j, p) for j in range(deg_num)]
        row += [(-r * pow(z, j, p)) % p for j in range(deg_den)]
        matrix.append(row)
        rhs.append((r * pow(z, deg_den, p) - pow(z, deg_num, p)) % p)
    sol = solve_linear(matrix, rhs, p) if u else []
    if sol is None:
        return None
    num = ptrim(sol[:deg_num] + [1])
    den = ptrim(sol[deg_num:] + [1])
    return num, den


def rational_from_modulus(
    big_m: list[int], f: list[int], deg_num: int, deg_den: int, p: int
) -> tuple[list[int], list[int]] | None:
    """Rational reconstruction of f mod big_m via the extended Euclidean
    algorithm, stopping at the first remainder of degree <= deg_num."""
    r0, r1 = big_m, f
    t0, t1 = [], [1]
    while r1 and len(r1) - 1 > deg_num:
        q, rem = pdivmod(r0, r1, p)
        r0, r1 = r1, rem
        t0, t1 = t1, psub(t0, pmul(q, t1, p), p)
    if not r1 or not t1 or len(t1) - 1 > deg_den:
        return None
    g = pgcd(r1, t1, p)
    if len(g) > 1:
        r1 = pdivmod(r1, g, p)[0]
        t1 = pdivmod(t1, g, p)[0]
    inv = pow(t1[-1], -1, p)
    return pscale(r1, inv, p), pscale(t1, inv, p)


def interpolate_rational_eea(
    zs: list[int], rs: list[int], deg_num: int, deg_den: int, p: int
) -> tuple[list[int], list[int]] | None:
    """Rational reconstruction via the extended Euclidean algorithm.

    Needs deg_num + deg_den + 1 points: interpolate F through the ratios,
    then reconstruct from (prod (Z - z_i), F).
    """
    u = deg_num + deg_den + 1
    if len(zs) < u:
        raise InvalidParameterError(f"need {u} points, have {len(zs)}")
    interp = NewtonInterpolator(p)
    for z, r in zip(zs[:u], rs[:u]):
        interp.add_point(z, r)
    return rational_from_modulus(interp.modulus(), interp.polynomial(), deg_num, deg_den, p)


# above this many unknowns the cubic-cost linear solve is replaced by the
# quadratic Euclidean route (one extra sample point)
GAUSS_LIMIT = 64


def interpolate_rational(
    zs: list[int], rs: list[int], deg_num: int, deg_den: int, p: int
) -> tuple[list[int], list[int]] | None:
    if deg_num + deg_den <= GAUSS_LIMIT:
        return interpolate_rational_gauss(zs, rs, deg_num, deg_den, p)
    return interpolate_rational_eea(zs, rs, deg_num, deg_den, p)
