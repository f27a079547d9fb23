import itertools
import math
import operator
import random
import re
import time

import pytest
from hypothesis import assume, given, strategies as st

from prismalab import witt_base
from prismalab.errors import NotAUnit, InputError
from prismalab.series_rings import SeriesElem
from prismalab.witt_base import (
    WittElem, WittRing, _is_prime, default_irreducible, is_irreducible_mod_p,
)


# ---------------------------------------------------------------------------
# reference kernels: the product reduced mod q at every step, and sigma
# applied by substitution x -> sigma(x) with one boxed element per term
# ---------------------------------------------------------------------------


def mul_reduce_each_step(a, b):
    R = a.ring
    q, m = R.q, R.m
    out = [0] * (2 * m - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                out[i + j] = (out[i + j] + x * y) % q
    while len(out) > m:
        c = out.pop()
        if c:
            base = len(out) - m
            for i in range(m):
                out[base + i] = (out[base + i] - c * R.f[i]) % q
    return WittElem(R, tuple(out))


def sigma_by_substitution(a):
    R = a.ring
    if R.m == 1:
        return a
    pows = [R.one()]
    for _ in range(R.m - 1):
        pows.append(mul_reduce_each_step(pows[-1], R.sigma_gen()))
    acc = R.zero()
    for c, pw in zip(a.coeffs, pows):
        acc = acc + pw.scale(c)
    return acc


# every ring with p^{nm} <= 256 and m >= 2, two user-supplied lifts f, and
# two rings with m = 1, where the product takes its own branch
ORACLE_RINGS = [(p, n, m, None)
                for p in (2, 3, 5, 7, 11, 13)
                for n in range(1, 5) for m in range(2, 9)
                if p ** (n * m) <= 256] + [
    (2, 2, 2, [5, 3, 1]), (3, 1, 2, [2, 2, 1]),
    (2, 4, 1, None), (5, 2, 1, None)]


@pytest.mark.parametrize("p,n,m,f", ORACLE_RINGS)
def test_kernels_match_references_exhaustive(p, n, m, f):
    R = WittRing(p, n, m, f)
    els = R.elements()
    for a in els:
        assert R.sigma(a) == sigma_by_substitution(a)
        for b in els:
            assert a * b == mul_reduce_each_step(a, b)


def test_irreducibility_detector():
    assert is_irreducible_mod_p([1, 1, 1], 2)        # x^2+x+1
    assert not is_irreducible_mod_p([1, 0, 1], 2)    # (x+1)^2
    assert is_irreducible_mod_p([1, 2, 0, 1], 3)     # degree 3 mod 3
    assert not is_irreducible_mod_p([0, 1, 1], 5)    # x(x+1)


def test_default_irreducible_small_fields():
    for p, m in [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (2, 4)]:
        f = default_irreducible(p, m)
        assert len(f) == m + 1 and f[-1] == 1
        assert is_irreducible_mod_p(f, p)


# ---------------------------------------------------------------------------
# Ben-Or's test against trial division
# ---------------------------------------------------------------------------


def monic_polys(p, d):
    """Every monic polynomial of degree d over F_p, low degree first, in
    the order of the code sum c_i p^i of its lower coefficients."""
    for high_first in itertools.product(range(p), repeat=d):
        yield list(reversed(high_first)) + [1]


def remainder_mod_monic(f, g, p):
    r = list(f)
    for k in range(len(r) - len(g), -1, -1):
        c = r[k + len(g) - 1] % p
        if c:
            for i, gi in enumerate(g):
                r[k + i] -= c * gi
    return [c % p for c in r[:len(g) - 1]]


def irreducible_by_trial_division(f, p):
    """f monic of degree m >= 1 has no monic factor of degree 1..m//2."""
    m = len(f) - 1
    return all(any(remainder_mod_monic(f, g, p))
               for d in range(1, m // 2 + 1) for g in monic_polys(p, d))


def primes_below(bound):
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for k in range(2, math.isqrt(bound - 1) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, bound, k)))
    return [k for k in range(bound) if sieve[k]]


def degrees_within(bound, m_min):
    """(p, m) for every prime p and every m >= m_min with p^m <= bound."""
    return [(p, m) for p in primes_below(bound + 1)
            for m in range(m_min, bound.bit_length())
            if p ** m <= bound]


def test_irreducibility_matches_trial_division_exhaustive():
    # every monic f of degree m >= 2 with p^m <= 2^12 (a degree-1 f is
    # irreducible at every p, checked at the small primes)
    cases = degrees_within(2 ** 12, 2) + [(p, 1) for p in (2, 3, 5, 7)]
    count = 0
    for p, m in cases:
        for f in monic_polys(p, m):
            assert is_irreducible_mod_p(f, p) == \
                irreducible_by_trial_division(f, p), (p, f)
            count += 1
    assert count == 42092


def test_default_irreducible_is_the_first_by_trial_division():
    cases = degrees_within(2 ** 16, 1)
    assert len(cases) == 6542 + 93
    for p, m in cases:
        first = next(f for f in monic_polys(p, m)
                     if irreducible_by_trial_division(f, p))
        assert default_irreducible(p, m) == first, (p, m)


def poly(p, m, terms):
    f = [0] * (m + 1)
    for i, c in terms:
        f[i] = c
    return f


# as found by the search with Rabin's test, which Ben-Or's replaced
@pytest.mark.parametrize("p,m,f", [
    (2, 32, poly(2, 32, [(0, 1), (2, 1), (3, 1), (7, 1), (32, 1)])),
    (2, 64, poly(2, 64, [(0, 1), (1, 1), (3, 1), (4, 1), (64, 1)])),
    (3, 32, poly(3, 32, [(0, 1), (1, 2), (2, 2), (3, 1), (32, 1)])),
    (3, 64, poly(3, 64, [(0, 2), (3, 1), (64, 1)])),
    (2, 128, poly(2, 128, [(0, 1), (1, 1), (2, 1), (7, 1), (128, 1)])),
])
def test_default_irreducible_frozen_at_large_degree(p, m, f):
    assert default_irreducible(p, m) == f


def test_ring_at_degree_128_builds_in_seconds():
    # with Rabin's test the search alone took 10.5-11 s on a shared 2-core
    # Xeon; Ben-Or's takes 0.2-0.3 s there
    witt_base._witt_ring.cache_clear()
    t0 = time.perf_counter()
    R = WittRing(2, 1, 128)
    assert time.perf_counter() - t0 < 3
    assert R.f == tuple(default_irreducible(2, 128))


def test_power_makes_one_product_per_square_and_set_bit():
    for e in range(1, 65):
        calls = []
        mul = lambda a, b: calls.append(1) or a * b
        assert witt_base._power(3, e, mul) == 3 ** e
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1, e


def test_ring_cardinality():
    R = WittRing(2, 2, 2, [1, 1, 1])
    assert len(set(e.coeffs for e in R.elements())) == 2 ** (2 * 2)


def test_sigma_identity_when_m_is_1():
    R = WittRing(3, 2, 1)
    for c in range(9):
        assert R.sigma(R.elem([c])) == R.elem([c])


def test_sigma_frozen_value_p2_n2():
    # unique root of f congruent to x^2 mod 2, found by enumeration
    R = WittRing(2, 2, 2, [1, 1, 1])
    assert R.sigma_gen() == R.elem([3, 3])
    x = R.gen()
    roots = [y for y in R.elements()
             if (y * y + y + R.one()).is_zero()
             and all((a - b) % 2 == 0 for a, b in zip(y.coeffs, (x * x).coeffs))]
    assert roots == [R.elem([3, 3])]


def test_sigma_involution_on_w2_f4():
    R = WittRing(2, 2, 2, [1, 1, 1])
    for e in R.elements():
        assert R.sigma(R.sigma(e)) == e


def test_sigma_order_m_and_frobenius_mod_p_exhaustive():
    # every ring with p^{nm} <= 4096
    cases = []
    for p in (2, 3, 5, 7, 11):
        for n in (1, 2, 3, 4):
            for m in (1, 2, 3, 4):
                if p ** (n * m) <= 4096:
                    cases.append((p, n, m))
    for p, n, m in cases:
        R = WittRing(p, n, m)
        for e in R.elements():
            s = e
            for _ in range(m):
                s = R.sigma(s)
            assert s == e, (p, n, m)
            fr = R.sigma(e)
            pw = e ** p
            assert ([c % p for c in fr.coeffs]
                    == [c % p for c in pw.coeffs]), (p, n, m)


def test_sigma_is_ring_hom_random():
    R = WittRing(3, 2, 2)
    rng = random.Random(0)
    els = R.elements()
    for _ in range(1000):
        a, b = rng.choice(els), rng.choice(els)
        assert R.sigma(a + b) == R.sigma(a) + R.sigma(b)
        assert R.sigma(a * b) == R.sigma(a) * R.sigma(b)


def test_arith_basics_and_frozen_inverse():
    R = WittRing(3, 2, 1)
    a = R.elem([5])
    assert a * R.one() == a
    # brute force over Z/9: 4 * 7 = 28 = 1 mod 9
    assert R.elem([4]).inv() == R.elem([7])
    assert [b for b in range(9) if (4 * b) % 9 == 1] == [7]


def test_one_plus_p_times_anything_is_a_unit():
    R = WittRing(2, 3, 2)
    for e in R.elements():
        u = R.one() + e.scale(2)
        assert (u * u.inv()) == R.one()


def test_not_a_unit():
    R = WittRing(2, 2, 1)
    with pytest.raises(NotAUnit):
        R.elem([2]).inv()


def test_ring_axioms_random_triples():
    R = WittRing(2, 3, 2)
    rng = random.Random(1)
    els = R.elements()
    for _ in range(1000):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


def test_reducible_f_rejected():
    with pytest.raises(InputError):
        WittRing(2, 1, 2, [1, 0, 1])


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
def test_non_prime_p_rejected(p):
    with pytest.raises(InputError):
        WittRing(p, 1, 1)


def test_lower_precision():
    R = WittRing(2, 3, 2)
    R2 = R.lower_precision(2)
    assert R2.n == 1 and R2.p == 2 and R2.m == 2


PROPERTY_RINGS = [WittRing(2, 3, 2), WittRing(3, 2, 3), WittRing(5, 2, 2),
                  WittRing(2, 2, 4), WittRing(7, 3, 1),
                  WittRing(2, 2, 2, [5, 3, 1])]


@st.composite
def ring_elems(draw, k):
    R = draw(st.sampled_from(PROPERTY_RINGS))
    coeff = st.integers(0, R.q - 1)
    return [R.elem([draw(coeff) for _ in range(R.m)]) for _ in range(k)]


@given(ring_elems(2))
def test_sigma_is_ring_hom_property(ab):
    a, b = ab
    R = a.ring
    assert R.sigma(R.one()) == R.one()
    assert R.sigma(a + b) == R.sigma(a) + R.sigma(b)
    assert R.sigma(a * b) == R.sigma(a) * R.sigma(b)


@given(ring_elems(1))
def test_sigma_has_order_m_property(a1):
    a, = a1
    s = a
    for _ in range(a.ring.m):
        s = a.ring.sigma(s)
    assert s == a


@given(ring_elems(1))
def test_unit_inverse_property(a1):
    a, = a1
    assume(a.is_unit())
    assert a * a.inv() == a.ring.one()
    assert a.inv() * a == a.ring.one()


# ---------------------------------------------------------------------------
# reference: the boxed schoolbook product, its reduction, the boxed
# square-and-multiply and the row-matrix sigma, kept verbatim as functions
# of the ring or element; the packed arithmetic must equal them
# ---------------------------------------------------------------------------


def ref_reduce(self, coeffs):
    """coeffs (length >= m, overwritten) mod (f, q), with one % q per
    coefficient."""
    m, f = self.m, self.f
    # x^k = x^{k-m} x^m = -sum f_i x^{k-m+i}, top degree first
    for k in range(len(coeffs) - 1, m - 1, -1):
        c = coeffs[k]
        if c:
            for i in range(m):
                coeffs[k - m + i] -= c * f[i]
    return [c % self.q for c in coeffs[:m]]


def ref_sigma(self, a):
    """The Frobenius lift, a -> M a with M from _sigma_matrix."""
    if self.m == 1:
        return a
    return WittElem(self, tuple([
        sum(map(operator.mul, row, a.coeffs)) % self.q
        for row in self._sigma_mat or self._sigma_matrix()]))


def ref_mul(self, other):
    if isinstance(other, int):
        return self.scale(other)
    r = self.ring
    if r.m == 1:
        return WittElem(r, ((self.coeffs[0] * other.coeffs[0]) % r.q,))
    out = [0] * (2 * r.m - 1)
    for i, a in enumerate(self.coeffs):
        if a:
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
    return WittElem(r, tuple(ref_reduce(r, out)))


def ref_pow(self, e):
    acc = self.ring.one()
    base = self
    while e:
        if e & 1:
            acc = ref_mul(acc, base)
        base = ref_mul(base, base)
        e >>= 1
    return acc


def sweep_rings():
    """Every (p, n, m) with p <= 64 and p^(nm) <= 4096 (115 rings)."""
    return [(p, n, m) for p in range(2, 65) if _is_prime(p)
            for n in range(1, 13) for m in range(1, 13)
            if p ** (n * m) <= 4096]


# q = 256 gives sigma tables one slot wide and q = 257 none; the last two
# have a slot spacing over 64 bits
REF_RINGS = [WittRing(2, 1, 12), WittRing(2, 12, 1), WittRing(61, 1, 2),
             WittRing(2, 6, 2), WittRing(3, 1, 7), WittRing(5, 2, 3),
             WittRing(2, 8, 2), WittRing(257, 1, 2),
             WittRing(10 ** 12 + 39, 1, 2), WittRing(3, 20, 2)]


def exponents(R):
    return st.sampled_from([0, 1, R.p, R.p ** R.m, 2 ** 20 + 1])


def assert_matches_reference(a, b, e):
    R = a.ring
    assert (a * b).coeffs == ref_mul(a, b).coeffs
    assert (a ** e).coeffs == ref_pow(a, e).coeffs
    assert R.sigma(a).coeffs == ref_sigma(R, a).coeffs
    # the additive operations and scale against boxed tuples mod q
    boxed = lambda cs: tuple(c % R.q for c in cs)
    pairs = list(zip(a.coeffs, b.coeffs))
    assert (a + b).coeffs == boxed(x + y for x, y in pairs)
    assert (a - b).coeffs == boxed(x - y for x, y in pairs)
    for c in (e, -e):
        assert a.scale(c).coeffs == boxed(x * c for x in a.coeffs)
    # equality and hash follow the reduced coefficient tuple
    twin = WittElem(R, boxed(a.coeffs))
    assert a == twin and hash(a) == hash(twin)
    assert (a == b) == (boxed(a.coeffs) == boxed(b.coeffs))


@given(st.data())
def test_packed_arithmetic_matches_reference(data):
    R = data.draw(st.sampled_from(REF_RINGS))
    coeff = st.integers(0, R.q - 1)
    a, b = (R.elem([data.draw(coeff) for _ in range(R.m)]) for _ in range(2))
    assert_matches_reference(a, b, data.draw(exponents(R)))


@given(st.data())
def test_packed_arithmetic_reduces_unreduced_and_negative_input(data):
    R = data.draw(st.sampled_from(REF_RINGS))
    coeff = st.integers(-3 * R.q, 3 * R.q)
    a, b = (WittElem(R, tuple(data.draw(coeff) for _ in range(R.m)))
            for _ in range(2))
    assert_matches_reference(a, b, data.draw(exponents(R)))


def test_top_coefficients_fit_the_slot_width_on_every_sweep_ring():
    # q - 1 in every slot maximises every slot of a product and of sigma;
    # slots at 0 and at q - 1 sit on both sides of the conditional
    # subtract of + and -
    rings = sweep_rings()
    assert len(rings) == 115
    for p, n, m in rings:
        R = WittRing(p, n, m)
        top = R.elem([R.q - 1] * m)
        mixed = R.elem([(R.q - 1) * (i % 2) for i in range(m)])
        for e in (0, 1, p, p ** m, 2 ** 20 + 1):
            assert_matches_reference(top, top, e)
        for a in (top, mixed, R.zero()):
            for b in (top, mixed, R.zero()):
                assert_matches_reference(a, b, p)


def test_barrett_reduces_slots_up_to_the_bound_on_every_sweep_ring():
    # the folded slots of real products stay well below 2^b, so slots at
    # 2^b - 1, the most _mod_q is proved for, are built directly
    for R in REF_RINGS + [WittRing(*r) for r in sweep_rings()]:
        B = R._slot or R._packing()
        b = R._shift - R.q.bit_length()
        xs = [((1 << b) - 1) >> (i % 3) for i in range(R.m)]
        x = sum(c << B * i for i, c in enumerate(xs))
        assert R._unpack(R._mod_q(x)) == tuple(c % R.q for c in xs)


# rings whose last run of sigma-table slots is short: 8 + 4, 5 + 2, 4 + 2
# and 3 + 2 slots
@pytest.mark.parametrize("p,n,m,sizes", [
    (2, 1, 12, [256, 16]), (3, 1, 7, [243, 9]), (2, 2, 6, [256, 16]),
    (5, 1, 5, [125, 25])])
def test_sigma_tables_match_reference_on_every_element(p, n, m, sizes):
    R = WittRing(p, n, m)
    R._sigma_matrix()
    assert [len(t) for t in R._sigma_tabs] == sizes
    for a in R.elements():
        assert R.sigma(a) == ref_sigma(R, a)


def test_sigma_tables_are_bounded_on_every_ring():
    for R in REF_RINGS + [WittRing(*r) for r in sweep_rings()]:
        R._sigma_matrix()
        if R.m == 1 or R.q > witt_base.SIGMA_TABLE_SIZE:
            assert not R._sigma_tabs
        else:
            assert R._sigma_tabs
            assert max(map(len, R._sigma_tabs)) <= 256
            entries = sum(map(len, R._sigma_tabs))
            assert entries * R.m * R._slot <= witt_base.SIGMA_TABLE_BITS
    edges = {(R.q, R.m): R for R in REF_RINGS}
    assert edges[257, 2]._sigma_tabs is None
    assert [len(t) for t in edges[256, 2]._sigma_tabs] == [256, 256]


# (2, 8, 4): 1024 entries of 4 * 58 bits, just within SIGMA_TABLE_BITS;
# (2, 6, 12): 768 entries of 12 * 54 bits, over it, so no tables
@pytest.mark.parametrize("p,n,m,tables", [(2, 8, 4, 4), (2, 6, 12, 0)])
def test_sigma_tables_keep_to_the_bit_budget(p, n, m, tables):
    R = WittRing(p, n, m)
    R._sigma_matrix()
    assert len(R._sigma_tabs or ()) == tables
    rng = random.Random(7)
    for _ in range(200):
        a = R.elem([rng.randrange(R.q) for _ in range(m)])
        assert R.sigma(a) == ref_sigma(R, a)
        assert sigma_power(a, m) == a


@pytest.mark.parametrize("R", [WittRing(2, 1, 12), WittRing(3, 2, 2),
                               WittRing(3, 20, 2)])
def test_witt_power_makes_one_product_per_square_and_set_bit(R, monkeypatch):
    calls = []
    mul_mod = WittRing._mul_mod
    monkeypatch.setattr(WittRing, "_mul_mod",
                        lambda self, w: calls.append(w) or mul_mod(self, w))
    x = R.elem([2, 1])
    for e in (1, 2, 3, 5, 8, 13, R.p, R.p ** R.m, 2 ** 20 + 1):
        calls.clear()
        y = x ** e
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1, e
        assert y == ref_pow(x, e)


def sigma_power(x, k):
    for _ in range(k):
        x = x.ring.sigma(x)
    return x


@pytest.mark.parametrize("R", [WittRing(3, 2, 1), WittRing(3, 2, 2),
                               WittRing(2, 1, 12), WittRing(3, 20, 2)])
def test_every_construction_of_an_element_is_equal_and_hashes_equal(R):
    rng = random.Random(R.m)
    cs = tuple(rng.randrange(R.q) for _ in range(R.m))
    x = R.elem(list(cs))
    built = [
        # from coefficients, reduced, unreduced and negative
        x, WittElem(R, cs), WittElem(R, [c + 5 * R.q for c in cs]),
        WittElem(R, tuple(c - R.q for c in cs)),
        # packed results
        x * R.one(), x + R.zero(), R.zero() - (R.zero() - x),
        sigma_power(x, R.m),
        # a view of a series coefficient
        SeriesElem(R, [R.zero(), WittElem(R, cs)]).coeffs[1],
    ]
    for y in built:
        assert y == x and hash(y) == hash(x) and y.coeffs == cs
    assert len(set(built)) == 1


def test_negative_witt_power_is_a_power_of_the_inverse():
    R = WittRing(3, 2, 2)
    x = R.gen()
    assert x ** -1 == x.inv() and x * x ** -1 == R.one()
    assert x ** -5 == x.inv() ** 5
    assert R.elem([4]) ** -1 == R.elem([7])
    with pytest.raises(NotAUnit):
        R.elem([3]) ** -1


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------


def test_is_prime_matches_trial_division_below_1e5():
    small = [d for d in range(2, 317)
             if all(d % k for k in range(2, math.isqrt(d) + 1))]
    for d in range(10 ** 5):
        trial = d >= 2 and all(d % k for k in small if k * k <= d)
        assert _is_prime(d) == trial, d


@pytest.mark.parametrize("d", [
    3215031751,                  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,         # ... to the first 9 prime bases
    318665857834031151167461,    # ... to the first 12 prime bases
])
def test_is_prime_rejects_strong_pseudoprimes(d):
    assert not _is_prime(d)
    with pytest.raises(InputError):
        WittRing(d, 1)


def test_thirteenth_base_catches_the_last_pseudoprime(monkeypatch):
    d = 318665857834031151167461
    monkeypatch.setattr(witt_base, "_MR_BASES", witt_base._MR_BASES[:12])
    assert witt_base._is_prime(d)


def test_is_prime_refuses_beyond_the_certified_bound():
    assert _is_prime(10 ** 18 + 3) and _is_prime(2 ** 61 - 1)
    d = witt_base._MR_LIMIT
    while any(d % a == 0 for a in witt_base._MR_BASES):
        d += 1
    for big in (d, 2 ** 89 - 1):     # 2^89 - 1 is prime
        with pytest.raises(InputError, match="cannot be certified"):
            _is_prime(big)
        with pytest.raises(InputError):
            WittRing(big, 1)
    # a factor among the bases still certifies a composite
    assert not _is_prime(3 * d)


# ---------------------------------------------------------------------------
# one shared ring per parameter set
# ---------------------------------------------------------------------------


def test_equal_parameters_give_the_identical_ring():
    W = WittRing(3, 2, 2)
    assert WittRing(3, 2, 2) is W
    assert WittRing(3, 2, m=2) is W and WittRing(p=3, n=2, m=2) is W
    # an explicit f equal to the default, in any spelling, is the same ring
    f = list(W.f)
    assert WittRing(3, 2, 2, f) is WittRing(3, 2, 2, tuple(f)) is W
    assert WittRing(3, 2, 2, [c + 9 for c in f]) is W
    assert WittRing(2, 1, 1) is WittRing(2, 1, 1, [0, 1])
    assert WittRing(2, 1, 2) is WittRing(2, 1, 2, [1, 1, 1])
    # the memo tables are shared: sigma's matrix is built once
    assert WittRing(3, 2, 2)._sigma_matrix() is W._sigma_matrix()
    assert WittRing(3, 2, 2).elem([1, 2]) == W.elem([1, 2])


def test_invalid_rings_raise_on_every_call():
    before = witt_base._witt_ring.cache_info().currsize
    for _ in range(3):
        with pytest.raises(InputError, match="p must be prime"):
            WittRing(4, 1)
        with pytest.raises(InputError, match="need n >= 1"):
            WittRing(3, 0)
        with pytest.raises(InputError, match="irreducible"):
            WittRing(3, 1, 2, [0, 0, 1])
    assert witt_base._witt_ring.cache_info().currsize == before


@pytest.mark.parametrize("p,n,m,detail", [
    (2, 10 ** 55, 1, f"n={10 ** 55} gives p^n of up to"),
    (2, witt_base.RING_BITS_BUDGET // 2 + 1, 1, "over the budget of 8192"),
    (2, 1, 10 ** 55, f"m={10 ** 55} is over the budget of 256"),
    (3, 1, witt_base.RING_DEGREE_BUDGET + 1, "m=257 is over the budget"),
])
def test_oversized_rings_are_refused_before_they_are_built(p, n, m, detail):
    # n=10^55 and m=10^55 ran out of memory computing p^n and p^m
    size = witt_base._witt_ring.cache_info().currsize
    with pytest.raises(InputError, match=re.escape(detail)):
        WittRing(p, n, m)
    assert witt_base._witt_ring.cache_info().currsize == size
    assert WittRing(2, witt_base.RING_BITS_BUDGET // 2).n == 4096


def test_ring_cache_is_bounded():
    info = witt_base._witt_ring.cache_info
    assert info().maxsize == witt_base.WITT_RING_CACHE
    for n in range(1, witt_base.WITT_RING_CACHE + 20):
        W = WittRing(2, n)
        assert W.q == 2 ** n
        assert info().currsize <= witt_base.WITT_RING_CACHE
