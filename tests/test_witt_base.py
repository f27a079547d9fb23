import math
import operator
import random

import pytest
from hypothesis import assume, given, strategies as st

from prismalab import witt_base
from prismalab.errors import NotAUnit, InputError
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


REF_RINGS = [WittRing(2, 1, 12), WittRing(2, 12, 1), WittRing(61, 1, 2),
             WittRing(2, 6, 2), WittRing(3, 1, 7), WittRing(5, 2, 3)]


def exponents(R):
    return st.sampled_from([0, 1, R.p, R.p ** R.m, 2 ** 20 + 1])


def assert_matches_reference(a, b, e):
    R = a.ring
    assert (a * b).coeffs == ref_mul(a, b).coeffs
    assert (a ** e).coeffs == ref_pow(a, e).coeffs
    assert R.sigma(a).coeffs == ref_sigma(R, a).coeffs


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
    # q - 1 in every slot maximises every slot of a product and of sigma
    rings = sweep_rings()
    assert len(rings) == 115
    for p, n, m in rings:
        R = WittRing(p, n, m)
        top = R.elem([R.q - 1] * m)
        for e in (0, 1, p, p ** m, 2 ** 20 + 1):
            assert_matches_reference(top, top, e)


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


def test_ring_cache_is_bounded():
    info = witt_base._witt_ring.cache_info
    assert info().maxsize == witt_base.WITT_RING_CACHE
    for n in range(1, witt_base.WITT_RING_CACHE + 20):
        W = WittRing(2, n)
        assert W.q == 2 ** n
        assert info().currsize <= witt_base.WITT_RING_CACHE
