import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from prismalab.errors import (
    Inconsistent, InputError, InsufficientPrecision, NotDivisible,
    NotEisenstein, NotInFiltration, PrecisionLoss,
)
from prismalab.breuil_fl import BreuilModule
from prismalab.linalg_residue import factor, howell_form, in_span
from prismalab import series_rings
from prismalab.series_rings import (
    DpElem, DpRing, EisensteinPoly, SeriesElem, cyclotomic_q,
    eisenstein_make, int_poly_divmod, int_poly_pow, phi_apply, s_phi_div,
)
from prismalab.witt_base import WittElem, WittRing, _multiples

from graph_reference import assert_factor_is_graph, fil_graph


W22 = WittRing(2, 2, 1)
W31 = WittRing(3, 1, 1)


def test_phi_of_u_is_u_to_p():
    u = SeriesElem.u_pow(W22, 1)
    assert phi_apply(u) == SeriesElem.u_pow(W22, 2)


def test_phi_frozen_p2_n2():
    x = SeriesElem.from_ints(W22, [1, 3])
    assert phi_apply(x) == SeriesElem.from_ints(W22, [1, 0, 3])


def test_phi_of_eisenstein_vanishes_mod_p_u_pe():
    for p, kind, arg in [(2, "cyclotomic", 1), (3, "cyclotomic", 1),
                         (2, "cyclotomic", 2), (5, "explicit", [5, 10, 0, 1])]:
        E = eisenstein_make(p, kind, arg)
        R = WittRing(p, 2, 1)
        img = phi_apply(E.series(R))
        # m = 1: the flat vector holds one int per coefficient
        assert all(a % p == 0 for a in img.vec[:p * E.e])


def test_phi_multiplies_precision():
    x = SeriesElem.from_ints(W22, [1, 1], N=4)
    assert phi_apply(x).N == 8


def test_phi_with_bound_equals_truncation():
    rng = random.Random(7)
    for W in (W22, WittRing(3, 2, 2)):
        for N, exact in [(None, True), (5, False), (3, True)]:
            for _ in range(8):
                deg = rng.randrange(6 if N is None else N)
                x = SeriesElem(W, [W.elem([rng.randrange(W.q)
                                           for _ in range(W.m)])
                                   for _ in range(deg + 1)], N, exact)
                for bound in range(W.p * (deg + 1) + 3):
                    assert phi_apply(x, bound) == phi_apply(x).truncate(bound)


def test_cyclotomic_frozen_small():
    d2 = eisenstein_make(2, "cyclotomic", 1)
    assert list(d2.int_coeffs) == [2, 1] and d2.e == 1 and d2.a0 == 1
    d3 = eisenstein_make(3, "cyclotomic", 1)
    assert list(d3.int_coeffs) == [3, 3, 1] and d3.e == 2 and d3.a0 == 1
    d22 = eisenstein_make(2, "cyclotomic", 2)
    # ((u+1)^4 - 1)/((u+1)^2 - 1) = u^2 + 2u + 2
    assert list(d22.int_coeffs) == [2, 2, 1] and d22.e == 2


def test_cyclotomic_divides_q_exactly():
    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        d = eisenstein_make(p, "cyclotomic", n)
        den = cyclotomic_q(p, n - 1) if n > 1 else [0, 1]
        prod = [0] * (len(d.int_coeffs) + len(den) - 1)
        for i, a in enumerate(d.int_coeffs):
            for j, b in enumerate(den):
                prod[i + j] += a * b
        qn = cyclotomic_q(p, n)
        assert prod == qn[:len(prod)] and all(c == 0 for c in qn[len(prod):])
        assert d.e == p ** (n - 1) * (p - 1) and d.a0 == 1


def test_explicit_eisenstein_validation():
    eisenstein_make(5, "explicit", [5, 10, 0, 1])
    with pytest.raises(NotEisenstein):
        eisenstein_make(2, "explicit", [4, 1])  # constant term p^2
    with pytest.raises(NotEisenstein):
        eisenstein_make(3, "explicit", [3, 1, 1, 1])  # middle coeff not div p


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
def test_eisenstein_rejects_non_prime_p(p):
    with pytest.raises(NotEisenstein):
        EisensteinPoly(p, [p, 0, 1])


def test_exact_flag_and_precision_loss():
    x = SeriesElem.from_ints(W22, [0, 1], N=3, exact=True)
    with pytest.raises(PrecisionLoss):
        _ = x * x * x
    y = x.truncate(3)
    assert not y.exact and (y * y).N == 3


def test_c1_from_division_matches_dp_ring():
    # p=3, e=1: phi(E^2)/p^2 = c1^2 with c1 = 1 mod (p, u); the division
    # happens inside the divided-power ring
    p = 3
    E = eisenstein_make(p, "explicit", [3, 1])
    S = DpRing(E, n=2, h=2, D=12)
    phiE2 = S.from_int_poly(int_poly_pow([3, 0, 0, 1], 2))  # phi(E)^2
    c1sq = phiE2.divide_p(2)
    c1 = S.c1()
    assert c1.coords[0].coeffs[0] % 3 == 1
    assert ((c1 * c1).reduce_prec(c1sq.prec) - c1sq).is_zero()
    # c1 is a unit: c1 * c1^{-1} = 1
    assert (S.c1() * S.c1_inv() - S.one()).is_zero()


def test_negative_series_power_is_refused():
    with pytest.raises(InputError, match="negative exponent"):
        SeriesElem(WittRing(3, 2, 2), [1, 1], 4) ** -1


def test_negative_dp_power_is_refused():
    S = DpRing(eisenstein_make(3, "explicit", [3, 1]), n=1, h=0, D=6)
    with pytest.raises(InputError, match="negative exponent"):
        S.one() ** -1


def test_dp_square_is_one_graded_product(monkeypatch):
    S = DpRing(eisenstein_make(3, "explicit", [3, 1]), n=2, h=2, D=12)
    x = S.c1()
    calls = []
    product = series_rings._graded_product
    monkeypatch.setattr(series_rings, "_graded_product",
                        lambda *a: calls.append(1) or product(*a))
    y = x ** 2
    assert len(calls) == 1
    assert y == x * x


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2)])
def test_powers_are_repeated_products(p, m):
    W = WittRing(p, 2, m)
    S = DpRing(eisenstein_make(p, "explicit", [p, 1]), n=2, m=m, D=8, h=2)
    for x, acc in [(SeriesElem.from_ints(W, [1, 2, 3], 9),
                    SeriesElem(W, [1], 9, False)),
                   (S.c1() + S.from_int_poly([0, 1]), S.one())]:
        for k in range(7):
            assert x ** k == acc
            acc = acc * x


def test_dp_structure_constants_are_integers():
    for p, e in [(2, 1), (2, 2), (3, 2), (5, 4)]:
        E = eisenstein_make(p, "explicit", [p] + [0] * (e - 1) + [1])
        S = DpRing(E, n=1, h=0, D=3 * p * e)
        for i in range(S.D):
            for j in range(S.D - i):
                S.struct_const(i, j)  # raises if non-integral


def test_dp_quotient_by_fil_matches_truncated_series_ring():
    # S/Fil^r has the same Z/p-length as S_n/(E^r) for r <= p
    from prismalab.linalg_residue import span_length
    p = 3
    E = eisenstein_make(p, "cyclotomic", 1)  # e = 2
    S = DpRing(E, n=2, h=0, D=20)
    for r in (1, 2, 3):
        H = S.fil_span(r)
        quotient_len = S.dim * S.n_int - span_length(H, p, S.n_int)
        # S_n/(E^r) is free of rank r*e over W_n
        assert quotient_len == r * E.e * S.n_int


def test_dp_mod_p_dimension_count():
    # mod p the ring is (k[u]/u^{pe})[z_i]/(z_i^p); monomial count below D
    # must equal D
    for p, e, D in [(2, 1, 9), (3, 2, 25), (2, 2, 17)]:
        count = 0
        levels = []
        i = 1
        while p ** i * e < D:
            levels.append(p ** i * e)
            i += 1
        import itertools
        for a in range(min(p * e, D)):
            for cs in itertools.product(range(p), repeat=len(levels)):
                if a + sum(c * l for c, l in zip(cs, levels)) < D:
                    count += 1
        assert count == D


def test_z_variables_are_nilpotent_mod_p():
    p = 2
    E = eisenstein_make(p, "cyclotomic", 1)
    S = DpRing(E, n=1, h=0, D=10)
    z1 = S.gamma(p)  # class of gamma_p(E)
    sq = z1 * z1
    assert all(a % p == 0 for c in sq.coords for a in c.coeffs)


def test_phi_i_divided_frobenius_of_E_power():
    # phi_i(E^i) = c1^i, a unit
    p = 3
    E = eisenstein_make(p, "cyclotomic", 1)
    S = DpRing(E, n=1, h=2, D=20)
    Ei = S.from_int_poly(int_poly_pow(list(E.int_coeffs), 2))
    val = s_phi_div(Ei, 2)
    expect = (S.c1() * S.c1()).reduce_prec(val.prec)
    assert (val - expect).is_zero()


def test_phi_i_requires_filtration_membership():
    p = 3
    E = eisenstein_make(p, "cyclotomic", 1)
    S = DpRing(E, n=1, h=1, D=20)
    with pytest.raises(NotInFiltration):
        s_phi_div(S.one(), 1)


def test_boundary_generator_divided_frobenius():
    # phi_i(u^{ep-1}) = c1^{p-1} mod p when e = 1, and 0 when e > 1
    for p in (2, 3, 5):
        for e in [d for d in range(1, p) if (p - 1) % d == 0]:
            i = (p - 1) // e
            E = eisenstein_make(
                p, "cyclotomic", 1) if e == p - 1 else eisenstein_make(
                p, "explicit", [p] + [0] * (e - 1) + [1])
            if E.e != e:
                E = eisenstein_make(p, "explicit", [p] + [0] * (e - 1) + [1])
            S = DpRing(E, n=1, h=i, D=2 * p * e + 2)
            x = S.from_int_poly([0] * (e * p - 1) + [1], prec=1)
            val = s_phi_div(x, i)
            if e == 1:
                expect = (S.c1() ** (p - 1)).reduce_prec(1)
            else:
                expect = S.zero().reduce_prec(1)
            assert (val.reduce_prec(1) - expect).is_zero(), (p, e, i)


def test_phi_fil_lands_in_p_power():
    import random
    rng = random.Random(9)
    p = 3
    E = eisenstein_make(p, "cyclotomic", 1)
    S = DpRing(E, n=1, h=2, D=20)
    for i in (1, 2):
        H = S.fil_span(i)
        for _ in range(10):
            coeffs = [rng.randrange(S.q) for _ in range(len(H))]
            vec = [0] * S.dim
            for c, row in zip(coeffs, H):
                for t, a in enumerate(row):
                    vec[t] = (vec[t] + c * a) % S.q
            x = S.from_vec(vec)
            img = S.phi(x)
            assert all(a % p ** i == 0 for c in img.coords for a in c.coeffs)


def test_int_poly_divmod():
    q, r = int_poly_divmod([2, 3, 1], [2, 1])  # (u+1)(u+2)
    assert q == [1, 1] and r == []


# ---------------------------------------------------------------------------
# reference kernels: the boxed DpElem (one WittElem per coordinate) with its
# product, scale_w, divide_p and inv, and DpRing.phi/nabla on it, as they
# were before the coordinates became one flat tuple
# ---------------------------------------------------------------------------


class BoxedDp:
    __slots__ = ("ring", "coords", "prec")

    def __init__(self, ring, coords, prec):
        self.ring = ring
        self.coords = coords
        self.prec = prec

    @classmethod
    def of(cls, x):
        return cls(x.ring, x.coords, x.prec)

    def __add__(self, other):
        return BoxedDp(self.ring,
                       tuple(a + b for a, b in zip(self.coords, other.coords)),
                       min(self.prec, other.prec))

    def __sub__(self, other):
        return BoxedDp(self.ring,
                       tuple(a - b for a, b in zip(self.coords, other.coords)),
                       min(self.prec, other.prec))

    def __neg__(self):
        zero = self.ring.ring.zero()
        return BoxedDp(self.ring, tuple(zero - a for a in self.coords),
                       self.prec)

    def __mul__(self, other):
        if isinstance(other, int):
            return BoxedDp(self.ring,
                           tuple(c.scale(other) for c in self.coords),
                           self.prec)
        R = self.ring
        out = [R.ring.zero() for _ in range(R.D)]
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coords):
                if i + j >= R.D:
                    break
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + (a * b).scale(R.struct_const(i, j))
        return BoxedDp(R, tuple(out), min(self.prec, other.prec))

    def scale_w(self, w):
        return BoxedDp(self.ring, tuple(c * w for c in self.coords),
                       self.prec)

    def is_zero(self):
        pk = self.ring.p ** self.prec
        return all(all(a % pk == 0 for a in c.coeffs) for c in self.coords)

    def divide_p(self, i):
        if i == 0:
            return self
        if self.prec - i < 1:
            raise InsufficientPrecision(
                f"cannot drop {i} digits from precision {self.prec}")
        p = self.ring.p
        pi = p ** i
        pk = p ** self.prec
        out = []
        for c in self.coords:
            cs = []
            for a in c.coeffs:
                a %= pk
                if a % pi:
                    raise NotDivisible("coordinate not divisible by p^i")
                cs.append(a // pi)
            out.append(self.ring.ring.elem(cs))
        return BoxedDp(self.ring, tuple(out), self.prec - i)

    def inv(self):
        R = self.ring
        one = BoxedDp.of(R.one())
        a = self.coords[0]
        if not a.is_unit():
            raise InputError("not a unit in the divided-power ring")
        ai = a.inv()
        w = (self - one.scale_w(a)).scale_w(ai)
        acc = one
        term = one
        for _ in range(R.D * R.n_int + 1):
            term = -(term * w)
            if all(c.is_zero() for c in term.coords):
                break
            acc = acc + term
        return acc.scale_w(ai)


def boxed_phi(R, x):
    coords = [R.ring.zero() for _ in range(R.D)]
    for i, c in enumerate(x.coords):
        if c.is_zero():
            continue
        pi = R.p * i
        if pi >= R.D:
            continue
        fac = (math.factorial(R.ei(pi))
               // math.factorial(R.ei(i))) % R.q
        coords[pi] = R.ring.sigma(c).scale(fac)
    return BoxedDp(R, tuple(coords), x.prec)


def boxed_nabla(R, x):
    coords = [R.ring.zero() for _ in range(R.D)]
    for i, c in enumerate(x.coords):
        if i == 0 or c.is_zero():
            continue
        d = i // R.ei(i) if i % R.e == 0 else i
        coords[i - 1] = c.scale(d % R.q)
    return BoxedDp(R, tuple(coords), x.prec)


def _dp_ring(p, e, m, n_int):
    E = eisenstein_make(p, "explicit", [p] + [0] * (e - 1) + [1])
    return DpRing(E, n=n_int, m=m)


# (p, e, m, n_int); the default degree bound D = 2pe
DP_RINGS = [_dp_ring(*key) for key in
            [(2, 1, 1, 1), (3, 1, 1, 2), (3, 2, 1, 1), (2, 1, 2, 2),
             (5, 1, 1, 1)]]


@st.composite
def dp_elems(draw, k):
    """k elements of one ring; coordinates are often zero, so the sparse
    paths of the product are exercised too."""
    S = draw(st.sampled_from(DP_RINGS))
    coord = st.one_of(st.just(0), st.integers(0, S.q - 1))
    return [S.from_vec(draw(st.lists(coord, min_size=S.dim,
                                     max_size=S.dim)),
                       draw(st.integers(1, S.n_int)))
            for _ in range(k)]


def _same(x, ref):
    """x (flat) equals the boxed reference coordinate for coordinate."""
    assert x.ring is ref.ring and x.prec == ref.prec
    assert x.coords == tuple(ref.coords)
    assert x.vec == tuple(a for c in ref.coords for a in c.coeffs)


def _outcome(f):
    try:
        return f()
    except InputError as err:
        return type(err)


@given(dp_elems(2), st.integers(-30, 30), st.data())
def test_flat_ops_match_boxed_reference(ab, k, data):
    a, b = ab
    S = a.ring
    ra, rb = BoxedDp.of(a), BoxedDp.of(b)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(-a, -ra)
    _same(a * b, ra * rb)
    _same(a * k, ra * k)
    w = S.ring.elem(data.draw(st.lists(st.integers(0, S.q - 1),
                                       min_size=S.m, max_size=S.m)))
    _same(a.scale_w(w), ra.scale_w(w))
    assert a.is_zero() == ra.is_zero()
    _same(S.phi(a), boxed_phi(S, ra))
    _same(S.nabla(a), boxed_nabla(S, ra))
    for i in range(S.n_int + 1):
        for x in (a, a * S.p ** i):
            got = _outcome(lambda: x.divide_p(i))
            ref = _outcome(lambda: BoxedDp.of(x).divide_p(i))
            if isinstance(ref, type):
                assert got is ref
            else:
                _same(got, ref)
    got, ref = _outcome(a.inv), _outcome(ra.inv)
    if isinstance(ref, type):
        assert got is ref
    else:
        _same(got, ref)
    assert S.to_vec(a) == list(a.vec)
    _same(S.from_vec(S.to_vec(a), a.prec), ra)


@given(dp_elems(3))
def test_dp_ring_identities(abc):
    a, b, c = abc
    S = a.ring
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert S.phi(a * b) == S.phi(a) * S.phi(b)
    if a.coords[0].is_unit():
        assert (a * a.inv()).vec == S.one().vec


def test_coords_are_witt_views_over_the_coefficient_ring():
    for S in DP_RINGS:
        x = S.from_vec(list(range(1, S.dim + 1)))
        cs = x.coords
        assert len(cs) == S.D
        assert all(isinstance(c, WittElem) and c.ring is S.ring for c in cs)
        assert [a for c in cs for a in c.coeffs] == S.to_vec(x)
        assert S.elem(cs).vec == x.vec


# ---------------------------------------------------------------------------
# Fil^r lifts through the per-ring factor cache, against DpRing.fil_lift
# and the membership test as they were before it, kept verbatim (one
# Howell form or elimination per call)
# ---------------------------------------------------------------------------


def ref_fil_contains(self, x, r):
    """Membership of x in Fil^r at the precision of x."""
    H = self.fil_span(r)
    rows = list(H)
    if x.prec < self.n_int:
        pk = self.p ** x.prec
        for i in range(self.dim):
            v = [0] * self.dim
            v[i] = pk
            rows.append(v)
        rows = howell_form(rows, self.p, self.n_int)
    return in_span(rows, self.to_vec(x), self.p, self.n_int)


def ref_fil_lift(self, x, r):
    """An element of Fil^r (exact at n_int) congruent to x mod p^{x.prec}."""
    H = list(self.fil_span(r))
    ncols = len(H)
    pk = self.p ** x.prec
    aug = [list(row) for row in H]
    for i in range(self.dim):
        v = [0] * self.dim
        v[i] = pk
        aug.append(v)
    sol = factor(aug, self.p, self.n_int).solve(self.to_vec(x))
    vec = [0] * self.dim
    for c, row in zip(sol[:ncols], H):
        if c:
            for i, a in enumerate(row):
                vec[i] = (vec[i] + c * a) % self.q
    return self.from_vec(vec)


def _fil_rings():
    E = eisenstein_make(3, "cyclotomic", 1)
    return [_dp_ring(2, 1, 1, 2), _dp_ring(3, 1, 1, 2), _dp_ring(2, 1, 2, 2),
            _dp_ring(5, 1, 1, 1), DpRing(E, n=1, h=2, D=12)]


def test_cached_fil_membership_and_lift_match_per_call_reference():
    rng = random.Random(7)
    for S in _fil_rings():
        q = S.q
        for r in range(S.p + 1):
            H = S.fil_span(r)
            for prec in range(1, S.n_int + 1):
                pk = S.p ** prec
                members = 0
                for trial in range(6):
                    if trial % 2:
                        # a combination of Fil^r rows plus p^prec noise
                        vec = [rng.randrange(q) * pk % q
                               for _ in range(S.dim)]
                        for row in H:
                            c = rng.randrange(q)
                            vec = [(a + c * b) % q for a, b in zip(vec, row)]
                    else:
                        vec = [rng.choice((0, rng.randrange(q)))
                               for _ in range(S.dim)]
                    x = S.from_vec(vec, prec)
                    for _ in range(2):  # the second call hits the cache
                        inside = ref_fil_contains(S, x, r)
                        if inside:
                            members += 1
                            lift = S.fil_lift(x, r)
                            ref = ref_fil_lift(S, x, r)
                            assert lift.vec == ref.vec
                            assert lift.prec == ref.prec
                        else:
                            with pytest.raises(Inconsistent):
                                ref_fil_lift(S, x, r)
                            with pytest.raises(Inconsistent):
                                S.fil_lift(x, r)
                assert members >= 6
        assert all(key[1] <= S.n_int for key in S._fil_factors)


def test_s_phi_div_refuses_non_members_at_every_precision():
    E = eisenstein_make(3, "cyclotomic", 1)
    S = DpRing(E, n=1, h=2, D=12)
    for prec in range(1, S.n_int + 1):
        for i in (1, 2):
            with pytest.raises(NotInFiltration):
                s_phi_div(S.one().reduce_prec(prec), i)
    # E is in Fil^1; E + p^(n_int - 1) is not, and the lift at a lower
    # precision agrees with the exact one there
    E1 = S.from_int_poly(list(E.int_coeffs))
    with pytest.raises(NotInFiltration):
        s_phi_div(E1 + S.one() * S.p ** (S.n_int - 1), 1)
    low = s_phi_div(E1.reduce_prec(2), 1)
    assert (s_phi_div(E1, 1) - low).is_zero() and low.prec == 2


# ---------------------------------------------------------------------------
# S-multiples as weighted shifts, against the DpElem products they replace
# ---------------------------------------------------------------------------


def basis_elem(S, t):
    """b_t, as the removed DpRing.basis_elem built it."""
    vec = [0] * S.dim
    vec[t * S.m] = 1
    return DpElem(S, tuple(vec), S.n_int)


def ref_s_multiples(B, v):
    """BreuilModule.s_multiples as a loop of DpElem products."""
    S = B.S
    x = S.ring._gen_matrices()[0]
    rows = []
    for t in range(S.D):
        bt = basis_elem(S, t)
        rows.extend(_multiples(B.vec([bt * c for c in v]), x, B.p))
    return rows


def ref_fil_data(B):
    """The graph rows [x | phi_h(x)] of phi_h on Fil as a loop of DpElem
    products, before the Howell form."""
    S, p = B.S, B.p
    x, sx = S.ring._gen_matrices()
    bases = [(b, S.phi(b)) for b in (basis_elem(S, t) for t in range(S.D))]
    rows = []
    for g, img in zip(B.fil_gens, B.phi_gens):
        for bt, pb in bases:
            src = _multiples(B.vec([bt * c for c in g]), x, p)
            dst = _multiples(B.vec([pb * c for c in img]), sx, p)
            rows.extend(a + b for a, b in zip(src, dst))
    return rows


def ref_mult_matrix(S, y):
    """The matrix of multiplication by y on the basis {x^s b_t}, columns
    indexed like to_vec, as a loop of DpElem products."""
    x = S.ring._gen_matrices()[0]
    cols = []
    for t in range(S.D):
        cols.extend(_multiples((y * basis_elem(S, t)).vec, x, S.q))
    # transpose to row-major matrix acting on column vectors
    return [list(row) for row in zip(*cols)]


def ref_ideal_rows(S, g, gdeg=0):
    """The S-multiples b_t g with t + gdeg < D as DpElem products, zero
    products skipped."""
    x = S.ring._gen_matrices()[0]
    rows = []
    for t in range(S.D - gdeg):
        base = basis_elem(S, t) * g
        if any(base.vec):
            rows.extend(_multiples(S.to_vec(base), x, S.q))
    return rows


_S_RINGS = {}


@st.composite
def s_multiple_cases(draw, p, e, m):
    """A DpRing at n in {1, 2} and pe < D <= pe + 3, with a Fil generator
    and its image: two vectors of r random elements, r in {1, 2}, whose
    coordinates are often zero."""
    key = (p, e, m, draw(st.integers(1, 2)), p * e + draw(st.integers(1, 3)))
    if key not in _S_RINGS:
        E = eisenstein_make(p, "explicit", [p] + [0] * (e - 1) + [1])
        _S_RINGS[key] = DpRing(E, n=key[3], m=m, D=key[4])
    S = _S_RINGS[key]
    r = draw(st.integers(1, 2))
    coord = st.one_of(st.just(0), st.integers(0, S.q - 1))

    def vector():
        return [S.from_vec(draw(st.lists(coord, min_size=S.dim,
                                         max_size=S.dim))) for _ in range(r)]
    return S, vector(), vector()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("m", [1, 2])
@settings(max_examples=10)
@given(data=st.data())
def test_s_multiples_match_reference_dp_products(p, e, m, data):
    S, g, img = data.draw(s_multiple_cases(p, e, m))
    B = BreuilModule(S, len(g), 0, [g], [img])
    q = S.q
    src = S.s_multiples([c.vec for c in g], p)
    assert src == B.s_multiples(g) == ref_s_multiples(B, g)
    rows = [a + b for a, b in zip(
        src, S.s_multiples([c.vec for c in img], p, frob=True))]
    assert rows == ref_fil_data(B)
    H = howell_form(rows, p, 1)
    assert fil_graph(B) == H
    assert_factor_is_graph(B._fil_data(), H, B.dim, p, 1)
    for y in g:
        assert ([list(c) for c in zip(*S.s_multiples([y.vec], q))]
                == ref_mult_matrix(S, y))
        for tmax in range(S.D + 1):
            got = S.s_multiples([y.vec], q, tmax)
            assert len(got) == tmax * S.m
            assert ([r for r in got if any(r)]
                    == ref_ideal_rows(S, y, S.D - tmax))


def ref_dense_s_multiples(S, vecs, q, tmax=None, frob=False):
    """DpRing.s_multiples as the dense loop that took D*m products per
    vector in every row."""
    D, m, T = S.D, S.m, S._mul_table()
    k, fac = (S.p, S._phi_fac) if frob else (1, [1] * D)
    gen = S.ring._gen_matrices()[1 if frob else 0]
    xs = [_multiples(v, gen, q) for v in vecs]
    rows = []
    for t in range(D if tmax is None else tmax):
        w = ([fac[t] * c for c in T[k * t] for _ in range(m)]
             if k * t < D else [])
        pad = [0] * (D * m - len(w))
        for a in range(m):
            row = []
            for x in xs:
                row += pad
                row += [c * y % q for c, y in zip(w, x[a])]
            rows.append(row)
    return rows


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sparse_s_multiples_equal_the_dense_loop(p, e, m):
    rng = random.Random(p * 100 + e * 10 + m)
    E = eisenstein_make(p, "explicit", [p] + [0] * (e - 1) + [1])
    for D in (None, p * e + 1, p * e + 2, p * e + 3):
        S = DpRing(E, 3, m=m, D=D)

        def single():
            v = [0] * S.dim
            v[rng.randrange(S.dim)] = rng.randrange(1, S.q)
            return v

        def sparse():
            return [rng.randrange(S.q) if rng.random() < 0.2 else 0
                    for _ in range(S.dim)]

        zero = [0] * S.dim
        # coordinates are reduced mod S.q only, so at q = p and p^2 they
        # are not reduced mod q, as _j_mingens_at passes them
        cases = [[single()], [zero], [sparse(), zero],
                 [zero, single(), [rng.randrange(S.q) for _ in zero]]]
        for vecs in cases:
            for q in (p, p * p, S.q):
                for frob in (False, True):
                    for tmax in range(S.D + 1):
                        assert (S.s_multiples(vecs, q, tmax, frob)
                                == ref_dense_s_multiples(S, vecs, q, tmax,
                                                         frob))


# ---------------------------------------------------------------------------
# one shared ring per parameter set
# ---------------------------------------------------------------------------


def test_equal_parameters_give_the_identical_dp_ring():
    E = eisenstein_make(3, "explicit", [3, 1])
    S = DpRing(E, 1, m=2, h=1)
    assert DpRing(E, 1, m=2, h=1) is S
    # an equal Eisenstein polynomial built again, and the resolved D
    E2 = eisenstein_make(3, "explicit", [3, 1])
    assert DpRing(E2, 1, m=2, D=2 * 3 * 1, h=1) is S
    assert DpRing(E, 1, m=2, D=None, h=1) is S
    assert DpRing(E, 1, m=2, h=2) is not S
    assert DpRing(E, 1, m=2, D=7, h=1) is not S
    # the default f and its explicit spelling: f is resolved before the
    # lookup, so the ring takes one cache entry
    assert DpRing(E, 1, m=1, f=None, h=1) is DpRing(E, 1, m=1, f=[0, 1], h=1)
    assert DpRing(E, 1, m=2, f=(1, 0, 1), h=1) is S
    # elements of two constructions compare equal (DpElem.__eq__ asks
    # for the identical ring)
    x = DpRing(E, 1, m=2, h=1).gamma(1)
    assert x == DpRing(E2, 1, m=2, h=1).gamma(1)
    assert DpRing(E2, 1, m=2, h=1).one() == S.one()
    # the memo tables are shared
    assert DpRing(E2, 1, m=2, h=1).fil_span(1) is S.fil_span(1)


def _phi_gamma_pairs(S):
    return [(j, i) for i in range(min(S.h, S.p - 1) + 1)
            for j in S.fil_gamma_indices(i)]


def test_phi_gamma_matches_s_phi_div_on_cold_and_warm_rings():
    # every (j, i) with j in fil_gamma_indices(i), on a cold ring (memo
    # first) and on one whose gamma_j(E) and Fil^i factors are warm
    seen = 0
    for p, e, m in [(p, e, m) for p in (2, 3, 5) for e in (1, 2)
                    for m in (1, 2)]:
        E = eisenstein_make(p, "explicit", [p] + [0] * (e - 1) + [1])
        for h, D in [(1, None), (p - 1, 2 * p * e + 2)]:
            for warm in (False, True):
                series_rings._dp_ring.cache_clear()
                S = DpRing(E, 1, m=m, D=D, h=h)
                want = {(j, i): s_phi_div(S.gamma(j), i).reduce_prec(1)
                        for j, i in _phi_gamma_pairs(S)}
                if not warm:
                    series_rings._dp_ring.cache_clear()
                    S = DpRing(E, 1, m=m, D=D, h=h)
                for (j, i), ref in want.items():
                    got = S.phi_gamma(j, i)
                    assert (got.vec, got.prec) == (ref.vec, 1), (p, e, m, j, i)
                    assert S.phi_gamma(j, i) is got
                    seen += 1
    assert seen > 100
    E = eisenstein_make(3, "explicit", [3, 1])
    S = DpRing(E, 1, h=2)
    with pytest.raises(InputError, match="0 <= i <= p-1"):
        S.phi_gamma(3, 3)
    with pytest.raises(NotInFiltration):
        S.phi_gamma(1, 2)


def test_phi_gamma_is_kept_per_h():
    # rings that differ only in h have separate memos, each equal to its
    # own ring's s_phi_div
    E = eisenstein_make(5, "explicit", [5, 1])
    rings = [DpRing(E, 1, h=1), DpRing(E, 1, h=2)]
    assert len({id(S) for S in rings}) == 2
    vals = [S.phi_gamma(1, 1) for S in rings]
    assert len({id(v) for v in vals}) == 2
    for S, v in zip(rings, vals):
        assert v.ring is S
        ref = s_phi_div(S.gamma(1), 1).reduce_prec(1)
        assert (v.vec, v.prec) == (ref.vec, ref.prec)
    assert DpRing(E, 1, h=1).phi_gamma(1, 1) is vals[0]
    assert DpRing(E, 1, h=2).phi_gamma(1, 1) is vals[1]


def test_invalid_dp_rings_raise_on_every_call():
    E = eisenstein_make(3, "explicit", [3, 1])
    info = series_rings._dp_ring.cache_info
    before = info().currsize
    for _ in range(3):
        with pytest.raises(InputError, match="must exceed p\\*e"):
            DpRing(E, 1, D=3)
        with pytest.raises(InputError, match="irreducible"):
            DpRing(E, 1, m=2, f=[0, 0, 1])
    assert info().currsize == before


def test_dp_ring_cache_is_bounded():
    info, bound = series_rings._dp_ring.cache_info, series_rings.DP_RING_CACHE
    assert info().maxsize == bound
    E = eisenstein_make(2, "explicit", [2, 1])
    for n in range(1, bound + 6):
        S = DpRing(E, n)
        assert S.n_int == n and S.D == 4
        assert info().currsize <= bound
