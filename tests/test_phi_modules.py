import itertools
import random

import pytest
from hypothesis import assume, given, strategies as st

from prismalab import phi_modules
from prismalab.errors import (
    BoundTooSmall, IllFormedPhi, Inconsistent, InputError, NotKilledByP,
    PrecisionTooLow,
)
from prismalab.decomposition import split_phi_module
from prismalab.phi_modules import (
    EtalePhiModule, FiniteModel, KisinModule, PhiModule, _minimal,
    _s_multiples, annihilator_alpha, boundary_structure_check, etale_fixed_points,
    height_check, presentation_from_generators, u_torsion, zp_shape,
)
from prismalab.linalg_residue import (
    factor, howell_form, in_span, span_length, spans_equal,
)
from prismalab.series_rings import SeriesElem, eisenstein_make, phi_apply
from prismalab.witt_base import WittRing, _multiples

from direct_sums import direct_sum


def S(W, coeffs):
    return SeriesElem.from_ints(W, coeffs)


def quotient_module(W, p_exp=None, u_exp=None, N=None):
    """The module W[[u]]/(p^a, u^d) with phi(gen) = gen."""
    rels = []
    a = p_exp if p_exp is not None else W.n
    if p_exp is not None and p_exp < W.n:
        rels.append([S(W, [W.p ** p_exp])])
    if u_exp is not None:
        rels.append([S(W, [0] * u_exp + [1])])
    kb = (a, u_exp)
    tb = u_exp if u_exp is not None else 0
    return PhiModule(W, 1, rels, [[S(W, [1])]], killed_by=kb,
                     torsion_bound=tb, N=N)


# ---------------------------------------------------------------------------
# u_torsion
# ---------------------------------------------------------------------------


def test_u_torsion_of_free_module_is_zero():
    W = WittRing(2, 2, 1)
    M = quotient_module(W)  # free of rank 1
    T = u_torsion(M)
    assert T.length() == 0


def test_u_torsion_whole_module_binomial_relation():
    # W_2[[u]]/((u+1)^2 - 1, 4) for p = 2: all of it is u-power torsion
    W = WittRing(2, 2, 1)
    rel = [S(W, [0, 2, 1])]  # u^2 + 2u
    # u^3 * gen = u*(u^2+2u) - 2*(u^2+2u) + 4u is in the span
    M = PhiModule(W, 1, [rel], [[S(W, [1])]], killed_by=(2, 3), N=6)
    T = u_torsion(M)
    assert T.length() == M.length() > 0


def test_u_torsion_picks_out_torsion_summand():
    W = WittRing(2, 2, 1)
    free = quotient_module(W, p_exp=1, N=5)          # 𝔖/2
    tors = quotient_module(W, p_exp=1, u_exp=3, N=5)  # 𝔖/(2, u^3)
    M = direct_sum(free, tors)
    T = u_torsion(M)
    # oracle: the torsion part is 𝔖/(2, u^3) of length 3
    assert T.length() == 3
    assert annihilator_alpha(T) == 3


def test_u_torsion_idempotent_and_additive():
    rng = random.Random(7)
    W = WittRing(2, 2, 1)
    pieces = [
        lambda: quotient_module(W, p_exp=1, N=5),
        lambda: quotient_module(W, p_exp=1, u_exp=rng.randrange(1, 4), N=5),
        lambda: quotient_module(W, p_exp=2, u_exp=rng.randrange(1, 4), N=5),
    ]
    for _ in range(6):
        A = rng.choice(pieces)()
        B = rng.choice(pieces)()
        TA, TB = u_torsion(A), u_torsion(B)
        TS = u_torsion(direct_sum(A, B))
        assert TS.length() == TA.length() + TB.length()
        if TA.g:
            assert u_torsion(TA).length() == TA.length()


def ref_submodule_kernel_of_u_power(mdl, b):
    """ker(u^b) from the dense system it was first solved as: the kernel of
    [u^b | H] at headroom N + b, each kernel vector cut back to u^N."""
    big = FiniteModel(mdl.M, mdl.N + b, mdl.nexp)
    bw, w, sh = big.N * mdl.m, mdl.N * mdl.m, b * mdl.m
    # u^b sends unit c to unit c + sh, or to 0 past the end of its block
    A = [[int(c == r - sh and r % bw >= sh) for c in range(big.dim)]
         + [h[r] for h in big.H] for r in range(big.dim)]
    K = factor([list(c) for c in zip(*A)], mdl.p, mdl.nexp).kernel()
    proj = [[a for base in range(0, big.dim, bw) for a in k[base:base + w]]
            for k in K]
    return howell_form(proj + list(mdl.H), mdl.p, mdl.nexp)


@st.composite
def relation_modules(draw):
    """A module of g <= 2 generators over W_n(F_{p^m}), p in {2, 3} and
    n, m <= 2, with 0-3 relation columns whose entries are 0, p^k u^t or a
    random series, cut at u^N for N <= 5; phi is the identity and is not
    validated, since ker(u^b) reads only the relations."""
    p = draw(st.sampled_from([2, 3]))
    n, m, g = (draw(st.integers(1, 2)) for _ in range(3))
    N = draw(st.integers(2, 5))
    W = WittRing(p, n, m)
    coeff = st.integers(0, W.q - 1)

    def entry():
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return S(W, [])
        if kind == 1:
            t = draw(st.integers(0, N - 1))
            return S(W, [0] * t + [p ** draw(st.integers(0, n - 1))])
        return SeriesElem.from_vec(W, draw(st.lists(
            coeff, min_size=N * m, max_size=N * m)))

    rels = [[entry() for _ in range(g)]
            for _ in range(draw(st.integers(0, 3)))]
    phi = [[S(W, [int(i == j)]) for j in range(g)] for i in range(g)]
    return PhiModule(W, g, rels, phi, N=N, validate=False)


@given(relation_modules(), st.integers(1, 4))
def test_submodule_kernel_of_u_power_equals_dense_reference(M, b):
    for nexp in range(1, M.ring.n + 1):
        mdl = M.model(nexp=nexp)
        assert (mdl.submodule_kernel_of_u_power(b)
                == ref_submodule_kernel_of_u_power(mdl, b))


def test_u_torsion_requires_certificate():
    W = WittRing(2, 2, 1)
    M = PhiModule(W, 1, [], [[S(W, [1])]], N=4)
    with pytest.raises(PrecisionTooLow):
        u_torsion(M)


# ---------------------------------------------------------------------------
# annihilator_alpha
# ---------------------------------------------------------------------------


def test_alpha_simple_and_zero():
    W = WittRing(2, 1, 1)
    assert annihilator_alpha(quotient_module(W, u_exp=3)) == 3
    assert annihilator_alpha(PhiModule.zero(W)) == 0


def test_alpha_binomial_module_is_p_power():
    # p = 2, n = 2: alpha = p^{n-1} = 2
    W = WittRing(2, 2, 1)
    rel = [S(W, [0, 2, 1])]
    M = PhiModule(W, 1, [rel], [[S(W, [1])]], killed_by=(2, 3), N=6)
    assert annihilator_alpha(M) == 2


def ref_annihilator_alpha(M):
    """The least alpha <= b whose u^alpha kills every generator mod p, by
    trying alpha = 0, 1, ..., b in turn."""
    mdl, b = M.model(nexp=1), M.killed_by[1]
    for alpha in range(b + 1):
        if all(mdl.member(mdl.u_shift(mdl.gen_vec(i), alpha))
               for i in range(M.g)):
            return alpha
    raise Inconsistent("certified kill exponent fails in the model")


@given(relation_modules(), st.integers(0, 4))
def test_alpha_bisection_equals_linear_scan(M, b):
    # killed_by is not validated, so a b that fails must raise in both
    M.killed_by = (M.ring.n, b)
    if b >= M.N:
        with pytest.raises(PrecisionTooLow):
            annihilator_alpha(M)
        return
    try:
        want = ref_annihilator_alpha(M)
    except Inconsistent:
        with pytest.raises(Inconsistent):
            annihilator_alpha(M)
    else:
        assert annihilator_alpha(M) == want


def test_alpha_bisects_over_the_kill_exponent(monkeypatch):
    # b = 100: the scan made 101 member calls, the bisection makes one at
    # b and at most ceil(log2(101)) = 7 more
    W = WittRing(3, 1, 1)
    M = quotient_module(W, u_exp=100)
    calls = []
    member = FiniteModel.member
    monkeypatch.setattr(FiniteModel, "member",
                        lambda self, v: calls.append(1) or member(self, v))
    assert annihilator_alpha(M) == 100
    assert len(calls) <= 8


def test_alpha_brute_force_oracle_mod_p():
    # compare against direct enumeration in k[u]/u^N for cyclic quotients
    W = WittRing(3, 1, 1)
    for d in (1, 2, 4):
        M = quotient_module(W, u_exp=d, N=d + 2)
        assert annihilator_alpha(M) == d
        # oracle: in k[u]/(u^d), u^alpha = 0 first at alpha = d
        assert min(a for a in range(d + 1) if a >= d) == d


# ---------------------------------------------------------------------------
# boundary_structure_check
# ---------------------------------------------------------------------------


def test_boundary_check_unit_phi_passes():
    W = WittRing(2, 1, 1)
    M = quotient_module(W, u_exp=1)
    rep = boundary_structure_check(M, e=1, i=2)
    assert rep["passed"]


def test_boundary_check_nilpotent_phi_fails_bijectivity():
    W = WittRing(2, 1, 1)
    M = PhiModule(W, 1, [[S(W, [0, 1])]], [[S(W, [])]],
                  killed_by=(1, 1), N=3)
    rep = boundary_structure_check(M)
    assert rep["p_u_annihilates"] and not rep["phi_bijective"]


def test_boundary_check_u_squared_fails_annihilation():
    W = WittRing(2, 1, 1)
    M = quotient_module(W, u_exp=2)
    rep = boundary_structure_check(M)
    assert not rep["p_u_annihilates"] and not rep["passed"]


def test_boundary_pass_matches_etale_fixed_dimension():
    # a passing boundary module is an etale phi-module over k; its fixed
    # space has full F_p-dimension
    W = WittRing(3, 1, 1)
    M = quotient_module(W, u_exp=1)
    assert boundary_structure_check(M)["passed"]
    V = EtalePhiModule(3, 1, 1, [[1]])
    t, basis = etale_fixed_points(V, 4)
    assert len(basis) == 1  # = dim_Fp M


# ---------------------------------------------------------------------------
# zp_shape
# ---------------------------------------------------------------------------


def test_zp_shape_direct_sum():
    W = WittRing(2, 2, 1)
    M = direct_sum(quotient_module(W, p_exp=1, N=4),
                   quotient_module(W, p_exp=2, N=4))
    res = zp_shape(M)
    assert res.ok and res.exponents == [1, 2]


def test_zp_shape_refuted_by_u_torsion():
    W = WittRing(2, 2, 1)
    M = quotient_module(W, p_exp=1, u_exp=1, N=3)
    res = zp_shape(M)
    assert not res.ok and res.refuted[0] == 1


def _series_matmul(A, B, N):
    g = len(A)
    out = []
    for i in range(g):
        row = []
        for j in range(len(B[0])):
            acc = A[i][0] * B[0][j]
            for k in range(1, g):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc.truncate(N))
        out.append(row)
    return out


def test_zp_shape_recovers_hidden_exponents():
    # exponents {1,1,3} hidden behind a unipotent change of presentation
    p, n = 2, 3
    W = WittRing(p, n, 1)
    N = 6
    z, one = S(W, []), S(W, [1])
    R = [[S(W, [2]), z], [z, S(W, [2])], [z, z]]  # columns kill p, p
    Nmat = [[z, S(W, [0, 1]), S(W, [0, 0, 3])],
            [z, z, S(W, [5, 1])],
            [z, z, z]]
    U = [[one if i == j else Nmat[i][j] for j in range(3)] for i in range(3)]
    V = [[one if i == j else z for j in range(3)] for i in range(3)]
    # V = U^{-1} = I - N + N^2 for strictly upper triangular N
    N2 = _series_matmul(Nmat, Nmat, N)
    for i in range(3):
        for j in range(3):
            if i != j:
                V[i][j] = (z - Nmat[i][j]) + N2[i][j]
    from prismalab.series_rings import phi_apply
    Rp = _series_matmul(U, R, N)
    phiV = [[phi_apply(V[i][j]).truncate(N) for j in range(3)]
            for i in range(3)]
    Phi = _series_matmul(U, phiV, N)
    rel_cols = [[Rp[i][j] for i in range(3)] for j in range(2)]
    M = PhiModule(W, 3, rel_cols, Phi, killed_by=(3, None),
                  torsion_bound=0, N=N)
    res = zp_shape(M)
    assert res.ok and res.exponents == [1, 1, 3]


def test_zp_shape_needs_certificate():
    W = WittRing(2, 2, 1)
    M = PhiModule(W, 1, [], [[S(W, [1])]], N=3)
    with pytest.raises(PrecisionTooLow):
        zp_shape(M)


# ---------------------------------------------------------------------------
# height_check
# ---------------------------------------------------------------------------


def test_height_check_rank_one_basic():
    W = WittRing(3, 1, 1)
    E = eisenstein_make(3, "cyclotomic", 1)
    Es = E.series(W)
    h = 2
    M = PhiModule(W, 1, [], [[(Es * Es).truncate(8)]], torsion_bound=0, N=8)
    K = KisinModule(M, h, [[S(W, [1])]], E)
    assert height_check(K)
    # phi(e) = e, psi = E^h
    M2 = PhiModule(W, 1, [], [[S(W, [1])]], torsion_bound=0, N=8)
    K2 = KisinModule(M2, h, [[(Es * Es).truncate(8)]], E)
    assert height_check(K2)


def test_height_check_overweight_phi_has_no_psi():
    # phi(e) = E^{h+1} e over 𝔖/p: exhaustively no low-degree psi works
    p, h = 2, 1
    W = WittRing(p, 1, 1)
    E = eisenstein_make(p, "cyclotomic", 1)
    Es = E.series(W)
    M = PhiModule(W, 1, [], [[(Es * Es).truncate(8)]], torsion_bound=0, N=8)
    for coeffs in itertools.product(range(p), repeat=4):
        K = KisinModule(M, h, [[S(W, list(coeffs))]], E)
        assert not height_check(K)


def test_height_check_determinant_invariant():
    # conjugate diag(E^{h1}, E^{h2}) by unimodular integer matrices
    rng = random.Random(11)
    W = WittRing(3, 2, 1)
    E = eisenstein_make(3, "cyclotomic", 1)
    Es = E.series(W)
    N = 14
    h = 2
    for _ in range(5):
        a = rng.randrange(9)
        A = [[1, a], [0, 1]]
        Ai = [[1, -a], [0, 1]]
        b = rng.randrange(9)
        B = [[1, 0], [b, 1]]
        Bi = [[1, 0], [-b, 1]]
        h1 = rng.randrange(h + 1)
        D1 = [(Es ** h1).truncate(N), (Es ** (h - h1)).truncate(N)]
        D2 = [(Es ** (h - h1)).truncate(N), (Es ** h1).truncate(N)]
        mk = lambda Mint, D: [
            [(S(W, [Mint[i][j]]) * D[j]).truncate(N) for j in range(2)]
            for i in range(2)]
        Phi = _series_matmul(mk(A, D1), [[S(W, [B[i][j]]) for j in range(2)]
                                         for i in range(2)], N)
        Psi = _series_matmul(mk(Bi, D2), [[S(W, [Ai[i][j]]) for j in range(2)]
                                          for i in range(2)], N)
        M = PhiModule(W, 2, [], Phi, torsion_bound=0, N=N)
        K = KisinModule(M, h, Psi, E)
        assert height_check(K)
        detP = (Phi[0][0] * Phi[1][1] - Phi[0][1] * Phi[1][0]).truncate(N)
        detQ = (Psi[0][0] * Psi[1][1] - Psi[0][1] * Psi[1][0]).truncate(N)
        Ehg = (Es ** (h * 2)).truncate(N)
        assert (detP * detQ).truncate(N) == Ehg.truncate(N)


# ---------------------------------------------------------------------------
# etale fixed points
# ---------------------------------------------------------------------------


def test_etale_identity():
    V = EtalePhiModule(2, 1, 1, [[1]])
    t, basis = etale_fixed_points(V, 4)
    assert t == 1 and len(basis) == 1


def test_etale_f2_squared_oracle():
    V = EtalePhiModule(2, 1, 2, [[0, 1], [1, 1]])
    # brute-force oracle over F_{2^t}: count solutions of A(x^2) = x
    expected = {}
    for t in range(1, 5):
        F = WittRing(2, 1, t)
        els = F.elements()
        cnt = 0
        for x1 in els:
            for x2 in els:
                y1, y2 = x1 * x1, x2 * x2
                if (y2, y1 + y2) == (x1, x2):
                    cnt += 1
        expected[t] = cnt
    t_star, basis = etale_fixed_points(V, 4)
    assert expected[1] == 1  # only zero over F_2
    assert expected[t_star] == 2 ** 2 and len(basis) == 2
    for t in range(1, t_star):
        assert expected[t] < 4


def test_etale_singular_matrix_rejected():
    with pytest.raises(IllFormedPhi):
        EtalePhiModule(2, 1, 2, [[1, 1], [1, 1]])


def test_etale_bound_too_small():
    V = EtalePhiModule(2, 1, 2, [[0, 1], [1, 1]])
    with pytest.raises(BoundTooSmall):
        etale_fixed_points(V, 1)


def test_etale_quadratic_coefficients():
    # V over F_4 of dimension 1 with phi = multiplication by a generator
    V = EtalePhiModule(2, 2, 1, [[[0, 1]]])
    t, basis = etale_fixed_points(V, 6)
    assert len(basis) == 2  # = m*d
    # oracle: fixed vectors of w -> g*sigma(w) in F_4 tensor F_{2^t}
    F4 = WittRing(2, 1, 2)
    g = F4.gen()
    cnt1 = sum(1 for w in F4.elements() if g * F4.sigma(w) == w)
    assert cnt1 == 2  # F_p-dimension 1 at t = 1, so t* > 1
    assert t > 1


def test_etale_fixed_points_random_oracle():
    rng = random.Random(13)
    for _ in range(5):
        while True:
            A = [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
            if (A[0][0] * A[1][1] - A[0][1] * A[1][0]) % 2:
                break
        V = EtalePhiModule(2, 1, 2, A)
        t_star, basis = etale_fixed_points(V, 6)
        F = WittRing(2, 1, t_star)
        els = F.elements()
        cnt = 0
        for x1 in els:
            for x2 in els:
                y = (A[0][0] * (x1 * x1) + A[0][1] * (x2 * x2),
                     A[1][0] * (x1 * x1) + A[1][1] * (x2 * x2))
                if y == (x1, x2):
                    cnt += 1
        assert cnt == 2 ** len(basis) == 4


# ---------------------------------------------------------------------------
# reference implementations: the hand-built linearizations that the shared
# witt_base one replaced, kept verbatim as oracles
# ---------------------------------------------------------------------------


def ref_invertible_over_field(A, F):
    """Full rank of the F_p-linearization of A over F = F_{p^m}: row (i, s)
    joins row s of the matrices of multiplication by A[i][j]."""
    mats = [[F._mul_matrix(a) for a in row] for row in A]
    rows = [[x for mat in row for x in mat[s]]
            for row in mats for s in range(F.m)]
    H = howell_form(rows, F.p, 1)
    return span_length(H, F.p, 1) == len(rows)


def ref_etale_fixed_points(V, t_max):
    """Smallest scalar extension where the fixed space reaches full size.

    Tensors V over F_p with F_{p^t}, solves phi(x) = x as an F_p-linear
    system, and returns (t*, basis vectors) once the F_p-dimension m*d is
    attained.
    """
    p, m, d = V.p, V.m, V.d
    F = V.field
    genm = F.gen()
    # sigma(x^a) and A-columns expanded on the F_p-basis of F_{p^m}
    sig_pow = [F.sigma(genm ** a) for a in range(m)]
    for t in range(1, t_max + 1):
        Ft = WittRing(p, 1, t)
        gent = Ft.gen()
        ypow = [(gent ** (p * c)).coeffs for c in range(t)]
        D = d * m * t
        idx = lambda s, a, c: (s * m + a) * t + c
        Phi = [[0] * D for _ in range(D)]
        for s in range(d):
            for a in range(m):
                imgs = [V.A[i][s] * sig_pow[a] for i in range(d)]
                for c in range(t):
                    colv = idx(s, a, c)
                    for i in range(d):
                        for j in range(m):
                            w = imgs[i].coeffs[j]
                            if w:
                                for cc in range(t):
                                    y = ypow[c][cc]
                                    if y:
                                        r = idx(i, j, cc)
                                        Phi[r][colv] = (
                                            Phi[r][colv] + w * y) % p
        A = [[(Phi[r][c] - (1 if r == c else 0)) % p for c in range(D)]
             for r in range(D)]
        K = factor([list(c) for c in zip(*A)], p, 1).kernel()
        if len(K) == m * d:
            return t, K
    raise BoundTooSmall(
        f"fixed space did not reach dimension {m * d} by t = {t_max}")


def ref_boundary_structure_check(M, e=None, i=None):
    """(p,u)-annihilation and bijectivity of phi mod (p, u)."""
    p = M.ring.p
    if e is not None and i is not None and e * (i - 1) != p - 1:
        raise InputError("boundary case requires e(i-1) = p-1")
    mdl = M.model()
    kills = all(mdl.member(mdl.u_shift(mdl.gen_vec(s), 1))
                and mdl.member([(x * p) % mdl.q
                                for x in mdl.gen_vec(s)])
                for s in range(M.g))
    # residual space: coordinates (s, t=0, j) mod p
    m = M.ring.m
    D = M.g * m
    small = lambda v: [v[mdl.idx(s, 0, j)] % p
                       for s in range(M.g) for j in range(m)]
    rel_small = [small(h) for h in mdl.H]
    # x^j gen_s for j < m is the unit vector at idx(s, 0, j)
    phi_cols = [small(mdl.phi_vec([int(k == mdl.idx(s, 0, j))
                                   for k in range(mdl.dim)]))
                for s in range(M.g) for j in range(m)]
    Hs = howell_form(rel_small, p, 1) if rel_small else []
    full = howell_form(phi_cols + Hs, p, 1) if D else []
    surj = span_length(full, p, 1) == D if D else True
    inj = True
    if D:
        K = factor(phi_cols + Hs, p, 1).kernel()
        for k in K:
            x = [k[c] % p for c in range(D)]
            if any(x) and not (Hs and in_span(Hs, x, p, 1)):
                inj = False
                break
    bij = surj and inj
    return {"p_u_annihilates": kills, "phi_bijective": bij,
            "passed": kills and bij}


@st.composite
def field_matrices(draw):
    """(p, m, d, A) with A a d x d matrix over F_{p^m} as coefficient
    lists; a drawn flag zeroes a random row, so singular A occur often."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    A = draw(st.lists(st.lists(st.lists(st.integers(0, p - 1), min_size=m,
                                        max_size=m),
                               min_size=d, max_size=d),
                      min_size=d, max_size=d))
    if draw(st.booleans()):
        A[draw(st.integers(0, d - 1))] = [[0] * m] * d
    return p, m, d, A


@given(field_matrices())
def test_etale_invertibility_equals_reference(case):
    p, m, d, A = case
    F = WittRing(p, 1, m)
    expected = ref_invertible_over_field(
        [[F.elem(a) for a in row] for row in A], F)
    try:
        EtalePhiModule(p, m, d, A)
    except IllFormedPhi:
        assert not expected
    else:
        assert expected


def _with_factors(fixed_points, V, t_max, namespace):
    """fixed_points(V, t_max), or its BoundTooSmall message, with the
    columns of Phi - I it passed to the factor of namespace."""
    calls, fac = [], namespace["factor"]

    def recording(vectors, *args):
        calls.append(vectors)
        return fac(vectors, *args)

    namespace["factor"] = recording
    try:
        out = fixed_points(V, t_max)
    except BoundTooSmall as exc:
        out = str(exc)
    finally:
        namespace["factor"] = fac
    return out, calls


@given(field_matrices(), st.integers(1, 4))
def test_etale_fixed_points_equal_reference(case, t_max):
    # t* is often above t_max, so Phi - I is compared at every t tried
    p, m, d, A = case
    F = WittRing(p, 1, m)
    assume(ref_invertible_over_field(
        [[F.elem(a) for a in row] for row in A], F))
    V = EtalePhiModule(p, m, d, A)
    # the reference passes the transpose of its matrix Phi - I
    assert (_with_factors(etale_fixed_points, V, t_max, vars(phi_modules))
            == _with_factors(ref_etale_fixed_points, V, t_max, globals()))


@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.integers(1, 2),
       st.integers(1, 3), st.booleans(), st.booleans(), st.data())
def test_boundary_check_equals_reference(p, m, n, g, singular, kill_first,
                                         data):
    """M = (W[[u]]/(p, u))^g with a random constant phi; a singular phi
    has its last column divisible by p, so phi-bar is not bijective.  With
    kill_first, the relation e_0 joins and phi(e_0) = 0, so phi-bar is
    bijective on M/(p, u) only modulo that relation."""
    W = WittRing(p, n, m)
    unit = lambda i, c: [S(W, c) if k == i else S(W, []) for k in range(g)]
    rels = [unit(i, [0, 1]) for i in range(g)] + [unit(i, [p])
                                                  for i in range(g)]
    phi = [[SeriesElem(W, [W.elem(data.draw(st.lists(
        st.integers(0, W.q - 1), min_size=m, max_size=m)))])
        for _ in range(g)] for _ in range(g)]
    if singular:
        for row in phi:
            row[-1] = row[-1] * p
    if kill_first:
        rels.append(unit(0, [1]))
        for row in phi:
            row[0] = S(W, [])
    M = PhiModule(W, g, rels, phi)
    rep = boundary_structure_check(M)
    assert rep == ref_boundary_structure_check(M)
    assert rep["p_u_annihilates"]
    if singular and not (kill_first and g == 1):
        assert not rep["phi_bijective"]


# ---------------------------------------------------------------------------
# presentation validation
# ---------------------------------------------------------------------------


def test_ill_formed_phi_rejected():
    W = WittRing(2, 2, 1)
    with pytest.raises(IllFormedPhi):
        PhiModule(W, 1, [[S(W, [2, 0, 1])]], [[S(W, [1])]], N=5)


def test_bad_kill_certificate_rejected():
    W = WittRing(2, 2, 1)
    with pytest.raises(NotKilledByP):
        PhiModule(W, 1, [[S(W, [2])]], [[S(W, [1])]], killed_by=(0, None))


def test_validate_from_first_checks_the_later_relations_and_the_kill():
    # phi(e0) = phi(e1) = e1 sends the relation u^3 e0 to u^6 e1, outside
    # the span of u^3 e0 and 2 e1; phi(2 e1) = 2 e1 stays inside
    W = WittRing(2, 2, 1)
    bad, good = (S(W, [0, 0, 0, 1]), S(W, [])), (S(W, []), S(W, [2]))
    phi = [[S(W, []), S(W, [])], [S(W, [1]), S(W, [1])]]

    def module(rels, killed_by=None):
        return PhiModule(W, 2, rels, phi, killed_by=killed_by, N=8,
                         validate=False)
    module([bad, good])._validate(first=1)
    with pytest.raises(IllFormedPhi, match="relation 0"):
        module([bad, good])._validate()
    with pytest.raises(IllFormedPhi, match="relation 1"):
        module([good, bad])._validate(first=1)
    with pytest.raises(NotKilledByP):
        module([bad, good], killed_by=(1, None))._validate(first=2)


def test_split_checks_phi_only_on_the_section_columns(monkeypatch):
    W = WittRing(2, 1, 1)
    u9, z = S(W, [0] * 9 + [1]), S(W, [])
    M = PhiModule(W, 2, [[u9, z], [z, u9]],
                  [[S(W, [1]), z], [S(W, [0, 1]), S(W, [0, 1])]],
                  killed_by=(1, 9))
    seen, validate = [], PhiModule._validate

    def spy(self, first=0):
        seen.append((len(self.relations), first))
        validate(self, first)
    monkeypatch.setattr(PhiModule, "_validate", spy)
    res = split_phi_module(M)
    assert res.inclusion
    assert seen == [(2 + len(res.inclusion), 2)]


def ref_phi_column(M, col):
    """phi applied to an element given by its coordinate column: the boxed
    series path PhiModule._validate took before FiniteModel.phi_vec."""
    W = M.ring
    out = []
    for i in range(M.g):
        acc = SeriesElem.from_ints(W, [])
        for s in range(M.g):
            acc = acc + (phi_apply(col[s], M.N)
                         * M.phi[i][s]).truncate(M.N)
        out.append(acc)
    return out


@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.integers(1, 2),
       st.integers(1, 2), st.integers(2, 5), st.data())
def test_phi_vec_equals_reference_phi_column(p, n, m, g, N, data):
    """On random phi, relations and columns, some of u-degree at or past
    N, phi_vec of the model vector is the model vector of phi."""
    W = WittRing(p, n, m)

    def series():
        k = data.draw(st.integers(0, N + 1)) * m
        return SeriesElem.from_vec(W, data.draw(st.lists(
            st.integers(0, W.q - 1), min_size=k, max_size=k)))

    def column():
        return [series() for _ in range(g)]

    phi = [column() for _ in range(g)]
    rels = [column() for _ in range(data.draw(st.integers(0, 2)))]
    M = PhiModule(W, g, rels, phi, N=N, validate=False)
    mdl = M.model()
    for col in rels + [column() for _ in range(2)]:
        assert mdl.phi_vec(mdl.vec(col)) == mdl.vec(ref_phi_column(M, col))


# ---------------------------------------------------------------------------
# minimal presentations of submodules
# ---------------------------------------------------------------------------


def ref_presentation(M, mdl, gens, killed_by=None):
    """PhiModule presented on the given coordinate vectors of a submodule."""
    if not gens:
        return PhiModule.zero(mdl.W)
    r = len(gens)
    cols = []
    for v in gens:
        xs = _multiples(v, mdl.W._gen_matrices()[0], mdl.q)
        cols.extend(mdl.u_shift(w, t) for t in range(mdl.N) for w in xs)
    # relations: combinations of the generator multiples that die in M
    F = factor(cols + list(mdl.H), mdl.p, mdl.nexp)
    rel_cols = []
    for k in F.kernel():
        c = k[:len(cols)]
        if any(c):
            rel_cols.append(mdl.to_column(c, g=r))
    phi_rows = [[None] * r for _ in range(r)]
    for i, v in enumerate(gens):
        col = mdl.to_column(F.solve(mdl.phi_vec(v))[:len(cols)], g=r)
        for ii in range(r):
            phi_rows[ii][i] = col[ii]
    return PhiModule(mdl.W, r, rel_cols, phi_rows, killed_by=killed_by,
                     N=mdl.N, validate=False)


def _mod_pu_length(rows, base, mdl):
    """Length of (Y + base) / ((p, u)Y + base), Y the S-span of rows in
    blocks of mdl.N * m: the F_p-dimension of Y/(p, u)Y modulo base."""
    p, nexp, q, N = mdl.p, mdl.nexp, mdl.q, mdl.N
    mults = [x for v in rows for x in _s_multiples(v, N, mdl.W, q)]
    low = [x for k, x in enumerate(mults) if k % N]
    low += [[(a * p) % q for a in x] for x in mults]
    Y = howell_form(list(base) + mults, p, nexp)
    Z = howell_form(list(base) + low, p, nexp)
    return span_length(Y, p, nexp) - span_length(Z, p, nexp)


def _u_kernel_length(P):
    mdl = P.model()
    return (span_length(mdl.submodule_kernel_of_u_power(1), mdl.p, mdl.nexp)
            - span_length(mdl.H, mdl.p, mdl.nexp))


@st.composite
def submodule_cases(draw):
    """(M, gens): M = W[[u]]^g / (u^b, p^a, c) over W_n(F_{p^m}) with a
    random phi, where the entries of the optional relation c have u-order
    at least b/p, so that phi(c) lies in u^b M.  gens are 1-2 random model
    vectors, a drawn combination of them, and then their phi-images until
    the S-span stops growing, so they span a phi-stable submodule."""
    p = draw(st.sampled_from([2, 3]))
    n, m, g = (draw(st.integers(1, 2)) for _ in range(3))
    a, b = draw(st.integers(1, n)), draw(st.integers(1, 3))
    W = WittRing(p, n, m)
    coeff = st.integers(0, W.q - 1)

    def series(lo, hi):
        return SeriesElem.from_vec(W, [0] * (lo * m) + draw(st.lists(
            coeff, min_size=(hi - lo) * m, max_size=(hi - lo) * m)))

    def unit(i, e):
        return [e if k == i else S(W, []) for k in range(g)]

    rels = [unit(i, S(W, [0] * b + [1])) for i in range(g)]
    if a < n:
        rels += [unit(i, S(W, [p ** a])) for i in range(g)]
    if draw(st.booleans()):
        rels.append([series(-(-b // p), b) for _ in range(g)])
    phi = [[series(0, b + 1) for _ in range(g)] for _ in range(g)]
    M = PhiModule(W, g, rels, phi, killed_by=(a, b))
    mdl = M.model()
    vec = st.lists(coeff, min_size=mdl.dim, max_size=mdl.dim)
    gens = draw(st.lists(vec, min_size=1, max_size=2))
    if draw(st.booleans()):
        c = draw(coeff)
        gens.append([(x + c * y) % W.q for x, y in
                     zip(gens[0], mdl.u_shift(gens[-1], 1))])
    span, new = list(mdl.H), gens
    while new:
        rows = [x for v in new for x in _s_multiples(v, mdl.N, W, W.q)]
        span = howell_form(span + rows, p, n)
        new = [w for w in map(mdl.phi_vec, new) if not in_span(span, w, p, n)]
        gens += new
    return M, gens


@given(submodule_cases())
def test_minimal_presentation_equals_reference(case):
    M, gens = case
    mdl = M.model()
    p, nexp, N, W = mdl.p, mdl.nexp, mdl.N, mdl.W
    new = presentation_from_generators(M, mdl, gens, killed_by=M.killed_by)
    ref = ref_presentation(M, mdl, gens, killed_by=M.killed_by)
    new._validate()
    assert new.length() == ref.length()
    assert _u_kernel_length(new) == _u_kernel_length(ref)
    assert u_torsion(new).length() == u_torsion(ref).length()
    split_new, split_ref = split_phi_module(new), split_phi_module(ref)
    assert ((split_new.M_mult.length(), split_new.M_nilp.length())
            == (split_ref.M_mult.length(), split_ref.M_nilp.length()))
    # the kept generators span what all of them span ...
    kept = [ms[0] for ms in _minimal(gens, mdl.H, N, W, p, nexp)]
    assert len(kept) == new.g

    def span(vs):
        rows = [x for v in vs for x in _s_multiples(v, N, W, mdl.q)]
        return howell_form(list(mdl.H) + rows, p, nexp)

    assert spans_equal(span(kept), span(gens), p, nexp)
    # ... and there are as few generators and relations as Nakayama allows
    assert new.g * W.m == _mod_pu_length(gens, mdl.H, mdl)
    rels = [new.model().vec(col) for col in new.relations]
    assert len(rels) * W.m == _mod_pu_length(rels, [], new.model())


def test_readme_u_torsion_presentation_is_minimal():
    W = WittRing(2, 1, 1)
    rels = [[S(W, [0] * 9 + [1]), S(W, [])], [S(W, []), S(W, [0] * 9 + [1])]]
    phi = [[S(W, [1]), S(W, [])], [S(W, [0, 1]), S(W, [0, 1])]]
    M = PhiModule(W, 2, rels, phi, killed_by=(1, 9))
    T = u_torsion(M)
    # the unreduced presentation had 18 generators and 162 relations
    assert T.g == 2 and len(T.relations) <= 2
    assert T.length() == M.length() == 18
