import random
import re

import pytest

from prismalab.breuil_fl import (
    BreuilModule, FLModule, fl_criterion, fl_to_breuil, is_breuil_module,
    is_fl_module, residual_module, unramified_realization,
)
from prismalab.errors import (
    BadRamification, Inconsistent, InputError, PrismalabError,
)
from prismalab.linalg_residue import (
    factor, howell_form, span_length, spans_equal,
)
from prismalab.phi_modules import EtalePhiModule
from prismalab.series_rings import (
    DpRing, _dp_ring, eisenstein_make, int_poly_pow, s_phi_div,
)
from prismalab.witt_base import WittRing, _witt_ring

from direct_sums import direct_sum


def dp_ring(p, h, e=1, D=None, m=1, f=None):
    E = eisenstein_make(p, "explicit", [p] + [0] * (e - 1) + [1])
    return DpRing(E, 1, m=m, f=f, D=D, h=h)


def tate_breuil(S, h):
    """Rank 1, Fil = Fil^h S, phi_h the divided Frobenius of the ring."""
    fil, img = [], []
    for row in S.fil_span(h):
        s = S.from_vec(row)
        fil.append([s])
        img.append([s_phi_div(s, h)])
    return BreuilModule(S, 1, h, fil, img)


# ---------------------------------------------------------------------------
# Breuil modules
# ---------------------------------------------------------------------------


def test_tate_rank_one_is_breuil():
    for p, h in [(2, 1), (3, 1), (3, 2)]:
        B = tate_breuil(dp_ring(p, h), h)
        ok, why = is_breuil_module(B)
        assert ok, (p, h, why)


def test_scaled_image_breaks_generation():
    S = dp_ring(3, 1)
    u = S.from_int_poly([0, 1])
    fil, img = [], []
    for row in S.fil_span(1):
        s = S.from_vec(row)
        fil.append([s])
        img.append([u * s_phi_div(s, 1)])
    B = BreuilModule(S, 1, 1, fil, img)
    ok, why = is_breuil_module(B)
    assert not ok and why == "generation"


def test_inconsistent_images_detected():
    # two generators of the same filtration with images that disagree on
    # the overlap
    S = dp_ring(3, 1)
    E = S.from_int_poly(list(S.eis.int_coeffs))
    u = S.from_int_poly([0, 1])
    fil = [[E], [u * E]]
    img = [[S.c1()], [S.one()]]  # should be u^3 * c1, not 1
    B = BreuilModule(S, 1, 1, fil, img)
    assert not B.phi_h_consistent()
    assert not _breuil_syzygy_consistent(B)
    ok, why = is_breuil_module(B)
    assert not ok


def test_missing_divided_powers_fails_containment():
    # the ideal generated by E alone misses gamma_p(E)
    S = dp_ring(3, 1)
    E = S.from_int_poly(list(S.eis.int_coeffs))
    B = BreuilModule(S, 1, 1, [[E]], [[S.c1()]])
    ok, why = is_breuil_module(B)
    assert not ok and why == "fil-contains-filS"


def test_breuil_direct_sum():
    S = dp_ring(3, 1)
    B = tate_breuil(S, 1)
    BB = direct_sum(B, B)
    assert BB.r == 2
    ok, why = is_breuil_module(BB)
    assert ok, why


def test_mismatched_lengths_rejected():
    S = dp_ring(3, 1)
    with pytest.raises(InputError):
        BreuilModule(S, 1, 1, [[S.one()]], [])


# ---------------------------------------------------------------------------
# Fontaine-Laffaille modules
# ---------------------------------------------------------------------------


def unit_fl(W, h=1):
    return FLModule(W, [1], h, {}, {0: [[W.one()]]})


def tate_fl(W):
    one, zero = W.one(), W.zero()
    return FLModule(W, [1], 1, {1: [[one]]}, {0: [[zero]], 1: [[one]]})


def test_fl_direct_sum_of_unequal_ranks():
    # each summand's vectors are padded by the other summand's rank
    W = WittRing(3, 1, 1)
    one, zero = W.one(), W.zero()
    A = unit_fl(W)
    B = FLModule(W, [1, 1], 1, {1: [[one, zero]]},
                 {0: [[one, zero], [zero, one]], 1: [[zero, one]]})
    AB, BA = direct_sum(A, B), direct_sum(B, A)
    assert AB.phi_images(0) == [(one, zero, zero), (zero, one, zero),
                                (zero, zero, one)]
    assert AB.fil_gens(1) == [(zero, one, zero)]
    assert BA.fil_gens(1) == [(one, zero, zero)]
    assert BA.phi_images(1) == [(zero, one, zero)]
    assert all(len(v) == 3 for S in (AB, BA) for i in (0, 1)
               for v in S.phi_images(i))


def test_unit_and_tate_fl():
    W = WittRing(3, 1, 1)
    for M in (unit_fl(W), tate_fl(W)):
        ok, why = is_fl_module(M)
        assert ok, why
        okb, whyb = is_breuil_module(fl_to_breuil(M))
        assert okb, whyb
        assert fl_criterion(M)


def test_fl_axiom_failures():
    W = WittRing(3, 1, 1)
    one, zero = W.one(), W.zero()
    # phi_1 = 0 as well: images cannot generate
    M = FLModule(W, [1], 1, {1: [[one]]}, {0: [[zero]], 1: [[zero]]})
    assert is_fl_module(M) == (False, "axiom3")
    assert not fl_criterion(M)
    # phi_0 nonzero on Fil^1: violates phi_0 = p phi_1 there
    M = FLModule(W, [1], 1, {1: [[one]]}, {0: [[one]], 1: [[one]]})
    assert is_fl_module(M) == (False, "axiom2")
    assert not fl_criterion(M)


def test_fl_chain_violation():
    W = WittRing(3, 1, 1)
    one, zero = W.one(), W.zero()
    # Fil^2 contains e_2 which is not in Fil^1
    fil = {1: [[one, zero]], 2: [[zero, one]]}
    phi = {0: [[one, zero], [zero, one]], 1: [[zero, zero]],
           2: [[zero, zero]]}
    M = FLModule(W, [1, 1], 2, fil, phi)
    ok, why = is_fl_module(M)
    assert (ok, why) == (False, "axiom1-chain")


def test_fl_direct_sum_additive():
    W = WittRing(3, 1, 1)
    M = direct_sum(unit_fl(W), tate_fl(W))
    ok, why = is_fl_module(M)
    assert ok, why
    assert fl_criterion(M)
    B = fl_to_breuil(M)
    ok, why = is_breuil_module(B)
    assert ok, why
    # base change commutes with sums at the level of Fil spans
    Bsum = direct_sum(fl_to_breuil(unit_fl(W)),
                      fl_to_breuil(tate_fl(W)))
    assert spans_equal(B.fil_span(), Bsum.fil_span(), B.p, 1)


def _random_invertible(rng, g, p):
    A = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(3 * g):
        i, j = rng.randrange(g), rng.randrange(g)
        if i == j:
            continue
        c = rng.randrange(1, p)
        for k in range(g):
            A[i][k] = (A[i][k] + c * A[j][k]) % p
    return A


def _random_fl(rng, W, g, h, break_axiom=None, units=False):
    """Random FL module over W (n = 1) on a random basis; with units, each
    phi column is also scaled by a random unit of F_{p^m}."""
    p = W.p
    A = _random_invertible(rng, g, p)
    levels = [rng.randrange(h + 1) for _ in range(g)]
    c = [W.one()] * g
    if units:
        c = [W.elem([rng.randrange(1, p)] + [rng.randrange(p)
                                             for _ in range(W.m - 1)])
             for _ in range(g)]
    col = lambda t: [W.elem([A[s][t]]) * c[t] for s in range(g)]
    zero = [W.zero() for _ in range(g)]
    basis = lambda t: [W.one() if s == t else W.zero() for s in range(g)]
    fil = {i: [basis(t) for t in range(g) if levels[t] >= i]
           for i in range(1, h + 1)}
    phi = {i: [] for i in range(h + 1)}
    for i in range(h + 1):
        for t in range(g):
            if levels[t] >= i:
                phi[i].append(col(t) if levels[t] == i else list(zero))
    if break_axiom == 3:
        t = rng.randrange(g)
        idx = [s for s in range(g) if levels[s] >= levels[t]].index(t)
        phi[levels[t]][idx] = list(zero)
    if break_axiom == 2:
        # nonzero phi_i below the level of some generator
        cands = [t for t in range(g) if levels[t] > 0]
        if not cands:
            return None
        t = rng.choice(cands)
        i = rng.randrange(levels[t])
        idx = [s for s in range(g) if levels[s] >= i].index(t)
        phi[i][idx] = col(t)
    return FLModule(W, [1] * g, h, fil, phi)


def _criterion_modules(p):
    """20 random FL modules over F_p (seed 100 + p), with the axiom each
    breaks (None for a true FL module)."""
    rng = random.Random(100 + p)
    W = WittRing(p, 1, 1)
    out = []
    while len(out) < 20:
        g = rng.randrange(1, 3)
        h = rng.randrange(1, min(p - 1, 3) + 1)
        kind = rng.choice([None, None, 2, 3])
        M = _random_fl(rng, W, g, h, break_axiom=kind)
        if M is not None:
            out.append((M, kind))
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_fl_criterion_matches_axioms(p):
    for M, kind in _criterion_modules(p):
        ok, why = is_fl_module(M)
        assert ok == (kind is None), (p, M.g, M.h, kind, why)
        assert fl_criterion(M) == ok, (p, M.g, M.h, kind, why)


def test_cold_and_warm_rings_give_the_same_answers():
    # the criterion modules in order, then from empty ring caches in
    # reverse: each item sees tables built by other items, or none
    modules = [M for p in (3, 5) for M, _ in _criterion_modules(p)]
    answer = lambda M: (is_fl_module(M), fl_criterion(M))
    forward = [answer(M) for M in modules]
    keys = sorted({(M.p, M.h) for M in modules})
    ring = lambda p, h: DpRing(eisenstein_make(p, "explicit", [p, 1]), 1,
                               h=h)
    # the phi_i(gamma_j(E)) memo, by value (DpElem equality asks for the
    # identical ring)
    memo = lambda S: {k: (v.vec, v.prec) for k, v in S._phi_gamma.items()}
    warm = [ring(p, h) for p, h in keys]
    tables = [memo(S) for S in warm]
    assert all(tables)
    _witt_ring.cache_clear()
    _dp_ring.cache_clear()
    assert [answer(M) for M in reversed(modules)] == forward[::-1]
    cold = [ring(p, h) for p, h in keys]
    assert all(S is not T for S, T in zip(warm, cold))
    assert [memo(S) for S in warm] == tables
    assert [memo(S) for S in cold] == tables
    assert [{k: (S.phi_gamma(*k).vec, S.phi_gamma(*k).prec) for k in t}
            for S, t in zip(cold, tables)] == tables


def test_fl_projector_witnesses():
    W = WittRing(3, 1, 1)
    one, zero = W.one(), W.zero()
    M = direct_sum(tate_fl(W), unit_fl(W))
    # projector onto the first coordinate witnesses Fil^1 inside Fil^0
    M.projectors = {0: [[one, zero], [zero, zero]]}
    ok, why = is_fl_module(M)
    assert ok, why
    # a wrong projector (onto the second coordinate) is rejected
    M.projectors = {0: [[zero, zero], [zero, one]]}
    assert is_fl_module(M) == (False, "axiom1-projector")


# ---------------------------------------------------------------------------
# well-definedness on the graph span against the syzygy reference
# ---------------------------------------------------------------------------


def _breuil_syzygy_consistent(B):
    """Reference check: push every syzygy of the expanded Fil generators
    through their phi_h images and require the result to vanish mod p."""
    S = B.S
    xgen = S.ring.gen()
    cols = []
    for g, img in zip(B.fil_gens, B.phi_gens):
        for t in range(S.D):
            bt = S.elem([0] * t + [1])
            pb = S.phi(bt)
            for a in range(S.m):
                mult = bt.scale_w(xgen ** a)
                tw = pb.scale_w(S.ring.sigma(xgen ** a))
                cols.append((B.vec([mult * c for c in g]),
                             [tw * c for c in img]))
    K = factor([c[0] for c in cols], B.p, 1).kernel()
    for k in K:
        acc = [S.zero() for _ in range(B.r)]
        for c, (_, val) in zip(k, cols):
            if c:
                acc = [a + x * c for a, x in zip(acc, val)]
        if any(not x.reduce_prec(1).is_zero() for x in acc):
            return False
    return True


def _fl_syzygy_consistent(M, gens, images):
    """Reference check: every syzygy of the gens (modulo the relations)
    maps to zero in the module under the twisted images."""
    W = M.W
    xgen = W.gen()
    cols, vals = [], []
    for f, im in zip(gens, images):
        for j in range(M.m):
            cols.append(M.vec([c * xgen ** j for c in f]))
            tw = W.sigma(xgen ** j)
            vals.append([c * tw for c in im])
    rel = M.relation_rows()
    K = factor(cols + list(rel), M.p, W.n).kernel()
    for k in K:
        acc = [W.zero() for _ in range(M.g)]
        for c, val in zip(k[:len(cols)], vals):
            if c:
                acc = [a + v.scale(c) for a, v in zip(acc, val)]
        if not M.is_zero_in_module(acc):
            return False
    return True


@pytest.mark.parametrize("p", [3, 5])
def test_graph_check_matches_syzygy_reference(p):
    rng = random.Random(200 + p)
    W = WittRing(p, 1, 1)
    verdicts = set()
    done = 0
    while done < (16 if p == 3 else 8):
        g = rng.randrange(1, 3)
        h = rng.randrange(1, min(p - 1, 3) + 1)
        M = _random_fl(rng, W, g, h, break_axiom=rng.choice([None, 2, 3]))
        if M is None:
            continue
        for i in range(M.h + 1):
            gens, images = M.fil_gens(i), M.phi_images(i)
            assert (M.semilinear_consistent(gens, images)
                    == _fl_syzygy_consistent(M, gens, images))
        B = fl_to_breuil(M)
        ok = B.phi_h_consistent()
        assert ok == _breuil_syzygy_consistent(B), (p, g, h)
        verdicts.add(ok)
        done += 1
    assert verdicts == {True, False}


def test_fl_graph_check_with_relations():
    # W_2 = Z/9 acting on Z/9 + Z/3: a verdict can hinge on the relation
    # 3 e2 = 0 or on the Howell saturation 3 * (3 e1) = 0
    W = WittRing(3, 2, 1)
    e = lambda *cs: [W.elem([c]) for c in cs]
    M = FLModule(W, [2, 1], 0, {}, {0: [e(1, 0), e(0, 1)]})
    cases = [
        ([e(1, 0), e(0, 1)], [e(1, 0), e(3, 0)], True),
        ([e(1, 0), e(0, 1)], [e(1, 0), e(1, 0)], False),
        ([e(1, 0), e(0, 1)], [e(0, 1), e(0, 2)], True),
        ([e(3, 0)], [e(1, 0)], False),
        ([e(3, 0)], [e(3, 1)], True),
        ([e(3, 0), e(1, 0)], [e(3, 0), e(1, 0)], True),
        ([e(3, 0), e(1, 0)], [e(1, 0), e(1, 0)], False),
    ]
    for gens, images, expect in cases:
        assert M.semilinear_consistent(gens, images) is expect
        assert _fl_syzygy_consistent(M, gens, images) is expect
    # phi(3 e1) = 3 e1 is only defined on 3 W e1 + W e2
    with pytest.raises(Inconsistent):
        M.semilinear_apply([e(3, 0), e(0, 1)], [e(3, 0), e(0, 1)],
                           [e(1, 0)])


@pytest.mark.parametrize("p,m", [(2, 2), (3, 1)])
def test_fl_graph_check_random_relations(p, m):
    # random gens and images over W_2(F_{p^m}) with summands W/p: the
    # verdict matches the syzygy reference, and on consistent maps
    # semilinear_apply is sum sigma(a_k) phi(f_k) modulo the relations
    rng = random.Random(300 + p)
    W = WittRing(p, 2, m)
    rand = lambda: W.elem([p ** rng.randrange(3) * rng.randrange(W.q)
                           for _ in range(m)])
    verdicts = set()
    for _ in range(40):
        g = rng.randrange(1, 3)
        M = FLModule(W, [rng.choice([1, 2]) for _ in range(g)], 0, {},
                     {0: [[W.zero()] * g for _ in range(g)]})
        k = rng.randrange(1, 4)
        gens = [[rand() for _ in range(g)] for _ in range(k)]
        images = [[rand() for _ in range(g)] for _ in range(k)]
        ok = M.semilinear_consistent(gens, images)
        assert ok == _fl_syzygy_consistent(M, gens, images)
        verdicts.add(ok)
        if not ok:
            continue
        targets, wants = [], []
        for _ in range(2):
            a = [rand() for _ in range(k)]
            targets.append([sum((ak * f[t] for ak, f in zip(a, gens)),
                                W.zero()) for t in range(g)])
            wants.append([sum((W.sigma(ak) * im[t]
                               for ak, im in zip(a, images)), W.zero())
                          for t in range(g)])
        got = M.semilinear_apply(gens, images, targets)
        assert len(got) == 2
        for value, want in zip(got, wants):
            assert M.is_zero_in_module([x - y for x, y in zip(value, want)])
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the base-changed Fil^h against the all-Howell-rows reference
# ---------------------------------------------------------------------------


def ref_fl_to_breuil(M, eis=None, D=None):
    """fl_to_breuil with every Howell row of Fil^i S as a separate
    generator, not only the ideal generators gamma_j(E), and each
    W-coordinate boxed as a constant of S."""
    h = M.h
    if eis is None:
        eis = eisenstein_make(M.p, "explicit", [M.p, 1])
    S = DpRing(eis, 1, m=M.m, f=None if M.m == 1 else list(M.W.f),
               D=D, h=h)
    embed = lambda wv: [S.one().scale_w(S.ring.elem(list(c.coeffs)))
                        for c in wv]
    fil_gens, phi_gens = [], []
    for i in range(h + 1):
        if i == 0:
            s_list = [S.one()]
        else:
            s_list = [S.from_vec(row) for row in S.fil_span(i)]
        for s in s_list:
            fs = S.phi(s).divide_p(0) if i == 0 else s_phi_div(s, i)
            fs = fs.reduce_prec(1)
            sm = s.reduce_prec(1)
            for f, im in zip(M.fil_gens(h - i), M.phi_images(h - i)):
                fil_gens.append([sm * c for c in embed(f)])
                phi_gens.append([fs * c for c in embed(im)])
    nabla = [[S.zero() for _ in range(M.g)] for _ in range(M.g)]
    return BreuilModule(S, M.g, h, fil_gens, phi_gens, nabla=nabla)


def _outcome(f, *args):
    """The value of f(*args), or the name of the library error it raises."""
    try:
        return f(*args)
    except PrismalabError as exc:
        return type(exc).__name__


def test_fl_to_breuil_matches_all_rows_reference():
    # every (p, m, e) with the truncation D cycling through the default,
    # p*e + 1 and 2*p*e + 2, two random FL modules each, broken ones too
    rng = random.Random(14)
    verdicts, done = set(), 0
    cases = [(p, m, e) for p in (3, 5, 7) for m in (1, 2) for e in (1, 2)]
    for k, (p, m, e) in enumerate(cases):
        W = WittRing(p, 1, m)
        eis = eisenstein_make(p, "explicit", [p] + [0] * (e - 1) + [1])
        D = (None, p * e + 1, 2 * p * e + 2)[k % 3]
        for _ in range(2):
            M = None
            while M is None:
                M = _random_fl(rng, W, rng.randrange(1, 3),
                               rng.randrange(1, min(p - 1, 3) + 1),
                               break_axiom=rng.choice([None, 2, 3]),
                               units=True)
            B, R = fl_to_breuil(M, eis, D), ref_fl_to_breuil(M, eis, D)
            case = (p, m, e, D, M.g, M.h)
            assert B._fil_data() == R._fil_data(), case
            got = [B.phi_h_consistent(), B.phi_h_generates(),
                   _outcome(is_breuil_module, B)]
            assert got == [R.phi_h_consistent(), R.phi_h_generates(),
                           _outcome(is_breuil_module, R)], case
            assert fl_criterion(M, eis, D) == (got[0] and got[1]), case
            verdicts.add(got[2][0])
            done += 1
    assert done == 24
    assert verdicts == {True, False}


def ref_is_breuil_module(B):
    """is_breuil_module with its Fil^h S conditions run over every Howell
    row of S.fil_span(B.h), not only the ideal generators gamma_j(E)."""
    if B.r == 0:
        return True, None
    S = B.S
    p = B.p
    filS = S.fil_span(B.h)
    for i in range(B.r):
        for row in filS:
            g = S.from_vec(row, prec=1)
            v = [S.zero() for _ in range(B.r)]
            v[i] = g
            if not B.fil_contains(v):
                return False, "fil-contains-filS"
    if not B.phi_h_consistent():
        return False, "phi-not-well-defined"
    c1ih = (S.c1_inv() ** B.h).reduce_prec(1)
    Eh = S.from_int_poly(int_poly_pow(list(S.eis.int_coeffs), B.h))
    mids = [B.phi_h(B.scale_vector(Eh.reduce_prec(1), B.basis_vector(i)))
            for i in range(B.r)]
    for row in filS:
        s = S.from_vec(row, prec=1)
        fs = (c1ih * s_phi_div(s, B.h)).reduce_prec(1)
        for i in range(B.r):
            lhs = B.phi_h(B.scale_vector(s, B.basis_vector(i)))
            if any(not (a - fs * b).reduce_prec(1).is_zero()
                   for a, b in zip(lhs, mids[i])):
                return False, "functional-equation"
    if not B.phi_h_generates():
        return False, "generation"
    if B.nabla is not None:
        Eel = S.from_int_poly(list(S.eis.int_coeffs)).reduce_prec(1)
        upm1 = S.from_int_poly([0] * (p - 1) + [1]).reduce_prec(1)
        c1 = S.c1().reduce_prec(1)
        for g in B.fil_gens:
            ng = B.nabla_vector(g)
            Eng = B.scale_vector(Eel, ng)
            if not B.fil_contains(Eng):
                return False, "nabla-fil"
            lhs = [(c1 * c).reduce_prec(1)
                   for c in B.nabla_vector(B.phi_h(g))]
            rhs = [(upm1 * c).reduce_prec(1) for c in B.phi_h(Eng)]
            for a, b in zip(lhs, rhs):
                d = a - b
                if any(x % p for x in d.vec[:(S.D - 1) * S.m]):
                    return False, "nabla-square"
    return True, None


def _gamma_modules(S, h, rng):
    """Rank-1 modules on the ideal generators gamma_j(E) of Fil^h S with
    phi_h of the ring: all of them, one image scaled by a random c in
    F_p other than 0 and 1, and one generator dropped."""
    gens = [S.gamma(j) for j in S.fil_gamma_indices(h)]
    imgs = [s_phi_div(g, h) for g in gens]
    k, c = rng.randrange(len(gens)), rng.randrange(2, S.p)
    scaled = [im * c if t == k else im for t, im in enumerate(imgs)]
    keep = [t for t in range(len(gens)) if t != k]
    return [BreuilModule(S, 1, h, [[g] for g in gens], [[im] for im in imgs]),
            BreuilModule(S, 1, h, [[g] for g in gens],
                         [[im] for im in scaled]),
            BreuilModule(S, 1, h, [[gens[t]] for t in keep],
                         [[imgs[t]] for t in keep])]


def test_is_breuil_module_matches_all_rows_reference():
    # every (p, m, e) with D cycling as above: base changes of random FL
    # modules (broken phi and non-generating ones too) and modules on the
    # gamma_j(E), scaled and with one dropped
    rng = random.Random(15)
    seen = set()
    cases = [(p, m, e) for p in (3, 5, 7) for m in (1, 2) for e in (1, 2)]
    for k, (p, m, e) in enumerate(cases):
        W = WittRing(p, 1, m)
        eis = eisenstein_make(p, "explicit", [p] + [0] * (e - 1) + [1])
        D = (None, p * e + 1, 2 * p * e + 2)[k % 3]
        modules = []
        for kind in (None, 2, 3):
            M = None
            while M is None:
                M = _random_fl(rng, W, rng.randrange(1, 3),
                               rng.randrange(1, min(p - 1, 3) + 1),
                               break_axiom=kind, units=True)
            modules.append(fl_to_breuil(M, eis, D))
        h = min(p - 1, 3) if k % 2 else 1
        modules += _gamma_modules(DpRing(eis, 1, m=m, f=None if m == 1
                                         else list(W.f), D=D, h=h), h, rng)
        for B in modules:
            got = is_breuil_module(B)
            assert got == ref_is_breuil_module(B), (p, m, e, D, B.r, B.h)
            seen.add(got[1])
    assert seen == {None, "fil-contains-filS", "phi-not-well-defined",
                    "functional-equation", "generation"}


# ---------------------------------------------------------------------------
# generation on the residue field against the all-S-multiples reference
# ---------------------------------------------------------------------------


def ref_phi_h_generates(B):
    """phi_h_generates as the Howell span of every S-multiple of every
    phi_h image, compared with the F_p-dimension r D m of the module."""
    rows = [r for img in B.phi_gens for r in B.s_multiples(img)]
    return span_length(howell_form(rows, B.p, 1), B.p, 1) == B.dim


def _random_images(rng, S, r, k, planted):
    """k random vectors of S^r with coordinates mod p^{n_int}; planted,
    their b_0 slices are F_{p^m}-combinations of r - 1 fixed vectors, so
    they span no more than a hyperplane, while every higher coordinate
    stays random."""
    W, m, q = S.ring, S.m, S.q
    unit = lambda: W.elem([rng.randrange(q) for _ in range(m)])
    basis = [[unit() for _ in range(r)] for _ in range(r - 1)]
    out = []
    for _ in range(k):
        coef = [unit() for _ in basis]
        vec = []
        for t in range(r):
            tail = [rng.randrange(q) for _ in range(S.dim - m)]
            if planted:
                head = sum((c * w[t] for c, w in zip(coef, basis)),
                           W.zero()).coeffs
            else:
                head = unit().coeffs
            vec.append(S.from_vec(list(head) + tail, prec=1))
        out.append(vec)
    return out


def test_phi_h_generates_matches_all_multiples_reference():
    # every (p, m, e, D, r): random images (too few of them as well) and
    # planted ones with dependent b_0 slices, then residual modules and
    # base changes of random FL modules
    rng = random.Random(17)
    verdicts = {"random": set(), "planted": set(), "residual": set(),
                "fl": set()}
    for p in (3, 5, 7):
        for m in (1, 2):
            for e in (1, 2):
                eis = eisenstein_make(p, "explicit",
                                      [p] + [0] * (e - 1) + [1])
                for D in (None, p * e + 1, 2 * p * e + 2):
                    S = DpRing(eis, 1, m=m, f=None if m == 1 else list(
                        WittRing(p, 1, m).f), D=D, h=1)
                    for r in (1, 2, 3):
                        for kind in ("random", "planted"):
                            k = rng.randrange(1, r + 2)
                            imgs = _random_images(rng, S, r, k,
                                                  kind == "planted")
                            B = BreuilModule(S, r, 1, imgs, imgs)
                            got = B.phi_h_generates()
                            assert got == ref_phi_h_generates(B), (
                                p, m, e, D, r, kind, k)
                            verdicts[kind].add(got)
    for p, m, d in [(3, 1, 1), (3, 1, 2), (3, 2, 1), (5, 1, 2), (5, 2, 2),
                    (7, 1, 3)]:
        for D in (None, p + 1, 2 * p + 2):
            V = EtalePhiModule(p, m, d, _random_invertible(rng, d, p))
            B = residual_module(V, 1, D=D).breuil
            got = B.phi_h_generates()
            assert got == ref_phi_h_generates(B), (p, m, d, D)
            verdicts["residual"].add(got)
    for k, (p, m, e) in enumerate([(p, m, e) for p in (3, 5, 7)
                                   for m in (1, 2) for e in (1, 2)]):
        W = WittRing(p, 1, m)
        eis = eisenstein_make(p, "explicit", [p] + [0] * (e - 1) + [1])
        D = (None, p * e + 1, 2 * p * e + 2)[k % 3]
        for kind in (None, 3):
            M = _random_fl(rng, W, rng.randrange(1, 4),
                           rng.randrange(1, min(p - 1, 3) + 1),
                           break_axiom=kind, units=True)
            B = fl_to_breuil(M, eis, D)
            got = B.phi_h_generates()
            assert got == ref_phi_h_generates(B), (p, m, e, D, M.g, M.h)
            verdicts["fl"].add(got)
    assert verdicts == {"random": {True, False}, "planted": {False},
                        "residual": {True}, "fl": {True, False}}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_levels_at_and_above_p_are_refused(p):
    # phi_h needs h <= p - 1, and Fil^r S is modelled only up to r = p
    W = WittRing(p, 1, 1)
    one, zero = W.one(), W.zero()
    for h in (p - 1, p, p + 1):
        tate_h = FLModule(W, [1], h, {i: [[one]] for i in range(1, h + 1)},
                          {i: [[one if i == h else zero]]
                           for i in range(h + 1)})
        for M in (unit_fl(W, h), tate_h):
            if h == p - 1:
                assert fl_criterion(M)
                continue
            with pytest.raises(InputError, match=re.escape(
                    "filtration level must satisfy 0 <= i <= p-1")):
                fl_criterion(M)
    S = dp_ring(p, 1)
    assert S.fil_span(p)
    for call in (S.fil_span, S.fil_gamma_indices):
        with pytest.raises(InputError,
                           match="filtration levels above p are not modelled"):
            call(p + 1)


# ---------------------------------------------------------------------------
# Breuil modules of height-h Kisin modules, built directly
# ---------------------------------------------------------------------------


def _fil_gammas(S, i):
    """(gamma_j(E) mod p, phi_i(gamma_j(E)) mod p) for the ideal generators
    of Fil^i S."""
    return [(S.gamma(j).reduce_prec(1), S.phi_gamma(j, i))
            for j in S.fil_gamma_indices(i)]


def test_kisin_rank_one_unit_and_tate():
    # the base changes of the rank-one Kisin modules over E = u + 3 at
    # h = 1 and D = 8, with phi(e) = nu e: Fil = {x : nu x in Fil^1 S}
    # and phi_1(x e) = phi(nu x) / p
    p = 3
    S = dp_ring(p, 1, D=8)
    # phi(e) = e: the filtration is Fil^1 S itself, on its ideal generators
    gens = _fil_gammas(S, 1)
    B = BreuilModule(S, 1, 1, [[g] for g, _ in gens],
                     [[f] for _, f in gens])
    ok, why = is_breuil_module(B)
    assert ok, why
    T = tate_breuil(S, 1)
    assert spans_equal(B.fil_span(), T.fil_span(), p, 1)
    # phi(e) = E e: every element already maps into E M, so the
    # filtration is the whole module, with phi_1(1) = phi(E)/p = c1
    B = BreuilModule(S, 1, 1, [[S.one()]], [[S.c1().reduce_prec(1)]])
    ok, why = is_breuil_module(B)
    assert ok, why
    assert span_length(B.fil_span(), p, 1) == B.dim


def test_kisin_rank_two():
    # phi = [[0, E], [1, 0]] at h = 2: Fil = Fil^2 S (+) Fil^1 S, where
    # phi_2(a, 0) = (0, phi_2(a)) and phi_2(0, b) = (phi_2(E b), 0)
    S = dp_ring(3, 2, D=8)
    E = S.from_int_poly(list(S.eis.int_coeffs))
    z = S.zero()
    fil = [[g, z] for g, _ in _fil_gammas(S, 2)]
    img = [[z, f] for _, f in _fil_gammas(S, 2)]
    for g, _ in _fil_gammas(S, 1):
        fil.append([z, g])
        img.append([s_phi_div(E * g, 2).reduce_prec(1), z])
    B = BreuilModule(S, 2, 2, fil, img)
    ok, why = is_breuil_module(B)
    assert ok, why


# ---------------------------------------------------------------------------
# residual modules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_residual_unramified_rank_one(p):
    V = EtalePhiModule(p, 1, 1, [[1]])
    R = residual_module(V, 1)
    ok, why = is_breuil_module(R.breuil)
    assert ok, why
    out = unramified_realization(R, 8)
    assert out["dimension"] == 1


def test_residual_rank_two_and_realization():
    # phi swaps a basis of V over F_3; fixed points need F_9
    p = 3
    V = EtalePhiModule(p, 1, 2, [[0, 2], [1, 0]])
    R = residual_module(V, 1)
    ok, why = is_breuil_module(R.breuil)
    assert ok, why
    out = unramified_realization(R, 8)
    assert out["dimension"] == 2


def test_residual_stable_under_larger_truncation():
    p = 3
    V = EtalePhiModule(p, 1, 2, [[1, 1], [0, 1]])
    for D in (None, 12):
        R = residual_module(V, 1, D=D)
        ok, why = is_breuil_module(R.breuil)
        assert ok, (D, why)


def test_residual_bad_ramification():
    V = EtalePhiModule(3, 1, 1, [[1]])
    with pytest.raises(BadRamification):
        residual_module(V, 4)


def test_residual_higher_e_zero_branch():
    # e > 1: the divided Frobenius kills the boundary generator, so only
    # the length data remains
    V = EtalePhiModule(5, 1, 1, [[1]])
    R = residual_module(V, 2)
    assert R.breuil is None and R.h == 2
    info = R.length_check()
    # oracle: kernel of u^p on the truncated ring, minus the unfaithful
    # top p coordinates which are killed by truncation alone
    S = R.S
    up = S.from_int_poly([0] * S.p + [1])
    A = S.mult_matrix(up)
    K = factor([list(c) for c in zip(*A)], S.p, 1).kernel()
    assert len(K) - S.p * S.m == info["torsion_per_rank"]
    with pytest.raises(BadRamification):
        unramified_realization(R, 4)


def test_residual_quadratic_coefficients():
    # m = 2: the realization dimension is m * dim V
    p = 3
    V = EtalePhiModule(p, 2, 1, [[[0, 1]]])
    R = residual_module(V, 1)
    ok, why = is_breuil_module(R.breuil)
    assert ok, why
    out = unramified_realization(R, 10)
    assert out["dimension"] == 2
