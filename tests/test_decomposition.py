import random

import pytest
from hypothesis import given, strategies as st

from prismalab.breuil_fl import FLModule, kisin_to_breuil
from prismalab.decomposition import (
    SplitResult, _ceil_log, check_split_compat, fitting_conditions,
    mult_section, split_breuil, split_fl, split_phi_module,
)
from prismalab.errors import NotFL, NotKilledByP
from prismalab.linalg_residue import in_span, kernel_solve
from prismalab.phi_modules import KisinModule, PhiModule
from prismalab.series_rings import DpRing, SeriesElem, eisenstein_make
from prismalab.witt_base import WittRing


def series(W, ints, N=None):
    return SeriesElem.from_ints(W, ints, N=N)


def u_kill_module(W, phi_ints, b):
    """g x g phi matrix from integer polynomials, killed by u^b."""
    g = len(phi_ints)
    z = series(W, [])
    rel = []
    for i in range(g):
        col = [z] * g
        col[i] = SeriesElem.u_pow(W, b)
        rel.append(col)
    phi = [[series(W, e) for e in row] for row in phi_ints]
    return PhiModule(W, g, rel, phi, killed_by=(W.n, b))


def test_ceil_log_is_exact_in_integers():
    # the float math.ceil(math.log(125, 5)) reads 4
    assert _ceil_log(125, 5) == 3
    for p in (2, 3, 5, 7, 13):
        for b in range(1, 700):
            k = _ceil_log(b, p)
            assert p ** k >= b and (k == 0 or p ** (k - 1) < b), (b, p)


# ---------------------------------------------------------------------------
# sections of phi modules
# ---------------------------------------------------------------------------


def test_section_diagonal_unit_is_exact():
    W = WittRing(3, 1, 1)
    M = u_kill_module(W, [[[1], []], [[], [0, 1]]], 9)
    basis, images, _ = mult_section(M)
    assert len(images) == 1
    col = M.model().to_column(images[0])
    assert (col[0] - series(W, [1])).is_zero()
    assert col[1].is_zero()


@given(st.sampled_from([2, 3]), st.integers(1, 2), st.integers(1, 2),
       st.integers(1, 4), st.data())
def test_split_lengths_add_up(p, n, g, b, data):
    W = WittRing(p, n, 1)
    poly = st.lists(st.integers(0, W.q - 1), max_size=3)
    M = u_kill_module(W, [[data.draw(poly) for _ in range(g)]
                          for _ in range(g)], b)
    res = split_phi_module(M)
    assert res.M_mult.length() + res.M_nilp.length() == M.length()
    assert fitting_conditions(res) == (True, True)


def test_section_frozen_unipotent_example():
    W = WittRing(2, 1, 1)
    M = u_kill_module(W, [[[1], []], [[0, 1], [0, 1]]], 9)
    basis, images, _ = mult_section(M)
    assert len(images) == 1
    col = M.model().to_column(images[0])
    assert (col[0] - series(W, [1])).is_zero()
    assert (col[1] - series(W, [0, 1, 0, 1, 0, 0, 0, 1])).is_zero()
    # phi-equivariance: phi(section) = section in the model
    mdl = M.model()
    assert mdl.phi_vec(images[0]) == images[0]


def test_section_empty_for_nilpotent():
    W = WittRing(3, 1, 1)
    M = u_kill_module(W, [[[0, 1], []], [[], [0, 0, 1]]], 9)
    basis, images, _ = mult_section(M)
    assert images == []


def test_section_unique_under_randomized_lifts():
    W = WittRing(2, 2, 1)
    M = u_kill_module(W, [[[1, 1], []], [[0, 1], [0, 2]]], 8)
    ref = mult_section(M)[1]
    for seed in range(5):
        assert mult_section(M, rng=random.Random(seed))[1] == ref


def test_split_diag_example():
    W = WittRing(3, 1, 1)
    M = u_kill_module(W, [[[1], []], [[], [0, 1]]], 9)
    res = split_phi_module(M)
    assert res.M_mult.length() + res.M_nilp.length() == M.length()
    assert res.M_mult.length() == 9  # one k[[u]]/u^9 line


def test_split_whole_module_multiplicative():
    # single generator, phi(g) = g, killed by (p, u)
    W = WittRing(3, 1, 1)
    M = u_kill_module(W, [[[1]]], 1)
    res = split_phi_module(M)
    assert res.M_mult.length() == M.length() == 1
    assert res.M_nilp.length() == 0


def random_module(rng, W, gmax=2):
    g = rng.randrange(1, gmax + 1)
    b = rng.choice([4, 8])
    phi = [[[rng.randrange(W.q) for _ in range(rng.randrange(4))]
            for _ in range(g)] for _ in range(g)]
    return u_kill_module(W, phi, b)


@pytest.mark.parametrize("n", [1, 2])
def test_seeded_splits_exact_and_idempotent(n):
    W = WittRing(2, n, 1)
    rng = random.Random(42 + n)
    for _ in range(12):
        M = random_module(rng, W)
        res = split_phi_module(M)
        assert res.M_mult.length() + res.M_nilp.length() == M.length()
        again = split_phi_module(res.M_mult)
        assert again.M_nilp.length() == 0
        assert again.M_mult.length() == res.M_mult.length()
        nil = split_phi_module(res.M_nilp)
        assert nil.M_mult.length() == 0


def _random_phi_map(rng, M, Mp):
    """A random constant-matrix map M -> Mp commuting with phi."""
    mdlp = Mp.model()
    g, gp = M.g, Mp.g
    nf = gp * g
    conditions = []
    # each condition: a model vector of Mp, linear in the f entries,
    # required to lie in the relation span of Mp
    for j in range(g):
        cols = [[0] * mdlp.dim for _ in range(nf)]
        for i in range(gp):
            for k in range(g):
                # f[i][k] multiplies Phi[k][j] placed in coordinate i
                v = mdlp.vec([M.phi[k][j] if s == i else
                              SeriesElem.from_ints(M.ring, [])
                              for s in range(gp)])
                for r in range(mdlp.dim):
                    cols[i * g + k][r] += v[r]
            for l in range(gp):
                v = mdlp.vec([Mp.phi[i2][l] if i2 == i2 else None
                              for i2 in range(gp)])
        # minus Phi' f: f[l][j] multiplies column l of Phi'
        for l in range(gp):
            v = mdlp.vec([Mp.phi[i2][l] for i2 in range(gp)])
            for r in range(mdlp.dim):
                cols[l * g + j][r] -= v[r]
        conditions.append(cols)
    for col in M.relations:
        cols = [[0] * mdlp.dim for _ in range(nf)]
        for i in range(gp):
            for k in range(g):
                v = mdlp.vec([col[k] if s == i else
                              SeriesElem.from_ints(M.ring, [])
                              for s in range(gp)])
                for r in range(mdlp.dim):
                    cols[i * g + k][r] += v[r]
        conditions.append(cols)
    H = mdlp.H
    rows = []
    naux = len(conditions) * len(H)
    for ci, cols in enumerate(conditions):
        for r in range(mdlp.dim):
            line = [c[r] % mdlp.q for c in cols] + [0] * naux
            for hi, h in enumerate(H):
                line[nf + ci * len(H) + hi] = (-h[r]) % mdlp.q
            rows.append(line)
    K, _ = kernel_solve(rows, None, mdlp.p, mdlp.nexp)
    if not K:
        return None
    f = [0] * nf
    for k in K:
        c = rng.randrange(mdlp.q)
        for idx in range(nf):
            f[idx] = (f[idx] + c * k[idx]) % mdlp.q
    return [[f[i * g + k] for k in range(g)] for i in range(gp)]


def test_functoriality_of_split():
    W = WittRing(2, 1, 1)
    rng = random.Random(7)
    checked = 0
    while checked < 20:
        M = random_module(rng, W)
        Mp = random_module(rng, W)
        if M.N != Mp.N:
            continue
        f = _random_phi_map(rng, M, Mp)
        if f is None or all(all(c == 0 for c in row) for row in f):
            continue
        resM = split_phi_module(M)
        resP = split_phi_module(Mp)
        mdlp = Mp.model()
        # span of the image of M'_mult inside M'
        rows = list(mdlp.H)
        for col in resP.inclusion:
            rows.extend(mdlp.column_rows(list(col)))
        from prismalab.linalg_residue import howell_form
        span, _ = howell_form(rows, mdlp.p, mdlp.nexp)
        for col in resM.inclusion:
            img = [sum((col[k].scale(f[i][k]) for k in range(M.g)),
                       SeriesElem.from_ints(W, [])).truncate(Mp.N)
                   for i in range(Mp.g)]
            v = mdlp.vec(img)
            assert in_span(span, v, mdlp.p, mdlp.nexp)
        checked += 1


# ---------------------------------------------------------------------------
# Breuil splits
# ---------------------------------------------------------------------------


def _rank_one_breuil(p, mult, D=8):
    W = WittRing(p, 1, 1)
    E = eisenstein_make(p, "explicit", [p, 1])
    one = series(W, [1])
    if mult:
        M = PhiModule(W, 1, [], [[one]])
        psi = [[E.series(W)]]
    else:
        M = PhiModule(W, 1, [], [[E.series(W)]])
        psi = [[one]]
    return kisin_to_breuil(KisinModule(M, 1, psi, E), 1, D=D)


def test_split_breuil_rank_one():
    B = _rank_one_breuil(3, True)
    res = split_breuil(B)
    assert res.M_mult["length"] == B.dim and res.M_nilp["length"] == 0
    assert res.certificate["fil_compatible"]
    B = _rank_one_breuil(3, False)
    res = split_breuil(B)
    assert res.M_mult["length"] == 0 and res.M_nilp["length"] == B.dim


def test_split_breuil_sum_and_canonicity():
    Bm = _rank_one_breuil(3, True)
    Bn = _rank_one_breuil(3, False)
    B = Bm.direct_sum(Bn)
    resm = split_breuil(Bm)
    alt = [list(v) + [Bn.S.zero()] for v in resm.M_mult["generators"]]
    res = split_breuil(B, alternative=alt)
    assert res.M_mult["length"] == Bm.dim
    assert res.M_nilp["length"] == Bn.dim
    assert res.certificate["canonical"]
    # a wrong alternative (the nilpotent line) is rejected
    res2 = split_breuil(B, alternative=[[Bm.S.zero(), Bn.S.one()]])
    assert res2.certificate["canonical"] is False


def test_split_breuil_needs_mod_p():
    from prismalab.breuil_fl import BreuilModule
    p = 3
    E = eisenstein_make(p, "explicit", [p, 1])
    S = DpRing(E, 2, h=1, D=8)
    B = BreuilModule(S, 1, 1, [[S.from_int_poly(list(E.int_coeffs))]],
                     [[S.c1()]])
    with pytest.raises(NotKilledByP):
        split_breuil(B)


# ---------------------------------------------------------------------------
# filtered W-module splits and compatibility
# ---------------------------------------------------------------------------


def _unit_fl(W):
    return FLModule(W, [1], 1, {}, {0: [[W.one()]]})


def _tate_fl(W):
    return FLModule(W, [1], 1, {1: [[W.one()]]},
                    {0: [[W.zero()]], 1: [[W.one()]]})


def test_split_fl_examples():
    W = WittRing(3, 1, 1)
    res = split_fl(_unit_fl(W))
    assert res.M_mult.g == 1 and res.M_nilp.g == 0
    res = split_fl(_tate_fl(W))
    assert res.M_mult.g == 0 and res.M_nilp.g == 1
    res = split_fl(_unit_fl(W).direct_sum(_tate_fl(W)))
    assert res.M_mult.g == 1 and res.M_nilp.g == 1
    assert res.M_mult.module_length() + res.M_nilp.module_length() == 2


def test_split_fl_rejects_bad_module():
    W = WittRing(3, 1, 1)
    M = FLModule(W, [1], 1, {1: [[W.one()]]},
                 {0: [[W.zero()]], 1: [[W.zero()]]})
    with pytest.raises(NotFL):
        split_fl(M)


def test_split_fl_quotient_nilpotent():
    W = WittRing(3, 1, 1)
    M = _unit_fl(W).direct_sum(_tate_fl(W))
    res = split_fl(M)
    Q = res.M_nilp
    # phi_0 on the quotient is nilpotent: iterating kills everything
    for x in Q.phi_images(0):
        cur = list(x)
        for _ in range(Q.g * Q.m + 1):
            nxt = [W.zero()] * Q.g
            for t in range(Q.g):
                if cur[t].is_zero():
                    continue
                sa = W.sigma(cur[t])
                img = Q.phi_images(0)[t]
                nxt = [a + b * sa for a, b in zip(nxt, img)]
            cur = nxt
        assert all(c.is_zero() for c in cur)


def test_check_split_compat():
    W3 = WittRing(3, 1, 1)
    assert check_split_compat(_unit_fl(W3))
    assert check_split_compat(_tate_fl(W3))
    assert check_split_compat(_unit_fl(W3).direct_sum(_tate_fl(W3)))
