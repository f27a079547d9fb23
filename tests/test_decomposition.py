import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from prismalab.breuil_fl import (
    FLModule, fl_to_breuil, is_fl_module, kisin_to_breuil,
)
from prismalab.decomposition import (
    SplitResult, _ceil_log, _fil_compat, check_split_compat,
    fitting_conditions, mult_section, split_breuil, split_fl,
    split_phi_module,
)
from prismalab.errors import InputError, NotFL, NotKilledByP
from prismalab.linalg_residue import (
    howell_form, in_span, kernel_solve, span_length, spans_equal,
)
from prismalab.phi_modules import KisinModule, PhiModule
from prismalab.series_rings import (
    DpRing, SeriesElem, eisenstein_make, int_poly_pow,
)
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


# ---------------------------------------------------------------------------
# reference: the boxed Gauss-Jordan over F_{p^m} and the mod-p splits built
# on it, kept verbatim up to names
# ---------------------------------------------------------------------------


def _f_echelon(rows, W):
    """Reduced row echelon over the field W; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    out, pivots = [], []
    width = len(rows[0]) if rows else 0
    for c in range(width):
        piv = next((r for r in rows
                    if all(x.is_zero() for x in r[:c]) and r[c].is_unit()),
                   None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = piv[c].inv()
        piv = [x * inv for x in piv]
        rows = [[x - r[c] * y for x, y in zip(r, piv)] for r in rows]
        out = [[x - r[c] * y for x, y in zip(r, piv)] for r in out]
        out.append(piv)
        pivots.append(c)
    return out, pivots


def _f_reduce(v, ech, pivots):
    v = list(v)
    for row, c in zip(ech, pivots):
        if not v[c].is_zero():
            v = [x - v[c] * y for x, y in zip(v, row)]
    return v


def _f_coords(v, ech, pivots):
    """Coefficients of v on the echelon rows; None if not in the span."""
    coeffs = []
    v = list(v)
    for row, c in zip(ech, pivots):
        coeffs.append(v[c])
        v = [x - v[c] * y for x, y in zip(v, row)]
    if any(not x.is_zero() for x in v):
        return None
    return coeffs


def ref_split_breuil(B, alternative=None):
    """Fitting split along the I_+-reduction of the recovered Frobenius."""
    S = B.S
    if S.n_user != 1:
        raise NotKilledByP("the Breuil split works on the mod-p layer")
    p, r = B.p, B.r
    Eh = S.from_int_poly(int_poly_pow(list(S.eis.int_coeffs), B.h))
    c1ih = (S.c1_inv() ** B.h).reduce_prec(1)
    Fcols = []
    for i in range(r):
        v = B.scale_vector(Eh.reduce_prec(1), B.basis_vector(i))
        Fcols.append([(c1ih * c).reduce_prec(1) for c in B.phi_h(v)])

    def apply_phi(v):
        acc = [S.zero().reduce_prec(1) for _ in range(r)]
        for i in range(r):
            s = v[i]
            if s.reduce_prec(1).is_zero():
                continue
            fs = S.phi(s)
            acc = [a + fs * c for a, c in zip(acc, Fcols[i])]
        return [a.reduce_prec(1) for a in acc]

    W1 = WittRing(p, 1, S.m, list(S.ring.f) if S.m > 1 else None)
    const = lambda v: [W1.elem([a % p for a in c.vec[:S.m]]) for c in v]

    def apply_bar(wv):
        # semilinear reduction of the Frobenius to S/I_+ = W_1^r
        acc = [W1.zero() for _ in range(r)]
        for i in range(r):
            a = wv[i]
            if a.is_zero():
                continue
            sa = W1.sigma(a)
            col = const(Fcols[i])
            acc = [x + y * sa for x, y in zip(acc, col)]
        return acc

    cur, _ = _f_echelon([apply_bar([W1.one() if k == i else W1.zero()
                                    for k in range(r)])
                         for i in range(r)], W1)
    while True:
        nxt, _ = _f_echelon([apply_bar(row) for row in cur], W1)
        if len(nxt) == len(cur):
            break
        cur = nxt
    ell = max(1, _ceil_log(S.D, p)) + 1

    def power_bar(wv, k):
        for _ in range(k):
            wv = apply_bar(wv)
        return wv

    cols = [power_bar(row, ell) for row in cur]
    images = []
    for xbar in cur:
        coeffs = _solve_field([list(c) for c in cols], xbar, W1)
        y = [W1.zero() for _ in range(r)]
        for c, row in zip(coeffs, cur):
            y = [a + b * c for a, b in zip(y, row)]
        v = [S.one().scale_w(S.ring.elem(list(c.coeffs))) for c in y]
        for _ in range(ell):
            v = apply_phi(v)
        images.append(v)
    rows = []
    for v in images:
        rows.extend(B.s_multiples(v))
    mult_span, _ = howell_form(rows, p, 1) if rows else ([], None)
    mult_len = span_length(mult_span, p, 1)
    nilp_len = B.dim - mult_len
    cert = {"canonical": None, "fil_compatible": _fil_compat(B, mult_span,
                                                             images)}
    if alternative is not None:
        alt = []
        for v in alternative:
            w = [c.reduce_prec(1) for c in v]
            for _ in range(ell):
                w = apply_phi(w)
            alt.append(w)
        arows = []
        for v in alt:
            arows.extend(B.s_multiples(v))
        aspan, _ = howell_form(arows, p, 1) if arows else ([], None)
        cert["canonical"] = spans_equal(aspan, mult_span, p, 1)
    return SplitResult(
        {"generators": images, "span": mult_span, "length": mult_len},
        {"length": nilp_len}, section=cur, inclusion=images,
        certificate=cert)


def _solve_field(cols, target, W):
    """Coefficients over the field W with sum c_k cols_k = target."""
    r = len(target)
    rows = [list(col) + [W.zero()] * len(cols) for col in cols]
    for k in range(len(cols)):
        rows[k][r + k] = W.one()
    ech, piv = _f_echelon(rows, W)
    v = list(target) + [W.zero()] * len(cols)
    red = _f_reduce(v, ech, piv)
    if any(not x.is_zero() for x in red[:r]):
        raise InputError("target outside the span")
    return [-x for x in red[r:]]


def ref_split_fl(M):
    ok, why = is_fl_module(M)
    if not ok:
        raise NotFL(why)
    W = M.W
    if W.n != 1:
        raise InputError("the filtered split works on the mod-p layer")
    g = M.g
    phi0 = M.phi_images(0)

    def apply0(v):
        acc = [W.zero() for _ in range(g)]
        for t in range(g):
            a = v[t]
            if a.is_zero():
                continue
            sa = W.sigma(a)
            acc = [x + y * sa for x, y in zip(acc, phi0[t])]
        return acc

    cur, piv = _f_echelon([list(phi0[t]) for t in range(g)], W)
    while True:
        nxt, npiv = _f_echelon([apply0(row) for row in cur], W)
        if len(nxt) == len(cur):
            break
        cur, piv = nxt, npiv
    rank = len(cur)
    # multiplicative part: phi_0 restricted to the stable rows
    phi0_sub = []
    for row in cur:
        coeffs = _f_coords(apply0(row), cur, piv)
        phi0_sub.append(coeffs)
    M_mult = FLModule(W, [1] * rank, M.h, {},
                      {0: [list(c) for c in phi0_sub]})
    # quotient on the non-pivot coordinates
    qcoords = [c for c in range(g) if c not in piv]

    def project(v):
        red = _f_reduce(v, cur, piv)
        return [red[c] for c in qcoords]

    basis = lambda t: [W.one() if s == t else W.zero() for s in range(g)]
    phi_n = {0: [project(apply0(basis(t))) for t in qcoords]}
    fil_n = {}
    for i in range(1, M.h + 1):
        fil_n[i] = [project(list(v)) for v in M.fil_gens(i)]
        phi_n[i] = [project(list(v)) for v in M.phi_images(i)]
    M_nilp = FLModule(W, [1] * len(qcoords), M.h, fil_n, phi_n)
    proj_matrix = [project(basis(t)) for t in range(g)]
    return SplitResult(M_mult, M_nilp, section=[list(r) for r in cur],
                       inclusion=[list(r) for r in cur],
                       projection=proj_matrix)


def ref_check_split_compat(M, eis=None, D=None):
    """Base change to the divided-power ring commutes with the split."""
    B = fl_to_breuil(M, eis=eis, D=D)
    res_b = ref_split_breuil(B)
    res_f = ref_split_fl(M)
    S = B.S
    rows = []
    for wrow in res_f.section:
        v = [S.one().scale_w(S.ring.elem(list(c.coeffs))) for c in wrow]
        rows.extend(B.s_multiples(v))
    hs, _ = howell_form(rows, B.p, 1) if rows else ([], None)
    return spans_equal(hs, res_b.M_mult["span"], B.p, 1)


def _fl_case(p, m, g, k, entries):
    """The FL module at h = 1 with phi_0 = A on e_1..e_k and 0 on the rest,
    Fil^1 = <e_{k+1}..e_g> and phi_1 = A there, or None if it is not one."""
    W = WittRing(p, 1, m)
    A = [[W.elem(entries[(t * g + s) * m:(t * g + s + 1) * m])
          for s in range(g)] for t in range(g)]
    phi0 = [A[t] if t < k else [W.zero()] * g for t in range(g)]
    fil1 = [[W.one() if s == t else W.zero() for s in range(g)]
            for t in range(k, g)]
    M = FLModule(W, [1] * g, 1, {1: fil1}, {0: phi0, 1: A[k:]})
    return M if is_fl_module(M)[0] else None


@st.composite
def fl_modules(draw, p, m, g):
    k = draw(st.integers(0, g))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=g * g * m,
                            max_size=g * g * m))
    M = _fl_case(p, m, g, k, entries)
    assume(M is not None)
    return M


FL_CASES = [(p, m, g) for p in (2, 3, 5) for m in (1, 2, 3) for g in range(4)]


def _fl_fields(F):
    return F.divisors, F.h, F.fil, F.phi


@pytest.mark.parametrize("p, m, g", FL_CASES)
@settings(max_examples=3)
@given(st.data())
def test_split_fl_equals_the_field_engine(p, m, g, data):
    M = data.draw(fl_modules(p, m, g))
    new, ref = split_fl(M), ref_split_fl(M)
    assert _fl_fields(new.M_mult) == _fl_fields(ref.M_mult)
    assert _fl_fields(new.M_nilp) == _fl_fields(ref.M_nilp)
    assert new.section == ref.section
    assert new.inclusion == ref.inclusion
    assert new.projection == ref.projection


@pytest.mark.parametrize("p, m, g", FL_CASES)
@settings(max_examples=2)
@given(st.data())
def test_split_breuil_equals_the_field_engine(p, m, g, data):
    M = data.draw(fl_modules(p, m, g))
    B = fl_to_breuil(M)
    new, ref = split_breuil(B), ref_split_breuil(B)
    for key in ("span", "length"):
        assert new.M_mult[key] == ref.M_mult[key]
    assert new.M_nilp == ref.M_nilp
    assert new.certificate == ref.certificate
    assert new.section == ref.section
    if m == 1:
        flat = lambda gens: [[(c.vec, c.prec) for c in v] for v in gens]
        assert (flat(new.M_mult["generators"])
                == flat(ref.M_mult["generators"]))
    assert check_split_compat(M) == ref_check_split_compat(M)


@pytest.mark.parametrize("p", [2, 3])
def test_split_breuil_generators_reduce_to_the_section(p):
    # the section solve was F_{p^m}-linear in a sigma^ell-semilinear map,
    # so at m > 1 the generators did not reduce mod I_+ to their rows
    W = WittRing(p, 1, 2)
    for c in W.elements():
        if c.is_zero():
            continue
        B = fl_to_breuil(FLModule(W, [1], 1, {}, {0: [[c]]}))
        res = split_breuil(B)
        assert len(res.section) == 1
        for gen, row in zip(res.M_mult["generators"], res.section):
            assert ([tuple(a % p for a in s.vec[:W.m]) for s in gen]
                    == [w.coeffs for w in row]), c
