import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from prismalab.breuil_fl import FLModule, fl_to_breuil, is_fl_module
from prismalab.decomposition import (
    _ceil_log, fitting_conditions, mult_section, split_phi_module,
)
from prismalab.linalg_residue import (
    factor, howell_form, in_span, span_length, spans_equal,
)
from prismalab.phi_modules import PhiModule
from prismalab.series_rings import SeriesElem, int_poly_pow
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
    K = factor([list(c) for c in zip(*rows)], mdlp.p, mdlp.nexp).kernel()
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
        span = howell_form(rows, mdlp.p, mdlp.nexp)
        for col in resM.inclusion:
            img = [sum((col[k].scale(f[i][k]) for k in range(M.g)),
                       SeriesElem.from_ints(W, [])).truncate(Mp.N)
                   for i in range(Mp.g)]
            v = mdlp.vec(img)
            assert in_span(span, v, mdlp.p, mdlp.nexp)
        checked += 1


# ---------------------------------------------------------------------------
# FL modules and their Breuil base change against the boxed Gauss-Jordan
# over F_{p^m}: the Fitting core above splits M/uM for the phi module whose
# Frobenius is phi_0, and its section, base-changed to S, spans the
# multiplicative part that the field engine finds on fl_to_breuil(M)
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


def _solve_field(cols, target, W):
    """Coefficients over the field W with sum c_k cols_k = target."""
    r = len(target)
    rows = [list(col) + [W.zero()] * len(cols) for col in cols]
    for k in range(len(cols)):
        rows[k][r + k] = W.one()
    ech, piv = _f_echelon(rows, W)
    v = list(target) + [W.zero()] * len(cols)
    red = _f_reduce(v, ech, piv)
    assert all(x.is_zero() for x in red[:r]), "target outside the span"
    return [-x for x in red[r:]]


def _f_stable(apply, rows, W):
    """Echelon rows of the span where the iterated images of apply settle."""
    cur, _ = _f_echelon(rows, W)
    while True:
        nxt, _ = _f_echelon([apply(row) for row in cur], W)
        if len(nxt) == len(cur):
            return cur
        cur = nxt


def ref_fl_section(M):
    """Rows over F_{p^m} spanning the stable image of phi_0 of M."""
    W, g = M.W, M.g
    phi0 = M.phi_images(0)

    def apply0(v):
        acc = [W.zero() for _ in range(g)]
        for t in range(g):
            if not v[t].is_zero():
                sa = W.sigma(v[t])
                acc = [x + y * sa for x, y in zip(acc, phi0[t])]
        return acc

    return _f_stable(apply0, [list(r) for r in phi0], W)


def ref_split_breuil(B):
    """Fitting split along the I_+-reduction of the recovered Frobenius:
    (section rows over F_{p^m}, Howell span and length of the
    multiplicative part)."""
    S = B.S
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

    cur = _f_stable(apply_bar, [[W1.one() if k == i else W1.zero()
                                 for k in range(r)] for i in range(r)], W1)
    ell = max(1, _ceil_log(S.D, p)) + 1

    def power_bar(wv, k):
        for _ in range(k):
            wv = apply_bar(wv)
        return wv

    cols = [power_bar(row, ell) for row in cur]
    rows = []
    for xbar in cur:
        coeffs = _solve_field([list(c) for c in cols], xbar, W1)
        y = [W1.zero() for _ in range(r)]
        for c, row in zip(coeffs, cur):
            y = [a + b * c for a, b in zip(y, row)]
        v = [S.one().scale_w(S.ring.elem(list(c.coeffs))) for c in y]
        for _ in range(ell):
            v = apply_phi(v)
        rows.extend(B.s_multiples(v))
    mult_span = howell_form(rows, p, 1) if rows else []
    return cur, mult_span, span_length(mult_span, p, 1)


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


def _phi0_split(M):
    """split_phi_module of M/uM, phi(gen_j) = phi_0(e_j), over W[[u]]."""
    W, g = M.W, M.g
    phi0 = M.phi_images(0)
    z = series(W, [])
    phi = [[SeriesElem.from_vec(W, list(phi0[j][i].coeffs))
            for j in range(g)] for i in range(g)]
    rel = [[SeriesElem.u_pow(W, 1) if s == t else z for s in range(g)]
           for t in range(g)]
    return split_phi_module(PhiModule(W, g, rel, phi, killed_by=(1, 1)))


def _fp_span(rows, W):
    """Howell span over F_p of the F_{p^m}-span of rows."""
    x = [W.elem([int(i == j) for i in range(W.m)]) for j in range(W.m)]
    return howell_form([[a for c in row for a in (xj * c).coeffs]
                        for row in rows for xj in x], W.p, 1)


@pytest.mark.parametrize("p, m, g", FL_CASES)
@settings(max_examples=3)
@given(st.data())
def test_split_fl_equals_the_field_engine(p, m, g, data):
    M = data.draw(fl_modules(p, m, g))
    res, ref = _phi0_split(M), ref_fl_section(M)
    assert fitting_conditions(res) == (True, True)
    assert res.M_mult.length() == len(ref) * m
    assert res.M_nilp.length() == (g - len(ref)) * m
    assert spans_equal(howell_form(res.section, p, 1), _fp_span(ref, M.W),
                       p, 1)


@pytest.mark.parametrize("p, m, g", FL_CASES)
@settings(max_examples=2)
@given(st.data())
def test_split_breuil_equals_the_field_engine(p, m, g, data):
    M = data.draw(fl_modules(p, m, g))
    B = fl_to_breuil(M)
    S = B.S
    section, span, length = ref_split_breuil(B)
    res = _phi0_split(M)
    rows = []
    for x in res.section:
        rows.extend(B.s_multiples([S.one().scale_w(
            S.ring.elem(x[s * m:(s + 1) * m])) for s in range(g)]))
    assert spans_equal(howell_form(rows, p, 1), span, p, 1)
    assert length * g == B.dim * len(section)
    # the I_+-reduction of the recovered Frobenius settles on the stable
    # image of phi_0
    assert spans_equal(_fp_span(section, M.W),
                       howell_form(res.section, p, 1), p, 1)
