"""Multiplicative/nilpotent splitting.

Every split follows the same pattern: reduce to a finite module where the
Frobenius is linear enough for a Fitting decomposition (mod u for phi
modules, mod I_+ for Breuil modules, the module itself for the filtered
W-modules), then transport the multiplicative part back with the iterated
section x-bar -> lim phi^t(x_t).
"""

from __future__ import annotations

from .breuil_fl import FLModule, fl_to_breuil, is_fl_module
from .errors import InputError, NotFL, NotKilledByP
from .linalg_residue import (
    factor, howell_form, in_span, span_length, spans_equal,
)
from .phi_modules import PhiModule, presentation_from_generators
from .series_rings import int_poly_pow
from .witt_base import WittRing, _blockwise


def _ceil_log(b, p):
    """The least k >= 0 with p^k >= b, in integers."""
    k = 0
    while p ** k < b:
        k += 1
    return k


class SplitResult:
    """M = M_mult (+) M_nilp with the section that realizes the summand."""

    def __init__(self, M_mult, M_nilp, section, inclusion=None,
                 projection=None, certificate=None):
        self.M_mult = M_mult
        self.M_nilp = M_nilp
        self.section = section
        self.inclusion = inclusion
        self.projection = projection
        self.certificate = certificate


# ---------------------------------------------------------------------------
# phi modules over the truncated series ring
# ---------------------------------------------------------------------------


def _mat_apply(A, v, q):
    return [sum(a * b for a, b in zip(row, v)) % q for row in A]


def _mod_u_data(M, mdl):
    """Relations and the linearized Frobenius of M/uM on g*m coordinates:
    the u^0 coefficients of each relation column times x^a, and of each
    phi column times sigma(x^a) = sigma(x)^a, for a < m."""
    W = mdl.W
    g, m, q, w = M.g, W.m, mdl.q, mdl.N * W.m

    def multiples(col, rows):
        v = mdl.vec(col)
        out = [[a for s in range(g) for a in v[s * w:s * w + m]]]
        for _ in range(1, m):
            out.append(_blockwise(rows, out[-1], q))
        return out

    rel0 = [r for col in M.relations for r in multiples(col, mdl._x_rows)]
    sx = W._mul_matrix(W.sigma_gen())
    cols = [c for j in range(g)
            for c in multiples([M.phi[i][j] for i in range(g)], sx)]
    return rel0, [list(r) for r in zip(*cols)]


def _stable_image(F, rel0, p, nexp):
    """Howell span of the stabilized image of the linearized Frobenius."""
    q = p ** nexp
    dim = len(F)
    cur, _ = howell_form(
        [[F[r][c] for r in range(dim)] for c in range(dim)] + rel0, p, nexp)
    while True:
        nxt, _ = howell_form(
            [_mat_apply(F, row, q) for row in cur] + rel0, p, nexp)
        if spans_equal(cur, nxt, p, nexp):
            return cur
        cur = nxt


def _fitting_lengths(M):
    """(length of M/uM, length of the stable image of phi-bar in it)."""
    if M.g == 0:
        return 0, 0
    mdl = M.model()
    p, nexp = mdl.p, mdl.nexp
    rel0, F = _mod_u_data(M, mdl)
    rel = span_length(howell_form(rel0, p, nexp)[0], p, nexp) if rel0 else 0
    stable = span_length(_stable_image(F, rel0, p, nexp), p, nexp)
    return len(F) * nexp - rel, stable - rel


def fitting_conditions(res):
    """(phi-bar is bijective on M_mult/u, phi-bar is nilpotent on
    M_nilp/u) for a SplitResult of split_phi_module."""
    whole, stable = _fitting_lengths(res.M_mult)
    return whole == stable, _fitting_lengths(res.M_nilp)[1] == 0


def mult_section(M, rng=None):
    """Images in M of a generating set of the multiplicative part of M/uM.

    Returns (basis rows of the multiplicative part, model vectors of their
    section images, iteration count).  A supplied rng perturbs each lift by
    an element of uM; the output must not depend on it.
    """
    mdl = M.model()
    p, nexp, q = mdl.p, mdl.nexp, mdl.q
    rel0, F = _mod_u_data(M, mdl)
    if M.g == 0:
        return [], [], 0
    rel_span = howell_form(rel0, p, nexp)[0] if rel0 else []
    stable = _stable_image(F, rel0, p, nexp)
    basis = [row for row in stable
             if not (rel_span and in_span(rel_span, row, p, nexp))
             and any(row)]
    b = M.killed_by[1] if (M.killed_by and M.killed_by[1]) else mdl.N
    T = max(1, _ceil_log(b, p)) + 1
    FT = [row[:] for row in F]
    for _ in range(T - 1):
        FT = [[sum(FT[i][k] * F[k][j] for k in range(len(F))) % q
               for j in range(len(F))] for i in range(len(F))]
    # solve phi-bar^T(y) = x-bar with y inside the multiplicative part
    cols = [_mat_apply(FT, row, q) for row in basis] + list(rel_span)
    fac = factor([[c[r] for c in cols] for r in range(len(F))], p, nexp)
    images = []
    for xbar in basis:
        sol = fac.solve(xbar)
        y = [0] * len(F)
        for c, row in zip(sol[:len(basis)], basis):
            if c:
                for i, a in enumerate(row):
                    y[i] = (y[i] + c * a) % q
        v = [0] * mdl.dim
        for s in range(M.g):
            for j in range(mdl.m):
                v[mdl.idx(s, 0, j)] = y[s * mdl.m + j]
        if rng is not None:
            for s in range(M.g):
                for t in range(1, mdl.N):
                    for j in range(mdl.m):
                        v[mdl.idx(s, t, j)] = rng.randrange(q)
        for _ in range(T):
            v = mdl.phi_vec(v)
        images.append(v)
    return basis, images, T


def split_phi_module(M, rng=None):
    basis, images, _ = mult_section(M, rng=rng)
    mdl = M.model()
    M_mult = presentation_from_generators(M, mdl, images,
                                          killed_by=M.killed_by)
    cols = [tuple(mdl.to_column(v)) for v in images]
    if cols:
        M_nilp = PhiModule(M.ring, M.g, M.relations + cols, M.phi,
                           killed_by=M.killed_by, N=M.N)
    else:
        M_nilp = M
    return SplitResult(M_mult, M_nilp, section=basis, inclusion=cols)


# ---------------------------------------------------------------------------
# field linear algebra over W_1 = F_{p^m} (for the mod-p splits)
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


# ---------------------------------------------------------------------------
# Breuil modules (mod p)
# ---------------------------------------------------------------------------


def split_breuil(B, alternative=None):
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


def _fil_compat(B, mult_span, images):
    """Fil of B meets the summand exactly in Fil^h S times the summand."""
    if not images:
        return True
    p = B.p
    fil = B.fil_span()
    lf = span_length(fil, p, 1)
    lm = span_length(mult_span, p, 1)
    lsum = span_length(howell_form(list(fil) + list(mult_span), p, 1)[0],
                       p, 1)
    inter_dim = lf + lm - lsum
    rows = []
    for v in images:
        for frow in B.S.fil_span(B.h):
            s = B.S.from_vec(frow)
            rows.extend(B.s_multiples([s * c for c in v]))
    hs, _ = howell_form(rows, p, 1)
    return span_length(hs, p, 1) == inter_dim


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


# ---------------------------------------------------------------------------
# filtered W-modules (mod p)
# ---------------------------------------------------------------------------


def split_fl(M):
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


def check_split_compat(M, eis=None, D=None):
    """Base change to the divided-power ring commutes with the split."""
    B = fl_to_breuil(M, eis=eis, D=D)
    res_b = split_breuil(B)
    res_f = split_fl(M)
    S = B.S
    rows = []
    for wrow in res_f.section:
        v = [S.one().scale_w(S.ring.elem(list(c.coeffs))) for c in wrow]
        rows.extend(B.s_multiples(v))
    hs, _ = howell_form(rows, B.p, 1) if rows else ([], None)
    return spans_equal(hs, res_b.M_mult["span"], B.p, 1)
