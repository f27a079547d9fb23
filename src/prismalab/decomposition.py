"""Multiplicative/nilpotent splitting.

Every split follows the same pattern: reduce to a finite module where the
Frobenius is linear enough for a Fitting decomposition (mod u for phi
modules, mod I_+ for Breuil modules, the module itself for the filtered
W-modules), write the reduced Frobenius as a matrix over Z/p^n (over F_p
for the mod-p splits, where a sigma-semilinear map of F_{p^m}^g is a
g*m x g*m matrix), and run one core on linalg_residue.  _stable_image is
the multiplicative part: the span where the iterated images stabilize.
_preimages solves phi-bar^T(y) = x-bar inside it, and the section
x-bar -> phi^T(y) transports that part back to the module; the filtered
split needs no transport, its stable image being the summand itself.
Data over F_{p^m} (echelon rows, coordinates, projections) are read off
the Howell form at n = 1, with no second elimination.
"""

from __future__ import annotations

from .breuil_fl import FLModule, fl_to_breuil, is_fl_module
from .errors import InputError, NotFL, NotKilledByP
from .linalg_residue import (
    factor, howell_form, in_span, pivot_info, reduce_vector, span_length,
    spans_equal,
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
# the Fitting core: linearized Frobenius, stable image, preimages
# ---------------------------------------------------------------------------


def _mat_apply(A, v, q):
    return [sum(a * b for a, b in zip(row, v)) % q for row in A]


def _multiples(v, mat, m, q):
    """[v, Mv, ..., M^{m-1} v] for the m x m matrix M (rows) applied to
    each m-block of the flat vector v."""
    out = [v]
    for _ in range(1, m):
        out.append(_blockwise(mat, out[-1], q))
    return out


def _semilinear_matrix(images, W, q):
    """The matrix over Z/q of the sigma-semilinear map sending basis vector
    k to the flat vector images[k], on the coordinates (k, a) of x^a e_k:
    column (k, a) is sigma(x)^a times images[k]."""
    sx = W._mul_matrix(W.sigma_gen())
    cols = [c for im in images for c in _multiples(im, sx, W.m, q)]
    return [list(r) for r in zip(*cols)]


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


def _preimages(F, basis, rel, T, targets, p, nexp):
    """For each target x, a y = sum c_k basis_k with F^T y = x modulo the
    span of rel, from one factorization of [F^T basis | rel]."""
    q = p ** nexp
    dim = len(F)
    FT = [row[:] for row in F]
    for _ in range(T - 1):
        FT = [[sum(FT[i][k] * F[k][j] for k in range(dim)) % q
               for j in range(dim)] for i in range(dim)]
    cols = [_mat_apply(FT, row, q) for row in basis] + list(rel)
    fac = factor([[c[r] for c in cols] for r in range(dim)], p, nexp)
    out = []
    for x in targets:
        y = [0] * dim
        for c, row in zip(fac.solve(x)[:len(basis)], basis):
            if c:
                for i, a in enumerate(row):
                    y[i] = (y[i] + c * a) % q
        out.append(y)
    return out


def _field_rows(stable, m, p):
    """The reduced echelon rows over F_{p^m} of the F_{p^m}-space whose
    F_p-linearization has the Howell basis stable (at n = 1), with their
    pivot coordinates.  A vector leading in coordinate t spans all of
    F_{p^m} there, so the m columns of that block are all F_p pivots, and
    the F_{p^m} rows are the Howell rows whose pivot starts a block."""
    rows, piv = [], []
    for row, (c, _) in zip(stable, pivot_info(stable, p, 1)):
        if c % m == 0:
            rows.append(row)
            piv.append(c // m)
    return rows, piv


def _unflat(W, v):
    """The flat vector v as a list of WittElems over W."""
    return [W.elem(v[k:k + W.m]) for k in range(0, len(v), W.m)]


# ---------------------------------------------------------------------------
# phi modules over the truncated series ring
# ---------------------------------------------------------------------------


def _mod_u_data(M, mdl):
    """Relations and the linearized Frobenius of M/uM on g*m coordinates:
    the u^0 coefficients of each relation column times x^a, and of each
    phi column times sigma(x^a) = sigma(x)^a, for a < m."""
    W = mdl.W
    g, m, q, w = M.g, W.m, mdl.q, mdl.N * W.m

    def at_u0(col):
        v = mdl.vec(col)
        return [a for s in range(g) for a in v[s * w:s * w + m]]

    rel0 = [r for col in M.relations
            for r in _multiples(at_u0(col), mdl._x_rows, m, q)]
    images = [at_u0([M.phi[i][j] for i in range(g)]) for j in range(g)]
    return rel0, _semilinear_matrix(images, W, q)


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
    # solve phi-bar^T(y) = x-bar with y inside the multiplicative part
    images = []
    for y in _preimages(F, basis, rel_span, T, basis, p, nexp):
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
# Breuil modules (mod p)
# ---------------------------------------------------------------------------


def split_breuil(B, alternative=None):
    """Fitting split along the I_+-reduction of the recovered Frobenius."""
    S = B.S
    if S.n_user != 1:
        raise NotKilledByP("the Breuil split works on the mod-p layer")
    p, r, m = B.p, B.r, S.m
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

    # the semilinear reduction of the Frobenius to S/I_+ = F_{p^m}^r,
    # linearized over F_p
    W1 = WittRing(p, 1, m, list(S.ring.f) if m > 1 else None)
    F = _semilinear_matrix([[a % p for c in Fcols[i] for a in c.vec[:m]]
                            for i in range(r)], W1, p)
    stable = _stable_image(F, [], p, 1)
    cur, _ = _field_rows(stable, m, p)
    ell = max(1, _ceil_log(S.D, p)) + 1

    def lift(v):
        for _ in range(ell):
            v = apply_phi(v)
        return v

    def span(vectors):
        rows = [row for v in vectors for row in B.s_multiples(v)]
        return howell_form(rows, p, 1)[0] if rows else []

    images = [lift([S.from_vec(y[k:k + m]) for k in range(0, r * m, m)])
              for y in _preimages(F, stable, [], ell, cur, p, 1)]
    mult_span = span(images)
    mult_len = span_length(mult_span, p, 1)
    cert = {"canonical": None, "fil_compatible": _fil_compat(B, mult_span,
                                                             images)}
    if alternative is not None:
        aspan = span([lift([c.reduce_prec(1) for c in v])
                      for v in alternative])
        cert["canonical"] = spans_equal(aspan, mult_span, p, 1)
    return SplitResult(
        {"generators": images, "span": mult_span, "length": mult_len},
        {"length": B.dim - mult_len},
        section=[_unflat(W1, row) for row in cur], inclusion=images,
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
    g, m, p = M.g, W.m, W.p
    phi0 = M.phi_images(0)
    F = _semilinear_matrix([M.vec(v) for v in phi0], W, p)
    stable = _stable_image(F, [], p, 1)
    cur, piv = _field_rows(stable, m, p)
    # multiplicative part: phi_0 on the stable rows, whose coordinates are
    # their pivot blocks
    phi0_sub = [[W.elem(y[t * m:(t + 1) * m]) for t in piv]
                for y in (_mat_apply(F, row, p) for row in cur)]
    M_mult = FLModule(W, [1] * len(cur), M.h, {}, {0: phi0_sub})
    # quotient on the non-pivot coordinates
    qcoords = [t for t in range(g) if t not in piv]

    def project(v):
        red = reduce_vector(stable, v, p, 1)
        return [W.elem(red[t * m:(t + 1) * m]) for t in qcoords]

    phi_n = {0: [project(M.vec(phi0[t])) for t in qcoords]}
    fil_n = {}
    for i in range(1, M.h + 1):
        fil_n[i] = [project(M.vec(v)) for v in M.fil_gens(i)]
        phi_n[i] = [project(M.vec(v)) for v in M.phi_images(i)]
    M_nilp = FLModule(W, [1] * len(qcoords), M.h, fil_n, phi_n)
    proj_matrix = [project(M.vec(M.basis_vector(t))) for t in range(g)]
    return SplitResult(M_mult, M_nilp, section=[_unflat(W, r) for r in cur],
                       inclusion=[_unflat(W, r) for r in cur],
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
