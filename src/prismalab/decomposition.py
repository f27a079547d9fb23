"""Multiplicative/nilpotent splitting of finite phi modules.

The split reduces mod u, where the Frobenius is linear enough for a
Fitting decomposition: phi_modules._mod_u_data writes the reduced
Frobenius of M/uM as a matrix over Z/p^n through the linearization in
witt_base (_semilinear_matrix), and one core on linalg_residue does the
rest.  _stable_image is the multiplicative part: the span where the
iterated images stabilize.  _preimages solves phi-bar^T(y) = x-bar inside
it, and the section x-bar -> phi^T(y) transports that part back to the
module.
"""

from __future__ import annotations

from .linalg_residue import (
    factor, howell_form, in_span, span_length, spans_equal,
)
from .phi_modules import (
    PhiModule, _mod_u_data, check_model_size, presentation_from_generators,
)
from .witt_base import _blockwise


def _ceil_log(b, p):
    """The least k >= 0 with p^k >= b, in integers."""
    k = 0
    while p ** k < b:
        k += 1
    return k


class SplitResult:
    """M = M_mult (+) M_nilp with the section that realizes the summand."""

    def __init__(self, M_mult, M_nilp, section, inclusion=None):
        self.M_mult = M_mult
        self.M_nilp = M_nilp
        self.section = section
        self.inclusion = inclusion


# ---------------------------------------------------------------------------
# the Fitting core: linearized Frobenius, stable image, preimages
# ---------------------------------------------------------------------------


def _stable_image(F, rel0, p, nexp):
    """Howell span of the stabilized image of the linearized Frobenius."""
    q = p ** nexp
    dim = len(F)
    cur = howell_form(
        [[F[r][c] for r in range(dim)] for c in range(dim)] + rel0, p, nexp)
    while True:
        nxt = howell_form(
            [_blockwise(F, row, q) for row in cur] + rel0, p, nexp)
        if spans_equal(cur, nxt, p, nexp):
            return cur
        cur = nxt


def _preimages(F, basis, rel, T, p, nexp):
    """For each x of basis, a y = sum c_k basis_k with F^T y = x modulo the
    span of rel, from one factor of the vectors F^T basis_k and rel."""
    q = p ** nexp
    dim = len(F)
    FT = [row[:] for row in F]
    for _ in range(T - 1):
        FT = [[sum(FT[i][k] * F[k][j] for k in range(dim)) % q
               for j in range(dim)] for i in range(dim)]
    cols = [_blockwise(FT, row, q) for row in basis] + list(rel)
    fac = factor(cols, p, nexp)
    out = []
    for x in basis:
        y = [0] * dim
        for c, row in zip(fac.solve(x)[:len(basis)], basis):
            if c:
                for i, a in enumerate(row):
                    y[i] = (y[i] + c * a) % q
        out.append(y)
    return out


# ---------------------------------------------------------------------------
# phi modules over the truncated series ring
# ---------------------------------------------------------------------------


def _fitting_lengths(M):
    """(length of M/uM, length of the stable image of phi-bar in it)."""
    if M.g == 0:
        return 0, 0
    mdl = M.model()
    p, nexp = mdl.p, mdl.nexp
    rel0, F = _mod_u_data(M, mdl)
    rel = span_length(howell_form(rel0, p, nexp), p, nexp)
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
    rel_span = howell_form(rel0, p, nexp)
    basis = [row for row in _stable_image(F, rel0, p, nexp)
             if not in_span(rel_span, row, p, nexp)]
    b = M.killed_by[1] if (M.killed_by and M.killed_by[1]) else mdl.N
    T = max(1, _ceil_log(b, p)) + 1
    # solve phi-bar^T(y) = x-bar with y inside the multiplicative part
    images = []
    for y in _preimages(F, basis, rel_span, T, p, nexp):
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
    """M = M_mult (+) M_nilp, M_nilp the quotient of M by the section
    images.  M must have passed _validate, as every PhiModule built with
    validate=True has: M_nilp checks phi only on the new columns."""
    basis, images, _ = mult_section(M, rng=rng)
    # M_nilp's model is now known; refuse it before M_mult is built
    check_model_size(M.g, M.N, M.ring.m, len(M.relations) + len(images))
    mdl = M.model()
    cols = [tuple(mdl.to_column(v)) for v in images]
    M_mult = presentation_from_generators(
        M, mdl, images, [r for col in cols for r in mdl.column_rows(col)],
        killed_by=M.killed_by)
    if cols:
        M_nilp = PhiModule(M.ring, M.g, M.relations + cols, M.phi,
                           killed_by=M.killed_by, N=M.N, validate=False)
        M_nilp._validate(first=len(M.relations))
    else:
        M_nilp = M
    return SplitResult(M_mult, M_nilp, section=basis, inclusion=cols)
