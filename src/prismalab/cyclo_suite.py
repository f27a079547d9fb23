"""The cyclotomic example family, end to end.

For the extension generated by a p^n-th root of unity the Eisenstein
polynomial d, the torsion module S/(g0, p^n) with phi(g) = g (g0 the
level-(n-1) cyclotomic kernel element), and the ideal
J = {x : p^n | x * q_n} are all explicit; every computable claim about
them is reproduced here with completeness certificates.
"""

from __future__ import annotations

import time

from .errors import BoundaryContamination, InputError, Unstable
from .linalg_residue import factor, howell_form, in_span, span_length
from .phi_modules import PhiModule, annihilator_alpha
from .series_rings import (
    DpRing, SeriesElem, binomial_power_minus_one, cyclotomic_q,
    eisenstein_make, int_poly_mul,
)
from .witt_base import WittRing

# The system of ker_phi_minus_d is dense, (B + e + 1) x ((B + e)//p + 1)
# cells, so a large bound would exhaust memory (or overflow an index)
# before the solve.  2^22 cells is over 18000 times the largest default
# system of the benchmark corpus (p = 2, n = 3: 231 cells) and is solved in
# a few seconds.  ideal_j_mingens holds its systems to the same budget.
KERNEL_CELL_BUDGET = 2 ** 22

# Every instance builds (u+1)^(p^n) and the Eisenstein polynomial of degree
# p^(n-1) (p-1) before any check runs, at a cost that grows about tenfold
# per doubling of p^n: 0.26 s at 2^10 and 2.3 s at 2^11 on one core of a
# shared 2-core x86 host.  2^10 admits p = 2 up to n = 10, every p below
# 1024 at n = 1, and over 100 times the largest p^n of the benchmark corpus
# and the acceptance criteria (9, at p = 3, n = 2).
CYCLO_DEGREE_BUDGET = 2 ** 10


class CycloInstance:
    def __init__(self, p, n, B=None, D=None):
        if n < 1:
            raise InputError("level must be at least 1")
        # p^n is computed only once n * log2|p| is known to be small
        if (n * (abs(p).bit_length() - 1) >= CYCLO_DEGREE_BUDGET.bit_length()
                or abs(p) ** n > CYCLO_DEGREE_BUDGET):
            raise InputError(
                f"cyclotomic instance too large: p={p}, n={n} give degree "
                f"p^n over the budget of {CYCLO_DEGREE_BUDGET}")
        self.p = p
        self.n = n
        self.d = eisenstein_make(p, "cyclotomic", n)
        self.e = p ** (n - 1) * (p - 1)
        self.q_n = cyclotomic_q(p, n)
        # kernel generator of the level below: (u+1)^{p^{n-1}} - 1
        self.g0 = binomial_power_minus_one(p ** (n - 1))
        # the kernel lives in degree e/(p-1); B leaves an empty band of
        # width e above it so completeness is machine-checkable
        self.B = B if B is not None else max(
            4 * self.e // (p - 1), self.e + 2 * (self.e // (p - 1)))
        # a D below the default 2 p^n e is refused: there the truncation
        # can give a wrong mu that the D -> D + e re-check does not catch
        # (at p = 2, n = 2, D = 5 both give 1, not 2), while every D
        # sampled from the default up gave the default's answer
        least = 2 * p ** n * self.e
        if D is not None and D < least:
            raise InputError(
                f"degree bound D={D} is too small to certify mu at p={p}, "
                f"n={n}; the least admissible D is {least}")
        self.D = least if D is None else D
        # d * g0 = q_n exactly over the integers
        prod = int_poly_mul(list(self.d.int_coeffs), self.g0)
        if prod != self.q_n:
            raise InputError("cyclotomic factorization failed")

    def __repr__(self):
        return f"CycloInstance(p={self.p}, n={self.n})"


def ker_phi_minus_d(inst, m):
    """Kernel of f -> phi(f) - d f on polynomials of degree <= B over Z/p^m.

    Certified cyclic of order p^m, generated by g0; raises
    BoundaryContamination when a kernel element touches the top band
    (B - e, B], which would mean B is too small for completeness.  The
    band must clear g0, of degree p^(n-1), so a B below e + p^(n-1) is
    refused before the solve, and so is a system over KERNEL_CELL_BUDGET
    cells.
    """
    p, B, e = inst.p, inst.B, inst.e
    if not 1 <= m <= inst.n:
        raise InputError("precision level must satisfy 1 <= m <= n")
    least = e + p ** (inst.n - 1)
    if B < least:
        raise BoundaryContamination(
            f"bound {B} puts the generator g0 in the top degree band; "
            f"the least admissible bound is {least}")
    # a row r > B + e of the system holds only the 1 of phi(u^j) at r = p j,
    # so f_j = 0 for every j > J: solve for f_0..f_J on rows r <= B + e
    nrows, J = B + e + 1, (B + e) // p
    if nrows * (J + 1) > KERNEL_CELL_BUDGET:
        raise InputError(
            f"kernel system too large: bound {B} at p={p}, e={e} gives "
            f"{nrows} x {J + 1} cells, over the budget of "
            f"{KERNEL_CELL_BUDGET} cells")
    q = p ** m
    cols = []
    d = list(inst.d.int_coeffs)
    for j in range(J + 1):
        col = [0] * nrows
        col[p * j] += 1
        for k, a in enumerate(d):
            col[j + k] = (col[j + k] - a) % q
        cols.append(col)
    gens = [g + [0] * (B - J) for g in factor(cols, p, m).kernel()]
    g0 = [c % q for c in inst.g0] + [0] * (B + 1 - len(inst.g0))
    g0span = howell_form([g0], p, m)
    for g in gens:
        if any(g[t] % q for t in range(B - e + 1, B + 1)):
            raise BoundaryContamination(
                "kernel element in the top degree band; raise B")
        if not in_span(g0span, g, p, m):
            raise InputError("kernel is not cyclic on the expected generator")
    if not in_span(gens, g0, p, m):
        raise InputError("expected generator missing from the kernel")
    return gens


def h2_instance_module(inst):
    """S/(g0, p^n) with phi(g) = g as a PhiModule."""
    p, n = inst.p, inst.n
    W = WittRing(p, n, 1)
    g0 = SeriesElem.from_ints(W, [c % W.q for c in inst.g0])
    one = SeriesElem.from_ints(W, [1])
    b = n * p ** (n - 1)
    return PhiModule(W, 1, [[g0]], [[one]], killed_by=(n, b))


def h2_torsion_report(inst):
    """alpha of the degree-2 module of the instance, from its annihilator
    mod p, against the bound e (i-1)/(p-1) at i = 2."""
    p, e = inst.p, inst.e
    alpha = annihilator_alpha(h2_instance_module(inst))
    bound = e // (p - 1)
    return {"p": p, "n": inst.n, "e": e, "alpha": alpha, "bound": bound,
            "sharp": alpha == bound}


def ideal_j_mingens(inst):
    """Minimal generator count of J = {x : p^n divides x q_n}.

    Computed at the dp-truncation D via Nakayama over (p, u, z_i), then
    re-verified at D + e; Unstable if the two disagree.  D is at least
    2 p^n e, which CycloInstance enforces.  Before any DpRing is built, a D
    is refused whose largest system, the Howell form of J at D + e, exceeds
    KERNEL_CELL_BUDGET: p^n I and the S-multiples of each q_n-kernel
    vector, (1 + |K|) (D + e) rows of D + e cells.
    """
    p, n, D = inst.p, inst.n, inst.D
    top = D + inst.e
    cells = top * top
    if cells <= KERNEL_CELL_BUDGET:
        cells *= 1 + _j_kernel_rows(inst, top)
    if cells > KERNEL_CELL_BUDGET:
        raise InputError(
            f"[check] D={D} too large: at p={p}, n={n} the system of J at "
            f"D={top} exceeds the budget of {KERNEL_CELL_BUDGET} cells")
    mu = _j_mingens_at(inst, D)
    mu2 = _j_mingens_at(inst, top)
    if mu2 != mu:
        raise Unstable(f"mu changed under D -> D+e: {mu} vs {mu2}")
    return mu


def _j_kernel_rows(inst, D):
    """An upper bound, from (p, n, D) alone, on the rows of the Howell basis
    K of the q_n-kernel that _j_mingens_at takes at D: the D - p^n faithful
    coordinates, and the exact count at n = 1 and odd p.  There q_1 = b_p
    mod p (p | C(p, k) for 0 < k < p, and e(p)! = 1), and b_p b_i =
    e(i+p)!/e(i)! b_{i+p} with distinct targets, so K is spanned by the b_i
    (i < D - p) whose weight p divides, i.e. (e(i), e(i+p)] holds a
    multiple of p."""
    p, n, e = inst.p, inst.n, inst.e
    faithful = D - p ** n
    if n > 1 or p == 2:
        return faithful
    return sum((i + p) // e // p > i // e // p for i in range(faithful))


def _j_mingens_at(inst, D):
    p, n = inst.p, inst.n
    S = DpRing(inst.d, 2 * n, D=D)
    q = S.q
    pn = p ** n
    dq = len(inst.q_n) - 1
    qn = S.from_int_poly(inst.q_n)
    # kernel of multiplication by q_n on S/p^n; only coordinates whose
    # product with q_n stays below the degree bound are trusted, so every
    # kernel element is genuine rather than a truncation artifact
    faithful = D - dq
    K = factor(S.s_multiples([qn.vec], pn, faithful), p, n).kernel()
    rows = [[pn * (j == i) for j in range(S.dim)] for i in range(S.dim)]
    for k in K:
        rows += S.s_multiples([list(k) + [0] * (S.dim - faithful)], q)
    J = howell_form(rows, p, S.n_int)
    mults = [S.from_int_poly([0, 1])]
    i = 1
    while p ** i * S.e < D:
        mults.append(S.gamma(p ** i))
        i += 1
    mrows = []
    for r in J:
        x = S.from_vec(list(r))
        mrows.append([(p * a) % q for a in r])
        for mlt in mults:
            mrows.append(S.to_vec(mlt * x))
    MJ = howell_form(mrows, p, S.n_int)
    return span_length(J, p, S.n_int) - span_length(MJ, p, S.n_int)


def sharpness_report(pairs=((2, 1), (3, 1), (5, 1), (2, 2))):
    rows = []
    for p, n in pairs:
        t0 = time.perf_counter()
        rep = h2_torsion_report(CycloInstance(p, n))
        rows.append({
            "p": p, "n": n, "e": rep["e"], "i": 2,
            "alpha": rep["alpha"], "bound": rep["bound"],
            "equal": rep["sharp"],
            "seconds": round(time.perf_counter() - t0, 4),
        })
    return rows
