"""Top-level acceptance suite.

Each test prints one ``CRITERION k: PASS/FAIL`` line (bypassing output
capture so the line is visible in the verbose run log) and enforces the
stated wall-clock budget.
"""

import functools
import math
import random
import sys
import time

from prismalab.breuil_fl import (
    FLModule, fl_criterion, is_breuil_module, is_fl_module, residual_module,
    unramified_realization,
)
from prismalab.cyclo_suite import CycloInstance, ker_phi_minus_d, \
    ideal_j_mingens, sharpness_report
from prismalab.decomposition import (
    _mod_u_data, _stable_image, mult_section, split_phi_module,
)
from prismalab.errors import BoundTooSmall, IllFormedPhi
from prismalab.linalg_residue import factor, howell_form, spans_equal
from prismalab.phi_modules import (
    EtalePhiModule, PhiModule, etale_fixed_points, zp_shape,
)
from prismalab.series_rings import (
    DpRing, SeriesElem, eisenstein_make, phi_apply, s_phi_div,
)
from prismalab.witt_base import WittRing


def criterion(k):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"CRITERION {k}: FAIL", file=sys.__stdout__)
                raise
            print(f"CRITERION {k}: PASS", file=sys.__stdout__)
        return wrapper
    return deco


PAIRS = ((2, 1), (3, 1), (5, 1), (2, 2))


# ---------------------------------------------------------------------------
# 1. sharpness table
# ---------------------------------------------------------------------------


@criterion(1)
def test_criterion_1_sharpness_table():
    for p, n in PAIRS:
        t0 = time.perf_counter()
        [row] = sharpness_report(((p, n),))
        assert time.perf_counter() - t0 < 1.0
        assert (row["p"], row["n"]) == (p, n)
        assert row["alpha"] == p ** (n - 1)
        assert row["alpha"] == row["bound"] and row["equal"]


# ---------------------------------------------------------------------------
# 2. kernel of phi - d at every level
# ---------------------------------------------------------------------------


@criterion(2)
def test_criterion_2_kernel_all_levels():
    for p, n in PAIRS:
        t0 = time.perf_counter()
        inst = CycloInstance(p, n)
        for m in range(1, n + 1):
            gens = ker_phi_minus_d(inst, m)
            g0 = ([c % p ** m for c in inst.g0]
                  + [0] * (inst.B + 1 - len(inst.g0)))
            expect = howell_form([g0], p, m)
            assert spans_equal(gens, expect, p, m), (p, n, m)
        assert time.perf_counter() - t0 < 5.0, (p, n)


# ---------------------------------------------------------------------------
# 3. minimal generators of the ideal J
# ---------------------------------------------------------------------------


@criterion(3)
def test_criterion_3_ideal_j():
    expected_floor = {(2, 1): (1, 1), (3, 1): (2, None), (2, 2): (2, None)}
    for (p, n), (lo, exact) in expected_floor.items():
        t0 = time.perf_counter()
        mu = ideal_j_mingens(CycloInstance(p, n))  # re-verified at D + e
        assert mu >= lo
        if exact is not None:
            assert mu == exact
        assert time.perf_counter() - t0 < 30.0, (p, n)


# ---------------------------------------------------------------------------
# 4. decomposition suite
# ---------------------------------------------------------------------------


def _random_u_kill(rng, W, gmax=3):
    g = rng.randrange(1, gmax + 1)
    b = rng.choice([4, 6])
    z = SeriesElem.from_ints(W, [])
    rel = []
    for i in range(g):
        col = [z] * g
        col[i] = SeriesElem.u_pow(W, b)
        rel.append(col)
    phi = [[SeriesElem.from_ints(
        W, [rng.randrange(W.q) for _ in range(rng.randrange(4))])
        for _ in range(g)] for _ in range(g)]
    return PhiModule(W, g, rel, phi, killed_by=(W.n, b))


def _mod_u_stable_span(M):
    mdl = M.model()
    rel0, F = _mod_u_data(M, mdl)
    stable = _stable_image(F, rel0, mdl.p, mdl.nexp)
    relspan = howell_form(rel0, mdl.p, mdl.nexp) if rel0 else []
    dim = len(F)
    full_rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    full = howell_form(full_rows + rel0, mdl.p, mdl.nexp)
    return stable, relspan, full, mdl


@criterion(4)
def test_criterion_4_split_suite():
    t0 = time.perf_counter()
    done = 0
    seed = 0
    while done < 50:
        seed += 1
        rng = random.Random(seed)
        W = WittRing(rng.choice([2, 3]), 1, 1)
        M = _random_u_kill(rng, W)
        res = split_phi_module(M)
        assert res.M_mult.length() + res.M_nilp.length() == M.length()
        # frobenius is bijective mod u on the multiplicative part ...
        if res.M_mult.g:
            stable, relspan, full, mdl = _mod_u_stable_span(res.M_mult)
            assert spans_equal(stable, full, mdl.p, mdl.nexp)
        # ... and nilpotent mod u on the nilpotent part
        if res.M_nilp.g:
            stable, relspan, full, mdl = _mod_u_stable_span(res.M_nilp)
            assert spans_equal(stable, relspan, mdl.p, mdl.nexp)
        # the section does not depend on the interior lift choices
        ref = mult_section(M)[1]
        assert mult_section(M, rng=random.Random(seed + 999))[1] == ref
        # idempotence
        assert split_phi_module(res.M_mult).M_nilp.length() == 0
        assert split_phi_module(res.M_nilp).M_mult.length() == 0
        done += 1
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 5. Z_p-shape oracle
# ---------------------------------------------------------------------------


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


def _scrambled_shape_module(rng, plant_torsion=False):
    n = rng.randrange(1, 4)
    r = rng.randrange(1, 4)
    exps = sorted(rng.randrange(1, n + 1) for _ in range(r))
    exps[-1] = n
    W = WittRing(2, n, 1)
    N = 4
    z, one = SeriesElem.from_ints(W, []), SeriesElem.from_ints(W, [1])
    g = r + 1 if plant_torsion else r
    rel = []
    for t in range(r):
        col = [z] * g
        col[t] = SeriesElem.from_ints(W, [2 ** exps[t]])
        rel.append(col)
    if plant_torsion:
        for lit in ([2 ** rng.randrange(1, n + 1)], [0, 0, 1]):
            col = [z] * g
            col[r] = SeriesElem.from_ints(W, lit)
            rel.append(col)
    # strictly upper-triangular random change of presentation
    Nmat = [[SeriesElem.from_ints(
        W, [rng.randrange(W.q) for _ in range(3)]) if j > i else z
        for j in range(g)] for i in range(g)]
    U = [[one if i == j else Nmat[i][j] for j in range(g)] for i in range(g)]
    N2 = _series_matmul(Nmat, Nmat, N)
    N3 = _series_matmul(N2, Nmat, N)
    V = [[one if i == j else z for j in range(g)] for i in range(g)]
    for i in range(g):
        for j in range(g):
            if i != j:
                V[i][j] = ((z - Nmat[i][j]) + N2[i][j] - N3[i][j]).truncate(N)
    rel_rows = _series_matmul(U, [[rel[c][i] for c in range(len(rel))]
                                  for i in range(g)], N)
    rel_cols = [[rel_rows[i][c] for i in range(g)] for c in range(len(rel))]
    phiV = [[phi_apply(V[i][j]).truncate(N) for j in range(g)]
            for i in range(g)]
    Phi = _series_matmul(U, phiV, N)
    M = PhiModule(W, g, rel_cols, Phi, killed_by=(n, None),
                  torsion_bound=0, N=N)
    return M, exps, n, N


@criterion(5)
def test_criterion_5_zp_shape_oracle():
    rng = random.Random(2024)
    for _ in range(30):
        M, exps, n, N = _scrambled_shape_module(rng)
        res = zp_shape(M)
        assert res.ok and res.exponents == exps, (exps, res)
        # independent oracle: the length sequence of the p-power filtration
        for j in range(1, n + 1):
            assert M.model(nexp=j).length() == N * sum(
                min(a, j) for a in exps)
    for _ in range(10):
        M, exps, n, N = _scrambled_shape_module(rng, plant_torsion=True)
        res = zp_shape(M)
        assert not res.ok and res.refuted is not None


# ---------------------------------------------------------------------------
# 6. filtered-module criterion
# ---------------------------------------------------------------------------


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


def _random_fl(rng, W, g, h, break_axiom=None):
    p = W.p
    A = _random_invertible(rng, g, p)
    levels = [rng.randrange(h + 1) for _ in range(g)]
    col = lambda t: [W.elem([A[s][t]]) for s in range(g)]
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
        cands = [t for t in range(g) if levels[t] > 0]
        if not cands:
            return None
        t = rng.choice(cands)
        i = rng.randrange(levels[t])
        idx = [s for s in range(g) if levels[s] >= i].index(t)
        phi[i][idx] = col(t)
    return FLModule(W, [1] * g, h, fil, phi)


@criterion(6)
def test_criterion_6_fl_criterion():
    for p in (3, 5):
        rng = random.Random(600 + p)
        W = WittRing(p, 1, 1)
        done = 0
        while done < 20:
            g = rng.randrange(1, 3)
            h = rng.randrange(1, min(p - 1, 3) + 1)
            kind = rng.choice([None, None, 2, 3])
            M = _random_fl(rng, W, g, h, break_axiom=kind)
            if M is None:
                continue
            ok, why = is_fl_module(M)
            assert ok == (kind is None), (p, g, h, kind, why)
            assert fl_criterion(M) == ok, (p, g, h, kind, why)
            done += 1


# ---------------------------------------------------------------------------
# 7. residual modules at the boundary
# ---------------------------------------------------------------------------


@criterion(7)
def test_criterion_7_residual():
    for p in (3, 5):
        rng = random.Random(700 + p)
        for d in (1, 2):
            A = _random_invertible(rng, d, p)
            V = EtalePhiModule(p, 1, d, A)
            R = residual_module(V, 1)
            ok, why = is_breuil_module(R.breuil)
            assert ok, (p, d, why)
            real = unramified_realization(R, 6)
            assert real["dimension"] == 1 * d
    # e > 1: no divided Frobenius survives; only length data, with the
    # torsion count cross-checked against the kernel of multiplication
    V = EtalePhiModule(5, 1, 1, [[2]])
    R = residual_module(V, 2)
    assert R.breuil is None
    info = R.length_check()
    S = R.S
    up = S.from_int_poly([0] * S.p + [1])
    K = factor(S.s_multiples([up.vec], S.q), S.p, 1).kernel()
    assert len(K) - S.p * S.m == info["torsion_per_rank"]
    assert info["total"] == info["dim_V"] * info["torsion_per_rank"]


# ---------------------------------------------------------------------------
# 8. divided Frobenius at the boundary degree
# ---------------------------------------------------------------------------


@criterion(8)
def test_criterion_8_boundary_phi():
    for p in (2, 3, 5):
        for e in range(1, p):
            if (p - 1) % e:
                continue
            i = (p - 1) // e
            E = eisenstein_make(p, "explicit", [p] + [0] * (e - 1) + [1])
            S = DpRing(E, 1, h=i, D=3 * p * e)
            x = S.from_int_poly([0] * (e * p - 1) + [1]).reduce_prec(1)
            val = s_phi_div(x, i)
            if e == 1:
                c = (S.c1() ** (p - 1)).reduce_prec(1)
                assert (val - c).is_zero(), (p, e, i)
            else:
                assert val.is_zero(), (p, e, i)


# ---------------------------------------------------------------------------
# 9. Witt layer
# ---------------------------------------------------------------------------


def _primes_upto(bound):
    out = []
    for x in range(2, bound + 1):
        if all(x % d for d in range(2, int(x ** 0.5) + 1)):
            out.append(x)
    return out


@criterion(9)
def test_criterion_9_witt_exhaustive():
    for p in _primes_upto(64):
        n = 1
        while p ** n <= 4096:
            m = 1
            while p ** (n * m) <= 4096:
                W = WittRing(p, n, m)
                for x in W.elements():
                    y = x
                    for _ in range(m):
                        y = W.sigma(y)
                    assert y == x, (p, n, m, x)
                    diff = W.sigma(x) - x ** p
                    assert all(c % p == 0 for c in diff.coeffs), (p, n, m, x)
                m += 1
            n += 1
    # ring axioms on 10^3 random triples
    rng = random.Random(9)
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7])
        W = WittRing(p, rng.randrange(1, 3), rng.randrange(1, 3))
        a, b, c = (W.elem([rng.randrange(W.q) for _ in range(W.m)])
                   for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * W.one() == a and a + W.zero() == a
        assert W.sigma(a * b) == W.sigma(a) * W.sigma(b)
        assert W.sigma(a + b) == W.sigma(a) + W.sigma(b)


# ---------------------------------------------------------------------------
# 10. fixed points under scalar extension
# ---------------------------------------------------------------------------


def _phi_matrix_oracle(V, t):
    """F_p-matrix of phi on V tensored with F_{p^t}, built independently."""
    p, m, d = V.p, V.m, V.d
    F, Ft = V.field, WittRing(p, 1, t)
    genm, gent = F.gen(), Ft.gen()
    D = d * m * t
    idx = lambda s, a, c: (s * m + a) * t + c
    Phi = [[0] * D for _ in range(D)]
    for s in range(d):
        for a in range(m):
            xpart = F.sigma(genm ** a)
            for c in range(t):
                ypart = gent ** (p * c)
                colv = idx(s, a, c)
                for i in range(d):
                    w = V.A[i][s] * xpart
                    for j in range(m):
                        for cc in range(t):
                            v = (w.coeffs[j] * ypart.coeffs[cc]) % p
                            if v:
                                Phi[idx(i, j, cc)][colv] = (
                                    Phi[idx(i, j, cc)][colv] + v) % p
    return Phi


def _fp_rank(rows, p):
    rows = [list(r) for r in rows]
    rank, cols = 0, len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@criterion(10)
def test_criterion_10_fixed_points():
    rng = random.Random(1010)
    done = 0
    while done < 20:
        p, m = rng.choice([(2, 1), (3, 1), (2, 2)])
        d = rng.randrange(1, 4)
        A = _random_invertible(rng, d, p) if m == 1 else [
            [[rng.randrange(p) for _ in range(m)] for _ in range(d)]
            for _ in range(d)]
        try:
            V = EtalePhiModule(p, m, d, A)
            t_star, basis = etale_fixed_points(V, 6)
        except (IllFormedPhi, BoundTooSmall):
            # singular draws, and Frobenius orbits longer than the extension
            # budget (e.g. order-7 classes in GL_3(F_2)), are not instances
            continue
        assert t_star <= 6
        assert len(basis) == m * d
        # independent oracle: rebuild phi as an F_p-matrix
        Phi = _phi_matrix_oracle(V, t_star)
        D = len(Phi)
        for v in basis:
            img = [sum(Phi[r][c] * v[c] for c in range(D)) % p
                   for r in range(D)]
            assert img == [x % p for x in v]
        assert _fp_rank(basis, p) == m * d
        # exhaustive enumeration when the ambient space is desk-sized
        if p ** D <= 4096:
            count = 0
            vec = [0] * D
            for code in range(p ** D):
                x = code
                for r in range(D):
                    vec[r] = x % p
                    x //= p
                img = [sum(Phi[r][c] * vec[c] for c in range(D)) % p
                       for r in range(D)]
                if img == vec:
                    count += 1
            assert count == p ** (m * d)
        done += 1
