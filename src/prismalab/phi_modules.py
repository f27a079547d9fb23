"""Finitely presented phi-modules over the truncated series ring.

A module is given by generators and relation columns over W_n[[u]] together
with a matrix for the semilinear map phi.  Once a kill certificate (p^a, u^b)
or a declared torsion bound is available, every query reduces to Z/p^n
linear algebra on the basis u^t * x^j * gen_s below a u-degree bound; the
certificate guarantees the truncation is faithful.  A model vector is one
block of N*m ints per generator, the flat SeriesElem.vec of its series cut
at u^N, so x^j u^t gen_s sits at (s*N + t)*m + j: u^k shifts each block by
k*m entries and x acts on each m-slice as an m x m matrix.
"""

from __future__ import annotations

from .errors import (
    BoundTooSmall, IllFormedPhi, Inconsistent, InputError, NotKilledByP,
    PrecisionTooLow,
)
from .linalg_residue import (
    direct_sum_rows, factor, howell_form, in_span, kernel_solve,
    span_length,
)
from .series_rings import SeriesElem, phi_apply
from .witt_base import WittRing, _blockwise

# A model is dense: its relation rows hold (relation count * N * m) x dim
# cells before the Howell form runs, so a relation of high u-degree in a
# small document would exhaust memory with no report.  2^24 cells is about
# 57 times the largest model of the benchmark corpus and still passes a
# 1 x 1 module with relation u^4000.
MODEL_CELL_BUDGET = 2 ** 24


class PhiModule:
    """coker of the relation matrix, with phi(gen_j) = sum_i Phi[i][j] gen_i."""

    def __init__(self, ring, g, relations, phi, killed_by=None,
                 torsion_bound=None, N=None, validate=True):
        self.ring = ring
        self.g = g
        self.relations = [tuple(col) for col in relations]
        self.phi = [list(row) for row in phi] if g else []
        for col in self.relations:
            if len(col) != g:
                raise InputError("relation column length must equal g")
        if g and (len(self.phi) != g or any(len(r) != g for r in self.phi)):
            raise InputError("phi must be a g x g matrix")
        self.killed_by = killed_by
        if torsion_bound is None and killed_by is not None:
            torsion_bound = killed_by[1]
        self.torsion_bound = torsion_bound
        if N is None:
            maxdeg = 0
            for col in self.relations:
                for e in col:
                    maxdeg = max(maxdeg, e.degree())
            for row in self.phi:
                for e in row:
                    maxdeg = max(maxdeg, e.degree())
            N = max(maxdeg + 1, 2)
            if killed_by is not None and killed_by[1] is not None:
                N = max(N, killed_by[1] + 1)
        self.N = N
        self._models = {}
        if validate:
            self._validate()

    # -- construction helpers --------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, 0, [], [], killed_by=(0, 0), N=2)

    def direct_sum(self, other):
        if self.ring != other.ring:
            raise InputError("summands over different rings")
        W = self.ring
        z = SeriesElem.from_ints(W, [])
        g = self.g + other.g
        rels = direct_sum_rows(self.relations, other.relations, self.g,
                               other.g, z)
        phi = direct_sum_rows(self.phi, other.phi, self.g, other.g, z)
        kb = None
        if self.killed_by is not None and other.killed_by is not None:
            a = max(self.killed_by[0], other.killed_by[0])
            b1, b2 = self.killed_by[1], other.killed_by[1]
            kb = (a, None if b1 is None or b2 is None else max(b1, b2))
        tb = None
        if self.torsion_bound is not None and other.torsion_bound is not None:
            tb = max(self.torsion_bound, other.torsion_bound)
        return PhiModule(W, g, rels, phi, killed_by=kb, torsion_bound=tb,
                         N=max(self.N, other.N), validate=False)

    # -- models -----------------------------------------------------------

    def model(self, N=None, nexp=None):
        N = self.N if N is None else N
        nexp = self.ring.n if nexp is None else nexp
        key = (N, nexp)
        if key not in self._models:
            self._models[key] = FiniteModel(self, N, nexp)
        return self._models[key]

    def length(self):
        """Z_p-length of the truncated model."""
        return self.model().length()

    # -- validation --------------------------------------------------------

    def _validate(self):
        mdl = self.model()
        for r, col in enumerate(self.relations):
            img = self._phi_column(col)
            if not mdl.member(mdl.vec(img)):
                raise IllFormedPhi(
                    f"phi image of relation {r} leaves the relation span")
        if self.killed_by is not None:
            a, b = self.killed_by
            W = self.ring
            for i in range(self.g):
                gi = mdl.gen_vec(i)
                pv = [(x * W.p ** a) % mdl.q for x in gi]
                if not mdl.member(pv):
                    raise NotKilledByP(f"p^{a} does not kill generator {i}")
                if b is not None:
                    if b >= self.N:
                        raise PrecisionTooLow(
                            "kill exponent not below the u-degree bound")
                    if not mdl.member(mdl.u_shift(gi, b)):
                        raise InputError(
                            f"u^{b} does not kill generator {i}")

    def _phi_column(self, col):
        """phi applied to an element given by its coordinate column."""
        W = self.ring
        out = []
        for i in range(self.g):
            acc = SeriesElem.from_ints(W, [])
            for s in range(self.g):
                acc = acc + (phi_apply(col[s], self.N)
                             * self.phi[i][s]).truncate(self.N)
            out.append(acc)
        return out

    def __repr__(self):
        return (f"PhiModule(g={self.g}, rels={len(self.relations)}, "
                f"N={self.N}, over {self.ring!r})")


class FiniteModel:
    """Z/p^nexp expansion of a module on the basis u^t x^j gen_s, t < N."""

    def __init__(self, M, N, nexp=None):
        self.M = M
        self.N = N
        W = M.ring
        nexp = W.n if nexp is None else nexp
        if nexp < W.n:
            W = W.lower_precision(W.n - nexp)
        self.W = W
        self.nexp = nexp
        self.p = W.p
        self.m = W.m
        self.q = W.q
        self.dim = M.g * N * W.m
        nrows = len(M.relations) * N * W.m
        if nrows * self.dim > MODEL_CELL_BUDGET:
            raise InputError(
                f"model too large: g={M.g}, N={N}, m={W.m} give {nrows} "
                f"relation rows of {self.dim} cells, over the budget of "
                f"{MODEL_CELL_BUDGET} cells")
        self._x_rows = W._mul_matrix(W.gen())
        self._phi_img = None
        # the u^t x^j multiples of different relations often coincide or
        # vanish; the Howell form depends only on their span
        rows = dict.fromkeys(tuple(r) for col in M.relations
                             for r in self.column_rows(col))
        rows.pop((0,) * self.dim, None)
        self.H, _ = howell_form(list(rows), self.p, nexp)

    def idx(self, s, t, j):
        return (s * self.N + t) * self.m + j

    def vec(self, col):
        w, q, v = self.N * self.m, self.q, []
        for e in col:
            x = e.vec[:w] if e.ring.q == q else [a % q for a in e.vec[:w]]
            v += x
            v += [0] * (w - len(x))
        return v + [0] * (self.dim - len(v))

    def to_column(self, v, g=None, N=None):
        """Inverse of vec: coordinates back to series columns."""
        g = self.M.g if g is None else g
        w, q = (self.N if N is None else N) * self.m, self.q
        return [SeriesElem.from_vec(self.W, [a % q for a in v[k:k + w]])
                for k in range(0, g * w, w)]

    def gen_vec(self, i):
        v = [0] * self.dim
        v[self.idx(i, 0, 0)] = 1
        return v

    def u_shift(self, v, k):
        if k == 0:
            return list(v)
        if k >= self.N:
            return [0] * self.dim
        w, pad = self.N * self.m, [0] * (k * self.m)
        out = []
        for base in range(0, self.dim, w):
            out += pad
            out += v[base:base + w - len(pad)]
        return out

    def x_mul(self, v):
        return list(v) if self.m == 1 else _blockwise(self._x_rows, v, self.q)

    def column_rows(self, col):
        """Spanning vectors for all S-multiples of the element col."""
        rows = []
        v = self.vec(col)
        for j in range(self.m):
            if j:
                v = self.x_mul(v)
            rows.extend(self.u_shift(v, t) for t in range(self.N))
        return rows

    def phi_vec(self, v):
        N, m = self.N, self.m
        if self._phi_img is None:
            g, W = self.M.g, self.W
            sx = W._mul_matrix(W.sigma_gen())
            self._phi_img = []
            for s in range(g):
                img = [self.vec([self.M.phi[i][s] for i in range(g)])]
                for _ in range(1, m):
                    img.append(_blockwise(sx, img[-1], self.q))
                self._phi_img.append(img)
        out = [0] * self.dim
        for s in range(self.M.g):
            for t in range(-(-N // self.p)):
                for j in range(m):
                    c = v[(s * N + t) * m + j]
                    if c:
                        sh = self.u_shift(self._phi_img[s][j], self.p * t)
                        out = [a + c * x for a, x in zip(out, sh)]
        return [a % self.q for a in out]

    def member(self, v):
        return in_span(self.H, v, self.p, self.nexp) if self.dim else True

    def length(self):
        return self.dim * self.nexp - span_length(self.H, self.p, self.nexp)

    def submodule_kernel_of_u_power(self, b):
        """Vectors of ker(u^b) on the module, computed at headroom N + b.

        Returns a Howell span in this model's coordinates that contains the
        relation span.
        """
        if self.dim == 0:
            return list(self.H)
        big = FiniteModel(self.M, self.N + b, self.nexp)
        bw, w, sh = big.N * self.m, self.N * self.m, b * self.m
        # u^b sends unit c to unit c + sh, or to 0 past the end of its block
        A = [[int(c == r - sh and r % bw >= sh) for c in range(big.dim)]
             + [h[r] for h in big.H] for r in range(big.dim)]
        K, _ = kernel_solve(A, None, self.p, self.nexp)
        proj = [[a for base in range(0, big.dim, bw) for a in k[base:base + w]]
                for k in K]
        H2, _ = howell_form(proj + list(self.H), self.p, self.nexp)
        return H2


# ---------------------------------------------------------------------------
# submodule extraction
# ---------------------------------------------------------------------------


def presentation_from_generators(M, mdl, gens, killed_by=None):
    """PhiModule presented on the given coordinate vectors of a submodule."""
    if not gens:
        return PhiModule.zero(mdl.W)
    r = len(gens)
    cols = []
    for v in gens:
        xs = [v]
        for _ in range(1, mdl.m):
            xs.append(mdl.x_mul(xs[-1]))
        cols.extend(mdl.u_shift(w, t) for t in range(mdl.N) for w in xs)
    # relations: combinations of the generator multiples that die in M
    F = factor(list(zip(*cols, *mdl.H)), mdl.p, mdl.nexp)
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


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _require_torsion_bound(M):
    if M.torsion_bound is None:
        raise PrecisionTooLow(
            "no certified u-exponent for the torsion part")
    if M.torsion_bound >= M.N:
        raise PrecisionTooLow("torsion bound not below the u-degree bound")
    return M.torsion_bound


def u_torsion(M, nexp=None):
    """The u-power torsion submodule with its induced phi."""
    if M.g == 0:
        return M
    b = _require_torsion_bound(M)
    mdl = M.model(nexp=nexp)
    if b == 0:
        return PhiModule.zero(mdl.W)
    T = mdl.submodule_kernel_of_u_power(b)
    gens = [row for row in T if not mdl.member(row)]
    a = M.killed_by[0] if M.killed_by is not None else M.ring.n
    return presentation_from_generators(M, mdl, gens, killed_by=(a, b))


def annihilator_alpha(M):
    """The alpha with Ann(M) + (p) = (u^alpha, p)."""
    if M.g == 0:
        return 0
    if M.killed_by is None or M.killed_by[1] is None:
        raise PrecisionTooLow("module is not certified finite")
    b = M.killed_by[1]
    if b >= M.N:
        raise PrecisionTooLow("kill exponent not below the u-degree bound")
    mdl = M.model(nexp=1)
    for alpha in range(b + 1):
        if all(mdl.member(mdl.u_shift(mdl.gen_vec(i), alpha))
               for i in range(M.g)):
            return alpha
    raise Inconsistent("certified kill exponent fails in the model")


def check_ann_inclusion(M, i, e):
    """Whether E^{i-1} * Ann(M) lands in the Frobenius pullback of Ann(M).

    Mod p this is the exponent inequality e(i-1) + alpha >= p*alpha; e is
    the ramification index of the Eisenstein polynomial in play.
    """
    alpha = annihilator_alpha(M)
    lhs = e * (i - 1) + alpha
    rhs = M.ring.p * alpha
    return lhs >= rhs, {"alpha": alpha, "lhs": lhs, "rhs": rhs}


def boundary_structure_check(M, e=None, i=None):
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
    Hs, _ = howell_form(rel_small, p, 1) if rel_small else ([], None)
    full, _ = howell_form(phi_cols + Hs, p, 1) if D else ([], None)
    surj = span_length(full, p, 1) == D if D else True
    inj = True
    if D:
        A = [[phi_cols[c][r] for c in range(D)] + [h[r] for h in Hs]
             for r in range(D)]
        K, _ = kernel_solve(A, None, p, 1)
        for k in K:
            x = [k[c] % p for c in range(D)]
            if any(x) and not (Hs and in_span(Hs, x, p, 1)):
                inj = False
                break
    bij = surj and inj
    return {"p_u_annihilates": kills, "phi_bijective": bij,
            "passed": kills and bij}


class ZpShape:
    """Result of zp_shape: exponents or a refutation witness."""

    def __init__(self, exponents=None, refuted=None):
        self.exponents = exponents
        self.refuted = refuted

    @property
    def ok(self):
        return self.refuted is None

    def __repr__(self):
        if self.ok:
            return f"ZpShape({self.exponents})"
        return f"ZpShape(refuted at p-exponent {self.refuted[0]})"


def zp_shape(M):
    """Exponents a_i with M isomorphic to a sum of 𝔖/p^{a_i}, or Refuted."""
    if M.g == 0:
        return ZpShape(exponents=[])
    if M.killed_by is None:
        raise PrecisionTooLow("p-power kill certificate required")
    a = M.killed_by[0]
    b = _require_torsion_bound(M)
    N, m = M.N, M.ring.m
    # the shape requires every mod-p^j reduction to be u-torsion free
    for j in range(1, a + 1):
        mdl = M.model(nexp=j)
        T = mdl.submodule_kernel_of_u_power(b if b else 1)
        witness = next((row for row in T if not mdl.member(row)), None)
        if witness is not None:
            return ZpShape(refuted=(j, witness))
    lengths = [0]
    for j in range(1, a + 1):
        lengths.append(M.model(nexp=j).length())
    counts = []
    for j in range(1, a + 1):
        d = lengths[j] - lengths[j - 1]
        if d % (N * m) or (counts and d // (N * m) > counts[-1]):
            raise Inconsistent("length sequence incompatible with the shape")
        counts.append(d // (N * m))
    counts.append(0)
    exps = []
    for j in range(1, a + 1):
        exps.extend([j] * (counts[j - 1] - counts[j]))
    return ZpShape(exponents=sorted(exps))


# ---------------------------------------------------------------------------
# Kisin modules
# ---------------------------------------------------------------------------


class KisinModule:
    """PhiModule of height <= h, with the E^h-inverse matrix psi."""

    def __init__(self, module, h, psi, eis):
        self.module = module
        self.h = h
        self.psi = [list(row) for row in psi]
        self.eis = eis


def height_check(K):
    """Both composites of (1 tensor phi) and psi equal E^h times identity."""
    M = K.module
    W = M.ring
    g = M.g
    if g == 0:
        return True
    N = M.N
    E = K.eis.series(W)
    Eh = SeriesElem.from_ints(W, [1])
    for _ in range(K.h):
        Eh = (Eh * E).truncate(N)
    mdl = M.model()

    def matmul(A, B):
        return [[sum(((A[i][k] * B[k][j]).truncate(N) for k in range(g)),
                     SeriesElem.from_ints(W, [])).truncate(N)
                 for j in range(g)] for i in range(g)]

    z = SeriesElem.from_ints(W, [])
    target = [[(Eh if i == j else z).truncate(N) for j in range(g)]
              for i in range(g)]

    # (1 tensor phi) compose psi, a self-map of M: compare mod relations
    C1 = matmul(M.phi, K.psi)
    for j in range(g):
        col = [C1[i][j] - target[i][j] for i in range(g)]
        if not mdl.member(mdl.vec(col)):
            return False
    # psi compose (1 tensor phi), a self-map of the pullback: compare mod
    # the phi-twisted relations
    rows = []
    for col in M.relations:
        tw = [phi_apply(e, N) for e in col]
        rows.extend(mdl.column_rows(tw))
    Hphi, _ = howell_form(rows, W.p, W.n) if rows else ([], None)
    C2 = matmul(K.psi, M.phi)
    for j in range(g):
        col = [C2[i][j] - target[i][j] for i in range(g)]
        v = mdl.vec(col)
        if Hphi:
            if not in_span(Hphi, v, W.p, W.n):
                return False
        elif any(v):
            return False
    return True


def phi_pullback(M, N=None):
    """The Frobenius pullback: same generators, phi-twisted relations."""
    N = M.N if N is None else N
    rels = [[phi_apply(e, N) for e in col] for col in M.relations]
    kb = M.killed_by
    if kb is not None and kb[1] is not None:
        kb = (kb[0], M.ring.p * kb[1] if M.ring.p * kb[1] < N else None)
    tb = None
    if M.torsion_bound is not None and M.ring.p * M.torsion_bound < N:
        tb = M.ring.p * M.torsion_bound
    return PhiModule(M.ring, M.g, rels, M.phi, killed_by=kb,
                     torsion_bound=tb, N=N, validate=False)


def twist_u_torsion_iso(M):
    """The map m -> (m tensor 1) * u^{p-1} from M[u] to (phi*M)[u], mod p."""
    W = M.ring
    p, m = W.p, W.m
    _require_torsion_bound(M)
    N = M.N
    N2 = p * N + p
    src = M.model(nexp=1)
    Ksrc = src.submodule_kernel_of_u_power(1)
    src_basis = [row for row in Ksrc if not src.member(row)]
    dim_src = span_length(Ksrc, p, 1) - span_length(src.H, p, 1)

    pull = phi_pullback(M, N=N2)
    tgt = pull.model(nexp=1)
    Ktgt = tgt.submodule_kernel_of_u_power(1)
    dim_tgt = span_length(Ktgt, p, 1) - span_length(tgt.H, p, 1)

    images = []
    for v in src_basis:
        if m > 1:
            v = _blockwise(src.W._sigma_matrix(), v, src.q)
        out = [0] * tgt.dim
        for s in range(M.g):
            for t in range(N):
                base = (s * N + t) * m
                dst = (s * N2 + p * t + p - 1) * m
                out[dst:dst + m] = [a % p for a in v[base:base + m]]
        images.append(out)
    withH, _ = howell_form(images + list(tgt.H), p, 1) if tgt.dim else ([], None)
    rank_img = span_length(withH, p, 1) - span_length(tgt.H, p, 1)
    bij = dim_src == dim_tgt == rank_img
    return {"dim_source": dim_src, "dim_target": dim_tgt,
            "image_rank": rank_img, "bijective": bij}


# ---------------------------------------------------------------------------
# etale phi-modules over finite fields
# ---------------------------------------------------------------------------


class EtalePhiModule:
    """F_{p^m}-space with a semilinear bijective Frobenius, given by A."""

    def __init__(self, p, m, d, A, f=None):
        self.field = WittRing(p, 1, m, f)
        self.p = p
        self.m = m
        self.d = d
        self.A = [[a if not isinstance(a, (int, list)) else
                   self.field.elem(a) for a in row] for row in A]
        if len(self.A) != d or any(len(r) != d for r in self.A):
            raise InputError("A must be d x d")
        if not _invertible_over_field(self.A, self.field):
            raise IllFormedPhi("A is singular; phi is not bijective")


def _invertible_over_field(A, F):
    """Full rank of the F_p-linearization of A over F = F_{p^m}: row (i, s)
    joins row s of the matrices of multiplication by A[i][j]."""
    mats = [[F._mul_matrix(a) for a in row] for row in A]
    rows = [[x for mat in row for x in mat[s]]
            for row in mats for s in range(F.m)]
    H, _ = howell_form(rows, F.p, 1)
    return span_length(H, F.p, 1) == len(rows)


def etale_fixed_points(V, t_max):
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
        K, _ = kernel_solve(A, None, p, 1)
        if len(K) == m * d:
            return t, K
    raise BoundTooSmall(
        f"fixed space did not reach dimension {m * d} by t = {t_max}")
