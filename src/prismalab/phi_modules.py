"""Finitely presented phi-modules over the truncated series ring.

A module is given by generators and relation columns over W_n[[u]] together
with a matrix for the semilinear map phi.  Once a kill certificate (p^a, u^b)
or a declared torsion bound is available, every query reduces to Z/p^n
linear algebra on the basis u^t * x^j * gen_s below a u-degree bound; the
certificate guarantees the truncation is faithful.  A model vector is one
block of N*m ints per generator, the flat SeriesElem.vec of its series cut
at u^N, so x^j u^t gen_s sits at (s*N + t)*m + j: u^k shifts each block by
k*m entries and x acts on each m-slice as an m x m matrix.  The x^a and
sigma(x)^a multiples and the linearized Frobenius are taken with the
helpers of witt_base.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import (
    BoundTooSmall, IllFormedPhi, Inconsistent, InputError, NotKilledByP,
    PrecisionTooLow,
)
from .linalg_residue import (
    factor, howell_form, in_span, span_length,
)
from .series_rings import SeriesElem, phi_apply
from .witt_base import WittRing, _multiples, _semilinear_matrix

# A model is dense: its relation rows hold (relation count * N * m) x dim
# cells before the Howell form runs, so a relation of high u-degree in a
# small document would exhaust memory with no report.  2^24 cells is about
# 57 times the largest model of the benchmark corpus and still passes a
# 1 x 1 module with relation u^4000.
MODEL_CELL_BUDGET = 2 ** 24


def check_model_size(g, N, m, relations):
    """Refuse (InputError) the model of a module of g generators and the
    given number of relation columns, cut at u^N over a ring of degree m,
    when its relation rows would exceed MODEL_CELL_BUDGET cells."""
    nrows, dim = relations * N * m, g * N * m
    if nrows * dim > MODEL_CELL_BUDGET:
        raise InputError(
            f"model too large: g={g}, N={N}, m={m} give {nrows} "
            f"relation rows of {dim} cells, over the budget of "
            f"{MODEL_CELL_BUDGET} cells")


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
            N = max(max((e.degree() for rows in (self.relations, self.phi)
                         for row in rows for e in row), default=0) + 1, 2)
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

    def _validate(self, first=0):
        """phi maps each relation from index first on into the relation
        span, and the generators obey killed_by."""
        mdl = self.model()
        for r, col in enumerate(self.relations[first:], first):
            if not mdl.member(mdl.phi_vec(mdl.vec(col))):
                raise IllFormedPhi(
                    f"phi image of relation {r} leaves the relation span")
        if self.killed_by is not None:
            a, b = self.killed_by
            pa = pow(self.ring.p, a, mdl.q)  # a may be huge
            for i in range(self.g):
                gi = mdl.gen_vec(i)
                pv = [(x * pa) % mdl.q for x in gi]
                if not mdl.member(pv):
                    raise NotKilledByP(f"p^{a} does not kill generator {i}")
                if b is not None:
                    if b >= self.N:
                        raise PrecisionTooLow(
                            "kill exponent not below the u-degree bound")
                    if not mdl.member(mdl.u_shift(gi, b)):
                        raise InputError(
                            f"u^{b} does not kill generator {i}")

    def __repr__(self):
        return (f"PhiModule(g={self.g}, rels={len(self.relations)}, "
                f"N={self.N}, over {self.ring!r})")


def _u_shift(v, k, N, m):
    """u^k times the flat vector v, in blocks of N*m entries cut at u^N."""
    if k == 0:
        return list(v)
    if k >= N:
        return [0] * len(v)
    w, pad = N * m, [0] * (k * m)
    out = []
    for base in range(0, len(v), w):
        out += pad
        out += v[base:base + w - len(pad)]
    return out


def _s_multiples(v, N, W, q):
    """The u^t x^a multiples of the flat vector v, in blocks of N*m entries
    over W, at index a*N + t (t < N, a < m): they span the S-multiples of
    v."""
    xs = _multiples(v, W._gen_matrices()[0], q)
    return [_u_shift(x, t, N, W.m) for x in xs for t in range(N)]


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
        check_model_size(M.g, N, W.m, len(M.relations))
        self._phi_img = None
        # the u^t x^j multiples of different relations often coincide or
        # vanish; the Howell form depends only on their span
        rows = dict.fromkeys(tuple(r) for col in M.relations
                             for r in self.column_rows(col))
        rows.pop((0,) * self.dim, None)
        self.H = howell_form(list(rows), self.p, nexp)

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
        return _u_shift(v, k, self.N, self.m)

    def column_rows(self, col):
        """Spanning vectors for all S-multiples of the element col."""
        return _s_multiples(self.vec(col), self.N, self.W, self.q)

    def phi_vec(self, v):
        N, m = self.N, self.m
        if self._phi_img is None:
            g, sx = self.M.g, self.W._gen_matrices()[1]
            self._phi_img = [
                _multiples(self.vec([self.M.phi[i][s] for i in range(g)]),
                           sx, self.q) for s in range(g)]
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
        return in_span(self.H, v, self.p, self.nexp)

    def length(self):
        return self.dim * self.nexp - span_length(self.H, self.p, self.nexp)

    def submodule_kernel_of_u_power(self, b):
        """Vectors of ker(u^b) on the module, computed at headroom N + b.

        Returns a Howell span in this model's coordinates that contains the
        relation span.  With the coordinates u^t, t < b, of every block
        moved to the front, the Howell rows of the relations that vanish
        there span the relations u^b x (Howell property); their tails are x.
        """
        big = FiniteModel(self.M, self.N + b, self.nexp)
        bw, sh = big.N * self.m, b * self.m
        order = sorted(range(big.dim), key=lambda i: i % bw >= sh)
        H = howell_form([[h[i] for i in order] for h in big.H],
                        self.p, self.nexp)
        k = big.dim - self.dim
        tails = [r[k:] for r in H if not any(r[:k])]
        return howell_form(tails + list(self.H), self.p, self.nexp)


# ---------------------------------------------------------------------------
# submodule extraction
# ---------------------------------------------------------------------------


def _minimal(vecs, rel, N, W, p, nexp):
    """The S-multiples of each vector of vecs (flat, in blocks of N*m over
    W) that is not in the span of rel, (p, u) times the S-multiples of all
    of vecs, and the S-multiples of the vectors kept before it.  With Y the
    span of all and X that of the kept ones and rel, X + (p, u)Y = Y, so
    Y = X + (p, u)^k Y = X since u^N and p^nexp are zero (Nakayama)."""
    q = p ** nexp
    mults = [_s_multiples(v, N, W, q) for v in vecs]
    base = list(rel)
    for ms in mults:
        base.extend(x for k, x in enumerate(ms) if k % N)
        if nexp > 1:
            base.extend([(a * p) % q for a in x] for x in ms[::N])
    H = howell_form(base, p, nexp)
    kept = []
    for v, ms in zip(vecs, mults):
        if not in_span(H, v, p, nexp):
            kept.append(ms)
            H = howell_form(H + ms[::N], p, nexp)
    return kept


def presentation_from_generators(M, mdl, gens, killed_by=None):
    """Minimal PhiModule presentation of the submodule spanned by the
    coordinate vectors gens.  p and u are nilpotent on it and on its module
    of relations, so by Nakayama's lemma a set generates iff it does modulo
    (p, u); _minimal keeps a basis over F_{p^m} of each quotient."""
    W, N = mdl.W, mdl.N
    kept = _minimal(gens, mdl.H, N, W, mdl.p, mdl.nexp)
    if not kept:
        return PhiModule.zero(W)
    r, m = len(kept), W.m
    # the layout (s*N + t)*m + a of to_column
    cols = [ms[a * N + t] for ms in kept for t in range(N) for a in range(m)]
    # relations: combinations of the generator multiples that die in M
    F = factor(cols + list(mdl.H), mdl.p, mdl.nexp)
    rels = [k[:len(cols)] for k in F.kernel()]
    rel_cols = [mdl.to_column(ms[0], g=r)
                for ms in _minimal(rels, [], N, W, mdl.p, mdl.nexp)]
    phi_cols = [mdl.to_column(F.solve(mdl.phi_vec(ms[0]))[:len(cols)], g=r)
                for ms in kept]
    return PhiModule(W, r, rel_cols, list(zip(*phi_cols)),
                     killed_by=killed_by, N=N, validate=False)


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

    def kills(alpha):
        return all(mdl.member(mdl.u_shift(mdl.gen_vec(i), alpha))
                   for i in range(M.g))

    if not kills(b):
        raise Inconsistent("certified kill exponent fails in the model")
    # kills is monotone in alpha, so bisect for its least true value
    return bisect_left(range(b), True, key=kills)


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
            for r in _multiples(at_u0(col), W._gen_matrices()[0], q)]
    images = [at_u0([M.phi[i][j] for i in range(g)]) for j in range(g)]
    return rel0, _semilinear_matrix(images, W)


def boundary_structure_check(M, e=None, i=None):
    """(p,u)-annihilation and bijectivity of phi mod (p, u).

    phi-bar is an F_p-linear endomorphism of the finite space M/(p, u), well
    defined since M passed _validate, so it is bijective iff it is onto:
    iff its images and the relations mod p span all g*m coordinates.
    """
    p = M.ring.p
    if e is not None and i is not None and e * (i - 1) != p - 1:
        raise InputError("boundary case requires e(i-1) = p-1")
    mdl = M.model()
    kills = all(mdl.member(mdl.u_shift(mdl.gen_vec(s), 1))
                and mdl.member([(x * p) % mdl.q
                                for x in mdl.gen_vec(s)])
                for s in range(M.g))
    rel0, F = _mod_u_data(M, mdl)
    H = howell_form([*zip(*F), *rel0], p, 1)
    bij = span_length(H, p, 1) == len(F)
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
        if h < 0:
            raise InputError(f"height must be at least 0, got {h}")
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
    # square-and-multiply mod u^N: truncation commutes with products, so
    # this is E^h mod u^N exactly, in O(log h) products
    Eh = K.eis.series(W).truncate(N) ** K.h
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
    rows = [r for col in M.relations
            for r in mdl.column_rows([phi_apply(e, N) for e in col])]
    Hphi = howell_form(rows, W.p, W.n)
    C2 = matmul(K.psi, M.phi)
    for j in range(g):
        col = [C2[i][j] - target[i][j] for i in range(g)]
        if not in_span(Hphi, mdl.vec(col), W.p, W.n):
            return False
    return True


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
        # F is phi = A sigma over F_p; sigma is bijective, so phi is
        # bijective iff A is invertible iff F has full rank
        self.F = _semilinear_matrix(
            [[c for i in range(d) for c in self.A[i][k].coeffs]
             for k in range(d)], self.field)
        if span_length(howell_form(self.F, p, 1), p, 1) != d * m:
            raise IllFormedPhi("A is singular; phi is not bijective")


def etale_fixed_points(V, t_max):
    """Smallest scalar extension where the fixed space reaches full size.

    Tensors V over F_p with F_{p^t}, solves phi(x) = x as an F_p-linear
    system, and returns (t*, basis vectors) once the F_p-dimension m*d is
    attained.  On the coordinates y^c x^a e_s, indexed (s*m + a)*t + c,
    phi is the Kronecker product of V.F with the matrix of y -> y^p on
    F_{p^t}.
    """
    p, m, d = V.p, V.m, V.d
    for t in range(1, t_max + 1):
        Y = WittRing(p, 1, t)._sigma_matrix()
        cols = [[frow[j] * yrow[c] % p for frow in V.F for yrow in Y]
                for j in range(m * d) for c in range(t)]
        for i, col in enumerate(cols):
            col[i] = (col[i] - 1) % p
        K = factor(cols, p, 1).kernel()
        if len(K) == m * d:
            return t, K
    raise BoundTooSmall(
        f"fixed space did not reach dimension {m * d} by t = {t_max}")
