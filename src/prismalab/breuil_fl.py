"""Filtered modules over W_n and over the mod-p divided-power ring.

FLModule is a W_n-module with a finite filtration and divided Frobenii
phi_i.  BreuilModule is a free module over the truncated divided-power
ring S_1 with a filtration submodule Fil, the divided Frobenius phi_h
given on its generators, and an optional connection.  The base change
of an FL module into Breuil modules (fl_to_breuil) and the
residual-module construction live here.

Both phi_i on Fil^i and phi_h on Fil are semilinear maps given on
generators, and each is posed as a linalg_residue.factor system: the
generators' multiples are the vectors and their images under the map the
images.  One elimination then evaluates the map (solve, which raises
Inconsistent off the span) and decides that it is well defined (kernel,
the images of the syzygies, must vanish modulo the relations).
is_fl_module factors the graph G_i of each phi_i once and reads the
chain axiom, well-definedness and phi_i = p phi_{i+1} on Fil^{i+1} from
it; only generation takes a span of its own.
"""

from __future__ import annotations

import math

from .errors import BadRamification, Inconsistent, InputError
from .linalg_residue import factor, howell_form, in_span, span_length
from .phi_modules import EtalePhiModule, etale_fixed_points
from .series_rings import DpRing, eisenstein_make
from .witt_base import _multiples, int_poly_pow


# ---------------------------------------------------------------------------
# free modules over the truncated divided-power ring, mod p
# ---------------------------------------------------------------------------


class BreuilModule:
    """Free S_1^r with Fil generators, phi_h on them, optional nabla."""

    def __init__(self, S, r, h, fil_gens, phi_gens, nabla=None):
        self.S = S
        self.r = r
        self.h = h
        self.fil_gens = [tuple(v) for v in fil_gens]
        self.phi_gens = [tuple(v) for v in phi_gens]
        self.nabla = nabla
        if len(self.fil_gens) != len(self.phi_gens):
            raise InputError("phi images must align with Fil generators")
        self.p = S.p
        self.dim = r * S.dim
        self._fil = None

    # -- coordinates (mod p) ------------------------------------------------

    def vec(self, v):
        return [a % self.p for c in v for a in c.vec]

    def basis_vector(self, i):
        v = [self.S.zero() for _ in range(self.r)]
        v[i] = self.S.one()
        return v

    def scale_vector(self, s, v):
        return [s * c for c in v]

    def s_multiples(self, v):
        """Coordinate rows spanning the S-multiples of the vector v."""
        return self.S.s_multiples([c.vec for c in v], self.p)

    def _fil_data(self):
        """The graph of phi_h on Fil as a factor system.

        Each Fil generator g is expanded over the F_p-basis x^a b_t of S:
        the vectors are the x^a b_t g, with images phi(x^a b_t) phi_h(g).
        """
        if self._fil is None:
            S, p, src, dst = self.S, self.p, [], []
            for g, img in zip(self.fil_gens, self.phi_gens):
                src += self.s_multiples(g)
                dst += S.s_multiples([c.vec for c in img], p, frob=True)
            self._fil = factor(src, p, 1, images=dst)
        return self._fil

    def fil_contains(self, v):
        try:
            self._fil_data().solve(self.vec(v))
        except Inconsistent:
            return False
        return True

    def phi_h_consistent(self):
        """phi_h is well defined: a free module has no relations, so every
        syzygy of the Fil generators must map to zero."""
        return not self._fil_data().kernel()

    def phi_h_generates(self):
        """The S-span of phi_h(Fil) is the whole module, decided on the
        residue field by Nakayama's lemma.

        The truncated ring S_D is local: its maximal ideal I is spanned by
        the x^a b_t with t >= 1, and I^D = 0, since b_t b_s lies in
        F_p b_{t+s}, which is zero at t + s >= D.  So if the S-span N of
        the images has N + I S^r = S^r, then S^r = N + I^k S^r for every
        k, and k = D gives N = S^r.  The images therefore generate iff
        their b_0 slices span (S/I)^r = F_{p^m}^r over F_{p^m}: exactly
        the verdict of the S-span of all their S-multiples, from m rows of
        width r m per image instead of D m rows of width r D m.
        """
        S, p, m = self.S, self.p, self.S.m
        x = S.ring._gen_matrices()[0]
        rows = [r for img in self.phi_gens
                for r in _multiples([a % p for c in img for a in c.vec[:m]],
                                    x, p)]
        return span_length(howell_form(rows, p, 1), p, 1) == self.r * m

    def phi_h(self, v):
        """phi_h of a vector in Fil; raises Inconsistent when v is not in
        Fil."""
        img = self._fil_data().solve(self.vec(v))
        k = self.S.dim
        return [self.S.from_vec(img[i * k:(i + 1) * k], prec=1)
                for i in range(self.r)]

    def nabla_vector(self, v):
        """Connection by the Leibniz rule from the basis matrix."""
        S = self.S
        out = [S.nabla(c) for c in v]
        for j in range(self.r):
            cj = v[j]
            if cj.reduce_prec(1).is_zero():
                continue
            for i in range(self.r):
                out[i] = out[i] + cj * self.nabla[i][j]
        return out

    def __repr__(self):
        return f"BreuilModule(r={self.r}, h={self.h}, over {self.S!r})"


def is_breuil_module(B):
    """All axioms of the mod-p Breuil category; returns (ok, failing).

    The conditions on Fil^h S run over its ideal generators gamma_j(E)
    (S.fil_gamma_indices), not over every Howell row, and still certify
    all of Fil^h S: both are S-linear in s.  Fil is an S-module, so
    s' s x lies in Fil when s x does; and phi_h(s' y) = phi(s') phi_h(y)
    on Fil while phi_h(s' s) = phi(s') phi_h(s) on Fil^h S, so both sides
    of the functional equation at s' s are phi(s') times their values at
    s.  The nabla loop likewise sees only the Fil generators, S-module
    generators at least, and still certifies all of Fil: N is a
    derivation, Fil is an S-module, and N(phi(s)) and phi(E N(s)) vanish
    mod p, so each nabla condition at s g follows from the one at g (see
    the README notes)."""
    if B.r == 0:
        return True, None
    S = B.S
    p = B.p
    # Fil must contain Fil^h S times the module
    js = S.fil_gamma_indices(B.h)
    gens = [S.gamma(j).reduce_prec(1) for j in js]
    for i in range(B.r):
        for g in gens:
            v = [S.zero() for _ in range(B.r)]
            v[i] = g
            if not B.fil_contains(v):
                return False, "fil-contains-filS"
    if not B.phi_h_consistent():
        return False, "phi-not-well-defined"
    # functional equation phi_h(s x) = c1^{-h} phi_h(s) phi_h(E^h x), on
    # every ideal generator s of Fil^h S and every basis vector x
    c1ih = (S.c1_inv() ** B.h).reduce_prec(1)
    Eh = S.from_int_poly(int_poly_pow(list(S.eis.int_coeffs), B.h))
    mids = [B.phi_h(B.scale_vector(Eh.reduce_prec(1), B.basis_vector(i)))
            for i in range(B.r)]
    for j, s in zip(js, gens):
        fs = (c1ih * S.phi_gamma(j, B.h)).reduce_prec(1)
        for i in range(B.r):
            lhs = B.phi_h(B.scale_vector(s, B.basis_vector(i)))
            if any(not (a - fs * b).reduce_prec(1).is_zero()
                   for a, b in zip(lhs, mids[i])):
                return False, "functional-equation"
    # generation: the S-span of phi_h(Fil) is everything
    if not B.phi_h_generates():
        return False, "generation"
    if B.nabla is not None:
        Eel = S.from_int_poly(list(S.eis.int_coeffs)).reduce_prec(1)
        upm1 = S.from_int_poly([0] * (p - 1) + [1]).reduce_prec(1)
        c1 = S.c1().reduce_prec(1)
        for g in B.fil_gens:
            ng = B.nabla_vector(g)
            Eng = B.scale_vector(Eel, ng)
            if not B.fil_contains(Eng):
                return False, "nabla-fil"
            lhs = [(c1 * c).reduce_prec(1)
                   for c in B.nabla_vector(B.phi_h(g))]
            rhs = [(upm1 * c).reduce_prec(1) for c in B.phi_h(Eng)]
            # the top u-coordinate is excluded: the derivative of the
            # dropped degree-D coefficient lands there, so the truncated
            # model cannot certify it
            for a, b in zip(lhs, rhs):
                d = a - b
                if any(x % p for x in d.vec[:(S.D - 1) * S.m]):
                    return False, "nabla-square"
    return True, None


# ---------------------------------------------------------------------------
# Fontaine-Laffaille modules over W_n
# ---------------------------------------------------------------------------


class FLModule:
    """W_n-module sum of W/p^{c_t} with a filtration and divided Frobenii.

    fil[i] (1 <= i <= h) lists generator vectors of Fil^i; Fil^0 is the
    whole module.  phi[i] lists the phi_i images of those generators
    (phi[0] is indexed by the standard basis).
    """

    def __init__(self, W, divisors, h, fil, phi):
        self.W = W
        self.divisors = list(divisors)
        self.g = len(self.divisors)
        self.h = h
        self.fil = {i: [tuple(v) for v in fil.get(i, [])]
                    for i in range(1, h + 1)}
        self.phi = {i: [tuple(v) for v in phi.get(i, [])]
                    for i in range(h + 1)}
        if len(self.phi.get(0, [])) != self.g:
            raise InputError("phi_0 must be given on the standard basis")
        for i in range(1, h + 1):
            if len(self.phi[i]) != len(self.fil[i]):
                raise InputError(f"phi_{i} must align with Fil^{i}")
        self.p = W.p
        self.m = W.m
        self.dim = self.g * W.m
        self._rel = None

    def fil_gens(self, i):
        if i <= 0:
            return [self.basis_vector(t) for t in range(self.g)]
        if i > self.h:
            return []
        return self.fil[i]

    def phi_images(self, i):
        return self.phi[i] if i <= self.h else []

    def basis_vector(self, t):
        v = [self.W.zero() for _ in range(self.g)]
        v[t] = self.W.one()
        return v

    def vec(self, v):
        return [a for c in v for a in c.coeffs]

    def relation_rows(self):
        if self._rel is None:
            rows = []
            for t, c in enumerate(self.divisors):
                if c < self.W.n:
                    for j in range(self.m):
                        v = [0] * self.dim
                        v[t * self.m + j] = self.W.p ** c
                        rows.append(v)
            self._rel = howell_form(rows, self.p, self.W.n)
        return self._rel

    def w_span(self, gens):
        """Howell span of the W-module generated by gens (mod relations)."""
        rows = list(self.relation_rows())
        x = self.W._gen_matrices()[0]
        for v in gens:
            rows.extend(_multiples(self.vec(v), x, self.W.q))
        return howell_form(rows, self.p, self.W.n)

    def _graph(self, gens, images):
        """The graph of a semilinear map as a factor system.

        Generator f is expanded over the W-basis x^j: the vectors are the
        x^j f, with images sigma(x^j) phi(f), and the relations, with
        image 0.  The kernel spans the images of all syzygies.
        """
        W = self.W
        x, sx = W._gen_matrices()
        src = list(self.relation_rows())
        dst = [[0] * self.dim for _ in src]
        for f, im in zip(gens, images):
            src += _multiples(self.vec(f), x, W.q)
            dst += _multiples(self.vec(im), sx, W.q)
        return factor(src, self.p, W.n, images=dst)


def is_fl_module(M):
    """The three category axioms; returns (ok, failing axiom).

    Each phi_i is read from one factor system, its graph G_i on Fil^i
    (FLModule._graph).  Axiom 1, Fil^{i+1} inside Fil^i: G_i solves each
    generator of Fil^{i+1}.  phi_i is well defined: the kernel of G_i, the
    images of the syzygies, lies in the relations.  Axiom 2: G_i's value
    at a generator of Fil^{i+1} is p times its phi_{i+1} image modulo the
    relations.  Axiom 3, that the images generate, is one span.
    """
    rel, p, n = M.relation_rows(), M.p, M.W.n
    G = [M._graph(M.fil_gens(i), M.phi_images(i)) for i in range(M.h + 1)]
    # axiom 1: decreasing chain
    for i in range(M.h):
        for v in M.fil_gens(i + 1):
            try:
                G[i].solve(M.vec(v))
            except Inconsistent:
                return False, "axiom1-chain"
    # well-definedness of each phi_i
    for Gi in G:
        if not all(in_span(rel, k, p, n) for k in Gi.kernel()):
            return False, "phi-not-well-defined"
    # axiom 2: phi_i restricted to Fil^{i+1} equals p phi_{i+1}; a graph
    # with no vectors has no image block, and solves only zero
    for i in range(M.h):
        for v, im in zip(M.fil_gens(i + 1), M.phi_images(i + 1)):
            via_i = G[i].solve(M.vec(v)) or [0] * M.dim
            if not in_span(rel, [a - p * b for a, b in zip(via_i, M.vec(im))],
                           p, n):
                return False, "axiom2"
    # axiom 3: the phi images generate the module (their lifts plus the
    # relation rows must span the whole lattice)
    gens = []
    for i in range(M.h + 1):
        gens.extend(M.phi_images(i))
    H = M.w_span(gens)
    if span_length(H, p, n) != M.dim * n:
        return False, "axiom3"
    return True, None


# ---------------------------------------------------------------------------
# base change into Breuil modules
# ---------------------------------------------------------------------------


def fl_to_breuil(M, eis=None, D=None):
    """Fil^h = sum_i Fil^i S tensor Fil^{h-i} M, with the product phi_h."""
    if M.W.n != 1:
        raise InputError("the Breuil layer is mod p")
    h = M.h
    if eis is None:
        eis = eisenstein_make(M.p, "explicit", [M.p, 1])
    S = DpRing(eis, 1, m=M.m, f=M.W.f, D=D, h=h)
    conv = lambda wv: [S.ring.elem(list(c.coeffs)) for c in wv]
    fil_gens, phi_gens = [], []
    for i in range(h + 1):
        pairs = [(conv(f), conv(im))
                 for f, im in zip(M.fil_gens(h - i), M.phi_images(h - i))]
        # ideal generators of Fil^i S (1 at i = 0); _fil_data adds S-multiples
        for j in S.fil_gamma_indices(i) if i else [0]:
            sm = S.gamma(j).reduce_prec(1)
            fs = S.phi_gamma(j, i)
            for f, im in pairs:
                fil_gens.append([sm.scale_w(w) for w in f])
                phi_gens.append([fs.scale_w(w) for w in im])
    nabla = [[S.zero()] * M.g for _ in range(M.g)]
    return BreuilModule(S, M.g, h, fil_gens, phi_gens, nabla=nabla)


def fl_criterion(M, eis=None, D=None):
    """Decide the FL axioms after base change: phi_h must be well defined
    on the product filtration and its image must generate."""
    B = fl_to_breuil(M, eis=eis, D=D)
    if B.r == 0:
        return True
    if not B.phi_h_consistent():
        return False
    return B.phi_h_generates()


# ---------------------------------------------------------------------------
# residual modules
# ---------------------------------------------------------------------------


class ResidualModule:
    """Frob*V tensored with the u^p-torsion of S_1, with the boundary phi."""

    def __init__(self, V, e, eis=None, D=None):
        p = V.p
        if e < 1 or (p - 1) % e:
            raise BadRamification("e must divide p - 1")
        self.V = V
        self.e = e
        self.h = (p - 1) // e
        if eis is None:
            eis = eisenstein_make(p, "explicit", [p] + [0] * (e - 1) + [1])
        if eis.e != e:
            raise BadRamification("Eisenstein degree does not match e")
        self.S = DpRing(eis, 1, m=V.m, f=list(V.field.f), D=D, h=self.h)
        self.breuil = None
        if e == 1:
            S = self.S
            d = V.d
            c1h = (S.c1() ** (p - 1)).reduce_prec(1)
            conv = lambda w: S.ring.elem(list(w.coeffs))
            fil_gens, phi_gens = [], []
            for j in range(d):
                v = [S.zero() for _ in range(d)]
                v[j] = S.one()
                fil_gens.append(v)
                phi_gens.append([c1h.scale_w(conv(V.A[i][j]))
                                 for i in range(d)])
            dlog = (S.from_int_poly([0] * (p - 1) + [1])
                    * S.c1_inv()).reduce_prec(1)
            nabla = [[dlog if i == j else S.zero() for j in range(d)]
                     for i in range(d)]
            self.breuil = BreuilModule(S, d, self.h, fil_gens, phi_gens,
                                       nabla=nabla)

    def u_p_torsion_count(self):
        """k-dimension of the u^p-torsion of S_1 on the faithful range.

        u^p b_i is a p-multiple of b_{i+p} exactly when p divides
        e(i+p)!/e(i)!; only coordinates with i + p < D are counted, since
        higher ones truncate away.
        """
        S = self.S
        cnt = 0
        for i in range(S.D - S.p):
            fac = (math.factorial(S.ei(i + S.p))
                   // math.factorial(S.ei(i)))
            if fac % S.p == 0:
                cnt += S.m
        return cnt

    def length_check(self):
        """Length data: dim V ranks, each contributing the torsion count."""
        per = self.u_p_torsion_count()
        return {"dim_V": self.V.d, "torsion_per_rank": per,
                "total": self.V.d * per}


def residual_module(V, e, eis=None, D=None):
    return ResidualModule(V, e, eis=eis, D=D)


def unramified_realization(B, t_max):
    """Fixed points of the residual Frobenius after reduction mod I_+."""
    if B.e != 1:
        raise BadRamification("the realization needs the e = 1 layer")
    V = B.V
    S = B.S
    p = V.p
    c0 = S.c1().coords[0]
    scal = V.field.elem([a % p for a in (c0 ** (p - 1)).coeffs])
    A = [[V.A[i][j] * scal for j in range(V.d)] for i in range(V.d)]
    Vbar = EtalePhiModule(p, V.m, V.d, A, f=list(V.field.f))
    t_star, basis = etale_fixed_points(Vbar, t_max)
    return {"t_star": t_star, "dimension": len(basis), "basis": basis}
