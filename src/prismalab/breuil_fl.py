"""Filtered modules over W_n and over the mod-p divided-power ring.

FLModule is a W_n-module with a finite filtration and divided Frobenii
phi_i.  BreuilModule is a free module over the truncated divided-power
ring S_1 with a filtration submodule Fil, the divided Frobenius phi_h
given on its generators, and an optional connection.  The two functors
into Breuil modules and the residual-module construction live here.
"""

from __future__ import annotations

import math

from .errors import BadRamification, HasUTorsion, Inconsistent, InputError
from .linalg_residue import (
    direct_sum_rows, howell_form, in_span, kernel_solve, reduce_vector,
    span_length,
)
from .phi_modules import EtalePhiModule, etale_fixed_points
from .series_rings import DpRing, eisenstein_make, int_poly_pow, s_phi_div
from .witt_base import _multiples


# ---------------------------------------------------------------------------
# graphs of semilinear maps
# ---------------------------------------------------------------------------


def _graph_apply(H, d, targets, p, n, msg):
    """Values at the flat vectors targets of the map with Howell graph rows
    H = [source | image], the source being the first d entries: [target | 0]
    is reduced against the rows with a nonzero source, the value is minus
    the image block left, and a nonzero source left raises Inconsistent."""
    q = p ** n
    rows = [r for r in H if any(r[:d])]
    out = []
    for v in targets:
        rem = reduce_vector(rows, v + [0] * d, p, n)
        if any(rem[:d]):
            raise Inconsistent(msg)
        out.append([-x % q for x in rem[d:]])
    return out


def _graph_consistent(H, d, rel, p, n):
    """The map is well defined: each graph row with a zero source block,
    the image of a syzygy, has its image block in the span of rel."""
    return all(in_span(rel, r[d:], p, n) for r in H if not any(r[:d]))


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
        self._fil_H = None

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
        """Howell form of the graph rows [x | phi_h(x)] of phi_h on Fil.

        Each Fil generator g is expanded over the F_p-basis x^a b_t of S,
        with image phi(x^a b_t) phi_h(g).  Over F_p this is the reduced
        echelon form, so the rows with a nonzero source block have as
        source blocks the reduced echelon basis of Fil.
        """
        if self._fil_H is None:
            S, p, rows = self.S, self.p, []
            for g, img in zip(self.fil_gens, self.phi_gens):
                dst = S.s_multiples([c.vec for c in img], p, frob=True)
                rows.extend(a + b for a, b in zip(self.s_multiples(g), dst))
            self._fil_H = howell_form(rows, p, 1)
        return self._fil_H

    def fil_span(self):
        d = self.dim
        return [r[:d] for r in self._fil_data() if any(r[:d])]

    def fil_contains(self, v):
        return in_span(self.fil_span(), self.vec(v), self.p, 1)

    def phi_h_consistent(self):
        """phi_h is well defined; a free module has no relations."""
        return _graph_consistent(self._fil_data(), self.dim, [], self.p, 1)

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
        """phi_h of a vector in Fil, by reduction against the graph rows.

        Raises Inconsistent when v is not in Fil.
        """
        [img] = _graph_apply(self._fil_data(), self.dim, [self.vec(v)],
                             self.p, 1, "vector is not in Fil")
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

    def direct_sum(self, other):
        same = (self.S.p, self.S.e, self.S.D, self.S.m, self.S.n_int,
                tuple(self.S.eis.int_coeffs)) == (
                other.S.p, other.S.e, other.S.D, other.S.m, other.S.n_int,
                tuple(other.S.eis.int_coeffs))
        if not same or self.h != other.h:
            raise InputError("summands must share the ring and level")
        S = self.S
        z = S.zero()
        r1, r2 = self.r, other.r
        fil = direct_sum_rows(self.fil_gens, other.fil_gens, r1, r2, z)
        img = direct_sum_rows(self.phi_gens, other.phi_gens, r1, r2, z)
        nab = None
        if self.nabla is not None and other.nabla is not None:
            nab = direct_sum_rows(self.nabla, other.nabla, r1, r2, z)
        return BreuilModule(S, r1 + r2, self.h, fil, img, nabla=nab)

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
    (phi[0] is indexed by the standard basis).  Optional projectors witness
    each Fil^{i+1} as a summand of Fil^i.
    """

    def __init__(self, W, divisors, h, fil, phi, projectors=None):
        self.W = W
        self.divisors = list(divisors)
        self.g = len(self.divisors)
        self.h = h
        self.fil = {i: [tuple(v) for v in fil.get(i, [])]
                    for i in range(1, h + 1)}
        self.phi = {i: [tuple(v) for v in phi.get(i, [])]
                    for i in range(h + 1)}
        self.projectors = projectors
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

    def w_span(self, gens, extra_rows=()):
        """Howell span of the W-module generated by gens (mod relations)."""
        rows = list(extra_rows) + list(self.relation_rows())
        x = self.W._gen_matrices()[0]
        for v in gens:
            rows.extend(_multiples(self.vec(v), x, self.W.q))
        return howell_form(rows, self.p, self.W.n)

    def _graph(self, gens, images):
        """Howell form of the graph rows [f | phi(f)] of a semilinear map.

        Generator f is expanded over the W-basis x^j with image
        sigma(x^j) phi(f), and the relations enter as rows [rel | 0].  By
        the Howell property the rows with a zero source block span the
        images of all syzygies, also at n > 1.
        """
        W = self.W
        x, sx = W._gen_matrices()
        zero = [0] * self.dim
        rows = [list(r) + zero for r in self.relation_rows()]
        for f, im in zip(gens, images):
            src = _multiples(self.vec(f), x, W.q)
            dst = _multiples(self.vec(im), sx, W.q)
            rows.extend(a + b for a, b in zip(src, dst))
        return howell_form(rows, self.p, W.n)

    def semilinear_apply(self, gens, images, targets):
        """sigma-semilinear values at each of targets; raises Inconsistent
        when a target is not in the W-span of gens.

        The map sends sum a_k f_k to sum sigma(a_k) phi(f_k).
        """
        m = self.m
        vals = _graph_apply(self._graph(gens, images), self.dim,
                            [self.vec(v) for v in targets], self.p, self.W.n,
                            "target is not in the span of the generators")
        return [[self.W.elem(val[t * m:(t + 1) * m]) for t in range(self.g)]
                for val in vals]

    def semilinear_consistent(self, gens, images):
        """Every syzygy of the gens maps into the relations: each graph
        row with a zero source block has its image block in their span."""
        return _graph_consistent(self._graph(gens, images), self.dim,
                                 self.relation_rows(), self.p, self.W.n)

    def is_zero_in_module(self, v):
        return in_span(self.relation_rows(), self.vec(v), self.p, self.W.n)

    def module_length(self):
        full = self.dim * self.W.n
        return full - span_length(self.relation_rows(), self.p, self.W.n)

    def direct_sum(self, other):
        same = ((self.W.p, self.W.n, self.W.m, self.W.f)
                == (other.W.p, other.W.n, other.W.m, other.W.f))
        if not same or self.h != other.h:
            raise InputError("summands must share W and the level")
        W = self.W
        pad = lambda A, B: direct_sum_rows(A, B, self.g, other.g, W.zero())
        fil = {i: pad(self.fil_gens(i), other.fil_gens(i))
               for i in range(1, self.h + 1)}
        phi = {i: pad(self.phi_images(i), other.phi_images(i))
               for i in range(self.h + 1)}
        return FLModule(W, self.divisors + other.divisors, self.h, fil, phi)


def is_fl_module(M):
    """The three category axioms; returns (ok, failing axiom)."""
    # axiom 1: decreasing chain (with projector witnesses when supplied)
    for i in range(1, M.h + 1):
        Hi = M.w_span(M.fil_gens(i - 1))
        for v in M.fil_gens(i):
            if not in_span(Hi, M.vec(v), M.p, M.W.n):
                return False, "axiom1-chain"
    if M.projectors is not None:
        for i, P in M.projectors.items():
            Hn = M.w_span(M.fil_gens(i + 1))
            apply_p = lambda v: [sum((P[a][b] * v[b] for b in range(M.g)),
                                     M.W.zero()) for a in range(M.g)]
            for v in M.fil_gens(i):
                if not in_span(Hn, M.vec(apply_p(v)), M.p, M.W.n):
                    return False, "axiom1-projector"
            for v in M.fil_gens(i + 1):
                if not M.is_zero_in_module(
                        [a - b for a, b in zip(apply_p(v), v)]):
                    return False, "axiom1-projector"
    # well-definedness of each phi_i
    for i in range(M.h + 1):
        if not M.semilinear_consistent(M.fil_gens(i), M.phi_images(i)):
            return False, "phi-not-well-defined"
    # axiom 2: phi_i restricted to Fil^{i+1} equals p phi_{i+1}
    for i in range(M.h):
        if not M.fil_gens(i + 1):
            continue
        vals = M.semilinear_apply(M.fil_gens(i), M.phi_images(i),
                                  M.fil_gens(i + 1))
        for via_i, im in zip(vals, M.phi_images(i + 1)):
            diff = [a - b.scale(M.p) for a, b in zip(via_i, im)]
            if not M.is_zero_in_module(diff):
                return False, "axiom2"
    # axiom 3: the phi images generate the module (their lifts plus the
    # relation rows must span the whole lattice)
    gens = []
    for i in range(M.h + 1):
        gens.extend(M.phi_images(i))
    H = M.w_span(gens)
    if span_length(H, M.p, M.W.n) != M.dim * M.W.n:
        return False, "axiom3"
    return True, None


# ---------------------------------------------------------------------------
# functors into Breuil modules
# ---------------------------------------------------------------------------


def kisin_to_breuil(K, h, D=None):
    """Base change of a mod-p Kisin module along phi into S_1."""
    M = K.module
    W = M.ring
    if W.n != 1:
        raise InputError("the Breuil layer is mod p")
    if M.relations:
        raise HasUTorsion("input must be free (classical) mod p")
    S = DpRing(K.eis, 1, m=W.m, f=None if W.m == 1 else list(W.f),
               D=D, h=h)
    r = M.g
    if r == 0:
        return BreuilModule(S, 0, h, [], [])
    p = S.p
    nu = [[S.from_series(M.phi[i][j]) for j in range(r)] for i in range(r)]
    d = S.dim
    # solve nu(x) in (Fil^h S)^r over F_p: the columns are the S-multiples
    # of the columns of nu, then minus each row of Fil^h S in each block
    cols = [c for j in range(r)
            for c in S.s_multiples([nu[i][j].vec for i in range(r)], p)]
    cols += [[0] * (i * d) + [-a % p for a in frow] + [0] * ((r - 1 - i) * d)
             for i in range(r) for frow in S.fil_span(h)]
    K0, _ = kernel_solve([list(row) for row in zip(*cols)], None, p, 1)
    fil_gens = []
    phi_gens = []
    for row in howell_form([k[:r * d] for k in K0], p, 1):
        x = [S.from_vec([row[j * d + c] for c in range(d)], prec=1)
             for j in range(r)]
        img_coords = []
        for i in range(r):
            acc = S.zero().reduce_prec(1)
            for j in range(r):
                acc = acc + nu[i][j].reduce_prec(1) * x[j]
            img_coords.append(s_phi_div(acc, h).reduce_prec(1))
        fil_gens.append(x)
        phi_gens.append(img_coords)
    return BreuilModule(S, r, h, fil_gens, phi_gens)


def fl_to_breuil(M, eis=None, D=None):
    """Fil^h = sum_i Fil^i S tensor Fil^{h-i} M, with the product phi_h."""
    if M.W.n != 1:
        raise InputError("the Breuil layer is mod p")
    h = M.h
    if eis is None:
        eis = eisenstein_make(M.p, "explicit", [M.p, 1])
    S = DpRing(eis, 1, m=M.m, f=None if M.m == 1 else list(M.W.f),
               D=D, h=h)
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
