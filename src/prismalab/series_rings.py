"""Truncated power series over Witt coefficients and the divided-power ring.

SeriesElem models W_n[[u]] at finite u-precision N; elements flagged exact
behave as honest polynomials.  A SeriesElem stores its coefficients as one
flat tuple of ints mod p^n, the x^j-coefficient of u^t at index t*m + j;
its WittElem coefficients appear only as a view (SeriesElem.coeffs).
EisensteinPoly carries exact integer coefficient lifts so that divided
powers can be computed without p-adic precision loss.  DpRing is the
divided-power ring at u-degree bound D and internal p-precision n_int, with
coordinates on the basis u^i/e(i)!; one ring is shared per parameter set
(at most DP_RING_CACHE of them).  A DpElem stores its coordinates as one
flat tuple of D*m ints mod p^{n_int} (the to_vec layout) and multiplies
with a structure-constant table the ring builds on first use; WittElem
coordinates appear only as a view (DpElem.coords).
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import (
    Inconsistent, InputError, InsufficientPrecision, NotDivisible,
    NotEisenstein, NotInFiltration, PrecisionLoss,
)
from .linalg_residue import factor, howell_form
from .witt_base import (
    WittElem, WittRing, _blockwise, _is_prime, _multiples, _power,
    int_poly_divmod, int_poly_pow,
)

# ---------------------------------------------------------------------------
# truncated series over W_n(F_{p^m})
# ---------------------------------------------------------------------------


class SeriesElem:
    """Element of W_n[[u]] known modulo u^N (N=None means exact polynomial).

    vec holds the coefficients in blocks of m ints mod q, with no trailing
    zero block; arithmetic works on vec, and coeffs is a read-only view.
    """

    __slots__ = ("ring", "vec", "N", "exact")

    def __init__(self, ring, coeffs, N=None, exact=None):
        q, pad, vec = ring.q, [0] * (ring.m - 1), []
        for c in coeffs:
            if isinstance(c, WittElem):
                vec.extend(c.coeffs)
            else:
                vec.append(c % q)
                vec.extend(pad)
        self._set(ring, vec, N, exact)

    def _set(self, ring, vec, N, exact):
        m = ring.m
        if exact is None:
            exact = N is None
        if N is None and not exact:
            raise InputError("unbounded elements must be exact")
        k = len(vec)
        if N is not None and k > N * m:
            if exact and any(vec[N * m:]):
                raise PrecisionLoss(f"exact element of degree "
                                    f"{-(-k // m) - 1} exceeds bound {N}")
            k = N * m
        while k and not vec[k - 1]:
            k -= 1
        self.ring = ring
        self.vec = tuple(vec[:-(-k // m) * m])
        self.N = N
        self.exact = exact

    # -- helpers ---------------------------------------------------------

    @classmethod
    def from_vec(cls, ring, vec, N=None, exact=None):
        """The series whose flat coefficient vector (ints mod q) is vec."""
        x = cls.__new__(cls)
        x._set(ring, vec, N, exact)
        return x

    @classmethod
    def from_ints(cls, ring, int_coeffs, N=None, exact=None):
        return cls(ring, list(int_coeffs), N, exact)

    @classmethod
    def u_pow(cls, ring, k, N=None):
        return cls.from_ints(ring, [0] * k + [1], N)

    @property
    def coeffs(self):
        W, m, v = self.ring, self.ring.m, self.vec
        return tuple(WittElem(W, v[k:k + m]) for k in range(0, len(v), m))

    def degree(self):
        return len(self.vec) // self.ring.m - 1

    def is_zero(self):
        return not self.vec

    def truncate(self, N):
        return SeriesElem.from_vec(self.ring, self.vec[:N * self.ring.m], N,
                                   exact=False)

    def _join(self, other):
        if self.ring != other.ring:
            raise InputError("mixed coefficient rings")
        ns = [x for x in (self.N, other.N) if x is not None]
        return (min(ns) if ns else None), (self.exact and other.exact)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        N, exact = self._join(other)
        a, b, q = self.vec, other.vec, self.ring.q
        if len(a) < len(b):
            a, b = b, a
        vec = [(x + y) % q for x, y in zip(a, b)] + list(a[len(b):])
        return SeriesElem.from_vec(self.ring, vec, N, exact)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        q = self.ring.q
        return SeriesElem.from_vec(self.ring, [-a % q for a in self.vec],
                                   self.N, self.exact)

    def __mul__(self, other):
        if isinstance(other, (int, WittElem)):
            return self.scale(other)
        N, exact = self._join(other)
        if self.is_zero() or other.is_zero():
            return SeriesElem.from_vec(self.ring, (), N, exact)
        deg = self.degree() + other.degree()
        if exact and N is not None and deg >= N:
            raise PrecisionLoss(
                f"exact product of degree {deg} exceeds bound {N}")
        width = deg + 1 if N is None else min(deg + 1, N)
        return SeriesElem.from_vec(self.ring, _graded_product(
            self.ring, self.vec, other.vec, width, [[1] * width] * width),
            N, exact)

    __rmul__ = __mul__

    def scale(self, c):
        W = self.ring
        if isinstance(c, int) or W.m == 1:
            c, q = c if isinstance(c, int) else c.coeffs[0], W.q
            vec = [a * c % q for a in self.vec]
        else:
            vec = _blockwise(W._mul_matrix(c), self.vec, W.q)
        return SeriesElem.from_vec(W, vec, self.N, self.exact)

    def __pow__(self, k):
        if k < 0:
            raise InputError(f"negative exponent {k}")
        if not k:
            return SeriesElem(self.ring, [1], self.N, self.exact)
        return _power(self, k, operator.mul)

    def __eq__(self, other):
        return (isinstance(other, SeriesElem)
                and self.ring == other.ring and self.N == other.N
                and self.exact == other.exact and self.vec == other.vec)

    def __repr__(self):
        terms = [f"{list(c.coeffs)}*u^{i}"
                 for i, c in enumerate(self.coeffs) if not c.is_zero()]
        tail = "" if self.N is None else f" + O(u^{self.N})"
        return ("0" if not terms else " + ".join(terms)) + tail


def _graded_product(W, x, y, D, T):
    """Product below degree D of the flat vectors x, y over W (blocks of m),
    degree i times degree j weighted by T[i][j]; unreduced length-(2m-1)
    products are reduced mod (f, q) once per degree."""
    m, q = W.m, W.q
    if m == 1:
        ys = [(j, b) for j, b in enumerate(y) if b]
        out = [0] * D
        for i, a in zip(range(D), x):
            if a:
                row, lim = T[i], D - i
                for j, b in ys:
                    if j >= lim:
                        break
                    out[i + j] += a * b * row[j]
        return tuple([c % q for c in out])
    ys = [(j, y[j * m:(j + 1) * m]) for j in range(len(y) // m)]
    ys = [(j, b) for j, b in ys if any(b)]
    acc = [None] * D
    for i in range(min(D, len(x) // m)):
        a = x[i * m:(i + 1) * m]
        if not any(a):
            continue
        row, lim = T[i], D - i
        for j, b in ys:
            if j >= lim:
                break
            out = acc[i + j]
            if out is None:
                out = acc[i + j] = [0] * (2 * m - 1)
            c = row[j]
            for s, a_s in enumerate(a):
                if a_s:
                    a_s *= c
                    for t, b_t in enumerate(b):
                        out[s + t] += a_s * b_t
    vec = []
    for out in acc:
        vec.extend([0] * m if out is None else W._reduce(out))
    return tuple(vec)


def phi_apply(x: SeriesElem, bound=None) -> SeriesElem:
    """Frobenius on series: sigma on coefficients, u -> u^p.

    With a bound, equals phi_apply(x).truncate(bound) but builds only the
    coefficients below the bound, so its cost does not grow with p.
    """
    r = x.ring
    p, m = r.p, r.m
    width = p * (len(x.vec) // m)
    if bound is None:
        N, exact = (None if x.N is None else p * x.N), x.exact
    else:
        N, exact, width = bound, False, min(bound, width)
    v = x.vec[:-(-width // p) * m]
    if m > 1:
        v = _blockwise(r._sigma_matrix(), v, r.q)
    out = [0] * (width * m)
    for k in range(0, len(v), m):
        out[p * k:p * k + m] = v[k:k + m]
    return SeriesElem.from_vec(r, out, N, exact)


# ---------------------------------------------------------------------------
# integer polynomial helpers (exact lifts, low degree first; products,
# powers and division are witt_base's)
# ---------------------------------------------------------------------------


def binomial_power_minus_one(k):
    """(u+1)^k - 1 as an integer polynomial."""
    return [math.comb(k, i) if i else 0 for i in range(k + 1)]


# ---------------------------------------------------------------------------
# Eisenstein polynomials
# ---------------------------------------------------------------------------


class EisensteinPoly:
    """Monic degree-e polynomial, E(0) = a0 * p with a0 a unit, lower
    coefficients divisible by p; exact integer coefficient lifts."""

    __slots__ = ("p", "int_coeffs", "e", "a0")

    def __init__(self, p, int_coeffs):
        if not _is_prime(p):
            raise NotEisenstein(f"p must be prime, got {p}")
        cs = list(int_coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) < 2 or cs[-1] != 1:
            raise NotEisenstein("must be monic of degree >= 1")
        e = len(cs) - 1
        if cs[0] % p != 0 or (cs[0] // p) % p == 0:
            raise NotEisenstein("constant term must be p times a unit")
        if any(c % p for c in cs[1:e]):
            raise NotEisenstein("lower coefficients must be divisible by p")
        self.p = p
        self.int_coeffs = tuple(cs)
        self.e = e
        self.a0 = cs[0] // p

    def series(self, ring, N=None):
        if ring.p != self.p:
            raise InputError("prime mismatch")
        return SeriesElem.from_ints(ring, self.int_coeffs, N, exact=True)

    def __repr__(self):
        return f"EisensteinPoly(p={self.p}, e={self.e}, {list(self.int_coeffs)})"


def cyclotomic_q(p, level):
    """(u+1)^{p^level} - 1 as an integer polynomial."""
    return binomial_power_minus_one(p ** level)


def eisenstein_make(p, kind, arg):
    """kind 'cyclotomic' with arg = level n >= 1, or 'explicit' with
    arg = integer coefficient list."""
    if kind == "cyclotomic":
        level = arg
        if level < 1:
            raise InputError("cyclotomic level must be >= 1")
        num = cyclotomic_q(p, level)
        den = cyclotomic_q(p, level - 1) if level > 1 else [0, 1]
        q, rem = int_poly_divmod(num, den)
        if rem:
            raise InputError("cyclotomic division not exact")
        return EisensteinPoly(p, q)
    if kind == "explicit":
        return EisensteinPoly(p, arg)
    raise InputError(f"unknown Eisenstein kind {kind!r}")


# ---------------------------------------------------------------------------
# divided-power ring
# ---------------------------------------------------------------------------


def _rat_mod(num, den, p, q):
    """num/den mod q = p^k for a p-integral rational; None if not p-integral."""
    if num == 0:
        return 0
    a = 0
    while num % p == 0:
        num //= p
        a += 1
    b = 0
    while den % p == 0:
        den //= p
        b += 1
    if a < b:
        return None
    return (p ** (a - b)) * num * pow(den, -1, q) % q


class DpRing:
    """Divided-power ring at u-degree bound D and p-precision n_int = n + h,
    coordinates on the basis b_i = u^i / e(i)!.

    DpRing(eis, n, m, f, D, h) returns the ring shared by every
    construction with the same (eis.p, eis.int_coeffs, n, m, f, D, h),
    f resolved as WittRing resolves it, D resolved to its default
    and the DP_RING_CACHE most recently used being kept, so the product
    table, gamma_j(E), phi_i(gamma_j(E)) mod p, the Fil^r bases and their
    factors are built once, not once per call; a ring is immutable apart
    from those memos."""

    def __new__(cls, eis: EisensteinPoly, n, m=1, f=None, D=None, h=0):
        # f resolved before the lookup, so every spelling of one f (None
        # for the default included) takes one cache entry
        f = WittRing(eis.p, n + h, m, f).f
        return _dp_ring(eis.p, eis.int_coeffs, n, m, f,
                        2 * eis.p * eis.e if D is None else D, h)

    # -- combinatorics ----------------------------------------------------

    def ei(self, i):
        return i // self.e

    def struct_const(self, i, j):
        """Integer e(i+j)! / (e(i)! e(j)!)."""
        key = (i, j) if i <= j else (j, i)
        c = self._struct.get(key)
        if c is None:
            num = math.factorial(self.ei(i + j))
            den = math.factorial(self.ei(i)) * math.factorial(self.ei(j))
            if num % den:
                raise InputError("non-integral structure constant")
            c = (num // den) % self.q
            self._struct[key] = c
        return c

    def _mul_table(self):
        """Rows T[i] = [struct_const(i, j) for j < D - i], built once."""
        if self._table is None:
            self._table = [[self.struct_const(i, j) for j in range(self.D - i)]
                           for i in range(self.D)]
        return self._table

    # -- elements ---------------------------------------------------------

    def elem(self, coords, prec=None):
        """Element with the given coordinates (ints or WittElems over
        self.ring) on b_0, b_1, ...; missing ones are zero."""
        q, pad = self.q, [0] * (self.m - 1)
        vec = []
        for c in coords[:self.D]:
            if isinstance(c, WittElem):
                vec.extend(c.coeffs)
            else:
                vec.append(c % q)
                vec.extend(pad)
        vec.extend([0] * (self.dim - len(vec)))
        return DpElem(self, tuple(vec), prec or self.n_int)

    def zero(self):
        return self.elem([])

    def one(self):
        return self.elem([1])

    def from_int_poly(self, int_coeffs, prec=None):
        """Image of an integer polynomial in u (u^i = e(i)! b_i)."""
        coords = []
        for i, a in enumerate(int_coeffs):
            if i >= self.D:
                break
            coords.append((a * math.factorial(self.ei(i))) % self.q)
        return self.elem(coords, prec)

    def gamma(self, j):
        """Coordinates of the divided power gamma_j(E) = E^j / j!."""
        if j not in self._gamma:
            if j == 0:
                self._gamma[j] = self.one()
            else:
                powj = int_poly_pow(list(self.eis.int_coeffs), j)
                fj = math.factorial(j)
                coords = []
                for i in range(min(len(powj), self.D)):
                    c = _rat_mod(powj[i] * math.factorial(self.ei(i)), fj,
                                 self.p, self.q)
                    if c is None:
                        raise InputError("divided power is not p-integral")
                    coords.append(c)
                self._gamma[j] = self.elem(coords)
        return self._gamma[j]

    def phi_gamma(self, j, i):
        """phi_i(gamma_j(E)) mod p, for gamma_j(E) in Fil^i (j >= i).

        Equals s_phi_div(self.gamma(j), i).reduce_prec(1): gamma_j(E) is
        exact at n_int, so its Fil^i lift is itself and no solve is needed.
        """
        key = (j, i)
        if key not in self._phi_gamma:
            _phi_div_prec(self, self.n_int, i)
            if j < i:
                raise NotInFiltration(f"gamma_{j}(E) is not in Fil^{i}")
            self._phi_gamma[key] = (self.phi(self.gamma(j)).divide_p(i)
                                    .reduce_prec(1))
        return self._phi_gamma[key]

    def c1(self):
        """phi(E)/p, a unit."""
        if self._c1 is None:
            phiE = [0] * (self.p * self.e + 1)
            for i, a in enumerate(self.eis.int_coeffs):
                phiE[self.p * i] = a
            coords = []
            for i in range(min(len(phiE), self.D)):
                c = _rat_mod(phiE[i] * math.factorial(self.ei(i)), self.p,
                             self.p, self.q)
                if c is None:
                    raise InputError("phi(E) is not divisible by p")
                coords.append(c)
            self._c1 = self.elem(coords)
        return self._c1

    def c1_inv(self):
        if self._c1_inv is None:
            self._c1_inv = self.c1().inv()
        return self._c1_inv

    # -- vector expansion over Z/p^{n_int} ---------------------------------

    def to_vec(self, x):
        return list(x.vec)

    def from_vec(self, vec, prec=None):
        q = self.q
        out = [a % q for a in vec[:self.dim]]
        out.extend([0] * (self.dim - len(out)))
        return DpElem(self, tuple(out), prec or self.n_int)

    def s_multiples(self, vecs, q, tmax=None, frob=False):
        """Rows x^a b_t v mod q (t < tmax, default D, and a < m) at index
        t*m + a, v the concatenation of the flat vectors vecs; with frob,
        row (t, a) is sigma(x)^a phi(b_t) v.  No DpElem is built: b_t v is
        the weighted shift sum_i T[t][i] y_i b_{t+i} of v = sum_i y_i b_i,
        T the product table, and phi(b_t) = _phi_fac[t] b_{pt} (0 if pt >= D).

        A row costs the nonzero coordinates of its multiple, not D*m
        products: gamma_j(E), phi_i(gamma_j(E)) mod p and FL basis vectors
        are nearly monomial in the b_i.  Each vector is taken as D*m wide.
        """
        D, m, T = self.D, self.m, self._mul_table()
        k, fac = (self.p, self._phi_fac) if frob else (1, [1] * D)
        gen = self.ring._gen_matrices()[1 if frob else 0]
        width = D * m * len(vecs)
        # nz[a]: (position in the row, block i // m, value) of each nonzero
        # coordinate of the a-th multiples, in increasing block order
        nz = [[] for _ in range(m)]
        for off, v in zip(range(0, width, D * m), vecs):
            if any(v):
                for a, x in enumerate(_multiples(v, gen, q)):
                    nz[a] += [(off + i, i // m, y) for i, y in enumerate(x)
                              if y]
        for entries in nz:
            entries.sort(key=lambda c: c[1])
        rows = []
        for t in range(D if tmax is None else tmax):
            s = k * t
            for entries in nz:
                row = [0] * width
                if s < D:
                    Ts, f, shift = T[s], fac[t], s * m
                    for j, b, y in entries:
                        if b >= D - s:
                            break
                        row[shift + j] = f * Ts[b] * y % q
                rows.append(row)
        return rows

    # -- filtration ---------------------------------------------------------

    def fil_gamma_indices(self, r):
        """The j whose gamma_j(E) generate Fil^r as an ideal: for r <= p,
        gamma_r (gamma_0 = 1) and the z_k = gamma_{p^k}(E) with p^k e < D."""
        if r > self.p:
            raise InputError("filtration levels above p are not modelled")
        js, k = [r], self.p
        while k * self.e < self.D:
            js.append(k)
            k *= self.p
        return js

    def fil_span(self, r):
        """Howell basis of Fil^r in the truncated model (span stabilized
        over increasing divided-power generators)."""
        if r not in self._fil:
            # only multiples of untruncated degree below D are admitted, so
            # every row is the image of a genuine degree-bounded element
            rows = [row for j in self.fil_gamma_indices(r)
                    for row in self.s_multiples([self.gamma(j).vec], self.q,
                                                self.D - j * self.e)]
            self._fil[r] = howell_form(rows, self.p, self.n_int)
        return self._fil[r]

    def _fil_factor(self, r, prec):
        """The fil_span(r) rows and p^prec e_i, factored once per (r, prec)."""
        F = self._fil_factors.get((r, prec))
        if F is None:
            pk = self.p ** prec
            rows = self.fil_span(r) + [[pk * (j == i) for j in range(self.dim)]
                                       for i in range(self.dim)]
            F = self._fil_factors[r, prec] = factor(rows, self.p, self.n_int)
        return F

    def fil_lift(self, x, r):
        """An element of Fil^r (exact at n_int) congruent to x mod p^{x.prec};
        raises Inconsistent when x is not in Fil^r at that precision."""
        v = self.to_vec(x)
        sol = self._fil_factor(r, x.prec).solve(v)
        # v minus p^prec times the last coefficients lies in the Fil^r span
        pk, k = self.p ** x.prec, len(self.fil_span(r))
        return self.from_vec([a - pk * c for a, c in zip(v, sol[k:])])

    # -- Frobenius ----------------------------------------------------------

    def phi(self, x):
        """phi(b_i) = (e(pi)!/e(i)!) b_{pi}, sigma on coordinates."""
        m, q = self.m, self.q
        v = x.vec[:len(self._phi_fac) * m]
        if m > 1:
            v = _blockwise(self.ring._sigma_matrix(), v, q)
        out = [0] * self.dim
        for i, fac in enumerate(self._phi_fac):
            k = self.p * i * m
            out[k:k + m] = [a * fac % q for a in v[i * m:(i + 1) * m]]
        return DpElem(self, tuple(out), x.prec)

    def nabla(self, x):
        """d/du on the divided-power basis."""
        m, q, v = self.m, self.q, x.vec
        out = [0] * self.dim
        for i in range(1, self.D):
            d = i // self.ei(i) if i % self.e == 0 else i
            for k in range(i * m, (i + 1) * m):
                out[k - m] = v[k] * d % q
        return DpElem(self, tuple(out), x.prec)

    def __repr__(self):
        return (f"DpRing(p={self.p}, e={self.e}, n={self.n_user}, "
                f"h={self.h}, D={self.D}, m={self.m})")


# a DpRing can be heavy (at p = 5, e = 4, D = 200, m = 2, h = 3, one with
# its Fil^1..Fil^4 factors holds about 37 MB), so few are kept
DP_RING_CACHE = 8


@functools.lru_cache(maxsize=DP_RING_CACHE)
def _dp_ring(p, int_coeffs, n, m, f, D, h):
    """Validate the parameters and build the ring; DpRing's miss path.
    An invalid key raises on every call, since lru_cache keeps no error."""
    S = object.__new__(DpRing)
    S.eis = eis = EisensteinPoly(p, int_coeffs)
    S.p = p
    S.e = eis.e
    S.n_user = n
    S.h = h
    S.n_int = n + h
    S.q = p ** S.n_int
    S.ring = WittRing(p, S.n_int, m, f)
    S.m = m
    S.D = D
    if D <= p * S.e:
        raise InputError("degree bound D must exceed p*e")
    S._struct = {}
    S._table = None
    S._gamma = {}
    S._phi_gamma = {}
    S._fil = {}
    S._fil_factors = {}
    S._c1 = None
    S._c1_inv = None
    S.dim = D * m
    # phi(b_i) = (e(pi)!/e(i)!) b_{pi} for pi < D
    S._phi_fac = [math.factorial(S.ei(p * i)) // math.factorial(S.ei(i))
                  % S.q for i in range((D - 1) // p + 1)]
    return S


class DpElem:
    """Element of a DpRing at p-adic precision prec.

    vec is one tuple of D*m ints mod q = p^{n_int} in the to_vec layout:
    the x^s-coefficient of the coordinate on b_i sits at index i*m + s.
    Arithmetic works on vec; coords is a read-only view of the
    coordinates as WittElems over ring.ring.
    """

    __slots__ = ("ring", "vec", "prec")

    def __init__(self, ring, vec, prec):
        self.ring = ring
        self.vec = vec
        self.prec = prec

    @property
    def coords(self):
        W, m, v = self.ring.ring, self.ring.m, self.vec
        return tuple(WittElem(W, v[k:k + m]) for k in range(0, len(v), m))

    def __add__(self, other):
        q = self.ring.q
        vec = [(a + b) % q for a, b in zip(self.vec, other.vec)]
        return DpElem(self.ring, tuple(vec), min(self.prec, other.prec))

    def __sub__(self, other):
        q = self.ring.q
        vec = [(a - b) % q for a, b in zip(self.vec, other.vec)]
        return DpElem(self.ring, tuple(vec), min(self.prec, other.prec))

    def __neg__(self):
        q = self.ring.q
        return DpElem(self.ring, tuple([-a % q for a in self.vec]), self.prec)

    def __mul__(self, other):
        if isinstance(other, int):
            q = self.ring.q
            return DpElem(self.ring, tuple([a * other % q for a in self.vec]),
                          self.prec)
        R = self.ring
        return DpElem(R, _graded_product(R.ring, self.vec, other.vec, R.D,
                                         R._mul_table()),
                      min(self.prec, other.prec))

    __rmul__ = __mul__

    def scale_w(self, w: WittElem):
        # w = w b_0, and b_i b_0 = b_i
        if self.ring.m == 1:
            c, q = w.coeffs[0], self.ring.q
            return DpElem(self.ring, tuple([a * c % q for a in self.vec]),
                          self.prec)
        R = self.ring
        return DpElem(R, _graded_product(R.ring, self.vec, w.coeffs, R.D,
                                         R._mul_table()), self.prec)

    def __pow__(self, k):
        if k < 0:
            raise InputError(f"negative exponent {k}")
        return _power(self, k, operator.mul) if k else self.ring.one()

    def is_zero(self):
        pk = self.ring.p ** self.prec
        return not any(a % pk for a in self.vec)

    def reduce_prec(self, prec):
        return DpElem(self.ring, self.vec, min(self.prec, prec))

    def divide_p(self, i):
        if i == 0:
            return self
        if self.prec - i < 1:
            raise InsufficientPrecision(
                f"cannot drop {i} digits from precision {self.prec}")
        p = self.ring.p
        pi = p ** i
        pk = p ** self.prec
        out = []
        for a in self.vec:
            a %= pk
            if a % pi:
                raise NotDivisible("coordinate not divisible by p^i")
            out.append(a // pi)
        return DpElem(self.ring, tuple(out), self.prec - i)

    def inv(self):
        """Inverse of a unit (constant coordinate a unit of W)."""
        R = self.ring
        a = WittElem(R.ring, self.vec[:R.m])
        if not a.is_unit():
            raise InputError("not a unit in the divided-power ring")
        ai = a.inv()
        w = (self - R.one().scale_w(a)).scale_w(ai)
        # 1/(1+w) = sum (-w)^k; w is nilpotent in the truncated model
        acc = R.one()
        term = R.one()
        for _ in range(R.D * R.n_int + 1):
            term = -(term * w)
            if not any(term.vec):
                break
            acc = acc + term
        return acc.scale_w(ai)

    def __eq__(self, other):
        return (isinstance(other, DpElem) and self.ring is other.ring
                and (self - other).is_zero())

    def __repr__(self):
        parts = [f"{list(c.coeffs)}*b{i}"
                 for i, c in enumerate(self.coords) if not c.is_zero()]
        return ("0" if not parts else " + ".join(parts)) + f" (prec {self.prec})"


def _phi_div_prec(R, prec, i):
    """Precision of phi_i of an element of R at precision prec; refuses a
    level outside 0..p-1 and one the internal precision cannot carry."""
    if i < 0 or i > R.p - 1:
        raise InputError("filtration level must satisfy 0 <= i <= p-1")
    # a Fil^i lift is exact at n_int; dividing phi(lift) by p^i spends i
    # internal digits, so the value is good modulo p^{n_int - i}
    out_prec = min(prec, R.n_int - i)
    if out_prec < R.n_user:
        raise InsufficientPrecision(
            f"internal precision {R.n_int} cannot support level {i} "
            f"at user precision {R.n_user}")
    return out_prec


def s_phi_div(x: DpElem, i: int) -> DpElem:
    """Divided Frobenius phi_i = p^{-i} phi on Fil^i."""
    R = x.ring
    out_prec = _phi_div_prec(R, x.prec, i)
    try:
        lift = R.fil_lift(x, i)
    except Inconsistent:
        raise NotInFiltration(f"element is not in Fil^{i}") from None
    return R.phi(lift).divide_p(i).reduce_prec(out_prec)
