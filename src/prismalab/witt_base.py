"""Arithmetic in the coefficient ring W_n(F_{p^m}).

The ring is modelled as (Z/p^n)[x]/(f) for a monic degree-m lift f of an
irreducible polynomial over F_p.  WittRing(p, n, m, f) returns one shared
ring per parameter set (at most WITT_RING_CACHE of them), so what a ring
builds lazily is built once, not once per construction.  The Frobenius
lift sigma is computed by Newton iteration on f from x^p.

At m > 1, products, powers and sigma run on Kronecker-packed ints: the
element sum a_i x^i (0 <= a_i < q) is the int sum a_i 2^{b i}, where b is
the bit length of m q^2 (1 + (m - 1) q).  A product's slots are below
m q^2; folding its m - 1 high slots into the low m with the packed rows
x^k mod (f, q) keeps each below 2^b, as does sigma's sum of a_j times the
packed columns sigma(x)^j, so no slot carries.  A ring builds b, the
rows and the columns on first use.  Packed ints never escape a call:
an element stores its coefficient tuple, and results are unpacked mod q.

The linearization of sigma-semilinear maps lives here too: a ring builds
the matrices of x and sigma(x) on first use, _multiples gives the x^a or
sigma(x)^a multiples of a flat vector, and _semilinear_matrix a map's
matrix.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import NonSeparable, NotAUnit, InputError

# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_mod(a, f, p):
    return _fp_divmod(a, f, p)[1]


def _fp_powmod(a, e, f, p):
    r = [1]
    a = _fp_mod(list(a), f, p)
    while e:
        if e & 1:
            r = _fp_mod(_fp_mul(r, a, p), f, p)
        a = _fp_mod(_fp_mul(a, a, p), f, p)
        e >>= 1
    return r


def _fp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a = _fp_mod(a, b, p)
        a, b = b, a
    return a


def _fp_deriv(a, p):
    return _fp_trim([(i * c) % p for i, c in enumerate(a)][1:])


def is_irreducible_mod_p(f, p):
    """Irreducibility of a monic polynomial over F_p."""
    fbar = _fp_trim([c % p for c in f])
    m = len(fbar) - 1
    if m < 1:
        return False

    def x_power_minus_x(j):
        xq = _fp_powmod([0, 1], p ** j, fbar, p)
        diff = list(xq) + [0, 0]
        diff[1] = (diff[1] - 1) % p
        return _fp_mod(_fp_trim(diff), fbar, p)

    if x_power_minus_x(m):
        return False
    for r in (d for d in range(2, m + 1) if m % d == 0 and _is_prime(d)):
        g = _fp_gcd(fbar, x_power_minus_x(m // r), p)
        if len(g) - 1 >= 1:
            return False
    return True


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(d):
    """Deterministic primality; raises InputError when d >= _MR_LIMIT has
    no factor among the bases, since the test cannot certify it there."""
    if d < 2:
        return False
    for a in _MR_BASES:
        if d % a == 0:
            return d == a
    if d >= _MR_LIMIT:
        raise InputError(f"primality of p cannot be certified, got {d}")
    s, t = 0, d - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MR_BASES:
        x = pow(a, t, d)
        if x == 1 or x == d - 1:
            continue
        for _ in range(s - 1):
            x = x * x % d
            if x == d - 1:
                break
        else:
            return False
    return True


def default_irreducible(p, m):
    """Lexicographically smallest monic irreducible of degree m over F_p."""
    if m == 1:
        return [0, 1]
    # enumerate lower-coefficient vectors
    for code in range(p ** m):
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % p)
            c //= p
        f = coeffs + [1]
        if is_irreducible_mod_p(f, p):
            return f
    raise InputError(f"no irreducible polynomial of degree {m} mod {p}")


# ---------------------------------------------------------------------------
# the ring
# ---------------------------------------------------------------------------


class WittRing:
    """(Z/p^n)[x]/(f) with cached Frobenius lift.

    WittRing(p, n, m, f) returns the ring shared by every construction
    with the same (p, n, m, f), the WITT_RING_CACHE most recently used
    being kept, so its memo tables (sigma, the packing, the matrices of x
    and sigma(x)) are built once, not once per call; a ring is immutable
    apart from them."""

    __slots__ = ("p", "n", "m", "f", "q", "_sigma_gen", "_sigma_mat",
                 "_sigma_cols", "_gen_mats", "_slot", "_mask", "_shifts",
                 "_folds")

    def __new__(cls, p, n, m=1, f=None):
        return _witt_ring(p, n, m, None if f is None else tuple(f))

    # -- element constructors ------------------------------------------

    def elem(self, coeffs):
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        coeffs = [c % self.q for c in coeffs]
        if len(coeffs) > self.m:
            coeffs = self._reduce(coeffs)
        coeffs += [0] * (self.m - len(coeffs))
        return WittElem(self, tuple(coeffs))

    def zero(self):
        return self.elem([0])

    def one(self):
        return self.elem([1])

    def gen(self):
        return self.elem([0, 1] if self.m > 1 else [1])

    def elements(self):
        """All p^{nm} elements (desk scale only)."""
        return [WittElem(self, c)
                for c in itertools.product(range(self.q), repeat=self.m)]

    def lower_precision(self, drop):
        """The same ring with n reduced by `drop` p-adic digits."""
        if drop <= 0:
            return self
        if self.n - drop < 1:
            raise InputError("cannot drop below precision 1")
        return WittRing(self.p, self.n - drop, self.m,
                        [c % self.p ** (self.n - drop) for c in self.f])

    # -- internal polynomial arithmetic mod (q, f) -----------------------

    def _reduce(self, coeffs):
        """coeffs (length >= m, overwritten) mod (f, q), with one % q per
        coefficient."""
        m, f = self.m, self.f
        # x^k = x^{k-m} x^m = -sum f_i x^{k-m+i}, top degree first
        for k in range(len(coeffs) - 1, m - 1, -1):
            c = coeffs[k]
            if c:
                for i in range(m):
                    coeffs[k - m + i] -= c * f[i]
        return [c % self.q for c in coeffs[:m]]

    # -- Kronecker-packed arithmetic at m > 1 (see the module docstring) --

    def _packing(self):
        """Build, once, the slot width b, the slot mask, the shifts of the
        m low slots (top first) and, for k = m..2m-2, the shift of slot k
        with the packed row x^k mod (f, q); returns b."""
        m, q = self.m, self.q
        b = self._slot = (m * q * q * (1 + (m - 1) * q)).bit_length()
        self._mask = (1 << b) - 1
        self._shifts = tuple(range((m - 1) * b, -1, -b))
        self._folds = tuple((k * b, self._pack(self._reduce([0] * k + [1])))
                            for k in range(m, 2 * m - 1))
        return b

    def _pack(self, coeffs):
        """coeffs mod q as one packed int; builds the layout on first use."""
        b, q, v = self._slot or self._packing(), self.q, 0
        for c in reversed(coeffs):
            v = v << b | c % q
        return v

    def _fold(self, w):
        """A packed product whose low m slots hold it mod f: each high
        slot is added to them times its packed row x^k mod (f, q)."""
        mask = self._mask
        for s, row in self._folds:
            w += (w >> s & mask) * row
        return w

    def _unpack(self, w):
        """The low m slots of w, each mod q, as a tuple."""
        b, mask, q, out = self._slot, self._mask, self.q, []
        for _ in range(self.m):
            out.append((w & mask) % q)
            w >>= b
        return tuple(out)

    def _repack(self, w):
        """The low m slots of w, each mod q, packed again."""
        b, mask, q, v = self._slot, self._mask, self.q, 0
        for s in self._shifts:
            v = v << b | (w >> s & mask) % q
        return v

    # -- sigma -----------------------------------------------------------

    def sigma_gen(self):
        """Image of the residue generator under the Frobenius lift."""
        if self._sigma_gen is None:
            if self.m == 1:
                self._sigma_gen = self.one()
            else:
                y = self.gen() ** self.p
                # Newton iteration: y <- y - f(y)/f'(y); quadratic convergence
                steps = max(1, self.n.bit_length() + 1)
                for _ in range(steps):
                    fy = self._poly_eval(self.f, y)
                    if fy.is_zero():
                        break
                    dfy = self._poly_eval(
                        [(i * c) % self.q for i, c in enumerate(self.f)][1:], y)
                    y = y - fy * dfy.inv()
                if not self._poly_eval(self.f, y).is_zero():
                    raise NonSeparable("Newton iteration failed to converge")
                self._sigma_gen = y
        return self._sigma_gen

    def _poly_eval(self, coeffs, x):
        acc = self.zero()
        for c in reversed(list(coeffs)):
            acc = acc * x + self.elem([c])
        return acc

    def _sigma_matrix(self):
        """The m x m matrix M over Z/p^n whose column j is sigma(x^j) =
        sigma(x)^j, as a tuple of rows, and its packed columns (built once)."""
        if self._sigma_mat is None:
            s = self.sigma_gen()
            pows = [self.one()]
            for _ in range(self.m - 1):
                pows.append(pows[-1] * s)
            self._sigma_cols = tuple(self._pack(pw.coeffs) for pw in pows)
            self._sigma_mat = tuple(zip(*(pw.coeffs for pw in pows)))
        return self._sigma_mat

    def _mul_matrix(self, c):
        """The m x m matrix over Z/p^n of multiplication by the WittElem c
        (column j is c x^j), as a tuple of rows."""
        cols, w = [], list(c.coeffs)
        for _ in range(self.m):
            cols.append(w)
            w = self._reduce([0] + w)
        return tuple(zip(*cols))

    def _gen_matrices(self):
        """The _mul_matrix of x and of sigma(x), built once."""
        if self._gen_mats is None:
            self._gen_mats = (self._mul_matrix(self.gen()),
                              self._mul_matrix(self.sigma_gen()))
        return self._gen_mats

    def sigma(self, a):
        """The Frobenius lift, a -> M a with M from _sigma_matrix, as the
        sum of a_j times the packed column j."""
        if self.m == 1:
            return a
        if self._sigma_mat is None:
            self._sigma_matrix()
        q, v = self.q, 0
        for c, col in zip(a.coeffs, self._sigma_cols):
            v += c % q * col
        return WittElem(self, self._unpack(v))

    def __eq__(self, other):
        return self is other or (isinstance(other, WittRing)
                and (self.p, self.n, self.m, self.f)
                == (other.p, other.n, other.m, other.f))

    def __hash__(self):
        return hash((self.p, self.n, self.m, self.f))

    def __repr__(self):
        return f"WittRing(p={self.p}, n={self.n}, m={self.m})"


# a WittRing holds O(m^2) ints beside its parameters, so many fit; a ring
# reached through an unresolved f (f=None) takes two entries, that key and
# the resolved one, so 512 entries keep at least 256 rings
WITT_RING_CACHE = 512


@functools.lru_cache(maxsize=WITT_RING_CACHE)
def _witt_ring(p, n, m, f):
    """Validate the parameters and build the ring; WittRing's miss path.
    An invalid key raises on every call, since lru_cache keeps no error.
    The default f (f=None) and an f not reduced mod p^n are resolved first
    and the ring of the resolved key returned, so every spelling of one f
    gives the identical ring."""
    if n < 1 or m < 1:
        raise InputError("need n >= 1 and m >= 1")
    if not _is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    q = p ** n
    key = tuple(c % q for c in (default_irreducible(p, m) if f is None
                                else f))
    if key != f:
        return _witt_ring(p, n, m, key)
    W = object.__new__(WittRing)
    W.p = p
    W.n = n
    W.m = m
    W.q = q
    if len(f) != m + 1 or f[-1] != 1:
        raise InputError("f must be monic of degree m")
    if not is_irreducible_mod_p(f, p):
        raise InputError("f must be irreducible mod p")
    fbar = _fp_trim([c % p for c in f])
    if len(_fp_gcd(fbar, _fp_deriv(fbar, p), p)) - 1 >= 1:
        raise NonSeparable("f has repeated roots mod p")
    W.f = tuple(f)
    W._sigma_gen = W._sigma_mat = W._gen_mats = None
    W._slot = None
    return W


class WittElem:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def __add__(self, other):
        q = self.ring.q
        return WittElem(self.ring, tuple(
            (a + b) % q for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        q = self.ring.q
        return WittElem(self.ring, tuple(
            (a - b) % q for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        q = self.ring.q
        return WittElem(self.ring, tuple((-a) % q for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        r = self.ring
        if r.m == 1:
            return WittElem(r, ((self.coeffs[0] * other.coeffs[0]) % r.q,))
        return WittElem(r, r._unpack(r._fold(
            r._pack(self.coeffs) * r._pack(other.coeffs))))

    __rmul__ = __mul__

    def scale(self, c):
        q = self.ring.q
        return WittElem(self.ring, tuple((a * c) % q for a in self.coeffs))

    def __pow__(self, e):
        """Square-and-multiply on the packed int, boxed once; a negative e
        raises the inverse (NotAUnit for a non-unit)."""
        r = self.ring
        if e < 0:
            return self.inv() ** -e
        if r.m == 1:
            return WittElem(r, (pow(self.coeffs[0], e, r.q),))
        acc, base = 1, r._pack(self.coeffs)
        while e:
            if e & 1:
                acc = r._repack(r._fold(acc * base))
            e >>= 1
            if e:
                base = r._repack(r._fold(base * base))
        return WittElem(r, r._unpack(acc))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_unit(self):
        return any(c % self.ring.p for c in self.coeffs)

    def inv(self):
        """Two-sided inverse; Hensel lift of the residue-field inverse."""
        r = self.ring
        if not self.is_unit():
            raise NotAUnit("element is zero mod p")
        p = r.p
        fbar = _fp_trim([c % p for c in r.f])
        y = r.elem(_fp_invmod(_fp_trim([c % p for c in self.coeffs]), fbar, p))
        two = r.elem([2])
        k = 1
        while k < r.n:
            y = y * (two - self * y)
            k *= 2
        return y

    def __eq__(self, other):
        return (isinstance(other, WittElem) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return f"WittElem{self.coeffs}"


def _blockwise(rows, v, q):
    """The m x m matrix given by its rows applied, mod q, to each m-block of
    the flat vector v (zero blocks are copied)."""
    m, out = len(rows), []
    for k in range(0, len(v), m):
        b = v[k:k + m]
        out.extend([sum(map(operator.mul, r, b)) % q for r in rows]
                   if any(b) else b)
    return out


def _multiples(v, rows, q):
    """[v, Mv, ..., M^{m-1} v], M the m x m matrix given by its rows and
    applied to each m-block of the flat vector v."""
    out = [v]
    for _ in range(1, len(rows)):
        out.append(_blockwise(rows, out[-1], q))
    return out


def _semilinear_matrix(images, W):
    """The matrix over Z/W.q of the sigma-semilinear map sending basis
    vector k to the flat vector images[k], on the coordinates (k, a) of
    x^a e_k: column (k, a) is sigma(x)^a times images[k]."""
    sx = W._gen_matrices()[1]
    cols = [c for im in images for c in _multiples(im, sx, W.q)]
    return [list(r) for r in zip(*cols)]


def _fp_invmod(a, f, p):
    """Inverse of a modulo (f, p) by the extended Euclidean algorithm."""
    r0, r1 = list(f), list(a)
    s0, s1 = [], [1]
    while _fp_trim(list(r1)):
        q, rem = _fp_divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _fp_trim([(x - y) % p for x, y in itertools.zip_longest(
            s0, _fp_mul(q, s1, p), fillvalue=0)])
    # r0 = gcd, a constant since f is irreducible
    c = pow(r0[0], -1, p)
    return [(c * x) % p for x in s0]


def _fp_divmod(a, b, p):
    a = list(a)
    q = [0] * max(1, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    while _fp_trim(a) and len(a) >= len(b):
        d = len(a) - len(b)
        c = (a[-1] * inv_lead) % p
        q[d] = c
        for i in range(len(b)):
            a[d + i] = (a[d + i] - c * b[i]) % p
    return _fp_trim(q), a

