"""Arithmetic in the coefficient ring W_n(F_{p^m}).

The ring is modelled as (Z/p^n)[x]/(f) for a monic degree-m lift f of an
irreducible polynomial over F_p.  WittRing(p, n, m, f) returns one shared
ring per parameter set (at most WITT_RING_CACHE of them), so what a ring
builds lazily is built once, not once per construction.  The Frobenius
lift sigma is computed by Newton iteration on f from x^p.

At m > 1 an element keeps one Kronecker-packed int across operations:
sum a_i x^i (0 <= a_i < q) is the int sum a_i 2^{B i}, with slot spacing
B = 2b + 2, where b is the bit length of m q^2 (1 + (m - 1) q); coeffs is
unpacked from it on first read and then kept.  A product's slots are below
m q^2; folding its m - 1 high slots into the low m with the packed rows
x^k mod (f, q) keeps each below 2^b, as does sigma's sum of the slots a_j
times the packed columns sigma(x)^j, so no slot carries.  Every slot
x < 2^b is then reduced at once by Barrett's quotient t = floor(x R / 2^s),
with s = b + bitlen(q) and R = floor(2^s / q) + 1, as x - q t:
  - t = floor(x / q) exactly, since R = 2^s/q + d with 0 < d <= 1 and
    x q < 2^s, so x d / 2^s < 1/q adds less than the fraction's gap to 1;
  - x R <= (2^b - 1)(2^{b+1} + 1) < 2^{2b+1}, as q >= 2^{s-b-1}: it fits
    one slot, so the one product of the packed int with R keeps the slots
    apart;
  - t < 2^{B-s}, so (x R >> s) masked to B - s bits per slot is t.
A sum of two reduced elements has slots below 2q; adding 2^(B-1) - q to
every slot sets a slot's top bit exactly where it is >= q, and q is
subtracted there.  - adds q in every slot first.  At m = 1 the packed int
is the coefficient and the arithmetic is plain int arithmetic mod q.  A
ring builds B, the rows, the columns and the constants on first use.

sigma's sum is taken by table lookup (the "four Russians" matrix-vector
product of Arlazarov, Dinic, Kronrod and Faradzev, 1970) wherever
q <= SIGMA_TABLE_SIZE = 256 and the tables fit SIGMA_TABLE_BITS.  The m
slots are cut into runs of k consecutive slots, k the largest k <= m with
q^k <= 256 (the last run may be shorter), and a ring builds, with sigma's
matrix, one dict per run that maps the run's packed bits
sum a_j 2^{B (j - start)} to sum a_j sigma(x)^j over the run, unreduced.
A table holds q^k <= 256 entries, and a ring at most 256 ceil(m / k), each
an m B-bit packed value; the tables are built only where their entries
times m B stay within SIGMA_TABLE_BITS = 2^18 bits.  With the dicts that
is under 100 KB a ring, as tracemalloc reads it on CPython 3.11: 80 KB at
(p, n, m) = (2, 8, 4), 1024 entries of 232 bits, and 90 KB at (179, 1, 5).
So the WITT_RING_CACHE rings hold at most about 50 MB of tables.  sigma
adds one lookup per run: the sum of the runs' sums is, term for term, the
integer sum a_j sigma(x)^j, so its slots keep the bound above and _mod_q
reduces it as before.  Above q = 256 even a one-slot table needs q entries
(3^20 at p = 3, n = 20), so there, and for a ring whose tables would pass
SIGMA_TABLE_BITS, sigma multiplies each slot a_j, read by shift and mask,
by its column.

The linearization of sigma-semilinear maps lives here too: a ring builds
the matrices of x and sigma(x) on first use, _multiples gives the x^a or
sigma(x)^a multiples of a flat vector, and _semilinear_matrix a map's
matrix.

The polynomial kit, on coefficient lists low degree first, is the one
home of polynomial arithmetic: int_poly_mul, int_poly_pow and
int_poly_divmod over Z (the exact lifts of series_rings, breuil_fl and
cyclo_suite), and the _fp_* helpers over F_p, where a product is
int_poly_mul followed by one reduction in _fp_divmod.  Every power but
WittElem's packed one is _power, left-to-right square-and-multiply from
the base.  is_irreducible_mod_p is Ben-Or's test (FOCS 1981; Gao and
Panario, "Tests and constructions of irreducible polynomials over finite
fields", 1997): f of degree m is irreducible iff gcd(f, x^(p^j) - x) = 1
for j = 1..m//2, since a reducible f has an irreducible factor of degree
d <= m/2, and that factor divides x^(p^d) - x.  Both the user's f and
default_irreducible's lexicographic search take it, and a random reducible
f usually fails at a small j.  No separability check follows it: F_p is
perfect, so an irreducible f has distinct roots.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import NonSeparable, NotAUnit, InputError

# ---------------------------------------------------------------------------
# the polynomial kit: coefficient lists, low degree first, over Z and F_p
# ---------------------------------------------------------------------------


def _power(x, e, mul):
    """x^e for e >= 1 by left-to-right square-and-multiply from the base:
    bitlen(e) - 1 squarings and popcount(e) - 1 products by x."""
    acc = x
    for bit in bin(e)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def int_poly_pow(a, k):
    return _power(list(a), k, int_poly_mul) if k else [1]


def int_poly_divmod(a, b):
    """Exact division over Z by a monic polynomial b."""
    a = _fp_trim(list(a))
    db = len(b) - 1
    q = [0] * max(1, len(a) - db)
    while len(a) - 1 >= db and a:
        c = a[-1]
        d = len(a) - 1 - db
        q[d] = c
        for i in range(db + 1):
            a[d + i] -= c * b[i]
        _fp_trim(a)
    return q, a


def _fp_divmod(a, b, p):
    """Quotient and remainder of a by b over F_p: a is reduced mod p here,
    b must be reduced with a nonzero leading coefficient."""
    a = [c % p for c in a]
    q = [0] * max(1, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    while _fp_trim(a) and len(a) >= len(b):
        d = len(a) - len(b)
        c = q[d] = a[-1] * inv_lead % p
        a[d:] = [(x - c * y) % p for x, y in zip(a[d:], b)]
    return _fp_trim(q), a


def _fp_mod(a, f, p):
    return _fp_divmod(a, f, p)[1]


def _fp_powmod(a, e, f, p):
    return _power(_fp_mod(a, f, p), e,
                  lambda x, y: _fp_mod(int_poly_mul(x, y), f, p))


def _fp_gcd(a, b, p):
    while b:
        a, b = b, _fp_mod(a, b, p)
    return a


def _fp_invmod(a, f, p):
    """Inverse of a modulo (f, p) by the extended Euclidean algorithm."""
    r0, r1 = f, a
    s0, s1 = [], [1]
    while r1:
        q, rem = _fp_divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _fp_trim([(x - y) % p for x, y in itertools.zip_longest(
            s0, int_poly_mul(q, s1), fillvalue=0)])
    # r0 = gcd, a constant since f is irreducible
    c = pow(r0[0], -1, p)
    return [(c * x) % p for x in s0]


def is_irreducible_mod_p(f, p):
    """Irreducibility of a monic polynomial over F_p by Ben-Or's test
    (module docstring): h = x^(p^j) mod f, and gcd(f, h - x) = 1, for
    j = 1..m//2."""
    fbar = _fp_trim([c % p for c in f])
    m = len(fbar) - 1
    if m < 1:
        return False
    h = [0, 1]
    for _ in range(m // 2):
        h = _fp_powmod(h, p, fbar, p)
        h_minus_x = h + [0, 0]
        h_minus_x[1] -= 1
        if len(_fp_gcd(h_minus_x, fbar, p)) > 1:
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
    # enumerate lower-coefficient vectors, skipping the f with f(0) = 0
    for code in range(p ** m):
        if not code % p:
            continue
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
                 "_sigma_cols", "_sigma_tabs", "_sigma_run", "_gen_mats",
                 "_slot", "_mask", "_low", "_folds", "_shift", "_recip",
                 "_quot", "_qs", "_flags")

    def __new__(cls, p, n, m=1, f=None):
        return _witt_ring(p, n, m, None if f is None else tuple(f))

    # -- element constructors ------------------------------------------

    def elem(self, coeffs):
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        if len(coeffs) > self.m:
            coeffs = self._reduce([c % self.q for c in coeffs])
        return WittElem(self, coeffs)

    def zero(self):
        return self.elem([0])

    def one(self):
        return self.elem([1])

    def gen(self):
        return self.elem([0, 1] if self.m > 1 else [1])

    def elements(self):
        """All p^{nm} elements (desk scale only), packed slot by slot."""
        B = self._slot or self._packing()
        slots = [range(0, self.q << B * i, 1 << B * i) for i in range(self.m)]
        return [_box(self, sum(c)) for c in itertools.product(*slots)]

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

    # -- the packed layout (see the module docstring) ---------------------

    def _packing(self):
        """Build, once, the slot spacing B, the slot mask, the mask of the
        m low slots, the shift of slot k with the packed row x^k mod (f, q)
        for k = m..2m-2, and the constants of the two slot-parallel
        reductions; returns B."""
        m, q = self.m, self.q
        b = (m * q * q * (1 + (m - 1) * q)).bit_length()
        B = self._slot = 2 * b + 2
        ones = sum(1 << B * i for i in range(m))
        self._mask = (1 << B) - 1
        self._low = (1 << B * m) - 1
        self._shift = s = b + q.bit_length()
        self._recip = (1 << s) // q + 1
        self._quot = ((1 << B - s) - 1) * ones
        self._qs = q * ones
        self._flags = ones << B - 1
        self._folds = tuple((k * B, self._pack(self._reduce([0] * k + [1])))
                            for k in range(m, 2 * m - 1))
        return B

    def _pack(self, coeffs):
        """coeffs mod q as one packed int; builds the layout on first use."""
        B, q, v = self._slot or self._packing(), self.q, 0
        for c in reversed(coeffs):
            v = v << B | c % q
        return v

    def _unpack(self, v):
        """The m slots of the reduced packed int v, as a tuple."""
        B, mask, out = self._slot, self._mask, []
        for _ in range(self.m):
            out.append(v & mask)
            v >>= B
        return tuple(out)

    def _mod_q(self, x):
        """x, whose m slots are each below 2^b, with every slot reduced
        mod q by one Barrett quotient."""
        return x - self.q * (x * self._recip >> self._shift & self._quot)

    def _mul_mod(self, w):
        """The product w of two reduced packed ints, reduced mod (f, q):
        each high slot is added to the low m times its packed row
        x^k mod (f, q), then dropped, and the low slots are reduced as
        _mod_q reduces them (inlined on the path of every product)."""
        mask = self._mask
        for s, row in self._folds:
            w += (w >> s & mask) * row
        w &= self._low
        return w - self.q * (w * self._recip >> self._shift & self._quot)

    def _sub_q(self, x):
        """x, whose m slots are each below 2q, with q subtracted from each
        slot at or above q: adding 2^(B-1) - q sets the slot's flag bit
        exactly there."""
        flags = self._flags
        high = (x + flags - self._qs) & flags
        return x - (high >> (self._slot - 1)) * self.q

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
        sigma(x)^j, as a tuple of rows, built once with what sigma reads:
        the packed columns and, at m > 1 and q <= SIGMA_TABLE_SIZE, one
        table per run of k slots (k the largest k <= m with
        q^k <= SIGMA_TABLE_SIZE) mapping the run's packed bits to the sum
        of its slots a_j times the packed columns sigma(x)^j, unreduced,
        if the tables' packed values fit SIGMA_TABLE_BITS."""
        if self._sigma_mat is None:
            m, q, s = self.m, self.q, self.sigma_gen()
            pows = [self.one()]
            for _ in range(m - 1):
                pows.append(pows[-1] * s)
            cols = self._sigma_cols = tuple(pw._v for pw in pows)
            if m > 1 and q <= SIGMA_TABLE_SIZE:
                k, B = 1, self._slot
                while k < m and q ** (k + 1) <= SIGMA_TABLE_SIZE:
                    k += 1
                starts = range(0, m, k)
                size = sum(q ** min(k, m - start) for start in starts)
                if size * m * B <= SIGMA_TABLE_BITS:
                    tabs = []
                    for start in starts:
                        tab = {0: 0}
                        for j in range(start, min(start + k, m)):
                            at, col = B * (j - start), cols[j]
                            tab = {key + (a << at): val + a * col
                                   for key, val in tab.items()
                                   for a in range(q)}
                        tabs.append(tab)
                    self._sigma_tabs = tuple(tabs)
                    self._sigma_run = (B * k, (1 << B * k) - 1)
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
        """The Frobenius lift, a -> M a with M from _sigma_matrix: the sum
        over the slots a_j of a of a_j times the packed column j, reduced
        mod q.  Where _sigma_matrix built tables the sum is one table
        lookup per run of slots, each keyed by the run's bits read by shift
        and mask; elsewhere each slot is read and multiplied by its
        column."""
        if self.m == 1:
            return a
        if self._sigma_mat is None:
            self._sigma_matrix()
        x, v, tabs = a._v, 0, self._sigma_tabs
        if tabs:
            run, mask = self._sigma_run
            for tab in tabs:
                v += tab[x & mask]
                x >>= run
        else:
            B, mask = self._slot, self._mask
            for col in self._sigma_cols:
                v += (x & mask) * col
                x >>= B
        return _box(self, self._mod_q(v))

    def __eq__(self, other):
        return self is other or (isinstance(other, WittRing)
                and (self.p, self.n, self.m, self.f)
                == (other.p, other.n, other.m, other.f))

    def __hash__(self):
        return hash((self.p, self.n, self.m, self.f))

    def __repr__(self):
        return f"WittRing(p={self.p}, n={self.n}, m={self.m})"


# Size budgets of a ring, checked before any ring is built: a coefficient
# mod q = p^n has at most n * bitlen(p) bits, an element has m of them and
# the ring's matrices m^2.  Both are far above what the tests and the
# benchmark use (1062 bits, m = 12) and keep a mistyped header from
# exhausting memory.
RING_BITS_BUDGET = 2 ** 13
RING_DEGREE_BUDGET = 2 ** 8

# The most entries of one of sigma's lookup tables, and the most bits of
# packed values (entries times m B) the tables of one ring may hold; a ring
# with q over the first, or whose tables would pass the second, takes
# sigma's column path (module docstring).  The largest tables of the
# witt_sweep rings, at (p, n, m) = (2, 1, 12), hold 272 entries of 288 bits,
# 78,336 bits in all.
SIGMA_TABLE_SIZE = 2 ** 8
SIGMA_TABLE_BITS = 2 ** 18


def check_ring_size(p, n, m):
    """Refuse (InputError) a ring whose p^n or m is over its budget,
    naming the key and the budget."""
    if n * p.bit_length() > RING_BITS_BUDGET:
        raise InputError(
            f"ring too large: n={n} gives p^n of up to {n * p.bit_length()} "
            f"bits, over the budget of {RING_BITS_BUDGET} bits")
    if m > RING_DEGREE_BUDGET:
        raise InputError(f"ring too large: m={m} is over the budget of "
                         f"{RING_DEGREE_BUDGET}")


# a WittRing holds O(m^2) ints beside its parameters and sigma's tables,
# whose packed values are capped at SIGMA_TABLE_BITS, so many fit; a ring
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
    check_ring_size(p, n, m)
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
    W.f = tuple(f)
    W._sigma_gen = W._sigma_mat = W._sigma_tabs = W._gen_mats = None
    W._slot = None
    return W


class WittElem:
    """An element of a WittRing, held as its packed int _v with every slot
    reduced mod q (at m = 1 the coefficient itself).  coeffs is unpacked
    from _v on first read and then kept."""

    __slots__ = ("ring", "_v", "_c")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self._v = ring._pack(coeffs)
        self._c = None

    @property
    def coeffs(self):
        c = self._c
        if c is None:
            c = self._c = self.ring._unpack(self._v)
        return c

    def __add__(self, other):
        r = self.ring
        if r.m == 1:
            return _box(r, (self._v + other._v) % r.q)
        return _box(r, r._sub_q(self._v + other._v))

    def __sub__(self, other):
        r = self.ring
        if r.m == 1:
            return _box(r, (self._v - other._v) % r.q)
        return _box(r, r._sub_q(self._v + r._qs - other._v))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        r = self.ring
        if r.m == 1:
            return _box(r, self._v * other._v % r.q)
        return _box(r, r._mul_mod(self._v * other._v))

    __rmul__ = __mul__

    def scale(self, c):
        r = self.ring
        if r.m == 1:
            return _box(r, self._v * c % r.q)
        return _box(r, r._mod_q(self._v * (c % r.q)))

    def __pow__(self, e):
        """Left-to-right square-and-multiply on the packed int, starting
        from the base: e >= 1 takes bitlen(e) - 1 squarings and
        popcount(e) - 1 products by the base.  A negative e raises the
        inverse (NotAUnit for a non-unit)."""
        r = self.ring
        if e < 0:
            return self.inv() ** -e
        if r.m == 1:
            return _box(r, pow(self._v, e, r.q))
        if not e:
            return _box(r, 1)
        acc = base = self._v
        mul_mod = r._mul_mod
        for bit in bin(e)[3:]:
            acc = mul_mod(acc * acc)
            if bit == "1":
                acc = mul_mod(acc * base)
        return _box(r, acc)

    def is_zero(self):
        return not self._v

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
        return (isinstance(other, WittElem) and self._v == other._v
                and self.ring == other.ring)

    def __hash__(self):
        return hash((self.ring, self._v))

    def __repr__(self):
        return f"WittElem{self.coeffs}"


def _box(ring, v):
    """The element of ring whose packed int is v, every slot reduced."""
    e = _new(WittElem)
    e.ring, e._v, e._c = ring, v, None
    return e


_new = object.__new__


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
