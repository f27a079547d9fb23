"""Arithmetic in the coefficient ring W_n(F_{p^m}).

The ring is modelled as (Z/p^n)[x]/(f) for a monic degree-m lift f of an
irreducible polynomial over F_p.  The Frobenius lift sigma is computed once
per ring by Newton iteration on f starting from x^p; its matrix on the basis
1, x, ..., x^{m-1} is built on first use and applied as m dot products.
"""

from __future__ import annotations

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
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while len(a) - 1 >= df and _fp_trim(a):
        if not a:
            break
        da = len(a) - 1
        c = (a[-1] * inv_lead) % p
        for i in range(df + 1):
            a[da - df + i] = (a[da - df + i] - c * f[i]) % p
        _fp_trim(a)
    return a


def _fp_mulmod(a, b, f, p):
    return _fp_mod(_fp_mul(a, b, p), f, p)


def _fp_powmod(a, e, f, p):
    r = [1]
    a = _fp_mod(list(a), f, p)
    while e:
        if e & 1:
            r = _fp_mulmod(r, a, f, p)
        a = _fp_mulmod(a, a, f, p)
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
    """(Z/p^n)[x]/(f) with cached Frobenius lift."""

    __slots__ = ("p", "n", "m", "f", "q", "_sigma_gen", "_sigma_mat")

    def __init__(self, p, n, m=1, f=None):
        if n < 1 or m < 1:
            raise InputError("need n >= 1 and m >= 1")
        if not _is_prime(p):
            raise InputError(f"p must be prime, got {p}")
        self.p = p
        self.n = n
        self.m = m
        self.q = p ** n
        if f is None:
            f = default_irreducible(p, m)
        f = [c % self.q for c in f]
        if len(f) != m + 1 or f[-1] != 1:
            raise InputError("f must be monic of degree m")
        if not is_irreducible_mod_p(f, p):
            raise InputError("f must be irreducible mod p")
        fbar = _fp_trim([c % p for c in f])
        if len(_fp_gcd(fbar, _fp_deriv(fbar, p), p)) - 1 >= 1:
            raise NonSeparable("f has repeated roots mod p")
        self.f = tuple(f)
        self._sigma_gen = None
        self._sigma_mat = None

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
        cur = [self.zero()]
        for i in range(self.m):
            nxt = []
            for e in cur:
                for c in range(self.q):
                    v = list(e.coeffs)
                    v[i] = c
                    nxt.append(WittElem(self, tuple(v)))
            cur = nxt
        return cur

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
        """The m x m matrix M over Z/p^n whose column j is
        sigma(x^j) = sigma(x)^j, as a tuple of rows (built once)."""
        if self._sigma_mat is None:
            s = self.sigma_gen()
            pows = [self.one()]
            for _ in range(self.m - 1):
                pows.append(pows[-1] * s)
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

    def sigma(self, a):
        """The Frobenius lift, a -> M a with M from _sigma_matrix."""
        if self.m == 1:
            return a
        return WittElem(self, tuple([
            sum(map(operator.mul, row, a.coeffs)) % self.q
            for row in self._sigma_mat or self._sigma_matrix()]))

    def __eq__(self, other):
        return (isinstance(other, WittRing)
                and (self.p, self.n, self.m, self.f)
                == (other.p, other.n, other.m, other.f))

    def __hash__(self):
        return hash((self.p, self.n, self.m, self.f))

    def __repr__(self):
        return f"WittRing(p={self.p}, n={self.n}, m={self.m})"


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
        out = [0] * (2 * r.m - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return WittElem(r, tuple(r._reduce(out)))

    __rmul__ = __mul__

    def scale(self, c):
        q = self.ring.q
        return WittElem(self.ring, tuple((a * c) % q for a in self.coeffs))

    def __pow__(self, e):
        acc = self.ring.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

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
        abar = _fp_trim([c % p for c in self.coeffs])
        inv_bar = _fp_invmod(abar, fbar, p)
        y = r.elem(inv_bar + [0] * r.m)
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


def _fp_invmod(a, f, p):
    """Inverse of a modulo (f, p) by the extended Euclidean algorithm."""
    r0, r1 = list(f), list(a)
    s0, s1 = [], [1]
    while _fp_trim(list(r1)):
        q, rem = _fp_divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _fp_trim([
            (x - y) % p for x, y in _zip_pad(s0, _fp_mul(q, s1, p))])
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
        _fp_trim(a)
    return _fp_trim(q), a


def _zip_pad(a, b):
    la, lb = len(a), len(b)
    n = max(la, lb)
    return zip(a + [0] * (n - la), b + [0] * (n - lb))
