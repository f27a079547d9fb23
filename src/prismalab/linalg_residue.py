"""Exact linear algebra over Z/p^n.

Howell normal form is the workhorse: it supports row-span membership and
kernel computations over the chain ring Z/p^n.

One elimination engine serves both: ``howell_form`` echelonizes the rows
themselves, and ``factor`` echelonizes ``[v_j | w_j]`` once over their
full width, for vectors v_j and their images w_j under a linear map (the
unit vectors e_j by default).  The resulting ``Factored`` system answers
any number of targets: ``solve(b)`` reduces ``[b | 0]`` against the pivots
in the left block to the image of b, sum x_j w_j for any x with
sum x_j v_j = b (the coefficients x themselves when w = e; a nonzero left
remainder means b is not in the span), and ``kernel()`` is the Howell
basis read from the pivots in the right block: the images sum x_j w_j of
the relations sum x_j v_j = 0, which are the relations when w = e.

Plain rows in, a Howell basis out: every function takes vectors as a list
of rows of ints together with p and n, and ``howell_form`` returns the
canonical Howell basis as a list of rows, none of them zero.  Empty in,
empty out: no rows, or rows of width 0, give the empty basis, whose span
has length 0 and holds only the zero vector.
"""

from __future__ import annotations

from .errors import Inconsistent, InputError


def _val(x, p, n):
    """p-adic valuation of x mod p^n (n for x == 0)."""
    if x == 0:
        return n
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _sub_tail(r, tail, c, col, q):
    """r -= c * s in place, where tail = s[col:] and r, s vanish before col."""
    r[col:] = [(a - c * b) % q for a, b in zip(r[col:], tail)]


def _echelon(rows, ncols, p, n):
    """Echelonize rows (fresh lists mod p^n) in place on their first ncols
    entries.  Per column, the pivot is the first working row of least
    valuation v, scaled to p^v; for v > 0, p^(n-v) times it rejoins the
    work (the Howell property).  A working row is zero before the current
    column, so row operations touch only the entries from there on.

    Returns (pivots, dead): (row, col, v) per pivot in column order, and
    the rows whose first ncols entries became zero.
    """
    q = p ** n
    pivots, dead, work = [], [], []
    for r in rows:
        (work if any(r[:ncols]) else dead).append(r)
    for col in range(ncols):
        best, bv = None, n
        for i, r in enumerate(work):
            if r[col]:
                v = _val(r[col], p, n)
                if v < bv:
                    best, bv = i, v
                    if not v:
                        break
        if best is None:
            continue
        prow = work.pop(best)
        pv = p ** bv
        iu = pow(prow[col] // pv, -1, q)
        if iu != 1:
            prow[col:] = [(a * iu) % q for a in prow[col:]]
        tail = prow[col:]
        pivots.append((prow, col, bv))
        rest = []
        for r in work:
            if r[col]:
                _sub_tail(r, tail, r[col] // pv, col, q)
                if not any(r[col + 1:ncols]):
                    dead.append(r)
                    continue
            rest.append(r)
        if bv:
            s = p ** (n - bv)
            r = [0] * col + [(a * s) % q for a in tail]
            (rest if any(r[col + 1:ncols]) else dead).append(r)
        work = rest
    return pivots, dead


def _howell_basis(pivots, p, n):
    """The pivot rows of an echelon form, each entry above a later pivot
    reduced below it: the canonical Howell basis of their span."""
    q = p ** n
    for j, (prow, col, v) in enumerate(pivots):
        pv = p ** v
        tail = prow[col:]
        for r, _, _ in pivots[:j]:
            if r[col] >= pv:
                _sub_tail(r, tail, r[col] // pv, col, q)
    return [r for r, _, _ in pivots]


def howell_form(rows, p, n):
    """Howell basis of the row span of rows over Z/p^n, as a list of rows."""
    q = p ** n
    ncols = len(rows[0]) if rows else 0
    pivots, _ = _echelon([[x % q for x in r] for r in rows], ncols, p, n)
    return _howell_basis(pivots, p, n)


def pivot_info(H, p, n):
    """(column, valuation) per Howell row."""
    out = []
    for r in H:
        col = next(i for i, x in enumerate(r) if x)
        out.append((col, _val(r[col], p, n)))
    return out


def reduce_vector(H, vec, p, n):
    """Canonical remainder of vec against a Howell basis H."""
    q = p ** n
    vec = [x % q for x in vec]
    for r in H:
        col = next(j for j, x in enumerate(r) if x)
        c = vec[col] // r[col]
        if c:
            _sub_tail(vec, r[col:], c, col, q)
    return vec


def in_span(H, vec, p, n):
    return not any(reduce_vector(H, vec, p, n))


def span_length(H, p, n):
    """Length over Z/p of the row span (sum of n - v over pivots)."""
    return sum(n - v for _, v in pivot_info(H, p, n))


def spans_equal(H1, H2, p, n):
    return (all(in_span(H2, r, p, n) for r in H1)
            and all(in_span(H1, r, p, n) for r in H2))


class Factored:
    """One elimination of ``[v_j | w_j]``, kept to serve many solves.

    A row ``[l | t]`` of the echelon form is ``sum_j x_j [v_j | w_j]`` for
    some x: ``solve`` reduces ``[b | 0]`` against the pivots in the left
    block, and ``kernel`` reads the pivots in the right block, whose left
    block vanished.
    """

    __slots__ = ("p", "n", "length", "count", "width", "_pivots",
                 "_syzygies", "_kernel")

    def __init__(self, p, n, length, count, width, pivots):
        self.p, self.n = p, n
        self.length, self.count, self.width = length, count, width
        k = next((i for i, (_, col, _) in enumerate(pivots) if col >= length),
                 len(pivots))
        self._pivots, self._syzygies = pivots[:k], pivots[k:]
        self._kernel = None

    def solve(self, b):
        """The image sum_j x_j w_j of b = sum_j x_j v_j (the coefficients x
        when w = e); raises Inconsistent when b is not in the span of the
        vectors (with no vectors: when b is not zero)."""
        if self.count and len(b) != self.length:
            raise InputError("target length must equal the vector length")
        q, k = self.p ** self.n, len(b)
        # [b | 0] minus the pivots it needs is [0 | -image]
        vec = [x % q for x in b] + [0] * self.width
        for prow, col, _ in self._pivots:
            c = vec[col] // prow[col]
            if c:
                _sub_tail(vec, prow[col:], c, col, q)
        if any(vec[:k]):
            raise Inconsistent("no solution" if self.count else
                               "empty system with nonzero right-hand side")
        return [-x % q for x in vec[k:]]

    def kernel(self):
        """Howell basis of the images sum_j x_j w_j of the relations
        sum_j x_j v_j = 0 (the relations when w = e), built once."""
        if self._kernel is None:
            k = self.length
            self._kernel = [r[k:] for r in
                            _howell_basis(self._syzygies, self.p, self.n)]
            self._syzygies = None
        return self._kernel


def factor(vectors, p, n, images=None):
    """Eliminate the rows [v_j | w_j] over Z/p^n once, w_j the image of the
    vector v_j (default: the unit vector e_j), as a Factored system whose
    images of any target and kernel read off the same echelon form."""
    q = p ** n
    length, count = (len(vectors[0]) if vectors else 0), len(vectors)
    if images is None:
        images = [[0] * j + [1] + [0] * (count - 1 - j) for j in range(count)]
    width = len(images[0]) if images else 0
    work = [[x % q for x in v] + [x % q for x in w]
            for v, w in zip(vectors, images, strict=True)]
    pivots, _ = _echelon(work, length + width, p, n)
    return Factored(p, n, length, count, width, pivots)
