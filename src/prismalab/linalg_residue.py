"""Exact linear algebra over Z/p^n.

Howell normal form is the workhorse: it supports row-span membership and
kernel computations over the chain ring Z/p^n.

One elimination engine serves both: ``howell_form`` echelonizes the rows
themselves, and ``factor`` echelonizes ``[A^T | I]`` once.  The resulting
``Factored`` system answers any number of right-hand sides: ``solve(b)``
reduces ``[b | 0]`` against the stored pivots (a nonzero left remainder
means b is not attained), and ``kernel()`` is built on its first call from
the right blocks of the rows whose left block vanished.  ``kernel_solve``
is one factor with at most one solve.

Plain rows in, a Howell basis out: every function takes a matrix as a list
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


def howell_form(rows, p, n):
    """Howell basis of the row span of rows over Z/p^n, as a list of rows."""
    q = p ** n
    ncols = len(rows[0]) if rows else 0
    pivots, _ = _echelon([[x % q for x in r] for r in rows], ncols, p, n)

    # reduce entries above each pivot for canonicity
    for j, (prow, col, v) in enumerate(pivots):
        pv = p ** v
        tail = prow[col:]
        for r, _, _ in pivots[:j]:
            if r[col] >= pv:
                _sub_tail(r, tail, r[col] // pv, col, q)
    return [r for r, _, _ in pivots]


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
    """One elimination of ``[A^T | I]``, kept to serve many solves.

    A row ``[l | t]`` of the echelonized ``[A^T | I]`` has ``t A^T = l``:
    ``solve`` reduces ``[b | 0]`` against the pivot rows, and ``kernel``
    reads the right blocks of the rows whose left block vanished.
    """

    __slots__ = ("p", "n", "rows", "cols", "_pivots", "_dead", "_kernel")

    def __init__(self, p, n, rows, cols, pivots, dead):
        self.p, self.n, self.rows, self.cols = p, n, rows, cols
        self._pivots, self._dead, self._kernel = pivots, dead, None

    def solve(self, b):
        """A particular x with A x = b; raises Inconsistent when b is not
        attainable."""
        if len(b) != self.rows:
            raise InputError("right-hand side length must equal the row count")
        q = self.p ** self.n
        # [b | 0] minus the pivots it needs is [0 | -x] with A x = b
        vec = [x % q for x in b] + [0] * self.cols
        for prow, col, _ in self._pivots:
            c = vec[col] // prow[col]
            if c:
                _sub_tail(vec, prow[col:], c, col, q)
        if any(vec[:self.rows]):
            raise Inconsistent("no solution" if self.cols else
                               "empty system with nonzero right-hand side")
        return [-x % q for x in vec[self.rows:]]

    def kernel(self):
        """Howell basis of ker A, computed on the first call."""
        if self._kernel is None:
            self._kernel = howell_form([r[self.rows:] for r in self._dead],
                                       self.p, self.n)
            self._dead = None
        return self._kernel


def factor(entries, p, n):
    """Eliminate the rows entries over Z/p^n once, as a Factored system
    whose kernel and solutions for any right-hand side read off the same
    echelon form."""
    q = p ** n
    rows = len(entries)
    cols = len(entries[0]) if entries else 0
    work = []
    for j, col in enumerate(zip(*entries)):
        r = [x % q for x in col] + [0] * cols
        r[rows + j] = 1
        work.append(r)
    pivots, dead = _echelon(work, rows, p, n)
    return Factored(p, n, rows, cols, pivots, dead)


def kernel_solve(A, b, p, n):
    """Solve A x = 0 (and optionally A x = b) over Z/p^n.

    Returns (kernel_generators, particular_solution); the solution part is
    None when b is None.  Raises Inconsistent when b is not attainable.
    x is a column vector of length cols(A).
    """
    F = factor(A, p, n)
    sol = F.solve(b) if b is not None else None
    return F.kernel(), sol
