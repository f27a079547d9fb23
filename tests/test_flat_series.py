"""The flat SeriesElem and FiniteModel against the boxed layout.

BoxedSeries, ref_phi_apply and the methods of BoxedModel are the
implementations that stored one WittElem per series coefficient, kept
verbatim (up to names) as references.  The
properties check that the flat code gives the same series (coefficients,
N and the exact flag), the same model vectors, and the same exceptions
with the same messages, over rings (p, n, m) at m = 1, 2 and 3 and models
at nexp < n.
"""

from types import SimpleNamespace

from hypothesis import given, strategies as st

from prismalab.errors import InputError, PrecisionLoss, PrismalabError
from prismalab.linalg_residue import howell_form
from prismalab.phi_modules import FiniteModel, PhiModule
from prismalab.series_rings import SeriesElem, phi_apply
from prismalab.witt_base import WittElem, WittRing, _blockwise

RINGS = [(2, 1, 1), (3, 2, 1), (2, 1, 2), (3, 1, 2), (2, 2, 3)]


def ring(pnm):
    return WittRing(*pnm)


# ---------------------------------------------------------------------------
# references: the boxed layout
# ---------------------------------------------------------------------------


class BoxedSeries:
    """Element of W_n[[u]] known modulo u^N (N=None means exact polynomial).

    The boxed layout, one WittElem per coefficient."""

    __slots__ = ("ring", "coeffs", "N", "exact")

    def __init__(self, ring, coeffs, N=None, exact=None):
        self.ring = ring
        cs = [c if isinstance(c, WittElem) else ring.elem([c]) for c in coeffs]
        if exact is None:
            exact = N is None
        if N is None and not exact:
            raise InputError("unbounded elements must be exact")
        if N is not None and len(cs) > N:
            if exact and any(not c.is_zero() for c in cs[N:]):
                raise PrecisionLoss(
                    f"exact element of degree {len(cs) - 1} exceeds bound {N}")
            cs = cs[:N]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self.N = N
        self.exact = exact

    # -- helpers ---------------------------------------------------------

    @classmethod
    def from_ints(cls, ring, int_coeffs, N=None, exact=None):
        return cls(ring, [ring.elem([c]) for c in int_coeffs], N, exact)

    @classmethod
    def u_pow(cls, ring, k, N=None):
        return cls.from_ints(ring, [0] * k + [1], N)

    def coeff(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else self.ring.zero()

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def truncate(self, N):
        return BoxedSeries(self.ring, self.coeffs[:N], N, exact=False)

    def _join(self, other):
        if self.ring != other.ring:
            raise InputError("mixed coefficient rings")
        ns = [x for x in (self.N, other.N) if x is not None]
        return (min(ns) if ns else None), (self.exact and other.exact)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        N, exact = self._join(other)
        la, lb = len(self.coeffs), len(other.coeffs)
        cs = [self.coeff(i) + other.coeff(i) for i in range(max(la, lb))]
        return BoxedSeries(self.ring, cs, N, exact)

    def __sub__(self, other):
        N, exact = self._join(other)
        la, lb = len(self.coeffs), len(other.coeffs)
        cs = [self.coeff(i) - other.coeff(i) for i in range(max(la, lb))]
        return BoxedSeries(self.ring, cs, N, exact)

    def __neg__(self):
        zero = self.ring.zero()
        return BoxedSeries(self.ring, [zero - c for c in self.coeffs],
                           self.N, self.exact)

    def __mul__(self, other):
        if isinstance(other, (int, WittElem)):
            return self.scale(other)
        N, exact = self._join(other)
        if self.is_zero() or other.is_zero():
            return BoxedSeries(self.ring, [], N, exact)
        deg = self.degree() + other.degree()
        if exact and N is not None and deg >= N:
            raise PrecisionLoss(
                f"exact product of degree {deg} exceeds bound {N}")
        top = deg if N is None else min(deg, N - 1)
        out = [self.ring.zero() for _ in range(top + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > top:
                    break
                out[i + j] = out[i + j] + a * b
        return BoxedSeries(self.ring, out, N, exact)

    __rmul__ = __mul__

    def scale(self, c):
        if isinstance(c, int):
            c = self.ring.elem([c])
        return BoxedSeries(self.ring, [a * c for a in self.coeffs],
                          self.N, self.exact)

    def __pow__(self, k):
        acc = BoxedSeries(self.ring, [self.ring.one()], self.N, self.exact)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def __eq__(self, other):
        return (isinstance(other, BoxedSeries)
                and self.ring == other.ring and self.N == other.N
                and self.exact == other.exact and self.coeffs == other.coeffs)

    def __repr__(self):
        terms = [f"{list(c.coeffs)}*u^{i}"
                 for i, c in enumerate(self.coeffs) if not c.is_zero()]
        tail = "" if self.N is None else f" + O(u^{self.N})"
        return ("0" if not terms else " + ".join(terms)) + tail


def ref_phi_apply(x: BoxedSeries, bound=None) -> BoxedSeries:
    """Frobenius on series: sigma on coefficients, u -> u^p.

    With a bound, equals phi_apply(x).truncate(bound) but builds only the
    coefficients below the bound, so its cost does not grow with p.
    """
    r = x.ring
    p = r.p
    width = p * len(x.coeffs)
    if bound is None:
        N, exact = (None if x.N is None else p * x.N), x.exact
    else:
        N, exact, width = bound, False, min(bound, width)
    out = [r.zero() for _ in range(width)]
    for i in range(0, width, p):
        out[i] = r.sigma(x.coeffs[i // p])
    return BoxedSeries(r, out, N, exact)

class BoxedModel:
    """The coordinate maps of a FiniteModel on boxed series columns."""

    def __init__(self, mdl, M):
        self.M = M
        self.N = mdl.N
        self.W = mdl.W
        self.nexp = mdl.nexp
        self.p = mdl.p
        self.m = mdl.m
        self.q = mdl.q
        self.dim = mdl.dim
        self._phi_img = None

    def _convert(self, e):
        if e.ring == self.W:
            return e
        return BoxedSeries(self.W, [self.W.elem(list(c.coeffs))
                                   for c in e.coeffs])

    def idx(self, s, t, j):
        return (s * self.N + t) * self.m + j

    def vec(self, col):
        v = [0] * self.dim
        for s, e in enumerate(col):
            e = self._convert(e)
            for t in range(min(len(e.coeffs), self.N)):
                for j, cj in enumerate(e.coeffs[t].coeffs):
                    v[self.idx(s, t, j)] = cj % self.q
        return v

    def to_column(self, v, g=None, N=None):
        """Inverse of vec: coordinates back to series columns."""
        g = self.M.g if g is None else g
        N = self.N if N is None else N
        col = []
        for s in range(g):
            cs = []
            for t in range(N):
                base = (s * N + t) * self.m
                cs.append(self.W.elem(list(v[base:base + self.m])))
            col.append(BoxedSeries(self.W, cs))
        return col

    def gen_vec(self, i):
        v = [0] * self.dim
        v[self.idx(i, 0, 0)] = 1
        return v

    def u_shift(self, v, k):
        if k == 0:
            return list(v)
        out = [0] * self.dim
        for s in range(self.M.g):
            for t in range(self.N - k):
                src = (s * self.N + t) * self.m
                dst = (s * self.N + t + k) * self.m
                out[dst:dst + self.m] = v[src:src + self.m]
        return out

    def x_mul(self, v):
        out = [0] * self.dim
        gen = self.W.gen()
        for s in range(self.M.g):
            for t in range(self.N):
                base = (s * self.N + t) * self.m
                w = self.W.elem(list(v[base:base + self.m])) * gen
                out[base:base + self.m] = w.coeffs
        return out

    def column_rows(self, col):
        """Spanning vectors for all S-multiples of the element col."""
        rows = []
        gen = self.W.gen()
        for j in range(self.m):
            cj = [self._convert(e).scale(gen ** j) for e in col]
            v0 = self.vec(cj)
            for t in range(self.N):
                rows.append(self.u_shift(v0, t))
        return rows

    def phi_vec(self, v):
        if self._phi_img is None:
            gen = self.W.gen()
            img = []
            for s in range(self.M.g):
                per_j = []
                for j in range(self.m):
                    sxj = self.W.sigma(gen ** j)
                    col = [(self._convert(self.M.phi[i][s]).scale(sxj))
                           for i in range(self.M.g)]
                    per_j.append(self.vec(col))
                img.append(per_j)
            self._phi_img = img
        out = [0] * self.dim
        p = self.p
        for s in range(self.M.g):
            for t in range(self.N):
                if p * t >= self.N:
                    break
                for j in range(self.m):
                    c = v[self.idx(s, t, j)]
                    if c:
                        sh = self.u_shift(self._phi_img[s][j], p * t)
                        for i, x in enumerate(sh):
                            if x:
                                out[i] = (out[i] + c * x) % self.q
        return out


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def outcome(fn):
    """('ok', value) or the exception class and message that fn raised."""
    try:
        return "ok", fn()
    except PrismalabError as exc:
        return type(exc), str(exc)


def same(flat, boxed):
    """Both outcomes raise the same error, or agree as series."""
    if flat[0] != "ok" or boxed[0] != "ok":
        assert flat == boxed
        return
    x, y = flat[1], boxed[1]
    assert isinstance(x, SeriesElem) and isinstance(y, BoxedSeries)
    assert (x.ring, x.N, x.exact, x.coeffs) == (y.ring, y.N, y.exact,
                                               y.coeffs)
    assert x.vec == tuple(a for c in y.coeffs for a in c.coeffs)


@st.composite
def coefficients(draw, W, max_len=6):
    """A list of WittElems over W, trailing zeros allowed."""
    k = draw(st.integers(0, max_len))
    digit = st.integers(0, W.q - 1)
    return [W.elem(draw(st.lists(digit, min_size=W.m, max_size=W.m)))
            for _ in range(k)]


@st.composite
def bounds(draw):
    """(N, exact): unbounded exact, or bounded and exact, inexact or
    left to the default."""
    N = draw(st.one_of(st.none(), st.integers(1, 6)))
    if N is None:
        return None, draw(st.sampled_from([None, True]))
    return N, draw(st.sampled_from([None, True, False]))


@st.composite
def series_pairs(draw):
    W = ring(draw(st.sampled_from(RINGS)))
    cs, (N, exact) = draw(coefficients(W)), draw(bounds())
    return W, cs, N, exact


def both(W, cs, N, exact):
    return (outcome(lambda: SeriesElem(W, cs, N, exact)),
            outcome(lambda: BoxedSeries(W, cs, N, exact)))


@given(series_pairs(), series_pairs(), st.integers(-5, 40),
       st.integers(0, 3), st.integers(0, 8), st.integers(1, 14))
def test_flat_series_arithmetic_equals_boxed(a, b, c, k, cut, bound):
    W = a[0]
    fa, ba = both(*a)
    same(fa, ba)
    # the second operand over the same ring, with b's coefficients
    fb, bb = both(W, [W.elem(list(x.coeffs)) for x in b[1]], b[2], b[3])
    same(fb, bb)
    same(outcome(lambda: SeriesElem.from_ints(W, [c, 0, c], a[2], a[3])),
         outcome(lambda: BoxedSeries.from_ints(W, [c, 0, c], a[2], a[3])))
    if fa[0] != "ok" or fb[0] != "ok":
        return
    x, y, X, Y = fa[1], fb[1], ba[1], bb[1]
    w = W.elem([c, 1, c + 2][:W.m])
    for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: -s,
               lambda s, t: s * t, lambda s, t: t * s, lambda s, t: s * c,
               lambda s, t: s.scale(w), lambda s, t: s * w,
               lambda s, t: s ** k, lambda s, t: s.truncate(cut)):
        same(outcome(lambda: op(x, y)), outcome(lambda: op(X, Y)))
    assert (x == y) == (X == Y)
    assert x.coeffs == X.coeffs
    assert x.degree() == X.degree() and x.is_zero() == X.is_zero()
    same(outcome(lambda: phi_apply(x)), outcome(lambda: ref_phi_apply(X)))
    same(outcome(lambda: phi_apply(x, bound)),
         outcome(lambda: ref_phi_apply(X, bound)))


def test_precision_loss_is_raised_in_the_same_cases():
    W = ring((3, 2, 1))
    cs = [W.elem([1]), W.zero(), W.elem([2])]
    for N in (1, 2, 3):
        same(*both(W, cs, N, True))
    u = (SeriesElem.u_pow(W, 2, N=3), BoxedSeries.u_pow(W, 2, N=3))
    e = (SeriesElem(W, [1, 0, 1], 3, True), BoxedSeries(W, [1, 0, 1], 3, True))
    same(outcome(lambda: e[0] * e[0]), outcome(lambda: e[1] * e[1]))
    same(outcome(lambda: e[0] * u[0]), outcome(lambda: e[1] * u[1]))
    assert outcome(lambda: e[0] * e[0])[0] is PrecisionLoss
    assert outcome(lambda: SeriesElem(W, cs, 2, True))[0] is PrecisionLoss
    assert outcome(lambda: SeriesElem(W, cs, None, False))[0] is InputError


@st.composite
def models(draw):
    """A module over one of RINGS with g <= 2 generators, relation columns
    and phi drawn at random, a u-bound N and a precision nexp <= n; as
    (flat PhiModule, its boxed relations and phi, N, nexp)."""
    W = ring(draw(st.sampled_from(RINGS)))
    g = draw(st.integers(1, 2))
    N = draw(st.integers(1, 5))
    nexp = draw(st.integers(1, W.n))
    entry = coefficients(W, max_len=N + 1)
    rels = [[draw(entry) for _ in range(g)]
            for _ in range(draw(st.integers(0, 2)))]
    phi = [[draw(entry) for _ in range(g)] for _ in range(g)]
    M = PhiModule(W, g, [[SeriesElem(W, cs) for cs in col] for col in rels],
                  [[SeriesElem(W, cs) for cs in row] for row in phi],
                  N=N, validate=False)
    boxed = SimpleNamespace(
        g=g, relations=[[BoxedSeries(W, cs) for cs in col] for col in rels],
        phi=[[BoxedSeries(W, cs) for cs in row] for row in phi])
    return M, boxed, N, nexp


@given(models(), st.data())
def test_flat_model_equals_boxed(model, data):
    M, boxed, N, nexp = model
    mdl = M.model(N, nexp)
    ref = BoxedModel(mdl, boxed)
    assert mdl.nexp == nexp and mdl.q == M.ring.p ** nexp
    cols = list(zip(M.relations, boxed.relations)) + [
        ([M.phi[i][s] for i in range(M.g)],
         [boxed.phi[i][s] for i in range(M.g)]) for s in range(M.g)]
    rows, ref_rows = [], []
    for col, bcol in cols:
        assert mdl.vec(col) == ref.vec(bcol)
        assert mdl.column_rows(col) == ref.column_rows(bcol)
    for col, bcol in zip(M.relations, boxed.relations):
        rows.extend(mdl.column_rows(col))
        ref_rows.extend(ref.column_rows(bcol))
    assert rows == ref_rows
    assert mdl.H == howell_form(ref_rows, mdl.p, nexp)
    v = data.draw(st.lists(st.integers(0, mdl.q - 1), min_size=mdl.dim,
                           max_size=mdl.dim))
    for k in range(N + 3):
        assert mdl.u_shift(v, k) == ref.u_shift(v, k)
    assert mdl.u_shift(v, N) == [0] * mdl.dim
    assert _blockwise(mdl.W._gen_matrices()[0], v, mdl.q) == ref.x_mul(v)
    assert mdl.phi_vec(v) == ref.phi_vec(v)
    for g in range(M.g + 1):
        flat = mdl.to_column(v[:g * N * mdl.m], g=g)
        boxed_col = ref.to_column(v[:g * N * mdl.m], g=g)
        for x, X in zip(flat, boxed_col, strict=True):
            same(("ok", x), ("ok", X))
    assert mdl.vec(mdl.to_column(v)) == v
