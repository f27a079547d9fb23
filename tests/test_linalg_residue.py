import itertools
import random

import pytest
from hypothesis import given, strategies as st

from prismalab.errors import Inconsistent, InputError
from prismalab import linalg_residue
from prismalab.linalg_residue import (
    _echelon, factor, howell_form, in_span, reduce_vector, span_length,
    spans_equal,
)


def columns(A):
    """The columns of the matrix A (a list of rows): the vectors that A x
    combines, as factor takes them."""
    return [list(c) for c in zip(*A)]


# ---------------------------------------------------------------------------
# references: the separate pivot loops of howell_form and of the kernel
# and particular solution of A x = b that the shared elimination engine
# replaced, kept verbatim (full-width row operations, an identity
# transform always carried)
# ---------------------------------------------------------------------------


def _val(x, p, n):
    if x == 0:
        return n
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _row_scale(row, c, q):
    return [(a * c) % q for a in row]


def _row_sub(r, s, c, q):
    return [(a - c * b) % q for a, b in zip(r, s)]


def ref_howell_form(rows, p, n):
    q = p ** n
    ncols = len(rows[0]) if rows else 0
    nrows = len(rows)
    work = []
    for i, r in enumerate(rows):
        t = [0] * nrows
        t[i] = 1
        work.append(([x % q for x in r], t))
    pivots = []
    for col in range(ncols):
        cands = [w for w in work if w[0][col] != 0]
        if not cands:
            continue
        piv = min(cands, key=lambda w: _val(w[0][col], p, n))
        work.remove(piv)
        prow, ptr = piv
        v = _val(prow[col], p, n)
        iu = pow(prow[col] // (p ** v), -1, q)
        prow = _row_scale(prow, iu, q)
        ptr = _row_scale(ptr, iu, q)
        pv = p ** v
        for idx, (r, t) in enumerate(work):
            if r[col]:
                c = r[col] // pv
                work[idx] = (_row_sub(r, prow, c, q), _row_sub(t, ptr, c, q))
        pivots.append((prow, ptr, col, v))
        if v > 0:
            c = p ** (n - v)
            work.append((_row_scale(prow, c, q), _row_scale(ptr, c, q)))
        work = [w for w in work if any(w[0])]
    for j in range(len(pivots)):
        prow, ptr, col, v = pivots[j]
        pv = p ** v
        for i in range(j):
            r, t, c0, v0 = pivots[i]
            if r[col] >= pv:
                c = r[col] // pv
                pivots[i] = (_row_sub(r, prow, c, q),
                             _row_sub(t, ptr, c, q), c0, v0)
    return [pv[0] for pv in pivots], [pv[1] for pv in pivots]


def ref_kernel_solve(entries, b, p, n):
    q = p ** n
    rows = len(entries)
    cols = len(entries[0]) if entries else 0
    if cols == 0:
        if b is not None and any(x % q for x in b):
            raise Inconsistent("empty system with nonzero right-hand side")
        return [], ([] if b is not None else None)
    M = [[entries[i][j] for i in range(rows)] for j in range(cols)]
    work = []
    for i, r in enumerate(M):
        t = [0] * cols
        t[i] = 1
        work.append(([x % q for x in r], t))
    pivots = []
    kernel = []
    for col in range(rows):
        cands = [w for w in work if w[0][col] != 0]
        if not cands:
            continue
        piv = min(cands, key=lambda w: _val(w[0][col], p, n))
        work.remove(piv)
        prow, ptr = piv
        v = _val(prow[col], p, n)
        iu = pow(prow[col] // (p ** v), -1, q)
        prow, ptr = _row_scale(prow, iu, q), _row_scale(ptr, iu, q)
        pv = p ** v
        for idx, (r, t) in enumerate(work):
            if r[col]:
                c = r[col] // pv
                work[idx] = (_row_sub(r, prow, c, q), _row_sub(t, ptr, c, q))
        pivots.append((prow, ptr, col, v))
        if v > 0:
            c = p ** (n - v)
            work.append((_row_scale(prow, c, q), _row_scale(ptr, c, q)))
        new_work = []
        for r, t in work:
            if any(r):
                new_work.append((r, t))
            elif any(t):
                kernel.append(t)
        work = new_work
    for r, t in work:
        if not any(r) and any(t):
            kernel.append(t)
    kernel = ref_howell_form(kernel, p, n)[0] if kernel else []
    sol = None
    if b is not None:
        rem = [x % q for x in b]
        used = [0] * len(pivots)
        for i, (prow, ptr, col, v) in enumerate(pivots):
            if rem[col]:
                c = rem[col] // prow[col]
                rem = _row_sub(rem, prow, c, q)
                used[i] = c
        if any(rem):
            raise Inconsistent("no solution")
        sol = [0] * cols
        for c, (_, ptr, _, _) in zip(used, pivots):
            if c:
                sol = [(s + c * t) % q for s, t in zip(sol, ptr)]
    return kernel, sol


def brute_span(rows, q):
    """All Z/q-combinations of the rows (tiny instances only)."""
    if not rows:
        return {()}
    out = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        v = [0] * len(rows[0])
        for c, r in zip(coeffs, rows):
            for i, x in enumerate(r):
                v[i] = (v[i] + c * x) % q
        out.add(tuple(v))
    return out


def test_identity_fixed():
    assert howell_form([[1, 0], [0, 1]], 2, 2) == [[1, 0], [0, 1]]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 2)])
def test_empty_in_empty_out(p, n):
    # the callers rely on this instead of guarding an empty input
    assert howell_form([], p, n) == []
    assert howell_form([[]], p, n) == []
    assert howell_form([[0, 0], [p ** n, 0]], p, n) == []
    assert in_span([], [0, 0], p, n)
    assert in_span([], [p ** n, 0], p, n)
    assert not in_span([], [1, 0], p, n)
    assert span_length([], p, n) == 0
    assert factor([], p, n).kernel() == []


def test_frozen_2x2_membership():
    H = howell_form([[2]], 2, 2)
    assert H == [[2]]
    assert not in_span(H, [1], 2, 2)
    assert in_span(H, [2], 2, 2)


def test_howell_uniqueness_under_scrambling():
    rng = random.Random(3)
    p, n = 2, 3
    q = p ** n
    for _ in range(30):
        A = [[rng.randrange(q) for _ in range(4)] for _ in range(4)]
        H1 = howell_form(A, p, n)
        # random row-equivalent scramble: unimodular mix + permutation
        B = [list(r) for r in A]
        for _ in range(6):
            i, j = rng.randrange(4), rng.randrange(4)
            if i != j:
                c = rng.randrange(q)
                B[i] = [(x + c * y) % q for x, y in zip(B[i], B[j])]
        rng.shuffle(B)
        u = 1 + p * rng.randrange(p ** (n - 1))
        B[0] = [(u * x) % q for x in B[0]]
        H2 = howell_form(B, p, n)
        assert H1 == H2


def test_howell_span_preserved_brute_force():
    rng = random.Random(4)
    p, n = 2, 3
    q = 8
    A = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
    H = howell_form(A, p, n)
    assert brute_span(A, q) == brute_span(H, q)
    # membership agrees with brute force on 50 random vectors
    span = brute_span(A, q)
    for _ in range(50):
        v = [rng.randrange(q) for _ in range(3)]
        assert in_span(H, v, p, n) == (tuple(v) in span)


def test_kernel_zero_matrix():
    K = factor([[0], [0]], 2, 2).kernel()
    assert brute_span(K, 4) == brute_span([[1, 0], [0, 1]], 4)


def test_kernel_of_p_over_p_squared():
    K = factor([[2]], 2, 2).kernel()
    assert brute_span(K, 4) == {(0,), (2,)}


def test_kernel_brute_force_oracle_mod_9():
    rng = random.Random(5)
    p, n = 3, 2
    q = 9
    A = [[rng.randrange(q) for _ in range(5)] for _ in range(3)]
    K = factor(columns(A), p, n).kernel()
    true_kernel = set()
    for x in itertools.product(range(q), repeat=5):
        if all(sum(a * xi for a, xi in zip(row, x)) % q == 0 for row in A):
            true_kernel.add(x)
    kspan = brute_span(K, q) if K else {(0,) * 5}
    assert kspan == true_kernel
    # solution count from Howell valuations matches brute force
    assert len(true_kernel) == p ** span_length(K, p, n) if K else 1
    # spot-check membership on 100 samples
    for _ in range(100):
        x = tuple(rng.randrange(q) for _ in range(5))
        assert (x in kspan) == (x in true_kernel)


def test_particular_solution_and_inconsistency():
    p, n = 2, 3
    A = [[1, 2], [0, 4]]
    sol = factor(columns(A), p, n).solve([3, 4])
    assert [(sum(a * s for a, s in zip(row, sol))) % 8 for row in A] == [3, 4]
    with pytest.raises(Inconsistent):
        factor([[2]], p, n).solve([1])


def test_spans_equal():
    p, n = 2, 2
    H1 = howell_form([[1, 1], [0, 2]], p, n)
    H2 = howell_form([[0, 2], [1, 3]], p, n)
    assert spans_equal(H1, H2, p, n)


# ---------------------------------------------------------------------------
# the shared engine against the reference loops
# ---------------------------------------------------------------------------


def _random_matrix(rng, rows, cols, p, n):
    """Entries biased towards 0 and towards multiples of p, so pivots of
    every valuation, empty columns and vanishing rows all occur."""
    q = p ** n

    def entry():
        k = rng.randrange(4)
        if k == 0:
            return 0
        if k == 1:
            return (p ** rng.randrange(n) * rng.randrange(1, q)) % q
        return rng.randrange(q)
    return [[entry() for _ in range(cols)] for _ in range(rows)]


SHAPES = [(0, 0), (3, 0), (1, 1), (2, 2), (4, 4), (7, 3), (6, 2),
          (3, 7), (2, 6), (5, 5)]


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_engine_matches_reference_loops(p, n):
    rng = random.Random(p * 100 + n)
    q = p ** n
    for rows, cols in SHAPES:
        for trial in range(12):
            A = _random_matrix(rng, rows, cols, p, n) if rows else []
            if trial == 0 and rows:
                A = [[0] * cols for _ in range(rows)]
            H_ref, _ = ref_howell_form(A, p, n)
            assert howell_form(A, p, n) == H_ref
            K_ref, _ = ref_kernel_solve(A, None, p, n)
            assert factor(columns(A), p, n).kernel() == K_ref
            x = [rng.randrange(q) for _ in range(cols)]
            attained = [sum(a * b for a, b in zip(r, x)) % q for r in A]
            for b in (attained, [rng.randrange(q) for _ in range(rows)]):
                F = factor(columns(A), p, n)
                try:
                    ref = ref_kernel_solve(A, b, p, n)
                except Inconsistent:
                    with pytest.raises(Inconsistent):
                        F.solve(b)
                else:
                    assert (F.kernel(), F.solve(b)) == ref


def test_solve_takes_any_length_only_without_vectors():
    # three vectors of length 2 fix the length of b at 2; no vectors fix
    # none, and only a zero b is then in their span
    F = factor([[1, 0], [0, 1], [1, 1]], 2, 1)
    x = F.solve([1, 1])
    assert [(x[0] + x[2]) % 2, (x[1] + x[2]) % 2] == [1, 1]
    for b in ([1], [1, 0, 0]):
        with pytest.raises(InputError):
            F.solve(b)
    E = factor([], 3, 2)
    assert E.solve([]) == E.solve([0, 9, 0]) == [] and E.kernel() == []
    with pytest.raises(Inconsistent, match="empty system"):
        E.solve([0, 1])


# ---------------------------------------------------------------------------
# factor once, solve many: against the kernel and particular solution of
# A x = b as they were before factor, kept verbatim (one elimination per
# call, the kernel always built)
# ---------------------------------------------------------------------------


def kernel_solve_per_call(A, b=None, p=None, n=None):
    entries = A
    if p is None or n is None:
        raise InputError("p and n required for raw matrices")
    q = p ** n
    rows = len(entries)
    cols = len(entries[0]) if entries else 0
    if b is not None and len(b) != rows:
        raise InputError("right-hand side length must equal the row count")
    if cols == 0:
        if b is not None and any(x % q for x in b):
            raise Inconsistent("empty system with nonzero right-hand side")
        return [], ([] if b is not None else None)
    # a row [l | t] of the echelonized [A^T | I] has t A^T = l
    work = []
    for j, col in enumerate(zip(*entries)):
        r = [x % q for x in col] + [0] * cols
        r[rows + j] = 1
        work.append(r)
    pivots, dead = _echelon(work, rows, p, n)
    kernel = [r[rows:] for r in dead if any(r[rows:])]
    kernel = howell_form(kernel, p, n) if kernel else []

    sol = None
    if b is not None:
        # [b | 0] minus the pivots it needs is [0 | -x] with A x = b
        rem = reduce_vector([r for r, _, _ in pivots], list(b) + [0] * cols,
                            p, n)
        if any(rem[:rows]):
            raise Inconsistent("no solution")
        sol = [-x % q for x in rem[rows:]]
    return kernel, sol


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_factor_serves_every_right_hand_side_like_per_call_solves(p, n):
    # tall, wide, square, zero-row (0, 0), zero-column (3, 0), and the
    # all-zero matrix at trial 0; several right-hand sides per factor
    rng = random.Random(p * 1000 + n)
    q = p ** n
    for rows, cols in SHAPES:
        for trial in range(8):
            A = _random_matrix(rng, rows, cols, p, n) if rows else []
            if trial == 0 and rows:
                A = [[0] * cols for _ in range(rows)]
            F = factor(columns(A), p, n)
            rhs = [[0] * rows]
            for _ in range(3):
                x = [rng.randrange(q) for _ in range(cols)]
                rhs.append([sum(a * b for a, b in zip(r, x)) % q for r in A])
                rhs.append([rng.randrange(q) for _ in range(rows)])
            attained = 0
            for b in rhs:
                try:
                    K_ref, sol_ref = kernel_solve_per_call(A, b, p, n)
                except Inconsistent as exc:
                    with pytest.raises(Inconsistent, match=str(exc)):
                        F.solve(b)
                    with pytest.raises(Inconsistent, match=str(exc)):
                        factor(columns(A), p, n).solve(b)
                else:
                    attained += 1
                    assert F.solve(b) == sol_ref
                    assert F.kernel() == K_ref
                    G = factor(columns(A), p, n)
                    assert (G.solve(b), G.kernel()) == (sol_ref, K_ref)
            assert attained >= 4
            assert F.kernel() == kernel_solve_per_call(A, None, p, n)[0]


def test_factor_builds_the_kernel_once(monkeypatch):
    calls = []
    real = linalg_residue.howell_form

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg_residue, "howell_form", counting)
    A = [[1, 2, 3], [2, 4, 6]]
    F = factor(columns(A), 3, 2)
    assert F.solve([1, 2]) == kernel_solve_per_call(A, [1, 2], 3, 2)[1]
    assert calls == []
    K = F.kernel()
    assert K == kernel_solve_per_call(A, None, 3, 2)[0] and calls == [1]
    F.solve([2, 4])
    assert F.kernel() is K and calls == [1]


def test_factor_rejects_mismatched_right_hand_side():
    F = factor([[1, 0], [0, 1]], 2, 1)
    with pytest.raises(InputError):
        F.solve([1])


# ---------------------------------------------------------------------------
# properties against brute force at q <= 27
# ---------------------------------------------------------------------------

SMALL_RINGS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
               (5, 1), (5, 2), (7, 1)]


@st.composite
def small_systems(draw, max_rows=3, max_cols=3):
    """(p, n, A) with q = p^n <= 27 and A nonempty, entries biased towards
    0 and powers of p."""
    p, n = draw(st.sampled_from(SMALL_RINGS))
    q = p ** n
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(0), st.sampled_from([p ** k for k in range(n)]),
                      st.integers(0, q - 1))
    A = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    return p, n, A


def _apply(A, x, q):
    return tuple(sum(a * y for a, y in zip(r, x)) % q for r in A)


@given(small_systems())
def test_howell_span_equals_brute_span_property(system):
    p, n, A = system
    q = p ** n
    H = howell_form(A, p, n)
    span = brute_span(A, q)
    assert (brute_span(H, q) if H else {(0,) * len(A[0])}) == span
    assert len(span) == p ** span_length(H, p, n)


@given(small_systems(max_rows=4, max_cols=4), st.randoms(use_true_random=False))
def test_howell_form_invariant_under_unimodular_mixing_property(system, rnd):
    p, n, A = system
    q = p ** n
    B = [list(r) for r in A]
    for _ in range(2 * len(B)):
        i, j = rnd.randrange(len(B)), rnd.randrange(len(B))
        if i != j:
            c = rnd.randrange(q)
            B[i] = [(x + c * y) % q for x, y in zip(B[i], B[j])]
        else:
            u = rnd.choice([k for k in range(1, q) if k % p])
            B[i] = [(u * x) % q for x in B[i]]
    rnd.shuffle(B)
    assert howell_form(B, p, n) == howell_form(A, p, n)


@given(small_systems())
def test_kernel_equals_brute_kernel_property(system):
    p, n, A = system
    q = p ** n
    cols = len(A[0])
    K = factor(columns(A), p, n).kernel()
    kernel = {x for x in itertools.product(range(q), repeat=cols)
              if not any(_apply(A, x, q))}
    assert (brute_span(K, q) if K else {(0,) * cols}) == kernel


@given(small_systems(), st.data())
def test_solve_matches_brute_image_property(system, data):
    p, n, A = system
    q = p ** n
    cols = len(A[0])
    if data.draw(st.booleans()):
        x = data.draw(st.lists(st.integers(0, q - 1), min_size=cols,
                               max_size=cols))
        b = list(_apply(A, x, q))
    else:
        b = data.draw(st.lists(st.integers(0, q - 1), min_size=len(A),
                               max_size=len(A)))
    image = {_apply(A, x, q)
             for x in itertools.product(range(q), repeat=cols)}
    F = factor(columns(A), p, n)
    if tuple(b) in image:
        assert _apply(A, F.solve(b), q) == tuple(b)
    else:
        with pytest.raises(Inconsistent):
            F.solve(b)
