"""Seeded module-description documents for the ``cli_corpus`` workload.

Every document is built from a planted structure, so its expected outcome
is known without running prismalab: a module presented as a direct sum of
W_n(F_{p^m})[u]/(p^a, u^b) has length m * sum(a * b); a planted u-torsion
summand refutes a Z_p-shape at p-exponent 1; a Frobenius that is a product
of elementary matrices is bijective mod (p, u); psi = U^-1 against
phi = E^h U satisfies the height identity; criterion 5's scrambled
Z_p-shape modules have length N * sum(a_i); criterion 3 fixes mu; the
cyclotomic kernel is the span of g0 = (u+1)^(p^(n-1)) - 1; malformed
documents carry a planted error type.

Each case is a dict:
  name      stable identifier
  argv      arguments after ``prismalab`` (the document path is "{doc}")
  text      document text or None
  exit      expected exit code
  verify    callable(report or None) -> bool, or None
  error     expected error type name for exit 2 (None: any InputError)
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------


def _coeff(c, m):
    if m == 1:
        return str(c)
    return "[" + ",".join(str(x) for x in c) + "]"


def series_literal(coeffs, m):
    """Document literal of a polynomial given by its coefficient list.

    With m = 1 a coefficient is an int; otherwise a tuple of m ints.
    """
    zero = 0 if m == 1 else (0,) * m
    terms = []
    for deg, c in enumerate(coeffs):
        if c == zero:
            continue
        cs = _coeff(c, m)
        if deg == 0:
            terms.append(cs)
        elif deg == 1:
            terms.append(f"{cs}*u")
        else:
            terms.append(f"{cs}*u^{deg}")
    return " + ".join(terms) if terms else "0"


def _scalar(c, m):
    return c if m == 1 else (c,) + (0,) * (m - 1)


def _rand_coeff(rng, q, m):
    if m == 1:
        return rng.randrange(q)
    return tuple(rng.randrange(q) for _ in range(m))


def _scale(c, k, q, m):
    if m == 1:
        return (c * k) % q
    return tuple((x * k) % q for x in c)


def _doc(ring, g, killed, rel_cols, phi_rows, check, extra_module="",
         psi_rows=None):
    """Assemble a document; rel_cols are relation columns (one row each)."""
    p, n, m, f = ring
    head = f"p={p} n={n}" + (f" m={m}" if m > 1 else "")
    if f is not None:
        head += " f=" + ",".join(str(c) for c in f)
    mod = f"g={g}"
    if killed is not None:
        mod += " killed=" + ",".join(str(k) for k in killed)
    if extra_module:
        mod += " " + extra_module
    lines = ["[ring]", head, "[module]", mod]
    lines += [_row(col, m) for col in rel_cols]
    if phi_rows is not None:
        lines.append("[phi]")
        lines += [_row(row, m) for row in phi_rows]
    if psi_rows is not None:
        lines.append("[psi]")
        lines += [_row(row, m) for row in psi_rows]
    lines += ["[check]", check]
    return "\n".join(lines) + "\n"


def _row(entries, m):
    # the parser reads any line that starts with "[" as a block header, so
    # a row whose first coefficient is bracketed leads with a zero term
    line = ", ".join(series_literal(e, m) for e in entries)
    return "0 + " + line if line.startswith("[") else line


# F_4 = F_2[x]/(x^2 + x + 1) and F_9 = F_3[x]/(x^2 + 1): stated explicitly
# so the documents do not depend on the library's choice of modulus.
RINGS = {
    "2.1.1": (2, 1, 1, None), "3.1.1": (3, 1, 1, None),
    "5.1.1": (5, 1, 1, None), "2.2.1": (2, 2, 1, None),
    "3.2.1": (3, 2, 1, None), "2.3.1": (2, 3, 1, None),
    "2.1.2": (2, 1, 2, (1, 1, 1)), "3.1.2": (3, 1, 2, (1, 0, 1)),
    "2.2.2": (2, 2, 2, (1, 1, 1)),
}


# ---------------------------------------------------------------------------
# planted direct sums  (+)_s W[u]/(p^a_s, u^b_s)
# ---------------------------------------------------------------------------


def diag_module(rng, ring, shape, redundant=1):
    """Relations, phi and expected length of a planted direct sum.

    shape lists (a_s, b_s).  phi[i][s] is divisible by p^(a_i - a_s) and
    p * b_s >= b_i holds for every pair, so phi preserves the relations.
    Redundant relation columns are S-combinations of the planted ones and
    do not change the module.
    """
    p, n, m, _ = ring
    q = p ** n
    g = len(shape)
    bmax = max(b for _, b in shape)
    assert all(p * b >= bmax for _, b in shape)
    cols = []
    for s, (a, b) in enumerate(shape):
        pa = [[] for _ in range(g)]
        pa[s] = [_scalar(p ** a % q, m)]
        ub = [[] for _ in range(g)]
        ub[s] = [_scalar(0, m)] * b + [_scalar(1, m)]
        if a < n:
            cols.append(pa)
        cols.append(ub)
    # the redundant column reaches degree bmax + 1, which fixes the u-degree
    # bound N = bmax + 2 and so the size of every model built on it
    t = max(range(g), key=lambda i: shape[i][1])
    for _ in range(redundant):
        s = rng.randrange(g)
        a, b = shape[t]
        col = [[] for _ in range(g)]
        r1 = [_rand_coeff(rng, q, m) for _ in range(2)]
        col[s] = [_scale(c, p ** shape[s][0], q, m) for c in r1]
        r2 = [_rand_coeff(rng, q, m), _scalar(rng.randrange(1, p), m)]
        shifted = [_scalar(0, m)] * b + r2
        merged = []
        for k in range(max(len(col[t]), len(shifted))):
            x = col[t][k] if k < len(col[t]) else _scalar(0, m)
            y = shifted[k] if k < len(shifted) else _scalar(0, m)
            merged.append((x + y) % q if m == 1
                          else tuple((u + v) % q for u, v in zip(x, y)))
        col[t] = merged
        cols.append(col)
    phi = []
    for i in range(g):
        row = []
        for s in range(g):
            k = p ** max(0, shape[i][0] - shape[s][0])
            row.append([_scale(_rand_coeff(rng, q, m), k, q, m)
                        for _ in range(rng.randrange(1, 4))])
        phi.append(row)
    length = m * sum(a * b for a, b in shape)
    killed = (max(a for a, _ in shape), bmax)
    return cols, phi, killed, length


def _diag_case(rng, name, ring_key, shape, check, verify, exit_code=0):
    ring = RINGS[ring_key]
    cols, phi, killed, length = diag_module(rng, ring, shape)
    text = _doc(ring, len(shape), killed, cols, phi, f"name={check}")
    return {"name": name, "argv": ["check", "{doc}", "--json"],
            "text": text, "exit": exit_code,
            "verify": verify(length), "error": None}


def _length_is(length):
    return lambda r: r["length"] == length


def _torsion_is(length):
    return lambda r: r["length"] == length and r["torsion_length"] == length


def _split_is(length):
    return lambda r: (r["length"] == length
                      and r["mult_length"] + r["nilp_length"] == length)


def _refuted_at_1(length):
    return lambda r: r["ok"] is False and r["refuted_at_exponent"] == 1


def _boundary_fails(length):
    return lambda r: r["p_u_annihilates"] is False and r["passed"] is False


# (ring, shape) rotations, fixed so every seed has the same work profile.
LENGTH_SHAPES = [
    ("2.1.1", [(1, 3), (1, 5)]), ("3.1.1", [(1, 2), (1, 4), (1, 6)]),
    ("5.1.1", [(1, 4)]), ("2.2.1", [(2, 3), (1, 5)]),
    ("3.2.1", [(1, 2), (2, 4)]), ("2.3.1", [(3, 4), (1, 3), (2, 6)]),
    ("2.1.2", [(1, 3), (1, 4)]), ("3.1.2", [(1, 5)]),
    ("2.2.2", [(2, 3), (1, 6)]),
]
SPLIT_SHAPES = [
    ("2.1.1", [(1, 4), (1, 6)]), ("3.1.1", [(1, 4), (1, 6)]),
    ("2.1.1", [(1, 6)]), ("3.1.1", [(1, 4)]),
    ("2.2.1", [(2, 4), (1, 6)]), ("3.2.1", [(2, 4)]),
    ("2.1.2", [(1, 4)]), ("3.1.2", [(1, 4)]),
]
TORSION_SHAPES = [
    ("2.1.1", [(1, 3)]), ("3.1.1", [(1, 4)]), ("2.2.1", [(2, 3)]),
    ("2.1.2", [(1, 3)]), ("3.1.1", [(1, 2), (1, 3)]), ("5.1.1", [(1, 3)]),
    ("2.1.1", [(1, 4), (1, 6)]), ("3.1.1", [(1, 3), (1, 6)]),
    ("2.2.1", [(2, 4), (1, 6)]), ("2.1.1", [(1, 9)]),
    ("2.1.1", [(1, 6), (1, 6)]),
]
# u_torsion on one generator killed by (p, u^6): 40-60 ms each.  Fourteen
# of them form a band of like-cost items where the p90 of the corpus
# falls, so the p90 does not jump between the cost tiers around it.
TORSION_BAND = [("2.1.1", [(1, 6)]), ("3.1.1", [(1, 6)])] * 7
ZP_SHAPES = [
    ("2.1.1", [(1, 4)]), ("3.1.1", [(1, 3), (1, 5)]),
    ("2.2.1", [(2, 4), (1, 3)]), ("3.1.2", [(1, 4)]),
    ("2.3.1", [(3, 3)]), ("5.1.1", [(1, 2), (1, 4)]),
]
BOUNDARY_FAIL_SHAPES = [
    ("2.1.1", [(1, 3)]), ("3.2.1", [(1, 2), (2, 3)]), ("2.1.2", [(1, 2)]),
]


# ---------------------------------------------------------------------------
# modules killed by (p, u): boundary check
# ---------------------------------------------------------------------------


def _elementary_product(rng, g, p):
    A = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(3 * g):
        i, j = rng.randrange(g), rng.randrange(g)
        if i != j:
            c = rng.randrange(1, p)
            A[i] = [(x + c * y) % p for x, y in zip(A[i], A[j])]
    return A


def boundary_case(rng, name, ring_key, g, bijective, params):
    """phi = A on a module killed by (p, u); A is a product of elementary
    matrices (bijective) or has two proportional columns (not)."""
    ring = RINGS[ring_key]
    p, n, m, _ = ring
    A = _elementary_product(rng, g, p)
    if not bijective:
        c = rng.randrange(1, p)
        for row in A:
            row[g - 1] = (c * row[0]) % p
    cols = []
    for s in range(g):
        pc = [[] for _ in range(g)]
        pc[s] = [_scalar(p, m)]
        if n > 1:
            cols.append(pc)
        uc = [[] for _ in range(g)]
        uc[s] = [_scalar(0, m), _scalar(1, m)]
        cols.append(uc)
    phi = [[[_scalar(A[i][s], m)] if A[i][s] else []
            for s in range(g)] for i in range(g)]
    text = _doc(ring, g, (1, 1), cols, phi, "name=boundary " + params)
    want = bool(bijective)
    return {"name": name, "argv": ["check", "{doc}", "--json"], "text": text,
            "exit": 0 if want else 1, "error": None,
            "verify": lambda r: (r["p_u_annihilates"] is True
                                 and r["phi_bijective"] is want)}


# ---------------------------------------------------------------------------
# Kisin modules of height h: phi = E^h U, psi = c U^-1
# ---------------------------------------------------------------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def height_case(rng, name, ring_key, g, e, h, holds):
    """U is unipotent upper triangular, so U^-1 = I - N for g <= 2."""
    ring = RINGS[ring_key]
    p, n, m, _ = ring
    q = p ** n
    E = [p] + [0] * (e - 1) + [1]
    Eh = [1]
    for _ in range(h):
        Eh = _poly_mul(Eh, E)
    Eh = [c % q for c in Eh]
    Nmat = [[rng.randrange(q) if j > i else 0 for j in range(g)]
            for i in range(g)]
    U = [[int(i == j) + Nmat[i][j] for j in range(g)] for i in range(g)]
    Uinv = [[(int(i == j) - Nmat[i][j]) % q for j in range(g)]
            for i in range(g)]
    c = 1 if holds else 2
    phi = [[[_scalar((a * U[i][j]) % q, m) for a in Eh] if U[i][j] else []
            for j in range(g)] for i in range(g)]
    psi = [[[_scalar((c * Uinv[i][j]) % q, m)] if Uinv[i][j] else []
            for j in range(g)] for i in range(g)]
    check = f"name=height eis={','.join(str(x) for x in E)} h={h}"
    text = _doc(ring, g, None, [], phi, check, psi_rows=psi)
    return {"name": name, "argv": ["check", "{doc}", "--json"], "text": text,
            "exit": 0 if holds else 1, "error": None,
            "verify": lambda r: r["height_ok"] is holds and r["h"] == h}


# ---------------------------------------------------------------------------
# criterion 5: scrambled Z_p-shape modules over W_n(F_2), N = 4
# ---------------------------------------------------------------------------


def _series_mul(a, b, N, q):
    out = [0] * N
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if i + j < N:
                    out[i + j] = (out[i + j] + x * y) % q
    return out


def _series_add(a, b, q, N):
    return [((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)) % q
            for k in range(N)]


def _mat_mul(A, B, N, q):
    g = len(A)
    out = []
    for i in range(g):
        row = []
        for j in range(len(B[0])):
            acc = [0] * N
            for k in range(g):
                acc = _series_add(acc, _series_mul(A[i][k], B[k][j], N, q),
                                  q, N)
            row.append(acc)
        out.append(row)
    return out


def zp_shape_module(rng, n, r):
    """Criterion 5's generator: diag(2^a_t) conjugated by a unipotent U.

    The module is a sum of W_n[[u]]/2^a_t, so its length at precision n
    is N * sum(a_t).  phi = U * phi(U^-1), with phi(u) = u^2.
    """
    q, N = 2 ** n, 4
    exps = sorted(rng.randrange(1, n + 1) for _ in range(r))
    exps[-1] = n
    g = r
    zero = [0] * N
    one = [1] + [0] * (N - 1)
    Nmat = [[[rng.randrange(q) for _ in range(3)] + [0] if j > i else zero
             for j in range(g)] for i in range(g)]
    U = [[one if i == j else Nmat[i][j] for j in range(g)] for i in range(g)]
    N2 = _mat_mul(Nmat, Nmat, N, q)
    N3 = _mat_mul(N2, Nmat, N, q)
    V = [[one if i == j else
          _series_add(_series_add([(-x) % q for x in Nmat[i][j]], N2[i][j],
                                  q, N), [(-x) % q for x in N3[i][j]], q, N)
          for j in range(g)] for i in range(g)]
    rel = [[[2 ** exps[t] % q] + [0] * (N - 1) if i == t else zero
            for i in range(g)] for t in range(r)]
    rel_rows = _mat_mul(U, [[rel[c][i] for c in range(r)] for i in range(g)],
                        N, q)
    rel_cols = [[rel_rows[i][c] for i in range(g)] for c in range(r)]
    phiV = [[[V[i][j][k // 2] if k % 2 == 0 else 0 for k in range(N)]
             for j in range(g)] for i in range(g)]
    Phi = _mat_mul(U, phiV, N, q)
    return rel_cols, Phi, exps, N


# ---------------------------------------------------------------------------
# parameter-only checks
# ---------------------------------------------------------------------------


def _kernel_oracle(p, n, m):
    """The kernel of phi - d at level m is Z/p^m * g0 (criterion 2)."""
    q = p ** m
    k = p ** (n - 1)
    g0 = [0] * (k + 1)
    c = 1
    for i in range(k + 1):
        g0[i] = c
        c = c * (k - i) // (i + 1)
    g0[0] -= 1

    def verify(rep):
        B = rep["B"]
        base = [x % q for x in g0] + [0] * (B + 1 - len(g0))
        gens = rep["generators"]
        if not gens or any(len(v) != B + 1 for v in gens):
            return False
        multiples = {tuple((c * x) % q for x in base) for c in range(q)}
        if any(tuple(v) not in multiples for v in gens):
            return False
        reach = {tuple([0] * (B + 1))}
        for v in gens:
            reach = {tuple((x + c * y) % q for x, y in zip(r, v))
                     for r in reach for c in range(q)}
        return tuple(base) in reach
    return verify


MINGENS_TABLE = {(2, 1): 1, (3, 1): 2, (2, 2): 2}  # criterion 3
SHARPNESS_PAIRS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]
KERNEL_LEVELS = [(2, 1, 1), (3, 1, 1), (5, 1, 1), (7, 1, 1), (2, 2, 1),
                 (2, 2, 2), (3, 2, 1), (3, 2, 2), (2, 3, 2), (2, 3, 3)]


def _param_doc(name, **kw):
    head = " ".join(f"{k}={v}" for k, v in kw.items())
    return f"[check]\nname={name} {head}\n"


# ---------------------------------------------------------------------------
# malformed documents and the open exit-code defects
# ---------------------------------------------------------------------------

README_DOC = """\
[ring]
p=2 n=1
[module]
g=2 killed=1,9
u^9, 0
0, u^9
[phi]
1, 0
u, u
[check]
name=split
"""

MALFORMED = [
    ("stray", "stray content\n", "ParseError"),
    ("unknown-block", "[badblock]\n", "ParseError"),
    ("ragged-row", "[ring]\np=2\n[module]\ng=2\nu, u, u\n", "ParseError"),
    ("bad-term", "[ring]\np=2\n[module]\ng=1\nu^\n[phi]\n1\n", "ParseError"),
    ("non-integer", "[ring]\np=x\n", "ParseError"),
    ("phi-rows", "[ring]\np=3\n[module]\ng=2\n[phi]\n1, 0\n"
     "[check]\nname=length\n", "ParseError"),
    ("rows-without-ring", "[module]\ng=1\nu\n[phi]\n1\n", "ParseError"),
    ("unknown-check", README_DOC.replace("name=split", "name=nosuch"),
     "UnknownCheck"),
    ("no-check", "[ring]\np=2\n", "UnknownCheck"),
    ("ill-formed-phi", "[ring]\np=2 n=1\n[module]\ng=2 killed=1,4\nu, 0\n"
     "u^4, 0\n0, u^4\n[phi]\n0, 0\n1, 0\n[check]\nname=split\n",
     "IllFormedPhi"),
    ("not-killed-by-p", "[ring]\np=3 n=2\n[module]\ng=1 killed=1,3\n9\n"
     "u^3\n[phi]\n1\n[check]\nname=length\n", "NotKilledByP"),
    ("u-does-not-kill", "[ring]\np=2 n=1\n[module]\ng=1 killed=1,2\nu^3\n"
     "[phi]\n1\n[check]\nname=length\n", "InputError"),
    ("kill-above-bound", "[ring]\np=2 n=1\n[module]\ng=1 killed=1,5 N=4\n"
     "u^3\n[phi]\n1\n[check]\nname=length\n", "PrecisionTooLow"),
    ("dp-outside-context", "[ring]\np=2 n=1\n[module]\ng=1\n1*u^2/dp(2)\n"
     "[phi]\n1\n[check]\nname=length\n", "InputError"),
    ("not-eisenstein", "[ring]\np=2 n=1\n[module]\ng=1\n[phi]\n2 + u\n"
     "[psi]\n1\n[check]\nname=height eis=1,1 h=1\n", "NotEisenstein"),
    ("level-zero", "[check]\nname=sharpness p=2 n=0\n", "InputError"),
    ("reducible-f", "[ring]\np=2 n=1 m=2 f=1,0,1\n[module]\ng=1\n[phi]\n1\n"
     "[check]\nname=length\n", "InputError"),
    ("zero-m", "[ring]\np=3 n=1 m=0\n[module]\ng=1\n[phi]\n1\n"
     "[check]\nname=length\n", "InputError"),
]

# Open defects of the exit-code contract: a composite p is accepted with
# exit 0, and a list-valued p raises an uncaught TypeError.  Their correct
# outcome is exit 2 with an InputError.
DEFECTS = [
    ("composite-p4", README_DOC.replace("p=2", "p=4")
     .replace("name=split", "name=length")),
    ("composite-p6", "[ring]\np=6 n=1\n[module]\ng=1 killed=1,2\nu^2\n"
     "[phi]\n1\n[check]\nname=length\n"),
    ("list-p2,3", README_DOC.replace("p=2", "p=2,3")
     .replace("name=split", "name=length")),
    ("list-p3,5", "[ring]\np=3,5 n=1\n[module]\ng=1 killed=1,2\nu^2\n"
     "[phi]\n1\n[check]\nname=length\n"),
]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITE_PAIRS = [(2, 1), (3, 1), (5, 1), (2, 2)]


def _split_case_lengths(seed):
    """g * b for each case of ``suite split``, replaying its generator's
    draws: p, then g, then b, from random.Random(seed * 1000 + k)."""
    out = []
    for k in range(50):
        rng = random.Random(seed * 1000 + k)
        rng.choice([2, 3])
        g = rng.randrange(1, 3)
        b = rng.choice([4, 6])
        out.append(g * b)
    return out


def _suite_verify(seed):
    lengths = _split_case_lengths(seed)

    def verify(items):
        if len(items) != 4 + 50:
            return False
        for it, (p, n) in zip(items[:4], SUITE_PAIRS):
            if (it["status"] != "pass" or it["alpha"] != p ** (n - 1)
                    or it["bound"] != p ** (n - 1)):
                return False
        return all(it["status"] == "pass" and it["length"] == want
                   for it, want in zip(items[4:], lengths))
    return verify


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------


def build(seed):
    """The cli_corpus case list for a seed (any hashable), in run order."""
    rng = random.Random(f"cli_corpus:{seed}")
    cases = []
    add = cases.append
    for rep in range(3):
        for k, (rk, shape) in enumerate(LENGTH_SHAPES):
            add(_diag_case(rng, f"length/{rk}/{k}.{rep}", rk, shape,
                           "length", _length_is))
    for rep in range(2):
        for k, (rk, shape) in enumerate(SPLIT_SHAPES):
            add(_diag_case(rng, f"split/{rk}/{k}.{rep}", rk, shape, "split",
                           _split_is))
    for k, (rk, shape) in enumerate(TORSION_SHAPES + TORSION_BAND):
        add(_diag_case(rng, f"u_torsion/{rk}/{k}", rk, shape, "u_torsion",
                       _torsion_is))
    add({"name": "u_torsion/readme", "argv": ["check", "{doc}", "--json",
                                              "--check", "u_torsion"],
         "text": README_DOC, "exit": 0, "error": None,
         "verify": _torsion_is(18)})
    for rep in range(2):
        for k, (rk, shape) in enumerate(ZP_SHAPES):
            add(_diag_case(rng, f"zp_shape/{rk}/{k}.{rep}", rk, shape,
                           "zp_shape", _refuted_at_1, exit_code=1))
    for k, (rk, shape) in enumerate(BOUNDARY_FAIL_SHAPES):
        add(_diag_case(rng, f"boundary-u/{rk}/{k}", rk, shape, "boundary",
                       _boundary_fails, exit_code=1))
    boundary_specs = [
        ("2.1.1", 2, "e=1 i=2"), ("3.1.1", 2, "e=2 i=2"),
        ("3.1.1", 3, "e=1 i=3"), ("5.1.1", 2, "e=4 i=2"),
        ("3.2.1", 2, ""), ("2.1.2", 2, "e=1 i=2"), ("3.1.2", 1, ""),
        ("2.2.2", 2, ""),
    ]
    for bij in (True, False):
        for k, (rk, g, params) in enumerate(boundary_specs):
            if g == 1 and not bij:
                g = 2
            add(boundary_case(rng, f"boundary/{rk}/{k}.{int(bij)}", rk, g,
                              bij, params))
    height_specs = [("2.1.1", 1, 1, 1), ("3.1.1", 2, 1, 1),
                    ("2.2.1", 2, 2, 1), ("3.2.1", 1, 1, 2),
                    ("5.1.1", 2, 2, 2), ("2.1.2", 2, 1, 1)]
    for holds in (True, False):
        for k, (rk, g, e, h) in enumerate(height_specs):
            add(height_case(rng, f"height/{rk}/{k}.{int(holds)}", rk, g, e,
                            h, holds))
    for k, (n, r) in enumerate([(1, 1), (2, 2), (3, 2), (3, 3), (2, 1),
                                (3, 1)]):
        rel_cols, Phi, exps, N = zp_shape_module(rng, n, r)
        text = _doc((2, n, 1, None), r, (n,), rel_cols, Phi, "name=length",
                    extra_module=f"N={N}")
        want = N * sum(exps)
        add({"name": f"zp-shape-length/{n}.{r}/{k}",
             "argv": ["check", "{doc}", "--json"], "text": text, "exit": 0,
             "error": None, "verify": _length_is(want)})
    for rk in ("2.1.1", "3.2.1", "2.1.2"):
        ring = RINGS[rk]
        for check in ("length", "split", "zp_shape", "u_torsion",
                      "boundary"):
            text = _doc(ring, 0, None, [], None, f"name={check}")
            verify = (_length_is(0) if check == "length"
                      else (lambda r: "vacuous" in r["note"]))
            add({"name": f"empty/{rk}/{check}",
                 "argv": ["check", "{doc}", "--json"], "text": text,
                 "exit": 0, "error": None, "verify": verify})
    for p, n in SHARPNESS_PAIRS:
        want = p ** (n - 1)
        add({"name": f"sharpness/{p}.{n}", "argv": ["check", "{doc}",
                                                     "--json"],
             "text": _param_doc("sharpness", p=p, n=n), "exit": 0,
             "error": None,
             "verify": (lambda w: lambda r: r["alpha"] == w
                        and r["bound"] == w and r["sharp"] is True)(want)})
    for p, n, m in KERNEL_LEVELS:
        add({"name": f"kernel/{p}.{n}.{m}", "argv": ["check", "{doc}",
                                                      "--json"],
             "text": _param_doc("kernel", p=p, n=n, m=m), "exit": 0,
             "error": None, "verify": _kernel_oracle(p, n, m)})
    for (p, n), mu in MINGENS_TABLE.items():
        add({"name": f"mingens/{p}.{n}", "argv": ["check", "{doc}",
                                                   "--json"],
             "text": _param_doc("mingens", p=p, n=n), "exit": 0,
             "error": None,
             "verify": (lambda w: lambda r: r["mu"] == w)(mu)})
    for name, text, err in MALFORMED:
        add({"name": f"malformed/{name}", "argv": ["check", "{doc}",
                                                    "--json"],
             "text": text, "exit": 2, "error": err, "verify": None})
    for name, text in DEFECTS:
        add({"name": f"defect/{name}", "argv": ["check", "{doc}", "--json"],
             "text": text, "exit": 2, "error": None, "verify": None,
             "known_defect": True})
    for k in range(3):
        s = rng.randrange(1000)
        add({"name": f"suite-all/{k}", "argv": ["suite", "all", "--seed",
                                                str(s), "--json"],
             "text": None, "exit": 0, "error": None,
             "verify": _suite_verify(s)})
    rng.shuffle(cases)
    return cases
