"""The three seeded workloads.

A workload is a fixed list of items built from a seed before any timing
starts.  An item has a name, a ``run`` callable (the timed part, which
calls prismalab's public API or its CLI), a ``check`` that compares the
outcome with a known answer that does not come from the code under test,
and a ``report`` that renders the outcome as JSON for the run digest.
"""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement
from pathlib import Path

import corpus


class Item:
    __slots__ = ("name", "run", "check", "report", "known_defect")

    def __init__(self, name, run, check, report, known_defect=False):
        self.name = name
        self.run = run
        self.check = check
        self.report = report
        self.known_defect = known_defect


def _dump(obj):
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# fl_breuil: criterion 6's filtered modules over W_1(F_p), p in {3, 5}
# ---------------------------------------------------------------------------


def _det_mod(A, p):
    A = [row[:] for row in A]
    det = 1
    for c in range(len(A)):
        piv = next((r for r in range(c, len(A)) if A[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det = det * A[c][c] % p
        inv = pow(A[c][c], -1, p)
        for r in range(c + 1, len(A)):
            f = A[r][c] * inv % p
            A[r] = [(x - f * y) % p for x, y in zip(A[r], A[c])]
    return det % p


def _random_invertible(rng, g, p):
    """A random invertible matrix over F_p with no zero entry.

    Zero entries let the eliminations skip work, so allowing them would
    make an item's cost depend on the draw.
    """
    while True:
        A = [[rng.randrange(1, p) for _ in range(g)] for _ in range(g)]
        if _det_mod(A, p):
            return A


def _fl_data(rng, p, g, h, levels, kind, k):
    """Criterion 6's generator with the filtration levels given.

    Generator t sits in Fil^levels[t] and phi_levels[t] sends it to column
    t of a random invertible matrix.  kind 2 also gives a generator a
    nonzero phi_i at some i < its level, which breaks phi_i = p phi_{i+1}
    on Fil^{i+1}; kind 3 zeroes a generator's image, so the images no
    longer generate.  Which generator (and i) is broken cycles with the
    spec index k rather than being drawn: an item's cost depends on where
    the first failing syzygy sits, and a drawn position would make the
    workload's cost depend on the seed.
    """
    A = _random_invertible(rng, g, p)
    fil = {i: [t for t in range(g) if levels[t] >= i] for i in range(1, h + 1)}
    phi = {i: [(t, t if levels[t] == i else None)
               for t in range(g) if levels[t] >= i] for i in range(h + 1)}
    if kind == 3:
        t = k % g
        idx = [s for s in range(g) if levels[s] >= levels[t]].index(t)
        phi[levels[t]][idx] = (t, None)
    if kind == 2:
        cands = [(t, i) for t in range(g) for i in range(levels[t])]
        t, i = cands[k % len(cands)]
        idx = [s for s in range(g) if levels[s] >= i].index(t)
        phi[i][idx] = (t, t)
    return A, fil, phi


def _fl_module(W, g, h, A, fil, phi):
    from prismalab.breuil_fl import FLModule

    def basis(t):
        return [W.one() if s == t else W.zero() for s in range(g)]

    def image(col):
        if col is None:
            return [W.zero() for _ in range(g)]
        return [W.elem([A[s][col]]) for s in range(g)]

    fil_v = {i: [basis(t) for t in ts] for i, ts in fil.items()}
    phi_v = {i: [image(col) for _, col in pairs]
             for i, pairs in phi.items()}
    return FLModule(W, [1] * g, h, fil_v, phi_v)


def fl_specs(p):
    """Every (g, h, levels) shape of criterion 6's generator at p.

    At p = 3 each shape appears six times, with kinds (None, None, 2, 3)
    and then (None, 2) or (None, 3) alternately; at p = 5, where an item
    costs about ten times more, each shape appears once, with kinds
    cycling through (None, 2, None, 3).  That is 84 + 28 items, half of
    them FL, a quarter breaking axiom 2 and a quarter axiom 3 (a shape
    with every level 0 has no axiom 2 to break and breaks axiom 3).
    """
    shapes = [(g, h, lv) for g in (1, 2) for h in range(1, min(p - 1, 3) + 1)
              for lv in combinations_with_replacement(range(h + 1), g)]
    specs = []
    for k, (g, h, lv) in enumerate(shapes):
        kinds = ((None, None, 2, 3, None, 2 if k % 2 == 0 else 3) if p == 3
                 else ((None, 2, None, 3)[k % 4],))
        for kind in kinds:
            if kind == 2 and max(lv) == 0:
                kind = 3
            specs.append((g, h, lv, kind))
    return specs


def fl_breuil(seed, rep):
    from prismalab.breuil_fl import fl_criterion, is_fl_module
    from prismalab.witt_base import WittRing

    rng = random.Random(f"fl_breuil:{seed}:{rep}")
    items = []
    for p in (3, 5):
        for k, (g, h, lv, kind) in enumerate(fl_specs(p)):
            A, fil, phi = _fl_data(rng, p, g, h, lv, kind, k)
            name = f"fl/p{p}/g{g}h{h}/{k}"
            expect = kind is None

            def run(p=p, g=g, h=h, A=A, fil=fil, phi=phi):
                M = _fl_module(WittRing(p, 1, 1), g, h, A, fil, phi)
                ok, why = is_fl_module(M)
                return ok, why, fl_criterion(M)

            def check(out, expect=expect):
                return out[0] is expect and out[2] is expect

            def report(out, name=name, kind=kind):
                return _dump({"item": name, "planted": kind, "is_fl": out[0],
                              "why": out[1], "criterion": out[2]})

            items.append(Item(name, run, check, report))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# witt_sweep: criterion 9 in full
# ---------------------------------------------------------------------------


def _primes_upto(bound):
    return [x for x in range(2, bound + 1)
            if all(x % d for d in range(2, int(x ** 0.5) + 1))]


def witt_rings():
    """Every (p, n, m) with p <= 64 and p^(nm) <= 4096 (115 rings)."""
    out = []
    for p in _primes_upto(64):
        n = 1
        while p ** n <= 4096:
            m = 1
            while p ** (n * m) <= 4096:
                out.append((p, n, m))
                m += 1
            n += 1
    return out


def _sweep_ring(p, n, m):
    """sigma^m = id and sigma(x) = x^p mod p on every element."""
    from prismalab.witt_base import WittRing

    W = WittRing(p, n, m)
    count = order_ok = frob_ok = 0
    for x in W.elements():
        count += 1
        y = x
        for _ in range(m):
            y = W.sigma(y)
        order_ok += y == x
        diff = W.sigma(x) - x ** p
        frob_ok += all(c % p == 0 for c in diff.coeffs)
    return count, order_ok, frob_ok


def _axiom_triples(triples):
    """Ring axioms and sigma's homomorphism property on (a, b, c)."""
    from prismalab.witt_base import WittRing

    holds = 0
    for p, n, m, coeffs in triples:
        W = WittRing(p, n, m)
        a, b, c = (W.elem(cs) for cs in coeffs)
        holds += ((a + b) + c == a + (b + c) and a + b == b + a
                  and (a * b) * c == a * (b * c) and a * b == b * a
                  and a * (b + c) == a * b + a * c
                  and a * W.one() == a and a + W.zero() == a
                  and W.sigma(a * b) == W.sigma(a) * W.sigma(b)
                  and W.sigma(a + b) == W.sigma(a) + W.sigma(b))
    return holds


def witt_sweep(seed, rep):
    rng = random.Random(f"witt_sweep:{seed}:{rep}")
    items = []
    for p, n, m in witt_rings():
        name = f"ring/{p}.{n}.{m}"
        size = p ** (n * m)

        def check(out, size=size):
            return out == (size, size, size)

        def report(out, name=name):
            return _dump({"item": name, "elements": out[0],
                          "sigma_order": out[1], "frobenius": out[2]})

        items.append(Item(name, lambda p=p, n=n, m=m: _sweep_ring(p, n, m),
                          check, report))
    # criterion 9 draws (p, n, m) for each triple; here every item cycles
    # through the 16 choices in the same order and only the elements are
    # drawn, so the ten items cost the same on every seed
    rings = [(p, n, m) for p in (2, 3, 5, 7) for n in (1, 2) for m in (1, 2)]
    triples = []
    for k in range(1000):
        p, n, m = rings[k % 100 % len(rings)]
        q = p ** n
        triples.append((p, n, m, [[rng.randrange(q) for _ in range(m)]
                                  for _ in range(3)]))
    for k in range(10):
        chunk = triples[100 * k:100 * (k + 1)]
        name = f"axioms/{k}"
        items.append(Item(
            name, lambda chunk=chunk: _axiom_triples(chunk),
            lambda out, size=len(chunk): out == size,
            lambda out, name=name: _dump({"item": name, "holds": out})))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# cli_corpus: documents through ``prismalab check <doc> --json``
# ---------------------------------------------------------------------------


def _input_error_names():
    from prismalab import errors
    return {name for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, errors.InputError)}


def cli_corpus(seed, rep, workdir):
    """Documents are written under workdir; each item invokes the click
    command in process and captures exit code, stdout and any exception
    that escaped the command."""
    from click.testing import CliRunner
    from prismalab.cli import main

    runner = CliRunner()
    input_errors = _input_error_names()
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for k, case in enumerate(corpus.build(f"{seed}:{rep}")):
        argv = list(case["argv"])
        if case["text"] is not None:
            path = workdir / f"doc{k:03d}.txt"
            path.write_text(case["text"], encoding="utf-8")
            argv = [str(path) if a == "{doc}" else a for a in argv]

        def run(argv=argv):
            res = runner.invoke(main, argv)
            exc = res.exception
            if isinstance(exc, SystemExit):
                exc = None
            return res.exit_code, res.stdout, (
                None if exc is None else type(exc).__name__)

        def check(out, case=case):
            code, text, exc = out
            if exc is not None or code != case["exit"]:
                return False
            rep = json.loads(text)
            if code == 2:
                if case["error"] is not None:
                    return rep["error"] == case["error"]
                return rep["error"] in input_errors
            return case["verify"] is None or bool(case["verify"](rep))

        def report(out, name=case["name"]):
            code, text, exc = out
            head = _dump({"item": name, "exit": code, "uncaught": exc})
            return head + "\n" + text

        items.append(Item(case["name"], run, check, report,
                          known_defect=case.get("known_defect", False)))
    return items


WORKLOADS = ("fl_breuil", "witt_sweep", "cli_corpus")


def build(name, seed, rep, workdir):
    """The item list of pass rep: the same structure on every pass, with
    inputs drawn afresh, so no pass repeats another's exact inputs."""
    if name == "fl_breuil":
        return fl_breuil(seed, rep)
    if name == "witt_sweep":
        return witt_sweep(seed, rep)
    if name == "cli_corpus":
        return cli_corpus(seed, rep, Path(workdir) / f"pass{rep}")
    raise ValueError(f"unknown workload {name!r}")
