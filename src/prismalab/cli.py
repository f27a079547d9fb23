"""Command-line front end.

Parses line-oriented module description files, dispatches named checks,
and emits human-readable or JSON reports.  A document is a sequence of
blocks ``[ring]``, ``[module]``, ``[phi]``, ``[psi]``, ``[check]``;
each block holds ``key=value`` header lines followed by matrix rows of
comma-separated series literals.  Series literals look like
``2 + 1*u + 3*u^3``; when m > 1 a coefficient is written as a bracketed
list ``[a0,a1]``; divided-power terms are written ``c*u^i/dp(i)``.

Exit codes: 0 = all checks passed, 1 = a mathematical assertion failed
(the report carries a witness), 2 = malformed input or insufficient
precision, 3 = an internal error (a defect of prismalab, reported as
``InternalError`` without a traceback).
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass

import click

from .cyclo_suite import (
    CycloInstance, h2_torsion_report, ideal_j_mingens, ker_phi_minus_d,
    sharpness_report,
)
from .decomposition import fitting_conditions, split_phi_module
from .errors import (
    InputError, MathFailure, ParseError, UnknownCheck,
)
from .phi_modules import (
    MODEL_CELL_BUDGET, KisinModule, PhiModule, boundary_structure_check,
    height_check, u_torsion, zp_shape,
)
from .series_rings import SeriesElem, eisenstein_make
from .witt_base import WittRing, check_ring_size

BLOCKS = ("ring", "module", "phi", "psi", "check")
# the blocks that hold matrix rows; [module] rows are the relation columns
ROW_BLOCKS = ("module", "phi", "psi")
# header keys whose value is a list of integers, with the least length
# (killed=a is (a,), the u-exponent left open); every other key but name
# is one integer
LIST_KEYS = {"killed": 1, "f": 2, "eis": 2}
# header keys of [ring] and [module]; [check] takes name and the keys of
# its check (CHECKS), and the row blocks take none
HEADER_KEYS = {"ring": ("p", "n", "m", "f"), "module": ("g", "N", "killed")}

# ---------------------------------------------------------------------------
# series literals
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?:(?P<br>\[[^\]]*\])|(?P<int>-?\d+))?"
    r"(?:\*?(?P<u>u)(?:\^(?P<deg>\d+))?)?"
    r"(?:/dp\((?P<dp>\d+)\))?$")


def _split_top(text, sep, line=None):
    """Split on `sep` outside brackets/parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket", line)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ParseError("unbalanced bracket", line)
    parts.append("".join(cur))
    return parts


def parse_series(text, q, m, line=None):
    """A literal as a canonical term list [(degree, coeff, is_dp), ...].

    Coefficients are reduced mod q; a coefficient is an int when m = 1
    and a tuple of m ints otherwise.  Zero terms are dropped and terms
    with equal (degree, is_dp) are merged, so the output is canonical.
    """
    acc = {}
    for raw in _split_top(text, "+", line):
        t = raw.replace(" ", "")
        if not t:
            raise ParseError("empty term in series literal", line)
        mo = _TERM_RE.match(t)
        if not mo or (mo.group("br") is None and mo.group("int") is None
                      and mo.group("u") is None):
            raise ParseError(f"bad series term {raw.strip()!r}", line)
        if mo.group("br") is not None:
            inner = mo.group("br")[1:-1].strip()
            try:
                vals = [int(v) for v in inner.split(",")] if inner else []
            except ValueError:
                raise ParseError(f"bad coefficient {mo.group('br')!r}",
                                 line) from None
            if len(vals) > m:
                raise ParseError("coefficient wider than the ring", line)
            vals += [0] * (m - len(vals))
            coeff = tuple(v % q for v in vals)
        elif mo.group("int") is not None:
            coeff = (int(mo.group("int")) % q,) + (0,) * (m - 1)
        else:
            coeff = (1,) + (0,) * (m - 1)
        if mo.group("u"):
            deg = int(mo.group("deg")) if mo.group("deg") else 1
        else:
            deg = 0
        is_dp = mo.group("dp") is not None
        if is_dp and int(mo.group("dp")) != deg:
            raise ParseError("divided-power index must match the u-degree",
                             line)
        key = (deg, is_dp)
        prev = acc.get(key, (0,) * m)
        acc[key] = tuple((a + b) % q for a, b in zip(prev, coeff))
    terms = []
    for (deg, is_dp), coeff in sorted(acc.items()):
        if any(coeff):
            c = coeff[0] if m == 1 else coeff
            terms.append((deg, c, is_dp))
    return tuple(terms)


def serialize_series(terms):
    if not terms:
        return "0"
    parts = []
    for deg, coeff, is_dp in terms:
        cs = (str(coeff) if isinstance(coeff, int)
              else "[" + ",".join(str(c) for c in coeff) + "]")
        if deg == 0 and not is_dp:
            parts.append(cs)
            continue
        s = f"{cs}*u" if deg == 1 else f"{cs}*u^{deg}"
        if is_dp:
            s += f"/dp({deg})"
        parts.append(s)
    return " + ".join(parts)


def _series_elem(W, terms, N=None):
    if any(is_dp for _, _, is_dp in terms):
        raise InputError(
            "divided-power literal outside a divided-power context")
    m = W.m
    vec = [0] * (max((deg for deg, _, _ in terms), default=-1) + 1) * m
    for deg, c, _ in terms:
        vec[deg * m:(deg + 1) * m] = (c,) if m == 1 else c
    return SeriesElem.from_vec(W, vec, N=N)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Document:
    """Canonical in-memory form of an input file."""

    ring: tuple = ()        # sorted (key, value) pairs
    module: tuple = ()
    relations: tuple = ()   # rows of term-lists, one row per relation column
    phi: tuple = ()
    psi: tuple = ()
    check: tuple = ()

    def header(self, block):
        return dict(getattr(self, block))

    def rows(self, block):
        if block not in ROW_BLOCKS:
            return ()
        return self.relations if block == "module" else getattr(self, block)

    def serialize(self):
        out = []
        for block in BLOCKS:
            header = (getattr(self, block)
                      if block in ("ring", "module", "check") else ())
            rows = self.rows(block)
            if not header and not rows:
                continue
            out.append(f"[{block}]")
            if header:
                out.append(" ".join(f"{k}={_fmt_value(v)}"
                                    for k, v in header))
            for row in rows:
                out.append(", ".join(serialize_series(t) for t in row))
        return "\n".join(out) + "\n"


def _fmt_value(v):
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def _parse_value(block, key, raw, line):
    """A header value: raw for name, a tuple for the keys of LIST_KEYS and
    one int for any other key."""
    if key == "name":
        return raw
    try:
        vals = tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise ParseError(f"value of {key!r} must be an integer", line)
    if key in LIST_KEYS:
        if len(vals) < LIST_KEYS[key]:
            raise InputError(f"[{block}] {key} must list at least "
                             f"{LIST_KEYS[key]} integers")
        return vals
    if len(vals) > 1:
        raise InputError(f"[{block}] {key} must be a single integer")
    return vals[0]


# a block header is a bare bracketed name; a row may start with a
# bracketed coefficient such as [1,0]*u^9
_BLOCK_RE = re.compile(r"^\[\s*([A-Za-z_]+)\s*\]$")


def parse_document(text):
    blocks = {b: [] for b in BLOCKS}          # header pairs
    rows = {b: [] for b in BLOCKS}            # raw row lines
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _BLOCK_RE.match(line)
        if header:
            name = header.group(1)
            if name not in BLOCKS:
                raise ParseError(f"unknown block [{name}]", lineno)
            current = name
            continue
        if current is None:
            raise ParseError("content before the first block", lineno)
        if "=" in line and not line.startswith("["):
            for tok in line.split():
                if "=" not in tok:
                    raise ParseError(f"bad header token {tok!r}", lineno)
                k, v = tok.split("=", 1)
                if current not in ("ring", "module", "check"):
                    raise InputError(f"[{current}] {k} is not a known key; "
                                     f"[{current}] takes no header keys")
                blocks[current].append(
                    (k, _parse_value(current, k, v, lineno)))
        else:
            rows[current].append((lineno, line))
    ring = dict(blocks["ring"])
    p, n, m = ring.get("p", 0), ring.get("n", 1), ring.get("m", 1)
    check_ring_size(p, n, m)
    q = p ** n
    if rows["ring"] or rows["check"]:
        lineno = (rows["ring"] + rows["check"])[0][0]
        raise ParseError("this block takes no matrix rows", lineno)

    def parse_rows(block):
        if not q:
            if rows[block]:
                raise ParseError("matrix rows require a [ring] block",
                                 rows[block][0][0])
            return ()
        out = []
        for lineno, line in rows[block]:
            out.append(tuple(parse_series(cell, q, m, lineno)
                             for cell in _split_top(line, ",", lineno)))
        return tuple(out)

    doc = Document(
        ring=tuple(sorted(set(blocks["ring"]))),
        module=tuple(sorted(set(blocks["module"]))),
        relations=parse_rows("module"),
        phi=parse_rows("phi"),
        psi=parse_rows("psi"),
        check=tuple(sorted(set(blocks["check"]))),
    )
    _validate_shapes(doc)
    return doc


def _validate_shapes(doc):
    mod = doc.header("module")
    g = mod.get("g")
    if g is not None and g < 0:
        raise InputError(f"[module] g must be one integer >= 0, got {g}")
    if g is None and (doc.relations or doc.phi or doc.psi):
        raise ParseError("[module] must declare g before matrix rows")
    for name in ROW_BLOCKS:
        for row in doc.rows(name):
            if len(row) != g:
                raise ParseError(
                    f"[{name}] row has {len(row)} entries; expected {g}")
    if doc.phi and len(doc.phi) != g:
        raise ParseError(f"[phi] must have exactly {g} rows")
    if doc.psi and len(doc.psi) != g:
        raise ParseError(f"[psi] must have exactly {g} rows")


def build_ring(doc):
    ring = doc.header("ring")
    if "p" not in ring:
        raise InputError("[ring] must declare p")
    f = ring.get("f")
    return WittRing(ring["p"], ring.get("n", 1), ring.get("m", 1),
                    list(f) if f is not None else None)


def build_module(doc):
    W = build_ring(doc)
    mod = doc.header("module")
    g = mod.get("g")
    if g is None:
        raise InputError("[module] must declare g")
    N = mod.get("N")
    if N is not None and N < 1:
        raise InputError(f"[module] N must be one integer >= 1, got {N}")
    if N is not None and g * N * W.m > MODEL_CELL_BUDGET:
        raise InputError(
            f"[module] N too large: g={g}, N={N}, m={W.m} give model "
            f"vectors of {g * N * W.m} cells, over the budget of "
            f"{MODEL_CELL_BUDGET} cells")
    killed = mod.get("killed")
    if killed is not None and len(killed) == 1:
        killed += (None,)
    if killed is not None and (len(killed) != 2
                               or min(k or 0 for k in killed) < 0):
        raise InputError("[module] killed must be one or two integers >= 0")
    rel = [[_series_elem(W, t, N=N) for t in row] for row in doc.relations]
    if g == 0:
        return PhiModule.zero(W)
    if len(doc.phi) != g:
        raise InputError("[phi] must be a g x g matrix")
    phi = [[_series_elem(W, t, N=N) for t in row] for row in doc.phi]
    return PhiModule(W, g, rel, phi, killed_by=killed, N=N)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _want(params, key, default=None):
    v = params.get(key, default)
    if v is None:
        raise InputError(f"check requires parameter {key!r}")
    return v


def _check_sharpness(doc, params):
    rep = h2_torsion_report(CycloInstance(_want(params, "p"),
                                          _want(params, "n")))
    return rep["sharp"], rep


def _check_kernel(doc, params):
    p, n = _want(params, "p"), _want(params, "n")
    inst = CycloInstance(p, n, B=params.get("bound"))
    m = params.get("m", n)
    gens = ker_phi_minus_d(inst, m)
    return True, {"p": p, "n": n, "m": m, "B": inst.B,
                  "generators": [list(g) for g in gens]}


def _check_mingens(doc, params):
    p, n = _want(params, "p"), _want(params, "n")
    inst = CycloInstance(p, n, D=params.get("D"))
    mu = ideal_j_mingens(inst)
    return True, {"p": p, "n": n, "D": inst.D, "mu": mu}


def _module_check(check):
    """A check of the document's module: check(M, doc, params), where an
    empty module passes vacuously."""
    def run(doc, params):
        M = build_module(doc)
        if M.g == 0:
            return True, {"note": "vacuous: empty module"}
        return check(M, doc, params)
    return run


@_module_check
def _check_split(M, doc, params):
    rng = random.Random(params["seed"]) if "seed" in params else None
    res = split_phi_module(M, rng=rng)
    lm, ln = res.M_mult.length(), res.M_nilp.length()
    bij, nil = fitting_conditions(res)
    ok = lm + ln == M.length() and bij and nil
    report = {"length": M.length(), "mult_length": lm, "nilp_length": ln,
              "exact": ok}
    if not ok:
        report.update(mult_bijective=bij, nilp_nilpotent=nil)
    return ok, report


@_module_check
def _check_zp_shape(M, doc, params):
    shape = zp_shape(M)
    report = {"ok": shape.ok}
    if shape.ok:
        report["exponents"] = list(shape.exponents)
    else:
        report["refuted_at_exponent"] = shape.refuted[0]
    return shape.ok, report


@_module_check
def _check_u_torsion(M, doc, params):
    T = u_torsion(M)
    return True, {"length": M.length(), "torsion_length": T.length()}


@_module_check
def _check_boundary(M, doc, params):
    rep = boundary_structure_check(M, e=params.get("e"), i=params.get("i"))
    return rep["passed"], rep


@_module_check
def _check_height(M, doc, params):
    eis = eisenstein_make(M.ring.p, "explicit", list(_want(params, "eis")))
    psi = [[_series_elem(M.ring, t, N=M.N) for t in row] for row in doc.psi]
    if len(psi) != M.g:
        raise InputError("[psi] must be a g x g matrix")
    K = KisinModule(M, _want(params, "h"), psi, eis)
    ok = height_check(K)
    return ok, {"h": K.h, "height_ok": ok}


def _check_length(doc, params):
    M = build_module(doc)
    return True, {"length": M.length()}


# each check with the [check] keys it reads besides name, and the blocks
# whose matrix rows it reads
_MODULE_ROWS = ("module", "phi")
CHECKS = {
    "sharpness": (_check_sharpness, ("p", "n"), ()),
    "kernel": (_check_kernel, ("p", "n", "bound", "m"), ()),
    "mingens": (_check_mingens, ("p", "n", "D"), ()),
    "split": (_check_split, ("seed",), _MODULE_ROWS),
    "zp_shape": (_check_zp_shape, (), _MODULE_ROWS),
    "u_torsion": (_check_u_torsion, (), _MODULE_ROWS),
    "boundary": (_check_boundary, ("e", "i"), _MODULE_ROWS),
    "height": (_check_height, ("eis", "h"), _MODULE_ROWS + ("psi",)),
    "length": (_check_length, (), _MODULE_ROWS),
}


def run_check(doc, name):
    params = doc.header("check")
    name = name or params.get("name")
    if not name:
        raise UnknownCheck("no check requested (pass --check or [check])")
    if name not in CHECKS:
        raise UnknownCheck(f"unknown check {name!r}; known: "
                           + ", ".join(sorted(CHECKS)))
    check, keys, row_blocks = CHECKS[name]
    for block, known in dict(HEADER_KEYS, check=("name",) + keys).items():
        for key in doc.header(block):
            if key not in known:
                raise InputError(f"[{block}] {key} is not a known key for "
                                 f"check {name}; known: " + ", ".join(known))
    for block in ROW_BLOCKS:
        if doc.rows(block) and block not in row_blocks:
            raise InputError(
                f"[{block}] rows are not read by check {name}; it reads "
                + (", ".join(f"[{b}]" for b in row_blocks) or "no rows"))
    passed, report = check(doc, params)
    return {"check": name, "status": "pass" if passed else "fail", **report}


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_cyclo():
    rows = sharpness_report()
    items = []
    for r in rows:
        items.append({"check": f"sharpness p={r['p']} n={r['n']}",
                      "status": "pass" if r["equal"] else "fail",
                      "alpha": r["alpha"], "bound": r["bound"]})
    return items


def _random_split_case(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    W = WittRing(p, 1, 1)
    g = rng.randrange(1, 3)
    b = rng.choice([4, 6])
    phi = [[SeriesElem.from_ints(
        W, [rng.randrange(p) for _ in range(rng.randrange(4))])
        for _ in range(g)] for _ in range(g)]
    rel = []
    for i in range(g):
        col = [SeriesElem.from_ints(W, []) for _ in range(g)]
        col[i] = SeriesElem.u_pow(W, b)
        rel.append(col)
    M = PhiModule(W, g, rel, phi, killed_by=(1, b))
    res = split_phi_module(M)
    ok = (res.M_mult.length() + res.M_nilp.length() == M.length()
          and all(fitting_conditions(res)))
    return {"check": f"split case {seed}",
            "status": "pass" if ok else "fail",
            "p": p, "g": g, "length": M.length()}


def _suite_split(seed):
    return [_random_split_case(seed * 1000 + k) for k in range(50)]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _stdout():
    """sys.stdout as a text stream, uncached: click.echo with no file keeps
    every stream ever put in sys.stdout alive, with all its output."""
    return click.get_text_stream("stdout", errors=None)


def _emit(payload, as_json):
    out = _stdout()
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True, indent=2), file=out)
        return
    items = payload if isinstance(payload, list) else [payload]
    for item in items:
        for k in sorted(item):
            click.echo(f"{k}: {item[k]}", file=out)
        click.echo("", file=out)


def _exit_code(payload):
    items = payload if isinstance(payload, list) else [payload]
    return 0 if all(i.get("status", "pass") == "pass" for i in items) else 1


def _refuse(exc, as_json):
    """Report an exception that ended a command, and exit with its code:
    1 for a MathFailure, 2 for an InputError, 3 for anything else, which
    is a defect of prismalab and is reported without a traceback."""
    if isinstance(exc, MathFailure):
        status, error, detail, code = "fail", type(exc).__name__, str(exc), 1
    elif isinstance(exc, InputError):
        status, error, detail, code = "error", type(exc).__name__, str(exc), 2
    else:
        status, error, code = "error", "InternalError", 3
        detail = f"{type(exc).__name__}: {exc}"
    _emit({"status": status, "error": error, "detail": detail}, as_json)
    sys.exit(code)


@click.group()
def main():
    """Exact verification suite for semilinear module arithmetic."""


@main.command("check")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--check", "name", default=None, help="check name override")
@click.option("--json", "as_json", is_flag=True)
def cmd_check(path, name, as_json):
    """Run a named check against an input document."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = parse_document(fh.read())
        report = run_check(doc, name)
    except Exception as exc:  # the CLI boundary: every failure is a report
        _refuse(exc, as_json)
    _emit(report, as_json)
    sys.exit(_exit_code(report))


@main.command("example")
@click.argument("family", type=click.Choice(["cyclo"]))
@click.option("--p", type=int, default=2, show_default=True)
@click.option("--n", type=int, default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_example(family, p, n, as_json):
    """Emit a ready-to-run input document for a built-in family."""
    try:
        CycloInstance(p, n)  # fail fast on bad parameters
    except InputError as exc:
        _refuse(exc, as_json)
    doc = Document(ring=(("n", n), ("p", p)),
                   check=(("n", n), ("name", "sharpness"), ("p", p)))
    if as_json:
        click.echo(json.dumps({"document": doc.serialize()}, sort_keys=True),
                   file=_stdout())
    else:
        click.echo(doc.serialize(), nl=False, file=_stdout())


@main.command("suite")
@click.argument("which", type=click.Choice(["cyclo", "split", "all"]))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_suite(which, seed, as_json):
    """Run a built-in acceptance suite; nonzero exit iff any check fails."""
    items = []
    try:
        if which in ("cyclo", "all"):
            items.extend(_suite_cyclo())
        if which in ("split", "all"):
            items.extend(_suite_split(seed))
    except Exception as exc:  # the CLI boundary: every failure is a report
        _refuse(exc, as_json)
    _emit(items, as_json)
    sys.exit(_exit_code(items))


if __name__ == "__main__":
    main()
