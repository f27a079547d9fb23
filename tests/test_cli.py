import gc
import json
import os
import random
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner, _NamedTextIOWrapper
from hypothesis import given, strategies as st

from prismalab.cli import (
    Document, build_module, main, parse_document, parse_series, run_check,
    serialize_series,
)
from prismalab.decomposition import (
    SplitResult, fitting_conditions, split_phi_module,
)
from prismalab import errors, series_rings, witt_base
from prismalab.cyclo_suite import CYCLO_DEGREE_BUDGET, KERNEL_CELL_BUDGET
from prismalab.errors import ParseError, UnknownCheck
from prismalab.phi_modules import (
    FiniteModel, PhiModule, presentation_from_generators,
)

SPLIT_DOC = """\
[ring]
p=2 n=1 m=1
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


# the minimal document of the README
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


def run(args, stdin=None):
    return CliRunner().invoke(main, args, input=stdin)


# ---------------------------------------------------------------------------
# literals and documents
# ---------------------------------------------------------------------------


def test_series_literal_round_trip_seeded():
    rng = random.Random(11)
    for _ in range(200):
        q = rng.choice([2, 4, 9, 25])
        m = rng.choice([1, 2])
        terms = parse_series(
            " + ".join(f"{rng.randrange(-q, q)}*u^{rng.randrange(6)}"
                       for _ in range(rng.randrange(1, 5))), q, m)
        assert parse_series(serialize_series(terms), q, m) == terms


def test_series_literal_forms():
    assert parse_series("0", 4, 1) == ()
    assert parse_series("u", 4, 1) == ((1, 1, False),)
    # like terms merge, coefficients reduce mod q
    assert parse_series("3 + u + u + 5", 4, 1) == ((1, 2, False),)
    assert parse_series("[1,2]*u^3", 9, 2) == ((3, (1, 2), False),)
    assert parse_series("2*u^3/dp(3)", 9, 1) == ((3, 2, True),)


def test_series_literal_errors():
    with pytest.raises(ParseError):
        parse_series("u^", 4, 1)
    with pytest.raises(ParseError):
        parse_series("2*u^3/dp(2)", 4, 1)
    with pytest.raises(ParseError):
        parse_series("[1,2,3]*u", 4, 2)


@pytest.mark.parametrize("coeff", ["[1x]", "[2check]", "[1,]"])
def test_bad_bracketed_coefficient_is_a_parse_error(tmp_path, coeff):
    # int() on the bracket's entries escaped as an InternalError (exit 3)
    with pytest.raises(ParseError, match="line 3"):
        parse_series(f"{coeff}*u", 4, 2, line=3)
    text = README_DOC.replace("[phi]\n1, 0", f"[phi]\n{coeff}, 0")
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 2
    rep = json.loads(res.output)
    assert rep["error"] == "ParseError" and "line 8" in rep["detail"]


def test_document_round_trip_both_ways():
    doc = parse_document(SPLIT_DOC)
    text = doc.serialize()
    assert parse_document(text) == doc
    # serializing a parse is canonical: a second pass is byte-identical
    assert parse_document(text).serialize() == text


def test_document_round_trip_seeded():
    rng = random.Random(5)
    for _ in range(25):
        p = rng.choice([2, 3])
        g = rng.randrange(1, 3)
        lines = ["[ring]", f"p={p} n=1", "[module]", f"g={g}"]
        for _ in range(rng.randrange(3)):
            lines.append(", ".join(
                f"{rng.randrange(p)} + {rng.randrange(p)}*u^{rng.randrange(4)}"
                for _ in range(g)))
        lines.append("[phi]")
        for _ in range(g):
            lines.append(", ".join(f"{rng.randrange(p)}*u^{rng.randrange(3)}"
                                   for _ in range(g)))
        doc = parse_document("\n".join(lines))
        assert parse_document(doc.serialize()) == doc


def test_document_round_trip_bracketed_leading_coefficient():
    # at m = 2 a row may start with a bracketed coefficient; only a bare
    # bracketed name is a block header
    doc = parse_document(
        "[ring]\np=3 n=1 m=2\n[module]\ng=2 killed=1,9\n"
        "[1,0]*u^9, 0\n0, [1,2]*u^9\n[phi]\n[0,1], 0\nu, [2,1]*u\n")
    text = doc.serialize()
    assert "\n[1,0]*u^9, 0\n" in text
    assert parse_document(text) == doc
    with pytest.raises(ParseError, match=r"unknown block \[foo\]"):
        parse_document("[ring]\np=3\n[ foo ]\n")


@st.composite
def documents(draw):
    """Document text at m = 1 or 2: relation, phi and psi rows of series
    literals (bracketed coefficients at m = 2, possibly short or
    negative; repeated degrees; zero cells), optional kill and N headers
    and a [check] block."""
    p, n, m = (draw(st.sampled_from(v)) for v in ([2, 3], [1, 2], [1, 2]))
    g = draw(st.integers(1, 2))
    digit = st.integers(-p ** n, 2 * p ** n)

    def cell():
        terms = []
        for _ in range(draw(st.integers(0, 3))):
            if m == 2 and draw(st.booleans()):
                width = draw(st.integers(1, 2))
                c = "[" + ",".join(str(draw(digit))
                                   for _ in range(width)) + "]"
            else:
                c = str(draw(digit))
            d = draw(st.integers(0, 5))
            terms.append(c if d == 0 else f"{c}*u^{d}")
        return " + ".join(terms) or "0"

    def rows(k):
        return [", ".join(cell() for _ in range(g)) for _ in range(k)]

    header = [f"g={g}"]
    if draw(st.booleans()):
        header.append(f"killed={n},{draw(st.integers(1, 6))}")
    if draw(st.booleans()):
        header.append(f"N={draw(st.integers(2, 8))}")
    lines = ["[ring]", f"p={p} n={n} m={m}", "[module]", " ".join(header)]
    lines += rows(draw(st.integers(0, 2)))
    lines += ["[phi]"] + rows(g)
    if draw(st.booleans()):
        lines += ["[psi]"] + rows(g)
    lines += ["[check]", f"name={draw(st.sampled_from(['split', 'height']))}"]
    return "\n".join(lines) + "\n"


@given(documents())
def test_document_round_trip_property(text):
    doc = parse_document(text)
    out = doc.serialize()
    assert parse_document(out) == doc
    assert parse_document(out).serialize() == out


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_document("stray content")
    with pytest.raises(ParseError, match="line 2"):
        parse_document("[ring]\nnonsense token\n")
    with pytest.raises(ParseError, match=r"\[badblock\]"):
        parse_document("[badblock]\n")
    with pytest.raises(ParseError):
        parse_document("[ring]\np=2\n[module]\ng=2\nu, u, u\n")


def test_unknown_check_raised():
    with pytest.raises(UnknownCheck):
        run_check(parse_document(SPLIT_DOC), "nosuch")
    with pytest.raises(UnknownCheck):
        run_check(parse_document("[ring]\np=2\n"), None)


# ---------------------------------------------------------------------------
# cmd_check
# ---------------------------------------------------------------------------


def _write(tmp_path, text, name="doc.txt"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_check_split_exit0(tmp_path):
    res = run(["check", _write(tmp_path, SPLIT_DOC), "--json"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["mult_length"] == 9 and rep["nilp_length"] == 9


def test_check_sharpness_example_file(tmp_path):
    text = "[check]\nname=sharpness p=2 n=1\n"
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["alpha"] == 1 and rep["status"] == "pass"


def test_check_ill_formed_phi_exit2(tmp_path):
    text = ("[ring]\np=2 n=1\n[module]\ng=2 killed=1,4\nu, 0\nu^4, 0\n"
            "0, u^4\n[phi]\n0, 0\n1, 0\n[check]\nname=split\n")
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 2
    rep = json.loads(res.output)
    assert rep["error"] == "IllFormedPhi" and "relation 0" in rep["detail"]


def test_check_empty_module_vacuous(tmp_path):
    text = "[ring]\np=2 n=1\n[module]\ng=0\n[check]\nname=zp_shape\n"
    res = run(["check", _write(tmp_path, text)])
    assert res.exit_code == 0
    assert "vacuous" in res.output


@pytest.mark.parametrize("name", ["split", "zp_shape", "u_torsion",
                                  "boundary", "height"])
def test_module_checks_pass_vacuously_on_an_empty_module(tmp_path, name):
    text = f"[ring]\np=2 n=1\n[module]\ng=0\n[check]\nname={name}\n"
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 0
    assert res.output == (
        "{\n"
        f'  "check": "{name}",\n'
        '  "note": "vacuous: empty module",\n'
        '  "status": "pass"\n'
        "}\n")


def _nilpotent_part_as_mult(M, rng=None):
    """A planted defect: the submodule on the second generator, where
    phi-bar is nilpotent, returned as the multiplicative part."""
    mdl = M.model()
    v = mdl.gen_vec(1)
    M_mult = presentation_from_generators(M, mdl, [v], killed_by=M.killed_by)
    M_nilp = PhiModule(M.ring, M.g, M.relations + [tuple(mdl.to_column(v))],
                       M.phi, killed_by=M.killed_by, N=M.N)
    return SplitResult(M_mult, M_nilp, section=[])


def test_check_split_certifies_the_fitting_conditions(tmp_path, monkeypatch):
    M = build_module(parse_document(README_DOC))
    assert fitting_conditions(split_phi_module(M)) == (True, True)
    fake = _nilpotent_part_as_mult(M)
    # the lengths of the planted split add up, so only the Fitting
    # conditions can tell it from a true one
    assert fake.M_mult.length() + fake.M_nilp.length() == M.length()
    assert fitting_conditions(fake) == (False, False)
    monkeypatch.setattr("prismalab.cli.split_phi_module",
                        _nilpotent_part_as_mult)
    res = run(["check", _write(tmp_path, README_DOC), "--json"])
    rep = json.loads(res.output)
    assert res.exit_code == 1 and rep["status"] == "fail"
    assert rep["exact"] is False
    assert rep["mult_bijective"] is False and rep["nilp_nilpotent"] is False


def test_check_unknown_and_parse_error_exit2(tmp_path):
    res = run(["check", _write(tmp_path, SPLIT_DOC), "--check", "nosuch"])
    assert res.exit_code == 2
    res = run(["check", _write(tmp_path, "garbage\n", "bad.txt")])
    assert res.exit_code == 2
    assert "line 1" in res.output


@pytest.mark.parametrize("ring", [
    "p=4 n=1", "p=6 n=1", "p=2,3 n=1", "p=3,5 n=1", "p=3 n=1,2",
])
def test_check_bad_ring_values_exit2(tmp_path, ring):
    # a composite p was answered with exit 0, a list-valued one crashed
    text = (f"[ring]\n{ring}\n[module]\ng=1 killed=1,2\nu^2\n[phi]\n1\n"
            "[check]\nname=length\n")
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 2
    assert json.loads(res.output)["error"] == "InputError"


@pytest.mark.parametrize("module, check", [
    ("g=1 N=-1", "length"), ("g=1 N=-2", "length"), ("g=1 N=2,3", "length"),
    ("g=1 N=0 killed=1,3", "u_torsion"), ("g=1 killed=1,1,1", "length"),
    ("g=1 killed=-1", "length"),
    # N=0 answered length 0 for a module of length 3
    ("g=1 N=0", "length"),
    # a negative height was certified
    ("g=1 killed=1,3", "height eis=2,1 h=-1"),
])
def test_check_bad_module_values_exit2(tmp_path, module, check):
    psi = "[psi]\n1\n" if check.startswith("height") else ""
    text = (f"[ring]\np=2 n=1\n[module]\n{module}\nu^3\n[phi]\n1\n"
            f"{psi}[check]\nname={check}\n")
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert json.loads(res.output)["error"] == "InputError"


@pytest.mark.parametrize("g", ["-1", "1,2"])
def test_check_bad_g_names_the_module_header(tmp_path, g):
    # refused as "[phi] must be a g x g matrix", naming the wrong header
    text = f"[ring]\np=2 n=1\n[module]\ng={g}\n[check]\nname=length\n"
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 2
    rep = json.loads(res.output)
    assert rep["error"] == "InputError"
    assert "[module] g" in rep["detail"] and "[phi]" not in rep["detail"]


# one base document per check, with every header key its check reads
_ARITY_MODULE = ("[ring]\np=2 n=1 m=2 f=1,1,1\n[module]\ng=1 N=4 killed=1,2\n"
                 "u^2\n[phi]\n1\n")
ARITY_DOCS = {
    "sharpness": "[check]\nname=sharpness p=2 n=1\n",
    "kernel": "[check]\nname=kernel p=2 n=1 bound=4 m=1\n",
    "mingens": "[check]\nname=mingens p=2 n=1 D=8\n",
    "split": _ARITY_MODULE + "[check]\nname=split seed=1\n",
    "zp_shape": _ARITY_MODULE + "[check]\nname=zp_shape\n",
    "u_torsion": _ARITY_MODULE + "[check]\nname=u_torsion\n",
    "boundary": _ARITY_MODULE + "[check]\nname=boundary e=1 i=2\n",
    "height": ("[ring]\np=2 n=1\n[module]\ng=1 N=4\n[phi]\n2 + u\n[psi]\n1\n"
               "[check]\nname=height eis=2,1 h=1\n"),
    "length": _ARITY_MODULE + "[check]\nname=length\n",
}


def _arity_cases():
    """(check, document, block, key) with one header value replaced by a
    value of the wrong arity: a list for a one-integer key, a scalar for
    f and eis.  killed=a is the valid shorthand for (a, open)."""
    for check, text in ARITY_DOCS.items():
        block = None
        for line in text.splitlines():
            if line.startswith("["):
                block = line[1:-1]
                continue
            for tok in line.split():
                key, _, value = tok.partition("=")
                if not value or key == "name" or key == "killed":
                    continue
                bad = ["3"] if key in ("f", "eis") else ["1,2", "-5,3",
                                                         "1,2,3"]
                for v in bad:
                    yield (check, text.replace(f"{line}\n", line.replace(
                        tok, f"{key}={v}") + "\n"), block, key)


def test_every_header_key_refuses_a_value_of_the_wrong_arity(tmp_path):
    # list-valued p, n, i, h, m, D and seed and a scalar eis or f exited 3;
    # bound=1,2 was silently accepted
    cases = list(_arity_cases())
    assert {(block, key) for _, _, block, key in cases} >= {
        ("ring", "p"), ("ring", "n"), ("ring", "m"), ("ring", "f"),
        ("module", "g"), ("module", "N"), ("check", "bound"),
        ("check", "D"), ("check", "seed"), ("check", "e"), ("check", "i"),
        ("check", "eis"), ("check", "h"), ("check", "m"), ("check", "p")}
    path = _write(tmp_path, "")
    for text in ARITY_DOCS.values():
        Path(path).write_text(text)
        res = run(["check", path, "--json"])
        assert res.exit_code in (0, 1), (text, res.output)
    for check, text, block, key in cases:
        Path(path).write_text(text)
        res = run(["check", path, "--json"])
        assert res.exit_code == 2, (check, text, res.output)
        assert "Traceback" not in res.output
        rep = json.loads(res.output)
        assert issubclass(getattr(errors, rep["error"]), errors.InputError)
        assert f"[{block}] {key} must" in rep["detail"], (check, text, rep)


def _unknown_key_cases():
    """(check, document, block, key) with one key added to a header line
    of a base document: a misspelling of each key on the line, and in
    [check] each key that another check reads; also one key in [phi]."""
    check_keys = {tok.partition("=")[0] for text in ARITY_DOCS.values()
                  for tok in text.split("[check]\n")[1].split()}
    for check, text in ARITY_DOCS.items():
        block = None
        for line in text.splitlines():
            if line.startswith("["):
                block = line[1:-1]
                continue
            if "=" not in line:
                continue
            keys = {tok.partition("=")[0] for tok in line.split()}
            bad = {k[:-1] + k[-1] * 2 for k in keys}
            if block == "check":
                bad |= check_keys - keys
            for key in sorted(bad):
                tok = f"{key}=2,1" if key in ("f", "eis") else f"{key}=1"
                yield (check, text.replace(f"{line}\n", f"{line} {tok}\n"),
                       block, key)
        if "[phi]\n" in text:
            yield check, text.replace("[phi]\n", "[phi]\nx=1\n"), "phi", "x"


def test_every_block_refuses_an_unknown_header_key(tmp_path):
    # [check] name=kernel p=2 n=1 bund=4 mm=9 exited 0 with the default
    # bound and m; unknown [ring], [module] and [phi] keys were ignored
    cases = list(_unknown_key_cases())
    assert {(c, b) for c, _, b, _ in cases} >= {
        (c, "check") for c in ARITY_DOCS} | {(c, "ring") for c in (
            "split", "height")} | {("length", "module"), ("split", "phi")}
    assert ("length", "check", "seed") in {(c, b, k) for c, _, b, k in cases}
    path = _write(tmp_path, "")
    for check, text, block, key in cases:
        Path(path).write_text(text)
        res = run(["check", path, "--json"])
        assert res.exit_code == 2, (check, text, res.output)
        assert "Traceback" not in res.output
        rep = json.loads(res.output)
        assert rep["error"] == "InputError", (check, text, rep)
        assert f"[{block}] {key} is not a known key" in rep["detail"], rep
    bund = ARITY_DOCS["kernel"].replace("bound", "bund").replace("m=1", "mm=9")
    rep = json.loads(run(["check", _write(tmp_path, bund), "--json"]).output)
    assert rep["detail"].startswith("[check] bund is not a known key")


_ROWS_MODULE = "[ring]\np=2 n=1\n[module]\ng=1 killed=1,2\n"


@pytest.mark.parametrize("text, error, detail", [
    (_ROWS_MODULE + "u^2\n[phi]\n1\n[fil]\n1\n[check]\nname=length\n",
     "ParseError", "line 8: unknown block [fil]"),
    (_ROWS_MODULE + "u^2\n[phi]\n1\n[psi]\n1\n[check]\nname=split\n",
     "InputError", "[psi] rows are not read"),
    (_ROWS_MODULE + "[phi]\n1\n[check]\nname=sharpness p=2 n=1\n",
     "InputError", "[phi] rows are not read"),
], ids=["fil-under-length", "psi-under-split", "phi-under-sharpness"])
def test_check_refuses_rows_it_does_not_read(tmp_path, text, error, detail):
    # [psi] rows under every check but height were parsed, shape-checked
    # and ignored with exit 0; [fil], which no check reads, is no block
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    rep = json.loads(res.output)
    assert rep["error"] == error
    assert rep["detail"].startswith(detail), rep


def test_killed_scalar_leaves_the_u_exponent_open():
    doc = parse_document(_ARITY_MODULE.replace("killed=1,2", "killed=1"))
    assert doc.header("module")["killed"] == (1,)
    assert build_module(doc).killed_by == (1, None)


def test_cli_keeps_no_captured_stdout_alive(tmp_path):
    # click.echo with no file cached a wrapper per sys.stdout object, so
    # every stream a CliRunner swapped in stayed alive with its output
    path = _write(tmp_path, README_DOC)

    def live():
        gc.collect()
        return sum(isinstance(o, _NamedTextIOWrapper)
                   for o in gc.get_objects())

    run(["check", path, "--json"])
    before = live()
    for args in (["check", path, "--json"], ["check", path],
                 ["example", "cyclo"]) * 10:
        assert run(args).exit_code == 0
    assert live() <= before


def test_subprocess_output_equals_cli_runner_output(tmp_path):
    path = _write(tmp_path, README_DOC)
    src = str(Path(sys.modules["prismalab"].__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "prismalab.cli", "check", path, "--json"],
        capture_output=True, env=env, timeout=60)
    res = run(["check", path, "--json"])
    assert proc.returncode == res.exit_code == 0
    assert proc.stdout == res.stdout_bytes
    assert json.loads(proc.stdout)["exact"] is True


@pytest.mark.parametrize("p, n", [(2, 7), (3, 5)])
def test_sharpness_is_answered_in_a_fresh_process(tmp_path, p, n):
    # the check also built a u-torsion presentation, which at p = 2,
    # n = 7 gave no answer in 90 s and reached 2.3 GB
    path = _write(tmp_path, f"[check]\nname=sharpness p={p} n={n}\n")
    src = str(Path(sys.modules["prismalab"].__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "prismalab.cli", "check", path, "--json"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert proc.returncode == 0, proc.stdout
    rep = json.loads(proc.stdout)
    assert rep["sharp"] is True and rep["alpha"] == p ** (n - 1)


@pytest.mark.parametrize("p", [1000003, 10 ** 12 + 39])
def test_check_length_at_large_p(tmp_path, p):
    # validating phi on the relation u^3 built phi(u^3) = u^(3p) in full,
    # so this 1x1 document took seconds to minutes as p grew
    text = (f"[ring]\np={p} n=1\n[module]\ng=1 killed=1,3\nu^3\n[phi]\n1\n"
            "[check]\nname=length\n")
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"check": "length", "length": 3,
                                      "status": "pass"}


def test_check_length_readme_document_at_p_near_1e18(tmp_path):
    # primality of p was decided by trial division up to sqrt(p)
    text = SPLIT_DOC.replace("p=2 n=1 m=1", "p=1000000000000000003 n=1")
    path = _write(tmp_path, text)
    t0 = time.perf_counter()
    res = run(["check", path, "--check", "length", "--json"])
    assert time.perf_counter() - t0 < 1.0
    assert res.exit_code == 0
    assert json.loads(res.output)["status"] == "pass"


def _u_power_document(d):
    return (f"[ring]\np=2 n=1\n[module]\ng=1\nu^{d}\n[phi]\n1\n"
            "[check]\nname=length\n")


def test_check_refuses_an_oversized_model_before_building_it(
        tmp_path, monkeypatch):
    # the dense model of u^5000 has 5001 x 5001 cells: it took seconds and
    # hundreds of MB before it could answer, and larger degrees gigabytes
    def no_rows(*args):
        raise AssertionError("relation rows built")

    monkeypatch.setattr(FiniteModel, "column_rows", no_rows)
    t0 = time.perf_counter()
    res = run(["check", _write(tmp_path, _u_power_document(5000)), "--json"])
    assert time.perf_counter() - t0 < 1.0
    assert res.exit_code == 2
    report = json.loads(res.output)
    assert report["error"] == "InputError"
    for part in ("g=1", "N=5001", "m=1", "5001 relation rows", "16777216"):
        assert part in report["detail"]


def test_check_length_of_u4000_fits_the_model_budget(tmp_path):
    res = run(["check", _write(tmp_path, _u_power_document(4000)), "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"check": "length", "length": 4000,
                                      "status": "pass"}


_HUGE = 10 ** 55


@pytest.mark.parametrize("ring, module, detail", [
    (f"p=2 n=1 m={_HUGE}", "g=1", f"m={_HUGE} is over the budget of 256"),
    (f"p=2 n={_HUGE}", "g=1", "over the budget of 8192 bits"),
    ("p=2 n=1", f"g=1 N={_HUGE}",
     f"[module] N too large: g=1, N={_HUGE}, m=1 give model vectors of "
     f"{_HUGE} cells, over the budget of 16777216 cells"),
], ids=["m", "n", "N"])
def test_check_refuses_huge_ring_and_model_sizes(tmp_path, monkeypatch,
                                                 ring, module, detail):
    # m=10^55 and N=10^55 exited 3 with an OverflowError, and n=10^55 ran
    # out of memory computing p^n
    def no_series(*args, **kwargs):
        raise AssertionError("series built")

    monkeypatch.setattr("prismalab.cli._series_elem", no_series)
    size = witt_base._witt_ring.cache_info().currsize
    text = (f"[ring]\n{ring}\n[module]\n{module}\n[phi]\n1\n"
            "[check]\nname=length\n")
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    rep = json.loads(res.output)
    assert rep["error"] == "InputError" and detail in rep["detail"], rep
    if module == "g=1":
        assert witt_base._witt_ring.cache_info().currsize == size


@pytest.mark.parametrize("check, report", [
    ("length", {"length": 2, "status": "pass"}),
    ("split", {"exact": True, "length": 2, "mult_length": 2,
               "nilp_length": 0, "status": "pass"}),
    ("zp_shape", {"ok": False, "refuted_at_exponent": 1, "status": "fail"}),
    ("u_torsion", {"length": 2, "status": "pass", "torsion_length": 2}),
    ("boundary e=1 i=2", {"p_u_annihilates": False, "passed": False,
                          "phi_bijective": True, "status": "fail"}),
], ids=["length", "split", "zp_shape", "u_torsion", "boundary"])
def test_module_checks_answer_a_huge_p_exponent_of_killed(tmp_path, check,
                                                          report):
    # validating killed computed p^a in full, so a = 10^55 never ended;
    # p^a = 0 mod p for every a >= 1, so each report is that of killed=1,2
    name = check.split()[0]
    for a in (_HUGE, 1):
        text = (f"[ring]\np=2 n=1\n[module]\ng=1 killed={a},2\nu^2\n"
                f"[phi]\n1\n[check]\nname={check}\n")
        t0 = time.perf_counter()
        res = run(["check", _write(tmp_path, text), "--json"])
        assert time.perf_counter() - t0 < 2.0
        assert res.exit_code == (report["status"] == "fail")
        assert "Traceback" not in res.output
        assert json.loads(res.output) == {"check": name, **report}


def _split_u_power_document(d):
    return (f"[ring]\np=2 n=1\n[module]\ng=1 killed=1,{d}\nu^{d}\n"
            "[phi]\n1\n[check]\nname=split\n")


def test_check_split_refuses_an_oversized_nilpotent_part_early(
        tmp_path, monkeypatch):
    # the refusal came from M_nilp's model after M_mult's presentation was
    # built: 11 s and 642 MB; its size is known once mult_section returns
    def no_presentation(*args, **kwargs):
        raise AssertionError("M_mult built")

    monkeypatch.setattr("prismalab.decomposition.presentation_from_generators",
                        no_presentation)
    t0 = time.perf_counter()
    res = run(["check", _write(tmp_path, _split_u_power_document(4000)),
               "--json"])
    assert time.perf_counter() - t0 < 2.0
    assert res.exit_code == 2
    assert json.loads(res.output) == {
        "status": "error", "error": "InputError",
        "detail": "model too large: g=1, N=4001, m=1 give 8002 relation "
                  "rows of 4001 cells, over the budget of 16777216 cells"}


def test_check_split_of_u1000_is_answered_unchanged(tmp_path):
    t0 = time.perf_counter()
    res = run(["check", _write(tmp_path, _split_u_power_document(1000)),
               "--json"])
    assert time.perf_counter() - t0 < 4.0
    assert res.exit_code == 0
    assert res.output == (
        '{\n  "check": "split",\n  "exact": true,\n  "length": 1000,\n'
        '  "mult_length": 1000,\n  "nilp_length": 0,\n'
        '  "status": "pass"\n}\n')


def _raise_internal(*args, **kwargs):
    raise RuntimeError("planted defect")


@pytest.mark.parametrize("argv", [["check", "{doc}", "--json"],
                                  ["suite", "cyclo", "--json"]])
def test_internal_error_exit3(tmp_path, monkeypatch, argv):
    monkeypatch.setattr("prismalab.cli.run_check", _raise_internal)
    monkeypatch.setattr("prismalab.cli._suite_cyclo", _raise_internal)
    doc = _write(tmp_path, SPLIT_DOC)
    res = run([doc if a == "{doc}" else a for a in argv])
    assert res.exit_code == 3
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert json.loads(res.output) == {
        "status": "error", "error": "InternalError",
        "detail": "RuntimeError: planted defect"}


def test_check_dp_literal_outside_context_exit2(tmp_path):
    text = "[ring]\np=2 n=1\n[module]\ng=1\n1*u^2/dp(2)\n[phi]\n1\n"
    res = run(["check", _write(tmp_path, text), "--check", "length"])
    assert res.exit_code == 2


def test_check_zp_shape_refutation_exit1(tmp_path):
    # u-torsion: zp_shape refutes, a mathematical failure with witness
    text = ("[ring]\np=2 n=1\n[module]\ng=2 killed=1,9\nu^9, 0\n0, u^9\n"
            "[phi]\n1, 0\nu, u\n")
    res = run(["check", _write(tmp_path, text), "--check", "zp_shape",
               "--json"])
    assert res.exit_code == 1
    rep = json.loads(res.output)
    assert rep["status"] == "fail" and rep["refuted_at_exponent"] == 1


def test_check_kernel_and_mingens(tmp_path):
    text = "[check]\nname=kernel p=2 n=1\n"
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["generators"] == [[0, 1, 0, 0, 0]]
    res = run(["check", _write(tmp_path, text), "--check", "mingens",
               "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["mu"] == 1


@pytest.mark.parametrize("p, n, D, least", [(2, 2, 5, 16), (3, 2, 19, 108)])
def test_check_mingens_refuses_a_small_D_before_any_ring(tmp_path, p, n, D,
                                                         least):
    # D=5 at p=2, n=2 exited 0 with mu 1, not 2, and D=19 at p=3, n=2 with
    # mu 2, not 3: the D -> D+e re-check agreed with the wrong answer
    text = f"[check]\nname=mingens p={p} n={n} D={D}\n"
    built = series_rings._dp_ring.cache_info().misses
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    rep = json.loads(res.output)
    assert rep["error"] == "InputError"
    assert f"the least admissible D is {least}" in rep["detail"], rep
    assert series_rings._dp_ring.cache_info().misses == built


@pytest.mark.parametrize("check", [
    "sharpness p=2 n=60", "kernel p=2 n=60", "mingens p=2 n=60",
    "sharpness p=2 n=20", "kernel p=1000000000039 n=1",
    f"sharpness p=2 n={10 ** 55}"])
def test_cyclotomic_checks_refuse_a_degree_over_the_budget(tmp_path, check):
    # each built (u+1)^(p^n) first and ran past 15 s
    t0 = time.perf_counter()
    res = run(["check", _write(tmp_path, f"[check]\nname={check}\n"),
               "--json"])
    assert time.perf_counter() - t0 < 1.0
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    rep = json.loads(res.output)
    assert rep["error"] == "InputError"
    p, n = (kv.split("=")[1] for kv in check.split()[1:])
    assert (f"p={p}, n={n} give degree p^n over the budget of "
            f"{CYCLO_DEGREE_BUDGET}") in rep["detail"], rep


@pytest.mark.parametrize("D", [400, 10 ** 55])
def test_check_mingens_refuses_a_D_over_the_budget_before_any_ring(tmp_path,
                                                                  D):
    # D=400 at p=2, n=1 reached 1.1 GB in 40 s, and D=10^55 never ended
    text = f"[check]\nname=mingens p=2 n=1 D={D}\n"
    built = series_rings._dp_ring.cache_info().misses
    t0 = time.perf_counter()
    res = run(["check", _write(tmp_path, text), "--json"])
    assert time.perf_counter() - t0 < 1.0
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    rep = json.loads(res.output)
    assert rep["error"] == "InputError"
    assert rep["detail"].startswith(f"[check] D={D} too large"), rep
    assert f"exceeds the budget of {KERNEL_CELL_BUDGET} cells" in rep["detail"]
    assert series_rings._dp_ring.cache_info().misses == built


@pytest.mark.parametrize("bound", [-1, 0, 1])
def test_check_kernel_refuses_a_small_bound_before_the_solve(tmp_path, bound):
    # bound=1 was refused as "expected generator missing from the kernel"
    text = f"[check]\nname=kernel p=3 n=2 bound={bound}\n"
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    rep = json.loads(res.output)
    assert rep["error"] == "BoundaryContamination"
    assert "least admissible bound is 9" in rep["detail"], rep


def _least_bound_over_budget(p, e):
    B = 1
    while (B + e + 1) * ((B + e) // p + 1) <= KERNEL_CELL_BUDGET:
        B += 1
    return B


@pytest.mark.parametrize("bound", [10 ** 55, _least_bound_over_budget(3, 6)])
def test_check_kernel_refuses_a_bound_over_the_cell_budget(tmp_path, bound):
    # bound=10^55 exited 3 with an OverflowError from the allocation
    text = f"[check]\nname=kernel p=3 n=2 bound={bound}\n"
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    rep = json.loads(res.output)
    assert rep["error"] == "InputError"
    assert f"over the budget of {KERNEL_CELL_BUDGET} cells" in rep["detail"]


def test_check_height_with_psi(tmp_path):
    text = ("[ring]\np=2 n=1\n[module]\ng=1\n[phi]\n2 + u\n[psi]\n1\n"
            "[check]\nname=height eis=2,1 h=1\n")
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["height_ok"] is True


def test_check_height_at_a_huge_height_is_answered(tmp_path):
    # E^h was h truncated products: h=10^6 took seconds, h=10^55 never ended
    text = ("[ring]\np=2 n=1\n[module]\ng=1\n[phi]\n2 + u\n[psi]\n1\n"
            f"[check]\nname=height eis=2,1 h={_HUGE}\n")
    t0 = time.perf_counter()
    res = run(["check", _write(tmp_path, text), "--json"])
    assert time.perf_counter() - t0 < 2.0
    assert res.exit_code in (0, 1)
    assert "Traceback" not in res.output
    assert json.loads(res.output) == {"check": "height", "h": _HUGE,
                                      "height_ok": False, "status": "fail"}


# ---------------------------------------------------------------------------
# example / suite
# ---------------------------------------------------------------------------


def test_example_cyclo_round_trips_into_check(tmp_path):
    res = run(["example", "cyclo", "--p", "2", "--n", "1"])
    assert res.exit_code == 0
    doc = parse_document(res.output)
    assert dict(doc.check)["name"] == "sharpness"
    res2 = run(["check", _write(tmp_path, res.output)])
    assert res2.exit_code == 0


def test_suite_cyclo_passes():
    res = run(["suite", "cyclo", "--json"])
    assert res.exit_code == 0
    items = json.loads(res.output)
    assert len(items) == 4 and all(i["status"] == "pass" for i in items)


def test_suite_split_deterministic():
    a = run(["suite", "split", "--seed", "7", "--json"])
    b = run(["suite", "split", "--seed", "7", "--json"])
    assert a.exit_code == 0 and a.output == b.output
    items = json.loads(a.output)
    assert len(items) == 50 and all(i["status"] == "pass" for i in items)


def test_suite_all_json():
    res = run(["suite", "all", "--json"])
    assert res.exit_code == 0
    items = json.loads(res.output)
    assert len(items) == 54


# ---------------------------------------------------------------------------
# mutation fuzzing of the README document
# ---------------------------------------------------------------------------

FUZZ_CHARS = "".join(sorted(set(README_DOC) | set(
    string.ascii_lowercase + string.digits + "[](),+-*^/=_ #")))


@st.composite
def mutated_documents(draw):
    """The README document after 1-3 random character edits."""
    text = README_DOC
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        i = draw(st.integers(0, len(text) - (kind != "insert")))
        c = "" if kind == "delete" else draw(st.sampled_from(FUZZ_CHARS))
        text = text[:i] + c + text[i + (kind != "insert"):]
    return text


@given(mutated_documents())
def test_mutated_readme_document_never_exits_3(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_text(text)
    res = run(["check", str(path), "--json"])
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "status" in json.loads(res.output)
