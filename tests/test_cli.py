import json
import random
import string
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from prismalab.cli import (
    Document, build_module, main, parse_document, parse_series, run_check,
    serialize_series,
)
from prismalab.decomposition import (
    SplitResult, fitting_conditions, split_phi_module,
)
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


def test_check_height_with_psi(tmp_path):
    text = ("[ring]\np=2 n=1\n[module]\ng=1\n[phi]\n2 + u\n[psi]\n1\n"
            "[check]\nname=height eis=2,1 h=1\n")
    res = run(["check", _write(tmp_path, text), "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["height_ok"] is True


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
