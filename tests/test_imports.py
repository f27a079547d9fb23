"""Every name a module of src/prismalab imports is used in that module,
every private helper it defines is used in src/prismalab, every public
function and module-level class it defines is reached or on a short
allow-list, no module of src/prismalab or tests unpacks or indexes a
howell_form, and no module of src/prismalab transposes the vectors it
passes to factor."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "prismalab"


def unused_imports(source):
    """The names bound by import statements of source and never loaded."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nfrom math import comb, gcd as g\n"
              "print(os.sep, g)\n")
    assert unused_imports(source) == [(4, "comb")]


def test_src_has_no_unused_imports():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f.name: unused_imports(f.read_text()) for f in files}
    assert {k: v for k, v in found.items() if v} == {}


def _is_howell_call(node):
    if isinstance(node, ast.IfExp):
        return _is_howell_call(node.body) or _is_howell_call(node.orelse)
    return isinstance(node, ast.Call) and "howell_form" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def unpacked_howell_forms(source):
    """Lines that assign a howell_form(...) result to a tuple or list
    target, or subscript it.  The result is one list of rows, so with two
    rows a two-name target unpacks it silently and does not raise."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and _is_howell_call(node.value):
            lines.add(node.lineno)
        elif isinstance(node, ast.Assign) and _is_howell_call(node.value) \
                and any(isinstance(t, (ast.Tuple, ast.List))
                        for t in node.targets):
            lines.add(node.lineno)
    return sorted(lines)


def test_the_guard_sees_an_unpacked_howell_form():
    call = "howell_form(rows, p, n)"
    source = (f"H, _ = {call}\n"
              f"[H] = la.{call} if rows else [[]]\n"
              f"H = {call}[0]\n"
              f"H = {call}\n"
              f"H, T = ref_{call}\n"
              f"x = ref_{call}[0]\n"
              f"for a, b in {call}: pass\n")
    assert unpacked_howell_forms(source) == [1, 2, 3]


def test_no_howell_form_is_unpacked():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {f.name: unpacked_howell_forms(f.read_text()) for f in files}
    assert {k: v for k, v in found.items() if v} == {}


def _transposes(node):
    """node is zip(*...), list or tuple of a transposition, a sum with one,
    a comprehension over one, or a comprehension whose rows index other
    sequences by its own variable, as [[c[r] for c in cols] for r in R]."""
    if isinstance(node, ast.BinOp):
        return _transposes(node.left) or _transposes(node.right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "zip":
            return any(isinstance(a, ast.Starred) for a in node.args)
        return (node.func.id in ("list", "tuple") and bool(node.args)
                and _transposes(node.args[0]))
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        own = {g.target.id for g in node.generators
               if isinstance(g.target, ast.Name)}
        return any(_transposes(g.iter) for g in node.generators) or any(
            isinstance(sub, (ast.ListComp, ast.GeneratorExp))
            and isinstance(sub.elt, ast.Subscript)
            and isinstance(sub.elt.slice, ast.Name)
            and sub.elt.slice.id in own
            for sub in ast.walk(node.elt))
    return False


def transposed_factor_inputs(source):
    """Lines of factor(...) calls whose vectors are a transposition, given
    directly or as a name assigned in the same function.  factor takes the
    vectors it combines; a matrix of equations belongs to no caller."""
    tree = ast.parse(source)
    lines = set()
    for scope in [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, ast.FunctionDef)]:
        body = [scope] if scope is not tree else [
            stmt for stmt in tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
        nodes = [n for stmt in body for n in ast.walk(stmt)]
        assigned = {}
        for node in nodes:
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        assigned.setdefault(t.id, []).append(node.value)
        for node in nodes:
            if not (isinstance(node, ast.Call) and node.args and "factor" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None))):
                continue
            arg = node.args[0]
            values = [arg] + (assigned.get(arg.id, [])
                              if isinstance(arg, ast.Name) else [])
            if any(_transposes(v) for v in values):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_guard_sees_a_transposed_factor_input():
    source = ("factor(zip(*rows), p, n)\n"
              "F = la.factor(list(zip(*cols, *H)), p, n)\n"
              "factor([list(r) for r in zip(*A)], p, n)\n"
              "factor([[c[r] for c in cols] for r in range(d)], p, n)\n"
              "def f(cols, H):\n"
              "    A = [[h[i] for h in H] + [0] for i in range(d)]\n"
              "    return factor(A, p, n).kernel()\n"
              "def g(cols, H):\n"
              "    A = cols + list(H)\n"
              "    factor(A, p, n)\n"
              "    factor([[0] * d for c in cols], p, n)\n"
              "    howell_form(list(zip(*A)), p, n)\n"
              "    return self._fil_factor(list(zip(*A)), n)\n")
    assert transposed_factor_inputs(source) == [1, 2, 3, 4, 7]


def test_src_passes_factor_its_vectors():
    files = sorted(SRC.glob("*.py"))
    found = {f.name: transposed_factor_inputs(f.read_text()) for f in files}
    assert {k: v for k, v in found.items() if v} == {}


def _functions(sources):
    """(file, line, node) of each non-dunder function or method defined in
    sources (file name -> text)."""
    return [(fname, node.lineno, node) for fname, text in sources.items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))]


def _loaded(sources):
    """The names some expression of sources loads, as a name or as an
    attribute; an import alone does not count."""
    used = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def dead_helpers(sources):
    """(file, line, name) of each _-prefixed, non-dunder function or method
    defined in sources whose name no expression in sources loads."""
    used = _loaded(sources)
    return sorted((f, line, node.name) for f, line, node in _functions(sources)
                  if node.name.startswith("_") and node.name not in used)


def test_the_guard_sees_a_dead_helper():
    sources = {
        "a.py": ("from b import _imported\n"
                 "def _called(): pass\n"
                 "def _dead(): pass\n"
                 "class C:\n"
                 "    def __init__(self): self._method()\n"
                 "    def _method(self): pass\n"
                 "    def _unused_method(self): pass\n"
                 "_called()\n"),
        "b.py": "def _imported(): pass\ndef _used_elsewhere(): pass\n",
        "c.py": "x = [_used_elsewhere]\n_dead = C._unused_method = 0\n",
    }
    assert dead_helpers(sources) == [("a.py", 3, "_dead"),
                                     ("a.py", 7, "_unused_method"),
                                     ("b.py", 1, "_imported")]


def test_src_has_no_dead_private_helpers():
    sources = {f.name: f.read_text() for f in sorted(SRC.glob("*.py"))}
    assert sources
    assert dead_helpers(sources) == []


# public functions, methods and classes of src/prismalab that no module of
# src, no benchmark script and no acceptance criterion reaches, each with
# the reason it stays; a name that becomes reached must leave the list
ALLOWED_UNREACHED = {}


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def _classes(sources):
    """(file, line, node) of each module-level class defined in sources."""
    return [(fname, node.lineno, node) for fname, text in sources.items()
            for node in ast.parse(text).body if isinstance(node, ast.ClassDef)]


def unreached_public(defined, readers):
    """(file, line, name) of each public, non-dunder function or method and
    each public module-level class defined in defined (file name -> text)
    whose name no expression in readers loads; a click command
    (@group.command(...)) counts as reached."""
    used = _loaded(readers)
    return sorted((f, line, node.name)
                  for f, line, node in _functions(defined) + _classes(defined)
                  if not node.name.startswith("_")
                  and node.name not in used and not _is_click_command(node))


def test_the_guard_sees_unreached_public_code():
    defined = {
        "a.py": ("import click\n"
                 "@click.group()\ndef main(): pass\n"
                 "@main.command('run')\ndef cmd_run(): pass\n"
                 "def called(): pass\n"
                 "def unreached(): pass\n"
                 "class C:\n"
                 "    def __eq__(self, o): return True\n"
                 "    def method(self): pass\n"
                 "    def dead_method(self): pass\n"
                 "    def _private(self): pass\n"),
        "errors.py": ("class Base(Exception): pass\n"
                      "class Raised(Base): pass\n"
                      "class Orphan(Base): pass\n"
                      "class _Private(Base): pass\n"
                      "def f():\n"
                      "    class Local: pass\n"
                      "    raise Raised()\n"),
    }
    readers = dict(defined, **{
        "bench.py": "from a import unreached\ncalled()\nC().method()\n",
        "test.py": "main()\ndead_method = 0\nOrphan = 0\nf()\n"})
    assert unreached_public(defined, readers) == [
        ("a.py", 7, "unreached"), ("a.py", 11, "dead_method"),
        ("errors.py", 3, "Orphan")]


def test_src_public_code_is_reached_or_allowed():
    src = {f.name: f.read_text() for f in sorted(SRC.glob("*.py"))}
    readers = {str(f.relative_to(ROOT)): f.read_text()
               for f in sorted(SRC.glob("*.py"))
               + sorted((ROOT / "bench").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"]}
    found = {name for _, _, name in unreached_public(src, readers)}
    assert found - set(ALLOWED_UNREACHED) == set(), "unreached, not allowed"
    assert set(ALLOWED_UNREACHED) - found == set(), "reached, still allowed"
