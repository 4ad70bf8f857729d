"""Import hygiene and the reachable surface of the package.

Every module of the package and every test file uses each name it imports: a
read counts for an import only when it resolves to the import's scope, so a
parameter or local of the same name does not hide an unused import.
Every public top-level def or class of the package is reached: referenced
elsewhere in `src/`, re-exported through the export table of `__init__`, or
listed below with the reason it stays. The README's "Library API" section
lists exactly the names of that table, and `lparams` resolves each of them on
first use. Loading the CLI and the whole library loads none of
`dataclasses`, `inspect` or `ast`, which cost a CLI process start-up time,
and each CLI command loads only the modules it runs. The number of
`functools` caches in `src/` is pinned: a change that adds or drops one
updates the pin and says why.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import lparams

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "lparams"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(TESTS.glob("*.py"))

# functools.cache functions in src/; ROADMAP item 17 moves them into per-datum workspaces
CACHE_COUNT = 12

# public names that nothing in src/ reaches, each with the reason it stays
REACHED_FROM_OUTSIDE = {
    "tits.elem_to_dict": "the tits_products benchmark digest writes its elements with it",
}


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound_by_import(node):
    """The names an import statement binds; none for any other node or for __future__."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def _locals(fn):
    """The names a function or lambda binds: its parameters, and what its own body stores,
    imports or defines, less what it declares global or nonlocal."""
    args = fn.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg,
                             args.kwarg] if a}
    declared = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        names.update(_bound_by_import(node))
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif not isinstance(node, _FUNCS + _COMPS):
            todo.extend(ast.iter_child_nodes(node))
    return names - declared


def _unused_imports(tree):
    """The imported names no read resolves to, with Python's scoping.

    A read resolves to the innermost enclosing function, lambda or
    comprehension that binds the name, else to the module; class bodies bind
    nothing here. Defaults, decorators and annotations are read in the
    enclosing scope, and so is a comprehension's first iterable.
    """
    imports, reads = set(), set()

    def visit(node, scopes):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                owner = next((s for s, names in reversed(scopes) if node.id in names), tree)
                reads.add((owner, node.id))
            return
        imports.update((scopes[-1][0] if scopes else tree, name)
                       for name in _bound_by_import(node))
        if isinstance(node, _FUNCS):
            for child in [node.args, *getattr(node, "decorator_list", ()),
                          getattr(node, "returns", None)]:
                if child is not None:
                    visit(child, scopes)
            inner = (*scopes, (node, _locals(node)))
            for child in node.body if isinstance(node.body, list) else [node.body]:
                visit(child, inner)
        elif isinstance(node, _COMPS):
            first = node.generators[0]
            visit(first.iter, scopes)
            targets = {n.id for g in node.generators for n in ast.walk(g.target)
                       if isinstance(n, ast.Name)}
            inner = (*scopes, (node, targets))
            for child in [*ast.iter_child_nodes(node), first.target, *first.ifs]:
                if child is not first:
                    visit(child, inner)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, scopes)

    visit(tree, ())
    return sorted(name for scope, name in imports if (scope, name) not in reads)


def _names(node):
    return [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]


def _exports():
    """(module, name) for every name in the export table of `__init__`."""
    return {(mod, name) for mod, names in lparams._EXPORTS.items() for name in names}


def _run_python(code, *args):
    """Run `code` in a fresh interpreter that imports lparams from src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


# loads the CLI and then every module of the package, as the weilrep command does
LOAD_ALL = ("import lparams.cli\n"
            "from lparams import *\n"
            "import sys\n"
            "missing = [m for m in {modules} if 'lparams.' + m not in sys.modules]\n"
            "if missing:\n"
            "    sys.exit(f'not loaded: {{missing}}')\n").format(modules=[p.stem for p in MODULES])


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("source, unused", [
    # a parameter, a local, a lambda parameter or a comprehension target of the same name
    ("from m import x\ndef f(x):\n    return x\n", ["x"]),
    ("from m import x\ndef f():\n    x = 1\n    return x\n", ["x"]),
    ("from m import x\nf = lambda x: x\n", ["x"]),
    ("from m import x\ny = [x for x in ()]\n", ["x"]),
    # reads that do reach the import
    ("from m import x\ndef f(y=x):\n    return y\n", []),
    ("from m import x\ndef f():\n    global x\n    x = x + 1\n", []),
    ("from m import x\ndef f():\n    return [x for _ in ()]\n", []),
    ("from m import x\ny = [z for z in x]\n", []),
    ("from m import x\nclass C:\n    def f(self, a: x):\n        return a\n", []),
    ("def f():\n    from m import x\n    def g():\n        return x\n    return g\n", []),
    ("def f():\n    from m import x\n\ndef g():\n    return x\n", ["x"]),
    ("from __future__ import annotations\nimport a.b\nc = a.b\n", []),
], ids=["parameter", "local", "lambda", "comprehension", "default", "global", "free-in-comp",
        "first-iterable", "annotation", "closure", "other-function", "dotted"])
def test_unused_import_check_resolves_scopes(source, unused):
    assert _unused_imports(ast.parse(source)) == unused


def test_functools_cache_count_is_pinned():
    caches = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")
                    if name in ("cache", "lru_cache"):
                        caches.append(f"{path.stem}.{node.name}")
    assert len(caches) == CACHE_COUNT, sorted(caches)


def test_every_public_name_is_reached():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    used = Counter(name for tree in trees.values() for name in _names(tree))
    exported = _exports()
    defined, unreached = set(), []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defined.add(f"{mod}.{node.name}")
            elsewhere = used[node.name] - _names(node).count(node.name)
            if not (elsewhere or (mod, node.name) in exported
                    or f"{mod}.{node.name}" in REACHED_FROM_OUTSIDE):
                unreached.append(f"{mod}.{node.name}")
    assert not unreached, f"public names nothing reaches: {unreached}"
    assert set(REACHED_FROM_OUTSIDE) <= defined


def test_cli_import_loads_no_dataclasses_inspect_or_ast():
    # modules already loaded before the import (site may preload some) do not count
    code = ("import sys; before = set(sys.modules)\n" + LOAD_ALL
            + "print(*sorted(set(sys.modules) - before))")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "lparams.cli" in added
    assert not added & {"dataclasses", "inspect", "ast"}, sorted(added)


def test_cli_import_builds_no_forward_refs():
    # a NamedTuple class with string annotations compiles one typing.ForwardRef per field
    code = ("import typing\n"
            "made = []\n"
            "init = typing.ForwardRef.__init__\n"
            "typing.ForwardRef.__init__ = lambda self, *a, **k: made.append(a) or init(self, *a, **k)\n"
            + LOAD_ALL + "print(len(made))\n")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_readme_lists_the_library_api():
    section = (ROOT / "README.md").read_text().split("\n## Library API\n", 1)[1]
    listed = set()
    for bullet in section.split("\n## ", 1)[0].split("\n- ")[1:]:
        mod, *names = re.findall(r"`([^`]+)`", bullet)
        listed.update((mod, name) for name in names)
    assert listed == _exports()


# runs one CLI command in process, then prints the lparams modules it loaded as the last line
RUN_COMMAND = """
import sys
import lparams.cli
try:
    code = lparams.cli.main(sys.argv[1:])
except SystemExit as exc:  # --help, or argparse refusing the command line
    code = exc.code
print(code, *sorted(m for m in sys.modules if m.startswith("lparams.")))
"""

PARAM = str(TESTS / "data" / "sl2r_ds.param")
ALL_MODULES = {"cli", *(p.stem for p in MODULES)}


@pytest.mark.parametrize("argv, code, loaded, not_loaded", [
    pytest.param(["--help"], 0, {"cli", "errors"}, ALL_MODULES - {"cli", "errors"}, id="help"),
    pytest.param(["check-tits", "--no-such-flag"], 2, {"cli", "errors"},
                 ALL_MODULES - {"cli", "errors"}, id="usage-error"),
    pytest.param(["check-tits", "A2 sc"], 0, {"tits", "weyl"}, {"lparam", "torus", "weilrep"},
                 id="check-tits"),
    *(pytest.param([cmd, "--param", PARAM], 0, {"lparam"}, {"weilrep"}, id=cmd)
      for cmd in ["verify-theorem", "validate-param", "invariants", "contragredient"]),
    pytest.param(["fuzz", "--group", "A2 sc", "--count", "2"], 0, {"lparam"}, {"weilrep"},
                 id="fuzz"),
    # a malformed --param is a usage error: it exits 2 before any library module compiles
    *(pytest.param([cmd, "--param", '{"group": "A2 sc", "inner_cl'], 2, {"cli", "errors"},
                   ALL_MODULES - {"cli", "errors"}, id=f"{cmd}-malformed")
      for cmd in ["verify-theorem", "validate-param", "invariants", "contragredient"]),
    pytest.param(["weilrep", "chi(1/2,0)+I(2,-1/3+i)"], 0, ALL_MODULES, set(), id="weilrep"),
    # a malformed literal exits 2 having compiled only the parser's modules
    pytest.param(["weilrep", "chi(1/2,0"], 2, {"cli", "errors", "weilrep", "gaussian"},
                 ALL_MODULES - {"cli", "errors", "weilrep", "gaussian"}, id="weilrep-malformed"),
])
def test_each_command_loads_only_the_modules_it_runs(argv, code, loaded, not_loaded):
    proc = _run_python(RUN_COMMAND, *argv)
    assert proc.returncode == 0, proc.stderr
    got_code, *modules = proc.stdout.splitlines()[-1].split()
    modules = {m.removeprefix("lparams.") for m in modules}
    assert int(got_code) == code, proc.stdout + proc.stderr
    assert loaded <= modules, sorted(modules)
    assert not modules & not_loaded, sorted(modules)


def test_bare_import_loads_no_submodule():
    proc = _run_python("import sys, lparams\n"
                       "print(*sorted(m for m in sys.modules if m.startswith('lparams.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_every_export_is_the_object_of_its_module():
    assert sorted(lparams.__all__) == sorted(name for _, name in _exports())
    for mod, name in _exports():
        assert getattr(lparams, name) is getattr(importlib.import_module(f"lparams.{mod}"), name)


def test_dir_lists_the_exports_and_unknown_names_raise():
    assert set(lparams.__all__) <= set(dir(lparams))
    with pytest.raises(AttributeError, match="no_such_name"):
        lparams.no_such_name
    with pytest.raises(ImportError):
        exec("from lparams import no_such_name", {})


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from lparams import *", ns)
    assert set(ns) - {"__builtins__"} == set(lparams.__all__)
