"""Import hygiene and the reachable surface of the package.

Every module of the package and every test file uses each name it imports.
Every public top-level def or class of the package is reached: referenced
elsewhere in `src/`, re-exported through the export table of `__init__`, or
listed below with the reason it stays. The README's "Library API" section
lists exactly the names of that table, and `lparams` resolves each of them on
first use. Loading the CLI and the whole library loads none of
`dataclasses`, `inspect` or `ast`, which cost a CLI process start-up time,
and each CLI command loads only the modules it runs.
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

# public names that nothing in src/ reaches, each with the reason it stays
REACHED_FROM_OUTSIDE = {
    "tits.elem_to_dict": "the tits_products benchmark digest writes its elements with it",
}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


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
    unused = sorted(set(_imported_names(tree)) - set(_names(tree)))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


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
