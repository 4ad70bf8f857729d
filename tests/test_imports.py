"""Import hygiene and the reachable surface of the package.

Every module of the package and every test file uses each name it imports
(`__init__.py` is left out, because its imports are the public re-exports).
Every public top-level def or class of the package is reached: referenced
elsewhere in `src/`, re-exported by `__init__`, or listed below with the
reason it stays. The README's "Library API" section lists exactly the names
`__init__` re-exports. Importing the CLI loads none of `dataclasses`,
`inspect` or `ast`, which cost a CLI process start-up time.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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
    """(module, name) for every name `__init__` imports."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


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
    code = ("import sys; before = set(sys.modules); import lparams.cli; "
            "print(*sorted(set(sys.modules) - before))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
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
            "import lparams.cli\n"
            "print(len(made))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_readme_lists_the_library_api():
    section = (ROOT / "README.md").read_text().split("\n## Library API\n", 1)[1]
    listed = set()
    for bullet in section.split("\n## ", 1)[0].split("\n- ")[1:]:
        mod, *names = re.findall(r"`([^`]+)`", bullet)
        listed.update((mod, name) for name in names)
    assert listed == _exports()
