"""Every module-level name of the package has a caller.

Each top-level function, class and assigned name of a module of
`src/eps_planner/` (not `__init__.py`) must be referenced again: in its
own module, in another module of the package, in the benchmark's
`perfbench/*.py`, in `pyproject.toml` (whose entry point names
`cli:main`), or be exported in `eps_planner.__all__`. Tests do not count
as callers: a name only tests reach is one nothing else needs.
"""
import ast
import re
from pathlib import Path

import pytest

import eps_planner

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eps_planner"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def defined_names(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and assigned names, in order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, as a name, an attribute or an imported name.
    An augmented assignment such as `COUNT += 1` reads its target."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            refs.add(node.target.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreached(module: Path, package: list[Path], outside: list[str], exported) -> list[str]:
    """The names `module` defines that no caller reaches."""
    own = ast.parse(module.read_text(encoding="utf-8"))
    reached = set(exported)
    for other in package:
        if other != module:
            reached |= referenced_names(ast.parse(other.read_text(encoding="utf-8")))
    reached |= referenced_names(own)
    return [
        name for name in defined_names(own)
        if name not in reached and not any(re.search(rf"\b{name}\b", text) for text in outside)
    ]


def test_guard_sees_an_unreached_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "A = 1\nB = A\nN = 0\n\ndef f():\n    global N\n    N += 1\n    return g()\n\n"
        "def g():\n    pass\n\nclass C:\n    pass\n"
    )
    other = tmp_path / "other.py"
    other.write_text("from .mod import f\n")
    assert unreached(mod, [mod, other], [], ()) == ["B", "C"]
    assert unreached(mod, [mod, other], ["run: mod.B"], ("C",)) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_module_level_name_has_a_caller(module):
    outside = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    outside.append((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert unreached(module, sorted(PACKAGE.glob("*.py")), outside, eps_planner.__all__) == []
