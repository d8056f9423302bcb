"""Every module-level name and every dataclass field of the package has
a reader.

Each top-level function, class and assigned name of a module of
`src/eps_planner/` (not `__init__.py`) must be referenced again: in its
own module, in another module of the package, in the benchmark's
`perfbench/*.py`, in `pyproject.toml` (whose entry point names
`cli:main`), or be exported in `eps_planner.__all__`. Each field of a
`@dataclass` there must be read as an attribute somewhere in the package
outside its own class body, or be named in `perfbench/*.py` or in
`tests/test_acceptance.py`, which pins fields such as `LossSpec.s_third`.
Other tests do not count as readers: a name or field only they reach is
one nothing else needs.
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
        if name not in reached and not named_outside(name, outside)
    ]


def named_outside(name: str, outside: list[str]) -> bool:
    return any(re.search(rf"\b{name}\b", text) for text in outside)


def attributes_read(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Attribute names `tree` loads, outside the subtree `skip`."""
    reads, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return reads


def is_dataclass(node: ast.stmt) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        isinstance(dec, ast.Name) and dec.id == "dataclass"
        or isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "dataclass"
        for dec in node.decorator_list
    )


def unread_fields(module: Path, package: list[Path], outside: list[str]) -> list[str]:
    """`Class.field` for each field of a dataclass in `module` that no
    reader reaches."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in package}
    unread = []
    for cls in filter(is_dataclass, trees[module].body):
        reads = set().union(*(attributes_read(tree, cls) for tree in trees.values()))
        unread += [
            f"{cls.name}.{stmt.target.id}" for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in reads and not named_outside(stmt.target.id, outside)
        ]
    return unread


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


def test_field_guard_sees_an_unread_field(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n    z: int = 0\n\n"
        "    def total(self):\n        return self.y + self.z\n\n"
        "@dataclass\nclass B:\n    w: int\n\nclass C:\n    v: int\n"
    )
    other = tmp_path / "other.py"
    other.write_text("def f(a, b):\n    b.w = a.x\n")
    assert unread_fields(mod, [mod, other], []) == ["A.y", "A.z", "B.w"]
    assert unread_fields(mod, [mod, other], ["A(1, y=2)", "print(b.w, a.z)"]) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_dataclass_field_has_a_reader(module):
    outside = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    outside.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    assert unread_fields(module, sorted(PACKAGE.glob("*.py")), outside) == []
