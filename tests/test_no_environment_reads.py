"""No package module reads the process environment.

A run is set by its arguments alone: the CLI by its argv and its
--config file, the library by its call. So this parses each module with
`ast` and fails on any `os.environ`, `os.environb` or `os.getenv`,
whether reached as an attribute of `os` or imported from it.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eps_planner"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = {"environ", "environb", "getenv"}


def environment_reads(source: str) -> list[str]:
    reads = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute) and node.attr in READERS
            and isinstance(node.value, ast.Name) and node.value.id == "os"
        ):
            reads.append(f"os.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [
                f"from os import {a.name} (line {node.lineno})"
                for a in node.names if a.name in READERS
            ]
    return reads


def test_guard_sees_an_environment_read():
    snippet = (
        "import os\nfrom os import getenv, path as p\n"
        "os.environ.get('A')\nos.getenv('B')\nos.environb\nos.path.join('a')\n"
    )
    assert sorted(environment_reads(snippet)) == [
        "from os import getenv (line 2)",
        "os.environ (line 3)", "os.environb (line 5)", "os.getenv (line 4)",
    ]
    assert environment_reads("import os\nos.path.dirname('a')\nenviron = {}\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []
