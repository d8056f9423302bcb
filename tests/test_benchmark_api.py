"""The benchmark's calls into the package still resolve.

perfbench/ drives the package from outside: a name it reaches that the
package no longer has fails only when the benchmark runs. These tests
read its sources with `ast` (they import and change nothing there) and
check every package name they use.
"""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = ("workloads.py", "tracer.py", "test_perfbench.py")


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"), filename=name)


def _package_names(tree):
    """(module, name) for every `<module>.<name>` access on a module
    bound by `from eps_planner import ...`, every name taken by
    `from eps_planner.<module> import ...`, and every
    ("eps_planner.<module>", name) pair of string constants."""
    modules, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "eps_planner":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"eps_planner.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eps_planner."):
            uses.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            first, second = node.elts
            if (
                isinstance(first, ast.Constant) and isinstance(second, ast.Constant)
                and isinstance(first.value, str) and first.value.startswith("eps_planner.")
                and isinstance(second.value, str)
            ):
                uses.add((first.value, second.value))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            uses.add((modules[node.value.id], node.attr))
    return uses


@pytest.mark.parametrize("source", SOURCES)
def test_every_package_name_the_benchmark_uses_exists(source):
    missing = sorted(
        f"{module}.{name}"
        for module, name in _package_names(_tree(source))
        if not hasattr(importlib.import_module(module), name)
    )
    assert missing == []


def test_the_scan_sees_the_benchmark_calls():
    # a scan that found nothing would pass vacuously
    uses = _package_names(_tree("workloads.py"))
    assert ("eps_planner.sensitivity", "dtheta_deps") in uses
    assert ("eps_planner.chooser", "plan") in uses
    assert ("eps_planner.model", "validate_dataset") in _package_names(_tree("tracer.py"))
