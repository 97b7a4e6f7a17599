"""No megafunctions in ``src/repro/core`` and ``src/repro/cluster``.

ROADMAP item 2: every feature used to land as another branch through the
same few hundred-line functions (and every chaos battery as another
300-line runner).  This test keeps them from growing back: no function
or method under ``src/repro/core/*.py`` or ``src/repro/cluster/*.py``
may exceed ``BUDGET`` lines (``def`` line to last line, docstring
included).  The exemption list may only shrink.
"""

import ast
from pathlib import Path

import repro.cluster
import repro.core

BUDGET = 120

#: package -> "<file>:<qualified name>" still over budget: nothing is.
EXEMPT = {repro.core: set(), repro.cluster: set()}


def _functions(tree, prefix=""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node.end_lineno - node.lineno + 1
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")


def _check(package):
    over, exempt = set(), EXEMPT[package]
    for path in sorted(Path(package.__file__).parent.glob("*.py")):
        for name, lines in _functions(ast.parse(path.read_text())):
            if lines > BUDGET:
                over.add(f"{path.name}:{name}")
    assert over - exempt == set(), (
        f"functions over {BUDGET} lines: {sorted(over - exempt)} — split "
        "them; do not add exemptions")
    assert exempt - over == set(), (
        f"{sorted(exempt - over)} now fit the budget: drop the exemption")


def test_no_function_in_core_exceeds_the_budget():
    _check(repro.core)


def test_no_function_in_cluster_exceeds_the_budget():
    _check(repro.cluster)
