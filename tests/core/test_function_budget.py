"""No megafunctions in ``src/repro``'s packages, ``net``, ``obs`` and
``vos`` aside.

ROADMAP item 2: every feature used to land as another branch through the
same few hundred-line functions (and every chaos battery as another
300-line runner).  This test keeps them from growing back: no function
or method under a covered package's ``*.py`` may exceed ``BUDGET`` lines
(``def`` line to last line, docstring included).  The exemption list may
only shrink.  ``net``, ``obs`` and ``vos`` stay out until their largest
functions (the socket syscall table, the campaign assembler, the
process stepper) are split.
"""

import ast
from pathlib import Path

import pytest

import repro

BUDGET = 120
ROOT = Path(repro.__file__).parent

#: covered package -> "<file>:<qualified name>" still over budget: nothing is.
EXEMPT = {name: set() for name in (
    "apps", "baselines", "cluster", "core", "fleet", "middleware", "pod",
    "sim", "storage")}


def _functions(tree, prefix=""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node.end_lineno - node.lineno + 1
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")


def _check(name):
    over, exempt = set(), EXEMPT[name]
    for path in sorted((ROOT / name).glob("*.py")):
        for func, lines in _functions(ast.parse(path.read_text())):
            if lines > BUDGET:
                over.add(f"{path.name}:{func}")
    assert over - exempt == set(), (
        f"functions over {BUDGET} lines: {sorted(over - exempt)} — split "
        "them; do not add exemptions")
    assert exempt - over == set(), (
        f"{sorted(exempt - over)} now fit the budget: drop the exemption")


def test_no_function_in_core_exceeds_the_budget():
    _check("core")


def test_no_function_in_cluster_exceeds_the_budget():
    _check("cluster")


@pytest.mark.parametrize("name", sorted(set(EXEMPT) - {"core", "cluster"}))
def test_no_function_in_the_other_packages_exceeds_the_budget(name):
    _check(name)
