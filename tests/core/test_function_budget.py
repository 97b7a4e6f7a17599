"""No megafunctions in ``src/repro/core``.

ROADMAP item 2: every feature used to land as another branch through the
same few hundred-line functions.  This test keeps them from growing
back: no function or method under ``src/repro/core/*.py`` may exceed
``BUDGET`` lines (``def`` line to last line, docstring included).  The
exemption list may only shrink.
"""

import ast
from pathlib import Path

import repro.core

BUDGET = 120

#: "<file>:<qualified name>" still over budget (ROADMAP item 2 "Remains").
EXEMPT = {"agent.py:Agent._do_restart"}


def _functions(tree, prefix=""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node.end_lineno - node.lineno + 1
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")


def test_no_function_in_core_exceeds_the_budget():
    over = set()
    for path in sorted(Path(repro.core.__file__).parent.glob("*.py")):
        for name, lines in _functions(ast.parse(path.read_text())):
            if lines > BUDGET:
                over.add(f"{path.name}:{name}")
    assert over - EXEMPT == set(), (
        f"functions over {BUDGET} lines: {sorted(over - EXEMPT)} — split "
        "them; do not add exemptions")
    assert EXEMPT - over == set(), (
        f"{sorted(EXEMPT - over)} now fit the budget: drop the exemption")
