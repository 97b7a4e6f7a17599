"""What the differential tests share.

:func:`mutant` makes a hand mutation of a module under ``src/`` for the
tests that must catch it: the module's source with one textual edit, run
as a throw-away module (``monkeypatch`` cannot reach the middle of a
function).  :func:`first_difference` says where two observations of one
input — the frozen reference's and the live code's — part ways."""

import inspect
import sys
import types
from typing import Any, Dict, Optional


def mutant(module: types.ModuleType, old: str, new: str) -> types.ModuleType:
    """``module`` with its one occurrence of ``old`` replaced by ``new``.
    Fails when the site is gone or ambiguous, so a mutation cannot
    silently stop mutating."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, (source.count(old), old)
    twin = types.ModuleType(module.__name__ + "_mutant")
    twin.__package__ = module.__package__
    sys.modules[twin.__name__] = twin   # @dataclass looks its module up
    try:
        # its own file name: a mutant's lines are not the module's in a
        # coverage run
        exec(compile(source.replace(old, new), f"<{module.__name__} mutant>", "exec"),
             twin.__dict__)
    finally:
        del sys.modules[twin.__name__]
    return twin


def first_difference(ref: Dict[str, Any], live: Dict[str, Any]) -> Optional[str]:
    """The first thing two observations differ in, or None; inside a list
    the first differing index, inside a dict the first differing key."""
    for key, x in ref.items():
        y = live.get(key)
        if x == y:
            continue
        if isinstance(x, list) and isinstance(y, list):
            for i, (p, q) in enumerate(zip(x, y)):
                if p != q:
                    return f"{key}[{i}]: reference {p!r} != live {q!r}"
            return f"{key}: reference has {len(x)} entries, live {len(y)}"
        if isinstance(x, dict) and isinstance(y, dict):
            key, x, y = next(((f"{key}.{sub}", x[sub], y.get(sub)) for sub in x
                              if x[sub] != y.get(sub)), (key, x, y))
        return f"{key}: reference {x!r} != live {y!r}"
    return None
