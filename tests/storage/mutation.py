"""Hand mutations of ``repro.storage.cas`` for the tests that must catch
them: the module's source with one textual edit, run as a throw-away
module (``monkeypatch`` cannot reach the middle of a function)."""

import inspect
import sys
import types

from repro.storage import cas


def mutant(old: str, new: str) -> types.ModuleType:
    """``repro.storage.cas`` with its one occurrence of ``old`` replaced
    by ``new``.  Fails when the site is gone or ambiguous, so a mutation
    cannot silently stop mutating."""
    source = inspect.getsource(cas)
    assert source.count(old) == 1, (source.count(old), old)
    module = types.ModuleType("repro.storage.cas_mutant")
    module.__package__ = cas.__package__
    sys.modules[module.__name__] = module   # @dataclass looks its module up
    try:
        # its own file name: a mutant's lines are not cas.py's in a
        # coverage run
        exec(compile(source.replace(old, new), "<cas mutant>", "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module
