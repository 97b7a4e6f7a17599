"""A build budget, so restart looks programs up instead of deriving them.

Counted, not timed, like ``tests/net/test_segment_budget.py``: every
builder function in the registry is wrapped to note the (name, params) it
was run for, and a 16-pod BT/NAS world is checkpointed, destroyed and
restarted (Fig. 6(b), ``harness.run_fig6b_cell``).  That is 16 daemons and
16 endpoints spawned and all 32 restored — 64 ``build_program`` calls, and
before the program table 64 runs of a builder (the middleware code
generator, 1–2 ms each).  Each distinct (name, params) may run its
builder once; a second world in the same interpreter runs none.
"""

import sys
from collections import Counter

from repro.harness import run_fig6b_cell

program_module = sys.modules["repro.vos.program"]


def test_checkpoint_destroy_restart_builds_each_program_once(monkeypatch):
    runs = Counter()

    def counted(name, builder_fn):
        def builder(b, **params):
            runs[name, program_module._freeze(params)] += 1
            builder_fn(b, **params)
        return builder

    # nothing remembered from the tests before this one; the wrappers are
    # new builder functions, so they share no entry with the real ones
    monkeypatch.setattr(program_module, "_PROGRAMS", {})
    for name, builder_fn in list(program_module._REGISTRY.items()):
        monkeypatch.setitem(program_module._REGISTRY, name, counted(name, builder_fn))

    cell = run_fig6b_cell("BT/NAS", 16, scale=0.2)
    assert cell.restart_time > 0
    assert Counter(name for name, _params in runs) == {"middleware.daemon": 16, "apps.btnas": 16}
    assert set(runs.values()) == {1}, [key[0] for key, n in runs.items() if n > 1]

    cold = sum(runs.values())
    run_fig6b_cell("BT/NAS", 16, scale=0.2)
    assert sum(runs.values()) == cold
