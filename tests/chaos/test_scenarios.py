"""The scenario table and the invariant registry, as data.

ci.yml's chaos shards pick their batteries with ``-k <scenario>``; a
name that is not a scenario (or a scenario no test file answers to)
would silently select nothing, so both directions are pinned here.
"""

import re
from pathlib import Path

import pytest

from repro.cluster import chaos

ROOT = Path(__file__).resolve().parents[2]


def _ci_selections():
    """The ``-k`` expressions of ci.yml's chaos matrix, one per shard."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    return re.findall(r'^\s+scenario: "([^"]+)"$', ci, flags=re.M)


def test_ci_shards_select_scenarios_by_name():
    selections = _ci_selections()
    assert len(selections) == 8, selections
    named = {name for expr in selections for name in expr.split(" or ")}
    assert named <= set(chaos.SCENARIOS), named - set(chaos.SCENARIOS)
    assert named == set(chaos.SCENARIOS), (
        f"no CI shard runs {sorted(set(chaos.SCENARIOS) - named)}")


@pytest.mark.parametrize("name", sorted(chaos.SCENARIOS))
def test_every_scenario_answers_to_dash_k(name):
    """``pytest tests/chaos -k <name>`` selects the battery: through its
    test file's name, or through a module-level mark."""
    here = Path(__file__).parent
    by_file = (here / f"test_{name}_chaos.py").exists()
    by_mark = [p.name for p in here.glob("test_*.py")
               if f"pytestmark = pytest.mark.{name}\n" in p.read_text()]
    assert by_file or by_mark


def test_run_takes_only_the_scenarios_own_parameters():
    with pytest.raises(TypeError, match="n_pods"):
        chaos.run("serial", 0, n_pods=3)
    with pytest.raises(TypeError, match="crash_phase"):
        chaos.run("failover", 0)
    settable = {k for sc in chaos.SCENARIOS.values() for k in sc.defaults}
    assert settable == {"n_nodes", "n_ops", "rounds", "until", "crash_phase",
                        "n_pods"}


def test_registry_states_every_guarantee_once():
    assert len(chaos.INVARIANTS) >= 17
    for name, check in chaos.INVARIANTS.items():
        assert re.fullmatch(r"[a-z]+(-[a-z]+)*", name), name
        assert check.__doc__ and callable(check.applies), name
    # every legacy audit code of the six old runners is claimed by some
    # invariant's description (FC4 — determinism — is the callers' oracle)
    docs = " ".join(check.__doc__ for check in chaos.INVARIANTS.values())
    legacy = ([f"I{i}" for i in range(1, 5)] + [f"F{i}" for i in range(1, 8)]
              + ["M1", "M2"] + [f"FC{i}" for i in (0, 1, 2, 3, 5, 6)]
              + [f"A{i}" for i in range(1, 5)] + [f"C{i}" for i in range(1, 6)])
    missing = [code for code in legacy
               if not re.search(rf"\b{code}\b", docs)]
    assert missing == []
