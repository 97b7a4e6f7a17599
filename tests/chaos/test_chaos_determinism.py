"""Chaos episodes are reproducible: same seed, same event trace.

This is the property that makes a red chaos run debuggable — the
failing seed replays to the identical fault schedule and the identical
sequence of phase crossings, timestamps included.
"""

import pytest

from repro.cluster import chaos
from repro.cluster.faults import CHECKPOINT_PHASES, FaultPlan

pytestmark = pytest.mark.serial


def test_same_seed_same_plan():
    a = FaultPlan.random(40, ["blade0", "blade1"])
    b = FaultPlan.random(40, ["blade0", "blade1"])
    assert a.describe() == b.describe()
    for spec in a.faults:
        assert spec.phase in CHECKPOINT_PHASES or spec.kind == "truncate_image"


def test_same_seed_identical_trace():
    # seed 7 fires several faults (see the invariants suite); two runs
    # must agree event for event, timestamps included
    a = chaos.run("serial", 7)
    b = chaos.run("serial", 7)
    assert a.trace == b.trace
    assert a.fired == b.fired
    assert a.ops == b.ops
    assert a.violations == b.violations == []


def test_different_seeds_diverge():
    a = chaos.run("serial", 5)
    b = chaos.run("serial", 6)
    assert (a.plan, a.trace) != (b.plan, b.trace)
