"""Seeded chaos against the content-addressed checkpoint store.

Each seed drives one ``cas`` episode (see repro.cluster.chaos): a
checksummed ping-pong pair checkpointed repeatedly into the CAS at fixed
per-pod paths — every op extends or replaces the same generation chain —
with the delta filter and the zero-stall path mixed in, while a seeded
fault plan fires at the checkpoint boundaries plus the CAS crossings
(chunk write, index commit, tombstone GC).  The episode is audited
against every applicable invariant: a failed op leaves every surviving
pod running, a published recipe is never partial (it loads and
reassembles), the restored chain is byte-identical to a committed prefix
of the Agent's in-memory ground truth, the sync point holds, rolling
checksums are exact whenever the application finishes, and after a final
orphan sweep the index balances exactly — no staged leftovers, no leaked
chunk, no dangling ref.
"""

import pytest

from repro.cluster import chaos
from repro.cluster.faults import CAS_PHASES, CHECKPOINT_PHASES, FaultPlan

from .battery import clean_episode, needs_full_seed_set, seeds

N_SEEDS = 16
SEEDS = seeds(N_SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_cas_invariants_hold(seed):
    clean_episode("cas", seed)


def test_same_seed_identical_episode():
    a = chaos.run("cas", 3, trace_spans=True)
    b = chaos.run("cas", 3, trace_spans=True)
    assert a.trace == b.trace
    assert a.fired == b.fired
    assert a.ops == b.ops
    assert a.span_dump == b.span_dump
    assert a.outcome["store_stats"] == b.outcome["store_stats"]
    assert a.violations == b.violations == []


def test_cas_plans_draw_from_cas_phases():
    phases = chaos.SCENARIOS["cas"].phases
    assert phases == CHECKPOINT_PHASES + CAS_PHASES
    plan = FaultPlan.random(11, ["blade0", "blade1"], phases=phases)
    assert plan.faults, "empty fault plan"
    for spec in plan.faults:
        assert spec.phase in phases


@needs_full_seed_set
def test_seed_set_exercises_cas_crossings():
    """The fixed seed matrix lands at least one fault on a CAS-only
    crossing, commits at least one op, fails at least one op, and sees
    the store reclaim bytes — so the battery covers stage/publish,
    rollback, and the GC protocol."""
    cas_hits = commits = failures = reclaims = 0
    for seed in SEEDS:
        report = chaos.run("cas", seed)
        if any(f[2] in CAS_PHASES for f in report.fired):
            cas_hits += 1
        commits += sum(1 for op in report.ops if op[2] == "ok")
        failures += sum(1 for op in report.ops if op[2] != "ok")
        if report.outcome["store_stats"].get("gc_reclaimed_bytes", 0) > 0:
            reclaims += 1
    assert cas_hits >= 1, "no seed faulted a CAS crossing"
    assert commits >= 1, "no seed committed a checkpoint"
    assert failures >= 1, "no seed failed a checkpoint"
    assert reclaims >= 1, "no seed exercised the GC reclaim path"
