"""Seeded chaos against the zero-stall (async) incremental checkpoint path.

Each seed drives one ``async`` episode (see repro.cluster.chaos): a
checksummed ping-pong pair with a writing working set, a sequence of
``async_ckpt=True`` incremental (delta-filter) checkpoints, and a seeded
fault schedule that fires both at the classic checkpoint phase
boundaries and at the async crossings (capture end, post-resume encode,
overlapped write-out).  The episode is audited against every applicable
invariant: a failed op leaves every surviving pod running, no partial
image container is ever visible as restartable, every committed
in-memory delta chain reassembles byte-identically to the Agent's
committed full base, the sync point holds, and rolling checksums are
exact whenever the application finishes.
"""

import pytest

from repro.cluster import chaos
from repro.cluster.faults import ASYNC_CKPT_PHASES, CHECKPOINT_PHASES, FaultPlan

from .battery import clean_episode, needs_full_seed_set, seeds

N_SEEDS = 16
SEEDS = seeds(N_SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_async_invariants_hold(seed):
    clean_episode("async", seed)


def test_same_seed_identical_episode():
    a = chaos.run("async", 5, trace_spans=True)
    b = chaos.run("async", 5, trace_spans=True)
    assert a.trace == b.trace
    assert a.fired == b.fired
    assert a.ops == b.ops
    assert a.span_dump == b.span_dump
    assert a.violations == b.violations == []


def test_async_plans_draw_from_async_phases():
    phases = chaos.SCENARIOS["async"].phases
    assert phases == CHECKPOINT_PHASES + ASYNC_CKPT_PHASES
    plan = FaultPlan.random(13, ["blade0", "blade1"], phases=phases)
    assert plan.faults, "empty fault plan"
    for spec in plan.faults:
        assert spec.phase in phases


@needs_full_seed_set
def test_seed_set_exercises_async_crossings():
    """The fixed seed matrix lands at least one fault on an async-only
    phase, commits at least one op, and fails at least one op — so the
    battery covers both halves of the async failure semantics."""
    async_hits = commits = failures = 0
    for seed in SEEDS:
        report = chaos.run("async", seed)
        if any(f[2] in ASYNC_CKPT_PHASES for f in report.fired):
            async_hits += 1
        commits += sum(1 for op in report.ops if op[2] == "ok")
        failures += sum(1 for op in report.ops if op[2] != "ok")
    assert async_hits >= 1, "no seed fired a fault at an async crossing"
    assert commits >= 1, "no seed committed an async checkpoint"
    assert failures >= 1, "no seed failed an async checkpoint"
