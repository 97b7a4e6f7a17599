"""Seeded chaos inside live-migration pre-copy rounds.

Each seed drives one ``migration`` episode (see repro.cluster.chaos): a
checksummed ping-pong pair with a writing working set, a live migration
of both pods to fresh blades, and a seeded fault schedule fired at
pre-copy phase boundaries.  The episode is audited against every
applicable invariant — above all ``exactly-one-copy``: each pod lives on
the destination when the migration committed, still runs on the source
when it aborted (never both, never zero on surviving blades) — and the
application's rolling checksums are exact whenever it finishes.
"""

import pytest

from repro.cluster import chaos
from repro.cluster.faults import PRECOPY_PHASES, FaultPlan

from .battery import clean_episode, needs_full_seed_set, seeds

N_SEEDS = 24
SEEDS = seeds(N_SEEDS)
KINDS = chaos.SCENARIOS["migration"].kinds


@pytest.mark.parametrize("seed", SEEDS)
def test_migration_invariants_hold(seed):
    clean_episode("migration", seed)


def test_same_seed_identical_episode():
    a = chaos.run("migration", 3, trace_spans=True)
    b = chaos.run("migration", 3, trace_spans=True)
    assert a.trace == b.trace
    assert a.fired == b.fired
    assert a.outcome == b.outcome
    assert a.span_dump == b.span_dump
    assert a.violations == b.violations == []


def test_precopy_plans_draw_from_precopy_phases():
    assert chaos.SCENARIOS["migration"].phases == PRECOPY_PHASES
    plan = FaultPlan.random(11, ["blade0", "blade1"], phases=PRECOPY_PHASES,
                            kinds=KINDS)
    assert plan.faults, "empty fault plan"
    for spec in plan.faults:
        assert spec.phase in PRECOPY_PHASES
        assert spec.kind in KINDS


@needs_full_seed_set
def test_seed_set_covers_migration_fault_space():
    """The fixed seed matrix exercises every migration fault kind, at
    least one aborted migration (source kept), at least one committed
    one (destination only), and at least one multi-round pre-copy."""
    kinds = set()
    commits = aborts = multi_round = 0
    for seed in SEEDS:
        report = chaos.run("migration", seed)
        kinds.update(f[1] for f in report.fired)
        if report.outcome["migrated_ok"]:
            commits += 1
        else:
            aborts += 1
        if report.outcome["migration"][3] >= 2:
            multi_round += 1
    assert kinds == set(KINDS), f"unexercised kinds: {kinds}"
    assert commits >= 1, "no seed committed a live migration"
    assert aborts >= 1, "no seed exercised an aborted live migration"
    assert multi_round >= 1, "no seed ran more than one pre-copy round"
