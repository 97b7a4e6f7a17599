"""Manager-failover chaos: kill the Manager at every ledger crossing.

Each ``failover`` episode (see repro.cluster.chaos) runs a checksummed
distributed application, drives a coordinated checkpoint, and fires
``crash_manager`` exactly at one ``manager.ledger.*`` phase crossing —
between "this phase's record is durable" and "the next phase's actions
run".  A supervisor deploys a replica Manager that scans the ledger,
claims the orphaned op, and resumes or aborts it; the episode is audited
against every applicable invariant (ledger terminal, no partial image,
pods resumed on exactly one node, continuity op succeeds, checksums
correct, orphan resolved, nothing appended by the dead Manager).

The matrix is every :data:`repro.cluster.faults.MANAGER_PHASES` crash
point × ``N_SEEDS`` seeds.
"""

import pytest

from repro.cluster import chaos
from repro.cluster.faults import MANAGER_PHASES

from .battery import clean_episode, needs_full_seed_set, seeds

N_SEEDS = 20
SEEDS = seeds(N_SEEDS)


@pytest.mark.parametrize("crash_phase", MANAGER_PHASES)
def test_failover_matrix(crash_phase):
    """Every seed × this crash point: the replacement Manager resumes or
    cleanly aborts the in-flight op and the world stays consistent."""
    for seed in SEEDS:
        report = clean_episode("failover", seed, crash_phase=crash_phase)
        assert report.manager_crashed, (
            f"seed {seed} @ {crash_phase}: crash_manager never fired")


@needs_full_seed_set
def test_matrix_covers_both_recovery_modes():
    """The matrix must exercise both takeover outcomes: ops committed by
    the replica (crash after the continue record) and ops aborted
    through the tombstone-GC path (crash before it) — a matrix that
    only ever aborts proves half the design."""
    outcomes = set()
    for crash_phase in MANAGER_PHASES:
        report = chaos.run("failover", 0, crash_phase=crash_phase)
        outcomes.update(o for (_op, _ph, o) in report.outcome["takeover"])
    assert "resumed" in outcomes, f"no cell resumed an orphan: {outcomes}"
    assert "aborted" in outcomes, f"no cell aborted an orphan: {outcomes}"


@pytest.mark.parametrize("crash_phase", ["manager.ledger.continue",
                                         "manager.ledger.meta",
                                         "manager.ledger.abort"])
def test_failover_deterministic(crash_phase):
    """Same (seed, crash point) → byte-identical fault trace and span
    dump across the crash, takeover and continuity op."""
    for seed in (0, 7):
        a = chaos.run("failover", seed, crash_phase=crash_phase, trace_spans=True)
        b = chaos.run("failover", seed, crash_phase=crash_phase, trace_spans=True)
        assert a.trace == b.trace, f"seed {seed}: fault trace diverged"
        assert a.fired == b.fired, f"seed {seed}: fired faults diverged"
        assert a.span_dump == b.span_dump, f"seed {seed}: span dump diverged"
        assert a.outcome == b.outcome, f"seed {seed}: takeover diverged"
