"""Manager-failover chaos: kill the Manager at every ledger crossing.

Each episode (see :func:`repro.cluster.chaos.run_failover_chaos`) runs a
checksummed distributed application, drives a coordinated checkpoint,
and fires ``crash_manager`` exactly at one ``manager.ledger.*`` phase
crossing — between "this phase's record is durable" and "the next
phase's actions run".  A supervisor deploys a replica Manager that scans
the ledger, claims the orphaned op, and resumes or aborts it; the
episode audits F1–F7 (ledger terminal, no partial image, pods resumed,
continuity op succeeds, checksums correct, orphan resolved, nothing
appended by the dead Manager).

The matrix is every :data:`repro.cluster.faults.MANAGER_PHASES` crash
point × ``N_SEEDS`` seeds.  ``CHAOS_SEED_BUCKET=k/n`` (CI matrix)
restricts a worker to the seeds with ``seed % n == k``.
"""

import os

import pytest

from repro.cluster.chaos import run_failover_chaos
from repro.cluster.faults import MANAGER_PHASES

N_SEEDS = 20
SEEDS = list(range(N_SEEDS))
_bucket = os.environ.get("CHAOS_SEED_BUCKET")
if _bucket:
    _k, _n = (int(x) for x in _bucket.split("/"))
    SEEDS = [s for s in SEEDS if s % _n == _k]


@pytest.mark.parametrize("crash_phase", MANAGER_PHASES)
def test_failover_matrix(crash_phase):
    """Every seed × this crash point: the replacement Manager resumes or
    cleanly aborts the in-flight op and the world stays consistent."""
    for seed in SEEDS:
        report = run_failover_chaos(seed, crash_phase)
        assert report.manager_crashed, (
            f"seed {seed} @ {crash_phase}: crash_manager never fired")
        assert report.violations == [], (
            f"seed {seed} @ {crash_phase} violated invariants (replay with "
            f"run_failover_chaos({seed}, {crash_phase!r})):\n"
            + "\n".join(report.violations)
            + f"\nops: {report.ops}\ntakeover: {report.takeover}"
            + f"\nfired: {report.fired}")


@pytest.mark.skipif(bool(_bucket), reason="outcome audit needs the full seed set")
def test_matrix_covers_both_recovery_modes():
    """The matrix must exercise both takeover outcomes: ops committed by
    the replica (crash after the continue record) and ops aborted
    through the tombstone-GC path (crash before it) — a matrix that
    only ever aborts proves half the design."""
    outcomes = set()
    for crash_phase in MANAGER_PHASES:
        report = run_failover_chaos(0, crash_phase)
        outcomes.update(o for (_op, _ph, o) in (report.takeover or []))
    assert "resumed" in outcomes, f"no cell resumed an orphan: {outcomes}"
    assert "aborted" in outcomes, f"no cell aborted an orphan: {outcomes}"


@pytest.mark.parametrize("crash_phase", ["manager.ledger.continue",
                                         "manager.ledger.meta",
                                         "manager.ledger.abort"])
def test_failover_deterministic(crash_phase):
    """Same (seed, crash point) → byte-identical fault trace and span
    dump across the crash, takeover and continuity op."""
    for seed in (0, 7):
        a = run_failover_chaos(seed, crash_phase, trace_spans=True)
        b = run_failover_chaos(seed, crash_phase, trace_spans=True)
        assert a.trace == b.trace, f"seed {seed}: fault trace diverged"
        assert a.fired == b.fired, f"seed {seed}: fired faults diverged"
        assert a.span_dump == b.span_dump, f"seed {seed}: span dump diverged"
        assert a.takeover == b.takeover, f"seed {seed}: takeover diverged"
