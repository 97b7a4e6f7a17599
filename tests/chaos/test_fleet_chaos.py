"""Seeded chaos at fleet-campaign wave boundaries.

Each seed drives one ``fleet`` episode (see repro.cluster.chaos): a
cluster of idle pods runs one seeded campaign — drain a blade, evacuate
two, or checkpoint the whole fleet — while a seeded fault plan fires at
the ``fleet.*`` wave crossings (blade crashes, link drops and delays,
hangs), sometimes plus a ``crash_manager`` mid-campaign that forces a
replica to claim and finish the half-done wave.  The episode is audited
against every applicable invariant: no fleet pod is lost or duplicated
(loss only when a blade it plausibly lived on crashed), a tripped
failure threshold really halts the campaign, overlapping unit attempts
never exceed ``max_inflight`` across the original run and any resumed
one, ok pods run unsuspended/unfirewalled off the evacuated set, failed
moves leave the pod home, and ledger ops and campaigns end terminal.

Determinism is this file's own oracle: the same seed must reproduce the
episode byte for byte.
"""

import pytest

from repro.cluster import chaos
from repro.cluster.faults import FLEET_PHASES, FaultPlan

from .battery import clean_episode, seeds

N_SEEDS = 24
SEEDS = seeds(N_SEEDS)
KINDS = chaos.SCENARIOS["fleet"].kinds


@pytest.mark.parametrize("seed", SEEDS)
def test_fleet_invariants_hold(seed):
    clean_episode("fleet", seed)


def test_same_seed_identical_episode():
    a = chaos.run("fleet", 18, trace_spans=True)
    b = chaos.run("fleet", 18, trace_spans=True)
    assert a.trace == b.trace
    assert a.fired == b.fired
    assert a.span_dump == b.span_dump
    # the campaign tuple, and the assembled campaign trace and its SLO
    # report, extend the determinism oracle: byte-identical across
    # same-seed runs
    assert a.outcome["assembled"] and a.outcome["slo"]
    assert a.outcome == b.outcome
    assert a.violations == b.violations == []


def test_crash_seed_assembles_one_complete_campaign_trace():
    # seed 18 crashes the Manager mid-campaign; the assembled trace must
    # still be a single tree accounting for every pod-unit the ledger
    # knows about, stitched across both incarnations
    import json

    from repro.obs.validate import validate_campaign, validate_chrome

    report = chaos.run("fleet", 18, trace_spans=True)
    got = report.outcome
    assert report.manager_crashed
    assert report.violations == []
    assert validate_campaign(got["assembled"]) == []
    header = json.loads(got["assembled"].splitlines()[0])
    assert header["coverage"]["complete"]
    assert len(header["owners"]) == 2          # both incarnations appear
    assert validate_chrome(json.loads(got["assembled_chrome"])) == []
    assert got["slo"]["ok"] and got["slo"]["schema"] == 1
    assert any(v["rule"] == "coverage" for v in got["slo"]["verdicts"])


def test_manager_crash_seed_resumes_campaign():
    # seed 18 draws a crash_manager fault that fires mid-campaign; the
    # replica must claim the orphaned campaign and finish it cleanly
    report = chaos.run("fleet", 18)
    assert report.manager_crashed
    assert report.outcome["resume"], "replica never resumed the campaign"
    assert all(status in ("ok", "partial", "halted")
               for (_cid, _phase, status) in report.outcome["resume"])
    assert report.outcome["campaign"][0] in ("ok", "partial", "halted")
    assert report.violations == []


def test_fleet_plans_draw_from_fleet_phases():
    assert chaos.SCENARIOS["fleet"].phases == FLEET_PHASES
    plan = FaultPlan.random(11, ["blade0", "blade1"], phases=FLEET_PHASES,
                            kinds=KINDS)
    assert plan.faults, "empty fault plan"
    for spec in plan.faults:
        assert spec.phase in FLEET_PHASES
        assert spec.kind in KINDS
