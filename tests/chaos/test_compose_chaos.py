"""The composition battery: every feature in one episode.

Each seed drives one ``compose`` episode (see repro.cluster.chaos): the
seed draws *features* as well as faults — the sink (SAN file, Agent
memory or the content-addressed store), the delta filter, the zero-stall
path — takes checkpoints with them, live-migrates both pods mid-run,
recovers a pod lost to a blade crash, and sometimes kills the Manager at
a ledger crossing so the shared takeover supervisor has to finish the
episode; faults are drawn over the union of the checkpoint, async, CAS
and pre-copy phase domains.  Every applicable invariant of
``chaos.INVARIANTS`` is checked: this is where a guarantee that holds in
each battery alone is caught failing under composition.
"""

import pytest

from repro.cluster import chaos

from .battery import clean_episode, needs_full_seed_set, seeds

N_SEEDS = 64
SEEDS = seeds(N_SEEDS)


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"compose-{seed}")
def test_invariants_hold(seed):
    clean_episode("compose", seed)


def test_same_seed_identical_episode():
    # seed 18: the Manager dies under the migration's checkpoint
    a = chaos.run("compose", 18, trace_spans=True)
    b = chaos.run("compose", 18, trace_spans=True)
    bare = chaos.run("compose", 18)
    assert a.trace == b.trace == bare.trace
    assert a.fired == b.fired == bare.fired
    assert a.ops == b.ops == bare.ops
    assert a.outcome == b.outcome
    assert a.span_dump == b.span_dump
    assert a.violations == b.violations == []


@needs_full_seed_set
def test_seed_set_covers_the_composition_space():
    """The fixed seed matrix draws every sink with the delta filter and
    the zero-stall path both on and off, commits and aborts migrations,
    recovers from a blade crash, and has a replica finish an episode —
    otherwise green runs prove too little."""
    sinks, deltas, stalls, migrations = set(), set(), set(), set()
    recoveries = takeovers = 0
    for seed in SEEDS:
        report = chaos.run("compose", seed)
        sink, delta, zero_stall = report.outcome["features"]
        sinks.add(sink)
        deltas.add((sink, delta))
        stalls.add(zero_stall)
        migrations.add(report.outcome.get("migrated_ok"))
        recoveries += any(op == ("recover", op[1], "ok") for op in report.ops)
        takeovers += bool(report.outcome.get("takeover"))
    assert sinks == {"file", "mem", "cas"}
    assert {(s, d) for s in sinks for d in (True, False)} == deltas
    assert stalls == {True, False}
    assert {True, False} <= migrations
    assert recoveries >= 1, "no seed recovered a lost pod"
    assert takeovers >= 1, "no replica had an orphan to resolve"
