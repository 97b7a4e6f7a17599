"""Seeded chaos schedules hold the protocol's safety invariants.

Each seed drives one full ``serial`` episode (see repro.cluster.chaos): a
checksummed distributed application, a sequence of coordinated
checkpoints, a seeded random fault schedule fired at protocol phase
boundaries, and — when a blade crashes — a recovery from the last good
checkpoint.  The episode is audited against every applicable invariant
of ``chaos.INVARIANTS`` — a failed operation leaves every surviving pod
running, no partial image is ever visible as restartable, the last good
checkpoint is never corrupted, the single synchronization point is
preserved.
"""

import pytest

from repro.cluster import chaos

from .battery import clean_episode, needs_full_seed_set, seeds

pytestmark = pytest.mark.serial

N_SEEDS = 30
SEEDS = seeds(N_SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_hold(seed):
    clean_episode("serial", seed)


@needs_full_seed_set
def test_seed_set_covers_fault_space():
    """The fixed seed matrix exercises every fault kind and at least one
    crash-recovery episode — otherwise green runs prove too little."""
    kinds = set()
    recoveries = 0
    clean_finishes = 0
    for seed in SEEDS:
        report = chaos.run("serial", seed)
        kinds.update(f[1] for f in report.fired)
        recoveries += sum(1 for kind, _id, _st in report.ops if kind == "recover")
        clean_finishes += int(report.app_finished)
    assert kinds == {"crash_node", "link_drop", "link_delay", "san_stall",
                     "truncate_image", "hang"}, f"unexercised kinds: {kinds}"
    assert recoveries >= 1, "no seed exercised crash recovery"
    assert clean_finishes >= N_SEEDS // 2, "too few episodes ran to completion"
