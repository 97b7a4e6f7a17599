"""Live (pre-copy) migration: downtime, convergence, and equivalence.

A writing workload (the ping-pong pair with ballast and a dirty rate)
is moved between blades with iterative pre-copy: rounds ship memory
while the pods keep running, then the normal stop-and-copy pass moves
only the residual.  The battery checks the paper-style claims:

* the outage is a small fraction of the whole migration (≥5× smaller),
* round 1 ships the full resident set, later rounds only dirty bytes,
* the round cap and the non-convergence guard both bail out cleanly
  and still migrate correctly via stop-and-copy,
* ``live=False`` behaves exactly like the pre-existing migration path,
* N→M mappings and checksummed application state survive live mode.
"""

import pytest

from repro.cluster import Cluster, FaultInjector, FaultPlan, FaultSpec
from repro.core import Manager, migrate
from repro.vos import DEAD

from .testapps import expected_sums, final_sums, launch_pingpong

ROUNDS = 9000
BALLAST = 256_000_000
DIRTY_RATE = 40_000_000


@pytest.fixture
def world():
    cluster = Cluster.build(4, seed=42)
    manager = Manager.deploy(cluster)
    return cluster, manager


def _kick_migrate(cluster, manager, holder, at=0.15, **kw):
    moves = [("blade0", "pp-srv", "blade2"), ("blade1", "pp-cli", "blade3")]
    cluster.engine.schedule(at, lambda: holder.update(
        mig=migrate(manager, moves, **kw)))


def _finished(holder):
    return holder["mig"].finished.result


def test_live_downtime_small_fraction_of_total(world):
    cluster, manager = world
    launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST,
                    dirty_rate=DIRTY_RATE)
    holder = {}
    _kick_migrate(cluster, manager, holder, live=True)
    cluster.engine.run(until=300.0)
    mig = _finished(holder)
    assert mig.ok, (mig.checkpoint.errors, mig.restart.errors)
    assert final_sums(cluster) == expected_sums(ROUNDS)
    assert mig.live and mig.rounds
    # the acceptance criterion: the app was down for at most a fifth of
    # the time the migration took end to end
    assert mig.downtime * 5 <= mig.total_time, (mig.downtime, mig.total_time)
    assert mig.downtime < mig.duration < mig.total_time
    # round 1 moved both full resident sets; later rounds only dirty bytes
    assert mig.rounds[0]["shipped_bytes"] >= 2 * BALLAST
    for rnd in mig.rounds[1:]:
        assert rnd["shipped_bytes"] < mig.rounds[0]["shipped_bytes"]
    assert mig.precopy_bytes == sum(r["shipped_bytes"] for r in mig.rounds)
    # pods ended up on the destinations, and only there
    assert "pp-srv" in cluster.node(2).kernel.pods
    assert "pp-cli" in cluster.node(3).kernel.pods
    assert "pp-srv" not in cluster.node(0).kernel.pods
    assert "pp-cli" not in cluster.node(1).kernel.pods


def test_non_writing_workload_converges_in_one_round(world):
    """Without a dirty rate the working set is clean after round 1, so
    pre-copy converges immediately and the residual is tiny."""
    cluster, manager = world
    launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST)
    holder = {}
    _kick_migrate(cluster, manager, holder, live=True)
    cluster.engine.run(until=300.0)
    mig = _finished(holder)
    assert mig.ok
    assert final_sums(cluster) == expected_sums(ROUNDS)
    assert len(mig.rounds) == 1 and mig.bailout is None
    assert mig.rounds[0]["dirty_bytes"] <= 1_000_000


def test_round_cap_bailout_still_migrates(world):
    """A cap of 1 cannot converge under a writing workload: the bailout
    is recorded and stop-and-copy finishes the job correctly."""
    cluster, manager = world
    launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST,
                    dirty_rate=DIRTY_RATE)
    holder = {}
    _kick_migrate(cluster, manager, holder, live=True, precopy_rounds=1,
                  dirty_threshold=1)
    cluster.engine.run(until=300.0)
    mig = _finished(holder)
    assert mig.ok, (mig.checkpoint.errors, mig.restart.errors)
    assert mig.bailout == "round-cap"
    assert len(mig.rounds) == 1
    assert final_sums(cluster) == expected_sums(ROUNDS)


def test_non_converging_workload_bails_out(world):
    """Writes faster than the fabric drains: after round 2 the dirty set
    regrew past what the round shipped, so pre-copy gives up early
    instead of burning bandwidth forever."""
    cluster, manager = world
    launch_pingpong(cluster, rounds=9000, ballast=BALLAST,
                    dirty_rate=400_000_000, compute=2_000_000)
    holder = {}
    _kick_migrate(cluster, manager, holder, live=True, precopy_rounds=8)
    cluster.engine.run(until=300.0)
    mig = _finished(holder)
    assert mig.ok, (mig.checkpoint.errors, mig.restart.errors)
    assert mig.bailout == "non-converging"
    assert len(mig.rounds) < 8
    assert final_sums(cluster) == expected_sums(9000)


def test_live_false_matches_plain_migration_exactly():
    """``live=False`` must be the pre-existing migration, bit for bit:
    same checkpoint timing, same image bytes, same final state."""
    results = []
    for kw in ({}, {"live": False, "precopy_rounds": 8}):
        cluster = Cluster.build(4, seed=42)
        manager = Manager.deploy(cluster)
        launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST,
                        dirty_rate=DIRTY_RATE)
        holder = {}
        _kick_migrate(cluster, manager, holder, **kw)
        cluster.engine.run(until=300.0)
        mig = _finished(holder)
        assert mig.ok
        assert final_sums(cluster) == expected_sums(ROUNDS)
        results.append(mig)
    a, b = results
    assert not a.live and not b.live and not a.rounds and not b.rounds
    assert a.checkpoint.pods == b.checkpoint.pods
    assert a.checkpoint.t_start == b.checkpoint.t_start
    assert a.restart.t_end == b.restart.t_end
    # without pre-copy the whole stop-and-copy window is the downtime
    assert a.downtime == a.duration == a.total_time


def test_live_n_to_m_consolidation(world):
    """N=2 source nodes onto M=1 destination, live: pods remain the
    unit of migration and state survives."""
    cluster, manager = world
    srv, cli = launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST,
                               dirty_rate=DIRTY_RATE)
    holder = {}
    moves = [("blade0", "pp-srv", "blade2"), ("blade1", "pp-cli", "blade2")]
    cluster.engine.schedule(0.15, lambda: holder.update(
        mig=migrate(manager, moves, live=True)))
    cluster.engine.run(until=300.0)
    mig = _finished(holder)
    assert mig.ok, (mig.checkpoint.errors, mig.restart.errors)
    pods = cluster.node(2).kernel.pods
    assert "pp-srv" in pods and "pp-cli" in pods
    assert final_sums(cluster) == expected_sums(ROUNDS)
    for proc in (srv, cli):
        assert proc.state == DEAD


def test_manager_crash_reaps_the_precopy_round(world):
    """Fail-stop covers pre-copy: a Manager that dies at a round's
    crossing takes its per-pod round tasks with it, so no further
    ``precopy`` command reaches any Agent."""
    cluster, manager = world
    launch_pingpong(cluster, rounds=ROUNDS, ballast=BALLAST,
                    dirty_rate=DIRTY_RATE)
    # two pods: crossings 1-2 are round 1, the third opens round 2
    injector = FaultInjector(cluster, FaultPlan(seed=0, faults=[FaultSpec(
        kind="crash_manager", phase="manager.precopy_round", after=2)])).install()
    holder = {}
    _kick_migrate(cluster, manager, holder, live=True)
    cluster.engine.run(until=60.0)
    assert manager.crashed
    crossings = [ev[1] for ev in injector.trace]
    crash = next(i for i, ev in enumerate(injector.trace)
                 if "crash_manager" in ev[4])
    assert crossings[:crash].count("agent.precopy") == 2   # round 1 ran
    assert "agent.precopy" not in crossings[crash:], \
        "a dead Manager kept driving pre-copy rounds"
    assert [t.name for t in cluster.engine.live_tasks()
            if t.name.startswith("precopy-")] == []
