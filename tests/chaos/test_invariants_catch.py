"""Each invariant, caught doing its job.

A green chaos battery proves the invariants hold only if the invariants
can fail.  Every test here breaks the product one way (``monkeypatch``
only — there is no product switch for any of this), runs a battery on a
seed that reaches the broken path, and asserts that the *named*
invariant of ``chaos.INVARIANTS`` reports it.  Deleting an invariant
from the registry fails its test.
"""

from dataclasses import replace

from repro.cluster import chaos
from repro.cluster.faults import MANAGER_PHASES
from repro.core import agent, pipeline
from repro.core.agent import Agent
from repro.core.manager import Manager, OpMachine, OpResult
from repro.core.pipeline import PipelineState
from repro.core.wire import send_msg
from repro.fleet import campaign
from repro.fleet.scheduler import InflightGate
from repro.net.tcp import TcpConn
from repro.pod.pod import Pod
from repro.storage import cas, ledger
from repro.vos.process import Process

from ..mutation import mutant


def caught(report):
    """Names of the invariants an episode broke."""
    assert all(v.split(" ", 1)[0] in chaos.INVARIANTS for v in report.violations)
    return {v.split(" ", 1)[0] for v in report.violations}


def test_unmutated_seeds_are_clean():
    # the seeds below break only because of the mutation
    for scenario, seed, params in (
            ("serial", 5, {}), ("serial", 21, {}), ("cas", 8, {"n_ops": 2}),
            ("async", 4, {}), ("async", 12, {}), ("serial", 0, {}),
            ("compose", 18, {}), ("migration", 3, {}), ("fleet", 0, {}),
            ("failover", 3, {"crash_phase": "manager.ledger.meta"}),
            ("fleet", 22, {}), ("fleet", 1, {}),
            ("fleet", 18, {"trace_spans": True})):
        assert chaos.run(scenario, seed, **params).violations == []


def test_resumed_catches_an_abort_that_keeps_the_pod(monkeypatch):
    def abort_without_resume(self, ck, phase, status="aborted", notify=True):
        phase.end(status=status)
        if notify:
            yield from send_msg(self.kernel, ck.chan, ck.fd,
                                {"type": "aborted", "pod": ck.pod_id})

    monkeypatch.setattr(Agent, "_abort", abort_without_resume)
    assert "resumed" in caught(chaos.run("serial", 5))


def _publish_without_read_back(monkeypatch):
    """``_flush`` reports whatever got staged — complete or cut short by
    a ``truncate_image`` fault — as flushed."""
    flush = Agent._flush

    def blind_flush(self, image, sink, op_id=0, overlap_s=0.0):
        sink.tip_epoch = lambda pod_id: image.epoch
        return (yield from flush(self, image, sink, op_id, overlap_s))

    monkeypatch.setattr(Agent, "_flush", blind_flush)


def test_no_partial_image_catches_a_published_truncated_file(monkeypatch):
    _publish_without_read_back(monkeypatch)
    # seed 21 truncates the write of what stays the last checkpoint
    assert {"no-partial-image", "last-checkpoint-restorable"} <= caught(
        chaos.run("serial", 21))


def test_cas_audit_catches_a_published_truncated_generation(monkeypatch):
    _publish_without_read_back(monkeypatch)
    # seed 8 cuts op 2's chunk upload short; with two ops nothing
    # republishes the path afterwards
    assert {"cas-audit-clean", "no-partial-image"} <= caught(
        chaos.run("cas", 8, n_ops=2))


def test_no_partial_image_catches_a_lone_delta(monkeypatch):
    # a delta written where its base is not (the whole base rule off:
    # neither the sink's epoch nor its generation is checked) and a load
    # that accepts a chain whose head is a delta.  With only the rule off
    # the flush's read-back fails the op instead — safe, and invisible to
    # every invariant.
    init = agent._Checkpoint.__init__

    def no_base_rule(self, *args):
        init(self, *args)
        self.chain_local = bool(self.pipeline.filters)

    monkeypatch.setattr(agent._Checkpoint, "__init__", no_base_rule)
    monkeypatch.setattr(pipeline, "restorable_chain",
                        lambda chain, where: chain)
    assert {"no-partial-image", "last-checkpoint-restorable"} <= caught(
        chaos.run("async", 4))


def test_chain_reassembles_catches_an_aborted_epoch_left_in_the_chain(
        monkeypatch):
    # the abort GC forgets to roll the in-memory chain back: the aborted
    # epoch stays in it while the delta base is rolled back
    rollback = PipelineState.rollback

    def keep_the_chain(self, op_id, named=()):
        chains = {pod_id: tip.chain for pod_id, tip in self.tips().items()}
        undone = rollback(self, op_id, named)
        for pod_id in undone:
            self._pods[pod_id].tip = replace(self.tip(pod_id),
                                             chain=chains[pod_id])
        return undone

    monkeypatch.setattr(PipelineState, "rollback", keep_the_chain)
    assert "chain-reassembles" in caught(chaos.run("async", 12))


def test_last_checkpoint_restorable_catches_a_pod_keyed_rollback(monkeypatch):
    # the bug the op-keyed store fixed: any failed op's gc undoes the
    # pod's tip, whoever wrote it.  Seed 9's last op times out on one
    # blade before storing anything; its gc then takes the last *good*
    # checkpoint off the other blade
    twin = mutant(pipeline, "        if self.tip.op_id == op_id:\n",
                  "        if True:\n")
    monkeypatch.setattr(pipeline._PodGenerations, "rollback",
                        twin._PodGenerations.rollback)
    assert "last-checkpoint-restorable" in caught(chaos.run("serial", 9))


def test_last_checkpoint_restorable_catches_a_rollback_that_forgets_the_owner(
        monkeypatch):
    # a legitimate rollback that restores the image but not who wrote it
    # (async 12 rolls one back): the last good checkpoint is then no
    # longer attributable to its op
    twin = mutant(pipeline, "self._undo or _NO_GENERATION, None\n",
                  "replace(self._undo or _NO_GENERATION, op_id=None), None\n")
    monkeypatch.setattr(pipeline._PodGenerations, "undo",
                        twin._PodGenerations.undo)
    assert "last-checkpoint-restorable" in caught(chaos.run("async", 12))


def test_sync_point_catches_continue_before_the_last_meta(monkeypatch):
    init = OpMachine.__init__

    def barrier_already_open(self, *args, **kw):
        init(self, *args, **kw)
        self.barrier.set_result(True)

    monkeypatch.setattr(OpMachine, "__init__", barrier_already_open)
    assert "sync-point" in caught(chaos.run("serial", 0))


def test_fail_stop_catches_a_post_mortem_record(monkeypatch):
    # PR 15's bug: the fail-stop check gone, an untracked driver's op
    # runs on into the abort path after its Manager died (compose 18
    # kills the Manager under the migration's checkpoint)
    monkeypatch.setattr(OpMachine, "dead", lambda self: False)
    assert "fail-stop" in caught(chaos.run("compose", 18))


def test_exactly_one_copy_catches_a_kept_source(monkeypatch):
    # the source Agent never destroys the pod it streamed away
    monkeypatch.setattr(Pod, "destroy", lambda self: None)
    assert "exactly-one-copy" in caught(chaos.run("migration", 3))


def test_ledger_terminal_catches_a_dropped_commit_record(monkeypatch):
    def no_commit(self, **fields):
        return
        yield

    monkeypatch.setattr(OpMachine, "commit", no_commit)
    assert "ledger-terminal" in caught(chaos.run("serial", 0))


def test_no_pod_lost_catches_a_migration_that_never_restarts(monkeypatch):
    # the source copy is destroyed at commit; the restart that should
    # bring the pod up on the destination does nothing
    def no_restart(self, targets, **kw):
        now = self.cluster.engine.now
        return OpResult("restart", "failed", now, now, targets=list(targets))
        yield

    monkeypatch.setattr(Manager, "restart_task", no_restart)
    assert {"no-pod-lost", "checksums"} <= caught(chaos.run("migration", 3))


def test_bounded_concurrency_catches_a_gate_that_lets_everyone_in(monkeypatch):
    init = InflightGate.__init__
    monkeypatch.setattr(InflightGate, "__init__",
                        lambda self, limit: init(self, limit + 8))
    assert "bounded-concurrency" in caught(chaos.run("fleet", 0))


def test_generation_integrity_catches_a_recipe_that_drops_committed_metadata(
        monkeypatch):
    # the CAS recipe keeps less of an entry than the Agent committed (its
    # raw accounted size): the chain still loads and reassembles, so only
    # the byte-for-byte diff against the committed in-memory chain sees
    # that the published generation is not the one committed
    twin = mutant(cas, 'items() if k != "data"}',
                  'items() if k not in ("data", "raw_accounted")}')
    monkeypatch.setattr(cas.CasSink, "stage", twin.CasSink.stage)
    assert "generation-integrity" in caught(chaos.run("cas", 8, n_ops=2))


def test_takeover_resolved_catches_a_replica_that_reuses_op_ids(monkeypatch):
    # the id allocator ignores the ids its first scan finds, so the
    # replica numbers its ops from 1 again instead of past the ledger:
    # its continuity checkpoint is op 1, the op its own takeover just
    # aborted, and every Agent's tombstone for op 1 refuses it
    twin = mutant(ledger,
                  "            top = max((int(r[family.key]) for r in self.records()\n"
                  "                       if family.owns(r)), default=0)\n",
                  "            top = 0\n")
    monkeypatch.setattr(ledger.OpLedger, "new_id", twin.OpLedger.new_id)
    assert "takeover-resolved" in caught(
        chaos.run("failover", 3, crash_phase="manager.ledger.meta"))


def test_threshold_respected_catches_a_threshold_over_the_wrong_total(
        monkeypatch):
    # the failed fraction is taken over the in-flight cap, not the
    # campaign: seed 22's evacuation halts at 3 failures of 10 units
    twin = mutant(campaign, "        total = max(1, len(self.units))\n",
                  "        total = max(1, self.policy.max_inflight)\n")
    monkeypatch.setattr(campaign.Campaign, "_check_threshold",
                        twin.Campaign._check_threshold)
    assert "threshold-respected" in caught(chaos.run("fleet", 22))


def test_clean_end_state_catches_a_drain_onto_its_own_blade(monkeypatch):
    # destination choice forgets the campaign's exclusion set: seed 1
    # drains blade4 and moves a pod back onto it
    twin = mutant(campaign,
                  "            if node.crashed or node.name in self.exclude:\n",
                  "            if node.crashed:\n")
    monkeypatch.setattr(campaign.Campaign, "_dest_for",
                        twin.Campaign._dest_for)
    assert "clean-end-state" in caught(chaos.run("fleet", 1))


def test_assembled_complete_catches_a_resume_under_a_new_campaign_id(
        monkeypatch):
    # the replica resumes the dead Manager's campaign (seed 18 kills it
    # mid-evacuation) under a fresh id: the ledger and the span dump now
    # stitch into two campaign trees where there was one campaign
    twin = mutant(campaign, "policy, cid=lc.cid,", "policy, cid=None,")
    monkeypatch.setattr(campaign.Campaign, "from_ledger",
                        classmethod(twin.Campaign.from_ledger.__func__))
    assert "assembled-complete" in caught(
        chaos.run("fleet", 18, trace_spans=True))


def test_connections_released_catches_a_disabled_reaper(monkeypatch):
    # the reaper never runs: every control session an op closed stays in
    # both stacks.  Every episode closes some, so the first episode of
    # each battery catches it — no seed picked for the mutation
    monkeypatch.setattr(TcpConn, "reap", lambda self: None)
    for scenario in chaos.SCENARIOS:
        params = {"crash_phase": MANAGER_PHASES[0]} if scenario == "failover" else {}
        assert "connections-released" in caught(chaos.run(scenario, 0, **params)), scenario


def test_corpses_released_catches_a_kill_that_keeps_the_registers(monkeypatch):
    # the release never runs: a killed process keeps its registers and
    # its blocked syscall.  No battery's seed 0 kills a running process
    # (its pair has already finished, or nothing crashes), so each
    # battery that kills runs from seed 0 to its first episode that does
    # — no seed picked for the mutation
    kills = []
    monkeypatch.setattr(Process, "keep_exit_record", lambda self: kills.append(self.pid))
    for scenario in ("serial", "migration", "fleet"):
        for seed in range(8):
            kills.clear()
            report = chaos.run(scenario, seed)
            if kills:
                break
        assert kills, f"{scenario} seeds 0-7 kill no process"
        assert "corpses-released" in caught(report), (scenario, seed)
