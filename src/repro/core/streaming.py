"""Direct migration: checkpoint streamed node-to-node, then restart.

"ZapC can also directly stream checkpoint data from one set of nodes to
another, enabling direct migration of a distributed application to a
new set of nodes without saving and restoring state from secondary
storage."  A migration is a checkpoint whose URIs point at the
destination Agents (``agent://<node>``), followed by a restart from the
destinations' in-memory stores.  Because pods are the unit of migration,
N source nodes may map onto M destination nodes with N ≠ M.

Live (pre-copy) migration layers the classic iterative scheme (Clark et
al., NSDI '05; CRIU's iterative pre-dump) on top: while the pods keep
running, round 1 ships the full resident set and later rounds ship only
the bytes dirtied since the previous round; the stop-and-copy pass above
then runs for the small residual only, so downtime shrinks to the final
round instead of the whole transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim.tasks import Task
from .manager import Manager, OpResult

#: (source node, pod, destination node)
Move = Tuple[str, str, str]

#: Pre-copy defaults: round cap and the dirty-byte threshold below which
#: the residual is small enough to stop-and-copy.
DEFAULT_PRECOPY_ROUNDS = 8
DEFAULT_DIRTY_THRESHOLD = 1_000_000


@dataclass
class MigrationResult:
    """Both halves of a migration, for reporting."""

    checkpoint: OpResult
    restart: OpResult
    #: True when the migration ran pre-copy rounds before stop-and-copy.
    live: bool = False
    #: Per-round byte accounting, one dict per executed pre-copy round:
    #: ``{"round", "shipped_bytes", "dirty_bytes", "seconds", "pods"}``.
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    #: Why pre-copy stopped before converging (None when it converged or
    #: never ran): ``"round-cap"``, ``"non-converging"``, or
    #: ``"precopy-failed"``.
    bailout: Optional[str] = None
    #: When the migration was invoked (pre-copy rounds included).
    t_invoke: float = 0.0

    @property
    def ok(self) -> bool:
        return self.checkpoint.ok and self.restart.ok

    @property
    def duration(self) -> float:
        """Stop-and-copy window: checkpoint invocation to every pod
        running at its destination.  Excludes pre-copy rounds (the
        application keeps running through those); see :attr:`total_time`
        for the whole migration and :attr:`downtime` for the outage."""
        return self.restart.t_end - self.checkpoint.t_start

    @property
    def total_time(self) -> float:
        """Migration invocation (first pre-copy round included) to every
        pod running at its destination."""
        return self.restart.t_end - self.t_invoke

    @property
    def downtime(self) -> float:
        """Application outage: first pod suspended at the source to every
        pod running at its destination.

        Live checkpoints report the suspend instant per pod; without it
        (non-live migrations) the whole stop-and-copy window is downtime.
        """
        suspend_ats = [stats["t_suspend_at"]
                       for stats in self.checkpoint.pods.values()
                       if "t_suspend_at" in stats]
        t_down = min(suspend_ats) if suspend_ats else self.checkpoint.t_start
        return self.restart.t_end - t_down

    @property
    def precopy_bytes(self) -> int:
        """Total bytes shipped by all pre-copy rounds."""
        return sum(r["shipped_bytes"] for r in self.rounds)


def migrate_task(manager: Manager, moves: List[Move], redirect: bool = False,
                 deadline: float = 120.0,
                 recovery_mode: str = "two-thread", filters=None,
                 live: bool = False,
                 precopy_rounds: int = DEFAULT_PRECOPY_ROUNDS,
                 dirty_threshold: int = DEFAULT_DIRTY_THRESHOLD,
                 timeouts=None):
    """Generator orchestrating a migration (run as a host task).

    ``redirect`` turns on the send-queue redirect optimization: instead
    of re-transmitting each socket's send queue over the re-established
    connection after restart, the data is merged into the peer's
    checkpoint stream and appended to the peer's alternate receive queue
    — "merging both into a single transfer".

    ``filters`` requests an image-pipeline chain for the checkpoint half;
    a compress stage directly shortens the node-to-node stream.  A delta
    stage degrades to self-contained output here: the destination Agent
    holds no base to patch, so the source emits full records (a stream
    sink's chain tip is never the previous epoch).

    ``live`` runs iterative pre-copy first: up to ``precopy_rounds``
    rounds ship memory while the pods stay running, ending early once
    the dirty residual falls to ``dirty_threshold`` bytes or the
    writable working set stops converging (a round dirties at least as
    much as it shipped).  Either way the protocol then falls through to
    the stop-and-copy pass above — with converged pre-copy that pass
    streams only the residual, which is what shrinks downtime.
    """
    engine = manager.cluster.engine
    t_invoke = engine.now
    rounds_log: List[Dict[str, Any]] = []
    bailout: Optional[str] = None

    if live and moves:
        # the migration gets its own operation id so every pre-copy span
        # (manager and agent side) hangs off one "manager.migrate" op
        mig_op = manager.ledger.new_id()
        op_span = manager.cluster.span("manager.migrate", category="op",
                                       key=("op", mig_op), op=mig_op,
                                       pods=len(moves), live=True)
        converged = False
        for round_no in range(1, max(1, int(precopy_rounds)) + 1):
            t_round = engine.now
            stats, errors = yield from manager.precopy_round(
                moves, round_no, op_id=mig_op, timeouts=timeouts,
                deadline=deadline)
            if errors or len(stats) < len(moves):
                bailout = "precopy-failed"
                break
            shipped = sum(s["shipped_bytes"] for s in stats.values())
            dirty = sum(s["dirty_bytes"] for s in stats.values())
            rounds_log.append({
                "round": round_no,
                "shipped_bytes": shipped,
                "dirty_bytes": dirty,
                "seconds": engine.now - t_round,
                "pods": stats,
            })
            if dirty <= int(dirty_threshold):
                converged = True
                break
            if round_no >= 2 and dirty >= shipped:
                # the working set regrows at least as fast as the fabric
                # drains it; more rounds only burn bandwidth
                bailout = "non-converging"
                break
        if not converged and bailout is None:
            bailout = "round-cap"
        op_span.end(status="ok" if converged else (bailout or "ok"),
                    rounds=len(rounds_log),
                    precopy_bytes=sum(r["shipped_bytes"] for r in rounds_log))

    # the per-consumer baseline clears are ack-gated (a failed round
    # folds its unacknowledged dirtiness back in), so the residual is
    # trustworthy even after a failed pre-copy round
    ckpt_live = live
    ckpt_targets = [(src, pod, f"agent://{dst}") for src, pod, dst in moves]
    redirect_moves = {pod: dst for _src, pod, dst in moves} if redirect else None
    ckpt = yield from manager.checkpoint_task(
        ckpt_targets, context="migrate", deadline=deadline,
        redirect_moves=redirect_moves, filters=filters, live=ckpt_live,
        timeouts=timeouts)
    if not ckpt.ok:
        return MigrationResult(ckpt, OpResult("restart", "skipped",
                                              manager.cluster.engine.now,
                                              manager.cluster.engine.now),
                               live=live, rounds=rounds_log, bailout=bailout,
                               t_invoke=t_invoke)
    restart_targets = [(dst, pod, "mem") for _src, pod, dst in moves]
    restart = yield from manager.restart_task(
        restart_targets, deadline=deadline, recovery_mode=recovery_mode,
        timeouts=timeouts)
    return MigrationResult(ckpt, restart, live=live, rounds=rounds_log,
                           bailout=bailout, t_invoke=t_invoke)


def migrate(manager: Manager, moves: List[Move], **kw) -> Task:
    """Spawn a migration; the Task resolves to a MigrationResult."""
    return manager.cluster.engine.spawn(migrate_task(manager, moves, **kw),
                                        name="manager-migrate")
