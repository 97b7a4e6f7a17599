"""The fleet campaign engine: bounded-concurrency rolling waves.

A :class:`Campaign` runs one Manager op per pod — a single-pod
coordinated checkpoint, or a single-move live migration — across many
pods, in waves.  The runbook knobs live in :class:`FleetPolicy`:

* ``max_inflight`` bounds concurrent in-flight units (a counting gate,
  :class:`~repro.fleet.scheduler.InflightGate`);
* ``wave_size``/``wave_barrier`` partition the units and optionally
  synchronize between waves;
* ``failure_threshold`` halts the whole campaign once the failed
  fraction *exceeds* it (a halted campaign stops launching units but
  lets in-flight ones finish);
* ``retries``/``retry_backoff`` re-drive a failed unit;
* ``downtime_budget`` flags pods whose outage exceeded the budget
  (``budget_as_failure`` makes a trip count toward the threshold).

Campaign progress is journaled to the op ledger as the ``campaign``
record family (see :mod:`repro.storage.ledger`): the full plan at
begin, every wave start, every unit outcome, every wave completion, and
a terminal record.  Because completed pods are durable in the log, a
replica Manager that claims an orphaned campaign
(:func:`resume_campaigns_task`) finishes the half-done wave without
re-checkpointing pods that already committed — the DMTCP-style
"coordinator state lives outside the coordinator" discipline applied to
fleet orchestration.

Every campaign/wave emits obs spans keyed by campaign id, and the wave
loop crosses ``fleet.*`` trace points
(:data:`repro.cluster.faults.FLEET_PHASES`), so seeded fault plans can
fire mid-wave and the chaos battery can replay the exact schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import percentile
from ..sim.tasks import Future
from ..storage.ledger import CAMPAIGNS
from .scheduler import InflightGate, Unit, pick_target, plan_waves

#: default fraction of failed units that halts a campaign.
DEFAULT_FAILURE_THRESHOLD = 0.25


@dataclass
class FleetPolicy:
    """Runbook knobs for one campaign (journaled at campaign begin)."""

    max_inflight: int = 8
    #: units per wave; None = one wave per ``max_inflight`` units.
    wave_size: Optional[int] = None
    #: wait for a wave to fully finish before starting the next.
    wave_barrier: bool = True
    #: halt once failed/total strictly exceeds this fraction.
    failure_threshold: float = DEFAULT_FAILURE_THRESHOLD
    #: re-drives per unit after its first failed attempt.
    retries: int = 1
    retry_backoff: float = 0.5
    #: per-pod outage budget in seconds (None = unbudgeted).
    downtime_budget: Optional[float] = None
    #: a budget trip counts as a failure for the threshold.
    budget_as_failure: bool = False
    #: live pre-copy for migrations (stop-and-copy when False).
    live: bool = True
    precopy_rounds: int = 2
    dirty_threshold: int = 65536
    #: per-unit op deadline in seconds.
    deadline: float = 60.0
    #: image-pipeline filter chain for checkpoint units (e.g.
    #: ``[{"name": "delta"}]`` for dirty-delta incremental waves).
    filters: Optional[List[Dict[str, Any]]] = None
    #: zero-stall checkpoints: pods resume after the capture window and
    #: the encode/stream overlaps application time.
    async_ckpt: bool = False
    #: checkpoint units target the content-addressed store (``cas:``
    #: URIs): identical chunks dedup across the whole fleet.
    cas: bool = False
    #: campaign ledger lease; None = the ledger default.
    lease_s: Optional[float] = None

    def effective_wave_size(self) -> int:
        return self.wave_size if self.wave_size else max(1, self.max_inflight)

    def to_fields(self) -> Dict[str, Any]:
        """The journaled form (plain JSON scalars only)."""
        fields_ = {
            "max_inflight": self.max_inflight,
            "wave_size": self.effective_wave_size(),
            "wave_barrier": self.wave_barrier,
            "failure_threshold": self.failure_threshold,
            "retries": self.retries,
            "retry_backoff": self.retry_backoff,
            "downtime_budget": self.downtime_budget,
            "budget_as_failure": self.budget_as_failure,
            "live": self.live,
            "precopy_rounds": self.precopy_rounds,
            "dirty_threshold": self.dirty_threshold,
            "deadline": self.deadline,
        }
        # only journaled when set: default campaigns keep the exact
        # record bytes (and thus schedules) they had before these knobs
        if self.filters is not None:
            fields_["filters"] = self.filters
        if self.async_ckpt:
            fields_["async_ckpt"] = True
        if self.cas:
            fields_["cas"] = True
        return fields_

    @classmethod
    def from_fields(cls, fields_: Dict[str, Any]) -> "FleetPolicy":
        known = {k: v for k, v in fields_.items()
                 if k in cls.__dataclass_fields__}
        return cls(**known)


@dataclass
class PodOutcome:
    """Final state of one unit."""

    pod: str
    node: str
    wave: int
    status: str                      # ok | failed | skipped
    dest: Optional[str] = None       # migration destination, if any
    op_id: int = 0
    attempts: int = 0
    downtime: float = 0.0
    error: Optional[str] = None
    #: True when a resumed campaign found this pod already durable-ok.
    resumed: bool = False
    #: True when a resumed campaign found the move already committed at
    #: the op level (the dead Manager's unit record never landed) and
    #: adopted it instead of re-driving the stale source.
    adopted: bool = False


@dataclass
class WaveSummary:
    """One wave's aggregate, for reports and figures."""

    index: int
    pods: int
    ok: int = 0
    failed: int = 0
    skipped: int = 0
    t_start: float = 0.0
    t_end: float = 0.0
    max_downtime: float = 0.0
    budget_trips: int = 0


@dataclass
class CampaignResult:
    """Everything a caller (or auditor) needs from one campaign run."""

    cid: int
    kind: str
    status: str                      # ok | partial | halted | excluded | crashed
    t_start: float
    t_end: float
    pods: Dict[str, PodOutcome] = field(default_factory=dict)
    waves: List[WaveSummary] = field(default_factory=list)
    #: per-attempt audit log: (pod, wave, attempt, t_start, t_end, status).
    events: List[Tuple[str, int, int, float, float, str]] = field(
        default_factory=list)
    threshold_tripped: bool = False
    budget_trips: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: the ledger phase this run resumed from (None for a fresh run).
    resumed_from: Optional[str] = None
    #: gate high-water mark: concurrently in-flight units.
    peak_inflight: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def downtimes(self) -> List[float]:
        """Per-pod outage of every unit that completed ok this run."""
        return sorted(o.downtime for o in self.pods.values()
                      if o.status == "ok" and not o.resumed
                      and not o.adopted)

    def downtime_percentile(self, q: float) -> float:
        return percentile(self.downtimes(), q)

    def counts(self) -> Dict[str, int]:
        out = {"ok": 0, "failed": 0, "skipped": 0}
        for o in self.pods.values():
            out[o.status] = out.get(o.status, 0) + 1
        return out


class Campaign:
    """One rolling fleet operation over many pods (see module doc)."""

    def __init__(self, manager, kind: str, units: Sequence[Unit],
                 policy: Optional[FleetPolicy] = None,
                 cid: Optional[int] = None,
                 exclude: Sequence[str] = (),
                 timeouts=None,
                 resumed_from: Optional[str] = None) -> None:
        self.manager = manager
        self.cluster = manager.cluster
        self.ledger = manager.ledger
        self.kind = kind                       # checkpoint | drain | evacuate
        self.units: List[Unit] = [tuple(u) for u in units]
        self.policy = policy if policy is not None else FleetPolicy()
        self.cid = cid if cid is not None else self.ledger.new_id(CAMPAIGNS)
        #: nodes units may never land on (the evacuated/drained set).
        self.exclude: Tuple[str, ...] = tuple(exclude)
        self.timeouts = timeouts
        self.resumed_from = resumed_from
        self.waves: List[List[Unit]] = plan_waves(
            self.units, self.policy.effective_wave_size())
        #: pods already durable-ok before this run (filled on resume).
        self.completed: Dict[str, Dict[str, Any]] = {}
        self._gate = InflightGate(self.policy.max_inflight)
        self._stop: Optional[str] = None
        self._failures = 0
        self._reserved: Dict[str, int] = {}
        self._order = {n.name: n.index for n in self.cluster.nodes}
        from ..obs.tracer import NULL_SPAN
        #: campaign + wave spans, kept so a mid-wave halt can register
        #: its terminal status on spans it cannot end (see
        #: :meth:`_check_threshold` and Span.finalize_with).
        self._span = NULL_SPAN
        self._wave_spans: List[Any] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_ledger(cls, manager, lc) -> "Campaign":
        """Rebuild a campaign from its folded ledger state (resume path).

        The journaled wave partition is authoritative; pods whose latest
        unit record says ``ok`` are pre-marked complete and never driven
        again.
        """
        policy = FleetPolicy.from_fields(lc.policy)
        exclude = tuple(lc.policy.get("exclude", ()))
        camp = cls(manager, lc.kind, lc.units, policy, cid=lc.cid,
                   exclude=exclude, resumed_from=lc.phase)
        by_pod = {pod: unit for unit in lc.units for pod in [unit[1]]}
        camp.waves = [[by_pod[p] for p in wave if p in by_pod]
                      for wave in lc.waves]
        camp.completed = {pod: rec for pod, rec in lc.pods.items()
                          if rec.get("status") == "ok"}
        camp._failures = sum(1 for rec in lc.pods.values()
                             if rec.get("status") == "failed")
        return camp

    # ------------------------------------------------------------------
    def _append(self, phase: str, **fields_: Any) -> None:
        # span context rides the record: the campaign span id joins this
        # durable fact to the incarnation's trace dump for the assembler
        self.ledger.write(CAMPAIGNS, self.cid, self.manager.name,
                          self.cluster.engine.now, self.policy.lease_s,
                          getattr(self._span, "span_id", None),
                          rec="campaign", phase=phase, **fields_)

    def _check_threshold(self) -> None:
        total = max(1, len(self.units))
        if self._stop is None and \
                self._failures / total > self.policy.failure_threshold:
            self._stop = "threshold"
            self.cluster.count("fleet.threshold_trips")
            # the campaign and any open wave spans may never be ended by
            # their (about to be abandoned) tasks: register the terminal
            # status close_open() must apply instead of "unclosed"
            self._span.finalize_with("halted", stop="threshold")
            for wspan in self._wave_spans:
                if getattr(wspan, "open", False):
                    wspan.finalize_with("halted")

    def _dest_for(self, pod: str) -> Optional[str]:
        """Least-loaded eligible destination, reservation-aware.

        Eligible: not crashed, not in the campaign's exclusion set, not
        node-claimed by a foreign op (a concurrent recover's claim makes
        its nodes ineligible rather than racing them).
        """
        label = f"campaign:{self.cid}"
        load: Dict[str, int] = {}
        for node in self.cluster.nodes:
            if node.crashed or node.name in self.exclude:
                continue
            holder = self.manager.node_claim_holder(node.name)
            if holder is not None and holder != label:
                continue
            load[node.name] = (len(node.kernel.pods)
                               + self._reserved.get(node.name, 0))
        return pick_target(load, order=self._order)

    # ------------------------------------------------------------------
    def run(self):
        """Spawn the campaign; the Task resolves to a CampaignResult."""
        return self.manager._spawn(self.run_task(),
                                   name=f"fleet-campaign-c{self.cid}")

    def run_task(self):
        """Generator driving the whole campaign (run as a host task)."""
        engine = self.cluster.engine
        mgr = self.manager
        result = CampaignResult(cid=self.cid, kind=self.kind, status="ok",
                                t_start=engine.now, t_end=engine.now,
                                resumed_from=self.resumed_from)
        for pod, rec in sorted(self.completed.items()):
            unit = next((u for u in self.units if u[1] == pod), None)
            result.pods[pod] = PodOutcome(
                pod=pod, node=unit[0] if unit else "?",
                wave=int(rec.get("wave", -1)), status="ok",
                op_id=int(rec.get("op", 0)),
                downtime=float(rec.get("downtime", 0.0)), resumed=True)
        if mgr.crashed:
            result.status = "crashed"
            return result

        # drains and evacuations own their source nodes for the whole
        # campaign: a concurrent recover of the same node is refused
        # instead of racing the migrations pod by pod
        label = f"campaign:{self.cid}"
        claimed_nodes: List[str] = []
        if self.exclude:
            if not mgr.claim_nodes(self.exclude, label):
                result.status = "excluded"
                holders = {n: mgr.node_claim_holder(n) for n in self.exclude
                           if mgr.node_claim_holder(n) not in (None, label)}
                result.errors.append(
                    f"node claim refused: {sorted(holders.items())}")
                result.t_end = engine.now
                return result
            claimed_nodes = list(self.exclude)

        span = self.cluster.span(f"fleet.{self.kind}", category="op",
                                 key=("campaign", self.cid),
                                 campaign=self.cid, units=len(self.units),
                                 waves=len(self.waves),
                                 max_inflight=self.policy.max_inflight)
        self._span = span
        if self.resumed_from is None:
            self._append("begin", kind=self.kind,
                         units=[list(u) for u in self.units],
                         waves=[[u[1] for u in wave] for wave in self.waves],
                         policy=dict(self.policy.to_fields(),
                                     exclude=list(self.exclude)))

        pending_total = {"n": 0}
        all_done = Future(f"campaign-c{self.cid}-done")
        for w, wave in enumerate(self.waves):
            pending = [u for u in wave if u[1] not in result.pods]
            if not pending:
                continue
            if mgr.crashed or self._stop is not None:
                break
            summary = WaveSummary(index=w, pods=len(pending),
                                  t_start=engine.now)
            result.waves.append(summary)
            self._append("wave", wave=w, pods=len(pending))
            yield from self.cluster.trace("fleet.wave_start",
                                          pod=f"c{self.cid}w{w}")
            wspan = self.cluster.span("fleet.wave", parent=span,
                                      campaign=self.cid, wave=w,
                                      pods=len(pending))
            self._wave_spans.append(wspan)
            wave_state = {"remaining": len(pending), "summary": summary,
                          "span": wspan, "barrier": Future(f"wave-{w}")}
            pending_total["n"] += len(pending)
            for unit in pending:
                mgr._spawn(
                    self._unit_task(unit, w, wave_state, pending_total,
                                    all_done, result),
                    name=f"fleet-c{self.cid}-{unit[1]}")
            if self.policy.wave_barrier:
                yield wave_state["barrier"]
        if not self.policy.wave_barrier and pending_total["n"] > 0:
            yield all_done

        # units never launched are recorded as skipped
        for wave_idx, wave in enumerate(self.waves):
            for unit in wave:
                if unit[1] not in result.pods:
                    result.pods[unit[1]] = PodOutcome(
                        pod=unit[1], node=unit[0], wave=wave_idx,
                        status="skipped", error=self._stop)

        if mgr.crashed:
            result.status = "crashed"
            result.t_end = engine.now
            for wspan in self._wave_spans:
                if getattr(wspan, "open", False):
                    wspan.end(status="crashed")
            span.end(status=result.status)
            return result
        counts = result.counts()
        result.threshold_tripped = self._stop == "threshold"
        if result.threshold_tripped:
            result.status = "halted"
            self._append("halted", failed=counts["failed"],
                         skipped=counts["skipped"], ok=counts["ok"])
        else:
            result.status = "ok" if counts["failed"] == 0 else "partial"
            self._append("commit", ok=counts["ok"], failed=counts["failed"])
        result.t_end = engine.now
        result.peak_inflight = self._gate.peak
        mgr.release_nodes(claimed_nodes, label)
        span.end(status=result.status, ok=counts["ok"],
                 failed=counts["failed"], duration_s=result.duration)
        self.cluster.observe("fleet.campaign_seconds", result.duration)
        return result

    # ------------------------------------------------------------------
    def _unit_task(self, unit: Unit, wave: int, wave_state: Dict[str, Any],
                   pending_total: Dict[str, int], all_done: Future,
                   result: CampaignResult):
        node, pod, arg = unit
        policy = self.policy
        engine = self.cluster.engine
        yield from self._gate.acquire()
        self.cluster.gauge_set("fleet.inflight", self._gate.active)
        outcome = PodOutcome(pod=pod, node=node, wave=wave, status="skipped")
        if self._stop is None and not self.manager.crashed:
            yield from self.cluster.trace("fleet.pod_start", node=node,
                                          pod=pod)
            for attempt in range(1, policy.retries + 2):
                if self._stop is not None and attempt > 1:
                    break           # a tripped threshold stops re-drives
                outcome.attempts = attempt
                t0 = engine.now
                ok, downtime, op_id, err = yield from self._run_unit(
                    unit, outcome)
                result.events.append((pod, wave, attempt, t0, engine.now,
                                      "ok" if ok else "failed"))
                outcome.status = "ok" if ok else "failed"
                outcome.op_id = op_id
                outcome.downtime = downtime
                outcome.error = err
                if ok or err == "source node crashed":
                    break
                if attempt <= policy.retries:
                    self.cluster.count("fleet.retries")
                    yield engine.sleep(policy.retry_backoff)
            # bookkeeping must land before the gate slot frees: the next
            # unit's launch decision sees this unit's failure
            self._record_outcome(outcome, wave_state["summary"], result)
            self._gate.release()
            self.cluster.gauge_set("fleet.inflight", self._gate.active)
            yield from self.cluster.trace("fleet.pod_done", node=node,
                                          pod=pod)
        else:
            outcome.error = self._stop or "manager crashed"
            result.pods[pod] = outcome
            wave_state["summary"].skipped += 1
            self._gate.release()
            self.cluster.gauge_set("fleet.inflight", self._gate.active)
        wave_state["remaining"] -= 1
        pending_total["n"] -= 1
        if wave_state["remaining"] == 0:
            summary = wave_state["summary"]
            summary.t_end = engine.now
            self._append("wave-done", wave=summary.index, ok=summary.ok,
                         failed=summary.failed)
            wave_state["span"].end(ok=summary.ok, failed=summary.failed,
                                   max_downtime=summary.max_downtime)
            yield from self.cluster.trace("fleet.wave_done",
                                          pod=f"c{self.cid}w{summary.index}")
            wave_state["barrier"].set_result(None)
        if pending_total["n"] == 0 and not all_done.done:
            all_done.set_result(None)

    def _record_outcome(self, outcome: PodOutcome, summary: WaveSummary,
                        result: CampaignResult) -> None:
        policy = self.policy
        result.pods[outcome.pod] = outcome
        tripped_budget = (policy.downtime_budget is not None
                          and outcome.status == "ok"
                          and outcome.downtime > policy.downtime_budget)
        if tripped_budget:
            result.budget_trips.append(outcome.pod)
            summary.budget_trips += 1
            self.cluster.count("fleet.budget_trips")
        if outcome.status == "ok":
            summary.ok += 1
            summary.max_downtime = max(summary.max_downtime,
                                       outcome.downtime)
            self.cluster.observe("fleet.pod_downtime", outcome.downtime)
        else:
            summary.failed += 1
        if outcome.status == "failed" or \
                (tripped_budget and policy.budget_as_failure):
            self._failures += 1
            self._check_threshold()
        extra = {"adopted": True} if outcome.adopted else {}
        self._append("pod", wave=outcome.wave, pod=outcome.pod,
                     status=outcome.status, op=outcome.op_id,
                     downtime=round(outcome.downtime, 9),
                     attempts=outcome.attempts, **extra)

    def _run_unit(self, unit: Unit, outcome: PodOutcome):
        """One attempt of one unit; returns (ok, downtime, op_id, err)."""
        from ..core.streaming import migrate_task
        node, pod, arg = unit
        mgr = self.manager
        src = self.cluster.node_by_name(node)
        if src is None or src.crashed:
            return False, 0.0, 0, "source node crashed"
        if self.kind in ("drain", "evacuate"):
            if self.resumed_from is not None and pod not in src.kernel.pods:
                found = self._adopt_move(pod)
                if found is not None:
                    outcome.dest, op_id = found
                    outcome.adopted = True
                    return True, 0.0, op_id, None
            dest = arg or self._dest_for(pod)
            if dest is None:
                return False, 0.0, 0, "no eligible destination"
            outcome.dest = dest
            self._reserved[dest] = self._reserved.get(dest, 0) + 1
            mig = yield from migrate_task(
                mgr, [(node, pod, dest)], live=self.policy.live,
                precopy_rounds=self.policy.precopy_rounds,
                dirty_threshold=self.policy.dirty_threshold,
                deadline=self.policy.deadline, timeouts=self.timeouts)
            self._reserved[dest] = max(0, self._reserved.get(dest, 1) - 1)
            err = None
            if not mig.ok:
                errs = mig.checkpoint.errors + mig.restart.errors
                err = errs[0] if errs else (mig.checkpoint.status
                                            if not mig.checkpoint.ok
                                            else mig.restart.status)
            return (mig.ok, mig.downtime if mig.ok else 0.0,
                    mig.checkpoint.op_id, err)
        # flat SAN namespace: the shared vfs has no mkdir, so fleet
        # images live beside the per-op ones as /san/fleet-c<cid>-<pod>
        scheme = "cas" if self.policy.cas else "file"
        uri = arg or f"{scheme}:/san/fleet-c{self.cid}-{pod}.img"
        # "snapshot" context: the pod resumes in place after commit (any
        # other context is a migration and the agent destroys the pod)
        res = yield from mgr.checkpoint_task(
            [(node, pod, uri)], context="snapshot",
            deadline=self.policy.deadline, timeouts=self.timeouts,
            filters=self.policy.filters, async_ckpt=self.policy.async_ckpt)
        err = res.errors[0] if res.errors else (
            None if res.ok else res.status)
        return res.ok, res.duration if res.ok else 0.0, res.op_id, err

    def _adopt_move(self, pod_id: str):
        """Adoption check for a resumed move whose source lost the pod.

        The dead Manager's migrate op can commit (pod destroyed at the
        source, restarted at the destination) moments before the unit
        record would have landed; re-driving such a unit from the begin
        record's source node can only fail.  If the pod is already
        running on a node off the excluded set, the move's goal is met:
        return ``(host, op_id)`` of the committed op so the unit records
        as ok, else None (a genuinely lost pod stays a failure).
        """
        for host in self.cluster.nodes:
            if host.crashed or host.name in self.exclude:
                continue
            live = host.kernel.pods.get(pod_id)
            if live is not None and not live.suspended:
                op_id = 0
                for oid, op in sorted(self.ledger.replay().items()):
                    if op.phase == "commit" and any(
                            p == pod_id for (_n, p, _u) in op.targets):
                        op_id = oid
                return host.name, op_id
        return None


def resume_campaigns_task(manager, timeouts=None,
                          lease_s: Optional[float] = None,
                          collect: Optional[List[CampaignResult]] = None):
    """Claim and finish every orphaned campaign (generator).

    The campaign-level analogue of
    :meth:`~repro.core.manager.Manager.takeover_task`: scan the ledger
    for non-terminal campaigns with expired leases, claim each, rebuild
    the plan from its begin record, and run it — completed pods are
    skipped, so only the half-done tail of the fleet is driven.  Returns
    ``[(cid, phase_at_claim, status), ...]``; when ``collect`` is given,
    each resumed run's :class:`CampaignResult` is appended to it (the
    chaos auditor uses this to merge attempt logs across the failover).
    """
    engine = manager.cluster.engine
    actions: List[Tuple[int, str, str]] = []
    for lc in manager.ledger.orphaned(engine.now, CAMPAIGNS):
        span = manager.cluster.span("fleet.claim", category="op",
                                    key=("campaign", lc.cid),
                                    campaign=lc.cid, owner=manager.name,
                                    at_phase=lc.phase)
        if not manager.ledger.claim(lc.cid, manager.name, engine.now,
                                    lease_s, CAMPAIGNS):
            span.end(status="refused")
            actions.append((lc.cid, lc.phase, "refused"))
            continue
        span.end(status="claimed")
        yield from manager.cluster.trace("fleet.resume", pod=f"c{lc.cid}")
        camp = Campaign.from_ledger(manager, lc)
        camp.policy.lease_s = lease_s
        if timeouts is not None:
            camp.timeouts = timeouts
        res = yield from camp.run_task()
        if collect is not None:
            collect.append(res)
        actions.append((lc.cid, lc.phase, res.status))
    return actions
