"""Rule-driven SLO auditing over assembled campaign traces and series.

A campaign that "completed" can still have blown every promise that
matters: a pod frozen past its downtime budget, a net-block window that
stalled traffic for seconds, a straggler wave, a retry storm.  The
auditor turns those promises into declared budgets
(:class:`SloBudget`), measures each one against an assembled
:class:`~repro.obs.assemble.CampaignTrace` (and optionally a
:class:`~repro.obs.series.SeriesBank` column export), and emits a
structured :class:`SloReport` of per-rule verdicts.  Chaos batteries
fold the verdicts in as extra invariants; ``zapc fleet --audit`` renders
them for humans and sets the exit code from them.

The *coverage* rule is always on: an assembled tree that fails to
account for a pod-unit the ledger knows about is an observability bug
regardless of budgets, and it is the acceptance oracle for
failover-stitched assembly.

:class:`WallProfiler` is the odd one out — the only wall-clock
instrument in the codebase.  It measures *simulator* cost (real seconds
per labelled phase of a run), which is explicitly nondeterministic and
therefore exported next to — never inside — the deterministic sim
metrics (see ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..metrics import print_table
from .assemble import CampaignTrace


@dataclass(frozen=True)
class SloBudget:
    """Declared budgets; ``None`` disables a rule."""

    #: max per-pod downtime over ok units, in simulated seconds.
    pod_downtime_s: Optional[float] = None
    #: max length of any ``agent.net_block`` window, in simulated seconds.
    net_block_s: Optional[float] = None
    #: max single-wave latency (wave start → wave done), simulated seconds.
    wave_latency_s: Optional[float] = None
    #: max retries per recorded unit (sum of attempts-1 over units).
    retry_rate: Optional[float] = None
    #: max whole-campaign duration, simulated seconds.
    campaign_duration_s: Optional[float] = None
    #: max concurrent in-flight units (checked against the
    #: ``fleet.inflight`` gauge series when a series export is given).
    max_inflight: Optional[int] = None

    @classmethod
    def from_policy(cls, policy: Dict[str, Any]) -> "SloBudget":
        """Budgets implied by a journaled campaign policy: the downtime
        budget it declared, the in-flight cap it promised to honor."""
        return cls(pod_downtime_s=policy.get("downtime_budget"),
                   max_inflight=policy.get("max_inflight"))


@dataclass
class SloVerdict:
    """One rule's outcome."""

    rule: str
    ok: bool
    measured: Optional[float]
    budget: Optional[float]
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"rule": self.rule, "ok": self.ok,
                "measured": (None if self.measured is None
                             else round(float(self.measured), 9)),
                "budget": (None if self.budget is None
                           else round(float(self.budget), 9)),
                "detail": self.detail}


@dataclass
class SloReport:
    """All verdicts for one campaign."""

    cid: int
    status: str
    verdicts: List[SloVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def violations(self) -> List[SloVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {"schema": 1, "cid": self.cid, "status": self.status,
                "ok": self.ok,
                "verdicts": [v.to_dict() for v in self.verdicts]}

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        rows = [(v.rule, "PASS" if v.ok else "FAIL",
                 "-" if v.measured is None else f"{v.measured:.6f}",
                 "-" if v.budget is None else f"{v.budget:.6f}",
                 v.detail or "-") for v in self.verdicts]
        return print_table(
            f"SLO audit — campaign {self.cid} ({self.status})",
            ("rule", "verdict", "measured", "budget", "detail"), rows)


def audit_campaign(trace: CampaignTrace,
                   budget: Optional[SloBudget] = None,
                   series: Optional[Dict[str, Any]] = None) -> SloReport:
    """Audit one assembled campaign against ``budget``.

    ``series`` is an optional :meth:`SeriesBank.to_columns` export; when
    present the in-flight cap rule reads the ``fleet.inflight`` gauge
    column.  Budgets default to the ones the campaign's own journaled
    policy declared.
    """
    if budget is None:
        budget = SloBudget.from_policy(trace.policy)
    report = SloReport(cid=trace.cid, status=trace.status)
    add = report.verdicts.append

    cov = trace.coverage()
    add(SloVerdict(
        rule="coverage", ok=cov["complete"],
        measured=float(cov["in_tree"]), budget=float(cov["units"]),
        detail=("all pod-units accounted for" if cov["complete"] else
                "missing: " + ",".join(cov["missing"]))))

    units = trace.units()
    recorded = [u for u in units if u.status != "unrecorded"]

    if budget.pod_downtime_s is not None:
        timed = [(float(u.attrs["downtime"]), u.pod) for u in recorded
                 if u.attrs.get("downtime") is not None]
        worst, pod = max(timed, default=(0.0, None))
        over = sorted(p for d, p in timed if d > budget.pod_downtime_s)
        add(SloVerdict(
            rule="pod-downtime", ok=not over, measured=worst,
            budget=budget.pod_downtime_s,
            detail=(f"worst {pod}" if not over else
                    f"{len(over)} over budget: " + ",".join(over[:5]))))

    if budget.net_block_s is not None:
        blocks = [(n.duration, n.pod) for n in trace.root.walk()
                  if n.name == "agent.net_block"]
        worst, pod = max(blocks, default=(0.0, None))
        add(SloVerdict(
            rule="net-block", ok=worst <= budget.net_block_s,
            measured=worst, budget=budget.net_block_s,
            detail=f"{len(blocks)} windows, worst {pod}"))

    if budget.wave_latency_s is not None:
        waves = [(n.duration, n.attrs.get("wave")) for n in trace.root.children
                 if n.kind == "wave"]
        worst, w = max(waves, default=(0.0, None))
        add(SloVerdict(
            rule="wave-latency", ok=worst <= budget.wave_latency_s,
            measured=worst, budget=budget.wave_latency_s,
            detail=f"worst wave {w}"))

    if budget.retry_rate is not None:
        retries = sum(max(0, int(u.attrs.get("attempts", 1)) - 1)
                      for u in recorded)
        rate = retries / len(recorded) if recorded else 0.0
        add(SloVerdict(
            rule="retry-rate", ok=rate <= budget.retry_rate,
            measured=rate, budget=budget.retry_rate,
            detail=f"{retries} retries / {len(recorded)} units"))

    if budget.campaign_duration_s is not None:
        add(SloVerdict(
            rule="campaign-duration",
            ok=trace.root.duration <= budget.campaign_duration_s,
            measured=trace.root.duration,
            budget=budget.campaign_duration_s,
            detail=f"{len(trace.root.children)} waves"))

    if budget.max_inflight is not None and series is not None:
        col = series.get("series", {}).get("fleet.inflight.max") or []
        peak = max((v for v in col if v is not None), default=0.0)
        add(SloVerdict(
            rule="inflight-cap", ok=peak <= budget.max_inflight,
            measured=float(peak), budget=float(budget.max_inflight),
            detail=f"{len(col)} windows"))

    return report


class WallProfiler:
    """Real-time cost of the simulator itself, per labelled phase.

    The one deliberately nondeterministic instrument: accumulates
    ``time.perf_counter`` seconds under :meth:`phase` labels so runs can
    report what the *simulation* cost next to what it simulated.  Always
    export its numbers beside — never inside — deterministic artifacts
    (the committed ``BENCH_core.json`` is byte-diffed in CI).
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    @contextmanager
    def phase(self, label: str):
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            dt = time.perf_counter() - t0
            self.seconds[label] = self.seconds.get(label, 0.0) + dt
            self.calls[label] = self.calls.get(label, 0) + 1

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def to_dict(self) -> Dict[str, Any]:
        return {"wall_s": {k: round(v, 6)
                           for k, v in sorted(self.seconds.items())},
                "calls": dict(sorted(self.calls.items())),
                "total_s": round(self.total, 6)}

    def render(self) -> str:
        rows = [(label, self.calls[label], f"{self.seconds[label]:.3f}")
                for label in sorted(self.seconds)]
        rows.append(("total", sum(self.calls.values()), f"{self.total:.3f}"))
        return print_table("simulator wall time (real seconds)",
                           ("phase", "calls", "wall [s]"), rows)
