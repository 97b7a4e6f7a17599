"""Fleet orchestration: rolling waves, node drain, cluster evacuation.

ROADMAP item 2: batched rolling checkpoint/migrate operations across
many pods with the runbook controls of a datacenter operation —
bounded concurrency, optional wave barriers, a percentage failure
threshold that halts the campaign, per-pod retries, downtime budgets —
built on the Manager's per-op primitives (coordinated checkpoint, PR 5
live pre-copy migration) and journaled to the PR 6 op ledger so a
replica Manager can resume a half-finished wave after failover.
"""

from .campaign import (
    DEFAULT_FAILURE_THRESHOLD,
    Campaign,
    CampaignResult,
    FleetPolicy,
    PodOutcome,
    WaveSummary,
    resume_campaigns_task,
)
from .drain import (
    checkpoint_fleet_task,
    drain,
    drain_campaign,
    drain_task,
    evacuate,
    evacuate_campaign,
    evacuate_task,
)
from .world import (
    FLEET_TIMEOUTS,
    SOFT_FAULT_KINDS,
    build_fleet_world,
    run_cas_fleet_demo,
    run_evacuation_demo,
)
from .scheduler import InflightGate, Unit, pick_target, plan_waves

__all__ = [
    "Campaign",
    "CampaignResult",
    "DEFAULT_FAILURE_THRESHOLD",
    "FLEET_TIMEOUTS",
    "FleetPolicy",
    "InflightGate",
    "PodOutcome",
    "SOFT_FAULT_KINDS",
    "Unit",
    "WaveSummary",
    "build_fleet_world",
    "checkpoint_fleet_task",
    "drain",
    "drain_campaign",
    "drain_task",
    "evacuate",
    "evacuate_campaign",
    "evacuate_task",
    "pick_target",
    "plan_waves",
    "resume_campaigns_task",
    "run_cas_fleet_demo",
    "run_evacuation_demo",
]
