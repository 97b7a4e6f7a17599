"""Node drain and datacenter evacuation, as campaigns.

``drain(node)`` live-migrates every pod off one blade (PR 5 pre-copy,
one single-move migration per pod), with destinations drawn least-
loaded-first from the blades that remain; ``evacuate(nodes)`` composes
the same mechanism across a whole rack or datacenter slice — all the
doomed nodes are excluded from target selection up front, so a pod
never hops from one evacuating blade to another.

Both are thin planners over :class:`~repro.fleet.campaign.Campaign`:
they enumerate the pods (sorted, for determinism), build the unit list
with an empty destination (resolved by load at launch time), and hand
the policy through.  The campaign claims the drained nodes in the
Manager's per-node op exclusion table for its whole lifetime, so a
concurrent ``recover()`` cannot destroy-and-restart the very pods the
drain is migrating (and vice versa).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..storage.ledger import CAMPAIGNS
from .campaign import Campaign, CampaignResult, FleetPolicy
from .scheduler import Unit


def _units_for_nodes(cluster, node_names: Sequence[str]) -> List[Unit]:
    units: List[Unit] = []
    for name in node_names:
        node = cluster.node_by_name(name)
        for pod_id in sorted(node.kernel.pods):
            units.append((name, pod_id, ""))
    return units


def drain_campaign(manager, node_name: str,
                   policy: Optional[FleetPolicy] = None,
                   timeouts=None) -> Campaign:
    """Build (but do not run) the drain campaign for one node."""
    units = _units_for_nodes(manager.cluster, [node_name])
    return Campaign(manager, "drain", units, policy=policy,
                    exclude=(node_name,), timeouts=timeouts)


def drain_task(manager, node_name: str,
               policy: Optional[FleetPolicy] = None, timeouts=None):
    """Generator: live-migrate every pod off ``node_name``.

    Returns the :class:`CampaignResult`; an empty node yields an
    immediately-ok empty campaign.  The node is claimed against
    concurrent recovers for the duration.
    """
    camp = drain_campaign(manager, node_name, policy=policy,
                          timeouts=timeouts)
    result = yield from camp.run_task()
    return result


def drain(manager, node_name: str, **kw):
    """Spawn a drain; the Task resolves to a CampaignResult."""
    return manager._spawn(drain_task(manager, node_name, **kw),
                          name=f"fleet-drain-{node_name}")


def evacuate_campaign(manager, node_names: Sequence[str],
                      policy: Optional[FleetPolicy] = None,
                      timeouts=None) -> Campaign:
    """Build (but do not run) the evacuation campaign for many nodes.

    Units are ordered node by node (the order given), pods sorted within
    each node; every named node is excluded from target selection for
    every move.
    """
    units = _units_for_nodes(manager.cluster, node_names)
    return Campaign(manager, "evacuate", units, policy=policy,
                    exclude=tuple(node_names), timeouts=timeouts)


def evacuate_task(manager, node_names: Sequence[str],
                  policy: Optional[FleetPolicy] = None, timeouts=None):
    """Generator: evacuate every pod off every node in ``node_names``."""
    camp = evacuate_campaign(manager, node_names, policy=policy,
                             timeouts=timeouts)
    result = yield from camp.run_task()
    return result


def evacuate(manager, node_names: Sequence[str], **kw):
    """Spawn an evacuation; the Task resolves to a CampaignResult."""
    return manager._spawn(evacuate_task(manager, node_names, **kw),
                          name="fleet-evacuate")


def checkpoint_fleet_task(manager, uri_prefix: str = "file:/san/fleet",
                          policy: Optional[FleetPolicy] = None,
                          timeouts=None, pods: Optional[Sequence[str]] = None):
    """Generator: rolling coordinated checkpoint of every pod (or the
    named subset), one single-pod op per unit, in waves.

    Each pod's image lands at ``<uri_prefix>-c<cid>-<pod>.img`` (a flat
    SAN namespace — the shared vfs has no mkdir).
    """
    cluster = manager.cluster
    cid = manager.ledger.new_id(CAMPAIGNS)
    units: List[Unit] = []
    wanted = set(pods) if pods is not None else None
    for node in cluster.nodes:
        if node.crashed:
            continue
        for pod_id in sorted(node.kernel.pods):
            if wanted is not None and pod_id not in wanted:
                continue
            units.append((node.name, pod_id,
                          f"{uri_prefix}-c{cid}-{pod_id}.img"))
    camp = Campaign(manager, "checkpoint", units, policy=policy, cid=cid,
                    timeouts=timeouts)
    result = yield from camp.run_task()
    return result


__all__ = [
    "CampaignResult",
    "checkpoint_fleet_task",
    "drain",
    "drain_campaign",
    "drain_task",
    "evacuate",
    "evacuate_campaign",
    "evacuate_task",
]
