"""Checkpoint *meta-data*: the network connectivity table and schedules.

At checkpoint each Agent reports a table describing "all the network
connections of the pod ... The source and target fields describe the
connection endpoint IP addresses and port numbers.  The state field
reflects the state of the connection, which may be full-duplex,
half-duplex, closed (in which case there may still be unread data), or
connecting."

At restart the Manager derives from the collected tables "a new network
connectivity map by substituting the destination network addresses in
place of the original addresses" and "a schedule that indicates for
each connection which peer will initiate and which peer will accept ...
tagging each entry as either a connect or accept type", honoring the
source-port-inheritance constraint for connections sharing a port.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..errors import CheckpointError

Ep = Tuple[str, int]


def connection_key(src: Ep, dst: Ep) -> Tuple[Ep, Ep]:
    """Order-independent identity of a connection (the 4-tuple)."""
    return (src, dst) if (src, dst) <= (dst, src) else (dst, src)


def build_pod_meta(pod_id: str, socket_records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The per-pod connection table an Agent reports in step 2a.

    One entry per TCP connection endpoint living in the pod (listeners
    are reported too, flagged, so restart can rebuild them).
    """
    table: List[Dict[str, Any]] = []
    for rec in socket_records:
        if rec["proto"] != "tcp":
            continue
        if rec["listening"]:
            table.append({
                "pod": pod_id,
                "sock_id": rec["sock_id"],
                "src": rec["local"],
                "dst": None,
                "state": "listening",
                "origin": None,
                "pcb": None,
            })
        elif rec["remote"] is not None:
            table.append({
                "pod": pod_id,
                "sock_id": rec["sock_id"],
                "src": rec["local"],
                "dst": rec["remote"],
                "state": rec["meta_state"],
                "origin": rec["origin"],
                "pcb": rec["pcb"],
            })
    return table


def derive_restart_plan(
    metas: Dict[str, List[Dict[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    """Build each pod's restart instructions from the merged meta-data.

    Returns ``{pod_id: {"listeners": [...], "schedule": [...]}}`` where
    each schedule entry carries the connect/accept role, the endpoint
    pair, and ``send_discard`` — the byte count of send-queue overlap to
    drop, computed from the two PCBs via the ``recv₁ ≥ acked₂``
    invariant ("it is more advantageous to discard that of the send
    queue to avoid transferring it over the network").
    """
    # index connection endpoints by 4-tuple
    endpoints: Dict[Tuple[Ep, Ep], List[Dict[str, Any]]] = {}
    plan: Dict[str, Dict[str, Any]] = {
        pod_id: {"listeners": [], "schedule": []} for pod_id in metas
    }
    for pod_id, table in metas.items():
        for entry in table:
            if entry["state"] == "listening":
                plan[pod_id]["listeners"].append(
                    {"sock_id": entry["sock_id"], "local": entry["src"]}
                )
            elif entry["dst"] is not None:
                key = connection_key(tuple(entry["src"]), tuple(entry["dst"]))
                endpoints.setdefault(key, []).append(entry)

    for key, ends in endpoints.items():
        if len(ends) > 2:
            raise CheckpointError(f"connection {key} has {len(ends)} endpoints")
        if len(ends) == 1:
            (entry,) = ends
            if entry["state"] == "connecting":
                # mid-handshake active open: the peer held no checkpointable
                # socket yet; the blocked connect syscall re-drives the
                # handshake after restart
                role = "defer"
            else:
                # the peer's socket was already closed and released: no one
                # to reconnect to; restore queued data + EOF only
                role = "orphan"
            plan[entry["pod"]]["schedule"].append({
                "sock_id": entry["sock_id"],
                "role": role,
                "src": tuple(entry["src"]),
                "dst": tuple(entry["dst"]),
                "state": entry["state"],
                "send_discard": 0,
                "peer_pod": None,
                "peer_sock_id": None,
            })
            continue
        a, b = ends
        # pick the accept side: the endpoint originally created by accept
        # must be recreated through a listener so it inherits the shared
        # source port; with no accepted side the choice is arbitrary.
        if a["origin"] == "accepted":
            acceptor, connector = a, b
        elif b["origin"] == "accepted":
            acceptor, connector = b, a
        else:
            acceptor, connector = (a, b) if tuple(a["src"]) <= tuple(b["src"]) else (b, a)
        for me, peer, role in ((acceptor, connector, "accept"), (connector, acceptor, "connect")):
            discard = 0
            if me["pcb"] is not None and peer["pcb"] is not None:
                # bytes of my send queue the peer already received
                discard = max(0, peer["pcb"]["recv"] - me["pcb"]["acked"])
            plan[me["pod"]]["schedule"].append({
                "sock_id": me["sock_id"],
                "role": role if me["state"] != "connecting" else "defer",
                "src": tuple(me["src"]),
                "dst": tuple(me["dst"]),
                "state": me["state"],
                "send_discard": discard,
                "peer_pod": peer["pod"],
                "peer_sock_id": peer["sock_id"],
            })
    return plan

