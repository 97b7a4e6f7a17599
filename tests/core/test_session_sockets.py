"""A Manager's control sessions leave nothing behind in the stacks.

The Manager opens one TCP session per pod per operation.  Once both ends
have closed, both FINs are acknowledged and nothing of the pair is on
the fabric, the pair leaves both stacks' demux tables (``TcpConn.reap``),
so what a node holds does not grow with the number of ops it served.
"""

import gc

from repro.cluster import Cluster
from repro.core import Manager
from repro.net.sockets import Socket

TARGETS = [("blade0", "p0", "mem"), ("blade1", "p1", "mem")]


def _drained_after(n_ops):
    """Run ``n_ops`` checkpoints of two idle pods on a 2-node cluster to
    the end of the engine; returns (per-node table sizes, this world's
    sockets still alive, closed sockets still in a table)."""
    cluster = Cluster.build(2, seed=7)
    manager = Manager.deploy(cluster)
    for i in range(2):
        cluster.create_pod(cluster.node(i), f"p{i}")
    results = []

    def driver():
        for _ in range(n_ops):
            results.append((yield from manager.checkpoint_task(TARGETS)))

    cluster.engine.spawn(driver(), name="driver")
    cluster.engine.run()
    assert len(results) == n_ops and all(r.ok for r in results)
    stacks = [node.stack for node in cluster.nodes]
    held = [len(stack.bound) + len(stack.established) for stack in stacks]
    closed = [repr(sock) for stack in stacks for table in (stack.bound, stack.established)
              for sock in table.values() if sock.closed]
    gc.collect()
    live = sum(isinstance(obj, Socket) and obj.stack in stacks for obj in gc.get_objects())
    return held, live, closed


def test_checkpoint_sessions_leave_no_socket_behind():
    k = 3
    held_k, live_k, closed_k = _drained_after(k)
    held_2k, live_2k, closed_2k = _drained_after(2 * k)
    assert held_k == held_2k
    assert live_k == live_2k
    assert closed_k == closed_2k == []
