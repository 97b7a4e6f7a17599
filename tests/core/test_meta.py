"""Meta-data table and restart-plan derivation tests."""

import pytest

from repro.core.meta import build_pod_meta, connection_key, derive_restart_plan
from repro.errors import CheckpointError


def _rec(sock_id, local, remote=None, listening=False, origin="initiated",
         state="full-duplex", pcb=None, proto="tcp"):
    return {
        "sock_id": sock_id, "proto": proto, "local": local, "remote": remote,
        "listening": listening, "origin": origin, "meta_state": state,
        "pcb": pcb or {"sent": 100, "acked": 100, "recv": 100},
    }


def test_connection_key_is_order_independent():
    a, b = ("10.77.0.1", 50), ("10.77.0.2", 60)
    assert connection_key(a, b) == connection_key(b, a)


def test_build_pod_meta_reports_connections_and_listeners():
    records = [
        _rec(1, ("v1", 9000), listening=True),
        _rec(2, ("v1", 9000), remote=("v2", 40000), origin="accepted"),
        _rec(3, ("v1", 40001), remote=("v2", 9001)),
        _rec(4, ("v1", 7000), proto="udp"),  # datagrams are not in the table
    ]
    table = build_pod_meta("pa", records)
    states = [(e["state"], e["sock_id"]) for e in table]
    assert ("listening", 1) in states
    assert ("full-duplex", 2) in states
    assert ("full-duplex", 3) in states
    assert len(table) == 3


def _two_pod_metas(a_pcb=None, b_pcb=None):
    metas = {
        "pa": build_pod_meta("pa", [
            _rec(10, ("va", 9000), listening=True),
            _rec(11, ("va", 9000), remote=("vb", 41000), origin="accepted", pcb=a_pcb),
        ]),
        "pb": build_pod_meta("pb", [
            _rec(20, ("vb", 41000), remote=("va", 9000), origin="initiated", pcb=b_pcb),
        ]),
    }
    return metas


def test_plan_assigns_accept_to_originally_accepted_side():
    plan = derive_restart_plan(_two_pod_metas())
    (entry_a,) = plan["pa"]["schedule"]
    (entry_b,) = plan["pb"]["schedule"]
    assert entry_a["role"] == "accept"    # the paper's port-inheritance rule
    assert entry_b["role"] == "connect"
    assert plan["pa"]["listeners"] == [{"sock_id": 10, "local": ("va", 9000)}]


def test_plan_computes_overlap_discard():
    # pb sent up to 500, pa acknowledged (to pb) meaning pb.acked... model:
    # pa received up to recv=450; pb's acked=400 -> pb must discard 50.
    a_pcb = {"sent": 300, "acked": 300, "recv": 450}
    b_pcb = {"sent": 500, "acked": 400, "recv": 300}
    plan = derive_restart_plan(_two_pod_metas(a_pcb, b_pcb))
    (entry_b,) = plan["pb"]["schedule"]
    assert entry_b["send_discard"] == 450 - 400
    (entry_a,) = plan["pa"]["schedule"]
    assert entry_a["send_discard"] == 0


def test_plan_defers_connecting_singletons():
    metas = {
        "pa": build_pod_meta("pa", [
            _rec(1, ("va", 40000), remote=("vb", 9000), state="connecting"),
        ]),
        "pb": [],
    }
    plan = derive_restart_plan(metas)
    (entry,) = plan["pa"]["schedule"]
    assert entry["role"] == "defer"


def test_plan_orphans_peerless_connections():
    metas = {
        "pa": build_pod_meta("pa", [
            _rec(1, ("va", 40000), remote=("vb", 9000), state="half-duplex"),
        ]),
        "pb": [],
    }
    plan = derive_restart_plan(metas)
    (entry,) = plan["pa"]["schedule"]
    assert entry["role"] == "orphan"


def test_plan_rejects_impossible_topologies():
    # three endpoints claiming one connection cannot happen
    bad = _rec(1, ("va", 1), remote=("vb", 2))
    metas = {"pa": build_pod_meta("pa", [bad]),
             "pb": build_pod_meta("pb", [_rec(2, ("vb", 2), remote=("va", 1))]),
             "pc": build_pod_meta("pc", [_rec(3, ("va", 1), remote=("vb", 2))])}
    with pytest.raises(CheckpointError):
        derive_restart_plan(metas)

