"""Cross-commit golden digests of same-seed span dumps.

The determinism tests compare two runs *inside* one commit, so a
refactor that moves every run the same way passes them all.  These
digests pin the span dump of one small episode per flush shape — serial
file flush (with a truncated write and a node crash; a recover that
fails), a Manager crash resumed by a replica, aborted by one (from the
``meta`` record with GC, and re-aborted after dying mid-abort) or
re-driven from a restart's durable plan, a live-migration stream, async
to memory only and async to fresh SAN files, the content-addressed store
(incl. the seed that stalls ``cas.write``), a fleet campaign, and the
composition episode whose Manager dies under a live migration — so a
change that shifts a span, a timestamp or a fault crossing has to say so
here.

Re-pin a digest only for a deliberate behaviour change, and name the
case and the reason in the commit message.
"""

import hashlib
from types import SimpleNamespace

import pytest

from repro.cluster import chaos
from repro.obs import to_jsonl

from ..core.test_manager_failover import run_redrive_world


def _redrive(seed):
    cluster, _manager, state = run_redrive_world(seed, trace_spans=True)
    wrong = [] if state["actions"] == [(2, "plan", "redriven")] else [
        f"takeover did not re-drive the restart: {state['actions']}"]
    return SimpleNamespace(violations=wrong,
                           span_dump=to_jsonl(cluster.tracer))


def _chaos(scenario, seed, **params):
    return lambda: chaos.run(scenario, seed, trace_spans=True, **params)


CASES = {
    "chaos-7": _chaos("serial", 7),
    "chaos-9": _chaos("serial", 9),
    "chaos-17": _chaos("serial", 17),
    "failover-continue-3": _chaos("failover", 3,
                                  crash_phase="manager.ledger.continue"),
    "failover-abort-3": _chaos("failover", 3, crash_phase="manager.ledger.abort"),
    "failover-meta-3": _chaos("failover", 3, crash_phase="manager.ledger.meta"),
    "redrive-13": lambda: _redrive(13),
    "migration-4": _chaos("migration", 4),
    "async-mem-5": _chaos("async", 5),
    "async-file-3": _chaos("async", 3),
    "cas-11": _chaos("cas", 11),
    "cas-12": _chaos("cas", 12),
    "fleet-18": _chaos("fleet", 18),
    "compose-18": _chaos("compose", 18),
}

GOLDEN = {
    "chaos-7": "a0cfe50f5d4d4122b700ad5cc76e08bc11b99d9cbddc5e1b0f7e09b8632b58af",
    "chaos-9": "79f2c43ea20eacd11d27753e2f8bdb4643e792e7a7472205161a3163f117a3dd",
    "chaos-17": "c9c4455f41adbc6f629e73387d8b73e5aff3ebdfc070277ea9d720ba699ab2eb",
    "failover-continue-3": "27cea4b83cf4d885418af5a04fb8c7a11f72ea387f9cbfd757bbb1089949f037",
    "failover-abort-3": "bdd76f22a359891843cff22b3d07305106bc53e249ccb59cd77010db4a87c397",
    "failover-meta-3": "56af15c37ae47746d68ff4976a72e27cf980e3ef9142a351a2e7e60f3be4f60f",
    "redrive-13": "6d674976d8ea34f38f5c64044c1ee592b9b548d2cab58b6b1d4998579f57ea92",
    "migration-4": "82302a2648811f7d838da5af268721ea5bd0e4091b9d17b1d4a8ecac1b1a738a",
    "async-mem-5": "c61e46eab9ab89308012cef1e2bbaede8413027f9566bc12e279cdd84ca9a136",
    "async-file-3": "78efcdc1f286168ebb42a277fafbd6ecbdb5ccb9ed450f5cd38d423a621cec63",
    "cas-11": "0081fe5a41ceece4d93c7aa2aba2ef3cf2402cfe78c2d6d890e9d2db02177e24",
    "cas-12": "f1a00b109a286c113952e03dc4bc8c45efbe1c5b671b1bb3df2e69cb83eb49bd",
    "fleet-18": "55d91be7e029e0fa11d5a8307bf1f4eb8609f3b57c003748689d3a4a93f82b13",
    "compose-18": "9be3c0ff385a845007ad2e6a2847e2c8669b24aa37b4d5234bfeb6f9ef3e9493",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_span_dump_digest_is_pinned(case):
    report = CASES[case]()
    assert report.violations == []
    digest = hashlib.sha256(report.span_dump.encode()).hexdigest()
    assert digest == GOLDEN[case], (
        f"{case}: span dump moved (now {digest}); if the change is "
        "deliberate, re-pin it and say why in the commit message")
