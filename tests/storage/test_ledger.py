"""The durable op ledger: append/replay/claim semantics.

The ledger is the whole basis of Manager failover, so its replay has to
be exact under the messy cases a real WAL sees: a torn final line (the
writer died mid-append), duplicate claims racing for one orphan, and
stale leases that must not block a takeover forever.
"""

from repro.storage import CAMPAIGNS, LEDGER_PATH, OpLedger, SharedStorage


def _ledger():
    return OpLedger(SharedStorage())


def test_append_and_replay_folds_phases():
    led = _ledger()
    led.append({"rec": "op", "op": 1, "phase": "begin", "kind": "checkpoint",
                "targets": [["blade1", "p0", "file:/san/p0.img"]],
                "context": "snapshot", "owner": "mgr0", "lease": 30.0, "t": 0.0})
    led.append({"rec": "phase", "op": 1, "phase": "meta", "owner": "mgr0",
                "lease": 31.0, "t": 1.0, "pods": ["p0"]})
    led.append({"rec": "phase", "op": 1, "phase": "continue", "owner": "mgr0",
                "lease": 32.0, "t": 2.0})
    ops = led.replay()
    assert set(ops) == {1}
    op = ops[1]
    assert op.kind == "checkpoint"
    assert op.phase == "continue"
    assert op.targets == [("blade1", "p0", "file:/san/p0.img")]
    assert op.owner == "mgr0"
    assert op.lease_until == 32.0
    assert op.fields["pods"] == ["p0"]       # per-phase payload merged
    assert not op.terminal
    assert led.new_id() == 2


def test_terminal_phases_end_the_op():
    led = _ledger()
    led.append({"rec": "op", "op": 1, "phase": "begin", "kind": "checkpoint",
                "targets": [], "owner": "mgr0", "lease": 5.0, "t": 0.0})
    led.append({"rec": "phase", "op": 1, "phase": "commit", "owner": "mgr0",
                "lease": 6.0, "t": 1.0})
    assert led.replay()[1].terminal
    assert led.orphaned(now=100.0) == []
    assert led.last_committed("checkpoint").op_id == 1


def test_truncated_last_record_is_discarded():
    """A torn tail (writer died mid-append) must not poison the scan:
    every complete record before it still replays."""
    led = _ledger()
    led.append({"rec": "op", "op": 1, "phase": "begin", "kind": "checkpoint",
                "targets": [], "owner": "mgr0", "lease": 5.0, "t": 0.0})
    led.append({"rec": "phase", "op": 1, "phase": "meta", "owner": "mgr0",
                "lease": 6.0, "t": 1.0})
    # tear the file mid-way through the last record
    f = led.fs.files[led.path]
    torn = bytes(f.data)[:-9]
    del f.data[:]
    f.data.extend(torn)
    ops = led.replay()
    assert led.skipped == 1
    assert ops[1].phase == "begin"           # the torn meta record is gone
    assert led.new_id() == 2                 # op ids still monotonic


def test_corrupt_middle_line_is_skipped():
    led = _ledger()
    led.append({"rec": "op", "op": 1, "phase": "begin", "kind": "restart",
                "targets": [], "owner": "mgr0", "lease": 5.0, "t": 0.0})
    led._file().data += b"{not json at all\n"
    led.append({"rec": "phase", "op": 1, "phase": "commit", "owner": "mgr0",
                "lease": 9.0, "t": 2.0})
    ops = led.replay()
    assert led.skipped == 1
    assert ops[1].terminal


def test_duplicate_claim_is_refused_under_live_lease():
    """Two replicas race for one orphan: the first claim wins, the
    second is refused while the winner's lease is live."""
    led = _ledger()
    led.append({"rec": "op", "op": 1, "phase": "meta", "kind": "checkpoint",
                "targets": [], "owner": "mgr0", "lease": 3.0, "t": 0.0})
    assert led.claim(1, "mgr1", now=5.0, lease_s=10.0)    # lease expired at 3
    assert not led.claim(1, "mgr2", now=6.0, lease_s=10.0)  # mgr1 holds it
    op = led.replay()[1]
    assert op.owner == "mgr1"
    assert op.claims == ["mgr1"]
    # re-claiming your own op just renews the lease
    assert led.claim(1, "mgr1", now=7.0, lease_s=10.0)
    assert led.replay()[1].lease_until == 17.0


def test_stale_lease_is_claimable():
    """A claim whose holder also died becomes claimable once *its*
    lease expires — leases chain, they do not deadlock."""
    led = _ledger()
    led.append({"rec": "op", "op": 1, "phase": "continue", "kind": "checkpoint",
                "targets": [], "owner": "mgr0", "lease": 3.0, "t": 0.0})
    assert led.claim(1, "mgr1", now=4.0, lease_s=5.0)     # mgr1: lease to 9
    assert not led.claim(1, "mgr2", now=8.0, lease_s=5.0)
    assert led.claim(1, "mgr2", now=9.5, lease_s=5.0)     # mgr1's lease stale
    assert led.replay()[1].claims == ["mgr1", "mgr2"]


def test_claim_refuses_unknown_and_terminal_ops():
    led = _ledger()
    assert not led.claim(42, "mgr1", now=0.0, lease_s=5.0)
    led.append({"rec": "op", "op": 1, "phase": "begin", "kind": "checkpoint",
                "targets": [], "owner": "mgr0", "lease": 1.0, "t": 0.0})
    led.append({"rec": "phase", "op": 1, "phase": "aborted", "owner": "mgr0",
                "lease": 1.0, "t": 0.5})
    assert not led.claim(1, "mgr1", now=10.0, lease_s=5.0)


def test_orphaned_orders_by_op_id_and_respects_leases():
    led = _ledger()
    for op_id, lease in ((3, 2.0), (1, 2.0), (2, 50.0)):
        led.append({"rec": "op", "op": op_id, "phase": "meta",
                    "kind": "checkpoint", "targets": [], "owner": "mgr0",
                    "lease": lease, "t": 0.0})
    orphans = led.orphaned(now=10.0)
    assert [o.op_id for o in orphans] == [1, 3]   # op 2's lease still live


def test_records_are_deterministic_bytes():
    """Sorted keys + compact separators: the same appends produce the
    same bytes, which is what keeps chaos traces byte-comparable."""
    led_a, led_b = _ledger(), _ledger()
    for led in (led_a, led_b):
        led.append({"t": 0.0, "op": 1, "rec": "op", "phase": "begin",
                    "kind": "checkpoint", "targets": [], "owner": "m",
                    "lease": 1.0})
    assert bytes(led_a.fs.files[LEDGER_PATH].data) == \
        bytes(led_b.fs.files[LEDGER_PATH].data)
    assert b'"lease":1.0' in bytes(led_a.fs.files[LEDGER_PATH].data)


def test_ledger_path_created_on_first_append():
    led = _ledger()
    assert not led.fs.exists(LEDGER_PATH)
    assert led.records() == []               # scanning a missing log is fine
    led.append({"rec": "op", "op": 1, "phase": "begin", "t": 0.0})
    assert led.fs.exists(LEDGER_PATH)


# ---------------------------------------------------------------------------
# the campaign record family (fleet orchestration)
# ---------------------------------------------------------------------------

def _camp(led, phase, cid=1, t=0.0, lease=None, owner="mgr0", **fields):
    led.append(dict({"rec": "campaign", "cid": cid, "phase": phase,
                     "owner": owner, "lease": t + 30.0 if lease is None
                     else lease, "t": t}, **fields))


def _begin(led, cid=1, t=0.0, owner="mgr0"):
    _camp(led, "begin", cid=cid, t=t, owner=owner, kind="drain",
          units=[["blade1", "p0", ""], ["blade1", "p1", ""]],
          waves=[["p0"], ["p1"]],
          policy={"max_inflight": 2, "wave_size": 1, "exclude": ["blade1"]})


def test_campaign_records_fold_to_state():
    led = _ledger()
    _begin(led)
    _camp(led, "wave", t=1.0, wave=0, pods=1)
    _camp(led, "pod", t=2.0, wave=0, pod="p0", status="ok", op=7,
          downtime=0.25, attempts=1)
    _camp(led, "wave-done", t=3.0, wave=0, ok=1, failed=0)
    camps = led.replay(CAMPAIGNS)
    assert set(camps) == {1}
    camp = camps[1]
    assert camp.kind == "drain"
    assert camp.phase == "wave-done"
    assert camp.units == [("blade1", "p0", ""), ("blade1", "p1", "")]
    assert camp.waves == [["p0"], ["p1"]]
    assert camp.policy["exclude"] == ["blade1"]
    assert camp.pods["p0"]["status"] == "ok"
    assert camp.done_pods == ["p0"]
    assert camp.wave_owners == {0: "mgr0"}
    assert camp.waves_done == [0]
    assert not camp.terminal
    assert led.new_id(CAMPAIGNS) == 2


def test_campaign_terminal_phases():
    led = _ledger()
    for cid, phase in ((1, "commit"), (2, "halted"), (3, "aborted")):
        _begin(led, cid=cid)
        _camp(led, phase, cid=cid, t=5.0)
    camps = led.replay(CAMPAIGNS)
    assert all(c.terminal for c in camps.values())
    assert led.orphaned(now=1000.0, family=CAMPAIGNS) == []


def test_campaign_torn_tail_mid_wave_is_resumable():
    """The Manager died while appending a mid-wave pod record: the torn
    line is discarded and the fold ends at the last durable record —
    exactly the state a resuming replica re-drives from."""
    led = _ledger()
    _begin(led)
    _camp(led, "wave", t=1.0, wave=0, pods=1)
    _camp(led, "pod", t=2.0, wave=0, pod="p0", status="ok", op=7,
          downtime=0.25, attempts=1)
    _camp(led, "pod", t=3.0, wave=1, pod="p1", status="ok", op=8,
          downtime=0.3, attempts=1)
    f = led.fs.files[led.path]
    torn = bytes(f.data)[:-11]               # tear the p1 record mid-line
    del f.data[:]
    f.data.extend(torn)
    camp = led.replay(CAMPAIGNS)[1]
    assert led.skipped == 1
    assert camp.done_pods == ["p0"]          # p1's outcome never became durable
    assert camp.phase == "pod"
    assert not camp.terminal
    # the campaign is orphanable once its last durable lease expires
    orphans = led.orphaned(now=100.0, family=CAMPAIGNS)
    assert [c.cid for c in orphans] == [1]


def test_duplicate_wave_claim_first_writer_wins():
    """Two Managers racing one wave: the first wave record owns it; the
    duplicate is kept in the audit trail but does not steal ownership."""
    led = _ledger()
    _begin(led)
    _camp(led, "wave", t=1.0, wave=0, pods=1, owner="mgr0")
    _camp(led, "wave", t=2.0, wave=0, pods=1, owner="mgr1")
    camp = led.replay(CAMPAIGNS)[1]
    assert camp.wave_owners == {0: "mgr0"}   # first writer wins
    assert camp.wave_claims == [(0, "mgr0"), (0, "mgr1")]


def test_campaign_claim_respects_live_lease():
    led = _ledger()
    _begin(led, t=0.0)                       # lease runs to t=30
    claim = dict(lease_s=5.0, family=CAMPAIGNS)
    assert not led.claim(1, "mgr1", now=10.0, **claim)
    assert led.claim(1, "mgr1", now=31.0, **claim)
    assert not led.claim(2, "mgr1", now=31.0, **claim)  # unknown
    camp = led.replay(CAMPAIGNS)[1]
    assert camp.owner == "mgr1"
    assert camp.claims == ["mgr1"]
    _camp(led, "commit", t=40.0, owner="mgr1")
    assert not led.claim(1, "mgr2", now=100.0, **claim)  # terminal


def test_campaign_records_do_not_disturb_op_replay():
    """The two families share one log: folding one must never leak into
    the other, and id allocation stays per-family."""
    led = _ledger()
    led.append({"rec": "op", "op": 3, "phase": "commit", "kind": "checkpoint",
                "targets": [], "owner": "mgr0", "lease": 1.0, "t": 0.0})
    _begin(led, cid=7)
    # campaign pod records carry an "op" field (the op that did the
    # work); it must not mint op state or bump the op id allocator
    _camp(led, "pod", cid=7, t=2.0, wave=0, pod="p0", status="ok", op=3,
          downtime=0.1, attempts=1)
    ops = led.replay()
    assert set(ops) == {3}
    assert led.new_id() == 4
    assert led.new_id(CAMPAIGNS) == 8
    camps = led.replay(CAMPAIGNS)
    assert set(camps) == {7}


def test_id_caches_follow_appends():
    """``new_id`` is O(1) after the first scan: the allocator tracks
    appends instead of re-parsing the log per allocation, and reserves
    every id it hands out, written or not."""
    led = _ledger()
    assert led.new_id() == 1
    assert led.new_id(CAMPAIGNS) == 1
    led.append({"rec": "op", "op": 1, "phase": "begin", "t": 0.0})
    _begin(led, cid=1, t=0.0)
    assert led.new_id() == 2
    assert led.new_id(CAMPAIGNS) == 2
    # both ids 2 were handed out but never written: neither is reused
    assert led.new_id() == 3
    assert led.new_id(CAMPAIGNS) == 3
    # a record written past the allocator moves it on
    led.append({"rec": "op", "op": 9, "phase": "begin", "t": 0.0})
    assert led.new_id() == 10
    # a second instance over the same file scans fresh and agrees on
    # what is durable
    other = OpLedger(led.fs)
    assert other.new_id() == 10
    assert other.new_id(CAMPAIGNS) == 2
