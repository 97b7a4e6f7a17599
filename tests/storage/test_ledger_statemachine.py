"""A stateful model check of the op ledger's one protocol.

Hypothesis drives one ``OpLedger`` file through what Managers do to it,
over both record families at once: open an entry (``begin``, its id
from the allocator), reserve an id that never gets a record (a refused
op, a migration's pre-copy id), write phase and terminal records, write
a ``wave`` a second owner already started (two Managers racing after a
messy failover), write a campaign ``pod`` record that names an op,
append a record whose id the allocator never handed out, let time pass,
claim, crash a Manager (it stops renewing), tear the tail mid-append,
and hand the file to a replica (a second ``OpLedger``: a fresh id
cache).  Next to it sits a model of plain dicts: per family, per id, the
phase, owner, lease, claims and first/last record time; per campaign,
the first owner of each wave and each pod's status; and the set of ids
the live ledger must never hand out again.

After every step the ledger must agree with the model: ``replay`` of
each family, ``orphaned(now)`` of each family, the torn lines the scan
skipped, and an ended entry refusing a claim even from its owner.  Every
claim returns what the lease rule says, and every allocation is the
smallest id above everything used.

The mutations at the bottom are the bugs this exists for: each must
fail it.
"""

import json

import pytest

from repro.storage import ledger
from repro.storage.san import SharedStorage

from ..mutation import mutant

pytest.importorskip("hypothesis")
from hypothesis import Phase, settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine, initialize, invariant, rule,
    run_state_machine_as_test)

OWNERS = ("mgr0", "mgr1", "mgr2")
LEASE = 5.0
#: in-flight phases per family past ``begin`` (campaign ``pod`` records
#: have a rule of their own).
PHASES = {"op": ("meta", "continue", "done", "flush"),
          "cid": ("wave", "wave-done")}
#: the record kind a family's non-claim records carry.
REC = {"op": "phase", "cid": "campaign"}
#: the attribute a folded entry keeps its id in.
ID_ATTR = {"op": "op_id", "cid": "cid"}

_keys = st.sampled_from(sorted(PHASES))
_owners = st.sampled_from(OWNERS)
_pick = st.integers(0, 63)


class LedgerMachine(RuleBasedStateMachine):
    #: the module under test (a mutant, in the tests at the bottom).
    impl = ledger

    def __init__(self):
        super().__init__()
        self.san = SharedStorage()
        self.led = self.impl.OpLedger(self.san)
        self.family = {"op": self.impl.OPS, "cid": self.impl.CAMPAIGNS}
        self.now = 0.0
        self.dead = set()
        #: torn lines in the file, and whether the last one is the tail
        #: (a second tear before any append extends the same line).
        self.torn = 0
        self.tail_torn = False
        #: family key -> id -> the entry as the model sees it.
        self.model = {key: {} for key in PHASES}
        #: family key -> ids the live ledger must not hand out again.
        self.used = {key: set() for key in PHASES}

    # -- helpers ---------------------------------------------------------
    def _choose(self, key, pick, ended=False):
        """An open entry (an ended one with ``ended``), or None."""
        ids = sorted(eid for eid, e in self.model[key].items()
                     if self._terminal(key, e) == ended)
        return ids[pick % len(ids)] if ids else None

    def _terminal(self, key, entry):
        return entry["phase"] in self.family[key].terminal

    def _write(self, key, eid, owner, **fields):
        """One durable record through the one writer; the model's
        lease renewal and record times follow it."""
        self.led.write(self.family[key], eid, owner, self.now, LEASE,
                       rec=fields.pop("rec", REC[key]), **fields)
        self.tail_torn = False
        entry = self.model[key].setdefault(eid, {
            "phase": "begin", "owner": None, "lease": 0.0, "claims": [],
            "t0": self.now, "waves": {}, "pods": {}})
        entry["t1"] = self.now
        return entry

    def _renew(self, entry, owner, phase):
        entry.update(owner=owner, lease=self.now + LEASE, phase=phase)

    def _open(self, key, eid, owner):
        payload = ({"rec": "op", "kind": "checkpoint", "targets": []}
                   if key == "op" else
                   {"kind": "drain", "units": [["blade1", "p0", ""]],
                    "waves": [["p0"]], "policy": {}})
        self._renew(self._write(key, eid, owner, phase="begin", **payload),
                    owner, "begin")
        self.used[key].add(eid)

    def _owned(self, key, pick):
        """An open entry whose owner still lives, or None."""
        eid = self._choose(key, pick)
        if eid is None or self.model[key][eid]["owner"] in self.dead:
            return None
        return eid

    def _phase(self, key, eid, phase, **fields):
        """The owner's next record: it renews the lease."""
        entry = self.model[key][eid]
        self._write(key, eid, entry["owner"], phase=phase, **fields)
        self._renew(entry, entry["owner"], phase)
        return entry

    def _start_wave(self, eid):
        waves = self.model["cid"][eid]["waves"]
        wave = len(waves)
        self._phase("cid", eid, "wave", wave=wave)
        waves[wave] = self.model["cid"][eid]["owner"]

    # -- the rules -------------------------------------------------------
    @initialize()
    def open_one_of_each(self):
        for key in PHASES:
            self.allocate(key, OWNERS[0])

    @rule(key=_keys, owner=_owners)
    def allocate(self, key, owner, write=True):
        """A fresh id, opened with a begin record."""
        if owner in self.dead:
            return
        eid = self.led.new_id(self.family[key])
        assert eid == max(self.used[key], default=0) + 1, (eid, self.used)
        self.used[key].add(eid)
        if write:
            self._open(key, eid, owner)

    @rule(key=_keys, owner=_owners)
    def reserve(self, key, owner):
        """A fresh id that never gets a record (a refused op, a
        migration's pre-copy id)."""
        self.allocate(key, owner, write=False)

    @rule(key=_keys, owner=_owners, skip=st.integers(1, 3))
    def foreign_begin(self, key, owner, skip):
        """A begin whose id the allocator never handed out (a record
        copied in from another log) still moves the allocator on."""
        self._open(key, max(self.used[key], default=0) + skip, owner)
        self.allocate(key, owner, write=False)

    @rule(key=_keys, pick=_pick, phase=st.integers(0, 3))
    def advance(self, key, pick, phase):
        """The owner writes an in-flight phase (a campaign's ``wave``
        starts the next wave)."""
        eid = self._owned(key, pick)
        if eid is None:
            return
        phase = PHASES[key][phase % len(PHASES[key])]
        if phase == "wave":
            self._start_wave(eid)
        else:
            waves = self.model[key][eid]["waves"]
            self._phase(key, eid, phase, wave=max(waves, default=0))

    @rule(pick=_pick, op=st.integers(1, 4))
    def pod(self, pick, op):
        """A unit outcome: the campaign's pod record names the op that
        did the work."""
        eid = self._owned("cid", pick)
        if eid is None:
            return
        entry = self.model["cid"][eid]
        name, status = f"p{op % 3}", "ok" if op % 2 else "failed"
        self._phase("cid", eid, "pod", wave=max(entry["waves"], default=0),
                    pod=name, op=op, status=status)
        entry["pods"][name] = status

    @rule(key=_keys, pick=_pick, end=st.integers(0, 2))
    def finish(self, key, pick, end):
        """The owner writes a terminal phase."""
        eid = self._owned(key, pick)
        if eid is not None:
            terminal = self.family[key].terminal
            self._phase(key, eid, terminal[end % len(terminal)])

    @rule(pick=_pick, racer=_owners)
    def duplicate_wave(self, pick, racer):
        """A second owner writes the wave the owner started last (the
        owner starts one first if there is none): it stays on the audit
        trail and changes nothing else."""
        eid = self._owned("cid", pick)
        if eid is None or racer in self.dead \
                or racer == self.model["cid"][eid]["owner"]:
            return
        waves = self.model["cid"][eid]["waves"]
        if not waves:
            self._start_wave(eid)
        self._write("cid", eid, racer, phase="wave", wave=max(waves))

    @rule(dt=st.sampled_from([LEASE + 0.5, 0.5]))
    def tick(self, dt):
        self.now += dt

    @rule(key=_keys, pick=_pick,
          which=st.sampled_from(["ended", "open", "new"]),
          claimer=st.sampled_from(OWNERS + ("owner",)))
    def claim(self, key, pick, which, claimer):
        """Claim an open entry, an ended one, or an id no record has —
        by any Manager, or by the entry's owner renewing its lease."""
        eid = self._choose(key, pick, ended=which == "ended")
        if eid is None or which == "new":
            eid = max(self.used[key], default=0) + 7
        entry = self.model[key].get(eid)
        if claimer == "owner":
            claimer = entry["owner"] if entry else OWNERS[0]
        if claimer in self.dead:
            return
        expect = (entry is not None and not self._terminal(key, entry)
                  and (entry["owner"] in (None, claimer)
                       or self.now >= entry["lease"]))
        got = self.led.claim(eid, claimer, self.now, LEASE,
                             family=self.family[key])
        assert got == expect, (key, eid, claimer, self.now, entry)
        if got:
            self.tail_torn = False
            entry["claims"].append(claimer)
            entry.update(owner=claimer, lease=self.now + LEASE, t1=self.now)

    @rule(owner=_owners)
    def crash(self, owner):
        """A Manager dies: it writes nothing more, so its leases run out
        (one always lives on to claim them)."""
        if len(self.dead) < len(OWNERS) - 1:
            self.dead.add(owner)

    @rule(key=_keys, pick=_pick, cut=st.floats(0.05, 0.95))
    def torn_tail(self, key, pick, cut):
        """A writer dies mid-append: part of a line, no newline."""
        eid = self._choose(key, pick) or 1
        line = json.dumps({"rec": REC[key], key: eid, "phase": "flush",
                           "owner": "mgr0", "t": self.now})
        self.led._file().data += \
            line[:max(1, int(len(line) * cut))].encode("ascii")
        self.torn += not self.tail_torn
        self.tail_torn = True

    @rule()
    def replica(self):
        """A second OpLedger over the same file: a fresh id cache, which
        may reuse nothing durable (ids only reserved are fair game)."""
        self.led = self.impl.OpLedger(self.san)
        self.used = {key: set(self.model[key]) for key in PHASES}

    # -- what must hold after every one of them ---------------------------
    @invariant()
    def replay_matches_the_model(self):
        for key, family in self.family.items():
            folded = self.led.replay(family)
            assert self.led.skipped == self.torn
            assert set(folded) == set(self.model[key]), key
            for eid, entry in self.model[key].items():
                got = folded[eid]
                assert (got.phase, got.owner, got.lease_until, got.claims,
                        got.t_first, got.t_last, got.terminal) == (
                    entry["phase"], entry["owner"], entry["lease"],
                    entry["claims"], entry["t0"], entry["t1"],
                    self._terminal(key, entry)), (key, eid)
                if key == "cid":
                    assert got.wave_owners == entry["waves"]
                    assert {p: r["status"] for p, r in got.pods.items()} \
                        == entry["pods"]

    @invariant()
    def orphans_are_the_expired_open_entries(self):
        for key, family in self.family.items():
            orphans = [getattr(e, ID_ATTR[key])
                       for e in self.led.orphaned(self.now, family)]
            assert orphans == sorted(
                eid for eid, e in self.model[key].items()
                if not self._terminal(key, e) and self.now >= e["lease"])

    @invariant()
    def ended_entries_refuse_even_their_owner(self):
        for key, family in self.family.items():
            for eid, entry in self.model[key].items():
                if self._terminal(key, entry):
                    assert not self.led.claim(eid, entry["owner"], self.now,
                                              LEASE, family=family)


SETTINGS = settings(max_examples=80, stateful_step_count=30, deadline=None,
                    derandomize=True, database=None)

TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = SETTINGS


# ---------------------------------------------------------------------------
# hand mutations: each must fail the machine
# ---------------------------------------------------------------------------

MUTATIONS = {
    "a claim that ignores the lease": (
        "        if entry.owner is not None and entry.owner != owner \\\n"
        "                and now < entry.lease_until:\n"
        "            return False\n", ""),
    "a claim that ignores terminal phases": (
        "        if entry is None or entry.terminal:\n",
        "        if entry is None:\n"),
    "a duplicate wave that takes ownership": (
        "                return False          # duplicate: the first writer won\n",
        "                pass\n"),
    # the op fold keys on "op", so a campaign's pod record mints op state
    "an op fold that swallows campaign pod records": (
        "        return (\"cid\" in rec) == (self.key == \"cid\")\n",
        "        return self.key in rec\n"),
    "an append that skips the id cache": (
        "        if key in self._top and key in record:\n",
        "        if False:\n"),
    # the first record after a torn tail is glued onto it and lost
    "an append that continues a torn line": (
        "        if data and data[-1] != 10:\n",
        "        if False:\n"),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutated_ledger_fails_the_machine(name):
    class Broken(LedgerMachine):
        impl = mutant(ledger, *MUTATIONS[name])

    with pytest.raises(AssertionError):
        run_state_machine_as_test(Broken, settings=settings(
            SETTINGS, max_examples=200, phases=[Phase.generate]))
