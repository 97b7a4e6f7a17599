"""The durable op ledger: a JSONL write-ahead log on the SAN.

The Manager is the protocol's lone unreplicated component — the paper's
coordinator "can be run from anywhere", which also means it can die
anywhere, stranding an in-flight coordinated operation.  The cure
(DMTCP's coordinator model, and the stateless-agent exemplars) is to
make the coordinator state *recoverable*: every operation appends a
record to this ledger at each phase boundary, so any replica Manager
can scan the log, reconstruct each op's last durable phase, and either
finish the op or abort it through the tombstone-GC path.

The ledger lives on the SAN (the one :class:`FileSystem` instance every
blade mounts), so durability and visibility come for free from the
shared-storage assumption the paper already makes.  Records are one
JSON object per line with sorted keys — byte-identical across same-seed
runs, which keeps the chaos determinism oracle intact.  Appends are
modeled as free (a ledger record is tens of bytes riding the SAN's
metadata path; charging FC latency per record would perturb every
existing latency figure for no modeling value).

Two record families share the log and one protocol:

==========  =======  ==================  ====================================
family      id key   claim record        terminal phases
==========  =======  ==================  ====================================
op          ``op``   ``claim``           ``commit``, ``aborted``
campaign    ``cid``  ``campaign-claim``  ``commit``, ``halted``, ``aborted``
==========  =======  ==================  ====================================

A record belongs to the campaign family iff it carries ``cid`` (a
campaign's ``pod`` record also names the ``op`` that did the work).
Every record carries its id, ``phase``, ``owner``, ``lease`` (absolute
expiry) and ``t``; writing one *renews the owner's lease*.  A claim
record transfers ownership of an orphan (non-terminal, lease expired)
to a replica.  Claims are atomic by construction: the simulator is
single-threaded and :meth:`OpLedger.claim` never yields between the
lease check and the append.  Both families fold with one loop, newest
wins, into a :class:`LedgerEntry`; only the payload differs:

* ops — ``rec: "op"`` (begin: ``kind``, ``targets`` [[node, pod, uri],
  ...], ``context``) then ``rec: "phase"`` records whose extra keys
  (negotiated filters, per-pod stats, the restart plan) merge into
  :attr:`LedgerOp.fields`;
* campaigns — ``rec: "campaign"``: ``begin`` journals every unit
  [[node, pod, arg], ...], the wave partition and the policy, enough
  for a replica to rebuild the plan; ``wave`` W started (the *first*
  record of a wave wins — a duplicate from a second owner, two Managers
  racing after a messy failover, stays on the audit trail only and
  neither takes ownership nor renews the lease); ``pod`` is one unit's
  outcome (a resuming replica skips every pod whose latest record says
  ``ok``); ``wave-done`` W means every unit of the wave has an outcome.

A torn final line (a writer that died mid-append) is ignored on scan,
mirroring how a real WAL discards a torn tail record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from ..vos.filesystem import FileSystem, ensure_dirs

#: conventional ledger path on the SAN (inner path, below the mount).
LEDGER_PATH = "/zapc/ops.jsonl"

#: how long one ledger record keeps its entry owned before a replica may
#: claim it.  Each record renews the lease, so a live Manager never loses
#: an op or campaign; a dead one loses it one lease after its last
#: durable record.
DEFAULT_LEASE_S = 30.0


@dataclass(frozen=True)
class Family:
    """One record family of the log (a row of the module doc's table)."""

    key: str
    claim: str
    terminal: Tuple[str, ...]
    entry: type

    def owns(self, rec: Dict[str, Any]) -> bool:
        return ("cid" in rec) == (self.key == "cid")


@dataclass(kw_only=True)
class LedgerEntry:
    """What both families fold to: phase, ownership, lease, claims and
    the first and newest record times.  Subclasses fold their payload."""

    family: ClassVar[Family]
    phase: str = "begin"
    owner: Optional[str] = None
    lease_until: float = 0.0
    #: every owner that ever claimed the entry, in order.
    claims: List[str] = field(default_factory=list)
    t_first: float = 0.0
    t_last: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.phase in self.family.terminal

    def absorb(self, rec: Dict[str, Any]) -> bool:
        """Fold one non-claim record's payload; False leaves owner, lease
        and phase as they were."""
        raise NotImplementedError


#: op record keys that are not phase payload.
_OP_HEADER = frozenset(("rec", "op", "phase", "owner", "lease", "t", "kind",
                        "context", "targets"))


@dataclass
class LedgerOp(LedgerEntry):
    """One op's state, folded from its ledger records."""

    op_id: int
    kind: str = "checkpoint"
    targets: List[Tuple[str, str, str]] = field(default_factory=list)
    context: str = "snapshot"
    #: merged per-phase payload (negotiated filters, plan, stats, ...).
    fields: Dict[str, Any] = field(default_factory=dict)

    def absorb(self, rec: Dict[str, Any]) -> bool:
        if rec.get("rec") == "op":
            self.kind = rec.get("kind", self.kind)
            self.context = rec.get("context", self.context)
            self.targets = [tuple(t) for t in rec.get("targets", [])]
        for key, value in rec.items():
            if key not in _OP_HEADER:
                self.fields[key] = value
        return True


@dataclass
class LedgerCampaign(LedgerEntry):
    """One fleet campaign's state, folded from its ledger records."""

    cid: int
    kind: str = "checkpoint"
    #: every unit as journaled at begin: (node, pod, arg) — the arg is a
    #: checkpoint URI or a migration destination ("" = pick by load).
    units: List[Tuple[str, str, str]] = field(default_factory=list)
    #: the wave partition journaled at begin: pod ids per wave, in order.
    waves: List[List[str]] = field(default_factory=list)
    #: the policy knobs journaled at begin (max_inflight, threshold, ...).
    policy: Dict[str, Any] = field(default_factory=dict)
    #: newest-wins unit outcome per pod: {"status", "op", "wave", ...}.
    pods: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: wave index -> the owner whose wave record landed *first*.
    wave_owners: Dict[int, str] = field(default_factory=dict)
    #: every wave record in append order (duplicates included), as
    #: (wave index, owner) — the audit trail of racing claims.
    wave_claims: List[Tuple[int, str]] = field(default_factory=list)
    #: wave indices whose wave-done record landed.
    waves_done: List[int] = field(default_factory=list)

    @property
    def done_pods(self) -> List[str]:
        """Pods whose latest unit record is ``ok`` — the set a resuming
        replica must not drive again."""
        return sorted(p for p, rec in self.pods.items()
                      if rec.get("status") == "ok")

    def absorb(self, rec: Dict[str, Any]) -> bool:
        phase = rec.get("phase", self.phase)
        if phase == "begin":
            self.kind = rec.get("kind", self.kind)
            self.units = [tuple(u) for u in rec.get("units", [])]
            self.waves = [list(w) for w in rec.get("waves", [])]
            self.policy = dict(rec.get("policy", {}))
        elif phase == "wave":
            wave = int(rec.get("wave", -1))
            owner = rec.get("owner")
            self.wave_claims.append((wave, owner))
            if wave in self.wave_owners:
                return False          # duplicate: the first writer won
            self.wave_owners[wave] = owner
        elif phase == "pod":
            self.pods[rec.get("pod")] = {
                k: v for k, v in rec.items()
                if k in ("status", "op", "wave", "downtime", "attempts",
                         "adopted", "t")}
        elif phase == "wave-done":
            wave = int(rec.get("wave", -1))
            if wave not in self.waves_done:
                self.waves_done.append(wave)
        return True


OPS = LedgerOp.family = Family("op", "claim", ("commit", "aborted"), LedgerOp)
CAMPAIGNS = LedgerCampaign.family = Family(
    "cid", "campaign-claim", ("commit", "halted", "aborted"), LedgerCampaign)


def fold(records: List[Dict[str, Any]],
         family: Family = OPS) -> Dict[int, LedgerEntry]:
    """Fold one family's raw records into per-id state (newest wins).

    Module-level so the campaign-trace assembler (:mod:`repro.obs.
    assemble`) can fold a record list it obtained elsewhere — a span
    dump's sidecar, a copied log — without a live :class:`FileSystem`.
    """
    out: Dict[int, LedgerEntry] = {}
    for rec in records:
        if not family.owns(rec):
            continue
        eid = int(rec[family.key])
        entry = out.get(eid)
        if entry is None:
            entry = out[eid] = family.entry(eid)
            entry.t_first = float(rec.get("t", 0.0))
        entry.t_last = float(rec.get("t", entry.t_last))
        if rec.get("rec") == family.claim:
            entry.owner = rec.get("owner")
            entry.lease_until = float(rec.get("lease", 0.0))
            entry.claims.append(entry.owner)
            continue
        if not entry.absorb(rec):
            continue
        if rec.get("owner") is not None:
            entry.owner = rec["owner"]
        if rec.get("lease") is not None:
            entry.lease_until = float(rec["lease"])
        entry.phase = rec.get("phase", entry.phase)
    return out


class OpLedger:
    """Append/scan/claim interface over the JSONL ledger file."""

    def __init__(self, fs: FileSystem, path: str = LEDGER_PATH) -> None:
        self.fs = fs
        self.path = path
        #: scan bookkeeping: lines the last scan had to discard (the torn
        #: tail, or corruption injected by tests).
        self.skipped = 0
        #: id allocation, per family key: the highest id seen or handed
        #: out.  Seeded by one full scan at the first allocation, then
        #: kept by :meth:`append` and :meth:`new_id`, so allocating is
        #: O(1) instead of re-parsing the whole log per op (quadratic at
        #: fleet scale).  Per-instance only — a replica builds its own
        #: OpLedger and does its own first scan.
        self._top: Dict[str, int] = {}

    # -- raw log ---------------------------------------------------------
    def _file(self):
        f = self.fs.files.get(self.path)
        if f is None:
            ensure_dirs(self.fs, self.path.rsplit("/", 1)[0] or "/")
            f = self.fs.create(self.path)
        return f

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record (sorted keys: deterministic bytes)."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        data = self._file().data
        if data and data[-1] != 10:
            data += b"\n"    # end a torn tail, or it swallows this record
        data += (line + "\n").encode("ascii")
        key = CAMPAIGNS.key if "cid" in record else OPS.key
        if key in self._top and key in record:
            self._top[key] = max(self._top[key], int(record[key]))

    def write(self, family: Family, eid: int, owner: str, now: float,
              lease_s: Optional[float], span: Optional[int] = None,
              **fields: Any) -> None:
        """Append one record of entry ``eid`` that renews ``owner``'s
        lease (None = :data:`DEFAULT_LEASE_S`); ``span`` joins it to the
        trace that timed it."""
        lease = DEFAULT_LEASE_S if lease_s is None else float(lease_s)
        record = dict({family.key: eid, "owner": owner,
                       "lease": now + lease, "t": now}, **fields)
        if span is not None:
            record.setdefault("span", span)
        self.append(record)

    def records(self) -> List[Dict[str, Any]]:
        """Parse the log, tolerating a torn (truncated) final line."""
        f = self.fs.files.get(self.path)
        self.skipped = 0
        if f is None:
            return []
        out: List[Dict[str, Any]] = []
        data = bytes(f.data)
        lines = data.split(b"\n")
        # data ending in "\n" leaves a legitimate empty tail; anything
        # else is a torn append and is discarded like a torn WAL record
        for raw in lines:
            if not raw:
                continue
            try:
                rec = json.loads(raw.decode("ascii"))
            except (ValueError, UnicodeDecodeError):
                self.skipped += 1
                continue
            if isinstance(rec, dict) and ("op" in rec or "cid" in rec):
                out.append(rec)
            else:
                self.skipped += 1
        return out

    # -- folded state ----------------------------------------------------
    def replay(self, family: Family = OPS) -> Dict[int, LedgerEntry]:
        """Fold the log into per-entry state of ``family``."""
        return fold(self.records(), family)

    def new_id(self, family: Family = OPS) -> int:
        """Reserve and return the smallest id of ``family`` that no
        record has used and this ledger has not handed out before."""
        top = self._top.get(family.key)
        if top is None:
            top = max((int(r[family.key]) for r in self.records()
                       if family.owns(r)), default=0)
        self._top[family.key] = top + 1
        return top + 1

    def orphaned(self, now: float, family: Family = OPS) -> List[LedgerEntry]:
        """Non-terminal entries whose lease has expired, in id order —
        the set a takeover replica must resume or abort."""
        return [e for _id, e in sorted(self.replay(family).items())
                if not e.terminal and now >= e.lease_until]

    def claim(self, eid: int, owner: str, now: float,
              lease_s: Optional[float] = None, family: Family = OPS) -> bool:
        """Atomically claim an orphaned entry.

        Refuses when the entry is unknown, already terminal, or still
        under another Manager's unexpired lease.  Single-threaded
        simulation plus no yield between check and append makes this
        atomic — the moral equivalent of an O_APPEND compare-and-swap
        record.
        """
        entry = self.replay(family).get(eid)
        if entry is None or entry.terminal:
            return False
        if entry.owner is not None and entry.owner != owner \
                and now < entry.lease_until:
            return False
        self.write(family, eid, owner, now, lease_s, rec=family.claim)
        return True

    def last_committed(self, kind: str = "checkpoint") -> Optional[LedgerOp]:
        """The newest committed op of ``kind`` (highest op id) — what a
        replica reconstructs ``last_checkpoint`` from."""
        best: Optional[LedgerOp] = None
        for _id, op in sorted(self.replay().items()):
            if op.kind == kind and op.phase == "commit":
                best = op
        return best
