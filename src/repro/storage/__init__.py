"""Storage substrate: the shared SAN, snapshots, the op ledger, and the
content-addressed checkpoint store."""

from .ledger import (
    CAMPAIGNS,
    LEDGER_PATH,
    OPS,
    LedgerCampaign,
    LedgerOp,
    OpLedger,
)
from .san import FC_BANDWIDTH, FC_LATENCY, SAN_MOUNT, SharedStorage
from .snapshot import Snapshot, SnapshotManager

#: re-exported lazily (PEP 562): ``repro.storage`` is imported while the
#: cluster package bootstraps, and :mod:`repro.storage.cas` depends on
#: :mod:`repro.core` — an eager import here would close a cycle.
_CAS_EXPORTS = ("ACCT_BLOCK", "CHUNK_AVG", "CHUNK_MAX", "CHUNK_MIN",
                "CasSink", "CasStore", "chunk_bounds", "chunk_id",
                "split_chunks")


def __getattr__(name):
    if name in _CAS_EXPORTS:
        from . import cas
        return getattr(cas, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ACCT_BLOCK",
    "CAMPAIGNS",
    "CHUNK_AVG",
    "CHUNK_MAX",
    "CHUNK_MIN",
    "CasSink",
    "CasStore",
    "FC_BANDWIDTH",
    "FC_LATENCY",
    "LEDGER_PATH",
    "LedgerCampaign",
    "LedgerOp",
    "OPS",
    "OpLedger",
    "SAN_MOUNT",
    "SharedStorage",
    "Snapshot",
    "SnapshotManager",
    "chunk_bounds",
    "chunk_id",
    "split_chunks",
]
