"""Content-addressed checkpoint store (CAS) with cross-pod dedup.

The SAN-backed full-image model writes every generation of every pod in
full — the storage wall the fleet hits once thousands of pods checkpoint
on a cadence.  This module replaces the *container-per-path* layout of
:class:`repro.core.pipeline.FileSink` with a *chunk index* shared by the
whole fleet:

* **Content-defined chunking** — the materialized payload bytes are cut
  at gear-hash boundaries (:func:`chunk_bounds`), so an edit moves only
  the chunks it touches: boundaries resynchronize after the edit and the
  untouched tail dedups against the previous generation.
* **Accounted-memory blocks** — the resident-set bytes the simulation
  tracks by count (never materialized) are modeled as fixed blocks.
  Pristine blocks hash to fleet-shared ids — the application code and
  read-only data every pod maps is stored once fleet-wide — while blocks
  the pod has dirtied (from the Agent's measured dirty tables,
  ``PodImage.acct_dirty_bytes``) get per-generation unique ids.
* **Recipes** — a ``cas:<path>`` target stores a *recipe*: the ordered
  chunk-id lists of each chain entry plus the small per-entry metadata.
  A delta epoch appends one entry and carries the prior entries' ids
  verbatim — unchanged segments hit the index without being re-hashed.
* **Refcounted GC, op-keyed** — references have two levels: every
  recipe (published, retired, or a pending stage) holds its entries,
  and every held entry holds its chunks once, however many recipes
  share it — so a flush references what its generation adds, not what
  its chain carries.  Publishing a
  generation retires the previous one (a one-deep undo mirroring
  :class:`MemorySink`); aborting an op rolls back exactly the recipes
  that op staged or published, so the tombstone GC of
  ``core.manager``/``core.agent`` releases exactly the aborted op's
  unshared chunks — chunks still referenced by a live generation chain
  or another pod survive any number of replayed aborts.

The write protocol is split so faults can land between the two durable
steps: :meth:`CasSink.stage` uploads the missing chunks and parks the
recipe as *pending* (a truncating fault uploads only a prefix, leaving
the staged recipe dangling until read-back or GC rejects it);
:meth:`CasSink.publish` atomically swaps the recipe in.  A crash between
the two leaves an orphaned stage that :meth:`CasStore.abort_op` or
:meth:`CasStore.sweep_orphans` reclaims.
"""

from __future__ import annotations

import hashlib
import operator
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, filterfalse
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core import codec
from ..core.image import PodImage
from ..core.pipeline import StageCost, Sink, chain_entry, check_chain, \
    image_from_entry, image_extends_chain
from ..errors import RestartError

# ---------------------------------------------------------------------------
# content-defined chunking (gear hash)
# ---------------------------------------------------------------------------

#: default chunk-size bounds for payload bytes (min, average, max); the
#: average must be a power of two (the boundary test masks the low bits).
CHUNK_MIN = 4096
CHUNK_AVG = 16384
CHUNK_MAX = 65536

#: accounted (non-materialized) resident-set bytes are modeled as fixed
#: blocks of this size — the dirty-table granularity of the dedup model.
ACCT_BLOCK = 65536


def _gear_table() -> Tuple[int, ...]:
    rng = random.Random(0x5EEDCA5)
    return tuple(rng.getrandbits(64) for _ in range(256))


_GEAR = np.array(_gear_table(), dtype=np.uint64)

#: bytes hashed per numpy pass of :func:`chunk_bounds` — bounds the
#: scan's temporaries whatever the payload size.
_SCAN_BLOCK = 1 << 16


def _check_chunking(min_size: int, avg_size: int, max_size: int) -> int:
    """Validate chunking parameters; returns ``log2(avg_size)``."""
    bits = int(avg_size).bit_length() - 1
    if not 1 <= bits <= 64 or avg_size != 1 << bits:
        raise ValueError(
            f"avg_size must be a power of two in [2, 2**64], not {avg_size}")
    if not 0 < min_size <= max_size:
        raise ValueError(f"chunk sizes must satisfy 0 < min_size <= max_size, "
                         f"not min_size={min_size}, max_size={max_size}")
    if min_size < bits:
        raise ValueError(f"min_size must be at least log2(avg_size) = {bits}, "
                         f"not {min_size}")
    return bits


def _gear_cuts(data: bytes, bits: int) -> List[int]:
    """Every offset ``i`` at which the gear hash of the ``bits`` bytes
    ending at ``data[i - 1]`` has its low ``bits`` bits clear, ascending."""
    width = next(w for w in (8, 16, 32, 64) if w >= bits)
    dtype = np.dtype(f"uint{width}")
    gear = _GEAR.astype(dtype)            # keeps the low ``width`` bits
    mask = dtype.type((1 << bits) - 1)
    buf = np.frombuffer(data, dtype=np.uint8)
    window = 1
    while window < bits:
        window *= 2
    cuts: List[int] = []
    for lo in range(0, len(buf), _SCAN_BLOCK):
        # a block starts ``window - 1`` bytes early, so its first hash
        # already covers a full window
        first = max(0, lo - (window - 1))
        h = gear[buf[first:lo + _SCAN_BLOCK]]
        k = 1
        while k < window:
            # h[i] covers k bytes; adding h[i - k] << k makes it 2k
            h[k:] += h[:-k] << dtype.type(k)
            k *= 2
        h &= mask
        cuts.extend((np.flatnonzero(h[lo - first:] == 0) + (lo + 1)).tolist())
    return cuts


def chunk_bounds(data: bytes, min_size: int = CHUNK_MIN,
                 avg_size: int = CHUNK_AVG,
                 max_size: int = CHUNK_MAX) -> List[Tuple[int, int]]:
    """Content-defined ``(offset, length)`` chunk bounds of ``data``.

    A chunk ends at the first offset, ``min_size`` to ``max_size`` bytes
    in, where the gear hash ``h = (h << 1) + GEAR[byte]`` of its bytes
    has its low ``log2(avg_size)`` bits clear (at ``max_size`` or
    end-of-data otherwise).  The hash restarts at every cut, so a chunk's
    boundary depends only on its own bytes: every bound except a final
    one forced by end-of-data is stable under appends, and boundaries
    resynchronize a bounded distance after an edit.

    Those low bits depend only on the last ``log2(avg_size)`` bytes — each
    older byte has been shifted out of them — so as long as no cut is
    tested fewer than that many bytes into a chunk the restart is
    invisible, and the candidate cuts of the whole buffer are found in
    one vectorized scan (:func:`_gear_cuts`).  That is the condition
    ``min_size >= log2(avg_size)``; parameters that break it are
    rejected with :class:`ValueError`, as are ``avg_size`` not a power
    of two and sizes outside ``0 < min_size <= max_size``.  A remainder
    of at most ``min_size`` bytes is one chunk whatever it hashes to.
    """
    bits = _check_chunking(min_size, avg_size, max_size)
    n = len(data)
    cuts = _gear_cuts(data, bits) if n > min_size else []
    bounds: List[Tuple[int, int]] = []
    start = j = 0
    while n - start > min_size:
        end = min(start + max_size, n)
        j = bisect_left(cuts, start + min_size, j)
        cut = cuts[j] if j < len(cuts) and cuts[j] < end else end
        bounds.append((start, cut - start))
        start = cut
    if start < n:
        bounds.append((start, n - start))
    return bounds


def split_chunks(data: bytes, min_size: int = CHUNK_MIN,
                 avg_size: int = CHUNK_AVG,
                 max_size: int = CHUNK_MAX) -> List[bytes]:
    """``data`` cut into content-defined chunks (concatenation == data)."""
    return [bytes(data[off:off + ln])
            for off, ln in chunk_bounds(data, min_size, avg_size, max_size)]


def chunk_id(blob: bytes) -> str:
    """Content address of one payload chunk."""
    return "p!" + hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# the fleet-wide chunk store
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _Object:
    """One stored chunk: its size, and the bytes when materialized
    (payload chunks carry real data; accounted blocks are modeled)."""

    size: int
    blob: Optional[bytes] = None


def _entry_cids(entry: Dict[str, Any]) -> Iterable[str]:
    """Every chunk occurrence of one entry: payload, then accounted."""
    return chain(entry["payload"], entry["acct"])


def _recipe_cids(recipe: Dict[str, Any]) -> Iterable[str]:
    """Every chunk occurrence of ``recipe``, entry by entry."""
    return chain.from_iterable(map(_entry_cids, recipe["entries"]))


def _entry_name(entry: Dict[str, Any]) -> str:
    """An entry as the audit names it."""
    return (f"entry (epoch {entry['meta'].get('epoch', 0)}, "
            f"{len(entry['payload'])} payload + {len(entry['acct'])} "
            "accounted chunks)")


def _held(recipe: Dict[str, Any], cids: Set[str]) -> Set[str]:
    """Those of ``cids`` some entry of ``recipe`` references.  An entry's
    id set is built the first time it is asked and kept on the entry,
    which every later generation of the chain shares."""
    held: Set[str] = set()
    if not cids:
        return held
    for entry in recipe["entries"]:
        ids = entry.get("ids")
        if ids is None:
            ids = entry["ids"] = frozenset(entry["payload"]).union(entry["acct"])
        held |= ids & cids
    return held


class CasStore:
    """The chunk index one SAN exports — shared by every pod and node.

    There is exactly one store per :class:`repro.storage.san.SharedStorage`
    (:meth:`on`), mirroring how every blade mounts the same SAN volume.
    """

    def __init__(self) -> None:
        #: chunk id -> stored object.
        self.objects: Dict[str, _Object] = {}
        #: id(entry) -> [entry, holders]: how many recipes hold each
        #: entry.  An entry is immutable once staged, and the
        #: generations of a chain share their carried entries by identity.
        self.entry_refs: Dict[int, List[Any]] = {}
        #: chunk id -> its occurrences in the held entries, each entry
        #: counted once however many recipes hold it.
        self.chunk_refs: Counter = Counter()
        #: path -> published recipe (the restartable generation).
        self.recipes: Dict[str, Dict[str, Any]] = {}
        #: path -> staged-but-unpublished recipe, keyed by the op that
        #: staged it; orphaned stages are reclaimed by op-id GC.
        self.pending: Dict[str, Dict[str, Any]] = {}
        #: path -> the previous published generation (one-deep undo,
        #: released at the *next* successful publish).  ``None`` marks
        #: "previous generation was nothing" — rollback unlinks.
        self.retired: Dict[str, Optional[Dict[str, Any]]] = {}
        #: ``(a!shared!k!ACCT_BLOCK, ACCT_BLOCK)`` for k = 0, 1, …: the
        #: fleet-shared full pristine blocks, grown on demand by
        #: :meth:`acct_entry_ids` — every pod's first image on this SAN
        #: names the same ones, and shares these tuples.
        self.shared_blocks: List[Tuple[str, int]] = []
        # -- cumulative cost accounting ---------------------------------
        self.logical_bytes = 0       #: bytes clients asked to store
        self.stored_bytes = 0        #: bytes of newly created chunks
        self.stored_chunks = 0
        self.dup_hits = 0            #: new-entry chunks found in the index
        self.dup_bytes = 0
        self.carried_bytes = 0       #: chain-carried bytes (no re-hash)
        self.gc_reclaimed_bytes = 0
        self.gc_reclaimed_chunks = 0
        self.footprint_bytes = 0     #: live bytes on the SAN right now

    @classmethod
    def on(cls, san) -> "CasStore":
        store = getattr(san, "_cas_store", None)
        if store is None:
            store = cls()
            san._cas_store = store
        return store

    # -- refcounting ----------------------------------------------------
    def _take(self, recipe: Dict[str, Any]) -> None:
        """Hold every entry of ``recipe``; an entry takes its chunk
        references when its first holder takes it."""
        entry_refs = self.entry_refs
        for entry in recipe["entries"]:
            held = entry_refs.get(id(entry))
            if held is not None:
                held[1] += 1
            else:
                entry_refs[id(entry)] = [entry, 1]
                self.chunk_refs.update(_entry_cids(entry))

    def _release(self, recipe: Dict[str, Any]) -> int:
        """Let go of ``recipe``'s entries; an entry drops its chunk
        references when its last holder goes, and a chunk dies with its
        last reference.  Returns the bytes reclaimed."""
        entry_refs, refs, objects = self.entry_refs, self.chunk_refs, self.objects
        reclaimed = chunks = 0
        for entry in recipe["entries"]:
            held = entry_refs[id(entry)]
            held[1] -= 1
            if held[1]:
                continue
            del entry_refs[id(entry)]
            for cid in _entry_cids(entry):
                n = refs[cid] - 1
                if n > 0:
                    refs[cid] = n
                    continue
                del refs[cid]
                obj = objects.pop(cid, None)
                if obj is not None:
                    reclaimed += obj.size
                    chunks += 1
        self.gc_reclaimed_bytes += reclaimed
        self.gc_reclaimed_chunks += chunks
        self.footprint_bytes -= reclaimed
        return reclaimed

    @property
    def refs(self) -> Counter:
        """chunk id -> reference count, one per chunk occurrence in every
        recipe: the per-occurrence view of the two levels, computed when
        asked (the write path never reads it)."""
        refs: Counter = Counter()
        for entry, holders in self.entry_refs.values():
            for cid in _entry_cids(entry):
                refs[cid] += holders
        return refs

    # -- accounted-memory dedup model -----------------------------------
    def acct_prev_state(self, path: str, pod_id: str) -> Optional[Dict[str, Any]]:
        """The accounted-block state of the published generation at
        ``path`` — the dedup baseline the next full image diffs against."""
        recipe = self.recipes.get(path)
        if recipe is not None and recipe.get("pod") == pod_id:
            return recipe.get("acct_state")
        return None

    @staticmethod
    def acct_entry_ids(pod_id: str, image: PodImage,
                       prev_state: Optional[Dict[str, Any]],
                       shared: List[Tuple[str, int]]
                       ) -> Tuple[List[Tuple[str, int]], Dict[str, Any]]:
        """Model the accounted bytes of ``image`` as block chunk ids.

        Returns ``(blocks, new_state)`` where ``blocks`` is the ordered
        ``(chunk_id, length)`` list the entry references and
        ``new_state`` is the state to embed in the staged recipe (it
        becomes the baseline only when that recipe publishes, so an
        aborted op leaves the baseline untouched).  Pure — safe to call
        for cost estimation without staging.  ``shared`` is the store's
        :attr:`shared_blocks`: the fleet-shared full-block pairs are
        taken from it, and it grows when an image needs more.
        """
        total = int(image.accounted_bytes)
        nb = (total + ACCT_BLOCK - 1) // ACCT_BLOCK
        tail = total % ACCT_BLOCK       # a short last block's length
        lens = [ACCT_BLOCK] * nb
        if tail:
            lens[-1] = tail
        seq = (int(prev_state["seq"]) if prev_state else 0) + 1
        if image_extends_chain(image):
            # delta epoch: the accounted bytes are the dirty bytes —
            # all-new content, unique per generation
            own = f"a!{pod_id}!{seq}!"
            blocks = [(f"{own}{k}!{ACCT_BLOCK}", ACCT_BLOCK) for k in range(nb)]
            if tail:
                blocks[-1] = (f"{own}{nb - 1}!{tail}", tail)
            prev_blocks = list(prev_state["blocks"]) if prev_state else []
            return blocks, {"blocks": prev_blocks, "seq": seq}
        prev_blocks = prev_state["blocks"] if prev_state else None
        if prev_blocks is None:
            # first sight of this pod: every block is pristine mapped
            # application code/data — shared fleet-wide by construction
            shared.extend((f"a!shared!{k}!{ACCT_BLOCK}", ACCT_BLOCK)
                          for k in range(len(shared), nb))
            blocks = shared[:nb]
            if tail:
                blocks[-1] = (f"a!shared!{nb - 1}!{tail}", tail)
        else:
            dirty = image.acct_dirty_bytes
            dirty_nb = nb if dirty is None \
                else min(nb, (int(dirty) + ACCT_BLOCK - 1) // ACCT_BLOCK)
            blocks = []
            for k in range(nb):
                ln = lens[k]
                if k < dirty_nb:
                    blocks.append((f"a!{pod_id}!{seq}!{k}!{ln}", ln))
                elif k < len(prev_blocks) and prev_blocks[k][1] == ln:
                    blocks.append(tuple(prev_blocks[k]))
                else:
                    blocks.append((f"a!shared!{k}!{ln}", ln))
        return blocks, {"blocks": list(blocks), "seq": seq}

    # -- op-keyed GC -----------------------------------------------------
    def rollback_path(self, path: str, op_id: int) -> bool:
        """Undo what op ``op_id`` did at ``path`` — drop its pending
        stage and/or restore the generation its publish replaced.

        Keyed by op id so a replayed tombstone GC (a takeover replica
        re-running a half-done abort) is a no-op once the rollback ran:
        the restored generation carries a different op id and is never
        dropped by the replay.
        """
        op_id = int(op_id)
        acted = False
        staged = self.pending.get(path)
        if staged is not None and int(staged.get("op_id", -1)) == op_id:
            self.pending.pop(path)
            self._release(staged)
            acted = True
        current = self.recipes.get(path)
        if current is not None and int(current.get("op_id", -1)) == op_id \
                and path in self.retired:
            previous = self.retired.pop(path)
            self._release(current)
            if previous is None:
                self.recipes.pop(path, None)
            else:
                self.recipes[path] = previous
            acted = True
        return acted

    def abort_op(self, op_id: int) -> int:
        """Tombstone-GC hook: release every recipe op ``op_id`` staged
        or published.  Idempotent.  Returns bytes reclaimed."""
        op_id = int(op_id)
        before = self.gc_reclaimed_bytes
        for path in [p for p, r in list(self.pending.items())
                     if int(r.get("op_id", -1)) == op_id]:
            self.rollback_path(path, op_id)
        for path in [p for p, r in list(self.recipes.items())
                     if int(r.get("op_id", -1)) == op_id]:
            self.rollback_path(path, op_id)
        return self.gc_reclaimed_bytes - before

    def sweep_orphans(self, live_ops: Iterable[int]) -> Tuple[int, int]:
        """Release pending stages whose op is no longer live (a Manager
        died between stage and publish and nobody aborted).  Returns
        ``(stages_dropped, bytes_reclaimed)``."""
        live = {int(o) for o in live_ops}
        before = self.gc_reclaimed_bytes
        dropped = 0
        for path, recipe in list(self.pending.items()):
            if int(recipe.get("op_id", -1)) not in live:
                self.pending.pop(path)
                self._release(recipe)
                dropped += 1
        return dropped, self.gc_reclaimed_bytes - before

    # -- invariants and accounting --------------------------------------
    def audit(self) -> List[str]:
        """Cross-check the index against a recount from the holders:
        each entry's holder count must equal the recipes holding it, each
        chunk's refcount the occurrences in the held entries; no chunk
        or entry may be leaked (stored or held by nothing) and no
        *published* recipe may dangle (reference a chunk whose data
        never made it to the SAN)."""
        holders: Dict[int, List[Any]] = {}
        for recipe in chain(self.recipes.values(), self.pending.values(),
                            filter(None, self.retired.values())):
            for entry in recipe["entries"]:
                holders.setdefault(id(entry), [entry, 0])[1] += 1
        expected = Counter(chain.from_iterable(
            _entry_cids(entry) for entry, _n in holders.values()))
        problems = []
        for key, (entry, n) in holders.items():
            got = self.entry_refs.get(key, (None, 0))[1]
            if got != n:
                problems.append(f"holder count mismatch for {_entry_name(entry)}: "
                                f"{got} != {n}")
        for key, (entry, _n) in self.entry_refs.items():
            if key not in holders:
                problems.append(f"leaked entry {_entry_name(entry)}")
        # the chunk level by set differences, after one whole-table
        # compare that a clean store passes: only what is reported is
        # sorted
        refs = self.chunk_refs
        if not dict.__eq__(refs, expected):
            problems += (f"refcount mismatch for {cid}: {refs.get(cid, 0)} != "
                         f"{expected[cid]}" for cid in sorted(
                             cid for cid, _n in expected.items() - refs.items()))
            problems += (f"leaked ref {cid}"
                         for cid in sorted(refs.keys() - expected.keys()))
        if not self.objects.keys() <= expected.keys():
            problems += (f"leaked chunk {cid}" for cid in
                         sorted(self.objects.keys() - expected.keys()))
        for path in sorted(self.recipes):
            problems += (f"dangling ref {cid} in published recipe {path!r}"
                         for cid in filterfalse(self.objects.__contains__,
                                                _recipe_cids(self.recipes[path])))
        return problems

    @property
    def dedup_ratio(self) -> float:
        """Logical bytes stored per byte of new chunk data written."""
        return self.logical_bytes / self.stored_bytes if self.stored_bytes \
            else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "logical_bytes": self.logical_bytes,
            "stored_bytes": self.stored_bytes,
            "stored_chunks": self.stored_chunks,
            "footprint_bytes": self.footprint_bytes,
            "live_chunks": len(self.objects),
            "dup_hits": self.dup_hits,
            "dup_bytes": self.dup_bytes,
            "carried_bytes": self.carried_bytes,
            "gc_reclaimed_bytes": self.gc_reclaimed_bytes,
            "gc_reclaimed_chunks": self.gc_reclaimed_chunks,
            "dedup_ratio": self.dedup_ratio,
        }


# ---------------------------------------------------------------------------
# the sink
# ---------------------------------------------------------------------------


class CasSink(Sink):
    """Flush a checkpoint into the SAN's content-addressed store.

    Peer of :class:`repro.core.pipeline.FileSink` for a ``cas:<path>``
    target URI, with the write genuinely split in two so the Agent can
    place the commit point: :meth:`stage` uploads the chunks the index
    is missing and parks the recipe, :meth:`publish` swaps it in as the
    restartable generation, :meth:`rollback` restores the one before.
    Only the *new* bytes cross the FC link — dedup buys write time as
    well as SAN footprint.
    """

    kind = "cas"
    shared = True
    ack = "flushed"
    tracks_ops = True
    wants_dirty = True
    crossings = {"write": "cas.write", "commit": "cas.commit", "gc": "cas.gc"}
    span_ns = "cas"

    def __init__(self, san, vfs, path: str,
                 chunking: Tuple[int, int, int] = (CHUNK_MIN, CHUNK_AVG,
                                                   CHUNK_MAX)) -> None:
        _check_chunking(*chunking)
        self.san = san
        self.vfs = vfs  # unused; constructor parity with FileSink
        self.path = path
        self.chunking = chunking
        self.store_ = CasStore.on(san)
        #: the payload last chunked, and its chunk list.
        self._chunked: Tuple[Any, List[Tuple[str, int, bytes]]] = (None, [])
        #: the entry last priced: (what it was derived from, by identity;
        #: the image fields it read; the chunk list and accounted state).
        self._priced: Optional[Tuple[Any, ...]] = None

    # -- cost model ------------------------------------------------------
    def _payload_chunks(self, image: PodImage) -> List[Tuple[str, int, bytes]]:
        """``(chunk_id, length, bytes)`` of the payload — a function of
        the image bytes and ``self.chunking`` alone, so it is computed
        once per image: a flush prices the write, charges its delay and
        stages from one chunk-and-hash pass.  A sink lives for one
        checkpoint, so nothing is remembered beyond the op."""
        # keyed on the payload object (bytes and a Blob are immutable); a
        # mutable buffer is snapshotted into a fresh object that never matches
        data = image.data if type(image.data) is codec.Blob else bytes(image.data)
        if data is not self._chunked[0]:
            self._chunked = (data, [(chunk_id(b), len(b), b) for b in
                                    split_chunks(bytes(data), *self.chunking)])
        return self._chunked[1]

    def _entry_chunks(self, image: PodImage
                      ) -> Tuple[List[Tuple[str, int, bytes]],
                                 List[Tuple[str, int]], Dict[str, int],
                                 Dict[str, Any]]:
        """The chunk references of the entry ``image`` would add — the
        payload's ``(cid, length, bytes)``, the accounted ``(cid,
        length)`` blocks, and one ``cid -> length`` map of its distinct
        chunks, in first-occurrence order — plus the accounted-block
        state to embed.  Pure.  Derived once per
        flush, and again whenever an input :meth:`CasStore.acct_entry_ids`
        reads has changed since: the image, its accounted and dirty bytes
        and delta-ness (the Agent stamps the dirty bytes late), and the
        generation published at the path *now* — between a cost estimate
        and the stage another op may have republished or rolled back the
        path."""
        store = self.store_
        payload = self._payload_chunks(image)
        sources = (image, payload, store.recipes.get(self.path))
        fields = (image.pod_id, image.accounted_bytes, image.acct_dirty_bytes,
                  image_extends_chain(image))
        priced = self._priced
        if priced is None or priced[1] != fields \
                or not all(map(operator.is_, priced[0], sources)):
            prev_state = store.acct_prev_state(self.path, image.pod_id)
            acct, acct_state = store.acct_entry_ids(
                image.pod_id, image, prev_state, store.shared_blocks)
            sizes = {cid: ln for cid, ln, _blob in payload}
            sizes.update(acct)
            priced = self._priced = (sources, fields,
                                     (payload, acct, sizes, acct_state))
        return priced[2]

    def _new_bytes(self, sizes: Dict[str, int]) -> int:
        """Bytes of the distinct chunks the index is missing *now*: other
        pods publish between two calls, and each must see them."""
        return sum(map(sizes.__getitem__,
                       filterfalse(self.store_.objects.__contains__, sizes)))

    def _delay(self, image: PodImage, new_bytes: int) -> float:
        if image_extends_chain(image) and self.path in self.store_.recipes:
            return self.san.append_delay(new_bytes)
        return self.san.flush_delay(new_bytes)

    def write_delay(self, image: PodImage) -> float:
        return self._delay(image, self._new_bytes(self._entry_chunks(image)[2]))

    def write_cost(self, image: PodImage) -> StageCost:
        new = self._new_bytes(self._entry_chunks(image)[2])
        return StageCost(f"write:{self.kind}", self._delay(image, new),
                         image.total_bytes, new)

    # -- the two-step write ---------------------------------------------
    def stage(self, image: PodImage, op_id: int = 0,
              truncate: Optional[float] = None) -> None:
        """Upload the missing chunks and park the recipe as pending.

        ``truncate`` (a fraction in (0, 1)) simulates an upload cut
        short by a fault: references are taken for the full chunk set
        but only that prefix of the *new* chunks reaches the SAN, which
        read-back validation after :meth:`publish` must then reject.
        """
        store = self.store_
        objects = store.objects
        payload, acct, sizes, acct_state = self._entry_chunks(image)
        prev = store.recipes.get(self.path)
        extends = image_extends_chain(image) and prev is not None
        meta = {k: v for k, v in chain_entry(image).items() if k != "data"}
        first = operator.itemgetter(0)
        entry = {
            "meta": meta,
            "payload": list(map(first, payload)),
            "acct": list(map(first, acct)),
            "logical": image.total_bytes,
        }
        entries = (list(prev["entries"]) + [entry]) if extends else [entry]
        recipe = {"path": self.path, "pod": image.pod_id,
                  "op_id": int(op_id), "entries": entries,
                  "acct_state": acct_state}
        # chain-carried entries: their ids are reused verbatim from the
        # published recipe — referenced without re-chunking or re-hashing.
        # The byte count is parked on the recipe (de-duplicated by cid)
        # and folded into the store stats only when this stage publishes,
        # so a retried flush never inflates the carry-over stat.  It is
        # read off what ``prev`` recorded when *it* was staged — the
        # bytes of its distinct chunks and which of them never reached
        # the SAN — instead of walking every carried id again: a recipe
        # pins its chunks, so one that was there still is, and a missing
        # one can only have been uploaded since (by another pod).
        distinct, absent = 0, {}
        if extends:
            distinct = prev["distinct"]
            absent = {cid: ln for cid, ln in prev["absent"].items()
                      if cid not in objects}
            recipe["carried"] = distinct - sum(absent.values())
        # the distinct chunks the index lacks, in first-occurrence order;
        # every other occurrence is a dup hit
        new = list(filterfalse(objects.__contains__, sizes))
        new_bytes = sum(map(sizes.__getitem__, new))
        second = operator.itemgetter(1)
        store.dup_hits += len(payload) + len(acct) - len(new)
        store.dup_bytes += sum(map(second, payload)) + sum(map(second, acct)) \
            - new_bytes
        # add this entry's distinct chunks, less those ``prev`` holds
        # already: one the index lacked is prev's only if prev is still
        # missing it too
        if extends:
            fresh = set(new)
            held = _held(prev, sizes.keys() - fresh)
            held.update(fresh.intersection(absent))
            distinct += sum(map(sizes.__getitem__, sizes.keys() - held))
        else:
            distinct = sum(sizes.values())
        n_up = len(new) if truncate is None else int(len(new) * float(truncate))
        blobs = {cid: blob for cid, _ln, blob in payload}
        for cid in new[:n_up]:
            objects[cid] = _Object(sizes[cid], blobs.get(cid))
        up_bytes = new_bytes - sum(map(sizes.__getitem__, new[n_up:]))
        store.stored_bytes += up_bytes
        store.stored_chunks += n_up
        store.footprint_bytes += up_bytes
        absent.update((cid, sizes[cid]) for cid in new[n_up:])
        recipe["distinct"] = distinct
        recipe["absent"] = {cid: ln for cid, ln in absent.items()
                            if cid not in objects}
        store.logical_bytes += image.total_bytes
        # take this recipe's references BEFORE releasing any stale stage
        # parked at the path (an op that crashed between stage and
        # publish): releasing first would drop chunks shared with the
        # stale recipe to refcount 0 and delete them from the store,
        # leaving the recipe about to be parked with dangling refs
        store._take(recipe)
        stale = store.pending.pop(self.path, None)
        if stale is not None:
            store._release(stale)
        store.pending[self.path] = recipe

    def publish(self, op_id: Optional[int] = None) -> bool:
        """Swap the staged recipe in as the restartable generation and
        retire the previous one (released at the *next* publish).

        When ``op_id`` is given, only a pending recipe staged by that
        very op is swapped in (mirroring :meth:`rollback`): if two ops
        interleave on one path, op A's publish must not promote op B's —
        possibly truncated — stage under A's read-back validation.
        Returns True iff a recipe was published.
        """
        store = self.store_
        staged = store.pending.get(self.path)
        if staged is None:
            return False
        if op_id is not None and int(staged.get("op_id", -1)) != int(op_id):
            return False
        store.pending.pop(self.path)
        if self.path in store.retired:
            previous = store.retired.pop(self.path)
            if previous is not None:
                store._release(previous)
        store.retired[self.path] = store.recipes.get(self.path)
        store.recipes[self.path] = staged
        store.carried_bytes += int(staged.pop("carried", 0))
        return True

    def rollback(self, op_id: int) -> bool:
        """Op-keyed GC of this path (see :meth:`CasStore.rollback_path`)."""
        return self.store_.rollback_path(self.path, int(op_id))

    # -- read side -------------------------------------------------------
    def exists(self, op_id: Optional[int] = None) -> bool:
        recipe = self.store_.recipes.get(self.path)
        return recipe is not None and (
            op_id is None or int(recipe.get("op_id", -1)) == int(op_id))

    def _validated(self) -> Dict[str, Any]:
        """The published recipe at this path, once the one validation
        walk passed: every payload chunk is on the SAN with its bytes,
        every accounted block is indexed, and the chain is a full head
        plus consecutive deltas — else :class:`RestartError`.  Nothing
        is joined or built.

        The walk checks only the entries no earlier walk found whole and
        marked ``whole``: an entry is read only while a recipe holds it,
        and a held entry pins its chunks.  A flush's read-back checks the
        one entry it added, and every later look checks none."""
        store = self.store_
        recipe = store.recipes.get(self.path)
        if recipe is None:
            raise RestartError(f"no image at {self.path!r}")
        objects = store.objects
        for entry in recipe["entries"]:
            if "whole" in entry:
                continue
            for cid in entry["payload"]:
                obj = objects.get(cid)
                if obj is None or obj.blob is None:
                    raise RestartError(
                        f"partial or corrupt image at {self.path!r}: "
                        f"missing chunk {cid[:18]}…")
            if not all(map(objects.__contains__, entry["acct"])):
                cid = next(c for c in entry["acct"] if c not in objects)
                raise RestartError(
                    f"partial or corrupt image at {self.path!r}: "
                    f"missing chunk {cid}")
            entry["whole"] = True
        metas = [entry["meta"] for entry in recipe["entries"]]
        check_chain([int(meta.get("epoch", 0)) for meta in metas],
                    metas[0].get("filters") or [], self.path)
        return recipe

    def load(self, pod_id: str) -> List[PodImage]:
        """Reassemble and validate the published chain at this path.

        A recipe whose chunk data never fully reached the SAN (a
        truncated stage) must never be visible as restartable: every
        missing chunk is converted into a clean :class:`RestartError`
        here, before any pod state is touched.
        """
        objects = self.store_.objects
        chain: List[PodImage] = []
        for entry in self._validated()["entries"]:
            raw = dict(entry["meta"])
            raw["data"] = b"".join([objects[cid].blob for cid in entry["payload"]])
            chain.append(image_from_entry(pod_id, raw))
        return chain

    def tip_epoch(self, pod_id: str) -> Optional[int]:
        """The newest epoch at this path, off :meth:`load`'s validation
        walk alone: no payload is joined and no image built."""
        try:
            recipe = self._validated()
        except RestartError:
            return None
        return int(recipe["entries"][-1]["meta"].get("epoch", 0))
