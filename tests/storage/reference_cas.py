"""The content-addressed store as it stood before two-level references,
frozen verbatim as a test-only oracle.

``CasStore`` and ``CasSink`` of the parent commit, bodies unchanged:
every recipe holds one reference per chunk occurrence (``refs`` is
maintained, not derived), a flush derives the accounted-block ids at
every look (``write_cost``, ``write_delay``, ``stage``), and
``tip_epoch`` is the :class:`~repro.core.pipeline.Sink` default — a full
:meth:`CasSink.load` of the chain.

They call the live chunker, the live chunk ids and the live pipeline
helpers on purpose: what is frozen is the bookkeeping, not the chunking
(``reference_chunker`` and its differential hold that) nor the image
format.  ``tests/storage/test_cas_differential.py`` holds the live store
to this one.  Do not "fix" anything here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.image import PodImage
from repro.core.pipeline import StageCost, Sink, chain_entry, image_from_entry, \
    image_extends_chain, restorable_chain
from repro.errors import RestartError
from repro.storage.cas import ACCT_BLOCK, CHUNK_AVG, CHUNK_MAX, CHUNK_MIN, \
    _check_chunking, chunk_id, split_chunks


@dataclass
class _Object:
    """One stored chunk: its size, and the bytes when materialized
    (payload chunks carry real data; accounted blocks are modeled)."""

    size: int
    blob: Optional[bytes] = None


def _recipe_cids(recipe: Dict[str, Any]) -> Iterable[str]:
    """Every chunk occurrence of ``recipe``, entry by entry."""
    return chain.from_iterable(
        ids for entry in recipe["entries"]
        for ids in (entry["payload"], entry["acct"]))


def _holds(recipe: Dict[str, Any], cid: str) -> bool:
    """Does any entry of ``recipe`` reference ``cid``?  An entry's id set
    is built the first time it is asked and kept on the entry, which
    every later generation of the chain shares."""
    for entry in recipe["entries"]:
        ids = entry.get("ids")
        if ids is None:
            ids = entry["ids"] = frozenset(entry["payload"]).union(entry["acct"])
        if cid in ids:
            return True
    return False


class CasStore:
    """The chunk index one SAN exports — shared by every pod and node.

    There is exactly one store per :class:`repro.storage.san.SharedStorage`
    (:meth:`on`), mirroring how every blade mounts the same SAN volume.
    """

    def __init__(self) -> None:
        #: chunk id -> stored object.
        self.objects: Dict[str, _Object] = {}
        #: chunk id -> reference count (one per recipe occurrence).
        self.refs: Counter = Counter()
        #: path -> published recipe (the restartable generation).
        self.recipes: Dict[str, Dict[str, Any]] = {}
        #: path -> staged-but-unpublished recipe, keyed by the op that
        #: staged it; orphaned stages are reclaimed by op-id GC.
        self.pending: Dict[str, Dict[str, Any]] = {}
        #: path -> the previous published generation (one-deep undo,
        #: released at the *next* successful publish).  ``None`` marks
        #: "previous generation was nothing" — rollback unlinks.
        self.retired: Dict[str, Optional[Dict[str, Any]]] = {}
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
    def _put(self, cid: str, size: int, blob: Optional[bytes]) -> None:
        if cid in self.objects:
            return
        self.objects[cid] = _Object(size, blob)
        self.stored_bytes += size
        self.stored_chunks += 1
        self.footprint_bytes += size

    def _take(self, recipe: Dict[str, Any]) -> None:
        """One reference per chunk occurrence of ``recipe``."""
        self.refs.update(_recipe_cids(recipe))

    def _release(self, recipe: Dict[str, Any]) -> int:
        """Drop ``recipe``'s references; a chunk dies with its last one.
        Returns the bytes reclaimed."""
        refs, objects = self.refs, self.objects
        reclaimed = chunks = 0
        for cid in _recipe_cids(recipe):
            n = refs[cid] - 1
            if n > 0:
                refs[cid] = n
                continue
            refs.pop(cid, None)
            obj = objects.pop(cid, None)
            if obj is not None:
                reclaimed += obj.size
                chunks += 1
        self.gc_reclaimed_bytes += reclaimed
        self.gc_reclaimed_chunks += chunks
        self.footprint_bytes -= reclaimed
        return reclaimed

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
                       prev_state: Optional[Dict[str, Any]]
                       ) -> Tuple[List[Tuple[str, int]], Dict[str, Any]]:
        """Model the accounted bytes of ``image`` as block chunk ids.

        Returns ``(blocks, new_state)`` where ``blocks`` is the ordered
        ``(chunk_id, length)`` list the entry references and
        ``new_state`` is the state to embed in the staged recipe (it
        becomes the baseline only when that recipe publishes, so an
        aborted op leaves the baseline untouched).  Pure — safe to call
        for cost estimation without staging.
        """
        total = int(image.accounted_bytes)
        nb = (total + ACCT_BLOCK - 1) // ACCT_BLOCK
        lens = [ACCT_BLOCK] * nb
        if nb and total % ACCT_BLOCK:
            lens[-1] = total % ACCT_BLOCK
        seq = (int(prev_state["seq"]) if prev_state else 0) + 1
        if image_extends_chain(image):
            # delta epoch: the accounted bytes are the dirty bytes —
            # all-new content, unique per generation
            blocks = [(f"a!{pod_id}!{seq}!{k}!{lens[k]}", lens[k])
                      for k in range(nb)]
            prev_blocks = list(prev_state["blocks"]) if prev_state else []
            return blocks, {"blocks": prev_blocks, "seq": seq}
        prev_blocks = prev_state["blocks"] if prev_state else None
        if prev_blocks is None:
            # first sight of this pod: every block is pristine mapped
            # application code/data — shared fleet-wide by construction
            blocks = [(f"a!shared!{k}!{lens[k]}", lens[k]) for k in range(nb)]
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
        """Cross-check the index: refcounts must equal the recipe
        occurrences, no chunk may be leaked (stored or ref'd by nothing)
        and no *published* recipe may dangle (reference a chunk whose
        data never made it to the SAN)."""
        expected: Dict[str, int] = {}
        holders = list(self.recipes.values()) + list(self.pending.values()) \
            + [r for r in self.retired.values() if r is not None]
        for recipe in holders:
            for cid in _recipe_cids(recipe):
                expected[cid] = expected.get(cid, 0) + 1
        problems = []
        for cid, n in sorted(expected.items()):
            if self.refs.get(cid, 0) != n:
                problems.append(
                    f"refcount mismatch for {cid}: "
                    f"{self.refs.get(cid, 0)} != {n}")
        for cid in sorted(self.refs):
            if cid not in expected:
                problems.append(f"leaked ref {cid}")
        for cid in sorted(self.objects):
            if cid not in expected:
                problems.append(f"leaked chunk {cid}")
        for path in sorted(self.recipes):
            for cid in _recipe_cids(self.recipes[path]):
                if cid not in self.objects:
                    problems.append(
                        f"dangling ref {cid} in published recipe {path!r}")
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
        #: the payload bytes last chunked, and their chunk list.
        self._chunked: Tuple[Optional[bytes], List[Tuple[str, int, bytes]]] \
            = (None, [])

    # -- cost model ------------------------------------------------------
    def _payload_chunks(self, image: PodImage) -> List[Tuple[str, int, bytes]]:
        """``(chunk_id, length, bytes)`` of the payload — a function of
        the image bytes and ``self.chunking`` alone, so it is computed
        once per image: a flush prices the write, charges its delay and
        stages from one chunk-and-hash pass.  A sink lives for one
        checkpoint, so nothing is remembered beyond the op."""
        # bytes pass through uncopied; a mutable buffer is snapshotted
        # into a fresh object that can never match the remembered one
        blob = bytes(image.data)
        if blob is not self._chunked[0]:
            self._chunked = (blob, [(chunk_id(b), len(b), b) for b in
                                    split_chunks(blob, *self.chunking)])
        return self._chunked[1]

    def _entry_chunks(self, image: PodImage
                      ) -> Tuple[List[Tuple[str, int, Optional[bytes]]],
                                 Dict[str, Any]]:
        """The chunk references of the entry ``image`` would add, plus
        the accounted-block state to embed.  Pure.  The accounted-block
        ids are derived from the generation published *now* — between a
        cost estimate and the stage another op may have republished or
        rolled back the path."""
        store = self.store_
        prev_state = store.acct_prev_state(self.path, image.pod_id)
        acct, acct_state = store.acct_entry_ids(image.pod_id, image, prev_state)
        chunks = self._payload_chunks(image) \
            + [(cid, ln, None) for cid, ln in acct]
        return chunks, acct_state

    def _new_bytes(self, chunks: List[Tuple[str, int, Optional[bytes]]]) -> int:
        """Bytes of the distinct chunks the index is missing *now*: other
        pods publish between two calls, and each must see them."""
        objects = self.store_.objects
        return sum({cid: ln for cid, ln, _blob in chunks
                    if cid not in objects}.values())

    def _delay(self, image: PodImage, new_bytes: int) -> float:
        if image_extends_chain(image) and self.path in self.store_.recipes:
            return self.san.append_delay(new_bytes)
        return self.san.flush_delay(new_bytes)

    def write_delay(self, image: PodImage) -> float:
        return self._delay(image, self._new_bytes(self._entry_chunks(image)[0]))

    def write_cost(self, image: PodImage) -> StageCost:
        new = self._new_bytes(self._entry_chunks(image)[0])
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
        chunks, acct_state = self._entry_chunks(image)
        prev = store.recipes.get(self.path)
        extends = image_extends_chain(image) and prev is not None
        meta = {k: v for k, v in chain_entry(image).items() if k != "data"}
        entry = {
            "meta": meta,
            "payload": [cid for cid, _ln, blob in chunks if blob is not None],
            "acct": [cid for cid, _ln, blob in chunks if blob is None],
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
                      if cid not in store.objects}
            recipe["carried"] = distinct - sum(absent.values())
        new_chunks: List[Tuple[str, int, Optional[bytes]]] = []
        seen = set()
        for cid, ln, blob in chunks:
            if cid in store.objects or cid in seen:
                store.dup_hits += 1
                store.dup_bytes += ln
            else:
                seen.add(cid)
                new_chunks.append((cid, ln, blob))
        # add this entry's distinct chunks, less those ``prev`` holds
        # already: one the index lacked is prev's only if prev is still
        # missing it too
        for cid, ln in {cid: ln for cid, ln, _blob in chunks}.items():
            if extends and (cid in absent if cid in seen
                            else _holds(prev, cid)):
                continue
            distinct += ln
        n_up = len(new_chunks) if truncate is None \
            else int(len(new_chunks) * float(truncate))
        for cid, ln, blob in new_chunks[:n_up]:
            store._put(cid, ln, blob)
        absent.update((cid, ln) for cid, ln, _blob in new_chunks[n_up:])
        recipe["distinct"] = distinct
        recipe["absent"] = {cid: ln for cid, ln in absent.items()
                            if cid not in store.objects}
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

    def load(self, pod_id: str) -> List[PodImage]:
        """Reassemble and validate the published chain at this path.

        A recipe whose chunk data never fully reached the SAN (a
        truncated stage) must never be visible as restartable: every
        missing chunk is converted into a clean :class:`RestartError`
        here, before any pod state is touched.
        """
        store = self.store_
        recipe = store.recipes.get(self.path)
        if recipe is None:
            raise RestartError(f"no image at {self.path!r}")
        chain: List[PodImage] = []
        for entry in recipe["entries"]:
            parts: List[bytes] = []
            for cid in entry["payload"]:
                obj = store.objects.get(cid)
                if obj is None or obj.blob is None:
                    raise RestartError(
                        f"partial or corrupt image at {self.path!r}: "
                        f"missing chunk {cid[:18]}…")
                parts.append(obj.blob)
            for cid in entry["acct"]:
                if cid not in store.objects:
                    raise RestartError(
                        f"partial or corrupt image at {self.path!r}: "
                        f"missing chunk {cid}")
            raw = dict(entry["meta"])
            raw["data"] = b"".join(parts)
            chain.append(image_from_entry(pod_id, raw))
        return restorable_chain(chain, self.path)
