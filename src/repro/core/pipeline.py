"""The staged checkpoint-image pipeline.

The codec's payload bytes flow through an ordered chain of
:class:`ImageFilter` stages before reaching a :class:`Sink`, every stage
charging its own simulated cost (CPU for filter work through the node
cost model, bandwidth for I/O through the SAN/fabric models).  A
filtered image is a self-describing v2 envelope recording the exact
chain needed to reverse it, so the intermediate format stays portable.

* :class:`CompressFilter` — real ``zlib`` on the materialized payload
  (bit-exact round-trips) plus a modeled, level-dependent compression
  ratio for the accounted (non-materialized) resident-set bytes;
* :class:`DeltaFilter` — incremental checkpointing: a block-level diff
  against the previous epoch's payload, accounted memory charged the
  pod's measured dirty bytes.  Restart reassembles the chain (the full
  epoch-0 image, then each delta) in order.

An empty filter chain is the default everywhere and is byte-identical to
the pre-pipeline write path: no envelope, no extra cost terms.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import CheckpointError, CodecError, RestartError
from . import codec
from .image import (
    FORMAT_VERSION,
    PIPELINE_FORMAT_VERSION,
    PodImage,
    build_payload,
    image_netstate_bytes,
)
from .standalone import accounted_memory_bytes

# ---------------------------------------------------------------------------
# cost-model constants (simulated seconds; see DESIGN.md "cost model")
# ---------------------------------------------------------------------------

#: zlib compression throughput at level 1, bytes/second (CPU-bound).
COMPRESS_BW_BASE = 160e6
#: throughput lost per compression level above 1, bytes/second.
COMPRESS_BW_SLOPE = 11e6
#: zlib decompression throughput, bytes/second (much cheaper than compress).
DECOMPRESS_BW = 400e6
#: block-compare scan rate for the delta filter, bytes/second (memory-bound:
#: the incremental pass reads both the new and the previous image once).
DELTA_SCAN_BW = 3e9
#: modeled compression ratio of accounted application memory: the fraction
#: of the resident set remaining after zlib at level 1; each level above
#: shaves a little more, floored — numeric/scientific working sets do not
#: compress like text.
ACCOUNTED_RATIO_BASE = 0.57
ACCOUNTED_RATIO_SLOPE = 0.02
ACCOUNTED_RATIO_FLOOR = 0.35

#: delta-filter block size, bytes.
DELTA_BLOCK = 4096
#: keys every delta record in an image envelope carries beside its name
#: and block size, and those of a delta priced from a measured dirty
#: count.  Nothing reads them: decoding needs only the delta header.
#: They stay because a checkpoint is charged its envelope's bytes, so
#: dropping them is an image-format change, not a clean-up.
DELTA_RECORD_KEYS = {"dirty_fraction": 0.25}
DELTA_MEASURED_KEYS = {"dirty_model": "measured"}

_DELTA_MAGIC = b"ZDLT"


# ---------------------------------------------------------------------------
# stage cost accounting
# ---------------------------------------------------------------------------


@dataclass
class StageCost:
    """One pipeline stage's contribution to the checkpoint (or restart).

    ``seconds`` is simulated time the Agent charges for the stage;
    ``in_bytes``/``out_bytes`` are the stage's size transfer (both include
    the accounted resident-set bytes, which are modeled, not moved).
    """

    stage: str
    seconds: float
    in_bytes: int
    out_bytes: int

    def as_stats(self) -> Dict[str, Any]:
        """Plain-dict form for wire messages and metrics rows."""
        return {"stage": self.stage, "seconds": self.seconds,
                "in_bytes": self.in_bytes, "out_bytes": self.out_bytes}


def record_stage_metrics(cluster, stage_stats: List[Dict[str, Any]]) -> None:
    """Account per-stage pipeline traffic into the cluster's metrics.

    One counter pair per stage name (``pipeline.<stage>.bytes`` /
    ``.invocations``) — the cumulative bytes each serialize / filter /
    write stage pushed, across every pod and epoch of the run.
    """
    if cluster.metrics is None:
        return
    for cost in stage_stats:
        stage = cost.get("stage", "?")
        cluster.count(f"pipeline.{stage}.bytes", int(cost.get("out_bytes", 0)))
        cluster.count(f"pipeline.{stage}.invocations")


@dataclass
class FilterContext:
    """Everything a filter may consult while encoding one image."""

    pod_id: str
    epoch: int
    #: previous-epoch full payload, ``bytes`` or a held
    #: :class:`~repro.core.codec.Blob` (chain filters only; reads and
    #: restores).  None when the target holds no such epoch — a delta it
    #: cannot apply would be useless, so chain filters then emit
    #: self-contained output.
    base: Any = None
    #: the pod's accounted resident-set bytes before any stage.
    raw_accounted: int = 0
    #: bytes the pod wrote since its last checkpoint, counted at suspend
    #: (:func:`repro.core.standalone.count_dirty`).  None: not counted.
    dirty_bytes: Optional[int] = None


@dataclass(frozen=True)
class Generation:
    """One in-memory generation of a pod on an Agent: what a restart
    here reassembles, what the next delta diffs against, and who wrote
    it.  Immutable, so the generation it replaced is kept by reference."""

    #: the epoch-ordered images a restart reassembles (empty: none stored).
    chain: Tuple[PodImage, ...] = ()
    #: the full payload of the newest epoch — the next delta's base.
    base: Optional[bytes] = None
    #: the epoch number the next checkpoint gets.
    epoch: int = 0
    #: the op that published it; None records no owner (a bare
    #: :meth:`PipelineState.commit`, an image pushed here by a peer).
    op_id: Optional[int] = None


_NO_GENERATION = Generation()


class _PodGenerations:
    """One pod's record: the tip, the one generation it replaced, and
    the stage that will replace it — a generation not yet linked to the
    tip: :meth:`ImagePipeline.pack` leaves its base, :meth:`MemorySink.stage`
    its image (alone in the chain) and its op."""

    def __init__(self) -> None:
        self.tip = _NO_GENERATION
        self._undo: Optional[Generation] = None
        self.staged: Optional[Generation] = None

    def publish(self) -> None:
        """The staged generation becomes the tip: its image replaces or
        extends the chain, its base opens the next epoch.  A stage
        without a base (an image no :meth:`ImagePipeline.pack` here
        produced) replaces only the chain."""
        staged, tip, self.staged = self.staged, self.tip, None
        chain = staged.chain
        if not chain or (tip.chain and image_extends_chain(chain[0])):
            chain = tip.chain + chain
        if staged.base is None:
            new = replace(tip, chain=chain, op_id=staged.op_id)
        else:
            new = replace(staged, chain=chain, epoch=tip.epoch + 1)
        self.tip, self._undo = new, tip

    def rollback(self, op_id: int) -> bool:
        """Undo what ``op_id`` staged or published; a tip another op
        wrote is not ``op_id``'s to undo."""
        acted = self.staged is not None and self.staged.op_id == op_id
        if acted:
            self.staged = None
        if self.tip.op_id == op_id:
            self.undo()
            acted = True
        return acted

    def undo(self) -> None:
        """The generation the tip replaced comes back, owner included."""
        self.tip, self._undo = self._undo or _NO_GENERATION, None

    def rebase(self, **noted) -> None:
        """A restart reset what the pod's next delta diffs against —
        whichever retained generation is, or comes back as, the tip."""
        self.tip = replace(self.tip, **noted)
        if self._undo is not None:
            self._undo = replace(self._undo, **noted)


class PipelineState:
    """Per-Agent generation store: one :class:`_PodGenerations` record
    per pod (DESIGN §5).  :meth:`ImagePipeline.pack` stages the new base
    (so a re-pack mid-protocol still diffs against the *previous*
    epoch), :class:`MemorySink` adds the image and publishes under the
    writing op; a user with no sink ends an epoch with :meth:`commit`."""

    def __init__(self) -> None:
        self._pods: Dict[str, _PodGenerations] = {}

    # -- reads ----------------------------------------------------------
    def tips(self) -> Dict[str, Generation]:
        return {pod_id: record.tip for pod_id, record in self._pods.items()}

    def _held(self, pod_id: str) -> _PodGenerations:
        """The pod's record — a blank one, not kept, when it has none."""
        return self._pods.get(pod_id) or _PodGenerations()

    def tip(self, pod_id: str) -> Generation:
        """The pod's committed generation (an empty one: none yet)."""
        return self._held(pod_id).tip

    def epoch(self, pod_id: str) -> int:
        return self.tip(pod_id).epoch

    @property
    def bases(self) -> Dict[str, bytes]:
        """pod -> delta base of its tip (a read-only view, for audits)."""
        return {pod_id: gen.base for pod_id, gen in self.tips().items()
                if gen.base is not None}

    @property
    def chains(self) -> Dict[str, List[PodImage]]:
        """pod -> stored chain of its tip (a read-only view, for audits)."""
        return {pod_id: list(gen.chain) for pod_id, gen in self.tips().items()
                if gen.chain}

    # -- the one transaction ---------------------------------------------
    def _record(self, pod_id: str) -> _PodGenerations:
        return self._pods.setdefault(pod_id, _PodGenerations())

    def stage_base(self, pod_id: str, raw: bytes) -> None:
        self._record(pod_id).staged = Generation(base=raw)

    def stage_image(self, image: PodImage, op_id: Optional[int]) -> None:
        record = self._record(image.pod_id)
        record.staged = replace(record.staged or _NO_GENERATION,
                                chain=(image,), op_id=op_id)

    def publish(self, op_id: Optional[int] = None) -> bool:
        """Publish every staged image — only ``op_id``'s, when one is
        given; True iff there was one."""
        mine = [record for record in self._pods.values()
                if record.staged is not None and record.staged.chain
                and (not op_id or record.staged.op_id == op_id)]
        for record in mine:
            record.publish()
        return bool(mine)

    def commit(self, pod_id: str) -> None:
        """Publish whatever is staged for ``pod_id``, image or not,
        whoever staged it — how a user with no sink ends an epoch."""
        record = self._held(pod_id)
        if record.staged is not None:
            record.publish()

    def abandon(self, pod_id: str) -> None:
        """Drop a staged (unpublished) generation — the abort path."""
        self._held(pod_id).staged = None

    def rollback(self, op_id: int, named: Sequence[str] = ()) -> List[str]:
        """Undo what ``op_id`` staged or published, on every pod it
        wrote: the previous generation comes back with its owner, so a
        replay — or an op that wrote nothing here — undoes nothing.  Of
        the pods ``named``, a stored image that records no owner (pushed
        here by a migrating peer: the wire carries none) goes too —
        whoever names it decides it is theirs to remove.  Returns the
        pods undone."""
        undone = []
        for pod_id, record in self._pods.items():
            if record.rollback(op_id):
                undone.append(pod_id)
            elif (pod_id in named and record.tip.op_id is None
                  and record.tip.chain):
                record.undo()
                undone.append(pod_id)
        return undone

    def note_full(self, pod_id: str, raw: bytes, epoch: int) -> None:
        """Record a reassembled full payload (restart side), so the next
        incremental checkpoint of the restored pod has its base."""
        self._record(pod_id).rebase(base=raw, epoch=epoch + 1)

    def forget(self, pod_id: str) -> None:
        self._pods.pop(pod_id, None)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------


class ImageFilter:
    """One stage of the image pipeline.

    A filter transforms the materialized payload bytes (for real — the
    round-trip must be bit-exact) and *models* its effect on the
    accounted resident-set bytes, which the simulation tracks by count.
    ``encode`` returns the transformed bytes plus per-image parameters
    that ``decode`` needs; both are recorded in the image envelope, so a
    filtered image is self-describing.
    """

    name = "?"

    def describe(self) -> Dict[str, Any]:
        """Static chain descriptor (negotiation + envelope)."""
        return {"name": self.name}

    def encode(self, data: bytes, ctx: FilterContext) -> Tuple[bytes, Dict[str, Any]]:
        raise NotImplementedError

    def decode(self, data: bytes, params: Dict[str, Any], ctx: FilterContext) -> bytes:
        raise NotImplementedError

    def model_accounted(self, accounted: int, ctx: FilterContext) -> int:
        """Post-stage size of the accounted (non-materialized) bytes."""
        return accounted

    def encode_seconds(self, in_bytes: int, out_bytes: int) -> float:
        """Simulated CPU cost of encoding ``in_bytes`` through this stage."""
        return 0.0

    def decode_seconds(self, in_bytes: int, out_bytes: int) -> float:
        """Simulated CPU cost of reversing the stage on restart."""
        return 0.0


class CompressFilter(ImageFilter):
    """zlib-style compression, configurable level.

    Materialized payload bytes are compressed with real ``zlib`` (exact
    round-trip); accounted bytes shrink by a modeled level-dependent
    ratio.  CPU cost is charged per input byte at a bandwidth that falls
    with the level — higher levels trade checkpoint CPU for image size.
    """

    name = "compress"

    def __init__(self, level: int = 6) -> None:
        if not 1 <= int(level) <= 9:
            raise CheckpointError(f"compress level {level!r} outside 1..9")
        self.level = int(level)

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "level": self.level}

    def encode(self, data: bytes, ctx: FilterContext) -> Tuple[bytes, Dict[str, Any]]:
        return zlib.compress(data, self.level), {}

    def decode(self, data: bytes, params: Dict[str, Any], ctx: FilterContext) -> bytes:
        try:
            return zlib.decompress(data)
        except zlib.error as err:
            raise RestartError(f"corrupt compressed image: {err}") from None

    def model_accounted(self, accounted: int, ctx: FilterContext) -> int:
        ratio = max(ACCOUNTED_RATIO_FLOOR,
                    ACCOUNTED_RATIO_BASE - ACCOUNTED_RATIO_SLOPE * self.level)
        return int(accounted * ratio)

    def encode_seconds(self, in_bytes: int, out_bytes: int) -> float:
        return in_bytes / (COMPRESS_BW_BASE - COMPRESS_BW_SLOPE * (self.level - 1))

    def decode_seconds(self, in_bytes: int, out_bytes: int) -> float:
        return out_bytes / DECOMPRESS_BW


class DeltaFilter(ImageFilter):
    """Incremental checkpointing: block-level diff against the previous
    epoch's payload.

    Epoch 0 (or any image leaving the node) passes through as a ``full``
    record and becomes the base; later epochs emit only the blocks that
    changed, so the 10 periodic checkpoints of Figure 6(a) write dirty
    state only after the first.  Accounted memory is charged the bytes
    the pod wrote since its last checkpoint (``ctx.dirty_bytes``, counted
    at suspend); a delta with no count charges every accounted byte.
    Restart reassembles the chain: the epoch-0 full payload patched by
    each delta in order.
    """

    name = "delta"

    def __init__(self, block: int = DELTA_BLOCK) -> None:
        if int(block) <= 0:
            raise CheckpointError(f"delta block size {block!r} must be positive")
        self.block = int(block)

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "block": self.block, **DELTA_RECORD_KEYS}

    # -- payload bytes --------------------------------------------------
    def encode(self, data: bytes, ctx: FilterContext) -> Tuple[bytes, Dict[str, Any]]:
        if ctx.base is None:
            return data, {"kind": "full"}
        base = bytes(ctx.base)      # the one join of a held base
        blocks: List[Tuple[int, bytes]] = []
        nblocks = (len(data) + self.block - 1) // self.block
        for i in range(nblocks):
            lo = i * self.block
            chunk = data[lo:lo + self.block]
            if chunk != base[lo:lo + self.block]:
                blocks.append((i, chunk))
        out = bytearray()
        out += _DELTA_MAGIC
        out += struct.pack(">IQI", self.block, len(data), len(blocks))
        for idx, chunk in blocks:
            out += struct.pack(">II", idx, len(chunk))
            out += chunk
        params: Dict[str, Any] = {"kind": "delta"}
        if ctx.dirty_bytes is not None:
            params.update(DELTA_MEASURED_KEYS)
        return bytes(out), params

    def decode(self, data: bytes, params: Dict[str, Any], ctx: FilterContext) -> bytes:
        if params.get("kind") == "full":
            return data
        if ctx.base is None:
            raise RestartError(
                f"delta image for pod {ctx.pod_id!r} (epoch {ctx.epoch}) "
                "has no base payload to patch")
        if data[:4] != _DELTA_MAGIC:
            raise RestartError("corrupt delta image (bad magic)")
        block, length, count = struct.unpack(">IQI", data[4:20])
        base = bytes(ctx.base)      # the one join of a held base
        out = bytearray(length)
        out[:min(length, len(base))] = base[:length]
        pos = 20
        for _ in range(count):
            idx, n = struct.unpack(">II", data[pos:pos + 8])
            pos += 8
            out[idx * block:idx * block + n] = data[pos:pos + n]
            pos += n
        if pos != len(data):
            raise RestartError(f"{len(data) - pos} trailing bytes in delta image")
        return bytes(out)

    # -- accounted memory ----------------------------------------------
    def model_accounted(self, accounted: int, ctx: FilterContext) -> int:
        if ctx.base is None or ctx.dirty_bytes is None:
            return accounted
        if ctx.raw_accounted <= 0:
            return 0
        # compose with whatever earlier stages did to the accounted bytes
        return int(accounted * (ctx.dirty_bytes / ctx.raw_accounted))

    def encode_seconds(self, in_bytes: int, out_bytes: int) -> float:
        return in_bytes / DELTA_SCAN_BW

    def decode_seconds(self, in_bytes: int, out_bytes: int) -> float:
        return out_bytes / DELTA_SCAN_BW


#: registry of filter constructors, keyed by spec name.
FILTERS = {
    CompressFilter.name: CompressFilter,
    DeltaFilter.name: DeltaFilter,
}


def build_filter(spec: Dict[str, Any]) -> ImageFilter:
    """Instantiate one filter from a ``{"name": ..., **params}`` spec."""
    params = {k: v for k, v in spec.items() if k != "name"}
    try:
        ctor = FILTERS[spec["name"]]
    except KeyError:
        raise CheckpointError(f"unknown image filter {spec.get('name')!r}") from None
    return ctor(**params)


def negotiate_filters(
    requested: Optional[List[Dict[str, Any]]],
) -> Tuple[List[ImageFilter], List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Agent-side filter negotiation.

    The Manager's checkpoint command *requests* a chain; the Agent
    accepts the stages it supports and drops the rest (reported back in
    the meta-data exchange, so the Manager — and through it the user —
    sees the chain actually applied).  Returns
    ``(filters, accepted_specs, rejected_specs)``.
    """
    filters: List[ImageFilter] = []
    accepted: List[Dict[str, Any]] = []
    rejected: List[Dict[str, Any]] = []
    for spec in requested or []:
        try:
            filters.append(build_filter(spec))
            accepted.append(dict(spec))
        except (CheckpointError, TypeError):
            rejected.append(dict(spec))
    return filters, accepted, rejected


def parse_filter_args(compress: Optional[int] = None,
                      incremental: bool = False) -> List[Dict[str, Any]]:
    """CLI flags → filter chain specs (delta before compress: compressing
    the delta is strictly smaller than delta-ing the compressed)."""
    specs: List[Dict[str, Any]] = []
    if incremental:
        specs.append({"name": "delta"})
    if compress is not None:
        specs.append({"name": "compress", "level": int(compress)})
    return specs


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


@dataclass
class ReassembledImage:
    """Result of reversing a filter chain on restart."""

    payload: Dict[str, Any]
    raw: bytes
    #: full (unfiltered) image size — what the restore-bandwidth charge
    #: rebuilds in memory.
    full_total_bytes: int
    #: simulated CPU seconds of filter reversal across the whole chain.
    decode_seconds: float
    stage_costs: List[StageCost] = field(default_factory=list)


class ImagePipeline:
    """An ordered filter chain between the codec and a sink.

    With no filters this is exactly the historic write path: the image
    is the v1 payload's bytes, held as :func:`repro.core.codec.encode_held`
    gives them, and no extra cost stages appear.
    """

    def __init__(self, filters: Optional[List[ImageFilter]] = None) -> None:
        self.filters = list(filters or [])

    def describe(self) -> List[Dict[str, Any]]:
        return [f.describe() for f in self.filters]

    # -- checkpoint side ------------------------------------------------
    def pack(
        self,
        standalone: Dict[str, Any],
        socket_records: List[Dict[str, Any]],
        socket_fd_rows: List[Dict[str, Any]],
        devices: Optional[Dict[str, Any]] = None,
        *,
        state: Optional[PipelineState] = None,
        serialize_bandwidth: Optional[float] = None,
        chain_local: bool = True,
        dirty_bytes: Optional[int] = None,
    ) -> PodImage:
        """Assemble, filter and cost-account one pod checkpoint image.

        ``dirty_bytes`` is what the pod wrote since its last checkpoint:
        a delta's accounted bytes are priced from it, and the image
        carries it (``acct_dirty_bytes``) for the sink's cost model.
        The new base is *staged* in ``state``: publish it once the image
        is final (Agents re-pack after the send-queue redirect) — through
        the Agent's :class:`MemorySink`, or ``state.commit(pod_id)``.
        """
        pod_id = standalone["pod_id"]
        payload = build_payload(standalone, socket_records, socket_fd_rows, devices)
        raw_accounted = accounted_memory_bytes(standalone)
        netstate = image_netstate_bytes(socket_records, devices)
        # unfiltered, the registers' large payloads are held, not copied
        # (DESIGN §5); a filter reads the contiguous bytes
        raw = codec.encode(payload) if self.filters else codec.encode_held(payload)
        costs: List[StageCost] = []
        if serialize_bandwidth:
            total = len(raw) + raw_accounted
            costs.append(StageCost("serialize", total / serialize_bandwidth, total, total))
        if not self.filters:
            if state is not None:
                state.stage_base(pod_id, raw)
            return PodImage(pod_id=pod_id, data=raw, encoded_bytes=len(raw),
                            accounted_bytes=raw_accounted, netstate_bytes=netstate,
                            acct_dirty_bytes=dirty_bytes,
                            stage_costs=[c.as_stats() for c in costs])

        epoch = state.epoch(pod_id) if state is not None else 0
        ctx = FilterContext(
            pod_id=pod_id,
            epoch=epoch,
            base=(state.tip(pod_id).base
                  if state is not None and chain_local else None),
            raw_accounted=raw_accounted,
            dirty_bytes=dirty_bytes,
        )
        body, accounted = raw, raw_accounted
        applied: List[Dict[str, Any]] = []
        for filt in self.filters:
            in_total = len(body) + accounted
            body, params = filt.encode(body, ctx)
            accounted = filt.model_accounted(accounted, ctx)
            out_total = len(body) + accounted
            costs.append(StageCost(filt.name, filt.encode_seconds(in_total, out_total),
                                   in_total, out_total))
            applied.append({**filt.describe(), **params})

        envelope = codec.encode({
            "format": PIPELINE_FORMAT_VERSION,
            "pod_id": pod_id,
            "epoch": epoch,
            "filters": applied,
            "body": body,
            "raw_bytes": len(raw),
            "raw_accounted": raw_accounted,
        })
        image = PodImage(
            pod_id=pod_id,
            data=envelope,
            encoded_bytes=len(envelope),
            accounted_bytes=accounted,
            netstate_bytes=netstate,
            filters=applied,
            epoch=epoch,
            raw_encoded_bytes=len(raw),
            raw_accounted_bytes=raw_accounted,
            acct_dirty_bytes=dirty_bytes,
            stage_costs=[c.as_stats() for c in costs],
        )
        if state is not None:
            state.stage_base(pod_id, raw)
        return image

    # -- restart side ---------------------------------------------------
    @staticmethod
    def reassemble(chain: List[PodImage],
                   state: Optional[PipelineState] = None) -> ReassembledImage:
        """Reverse the filter chain of a stored image (or delta chain).

        ``chain`` is epoch-ordered: a single self-contained image, or the
        epoch-0 full image followed by each delta.  Returns the decoded
        payload plus the simulated reversal cost.
        """
        if not chain:
            raise RestartError("empty image chain")
        raw: Optional[bytes] = None
        decode_seconds = 0.0
        costs: List[StageCost] = []
        for image in chain:
            if not image.filters:
                raw = image.data
                continue
            envelope = codec.decode(image.data)
            if envelope.get("format") != PIPELINE_FORMAT_VERSION:
                raise RestartError(
                    f"unsupported filtered-image format {envelope.get('format')!r}")
            body = envelope["body"]
            ctx = FilterContext(pod_id=image.pod_id, epoch=int(envelope["epoch"]),
                                base=raw)
            for entry in reversed(envelope["filters"]):
                # decoding needs no parameter but the name: a delta reads
                # its block size from its own header, zlib needs no level
                filt = build_filter({"name": entry.get("name")})
                in_bytes = len(body)
                body = filt.decode(body, entry, ctx)
                seconds = filt.decode_seconds(in_bytes, len(body))
                decode_seconds += seconds
                costs.append(StageCost(f"un{filt.name}", seconds, in_bytes, len(body)))
            raw = body
        payload = codec.decode(raw)
        if payload.get("format") != FORMAT_VERSION:
            raise CheckpointError(f"unsupported image format {payload.get('format')!r}")
        last = chain[-1]
        if state is not None:
            state.note_full(last.pod_id, raw, last.epoch)
        return ReassembledImage(payload=payload, raw=raw,
                                full_total_bytes=last.raw_total_bytes,
                                decode_seconds=decode_seconds, stage_costs=costs)


def extends_chain(filters: List[Dict[str, Any]]) -> bool:
    """True when an image with these filters is a delta depending on
    the previous epoch."""
    return any(entry.get("name") == "delta" and entry.get("kind") == "delta"
               for entry in filters)


def image_extends_chain(image: PodImage) -> bool:
    """True when ``image`` is a delta depending on the previous epoch."""
    return extends_chain(image.filters)


def check_chain(epochs: List[int], head_filters: List[Dict[str, Any]],
                where: str) -> None:
    """:class:`RestartError` unless a restart can apply a chain of these
    epochs whose head has these filters — a self-contained head, then
    each next epoch's delta (a delta decodes against *any* base, so a
    gap would restore wrong bytes silently)."""
    if (not epochs or extends_chain(head_filters)
            or epochs != list(range(epochs[0], epochs[0] + len(epochs)))):
        raise RestartError(f"image chain at {where!r} (epochs {epochs}) is "
                           "not a full image plus consecutive deltas")


def restorable_chain(chain: List[PodImage], where: str) -> List[PodImage]:
    """``chain`` if a restart can apply it (see :func:`check_chain`)."""
    check_chain([image.epoch for image in chain],
                chain[0].filters if chain else [], where)
    return chain


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


class Sink:
    """Where a checkpoint image lands — one protocol for every
    destination, mirroring the paper's URIs (DESIGN §5 tabulates the
    sinks).  The Agent drives it (write-to-memory first, the post-resume
    flush, the node-to-node push) and charges :meth:`write_delay` where
    its protocol step happens; what callers would otherwise re-derive
    from the URI string is data here.
    """

    kind = "?"
    #: on shared storage: restartable from any node.
    shared = False
    #: the message that follows ``done`` once the image is safe at its
    #: destination — what the Manager waits for (None: nothing follows).
    ack: Optional[str] = None
    #: the node the image leaves this Agent for (direct migration): it
    #: cannot be a delta or be encoded after the pod resumed, and it is
    #: collected at its destination.
    dest: Optional[str] = None
    #: generations remember their op: publish and rollback are op-keyed
    #: (else rollback is a blunt delete).
    tracks_ops = False
    #: the write-cost model reads ``PodImage.acct_dirty_bytes``.
    wants_dirty = False
    #: fault crossings before the bytes move (``write``), between stage
    #: and publish (``commit``), before the abort path's rollback (``gc``).
    crossings: Dict[str, str] = {}
    #: namespace of the sink's own ``<ns>.flush`` / ``<ns>.gc`` spans.
    span_ns: Optional[str] = None

    def write_delay(self, image: PodImage) -> float:
        return 0.0

    def write_cost(self, image: PodImage) -> StageCost:
        n = image.total_bytes
        return StageCost(f"write:{self.kind}", self.write_delay(image), n, n)

    def stage(self, image: PodImage, op_id: int = 0,
              truncate: Optional[float] = None) -> None:
        """Make the image durable but not yet restartable.  ``truncate``
        (a fraction in (0, 1)) simulates a write cut short by a fault,
        which :meth:`load` must then reject."""

    def publish(self, op_id: Optional[int] = None) -> bool:
        """Swap the staged generation in; False when there is none, or
        it belongs to another op and the sink can tell."""
        return True

    def rollback(self, op_id: int) -> bool:
        """Undo what op ``op_id`` staged or published; True iff anything
        was undone.  Idempotent."""
        return False

    def store(self, image: PodImage, op_id: int = 0,
              truncate: Optional[float] = None) -> None:
        """One-shot write: :meth:`stage` then :meth:`publish`."""
        self.stage(image, op_id=op_id, truncate=truncate)
        self.publish(op_id)

    def load(self, pod_id: str) -> List[PodImage]:
        """The epoch-ordered chain; :class:`RestartError` if partial."""
        return []

    def exists(self, op_id: Optional[int] = None) -> bool:
        """Is a generation visible — published by ``op_id``, when one is
        given and the sink can tell?"""
        return False

    def tip_epoch(self, pod_id: str) -> Optional[int]:
        """Epoch of the newest image held for the pod (None: nothing
        restorable) — only the next epoch's delta can be applied here."""
        try:
            chain = self.load(pod_id)
        except RestartError:
            return None
        return chain[-1].epoch if chain else None


class MemorySink(Sink):
    """The Agent's in-memory store (the paper's default target): the
    :class:`Sink` face of its :class:`PipelineState`.  It holds every
    pod of the node, so an op id selects among the pods' records."""

    kind = "mem"
    tracks_ops = True

    def __init__(self, state: PipelineState) -> None:
        self.state = state

    def stage(self, image: PodImage, op_id: int = 0,
              truncate: Optional[float] = None) -> None:
        """Join the image to the base :meth:`ImagePipeline.pack` staged."""
        self.state.stage_image(image, op_id or None)

    def publish(self, op_id: Optional[int] = None) -> bool:
        return self.state.publish(op_id)

    def rollback(self, op_id: int) -> bool:
        """Op-keyed (see :meth:`PipelineState.rollback`); an image that
        records no owner is never this call's to remove."""
        return bool(self.state.rollback(op_id))

    def load(self, pod_id: str) -> List[PodImage]:
        return list(self.state.tip(pod_id).chain)

    def exists(self, op_id: Optional[int] = None) -> bool:
        return any(gen.chain and op_id in (None, gen.op_id)
                   for gen in self.state.tips().values())


class FileSink(Sink):
    """Flush to shared storage (the SAN every blade mounts) — the
    degenerate peer: staging writes the container in place, so publish
    has nothing left to do and rollback is an unlink.

    Unfiltered images keep the historic single-image container format
    byte-for-byte; filtered images write a chain container that a delta
    epoch extends (charged only for the appended bytes — the SAN write
    is an append, not a rewrite).  The file holds the container as the
    codec's fragments, each image's among them by reference, and a load
    hands those same objects back (DESIGN §5).
    """

    kind = "file"
    shared = True
    ack = "flushed"
    crossings = {"write": "agent.flush"}

    def __init__(self, san, vfs, path: str) -> None:
        self.san = san
        self.vfs = vfs
        self.path = path

    def write_delay(self, image: PodImage) -> float:
        if image_extends_chain(image):
            # delta epoch: the chain container grows by one record; only
            # the appended bytes cross the FC link
            return self.san.append_delay(image.total_bytes)
        return self.san.flush_delay(image.total_bytes)

    def stage(self, image: PodImage, op_id: int = 0,
              truncate: Optional[float] = None) -> None:
        """Write the image container (truncated: only that prefix of it
        reaches the SAN, which the read-back validation in :meth:`load`
        must then reject), copying nothing but the fragment a truncation
        cuts."""
        if not image.filters:
            container: Dict[str, Any] = {
                "data": image.data,
                "accounted": image.accounted_bytes,
                "netstate": image.netstate_bytes,
            }
        else:
            entries: List[Dict[str, Any]] = []
            if image_extends_chain(image):
                try:
                    # the stored epochs' bytes come back as the file's
                    # own fragments, and go into the new file as they are
                    entries = list(self._stored().get("chain", []))
                except Exception:
                    entries = []
            entries.append(chain_entry(image))
            container = {"chain": entries}
        parts = codec.encode_parts(container)
        if truncate is not None:
            room = max(1, int(sum(map(len, parts)) * float(truncate)))
            parts = _leading(parts, room)
        fs, inner = self.vfs.resolve(self.path)
        fs.create(inner, parts)

    def _stored(self) -> Any:
        """The container at this path, decoded from a transient join of
        the file: every ``data`` in it is the file's own fragments (a
        copy only when the file was rewritten through its bytearray)."""
        return codec.decode_parts(self.vfs.open(self.path, "r").file.fragments)

    def exists(self, op_id: Optional[int] = None) -> bool:
        fs, inner = self.vfs.resolve(self.path)
        return inner in fs.files

    def rollback(self, op_id: int) -> bool:
        """Remove the container (it records no owner, so whoever calls
        this decides it is theirs to remove)."""
        fs, inner = self.vfs.resolve(self.path)
        return fs.files.pop(inner, None) is not None

    def load(self, pod_id: str) -> List[PodImage]:
        """Load and validate the image chain at this path.

        A truncated or otherwise corrupt container must never be visible
        as restartable: every decode error is converted into a clean
        :class:`RestartError` here, before any pod state is touched.
        """
        if not self.exists():
            raise RestartError(f"no image at {self.path!r}")
        try:
            container = self._stored()
            # the historic single-image container is one bare entry
            chain = [image_from_entry(pod_id, entry)
                     for entry in container.get("chain", [container])]
        except (CodecError, AttributeError, KeyError, TypeError,
                ValueError) as err:
            # raised below, outside the handler: an exception raised in
            # here would carry ``err``, its traceback and with it the
            # decoder's join of the file for as long as a caller held it
            corrupt = str(err)
        else:
            return restorable_chain(chain, self.path)
        raise RestartError(f"partial or corrupt image at {self.path!r}: {corrupt}")


class StreamSink(Sink):
    """Direct migration: the image crosses the fabric to a peer Agent,
    which keeps it in *its* memory sink — this end holds nothing.

    The encoded payload travels over the simulated network for real; the
    accounted (ballast) bytes are charged as streaming time at fabric
    bandwidth without materializing them — which is why compression's
    accounted-ratio model directly buys migration time.
    """

    kind = "stream"
    ack = "streamed"

    def __init__(self, fabric_bandwidth: float, dest: str) -> None:
        self.fabric_bandwidth = fabric_bandwidth
        self.dest = dest

    def write_delay(self, image: PodImage) -> float:
        return image.accounted_bytes / self.fabric_bandwidth


def _leading(parts: codec.Parts, nbytes: int) -> codec.Parts:
    """The fragments of ``parts`` that hold its first ``nbytes`` bytes,
    the last one cut where they end."""
    out: codec.Parts = []
    for part in parts:
        if nbytes <= 0:
            break
        out.append(part[:nbytes])
        nbytes -= len(part)
    return out


def chain_entry(image: PodImage) -> Dict[str, Any]:
    return {
        "data": image.data,
        "accounted": image.accounted_bytes,
        "netstate": image.netstate_bytes,
        "filters": image.filters,
        "epoch": image.epoch,
        "raw_bytes": image.raw_encoded_bytes,
        "raw_accounted": image.raw_accounted_bytes,
    }


def image_from_entry(pod_id: str, entry: Dict[str, Any]) -> PodImage:
    """The image of one stored entry.  Exact ``bytes`` and a
    :class:`~repro.core.codec.Blob` (immutable: a file's fragments, a
    joined CAS payload, a wire message's) become its data as they are;
    anything else, a view of a buffer that may still change, is copied
    once."""
    data = entry["data"]
    if type(data) not in (bytes, codec.Blob):
        data = bytes(data)
    return PodImage(
        pod_id=pod_id,
        data=data,
        encoded_bytes=len(data),
        accounted_bytes=int(entry["accounted"]),
        netstate_bytes=int(entry["netstate"]),
        filters=list(entry.get("filters") or []),
        epoch=int(entry.get("epoch", 0)),
        raw_encoded_bytes=entry.get("raw_bytes"),
        raw_accounted_bytes=entry.get("raw_accounted"),
    )
