"""Target URI → sink: the one place a URI's scheme is read.

``mem``, ``file:<path>``, ``cas:<path>`` and ``agent://<node>`` are the
paper's memory / file / peer-Agent targets; everything downstream asks
the :class:`~repro.core.pipeline.Sink` returned here.  The module sits
above both :mod:`repro.core.pipeline` and :mod:`repro.storage.cas`
(which builds on the pipeline): only here can both be imported.
"""

from __future__ import annotations

from ..storage.cas import CasSink, CasStore
from .pipeline import FileSink, ImagePipeline, Sink, StreamSink

#: what a node-local URI is to a caller that holds no local store (the
#: Manager, an audit): the protocol's data defaults, no image.
_ELSEWHERE = Sink()


def resolve_sink(uri: str, cluster, vfs, local: Sink = _ELSEWHERE) -> Sink:
    """The sink ``uri`` names; ``local`` is the caller's own in-memory
    sink, where ``mem`` (or no scheme at all) lands."""
    if uri.startswith("agent://"):
        return StreamSink(cluster.fabric.bandwidth, uri[len("agent://"):])
    if uri.startswith("file:"):
        return FileSink(cluster.san, vfs, uri[len("file:"):])
    if uri.startswith("cas:"):
        return CasSink(cluster.san, vfs, uri[len("cas:"):])
    return local


def release_op(cluster, op_id: int) -> int:
    """Drop whatever op ``op_id`` staged or published in the op-keyed
    shared stores (idempotent); returns the bytes reclaimed."""
    return CasStore.on(cluster.san).abort_op(op_id)


def restores_committed(sink: Sink, agent, pod_id: str) -> bool:
    """The restore audit: ``sink`` holds, entry for entry, the chain
    ``agent`` committed for the pod, and it rebuilds the Agent's base."""
    try:
        loaded = sink.load(pod_id)
        raw = ImagePipeline.reassemble(loaded).raw
    except Exception:  # noqa: BLE001 - any failure to restore is a "no"
        return False
    truth = agent.mem_sink.load(pod_id)
    return (raw == agent.pipeline_state.bases.get(pod_id)
            and len(loaded) == len(truth)
            and all((a.data, a.accounted_bytes, a.netstate_bytes, a.epoch,
                     a.filters)
                    == (b.data, b.accounted_bytes, b.netstate_bytes, b.epoch,
                        b.filters) for a, b in zip(loaded, truth)))
