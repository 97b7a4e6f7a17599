"""Target URI → sink: the one place a URI's scheme is read (``mem``,
``file:<path>``, ``cas:<path>``, ``agent://<node>`` — the paper's memory /
file / peer-Agent targets).  The module sits above :mod:`repro.core.pipeline`
and :mod:`repro.storage.cas` (which builds on the pipeline): only from
here can both be imported.
"""

from __future__ import annotations

from ..storage.cas import CasSink
from .pipeline import FileSink, ImagePipeline, Sink, StreamSink, chain_entry

def resolve_sink(uri: str, cluster, vfs, local: Sink = Sink()) -> Sink:
    """The sink ``uri`` names; ``local`` is the caller's own in-memory
    sink, where ``mem`` (or no scheme at all) lands — for a caller that
    holds none (the Manager, an audit), the protocol's bare defaults."""
    if uri.startswith("agent://"):
        return StreamSink(cluster.fabric.bandwidth, uri[len("agent://"):])
    if uri.startswith("file:"):
        return FileSink(cluster.san, vfs, uri[len("file:"):])
    if uri.startswith("cas:"):
        return CasSink(cluster.san, vfs, uri[len("cas:"):])
    return local


def restores_committed(sink: Sink, agent, pod_id: str) -> bool:
    """The restore audit: ``sink`` holds, entry for entry, the chain
    ``agent`` committed for the pod, and it rebuilds the Agent's base."""
    try:
        loaded = sink.load(pod_id)
        raw = ImagePipeline.reassemble(loaded).raw
    except Exception:  # noqa: BLE001 - any failure to restore is a "no"
        return False
    committed = agent.pipeline_state.tip(pod_id)
    return (raw == committed.base
            and [chain_entry(image) for image in loaded]
            == [chain_entry(image) for image in committed.chain])
