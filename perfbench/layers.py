"""Per-layer numbers, all measured from outside ``repro``.

* host attribution: one ``cProfile`` repetition, self time and call
  counts bucketed by the source file's module path (:func:`layer_of`);
* the simulated-clock layer tables of checkpoint, restart and fleet
  operations, read off ``repro``'s own ``SpanTracer`` after a traced
  repetition (:func:`span_tables`).
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from statistics import mean, median
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import surface

#: layer names are module paths under ``repro``; ``stdlib`` is everything
#: outside it (the interpreter's library, numpy, and perfbench itself).
LAYERS = ("sim", "net", "vos", "pod", "middleware", "apps", "core.codec",
          "core.pipeline", "core.proto", "storage.cas", "storage.ledger",
          "storage.san", "fleet", "obs", "cluster", "stdlib")

_SPLIT = {
    "core": {"codec.py": "core.codec", "pipeline.py": "core.pipeline"},
    "storage": {"cas.py": "storage.cas", "ledger.py": "storage.ledger"},
}
_SPLIT_REST = {"core": "core.proto", "storage": "storage.san"}
_WHOLE = {"sim", "net", "vos", "pod", "middleware", "apps", "fleet", "obs",
          "cluster"}


def layer_of(filename: str) -> str:
    """The layer a source file belongs to.

    ``core`` splits into codec / pipeline / the protocol rest, ``storage``
    into cas / ledger / the SAN rest; ``repro``'s top-level glue
    (``harness.py``, ``baselines/`` ...) builds worlds and counts as
    ``cluster``.
    """
    try:
        parts = Path(filename).relative_to(surface.SRC / "repro").parts
    except ValueError:
        return "stdlib"
    top = parts[0]
    if top in _SPLIT:
        return _SPLIT[top].get(parts[-1], _SPLIT_REST[top])
    return top if top in _WHOLE else "cluster"


def profile_rep(run: Callable[[], Any], dump_to: Optional[Path] = None
                ) -> Tuple[Any, Dict[str, float]]:
    """Run one repetition under cProfile; returns its result and
    ``host.<layer>.self_s`` / ``host.<layer>.calls`` for every layer.

    A C builtin has no source file, so its self time and calls are
    charged to the layer of each Python function that called it (the
    profiler records that split): ``struct.pack`` inside the codec is
    codec time, ``heapq`` inside the engine is engine time.
    """
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = run()
    finally:
        prof.disable()
    stats = pstats.Stats(prof)
    if dump_to is not None:
        dump_to.parent.mkdir(parents=True, exist_ok=True)
        stats.dump_stats(str(dump_to))
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        if filename.startswith(("~", "<")) and callers:
            for (caller_file, _l, _n), (_c, n_from, tt_from, _t) in callers.items():
                layer = layer_of(caller_file)
                self_s[layer] += tt_from
                calls[layer] += n_from
        else:
            layer = layer_of(filename)
            self_s[layer] += tottime
            calls[layer] += ncalls
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"host.{layer}.self_s"] = self_s[layer]
        out[f"host.{layer}.calls"] = float(calls[layer])
    return result, out


# ---------------------------------------------------------------------------
# simulated-clock layer tables
# ---------------------------------------------------------------------------

#: phase span -> row name.  A checkpoint has a ``barrier`` and a
#: ``commit`` phase on both sides, so its manager rows carry a prefix;
#: restart's manager and agent phase names do not collide.
CKPT_MGR_ROWS = {p: f"mgr_{p}" for p in ("connect", "meta", "barrier", "commit")}
CKPT_AGENT_ROWS = {p: p for p in ("suspend", "netstate", "meta_report",
                                  "barrier", "standalone", "commit")}
RESTART_MGR_ROWS = {p: p for p in ("load_meta", "plan", "commit")}
RESTART_AGENT_ROWS = {p: p for p in ("connectivity", "netrestore",
                                     "standalone_restore")}

#: every key :func:`span_tables` can produce (absent ones read 0: the
#: workload ran no such operation).
SPAN_TABLE_KEYS = tuple(
    [f"simck.{row}_ms" for row in (*CKPT_AGENT_ROWS.values(),
                                   *CKPT_MGR_ROWS.values(), "flush", "unaccounted")]
    + [f"simrs.{row}_ms" for row in (*RESTART_MGR_ROWS.values(),
                                     *RESTART_AGENT_ROWS.values(), "unaccounted")]
    + ["simfl.unit_ckpt_p50_ms", "simfl.unit_restart_p50_ms"])


def _op_rows(op: Any, children: List[Any], mgr_rows: Dict[str, str],
             agent_rows: Dict[str, str]) -> Dict[str, float]:
    """One operation's rows in seconds; ``*_rows`` map phase -> row name.

    Manager rows are the phases of the *critical* manager lane (the pod
    whose phases sum highest): lanes are contiguous, so those rows plus
    ``unaccounted`` equal the operation's reported latency, and a phase
    this table does not know lands in ``unaccounted`` instead of
    vanishing.  Agent rows are the max over pods (they run in parallel).
    """
    lanes: Dict[Any, Dict[str, float]] = {}
    rows = dict.fromkeys(list(mgr_rows.values()) + list(agent_rows.values())
                         + ["flush"], 0.0)
    for span in children:
        kind, _, phase = span.name.rpartition(".")
        if span.category == "phase" and kind == "manager.phase":
            lane = lanes.setdefault(span.pod, {})
            lane[phase] = lane.get(phase, 0.0) + span.duration
        elif span.category == "phase" and kind == "agent.phase":
            if phase in agent_rows:
                row = agent_rows[phase]
                rows[row] = max(rows[row], span.duration)
        elif kind == "manager.post":
            rows["flush"] = max(rows["flush"], span.duration)
    critical = max(lanes.values(), key=lambda lane: sum(lane.values()),
                   default={})
    for phase, row in mgr_rows.items():
        rows[row] = critical.get(phase, 0.0)
    rows["latency"] = op.attrs.get("duration_s", op.duration)
    rows["unaccounted"] = rows["latency"] - sum(rows[r] for r in mgr_rows.values())
    return rows


def span_tables(worlds: List[Any]) -> Dict[str, float]:
    """``simck.*`` / ``simrs.*`` (mean over ops, ms) and the fleet's
    per-unit op medians, from the traced repetition's span dumps."""
    tables: Dict[str, List[Dict[str, float]]] = {"simck": [], "simrs": []}
    for world in worlds:
        by_parent: Dict[Any, List[Any]] = {}
        for span in world.tracer.spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        for span in world.tracer.spans:
            if span.category != "op" or span.status != "ok":
                continue
            children = by_parent.get(span.span_id, [])
            if span.name == "manager.checkpoint":
                tables["simck"].append(_op_rows(span, children, CKPT_MGR_ROWS,
                                                CKPT_AGENT_ROWS))
            elif span.name == "manager.restart":
                tables["simrs"].append(_op_rows(span, children, RESTART_MGR_ROWS,
                                                RESTART_AGENT_ROWS))
    out: Dict[str, float] = {}
    for key in SPAN_TABLE_KEYS:
        prefix, _, row = key[:-len("_ms")].partition(".")
        if tables.get(prefix):
            out[key] = mean(op[row] for op in tables[prefix]) * 1e3
    if any(w.campaign is not None for w in worlds):
        for key, prefix in (("unit_ckpt", "simck"), ("unit_restart", "simrs")):
            out[f"simfl.{key}_p50_ms"] = \
                median(op["latency"] for op in tables[prefix]) * 1e3
    return out


def registry_counts(worlds: List[Any]) -> Dict[str, int]:
    """Sum of the traced repetition's MetricsRegistry counters."""
    out: Dict[str, int] = {}
    for world in worlds:
        for name, counter in world.registry.counters.items():
            out[name] = out.get(name, 0) + int(counter.value)
    return out
