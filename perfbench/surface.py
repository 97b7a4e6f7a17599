"""The one place perfbench touches ``repro``.

Every name the benchmark uses from the system under test is listed in
:data:`SYMBOLS` and resolved by :func:`load`.  Later refactors may not
edit ``perfbench/``, so a symbol that moved must be a loud error that
names it — never a metric that silently reads zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Tuple

#: the checkout this benchmark lives in; it measures that tree and no other.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: name used by perfbench -> (module, dotted attribute path)
SYMBOLS: Dict[str, Tuple[str, str]] = {
    # worlds
    "APPS": ("repro.harness", "APPS"),
    "build_cluster": ("repro.harness", "build_cluster"),
    "checkpoint_targets": ("repro.middleware", "checkpoint_targets"),
    "Cluster": ("repro.cluster.builder", "Cluster"),
    "Manager": ("repro.core.manager", "Manager"),
    "build_fleet_world": ("repro.fleet", "build_fleet_world"),
    "evacuate_task": ("repro.fleet", "evacuate_task"),
    "FleetPolicy": ("repro.fleet", "FleetPolicy"),
    "FLEET_TIMEOUTS": ("repro.fleet", "FLEET_TIMEOUTS"),
    "build_program": ("repro.vos", "build_program"),
    "program": ("repro.vos", "program"),
    "registered_programs": ("repro.vos", "registered_programs"),
    "imm": ("repro.vos", "imm"),
    "DEAD": ("repro.vos", "DEAD"),
    "DEFAULT_HZ": ("repro.vos.kernel", "DEFAULT_HZ"),
    # storage
    "CasStore": ("repro.storage.cas", "CasStore"),
    "CasSink": ("repro.storage.cas", "CasSink"),
    "chunk_bounds": ("repro.storage.cas", "chunk_bounds"),
    "OpLedger": ("repro.storage.ledger", "OpLedger"),
    "FileSystem": ("repro.vos", "FileSystem"),
    # image path
    "codec": ("repro.core", "codec"),
    "ImagePipeline": ("repro.core.pipeline", "ImagePipeline"),
    "PipelineState": ("repro.core.pipeline", "PipelineState"),
    "DeltaFilter": ("repro.core.pipeline", "DeltaFilter"),
    "FilterContext": ("repro.core.pipeline", "FilterContext"),
    # observability
    "SpanTracer": ("repro.obs", "SpanTracer"),
    "MetricsRegistry": ("repro.obs", "MetricsRegistry"),
    "SIM_TICK_S": ("repro.obs", "SIM_TICK_S"),
    "assemble_campaigns": ("repro.obs", "assemble_campaigns"),
    # substrate drills
    "Engine": ("repro.sim", "Engine"),
    "Kernel": ("repro.vos", "Kernel"),
    "Memory": ("repro.vos", "Memory"),
    "Fabric": ("repro.net", "Fabric"),
    "NetStack": ("repro.net", "NetStack"),
    "Endpoint": ("repro.net", "Endpoint"),
}

#: attributes perfbench calls or reads on the symbols above.
MEMBERS: Dict[str, Tuple[str, ...]] = {
    "Manager": ("deploy", "checkpoint_task", "restart_task"),
    "Cluster": ("build", "create_pod", "find_pod", "node_of_pod"),
    "CasStore": ("on", "stats", "audit"),
    "CasSink": ("stage", "publish", "load"),
    "OpLedger": ("append", "records", "replay"),
    "codec": ("encode", "decode", "encoded_size"),
    "ImagePipeline": ("pack", "reassemble"),
    "DeltaFilter": ("encode",),
    "SpanTracer": ("install", "begin", "find"),
    "MetricsRegistry": ("install",),
    "Engine": ("schedule", "sleep", "spawn", "run", "events_executed"),
    "Memory": ("touch",),
}


class SurfaceError(RuntimeError):
    """``repro`` no longer offers something perfbench measures through."""


def _resolve(module: str, attr: str) -> Any:
    obj: Any = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def missing() -> List[str]:
    """Every problem with the surface, one line each (empty when whole)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return [f"no repro package under {SRC} (perfbench measures the "
                "checkout it sits in, not an installed copy)"]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    problems = []
    for name, (module, attr) in sorted(SYMBOLS.items()):
        try:
            obj = _resolve(module, attr)
        except (ImportError, AttributeError) as err:
            problems.append(f"{name}: {module}.{attr} is gone ({err})")
            continue
        problems += [f"{name}.{member}: {module}.{attr} has no attribute "
                     f"{member!r}" for member in MEMBERS.get(name, ())
                     if not hasattr(obj, member)]
    return problems


@functools.cache
def load() -> SimpleNamespace:
    """Import ``repro`` from this checkout and return the named symbols."""
    problems = missing()
    if problems:
        raise SurfaceError("perfbench surface broken:\n  "
                           + "\n  ".join(problems))
    return SimpleNamespace(**{name: _resolve(module, attr)
                              for name, (module, attr) in SYMBOLS.items()})
