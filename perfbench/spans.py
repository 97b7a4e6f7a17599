"""Benchmark-side spans on the host clock.

The traced run wraps every call it makes into a layer of ``repro`` (a
world build, a repetition, a drill) in a span recorded here: name,
start, end, the span that caused it and the workload id.  Spans stay in
memory and are written once, when the run ends.  Spans *inside* the
program are ``repro.obs``'s business and run on the simulated clock.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional


class BenchTrace:
    """An in-memory list of host-clock spans for one workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record ``name`` around the body; nests under the open span."""
        rec: Dict[str, Any] = {
            "id": len(self.spans) + 1,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload, "name": name,
            "t0": time.perf_counter(), "t1": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["t1"] = time.perf_counter()

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus the part child spans cover."""
        child_time: Dict[Optional[int], float] = {}
        for rec in self.spans:
            child_time[rec["parent"]] = (child_time.get(rec["parent"], 0.0)
                                         + rec["t1"] - rec["t0"])
        out: Dict[str, float] = {}
        for rec in self.spans:
            own = rec["t1"] - rec["t0"] - child_time.get(rec["id"], 0.0)
            out[rec["name"]] = out.get(rec["name"], 0.0) + own
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
