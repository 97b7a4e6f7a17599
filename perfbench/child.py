"""What runs inside one fresh interpreter: set-up, then repetitions.

The driver (:mod:`perfbench.driver`) starts one child at a time.  A
child imports ``repro``, builds its inputs, runs one untimed warm-up
repetition (that is ``setup_s``: interpreter start to end of warm-up,
so work moved out of the timed region into imports, caches or lazy
set-up still shows), then repeats the workload until its time budget is
used.  It prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import gc
import resource
import time
from statistics import mean, median
from typing import Any, Callable, Dict, List

from . import layers, surface, workloads
from .calibrate import calibrate, scaled
from .catalog import PER_LAYER, may_not_apply
from .drills import run_drills
from .inputs import make_inputs
from .spans import BenchTrace

OUT_DIR = surface.ROOT / "perfbench" / "out"


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class _Reps:
    """Runs repetitions of one workload and keeps the books: host time
    per repetition, operations attempted and failed, and the check that
    every repetition of one seed derives the same simulated outputs."""

    def __init__(self, S: Any, workload: str, inp: Dict[str, Any]) -> None:
        self.S, self.workload, self.inp = S, workload, inp
        #: the untraced repetitions' simulated outputs
        self.sim: Dict[str, float] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def one(self, observe: bool = False,
            wrap: Callable[[Callable[[], Any]], Any] = lambda run: run()):
        """One repetition: (host seconds, Rep).  The world build is not
        timed; the run and its result checks are.  ``wrap`` lets the
        caller run the repetition under a profiler."""
        gc.collect()
        run = workloads.build(self.S, self.workload, self.inp, observe=observe)
        t0 = time.perf_counter()
        rep = wrap(run)
        seconds = time.perf_counter() - t0
        self.attempted += rep.attempted
        self.failures += rep.failures
        if not self.sim:
            self.sim = rep.sim
        else:
            self.attempted += 1
            changed = sorted(k for k in set(rep.sim) | set(self.sim)
                             if rep.sim.get(k) != self.sim.get(k))
            if observe:
                # span ids ride the ledger records of a traced run, so
                # the log (all the SAN sees of fleet-evac) grows with it;
                # tracing may change nothing else
                changed = [k for k in changed if k != "ledger.bytes" and not (
                    k == "sim_stored_mb" and self.workload == "fleet-evac")]
            if changed:
                self.failures.append("simulated outputs differ between "
                                     f"repetitions: {changed[:6]}")
        return seconds, rep

    def summary(self) -> Dict[str, Any]:
        return {"sim": self.sim, "attempted": self.attempted,
                "failed": len(self.failures), "failures": self.failures[:20]}


def run_e2e(workload: str, seed: int, budget_s: float, t_spawn: float,
            small: bool = False) -> Dict[str, Any]:
    """Tracing off: the end-to-end numbers of one pass.

    Each timed repetition sits between two calibrations and is scaled by
    their mean; the set-up by the mean of all of the pass's calibrations
    (see :mod:`perfbench.calibrate`).
    """
    S = surface.load()
    reps = _Reps(S, workload, make_inputs(workload, seed, small))
    reps.one()                                   # warm-up, not timed
    setup_raw = time.monotonic() - t_spawn
    calibrations = [calibrate()]
    walls_raw: List[float] = []
    t_loop = time.perf_counter()
    while not walls_raw or time.perf_counter() - t_loop < budget_s:
        seconds, _rep = reps.one()
        walls_raw.append(seconds)
        calibrations.append(calibrate())
    walls = [scaled(w, (before + after) / 2) for w, before, after
             in zip(walls_raw, calibrations, calibrations[1:])]
    return {"setup_s": scaled(setup_raw, mean(calibrations)),
            "setup_raw_s": setup_raw, "walls": walls, "walls_raw": walls_raw,
            "calibrations": calibrations, "peak_rss_mb": _peak_rss_mb(),
            **reps.summary()}


def run_traced(workload: str, seed: int, budget_s: float,
               small: bool = False) -> Dict[str, Any]:
    """The per-layer numbers: one profiled repetition, traced and
    untraced repetitions in alternation, then the drills."""
    S = surface.load()
    trace = BenchTrace(workload)
    reps = _Reps(S, workload, make_inputs(workload, seed, small))
    with trace.span("warmup"):
        reps.one()
    host: Dict[str, float] = {}

    def profiled(run: Callable[[], Any]) -> Any:
        rep, metrics = layers.profile_rep(
            run, dump_to=OUT_DIR / f"prof-{workload}.prof")
        host.update(metrics)
        return rep

    with trace.span("rep.profiled"):
        reps.one(wrap=profiled)
    untraced: List[float] = []
    traced: List[float] = []
    rep = None
    t_loop = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t_loop < budget_s:
        # U T, T U, U T, ...: neither kind always runs second
        for observe in ((False, True), (True, False))[len(traced) % 2]:
            with trace.span("rep.traced" if observe else "rep.untraced"):
                seconds, this = reps.one(observe=observe)
            if observe:
                traced.append(seconds)
                rep = this
            else:
                untraced.append(seconds)

    values: Dict[str, float] = dict(host)
    values.update(reps.sim)
    with trace.span("layers.span_tables"):
        values.update(layers.span_tables(rep.worlds))
        counts = layers.registry_counts(rep.worlds)
    if workload == "fleet-evac":
        # the campaign returns no per-op stats; what moved node to node
        # is what the destination Agents restored
        values["sim_logical_mb"] = counts.get("agent.restore.bytes", 0) / 1e6
    values["sim.us_per_event"] = median(untraced) / reps.sim["sim.events"] * 1e6
    values["obs.trace_overhead"] = median(traced) / median(untraced)
    rep = None
    values.update(run_drills(S, seed, trace, small=small))
    values["ops_failed_ratio"] = len(reps.failures) / reps.attempted
    trace.write(OUT_DIR / f"trace-{workload}.jsonl")
    missing = [name for name, _unit, _better in PER_LAYER
               if name not in values and not may_not_apply(name)]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return {"layers": {name: float(values.get(name, 0.0))
                       for name, _unit, _better in PER_LAYER},
            "untraced_walls": untraced, "traced_walls": traced,
            "peak_rss_mb": _peak_rss_mb(), **reps.summary()}
