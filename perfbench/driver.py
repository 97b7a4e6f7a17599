"""The driver process: starts children, pools their numbers, reports.

One child interpreter is busy at a time and nothing runs in threads
(the sandbox has two cores).  Host time does not repeat cheaply on a
shared box, so host timings are scaled to a reference machine speed
(:mod:`perfbench.calibrate`), every host statistic is a **median** over
all pooled repetitions (never a minimum), the per-pass medians are kept
beside it so disagreement between passes is visible, and ``setup_s`` is
the median over the passes' set-ups.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles
from typing import Any, Dict, List, Sequence

from . import surface
from .calibrate import REFERENCE_S
from .catalog import END_TO_END, PER_LAYER

#: child interpreters per workload in the tracing-off measurement: three
#: set-ups give ``setup_s`` a real median
PASSES = 3
#: a child that is still running after this long is killed (the caller
#: allows one run 180 s in all)
CHILD_TIMEOUT_S = 170.0

E2E_UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _b in PER_LAYER}


def _child(mode: str, workload: str, seed: int, budget_s: float,
           small: bool) -> Dict[str, Any]:
    """Run one child to completion and return the object it printed."""
    cmd = [sys.executable, "-m", "perfbench", "--child", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(budget_s), "--t0", repr(time.monotonic())]
    if small:
        cmd.append("--small")
    # a fixed hash seed keeps set/dict iteration, and with it the exact
    # call counts of the profiled repetition, the same in every child
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=surface.ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child of {workload} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def measure_e2e(names: Sequence[str], seed: int, seconds: float,
                small: bool = False) -> Dict[str, Dict[str, Any]]:
    """Tracing off.  PASSES passes over the workload list (A-B-C, A-B-C,
    ...), each pass a fresh child per workload with ``seconds / PASSES``
    of timed repetitions; pooled per workload."""
    passes: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for _pass in range(PASSES):
        for name in names:
            passes[name].append(_child("e2e", name, seed, seconds / PASSES, small))
    out: Dict[str, Dict[str, Any]] = {}
    for name, results in passes.items():
        walls = [w for r in results for w in r["walls"]]
        failures = [f for r in results for f in r["failures"]]
        attempted = sum(r["attempted"] for r in results) + 1
        if any(r["sim"] != results[0]["sim"] for r in results):
            failures.append("simulated outputs differ between passes")
        out[name] = {
            "metrics": {
                "wall_s": median(walls),
                "sim_makespan_s": results[0]["sim"]["sim_makespan_s"],
                "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
                "setup_s": median(r["setup_s"] for r in results),
            },
            "n": len(walls), "walls": walls,
            "raw_wall_s": median(w for r in results for w in r["walls_raw"]),
            "raw_setup_s": median(r["setup_raw_s"] for r in results),
            "calibration_s": median(c for r in results for c in r["calibrations"]),
            "pass_wall_medians": [median(r["walls"]) for r in results],
            "setups": [r["setup_s"] for r in results],
            "sim": results[0]["sim"],
            "attempted": attempted, "failed": len(failures),
            "failures": failures,
        }
    return out


def measure_layers(name: str, seed: int, seconds: float,
                   small: bool = False) -> Dict[str, Any]:
    """The separate traced run of one workload (one child)."""
    result = _child("traced", name, seed, seconds, small)
    untraced = result["untraced_walls"]
    # the ratio is resolved only if the untraced repetitions agree with
    # each other more closely than the traced ones differ from them
    result["trace_overhead_resolved"] = \
        _spread(untraced) < abs(result["layers"]["obs.trace_overhead"] - 1.0)
    return result


def contract_line(metrics: Dict[str, float], units: Dict[str, str],
                  attempted: int, failed: int) -> str:
    """The one-line JSON result the benchmark pipeline reads."""
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}})


def print_report(seed: int, e2e: Dict[str, Dict[str, Any]],
                 traced: Dict[str, Dict[str, Any]]) -> None:
    """Every metric by name with unit; host timings with n, per-pass
    medians and quartiles."""
    print(f"perfbench seed {seed}: end-to-end (tracing off; host timings "
          "scaled to the reference machine speed)")
    for name, res in e2e.items():
        q1, q2, q3 = quantiles(res["walls"], n=4) if res["n"] > 1 \
            else (res["walls"][0],) * 3
        print(f"  {name}")
        print(f"    wall_s          {q2:10.4f} s   n={res['n']} "
              f"q1={q1:.4f} q3={q3:.4f} per-pass medians="
              + "/".join(f"{m:.4f}" for m in res["pass_wall_medians"])
              + f"  (raw median {res['raw_wall_s']:.4f} s)")
        print(f"    setup_s         {res['metrics']['setup_s']:10.4f} s   "
              f"n={len(res['setups'])} passes="
              + "/".join(f"{s:.4f}" for s in res["setups"])
              + f"  (raw median {res['raw_setup_s']:.4f} s)")
        print(f"    calibration     {res['calibration_s']:10.4f} s   "
              f"(median; reference {REFERENCE_S} s)")
        print(f"    peak_rss_mb     {res['metrics']['peak_rss_mb']:10.2f} MB  "
              "(max over passes)")
        print(f"    sim_makespan_s  {res['metrics']['sim_makespan_s']:10.6f} s   "
              "(simulated clock, exact)")
        print(f"    operations+checks attempted={res['attempted']} "
              f"failed={res['failed']}")
        for failure in res["failures"]:
            print(f"      FAILED {failure}")
    print("per-layer (separate traced run; 0 = the workload runs no such operation)")
    for name, res in traced.items():
        print(f"  {name}   attempted={res['attempted']} failed={res['failed']}")
        for failure in res["failures"]:
            print(f"      FAILED {failure}")
        for metric, value in res["layers"].items():
            note = ""
            if metric == "obs.trace_overhead" and not res["trace_overhead_resolved"]:
                note = "  (unresolved: untraced repetitions spread wider than this)"
            print(f"    {metric:32s} {value:16.6f} {LAYER_UNITS[metric]}{note}")
