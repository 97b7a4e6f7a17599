"""``python3 -m perfbench --selftest``: the benchmark checks itself.

Small sizes (4-pod applications, a 32-pod fleet), every workload and
every drill once, in this process, in well under 20 s.  It asserts what
the numbers rest on: every declared metric is measured, finite and has a
unit; the layer tables sum to the operation latency within one simulated
tick; call counts and simulated outputs repeat exactly.
"""

from __future__ import annotations

import gc
import json
import math
import time
from typing import Any, Dict, List

from . import catalog, layers, surface, workloads
from .drills import DRILLS, run_drills
from .inputs import WORKLOADS, make_inputs
from .spans import BenchTrace

SEED = 11


def _sums_to(values: Dict[str, float], prefix: str, rows: List[str],
             latency_key: str, tick_ms: float) -> List[str]:
    """The manager-lane rows of one layer table must account for the
    operation latency: their sum plus ``unaccounted`` is the latency,
    and ``unaccounted`` itself stays within one tick."""
    if f"{prefix}.unaccounted_ms" not in values:
        return []
    problems = []
    unaccounted = values[f"{prefix}.unaccounted_ms"]
    if abs(unaccounted) > tick_ms:
        problems.append(f"{prefix}.unaccounted_ms = {unaccounted} ms exceeds "
                        "one simulated tick")
    if latency_key in values:
        total = sum(values[f"{prefix}.{r}_ms"] for r in rows) + unaccounted
        if abs(total - values[latency_key]) > tick_ms:
            problems.append(f"{prefix} rows sum to {total} ms, "
                            f"{latency_key} is {values[latency_key]} ms")
    return problems


def _check_manifest() -> List[str]:
    path = surface.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return [f"{path} is missing"]
    found = json.loads(path.read_text())
    wanted = catalog.manifest(WORKLOADS)
    return [f"BENCHMARK.json disagrees with perfbench/catalog.py on {key!r}"
            for key in wanted if found.get(key) != wanted[key]]


def selftest() -> int:
    t_start = time.perf_counter()
    S = surface.load()
    tick_ms = S.SIM_TICK_S * 1e3
    problems = _check_manifest()
    for name in WORKLOADS:
        inp = make_inputs(name, SEED, small=True)
        values: Dict[str, float] = {}
        reps: List[Any] = []
        hosts: List[Dict[str, float]] = []
        workloads.build(S, name, inp, observe=True)()          # warm-up
        for _ in range(2):
            # abandoned worlds hold suspended generator tasks; collected
            # mid-profile, their clean-up would count as this rep's calls
            gc.collect()
            rep, host = layers.profile_rep(
                workloads.build(S, name, inp, observe=True))
            reps.append(rep)
            hosts.append(host)
        for rep in reps:
            problems += [f"{name}: {failure}" for failure in rep.failures]
        if reps[0].sim != reps[1].sim:
            problems.append(f"{name}: simulated outputs differ between two "
                            "repetitions of one seed")
        calls = [{k: v for k, v in h.items() if k.endswith(".calls")}
                 for h in hosts]
        if calls[0] != calls[1]:
            diff = sorted(k for k in calls[0] if calls[0][k] != calls[1][k])
            problems.append(f"{name}: call counts differ between two "
                            f"profiled repetitions: {diff}")
        values.update(hosts[1])
        values.update(reps[1].sim)
        values.update(layers.span_tables(reps[1].worlds))
        problems += [f"{name}: {p}" for p in _sums_to(
            values, "simck", list(layers.CKPT_MGR_ROWS.values()),
            "sim_ckpt_ms", tick_ms)]
        problems += [f"{name}: {p}" for p in _sums_to(
            values, "simrs", list(layers.RESTART_MGR_ROWS.values()),
            "sim_restart_ms", tick_ms)]
        for metric, _unit, _better in catalog.PER_LAYER:
            if metric.startswith(("drill.", "obs.trace_overhead",
                                  "sim.us_per_event", "ops_failed_ratio")):
                continue            # measured below, or by the child's timing
            if metric not in values and not catalog.may_not_apply(metric):
                problems.append(f"{name}: {metric} was not measured")
        problems += [f"{name}: {k} = {v} is not finite"
                     for k, v in values.items() if not math.isfinite(v)]

    drilled = run_drills(S, SEED, BenchTrace("selftest"), small=True)
    for metric, (unit, _fn) in DRILLS.items():
        value = drilled.get(metric)
        if value is None or not math.isfinite(value) or value <= 0 or not unit:
            problems.append(f"drill {metric} gave {value!r} [{unit}]")

    seconds = time.perf_counter() - t_start
    for problem in problems:
        print(f"SELFTEST FAILED {problem}")
    print(f"selftest: {len(WORKLOADS)} workloads, {len(DRILLS)} drills, "
          f"{len(catalog.END_TO_END)} end-to-end and {len(catalog.PER_LAYER)} "
          f"per-layer metrics, {len(problems)} problems, {seconds:.1f} s")
    return 1 if problems else 0
