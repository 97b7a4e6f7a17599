"""Seed -> workload inputs.  Pure: imports nothing from ``repro``.

``--seed`` reaches the system under test only through what is generated
here; ``repro`` itself always runs with its own seed 0.  The draws are
stratified (jitters sum to zero, sizes are a shuffled even ladder, the
evacuated set always holds the same number of pods) so the *amount* of
work is the same for every seed while the inputs, and with them every
simulated number, differ.  That keeps a host-time comparison between
two seeds meaningful and the spread over seeds small.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

#: name -> why the workload exists (also printed by the CLI and copied
#: into BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "ckpt-mpi16": "Fig. 6(a) write side: BT/NAS on 16 pods, 10 coordinated "
                  "checkpoints to the SAN; codec encode, pipeline and "
                  "FileSink do the most host work here",
    "apprun-mpi16": "Fig. 5: BT/NAS, PETSc and CPI on 16 pods with zero "
                    "checkpoints; sim, net, vos and pod do the work, so "
                    "checkpoint-path changes predict no change here",
    "restart-mpi16": "Fig. 6(b) read side: checkpoint, destroy and restart "
                     "BT/NAS and PETSc on 16 pods; decode, sink load, "
                     "connect schedule and netstate restore",
    "gens-chain": "16 writer pods, 12 async delta generations into the "
                  "content-addressed store, then restart from the chains; "
                  "storage.cas, dirty tracking and DeltaFilter carry weight",
    "fleet-evac": "control plane: evacuate 36 of 48 blades (384 idle pods) "
                  "in waves of 8; fleet, Manager/Agent op machines, ledger "
                  "appends and streaming migration, many short ops",
}


#: ``scale`` stretches the applications' simulated compute time only
#: (sizes, messages and host work stay at paper scale).  The driver is a
#: closed loop that waits for each image to reach the SAN, and the
#: application runs on during that flush: at scale 1 BT/NAS-16 would be
#: over (0.65 s) before the fourth of ten 0.29 s checkpoint+flush cycles.
#: Ten cycles fit in the last 1/11 of the run once that is > 1.7 s.
CKPT_SCALE = 50.0
RESTART_SCALE = 4.0


def _zero_sum_jitter(rng: random.Random, n: int, amplitude: float) -> List[float]:
    """``n`` draws in about ±amplitude whose sum is exactly zero."""
    draws = [rng.uniform(-amplitude, amplitude) for _ in range(n)]
    mean = sum(draws) / n
    return [d - mean for d in draws]


def _ladder(rng: random.Random, n: int, lo: float, hi: float) -> List[int]:
    """``n`` values covering lo..hi evenly, each nudged inside its own
    rung, in shuffled order: the total barely moves between seeds."""
    step = (hi - lo) / n
    values = [int(lo + step * (k + rng.uniform(0.4, 0.6))) for k in range(n)]
    rng.shuffle(values)
    return values


def make_inputs(workload: str, seed: int, small: bool = False) -> Dict[str, Any]:
    """The inputs of one workload for one seed (``small``: selftest sizes)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    pods = 4 if small else 16
    if workload == "ckpt-mpi16":
        n = 3 if small else 10
        # gaps between checkpoints as fractions of the expected run:
        # even spacing 1/(n+1), each jittered ±25 %, sum unchanged
        jitter = _zero_sum_jitter(rng, n, 0.25)
        return {"app": "BT/NAS", "pods": pods, "scale": CKPT_SCALE,
                "gaps": [(1.0 + j) / (n + 1) for j in jitter]}
    if workload == "apprun-mpi16":
        # nothing is checkpointed, so the seed perturbs the only input an
        # application run has: its compute cost per grid point (±0.5 %)
        return {"pods": pods,
                "apps": [{"app": app, "scale": 1.0 + rng.uniform(-0.005, 0.005)}
                         for app in ("BT/NAS", "PETSc", "CPI")]}
    if workload == "restart-mpi16":
        return {"pods": pods, "scale": RESTART_SCALE,
                "apps": [{"app": app, "at_frac": rng.uniform(0.4, 0.6)}
                         for app in ("BT/NAS", "PETSc")]}
    if workload == "gens-chain":
        return {"pods": pods, "generations": 3 if small else 12,
                "interval": 0.5,
                "ballast": _ladder(rng, pods, 32e6, 96e6),
                "dirty_rate": _ladder(rng, pods, 2e6, 8e6)}
    # fleet-evac: pods land round-robin on blades 1..n-1, so the first
    # (n_pods mod hosts) blades hold one pod more; draw from both groups
    # separately and the evacuation always moves the same number of pods
    n_nodes, n_pods, n_evac = (8, 32, 4) if small else (48, 384, 36)
    hosts = n_nodes - 1
    heavy = list(range(1, n_pods % hosts + 1))
    light = list(range(n_pods % hosts + 1, n_nodes))
    from_heavy = round(n_evac * len(heavy) / hosts)
    chosen = rng.sample(heavy, from_heavy) + rng.sample(light, n_evac - from_heavy)
    return {"n_nodes": n_nodes, "n_pods": n_pods, "max_inflight": 8,
            "evacuate": [f"blade{i}" for i in sorted(chosen)]}
