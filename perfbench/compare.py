"""``python3 -m perfbench.compare A.json B.json``: did B regress on A?

A and B are result files of two full runs (``python3 -m perfbench
--seed N --out FILE``), normally the parent commit and the change on
one seed, or the same commit twice to see the benchmark's own noise.
Per workload and end-to-end metric it prints both medians, the ratio
B/A (base: A), the bound from BENCHMARK.json and a verdict:

``better`` / ``worse``   B's median is beyond the bound
``within-bound``         the medians differ by less than the bound
``unresolved``           A's own passes disagree by more than the bound,
                         so a difference of that size cannot be told
                         from noise (unless every B repetition beats
                         every A repetition, or the reverse)

Counts and simulated-clock values repeat exactly on one commit and
seed, so for those any difference at all is listed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import surface
from .catalog import is_exact


def _bounds() -> Dict[str, Dict[str, Any]]:
    manifest = json.loads((surface.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in manifest["end_to_end"]}


def _samples(res: Dict[str, Any], metric: str) -> List[float]:
    return {"wall_s": res["walls"], "setup_s": res["setups"]}.get(
        metric, [res["metrics"][metric]])


def _pass_spread(res: Dict[str, Any], metric: str) -> float:
    """How far A's own passes disagree, as a share of its median."""
    per_pass = {"wall_s": res["pass_wall_medians"],
                "setup_s": res["setups"]}.get(metric)
    if not per_pass or len(per_pass) < 2:
        return 0.0
    return (max(per_pass) - min(per_pass)) / res["metrics"][metric]


def verdict(a: Dict[str, Any], b: Dict[str, Any], metric: str,
            bound: float, better: str) -> str:
    va, vb = a["metrics"][metric], b["metrics"][metric]
    worse_by = (vb - va) / va if better == "lower" else (va - vb) / va
    sa, sb = _samples(a, metric), _samples(b, metric)
    if better == "lower":
        b_wins, a_wins = max(sb) < min(sa), max(sa) < min(sb)
    else:
        b_wins, a_wins = min(sb) > max(sa), min(sa) > max(sb)
    if abs(worse_by) <= bound:
        return "within-bound"
    if _pass_spread(a, metric) > bound and not (a_wins or b_wins):
        return "unresolved"
    return "worse" if worse_by > 0 else "better"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    """Print the comparison; returns how many metrics came out ``worse``."""
    bounds = _bounds()
    worse = 0
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ (A {a['seed']}, B {b['seed']}): simulated "
              "values are expected to differ")
    print(f"{'workload':15s} {'metric':15s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    for name, res_a in a["e2e"].items():
        res_b = b["e2e"].get(name)
        if res_b is None:
            print(f"{name:15s} missing from B")
            worse += 1
            continue
        for metric, spec in bounds.items():
            va, vb = res_a["metrics"][metric], res_b["metrics"][metric]
            v = verdict(res_a, res_b, metric, spec["bound"], spec["better"])
            worse += v == "worse"
            print(f"{name:15s} {metric:15s} {va:12.5f} {vb:12.5f} "
                  f"{vb / va:8.4f} {spec['bound']:6.2f}  {v}"
                  f"  (A n={len(_samples(res_a, metric))}, "
                  f"pass spread {_pass_spread(res_a, metric):.1%})")
        if res_a["failed"] or res_b["failed"]:
            print(f"{name:15s} failed operations/checks: A {res_a['failed']}"
                  f"/{res_a['attempted']}  B {res_b['failed']}/{res_b['attempted']}")
            worse += res_b["failed"] > res_a["failed"]
    print()
    print("counts and simulated-clock values (exact on one commit and seed):")
    for name, res_a in a["traced"].items():
        layers_b = b["traced"].get(name, {}).get("layers", {})
        exact = [m for m in res_a["layers"] if is_exact(m)]
        changed = [m for m in exact if layers_b.get(m) != res_a["layers"][m]]
        print(f"  {name}: {len(exact) - len(changed)} of {len(exact)} identical")
        for m in changed:
            vb: Optional[float] = layers_b.get(m)
            print(f"    {m}: A {res_a['layers'][m]!r}  B {vb!r}")
    return worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    return 1 if compare(a, b) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
