"""Command line of the benchmark.

    python3 -m perfbench --seed 11
        every workload, tracing off then the traced run; prints every
        metric by name and writes perfbench/out/result-seed11.json
    python3 -m perfbench --workload W --seed N --seconds S --trace 0|1
        one workload; last line of output is the result as one JSON object
    python3 -m perfbench --check-surface | --selftest
    python3 -m perfbench.compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional

from . import surface
from .catalog import RUN_SECONDS
from .inputs import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python3 -m perfbench",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS),
                   help="measure this workload only and print one JSON line")
    p.add_argument("--seed", type=int, default=11,
                   help="seed of the benchmark's own input generator")
    p.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                   help="timed seconds per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics, tracing off; "
                        "1: the traced run's per-layer metrics")
    p.add_argument("--out", type=Path,
                   help="where the full run writes its result file")
    p.add_argument("--check-surface", action="store_true",
                   help="verify every repro symbol the benchmark uses")
    p.add_argument("--selftest", action="store_true",
                   help="small sizes, two repetitions, every metric checked")
    p.add_argument("--list", action="store_true",
                   help="list the workloads and why each exists")
    # used by the driver to start a measurement in a fresh interpreter
    p.add_argument("--child", choices=("e2e", "traced"), help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    p.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.list:
        for name, why in WORKLOADS.items():
            print(f"{name}: {why}")
        return 0
    problems = surface.missing()
    if problems:
        print("perfbench: repro no longer offers what the benchmark "
              "measures through:", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 2
    if args.check_surface:
        print(f"surface ok: {len(surface.SYMBOLS)} symbols resolved "
              f"from {surface.SRC}")
        return 0

    if args.child:
        from . import child
        if args.child == "e2e":
            result = child.run_e2e(args.workload, args.seed, args.seconds,
                                   args.t0, small=args.small)
        else:
            result = child.run_traced(args.workload, args.seed, args.seconds,
                                      small=args.small)
        print(json.dumps(result))
        return 0

    if args.selftest:
        from .selftest import selftest
        return selftest()

    from . import driver
    # a terminated driver must not leave its child running: turn SIGTERM
    # into an exception so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload:
        if args.trace:
            res = driver.measure_layers(args.workload, args.seed, args.seconds)
            line = driver.contract_line(res["layers"], driver.LAYER_UNITS,
                                        res["attempted"], res["failed"])
        else:
            res = driver.measure_e2e([args.workload], args.seed,
                                     args.seconds)[args.workload]
            line = driver.contract_line(res["metrics"], driver.E2E_UNITS,
                                        res["attempted"], res["failed"])
            print(f"{args.workload}: n={res['n']} raw wall_s "
                  f"{res['raw_wall_s']:.4f} raw setup_s {res['raw_setup_s']:.4f} "
                  f"calibration {res['calibration_s']:.4f} s", file=sys.stderr)
        for failure in res["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        print(line)
        return 1 if res["failed"] else 0

    e2e = driver.measure_e2e(list(WORKLOADS), args.seed, args.seconds)
    traced = {name: driver.measure_layers(name, args.seed, args.seconds)
              for name in WORKLOADS}
    driver.print_report(args.seed, e2e, traced)
    out = args.out or surface.ROOT / "perfbench" / "out" / f"result-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                               "e2e": e2e, "traced": traced}, indent=1))
    print(f"result written to {out}")
    failed = sum(r["failed"] for r in list(e2e.values()) + list(traced.values()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
