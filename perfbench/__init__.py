"""Two-clock benchmark of the ZapC reproduction (see perfbench/README.md).

Five closed-loop workloads, measured on the simulated clock and on the
host clock the simulator burns, with a separate traced run that gives
the per-layer numbers.  ``python3 -m perfbench --help`` lists the modes.
"""
