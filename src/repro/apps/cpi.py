"""CPI — parallel computation of π (the MPICH-2 example program).

"Uses basic MPI primitives and is mostly computationally bound."  The
root broadcasts the interval count, every rank integrates its strided
share of ``4/(1+x²)``, and a sum-reduction assembles π at the root.
"""

from __future__ import annotations

import numpy as np

from ..middleware import emit_bcast, emit_finalize, emit_init, emit_reduce
from ..vos.program import imm, program
from .common import cpi_ballast

#: default problem size: intervals of the midpoint rule.
DEFAULT_INTERVALS = 1_000_000
#: simulated cycles charged per interval (calibrates completion time).
DEFAULT_CYCLES_PER_INTERVAL = 60_000


def partial_pi(n: int, rank: int, nprocs: int) -> float:
    """Rank's share of the midpoint-rule sum (the real numerical core)."""
    h = 1.0 / n
    i = np.arange(rank, n, nprocs, dtype=np.float64)
    x = h * (i + 0.5)
    return float((4.0 / (1.0 + x * x)).sum())


@program("apps.cpi")
def _cpi(b, *, rank, nprocs, vips, intervals=DEFAULT_INTERVALS,
         cycles_per_interval=DEFAULT_CYCLES_PER_INTERVAL):
    b.alloc(imm(cpi_ballast(nprocs)), "heap")
    emit_init(b, rank=rank, nprocs=nprocs, vips=vips)
    # root knows N; everyone learns it by broadcast (as the real CPI does)
    if rank == 0:
        b.mov("n", imm(intervals))
    else:
        b.mov("n", imm(None))
    emit_bcast(b, "n", rank=rank, size=nprocs)
    # integrate my strided share — real math plus calibrated cycles
    b.op("partial", lambda n, r=rank, p=nprocs: partial_pi(n, r, p), "n")
    b.op("__cycles", lambda n, p=nprocs, c=cycles_per_interval: (n * c) // p, "n")
    b.compute("__cycles")
    emit_reduce(b, "partial", "total", op="sum", rank=rank, size=nprocs)
    if rank == 0:
        b.op("pi", lambda t, n: t / n, "total", "n")
    else:
        b.mov("pi", imm(None))
    emit_finalize(b)
    b.halt(imm(0))


def params_of(rank: int, vips, *, nprocs: int, intervals: int = DEFAULT_INTERVALS,
              cycles_per_interval: int = DEFAULT_CYCLES_PER_INTERVAL) -> dict:
    """Program params for :func:`repro.middleware.launch_spmd`."""
    return {
        "rank": rank,
        "nprocs": nprocs,
        "vips": list(vips),
        "intervals": intervals,
        "cycles_per_interval": cycles_per_interval,
    }
