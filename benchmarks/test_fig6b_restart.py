"""Figure 6(b) — restart times.

Restart from an image taken in the middle of the run (the conservative
point: peak state), image preloaded in memory, same blades.  Paper
envelope: subsecond (200–700 ms), longer than checkpoint because of the
extra connection-reconstruction work; the network-restore share runs
10–200 ms.
"""

import pytest

from repro.harness import APPS, run_fig6b_cell

from .conftest import SCALE

CELLS = [(app, n) for app, spec in APPS.items() for n in spec.node_counts]


@pytest.mark.parametrize("app,nodes", CELLS, ids=[f"{a}-{n}" for a, n in CELLS])
def test_fig6b_cell(benchmark, report, bench_json, app, nodes):
    cell = benchmark.pedantic(run_fig6b_cell, args=(app, nodes),
                              kwargs={"scale": SCALE}, rounds=1, iterations=1)
    benchmark.extra_info.update(
        restart_s=cell.restart_time, net_restore_s=cell.network_restart_time)
    bench_json(f"fig6b/{app}-{nodes}",
               restart_ms=cell.restart_time * 1000,
               net_restore_ms=cell.network_restart_time * 1000,
               ckpt_ms=cell.mean_checkpoint * 1000)
    report("fig6b", (app, nodes, f"{cell.restart_time * 1000:.0f}",
                     f"{cell.network_restart_time * 1000:.1f}"))
    # the paper's envelope and ordering claims
    assert cell.restart_time < 1.5, "restarts must be around a second or less"
    assert cell.restart_time > cell.checkpoint_times[0] * 0.8, \
        "restart should not be dramatically faster than checkpoint"
    assert cell.network_restart_time < 0.25
