"""The seed reaches the inputs, and one seed always gives one output.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root (the tier-1 suite collects ``tests/`` only).  Selftest sizes keep
this to a few seconds; the properties do not depend on size.
"""

from __future__ import annotations

import pytest

from perfbench import surface, workloads
from perfbench.inputs import WORKLOADS, make_inputs


def _sim(workload: str, seed: int):
    S = surface.load()
    rep = workloads.build(S, workload, make_inputs(workload, seed, small=True))()
    assert rep.failures == []
    return rep.sim


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_same_inputs_and_simulated_outputs(workload):
    assert make_inputs(workload, 11) == make_inputs(workload, 11)
    assert _sim(workload, 11) == _sim(workload, 11)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_other_seed_other_inputs(workload):
    assert make_inputs(workload, 11) != make_inputs(workload, 12)
    assert make_inputs(workload, 11, small=True) != \
        make_inputs(workload, 12, small=True)


@pytest.mark.parametrize("workload, metric", [
    ("ckpt-mpi16", "sim_ckpt_ms"),
    ("restart-mpi16", "sim_restart_ms"),
    ("gens-chain", "sim_stored_mb"),
    ("apprun-mpi16", "sim_makespan_s"),
    ("fleet-evac", "sim_makespan_s"),
])
def test_seed_changes_the_simulated_metric(workload, metric):
    """Unlike the harness' own ``seed`` arguments, ``--seed`` changes
    what the system computes, not just a label."""
    assert _sim(workload, 11)[metric] != _sim(workload, 12)[metric]


def test_work_is_the_same_size_for_every_seed():
    """Stratified draws: seeds differ in inputs, not in amount of work."""
    for seed in range(20):
        gens = make_inputs("gens-chain", seed)
        assert abs(sum(gens["ballast"]) - 16 * 64e6) < 0.02 * 16 * 64e6
        assert abs(sum(make_inputs("ckpt-mpi16", seed)["gaps"]) - 10 / 11) < 1e-9
        fleet = make_inputs("fleet-evac", seed)
        heavy = sum(1 for b in fleet["evacuate"] if int(b[5:]) <= 384 % 47)
        assert (len(fleet["evacuate"]), heavy) == (36, 6)


def test_surface_names_a_moved_symbol(monkeypatch):
    monkeypatch.setitem(surface.SYMBOLS, "Gone", ("repro.fleet", "no_such_name"))
    problems = surface.missing()
    assert len(problems) == 1 and "repro.fleet.no_such_name" in problems[0]
