"""Property-based tests on the wave scheduler.

For any unit layout and any ``max_inflight`` / ``wave_size`` setting,
the planner must partition the units exactly (every unit once, order
preserved) with every wave full except possibly the last, target
selection must be the deterministic least-loaded choice, and the
in-flight gate must bound concurrency at its limit while always letting
every waiter through (no lost wakeups, no starvation).
"""

from hypothesis import given, settings, strategies as st

from repro.fleet.scheduler import (
    InflightGate,
    pick_target,
    plan_waves,
)
from repro.sim.engine import Engine

units_st = st.lists(
    st.tuples(st.sampled_from([f"blade{i}" for i in range(6)]),
              st.text(alphabet="abcdef", min_size=1, max_size=4),
              st.just("")),
    min_size=0, max_size=40)


@given(units=units_st, wave_size=st.integers(min_value=-2, max_value=9))
@settings(max_examples=200, deadline=None)
def test_plan_waves_partitions_in_order(units, wave_size):
    waves = plan_waves(units, wave_size)
    flat = [u for wave in waves for u in wave]
    assert flat == list(units)          # exact partition, order preserved
    if units:
        size = wave_size if wave_size >= 1 else len(units)
        for wave in waves[:-1]:
            assert len(wave) == size    # only the last wave may be short
        assert 1 <= len(waves[-1]) <= size
    else:
        assert waves == []


@given(load=st.dictionaries(st.sampled_from([f"n{i}" for i in range(8)]),
                            st.integers(min_value=0, max_value=50),
                            max_size=8),
       exclude=st.sets(st.sampled_from([f"n{i}" for i in range(8)])))
@settings(max_examples=200, deadline=None)
def test_pick_target_is_least_loaded_and_deterministic(load, exclude):
    chosen = pick_target(load, exclude=exclude)
    eligible = {n: c for n, c in load.items() if n not in exclude}
    if not eligible:
        assert chosen is None
        return
    assert chosen in eligible
    assert load[chosen] == min(eligible.values())
    assert chosen == pick_target(dict(load), exclude=set(exclude))


@given(limit=st.integers(min_value=1, max_value=7),
       n_tasks=st.integers(min_value=0, max_value=30),
       holds=st.lists(st.floats(min_value=0.0, max_value=2.0,
                                allow_nan=False), min_size=0, max_size=30))
@settings(max_examples=60, deadline=None)
def test_inflight_gate_bounds_and_terminates(limit, n_tasks, holds):
    engine = Engine()
    gate = InflightGate(limit)
    state = {"live": 0, "peak": 0, "done": 0}

    def worker(hold_s):
        yield from gate.acquire()
        state["live"] += 1
        state["peak"] = max(state["peak"], state["live"])
        if hold_s > 0.0:
            yield engine.sleep(hold_s)
        else:
            yield None
        state["live"] -= 1
        gate.release()
        state["done"] += 1

    for i in range(n_tasks):
        hold = holds[i % len(holds)] if holds else 0.0
        engine.spawn(worker(hold), name=f"w{i}")
    engine.run(until=500.0)
    assert state["done"] == n_tasks          # every waiter got through
    assert state["peak"] <= limit            # never over the limit
    assert gate.peak == state["peak"]
    assert gate.active == 0
