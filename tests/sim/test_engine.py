"""Unit tests for the discrete-event engine and host tasks."""

import pytest

from repro.errors import DeadlockError, SimError
from repro.sim import Future, all_of


def test_events_run_in_time_order(engine):
    order = []
    engine.schedule(2.0, order.append, "b")
    engine.schedule(1.0, order.append, "a")
    engine.schedule(3.0, order.append, "c")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 3.0


def test_equal_timestamps_run_fifo(engine):
    order = []
    for tag in ("x", "y", "z"):
        engine.schedule(1.0, order.append, tag)
    engine.run()
    assert order == ["x", "y", "z"]


def test_cancelled_event_does_not_run(engine):
    order = []
    h = engine.schedule(1.0, order.append, "dead")
    engine.schedule(2.0, order.append, "alive")
    h.cancel()
    engine.run()
    assert order == ["alive"]


def test_negative_delay_rejected(engine):
    with pytest.raises(SimError):
        engine.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected(engine):
    engine.schedule(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimError):
        engine.schedule_at(1.0, lambda: None)


def test_nan_times_rejected(engine):
    """NaN passes ``delay < 0`` and ``at < now``; it used to enter the heap
    (where nothing orders against it) and set the clock to NaN when it ran."""
    nan = float("nan")
    with pytest.raises(SimError):
        engine.schedule(nan, lambda: None)
    with pytest.raises(SimError):
        engine.schedule_at(nan, lambda: None)
    engine.run()
    assert engine.now == 0.0 and engine.events_executed == 0


def test_run_until_a_past_time_is_a_sim_error(engine):
    engine.schedule(5.0, lambda: None)
    engine.run()
    engine.schedule(1.0, lambda: None)
    with pytest.raises(SimError, match=r"2\.0.*5\.0"):  # names both times
        engine.run(until=2.0)
    assert engine.now == 5.0
    assert engine.run() == 6.0  # the pending event is still there


def test_run_until_pauses_clock(engine):
    fired = []
    engine.schedule(10.0, fired.append, 1)
    t = engine.run(until=4.0)
    assert t == 4.0 and fired == []
    engine.run()
    assert fired == [1] and engine.now == 10.0


def test_stop_inside_event(engine):
    order = []

    def first():
        order.append("first")
        engine.stop()

    engine.schedule(1.0, first)
    engine.schedule(2.0, order.append, "second")
    engine.run()
    assert order == ["first"]
    engine.run()
    assert order == ["first", "second"]


def test_max_events_guard(engine):
    def rearm():
        engine.schedule(1.0, rearm)

    engine.schedule(0.0, rearm)
    with pytest.raises(SimError):
        engine.run(max_events=50)


def test_task_sleep_and_return(engine):
    def worker():
        yield engine.sleep(1.0)
        yield engine.sleep(2.0)
        return engine.now

    result = engine.run_task(worker())
    assert result == 3.0


def test_task_waits_on_future(engine):
    fut = Future("data")
    engine.schedule(5.0, fut.set_result, 42)

    def consumer():
        value = yield fut
        return (engine.now, value)

    assert engine.run_task(consumer()) == (5.0, 42)


def test_task_exception_propagates(engine):
    def boom():
        yield engine.sleep(1.0)
        raise RuntimeError("kaput")

    with pytest.raises(RuntimeError, match="kaput"):
        engine.run_task(boom())


def test_future_exception_thrown_into_task(engine):
    fut = Future("err")
    engine.schedule(1.0, fut.set_exception, ValueError("bad"))

    def consumer():
        try:
            yield fut
        except ValueError:
            return "caught"
        return "missed"

    assert engine.run_task(consumer()) == "caught"


def test_task_cancel_runs_finally(engine):
    cleaned = []

    def worker():
        try:
            yield engine.sleep(100.0)
        finally:
            cleaned.append(True)

    task = engine.spawn(worker(), "w")
    engine.schedule(1.0, task.cancel)
    engine.run()
    assert cleaned == [True]
    assert task.finished.result is None


def test_all_of_collects_in_order(engine):
    futs = [Future(str(i)) for i in range(3)]
    engine.schedule(3.0, futs[0].set_result, "a")
    engine.schedule(1.0, futs[1].set_result, "b")
    engine.schedule(2.0, futs[2].set_result, "c")

    def waiter():
        results = yield all_of(futs)
        return results

    assert engine.run_task(waiter()) == ["a", "b", "c"]


def test_all_of_empty_resolves_immediately(engine):
    combined = all_of([])
    assert combined.done and combined.result == []


def test_all_of_propagates_first_exception(engine):
    futs = [Future("ok"), Future("bad")]
    engine.schedule(1.0, futs[1].set_exception, RuntimeError("x"))

    def waiter():
        yield all_of(futs)

    with pytest.raises(RuntimeError):
        engine.run_task(waiter())


def test_timeout_expires(engine):
    fut = Future("slow")

    def waiter():
        ok, value = yield engine.timeout(fut, 2.0)
        return ok, value, engine.now

    assert engine.run_task(waiter()) == (False, None, 2.0)


def test_timeout_beaten_by_result(engine):
    fut = Future("fast")
    engine.schedule(1.0, fut.set_result, "hi")

    def waiter():
        ok, value = yield engine.timeout(fut, 5.0)
        return ok, value

    assert engine.run_task(waiter()) == (True, "hi")


def test_future_double_resolve_rejected():
    fut = Future()
    fut.set_result(1)
    with pytest.raises(SimError):
        fut.set_result(2)


def test_deadlock_detection(engine):
    engine.blocked_probes.append(lambda: ["proc-1 blocked in recv"])
    with pytest.raises(DeadlockError, match="proc-1"):
        engine.run(check_deadlock=True)


def test_task_yield_none_is_cooperative(engine):
    order = []

    def a():
        order.append("a1")
        yield None
        order.append("a2")

    def b():
        order.append("b1")
        yield None
        order.append("b2")

    engine.spawn(a(), "a")
    engine.spawn(b(), "b")
    engine.run()
    assert order == ["a1", "b1", "a2", "b2"]


def test_task_yielding_garbage_fails(engine):
    def bad():
        yield 42

    with pytest.raises(SimError, match="expected Future"):
        engine.run_task(bad())
