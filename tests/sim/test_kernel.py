"""Unit tests for the discrete-event kernel."""

import random

import pytest

from repro.sim import Kernel, SimError


def test_time_starts_at_zero(kernel):
    assert kernel.now == 0


def test_run_process_returns_value(kernel):
    def proc():
        yield 10
        return 42

    assert kernel.run_process(proc()) == 42


def test_delay_advances_virtual_time(kernel):
    def proc():
        yield 1_000
        yield 2_000

    kernel.run_process(proc())
    assert kernel.now == 3_000


def test_zero_delay_is_allowed(kernel):
    def proc():
        yield 0
        return "ok"

    assert kernel.run_process(proc()) == "ok"
    assert kernel.now == 0


def test_negative_delay_raises(kernel):
    def proc():
        yield -5

    with pytest.raises(SimError, match="negative delay"):
        kernel.run_process(proc())


def test_yielding_garbage_raises(kernel):
    def proc():
        yield "nonsense"

    with pytest.raises(SimError, match="yielded"):
        kernel.run_process(proc())


def test_exception_in_process_propagates(kernel):
    def proc():
        yield 1
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        kernel.run_process(proc())


def test_event_trigger_resumes_waiter(kernel):
    ev = kernel.event()
    log = []

    def waiter():
        value = yield ev
        log.append(value)

    def firer():
        yield 100
        ev.trigger("payload")

    kernel.spawn(waiter())
    kernel.spawn(firer())
    kernel.run()
    assert log == ["payload"]
    assert kernel.now == 100


def test_event_trigger_twice_raises(kernel):
    ev = kernel.event()
    ev.trigger()
    with pytest.raises(SimError, match="already triggered"):
        ev.trigger()


def test_waiting_on_triggered_event_resumes_immediately(kernel):
    ev = kernel.event()
    ev.trigger("early")

    def waiter():
        return (yield ev)

    assert kernel.run_process(waiter()) == "early"


def test_event_fail_raises_in_waiter(kernel):
    ev = kernel.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(exc)

    def firer():
        yield 10
        ev.fail(RuntimeError("bad"))

    kernel.spawn(waiter())
    kernel.spawn(firer())
    kernel.run()
    assert len(caught) == 1 and str(caught[0]) == "bad"


def test_join_returns_child_result(kernel):
    def child():
        yield 50
        return "child-result"

    def parent():
        proc = kernel.spawn(child())
        return (yield proc)

    assert kernel.run_process(parent()) == "child-result"


def test_join_reraises_child_error(kernel):
    def child():
        yield 1
        raise KeyError("inner")

    def parent():
        proc = kernel.spawn(child())
        yield proc

    with pytest.raises(KeyError):
        kernel.run_process(parent())


def test_join_finished_process(kernel):
    def child():
        yield 1
        return 7

    proc = kernel.spawn(child())
    kernel.run()
    assert proc.done

    def parent():
        return (yield proc)

    assert kernel.run_process(parent()) == 7


def test_unobserved_failure_surfaces(kernel):
    def doomed():
        yield 1
        raise RuntimeError("nobody watches me")

    kernel.spawn(doomed())
    with pytest.raises(SimError, match="died with no observer"):
        kernel.run()


def test_concurrent_processes_interleave_by_time(kernel):
    order = []

    def proc(name, delay):
        yield delay
        order.append((kernel.now, name))

    kernel.spawn(proc("late", 300))
    kernel.spawn(proc("early", 100))
    kernel.spawn(proc("mid", 200))
    kernel.run()
    assert [n for _, n in order] == ["early", "mid", "late"]


def test_same_time_events_run_in_spawn_order(kernel):
    order = []

    def proc(name):
        yield 100
        order.append(name)

    kernel.spawn(proc("a"))
    kernel.spawn(proc("b"))
    kernel.run()
    assert order == ["a", "b"]


def test_run_until_stops_early(kernel):
    hits = []

    def proc():
        for _ in range(10):
            yield 100
            hits.append(kernel.now)

    kernel.spawn(proc())
    kernel.run(until=350)
    assert hits == [100, 200, 300]
    assert kernel.now == 350


def test_timeout_event(kernel):
    ev = kernel.timeout(500)

    def waiter():
        yield ev
        return kernel.now

    assert kernel.run_process(waiter()) == 500


def test_call_at_runs_callable(kernel):
    hits = []
    kernel.call_at(250, lambda: hits.append(kernel.now))
    kernel.run()
    assert hits == [250]


def test_call_at_in_past_raises(kernel):
    def proc():
        yield 100

    kernel.run_process(proc())
    with pytest.raises(SimError, match="past"):
        kernel.call_at(50, lambda: None)


def test_run_process_deadlock_detected(kernel):
    ev = kernel.event()  # never triggered

    def stuck():
        yield ev

    with pytest.raises(SimError, match="deadlocked"):
        kernel.run_process(stuck())


def test_result_before_done_raises(kernel):
    def proc():
        yield 1

    handle = kernel.spawn(proc())
    with pytest.raises(SimError, match="still running"):
        _ = handle.result


def test_nested_yield_from_composes(kernel):
    def inner():
        yield 10
        return 5

    def outer():
        value = yield from inner()
        yield 10
        return value * 2

    assert kernel.run_process(outer()) == 10
    assert kernel.now == 20


def test_process_returning_none(kernel):
    def proc():
        yield 1

    assert kernel.run_process(proc()) is None


def test_schedule_rng_actually_perturbs():
    """Different seeds must produce different same-timestamp orders."""
    def order_for(seed):
        kernel = Kernel(schedule_rng=random.Random(seed))
        out = []

        def worker(tag):
            out.append(tag)
            yield 0
            out.append(tag * 10)

        for tag in (1, 2, 3, 4, 5):
            kernel.spawn(worker(tag))
        kernel.run()
        return tuple(out)

    orders = {order_for(seed) for seed in range(8)}
    assert len(orders) > 1
