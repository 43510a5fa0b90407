"""Unit tests for the Environment run loop and determinism guarantees."""

import math

import pytest

from repro.simcore import Environment, SimulationError
from repro.simcore.priority import NORMAL, URGENT


def next_event_time(env: Environment) -> float:
    """Time of the next queued event, or ``inf`` if the queue is empty."""
    return env._queue[0][0] if env._queue else math.inf


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    env.timeout(10)
    env.run(until=4.0)
    assert env.now == 4.0
    env.run(until=20.0)
    assert env.now == 20.0


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return "result"

    p = env.process(proc(env))
    assert env.run(until=p) == "result"
    assert env.now == 2


def test_run_until_event_reraises_failure():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise KeyError("inner")

    p = env.process(proc(env))
    with pytest.raises(KeyError):
        env.run(until=p)


def test_run_until_untriggerable_event_raises():
    env = Environment()
    orphan = env.event()
    with pytest.raises(SimulationError):
        env.run(until=orphan)


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_same_time_events_fifo_order():
    env = Environment()
    order = []
    for i in range(10):
        t = env.timeout(1, value=i)
        t.callbacks.append(lambda e: order.append(e.value))
    env.run()
    assert order == list(range(10))


def test_priority_beats_insertion_order():
    env = Environment()
    order = []
    lo = env.event()
    lo.callbacks.append(lambda e: order.append("low"))
    hi = env.event()
    hi.callbacks.append(lambda e: order.append("urgent"))
    nm = env.event()
    nm.callbacks.append(lambda e: order.append("normal"))
    lo.succeed(priority=NORMAL + 1)
    nm.succeed(priority=NORMAL)
    hi.succeed(priority=URGENT)
    env.run()
    assert order == ["urgent", "normal", "low"]


def test_initial_time_offset():
    env = Environment(initial_time=100.0)
    env.timeout(5)
    env.run()
    assert env.now == 105.0


def test_schedule_negative_delay_rejected():
    """NaN included: it fails where it is made, not as "event queue went
    backwards in time" at some later step."""
    env = Environment()
    for delay in (-0.1, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"delay must be >= 0, got {delay}"):
            env.schedule(env.event(), delay=delay)
        with pytest.raises(ValueError, match=f"delay must be >= 0, got {delay}"):
            env.timeout(delay)
    assert not env._queue


def test_infinite_delay_stays_legal():
    env = Environment()
    env.timeout(math.inf)
    env.schedule(env.event(), delay=math.inf)
    assert next_event_time(env) == math.inf
    env.run(until=10.0)
    assert env.now == 10.0


def test_determinism_full_replay():
    """Two identical simulations produce identical event traces."""

    def build_and_trace():
        env = Environment()
        trace = []

        def worker(env, wid, delay):
            for i in range(5):
                yield env.timeout(delay)
                trace.append((env.now, wid, i))

        for wid, d in enumerate([1.0, 1.5, 1.0, 0.7]):
            env.process(worker(env, wid, d))
        env.run()
        return trace

    assert build_and_trace() == build_and_trace()
