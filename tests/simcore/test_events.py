"""Unit tests for simcore event primitives."""

import pytest

from repro.simcore import (
    AllOf,
    Environment,
    Event,
    EventAlreadyTriggered,
    Timeout,
)


def test_event_starts_pending():
    env = Environment()
    ev = env.event()
    assert not ev.triggered
    assert not ev.processed
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_event_succeed_sets_value():
    env = Environment()
    ev = env.event()
    ev.succeed(42)
    assert ev.triggered
    assert ev.ok
    assert ev.value == 42


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event().succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        ev.fail(ValueError("x"))


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_failed_event_unhandled_raises_on_step():
    env = Environment()
    env.event().fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_failed_event_defused_does_not_raise():
    env = Environment()
    ev = env.event()
    ev.defused = True
    ev.fail(ValueError("boom"))
    env.run()  # no exception


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.5)
    env.run()
    assert env.now == 3.5


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()
    t = env.timeout(1.0, value="payload")
    env.run()
    assert t.value == "payload"


def test_callbacks_fire_in_registration_order():
    env = Environment()
    order = []
    ev = env.event()
    ev.callbacks.append(lambda e: order.append("a"))
    ev.callbacks.append(lambda e: order.append("b"))
    ev.succeed()
    env.run()
    assert order == ["a", "b"]


def test_allof_collects_all_values():
    env = Environment()
    t1 = env.timeout(1, value="x")
    t2 = env.timeout(2, value="y")
    both = AllOf(env, [t1, t2])
    env.run()
    assert both.ok
    assert both.value == {t1: "x", t2: "y"}
    assert env.now == 2


def test_allof_empty_triggers_immediately():
    env = Environment()
    both = AllOf(env, [])
    assert both.triggered
    assert both.value == {}


def test_allof_propagates_failure():
    env = Environment()
    good = env.timeout(1)
    bad = env.event()
    both = AllOf(env, [good, bad])
    both.defused = True
    bad.fail(RuntimeError("child failed"))
    env.run()
    assert not both.ok
    assert isinstance(both.value, RuntimeError)


def test_condition_rejects_foreign_events():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError):
        AllOf(env1, [env2.event()])


def test_mixed_environment_isolation():
    env1, env2 = Environment(), Environment()
    env1.timeout(5)
    env2.timeout(7)
    env1.run()
    assert env1.now == 5
    assert env2.now == 0


def test_event_repr_states():
    env = Environment()
    ev = env.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
    env.run()
    assert "processed" in repr(ev)


def test_timeout_isinstance_event():
    env = Environment()
    assert isinstance(env.timeout(0), Event)
    assert isinstance(env.timeout(0), Timeout)
