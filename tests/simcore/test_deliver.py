"""Environment.deliver: an event queued to succeed later, as one queue entry."""

import math

import pytest

from repro.simcore import AllOf, Environment, EventAlreadyTriggered, Interrupt
from tests.simcore.test_environment import next_event_time


def test_untriggered_until_its_entry_pops_then_carries_the_value():
    env = Environment()
    ev = env.event()
    env.deliver(ev, "payload", 2.0)
    assert not ev.triggered and not ev.processed
    env.run(until=1.999)
    assert not ev.triggered
    env.run()
    assert env.now == 2.0
    assert ev.processed and ev.ok and ev.value == "payload"


def test_one_queue_entry_in_a_timers_slot():
    """The entry is where a timeout created at the same moment would be:
    same time, NORMAL, and the insertion sequence it was given."""
    env = Environment()
    order = []
    before = env.timeout(1.0)
    ev = env.event()
    env.deliver(ev, "d", 1.0)
    after = env.timeout(1.0)
    assert env._eid == 3
    for label, e in (("before", before), ("delivered", ev), ("after", after)):
        e.callbacks.append(lambda _e, label=label: order.append(label))
    env.run()
    assert order == ["before", "delivered", "after"]


def test_waiters_before_and_after_scheduling_resume_in_registration_order():
    env = Environment()
    ev = env.event()
    order = []

    def waiter(name):
        value = yield ev
        order.append((name, env.now, value))

    env.process(waiter("early"))
    env.run()  # the early waiter is parked on ev
    ev.callbacks.append(lambda e: order.append(("callback", env.now, e.value)))
    env.deliver(ev, 7, 3.0)
    env.process(waiter("late"))
    env.run()
    assert order == [("early", 3.0, 7), ("callback", 3.0, 7), ("late", 3.0, 7)]


def test_allof_over_delivered_events():
    env = Environment()
    a, b = env.event(), env.event()
    env.deliver(a, "x", 1.0)
    env.deliver(b, "y", 2.0)
    both = AllOf(env, [a, b])
    env.run()
    assert both.ok and both.value == {a: "x", b: "y"}
    assert env.now == 2.0


def test_yielding_a_processed_delivered_event_relays_its_value():
    env = Environment()
    ev = env.event()
    env.deliver(ev, "late", 1.0)
    got = []

    def proc():
        yield env.timeout(5.0)
        got.append((yield ev))

    env.process(proc())
    env.run()
    assert got == ["late"]


def test_interrupt_while_waiting_detaches_the_waiter():
    env = Environment()
    ev = env.event()
    env.deliver(ev, "never seen", 2.0)
    seen = []

    def proc():
        try:
            seen.append((yield ev))
        except Interrupt as exc:
            seen.append(("interrupted", env.now, exc.cause))
            yield env.timeout(5.0)
            seen.append(("done", env.now))

    p = env.process(proc())
    env.run(until=1.0)
    p.interrupt("stop")
    env.run()
    assert seen == [("interrupted", 1.0, "stop"), ("done", 6.0)]
    assert ev.processed and ev.value == "never seen"


def test_zero_delay_delivers_this_instant():
    env = Environment()
    ev = env.event()
    env.deliver(ev, 1, 0.0)
    env.run()
    assert env.now == 0.0 and ev.value == 1


def test_a_refused_delay_leaves_no_entry_and_no_callback():
    env = Environment()
    ev = env.event()
    with pytest.raises(ValueError):
        env.deliver(ev, None, math.nan)
    assert not env._queue and ev.callbacks == []


def test_infinite_delay_is_legal():
    env = Environment()
    ev = env.event()
    env.deliver(ev, None, math.inf)
    assert next_event_time(env) == math.inf


def test_a_triggered_event_cannot_be_delivered():
    env = Environment()
    ev = env.event().succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        env.deliver(ev, 2, 1.0)
    env.run()
    with pytest.raises(EventAlreadyTriggered):
        env.deliver(ev, 2, 1.0)


def test_succeeding_a_delivered_event_meanwhile_fails_loudly():
    env = Environment()
    ev = env.event()
    env.deliver(ev, "delivered", 2.0)
    ev.succeed("other")
    with pytest.raises(EventAlreadyTriggered):
        env.run()
