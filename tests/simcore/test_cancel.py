"""``Environment.cancel``: a withdrawn entry neither moves the clock nor
reaches the sampler, and every other entry keeps its order."""

import math

import pytest

from repro.simcore import Environment, SimulationError


class _Sampler:
    """Asks to be called after every processed event."""

    next_edge = -math.inf

    def __init__(self):
        self.seen = []

    def on_advance(self, now):
        self.seen.append(now)


def test_a_cancelled_entry_does_not_advance_now():
    env = Environment()
    fired = []
    early = env.timeout(1.0)
    early.callbacks.append(lambda ev: fired.append(env.now))
    late = env.timeout(5.0)
    late.callbacks.append(lambda ev: fired.append(env.now))
    env.cancel(late)
    env.run()
    assert fired == [1.0]
    assert env.now == 1.0  # the queue emptied at the last real event


def test_a_cancelled_entry_never_reaches_the_sampler():
    env = Environment()
    sampler = env.metric_sampler = _Sampler()
    env.timeout(1.0)
    env.cancel(env.timeout(2.0))
    env.timeout(3.0)
    env.run()
    assert sampler.seen == [1.0, 3.0]


def test_cancelling_keeps_the_order_of_the_other_entries():
    env = Environment()
    order = []
    for name in "abc":
        ev = env.timeout(1.0)
        ev.callbacks.append(lambda _ev, name=name: order.append(name))
        if name == "b":
            env.cancel(ev)
    env.run()
    assert order == ["a", "c"]


def test_run_until_an_event_steps_over_a_cancelled_entry():
    env = Environment()
    env.cancel(env.timeout(1.0))
    target = env.timeout(2.0, value="done")
    assert env.run(until=target) == "done"
    assert env.now == 2.0


def test_a_processed_event_cannot_be_cancelled():
    env = Environment()
    ev = env.timeout(1.0)
    env.run()
    with pytest.raises(SimulationError, match="already processed"):
        env.cancel(ev)
