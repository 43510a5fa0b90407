"""Edge-case tests for the simulation kernel."""

import pytest

from repro.simcore import (
    AllOf,
    Environment,
    Interrupt,
    QuorumBarrier,
    Resource,
)


def test_condition_over_already_processed_children():
    env = Environment()
    t1 = env.timeout(1, value="a")
    env.run()  # t1 processed
    both = AllOf(env, [t1])
    assert both.triggered
    assert both.value == {t1: "a"}


def test_interrupt_while_waiting_on_barrier():
    env = Environment()
    bar = QuorumBarrier(env, parties=2)
    caught = []

    def waiter(env):
        try:
            yield bar.wait()
        except Interrupt as i:
            caught.append(i.cause)

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt(cause="abort-barrier")

    v = env.process(waiter(env))
    env.process(interrupter(env, v))
    env.run()
    assert caught == ["abort-barrier"]
    # The barrier still counts the arrival — documenting current semantics:
    assert bar._arrived == 1


def test_interrupt_while_holding_resource_releases_in_finally():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        req = res.request()
        yield req
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        finally:
            res.release()
        order.append(("holder-out", env.now))

    def second(env):
        yield env.timeout(1)
        req = res.request()
        yield req
        order.append(("second-in", env.now))
        res.release()

    h = env.process(holder(env))

    def interrupter(env):
        yield env.timeout(5)
        h.interrupt()

    env.process(second(env))
    env.process(interrupter(env))
    env.run()
    assert ("second-in", 5) in order


def test_process_return_value_none_by_default():
    env = Environment()

    def proc(env):
        yield env.timeout(1)

    p = env.process(proc(env))
    env.run()
    assert p.value is None


def test_nested_process_chain_values():
    env = Environment()

    def leaf(env):
        yield env.timeout(1)
        return 1

    def mid(env):
        v = yield env.process(leaf(env))
        return v + 1

    def root(env):
        v = yield env.process(mid(env))
        return v + 1

    p = env.process(root(env))
    env.run()
    assert p.value == 3


def test_barrier_more_arrivals_than_parties_wraps_generations():
    env = Environment()
    bar = QuorumBarrier(env, parties=2)
    gens = []

    def party(env):
        g = yield bar.wait()
        gens.append(g)

    for _ in range(6):
        env.process(party(env))
    env.run()
    assert sorted(gens) == [0, 0, 1, 1, 2, 2]


def test_zero_delay_timeout_processes_in_fifo_order():
    env = Environment()
    order = []
    for i in range(5):
        t = env.timeout(0, value=i)
        t.callbacks.append(lambda e: order.append(e.value))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_request_inside_callback_is_safe():
    env = Environment()
    res = Resource(env, capacity=1)
    got = []

    def proc(env):
        req = res.request()
        yield req
        got.append(env.now)
        res.release()

    t = env.timeout(1)
    t.callbacks.append(lambda _e: env.process(proc(env)))
    env.run()
    assert got == [1]
