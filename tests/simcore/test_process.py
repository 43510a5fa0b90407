"""Unit tests for generator-based processes."""

import pytest

from repro.simcore import Environment, Interrupt


def test_process_runs_and_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        yield env.timeout(2)
        return "final"

    p = env.process(proc(env))
    env.run()
    assert p.triggered and p.ok
    assert p.value == "final"
    assert env.now == 3


def test_process_receives_event_values():
    env = Environment()
    seen = []

    def proc(env):
        v = yield env.timeout(1, value="hello")
        seen.append(v)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    p = env.process(proc(env))
    assert not p.triggered
    env.run(until=2.0)
    assert not p.triggered
    env.run()
    assert p.triggered


def test_process_exception_fails_process_event():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise ValueError("expected failure")

    p = env.process(proc(env))
    with pytest.raises(ValueError, match="expected failure"):
        env.run()
    assert p.triggered and not p.ok


def test_waiting_on_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(3)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return f"got:{result}"

    p = env.process(parent(env))
    env.run()
    assert p.value == "got:child-result"


def test_waiting_on_already_finished_process():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return 99

    def parent(env, child_proc):
        yield env.timeout(10)  # child long done
        v = yield child_proc
        return v

    c = env.process(child(env))
    p = env.process(parent(env, c))
    env.run()
    assert p.value == 99
    assert env.now == 10


def test_failed_child_process_throws_into_parent():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise RuntimeError("child blew up")

    def parent(env):
        try:
            yield env.process(child(env))
        except RuntimeError as exc:
            return f"caught:{exc}"

    p = env.process(parent(env))
    env.run()
    assert p.value == "caught:child blew up"


def test_yield_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield 42  # not an event

    p = env.process(proc(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()
    assert not p.ok


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(env, victim):
        yield env.timeout(5)
        victim.interrupt(cause="wake-up")

    v = env.process(sleeper(env))
    env.process(interrupter(env, v))
    env.run()
    assert log == [(5, "wake-up")]


def test_interrupt_finished_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(2)
        return env.now

    def interrupter(env, victim):
        yield env.timeout(5)
        victim.interrupt()

    v = env.process(sleeper(env))
    env.process(interrupter(env, v))
    env.run()
    assert v.value == 7


def test_process_rejects_non_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_many_processes_interleave_deterministically():
    env = Environment()
    log = []

    def worker(env, wid):
        for step in range(3):
            yield env.timeout(1)
            log.append((env.now, wid, step))

    for wid in range(4):
        env.process(worker(env, wid))
    env.run()
    # At each time unit, workers run in creation order.
    assert log[:4] == [(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0)]
    assert len(log) == 12
