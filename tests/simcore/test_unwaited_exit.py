"""A process exit nobody waits on settles in place and takes no queue entry.

A returning generator with no callback registered on its process marks the
process processed at once, with its value. A failing one still queues its
entry, so ``run()`` raises; a process somebody waits on (a ``yield``-ing
process, an ``all_of``) still exits through the queue.
"""

import pytest

from repro.simcore import Environment


def _returns(env, value, delay=1.0):
    yield env.timeout(delay)
    return value


def test_a_return_with_no_waiter_is_processed_in_place():
    env = Environment()
    proc = env.process(_returns(env, "v"))
    env.step()  # bootstrap
    env.step()  # the timeout: the generator returns
    assert proc.processed and proc.ok and proc.value == "v"
    assert env._eid == 2  # bootstrap + timeout; the exit queued nothing
    assert not env._queue


def test_run_until_a_process_with_no_other_waiter_returns_its_value():
    env = Environment()
    proc = env.process(_returns(env, 42))
    assert env.run(until=proc) == 42
    assert env.now == 1.0 and env._eid == 2


def test_yielding_it_later_resumes_at_the_same_instant_with_its_value():
    env = Environment()
    child = env.process(_returns(env, "done"))
    seen = []

    def parent():
        yield env.timeout(2.0)
        assert child.processed
        value = yield child
        seen.append((env.now, value))

    env.process(parent())
    env.run()
    assert seen == [(2.0, "done")]
    # two bootstraps, two timeouts and the relay; neither exit queued
    assert env._eid == 5


def test_a_process_yielded_in_its_exit_instant_resumes_then():
    env = Environment()
    child = env.process(_returns(env, 7, delay=0.0))
    seen = []

    def parent():
        yield env.timeout(0.0)  # queued after the child's timeout
        value = yield child
        seen.append((env.now, value))

    env.process(parent())
    env.run()
    assert seen == [(0.0, 7)]


def test_a_failure_with_no_waiter_still_queues_and_run_raises():
    env = Environment()

    def fails():
        yield env.timeout(1.0)
        raise KeyError("boom")

    proc = env.process(fails())
    env.step()
    env.step()
    assert proc.triggered and not proc.processed
    assert env._eid == 3  # bootstrap, timeout and the failure's entry
    with pytest.raises(KeyError):
        env.run()


def test_a_waiter_registered_before_the_exit_sees_the_queued_exit():
    env = Environment()
    child = env.process(_returns(env, "x"))
    seen = []

    def parent():
        value = yield child
        seen.append((env.now, value))

    env.process(parent())
    env.step()  # child's bootstrap
    env.step()  # parent's bootstrap: it waits on the child
    env.step()  # the timeout: the child returns, with a waiter
    assert child.triggered and not child.processed
    env.run()
    assert seen == [(1.0, "x")]
    # two bootstraps, the timeout and the child's exit; the parent's exit
    # has no waiter
    assert env._eid == 4


def test_all_of_over_processes_sees_their_exits():
    env = Environment()
    procs = [env.process(_returns(env, i, delay=1.0 + i)) for i in range(3)]
    both = env.all_of(procs)
    assert env.run(until=both) == {p: i for i, p in enumerate(procs)}
    assert env.now == 3.0
    # three bootstraps, three timeouts, three exits and the all_of
    assert env._eid == 10
