"""Unit tests for Resource and QuorumBarrier (the one barrier class)."""

import pytest

from repro.simcore import Environment, QuorumBarrier, Resource


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res._in_use == 2
    assert len(res._waiters) == 1


def test_resource_release_wakes_fifo():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, uid, hold):
        req = res.request()
        yield req
        order.append(("acq", uid, env.now))
        yield env.timeout(hold)
        res.release()

    for uid in range(3):
        env.process(user(env, uid, hold=2))
    env.run()
    assert order == [("acq", 0, 0), ("acq", 1, 2), ("acq", 2, 4)]


def test_resource_release_without_request_raises():
    env = Environment()
    res = Resource(env)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_serialization_matches_capacity():
    """With capacity c, at most c holders overlap at any virtual time."""
    env = Environment()
    res = Resource(env, capacity=3)
    active = [0]
    max_active = [0]

    def user(env):
        req = res.request()
        yield req
        active[0] += 1
        max_active[0] = max(max_active[0], active[0])
        yield env.timeout(1)
        active[0] -= 1
        res.release()

    for _ in range(10):
        env.process(user(env))
    env.run()
    assert max_active[0] == 3


# ---------------------------------------------------------------- Barrier
def test_barrier_releases_all_at_last_arrival():
    env = Environment()
    bar = QuorumBarrier(env, parties=3)
    released = []

    def party(env, pid, arrive):
        yield env.timeout(arrive)
        gen = yield bar.wait()
        released.append((pid, env.now, gen))

    env.process(party(env, 0, 1))
    env.process(party(env, 1, 5))
    env.process(party(env, 2, 3))
    env.run()
    assert sorted(released) == [(0, 5, 0), (1, 5, 0), (2, 5, 0)]


def test_barrier_is_cyclic():
    env = Environment()
    bar = QuorumBarrier(env, parties=2)
    gens = []

    def party(env, delay):
        for _ in range(3):
            yield env.timeout(delay)
            gen = yield bar.wait()
            gens.append((env.now, gen))

    env.process(party(env, 1))
    env.process(party(env, 2))
    env.run()
    # Barrier trips at t=2 (gen 0), t=4 (gen 1), t=6 (gen 2); both parties each time.
    assert gens == [(2, 0), (2, 0), (4, 1), (4, 1), (6, 2), (6, 2)]
    assert bar._generation == 3


def test_barrier_single_party_never_blocks():
    env = Environment()
    bar = QuorumBarrier(env, parties=1)

    def solo(env):
        for _ in range(5):
            yield bar.wait()
            yield env.timeout(1)

    env.process(solo(env))
    env.run()
    assert env.now == 5


def test_barrier_waiting_counter():
    env = Environment()
    bar = QuorumBarrier(env, parties=3)
    bar.wait()
    bar.wait()
    assert bar._arrived == 2
    bar.wait()
    assert bar._arrived == 0


def test_barrier_invalid_parties():
    env = Environment()
    with pytest.raises(ValueError):
        QuorumBarrier(env, parties=0)


def test_barrier_models_bsp_straggler():
    """BSP semantics: iteration time = slowest worker (straggler)."""
    env = Environment()
    bar = QuorumBarrier(env, parties=4)
    iteration_ends = []

    def worker(env, compute_time):
        for _ in range(2):
            yield env.timeout(compute_time)
            yield bar.wait()
            iteration_ends.append(env.now)

    for ct in [1.0, 1.0, 1.0, 9.0]:  # one straggler
        env.process(worker(env, ct))
    env.run()
    assert set(iteration_ends) == {9.0, 18.0}
