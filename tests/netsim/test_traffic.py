"""Tests for background-traffic generators."""

import pytest

from repro.netsim import LinkSpec, Network, PRIO_BULK, PRIO_NORMAL, StarTopology
from repro.netsim.traffic import constant_background_load
from repro.simcore import Environment


def make_net(n=4, bandwidth=1000.0):
    env = Environment()
    topo = StarTopology(n, default_spec=LinkSpec(bandwidth=bandwidth, latency=0.0))
    return env, Network(env, topo)


def _probe_transfer_time(with_load, probe_prio):
    env, net = make_net(bandwidth=1000.0)
    if with_load:
        env.process(
            constant_background_load(env, net, 2, 1, load_fraction=0.5, until=100.0)
        )

    def measured(env):
        yield env.timeout(1.0)  # let the load reach steady state
        rec = yield net.transfer(0, 1, 5000.0, tag="probe", prio=probe_prio)
        return rec.duration

    p = env.process(measured(env))
    env.run(until=p)
    return p.value


def test_constant_load_slows_competing_flow():
    """A 50% background load roughly halves a same-class transfer's rate."""
    free = _probe_transfer_time(False, PRIO_BULK)
    loaded = _probe_transfer_time(True, PRIO_BULK)
    assert free == pytest.approx(5.0)
    # Under fair sharing the background's own chunks dilate (it only
    # achieves ~2/3 duty), so the probe sees rate 2/3·b: duration 1.5x.
    assert loaded == pytest.approx(1.5 * free, rel=0.05)


def test_training_class_preempts_background_load():
    """Background flows are BULK: a NORMAL probe is not slowed at all."""
    free = _probe_transfer_time(False, PRIO_NORMAL)
    loaded = _probe_transfer_time(True, PRIO_NORMAL)
    assert free == pytest.approx(5.0)
    assert loaded == pytest.approx(free, rel=1e-6)


def test_constant_load_tracks_fault_windows():
    """Chunk size follows the *effective* bandwidth through a fault window.

    Regression: the chunk was sized once from the healthy bandwidth, so
    during a 10x bandwidth dip each chunk took 10x longer than budgeted and
    the tenant ran at ~91% duty instead of its advertised 50%.
    """
    env, net = make_net(bandwidth=1000.0)
    route = net.topology.route(2, 1)

    def fault_window(env):
        yield env.timeout(5.0)
        for link in route:
            link.apply_fault(bandwidth_factor=0.1)
        net.refresh_capacities()
        yield env.timeout(5.0)
        for link in route:
            link.clear_fault(bandwidth_factor=0.1)
        net.refresh_capacities()

    env.process(fault_window(env))
    env.process(
        constant_background_load(env, net, 2, 1, load_fraction=0.5, until=15.0)
    )
    env.run(until=15.0)

    in_window = sum(
        r.size for r in net.records
        if isinstance(r.tag, tuple) and r.tag[0] == "bg-load"
        and 5.0 <= r.end_time <= 10.0
    )
    # Advertised load over the dip: 0.5 x 100 B/s x 5 s = 250 B. The old
    # code kept 50 B chunks (sized for the healthy link) and pushed ~450 B.
    assert in_window == pytest.approx(0.5 * 100.0 * 5.0, rel=0.15)


def test_constant_load_validation():
    env, net = make_net()
    with pytest.raises(ValueError):
        next(constant_background_load(env, net, 0, 1, load_fraction=0.0))
    with pytest.raises(ValueError):
        next(constant_background_load(env, net, 1, 1, load_fraction=0.5))
