"""Priority-aware transmission scheduling (solver + Network)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import (
    LinkSpec,
    Network,
    PRIO_BULK,
    PRIO_HIGH,
    PRIO_NORMAL,
    PRIO_URGENT,
    StarTopology,
    fair_rates,
    prio_fair_rates,
)
from repro.simcore import Environment
from tests.netsim.reference import reference_fair_rates


def make_net(n=4, bandwidth=1000.0, priorities=True):
    env = Environment()
    topo = StarTopology(n, default_spec=LinkSpec(bandwidth=bandwidth, latency=0.0))
    net = Network(env, topo)
    net.priorities = priorities
    return env, net


@st.composite
def _random_networks(draw):
    n_links = draw(st.integers(min_value=1, max_value=6))
    links = [f"L{i}" for i in range(n_links)]
    caps = {
        l: draw(st.floats(min_value=0.5, max_value=100.0, allow_nan=False))
        for l in links
    }
    n_flows = draw(st.integers(min_value=1, max_value=8))
    routes = {}
    for i in range(n_flows):
        k = draw(st.integers(min_value=1, max_value=n_links))
        routes[f"f{i}"] = draw(
            st.lists(st.sampled_from(links), min_size=k, max_size=k, unique=True)
        )
    return routes, caps


# ------------------------------------------------------ priority solver

def test_strict_priority_starves_lower_class_on_saturated_link():
    routes = {"hi": ["L"], "lo": ["L"]}
    rates = prio_fair_rates(
        routes, {"L": 100.0}, {"hi": PRIO_HIGH, "lo": PRIO_BULK}
    )
    assert rates["hi"] == pytest.approx(100.0)
    assert rates["lo"] == 0.0


def test_lower_class_takes_leftover_on_unsaturated_links():
    # hi is bottlenecked elsewhere, so L has leftover for lo.
    routes = {"hi": ["narrow", "L"], "lo": ["L"]}
    caps = {"narrow": 10.0, "L": 100.0}
    rates = prio_fair_rates(
        routes, caps, {"hi": PRIO_HIGH, "lo": PRIO_BULK}
    )
    assert rates["hi"] == pytest.approx(10.0)
    assert rates["lo"] == pytest.approx(90.0)


@given(_random_networks())
@settings(max_examples=150, deadline=None)
def test_single_class_delegates_bit_identical(net):
    """Any single class ≡ the plain solver, bit-exact."""
    routes, caps = net
    plain = fair_rates(routes, caps)
    for cls in (PRIO_URGENT, PRIO_NORMAL, PRIO_BULK):
        rates = prio_fair_rates(routes, caps, {f: cls for f in routes})
        assert rates == plain


@given(_random_networks())
@settings(max_examples=150, deadline=None)
def test_multi_class_never_oversubscribes(net):
    routes, caps = net
    rng = np.random.default_rng(1)
    prios = {f: int(rng.integers(0, 4)) for f in routes}
    rates = prio_fair_rates(routes, caps, prios)
    load = {l: 0.0 for l in caps}
    for fid, route in routes.items():
        for l in set(route):
            load[l] += rates[fid]
    for l in caps:
        assert load[l] <= caps[l] * (1 + 1e-6)


@given(_random_networks())
@settings(max_examples=150, deadline=None)
def test_legacy_and_fast_subsolvers_agree_in_prio_path(net):
    """Per-class subproblems (leftover capacities, starved flows removed)
    solved by the reference scan and by the heap solver give the same
    rates."""
    routes, caps = net
    rng = np.random.default_rng(2)
    prios = {f: int(rng.integers(0, 4)) for f in routes}

    def reference_sub_solve(sub_routes, sub_caps, index=None):
        # A class's index holds its links in fid then route order, each
        # with its flows in fid order: the index ``_max_min`` builds itself.
        if index is not None:
            built: dict = {}
            for fid, route in sub_routes.items():
                for link in route:
                    built.setdefault(link, []).append(fid)
            assert [(l, list(m)) for l, m in index.items()] == [
                (l, list(dict.fromkeys(m))) for l, m in built.items()
            ]
            assert set(sub_caps) == set(index)
        return reference_fair_rates(sub_routes, sub_caps)

    with mock.patch("repro.netsim.fairshare._max_min", reference_sub_solve):
        reference = prio_fair_rates(routes, caps, prios)
    assert prio_fair_rates(routes, caps, prios) == reference


# ------------------------------------------------------ Network integration

def test_network_strict_priority_end_to_end():
    env, net = make_net(bandwidth=1000.0)

    def driver(env):
        bulk = net.transfer(2, 1, 1000.0, tag="bulk", prio=PRIO_BULK)
        yield env.timeout(0.5)
        high = net.transfer(3, 1, 500.0, tag="high", prio=PRIO_HIGH)
        rec_h = yield high
        rec_b = yield bulk
        return rec_h, rec_b

    p = env.process(driver(env))
    env.run(until=p)
    rec_h, rec_b = p.value
    # HIGH takes the whole downlink on arrival; BULK resumes afterwards.
    assert rec_h.end_time == pytest.approx(1.0)
    assert rec_b.end_time == pytest.approx(1.5)
    assert net.stats["netsim.prio_preemptions"] == 1
    assert net.stats["netsim.prio_bytes.high"] == pytest.approx(500.0)
    assert net.stats["netsim.prio_bytes.bulk"] == pytest.approx(1000.0)


def test_network_equal_class_keeps_fair_share():
    env, net = make_net(bandwidth=1000.0)

    def driver(env):
        a = net.transfer(2, 1, 500.0, tag="a", prio=PRIO_BULK)
        b = net.transfer(3, 1, 500.0, tag="b", prio=PRIO_BULK)
        ra = yield a
        rb = yield b
        return ra, rb

    p = env.process(driver(env))
    env.run(until=p)
    ra, rb = p.value
    assert ra.end_time == pytest.approx(1.0)  # 500 B each at 500 B/s
    assert rb.end_time == pytest.approx(1.0)
    assert net.stats["netsim.prio_preemptions"] == 0


def test_transfer_rejects_bad_prio_and_weight():
    """An unknown class is refused; a per-flow weight is not an option."""
    env, net = make_net()
    with pytest.raises(ValueError):
        net.transfer(0, 1, 10.0, prio=7)
    with pytest.raises(TypeError):
        net.transfer(0, 1, 10.0, weight=2.0)


def _contended_run(priorities=True):
    """One deterministic contended schedule; returns completion records."""
    env, net = make_net(n=6, bandwidth=1000.0, priorities=priorities)

    def driver(env):
        events = []
        rng = np.random.default_rng(11)
        for i in range(12):
            src = 2 + int(rng.integers(4))
            size = float(rng.integers(100, 900))
            events.append(net.transfer(src, 1, size, tag=("f", i)))
            yield env.timeout(float(rng.uniform(0.01, 0.3)))
        for ev in events:
            yield ev

    p = env.process(driver(env))
    env.run(until=p)
    return [(r.tag, r.start_time, r.end_time) for r in net.records]


def test_all_normal_bit_identical_with_prio_on_and_off():
    """Default-prio traffic must not notice the scheduler exists."""
    on = _contended_run()  # default: enabled
    off = _contended_run(priorities=False)
    assert on == off  # bit-exact virtual times


def test_kill_switch_coerces_classes_to_normal():
    env, net = make_net(bandwidth=1000.0, priorities=False)

    def driver(env):
        bulk = net.transfer(2, 1, 500.0, tag="bulk", prio=PRIO_BULK)
        high = net.transfer(3, 1, 500.0, tag="high", prio=PRIO_HIGH)
        rb = yield bulk
        rh = yield high
        return rb, rh

    p = env.process(driver(env))
    env.run(until=p)
    rb, rh = p.value
    # Fair share, no starvation: both finish together.
    assert rb.end_time == pytest.approx(rh.end_time)
    assert net.stats["netsim.prio_preemptions"] == 0
    # ... and no class accounting: there are no classes on this fabric.
    assert not any(v for k, v in net.stats.items() if "prio_bytes" in k)
