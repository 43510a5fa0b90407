"""Priority/weight-aware transmission scheduling (solver + Network)."""

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
    weighted_max_min_fair_rates,
)
from repro.simcore import Environment
from tests.netsim.reference import reference_fair_rates


def make_net(n=4, bandwidth=1000.0, **net_kwargs):
    env = Environment()
    topo = StarTopology(n, default_spec=LinkSpec(bandwidth=bandwidth, latency=0.0))
    return env, Network(env, topo, **net_kwargs)


# ------------------------------------------------------ weighted solver

def test_weighted_shares_split_by_weight():
    rates = weighted_max_min_fair_rates(
        {"a": ["L"], "b": ["L"]}, {"L": 90.0}, {"a": 2.0, "b": 1.0}
    )
    assert rates["a"] == pytest.approx(60.0)
    assert rates["b"] == pytest.approx(30.0)


def test_weighted_validation():
    with pytest.raises(ValueError):
        weighted_max_min_fair_rates({"a": ["L"]}, {"L": 1.0}, {"a": 0.0})
    with pytest.raises(ValueError):
        weighted_max_min_fair_rates({"a": ["L"]}, {"L": 1.0}, {})


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


@given(_random_networks())
@settings(max_examples=150, deadline=None)
def test_weighted_all_ones_bit_identical_to_plain(net):
    routes, caps = net
    plain = fair_rates(routes, caps)
    weighted = weighted_max_min_fair_rates(
        routes, caps, {f: 1.0 for f in routes}
    )
    assert weighted == plain  # exact float equality, not approx


@given(_random_networks())
@settings(max_examples=150, deadline=None)
def test_weighted_never_oversubscribes(net):
    routes, caps = net
    rng = np.random.default_rng(0)
    weights = {f: float(rng.uniform(0.5, 4.0)) for f in routes}
    rates = weighted_max_min_fair_rates(routes, caps, weights)
    load = {l: 0.0 for l in caps}
    for fid, route in routes.items():
        for l in set(route):
            load[l] += rates[fid]
    for l in caps:
        assert load[l] <= caps[l] * (1 + 1e-9)


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
    """Any single class + uniform weights ≡ the plain solver, bit-exact."""
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
    solved by the reference scan and by the heap solver — trusted, as the
    Network calls it — give the same rates."""
    routes, caps = net
    rng = np.random.default_rng(2)
    prios = {f: int(rng.integers(0, 4)) for f in routes}
    with mock.patch(
        "repro.netsim.fairshare.fair_rates",
        lambda r, c, validate=True: reference_fair_rates(r, c),
    ):
        reference = prio_fair_rates(routes, caps, prios)
    assert prio_fair_rates(routes, caps, prios, validate=False) == reference


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


def test_network_slice_defers_preemption_to_boundary():
    env, net = make_net(bandwidth=1000.0)

    def driver(env):
        bulk = net.transfer(2, 1, 1000.0, tag="bulk", prio=PRIO_BULK,
                            slice_bytes=250.0)
        # At t=0.6 bulk has moved 600 B: mid slice 3 (grid 750/500/250),
        # whose boundary sits at remaining=250 — i.e. t=0.75.
        yield env.timeout(0.6)
        high = net.transfer(3, 1, 500.0, tag="high", prio=PRIO_HIGH)
        rec_h = yield high
        rec_b = yield bulk
        return rec_h, rec_b

    p = env.process(driver(env))
    env.run(until=p)
    rec_h, rec_b = p.value
    # HIGH waits out the in-flight slice (until t=0.75), then takes the
    # link: 500 B / 1000 B/s; bulk's last 250 B follow.
    assert rec_h.end_time == pytest.approx(1.25)
    assert rec_b.end_time == pytest.approx(1.5)


def test_network_slice_preempts_instantly_at_boundary():
    env, net = make_net(bandwidth=1000.0)

    def driver(env):
        bulk = net.transfer(2, 1, 1000.0, tag="bulk", prio=PRIO_BULK,
                            slice_bytes=250.0)
        yield env.timeout(0.5)  # exactly two slices consumed: at a boundary
        high = net.transfer(3, 1, 500.0, tag="high", prio=PRIO_HIGH)
        rec_h = yield high
        rec_b = yield bulk
        return rec_h, rec_b

    p = env.process(driver(env))
    env.run(until=p)
    rec_h, rec_b = p.value
    assert rec_h.end_time == pytest.approx(1.0)  # no wait: boundary hit
    assert rec_b.end_time == pytest.approx(1.5)


@pytest.mark.parametrize(
    "neighbour, drains, ends",
    [
        # A HIGH arrival at t=0.6 preempts NORMAL on ``down:4``.
        (
            "high_arrival",
            [0.0, 0.6, 0.75, 0.8999999999999999, 1.0, 2.3],
            [("high", 0.8999999999999999), ("bulk", 1.0), ("normal", 2.3)],
        ),
        # A NORMAL departure at t=0.6 speeds up the NORMAL it shared
        # ``down:4`` with: one class in that component, two on the fabric.
        (
            "normal_departure",
            [0.0, 0.6, 0.75, 1.0, 2.3],
            [("n1", 0.6), ("bulk", 1.0), ("normal", 2.3)],
        ),
    ],
    ids=["high_arrival", "normal_departure"],
)
def test_sliced_flow_off_the_changed_links_is_still_locked_and_anchored(
    neighbour, drains, ends
):
    """While a sliced flow is active a solve covers the whole fabric: a change
    on ``down:4`` also walks the sliced BULK flow on ``up:2``/``down:1`` — no
    link in common — along its slice grid and locks it, so the scheduler
    wakes at its boundary (t=0.75). Values are those of the commit before
    the touched-component rerate."""
    env, net = make_net(n=6, bandwidth=1000.0)
    seen_drains = []
    net.drain_hooks.append(lambda: seen_drains.append(env.now))
    seen = {}

    def driver(env):
        net.transfer(2, 1, 1000.0, tag="bulk", prio=PRIO_BULK, slice_bytes=250.0)
        if neighbour == "normal_departure":
            net.transfer(3, 4, 300.0, tag="n1")
            net.transfer(5, 4, 2000.0, tag="normal")
            yield env.timeout(0.6)
        else:
            net.transfer(3, 4, 2000.0, tag="normal")
            yield env.timeout(0.6)
            net.transfer(5, 4, 300.0, tag="high", prio=PRIO_HIGH)
        yield env.timeout(0.01)
        for f in net.active_flows:
            seen[f.tag] = (f.rate, f.slice_next)

    env.process(driver(env))
    env.run()
    # Anchored at 750 when it started alone; at 400 B left it sits in the
    # slice that ends at 250, and is locked there at its running rate.
    assert seen["bulk"] == (1000.0, 250.0)
    assert sorted(set(seen_drains)) == drains
    assert [(r.tag, r.end_time) for r in net.records] == ends
    assert net.stats["netsim.fairshare_calls"] == 3


def test_transfer_rejects_bad_prio_and_weight():
    env, net = make_net()
    with pytest.raises(ValueError):
        net.transfer(0, 1, 10.0, prio=7)
    with pytest.raises(ValueError):
        net.transfer(0, 1, 10.0, weight=0.0)


def _contended_run(**net_kwargs):
    """One deterministic contended schedule; returns completion records."""
    env, net = make_net(n=6, bandwidth=1000.0, **net_kwargs)

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
