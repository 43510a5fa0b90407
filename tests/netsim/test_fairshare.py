"""Unit + property tests for max–min fair allocation.

Every test runs against the production solver and the reference scan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import fair_rates
from tests.netsim.reference import reference_fair_rates

SOLVERS = (fair_rates, reference_fair_rates)


def solve(routes, caps):
    """Production rates, once the oracle has agreed bit for bit — so each
    assertion on the result holds for both solvers."""
    rates = fair_rates(routes, caps)
    assert rates == reference_fair_rates(routes, caps)
    return rates


def test_single_flow_gets_bottleneck_capacity():
    rates = solve({"f": ["a", "b"]}, {"a": 10.0, "b": 4.0})
    assert rates["f"] == pytest.approx(4.0)


def test_two_flows_share_common_link_equally():
    rates = solve(
        {"f1": ["shared"], "f2": ["shared"]}, {"shared": 10.0}
    )
    assert rates["f1"] == pytest.approx(5.0)
    assert rates["f2"] == pytest.approx(5.0)


def test_incast_n_flows_each_get_b_over_n():
    """N workers pushing into one PS downlink: classic incast (Fig. 1)."""
    n = 8
    routes = {f"w{i}": [f"up{i}", "ps_down"] for i in range(n)}
    caps = {f"up{i}": 100.0 for i in range(n)}
    caps["ps_down"] = 100.0
    rates = solve(routes, caps)
    for i in range(n):
        assert rates[f"w{i}"] == pytest.approx(100.0 / n)


def test_unconstrained_flow_takes_leftover():
    """One flow bottlenecked elsewhere leaves headroom for the other."""
    routes = {"small": ["x", "shared"], "big": ["shared"]}
    caps = {"x": 2.0, "shared": 10.0}
    rates = solve(routes, caps)
    assert rates["small"] == pytest.approx(2.0)
    assert rates["big"] == pytest.approx(8.0)


def test_loopback_flow_infinite_rate():
    rates = solve({"lo": []}, {})
    assert rates["lo"] == float("inf")


def test_unknown_link_raises():
    for solver in SOLVERS:
        with pytest.raises(ValueError):
            solver({"f": ["ghost"]}, {"real": 1.0})


def test_nonpositive_capacity_raises():
    for solver in SOLVERS:
        with pytest.raises(ValueError):
            solver({"f": ["a"]}, {"a": 0.0})


def test_three_level_cascade():
    """Textbook max-min example with successive bottlenecks."""
    routes = {
        "A": ["l1", "l2"],
        "B": ["l1"],
        "C": ["l2", "l3"],
        "D": ["l3"],
    }
    caps = {"l1": 10.0, "l2": 12.0, "l3": 6.0}
    rates = solve(routes, caps)
    # l3 is tightest: C and D each get 3. Then l1: A and B share 10 -> 5 each.
    assert rates["C"] == pytest.approx(3.0)
    assert rates["D"] == pytest.approx(3.0)
    assert rates["A"] == pytest.approx(5.0)
    assert rates["B"] == pytest.approx(5.0)


def test_duplicate_link_in_route_counts_once():
    rates = solve({"f": ["a", "a"]}, {"a": 5.0})
    assert rates["f"] == pytest.approx(5.0)


def test_determinism_same_input_same_output():
    routes = {f"f{i}": ["a", f"b{i % 3}"] for i in range(9)}
    caps = {"a": 7.0, "b0": 3.0, "b1": 5.0, "b2": 9.0}
    for solver in SOLVERS:
        assert solver(routes, caps) == solver(routes, caps)


# ------------------------------------------------------------- properties
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
@settings(max_examples=200, deadline=None)
def test_property_no_link_oversubscribed(net):
    routes, caps = net
    rates = solve(routes, caps)
    load = {l: 0.0 for l in caps}
    for fid, route in routes.items():
        for l in set(route):
            load[l] += rates[fid]
    for l in caps:
        assert load[l] <= caps[l] * (1 + 1e-9)


@given(_random_networks())
@settings(max_examples=200, deadline=None)
def test_property_every_flow_has_saturated_bottleneck(net):
    """Max-min: each flow crosses a saturated link where it is among the
    maximal-rate flows (the defining property of max-min fairness)."""
    routes, caps = net
    rates = solve(routes, caps)
    load = {l: 0.0 for l in caps}
    for fid, route in routes.items():
        for l in set(route):
            load[l] += rates[fid]
    for fid, route in routes.items():
        has_bottleneck = False
        for l in set(route):
            saturated = load[l] >= caps[l] * (1 - 1e-6)
            is_max = all(
                rates[fid] >= rates[g] - 1e-6
                for g, r in routes.items()
                if l in set(r)
            )
            if saturated and is_max:
                has_bottleneck = True
                break
        assert has_bottleneck, f"flow {fid} is not max-min bottlenecked"


@given(_random_networks())
@settings(max_examples=100, deadline=None)
def test_property_rates_positive(net):
    routes, caps = net
    rates = solve(routes, caps)
    for fid in routes:
        assert rates[fid] > 0
