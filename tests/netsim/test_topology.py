"""Unit tests for topologies."""

import pytest

from repro.netsim.links import LinkSpec
from repro.netsim.topology import StarTopology, route_loss
from tests.netsim.reference import route_latency


def test_star_route_is_uplink_plus_downlink():
    topo = StarTopology(4)
    route = topo.route(1, 3)
    assert [l.name for l in route] == ["up:1", "down:3"]


def test_star_loopback_route_empty():
    topo = StarTopology(4)
    assert topo.route(2, 2) == []
    assert route_latency(topo, 2, 2) == 0.0
    assert route_loss(topo.route(2, 2)) == 0.0


def test_star_invalid_node_raises():
    topo = StarTopology(3)
    with pytest.raises(ValueError):
        topo.route(0, 3)
    with pytest.raises(ValueError):
        topo.route(-1, 0)


def test_star_latency_sums_links():
    spec = LinkSpec(latency=10e-6)
    topo = StarTopology(2, default_spec=spec)
    assert route_latency(topo, 0, 1) == pytest.approx(20e-6)


def test_star_loss_combines_multiplicatively():
    spec = LinkSpec(loss_rate=0.1)
    topo = StarTopology(2, default_spec=spec)
    assert route_loss(topo.route(0, 1)) == pytest.approx(1 - 0.9 * 0.9)


def test_star_heterogeneous_overrides():
    slow = LinkSpec(bandwidth=1e6)
    topo = StarTopology(3, overrides={1: slow})
    assert topo.uplinks[1].bandwidth == 1e6
    assert topo.uplinks[0].bandwidth != 1e6


def test_star_override_unknown_node_raises():
    with pytest.raises(ValueError):
        StarTopology(2, overrides={5: LinkSpec()})


def test_star_n_nodes_validation():
    with pytest.raises(ValueError):
        StarTopology(0)


def test_star_links_deterministic_order():
    topo = StarTopology(2)
    assert [l.name for l in topo.links] == ["up:0", "up:1", "down:0", "down:1"]


def test_linkspec_validation():
    with pytest.raises(ValueError):
        LinkSpec(bandwidth=0)
    with pytest.raises(ValueError):
        LinkSpec(latency=-1)
    with pytest.raises(ValueError):
        LinkSpec(loss_rate=1.0)


def test_link_utilization_zero_elapsed():
    topo = StarTopology(1)
    assert topo.uplinks[0].utilization(0.0) == 0.0
