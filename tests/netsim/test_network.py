"""Integration tests for the fluid-flow Network scheduler."""

import pytest

from repro.netsim import LinkSpec, Network, StarTopology
from repro.simcore import Environment
from tests.netsim.reference import bulk_time, link_utilization


def make_net(n=4, bandwidth=100.0, latency=0.0, loss=0.0):
    env = Environment()
    topo = StarTopology(
        n, default_spec=LinkSpec(bandwidth=bandwidth, latency=latency, loss_rate=loss)
    )
    return env, Network(env, topo)


def test_single_transfer_duration_matches_analytic():
    env, net = make_net(bandwidth=100.0)
    done = net.transfer(0, 1, size=500.0)
    env.run()
    rec = done.value
    assert rec.duration == pytest.approx(5.0)
    assert env.now == pytest.approx(5.0)


def test_transfer_latency_added():
    env, net = make_net(bandwidth=100.0, latency=0.5)
    done = net.transfer(0, 1, size=100.0)
    env.run()
    # serialization 1s + 2 links x 0.5s latency
    assert done.value.duration == pytest.approx(2.0)


def test_zero_size_transfer_costs_latency_only():
    env, net = make_net(latency=0.25)
    done = net.transfer(0, 1, size=0.0)
    env.run()
    assert done.value.duration == pytest.approx(0.5)


def test_loopback_transfer_is_free():
    env, net = make_net()
    done = net.transfer(2, 2, size=1e9)
    env.run()
    assert done.value.duration == 0.0
    assert env.now == 0.0


def test_utilization_unaffected_by_active_fault_window():
    # Regression: utilization divided historical bytes_carried by the
    # *current* fault-adjusted bandwidth, so a report taken during an
    # active bandwidth dip overstated whole-run utilization 1/factor-fold.
    env, net = make_net(bandwidth=100.0)
    net.transfer(0, 1, size=500.0)
    env.run()  # completes at t=5 with the uplink fully busy
    up = next(l for l in net.topology.links if l.name == "up:0")
    before = up.utilization(10.0)
    up.apply_fault(bandwidth_factor=0.25)  # dip still active at report time
    assert up.utilization(10.0) == pytest.approx(before) == pytest.approx(0.5)
    up.clear_fault(bandwidth_factor=0.25)


def test_negative_size_rejected():
    env, net = make_net()
    with pytest.raises(ValueError):
        net.transfer(0, 1, size=-1.0)


@pytest.mark.parametrize("size", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_size_rejected(size):
    """A NaN flow never drains below the completion threshold and an
    infinite one never finishes: both are refused before touching the fabric."""
    env, net = make_net()
    with pytest.raises(ValueError, match=f"^non-finite transfer size {size}$"):
        net.transfer(0, 1, size=size)
    assert net.active_flows == [] and net.records == []


def test_loss_inflates_duration():
    env, net = make_net(bandwidth=100.0, loss=0.05)
    done = net.transfer(0, 1, size=1000.0)
    env.run()
    combined_loss = 1 - 0.95 * 0.95
    assert done.value.duration == pytest.approx(1000 * (1 + combined_loss) / 100.0)


def test_incast_two_flows_to_same_destination():
    """Two pushes into one downlink: each halves, both finish at 2x."""
    env, net = make_net(bandwidth=100.0)
    d1 = net.transfer(0, 2, size=100.0)
    d2 = net.transfer(1, 2, size=100.0)
    env.run()
    assert d1.value.end_time == pytest.approx(2.0)
    assert d2.value.end_time == pytest.approx(2.0)


def test_incast_n_flows_scales_linearly():
    """N simultaneous pushes into the PS: total time = N * S / b (Fig. 1)."""
    n = 8
    env, net = make_net(n=n + 1, bandwidth=100.0)
    dones = [net.transfer(i, n, size=100.0) for i in range(n)]
    env.run()
    for d in dones:
        assert d.value.end_time == pytest.approx(n * 100.0 / 100.0)


def test_disjoint_flows_do_not_interact():
    env, net = make_net(n=4, bandwidth=100.0)
    d1 = net.transfer(0, 1, size=100.0)
    d2 = net.transfer(2, 3, size=100.0)
    env.run()
    assert d1.value.duration == pytest.approx(1.0)
    assert d2.value.duration == pytest.approx(1.0)


def test_staggered_flow_rerating():
    """Second flow arrives halfway; first slows down from then on.

    Flow A: 100 bytes at rate 100 alone. At t=0.5, A has 50 left.
    B starts (same downlink): both at 50. A finishes at 0.5 + 50/50 = 1.5.
    B (100 bytes): 50 moved by t=1.5, then full rate: t=1.5+50/100=2.0.
    """
    env, net = make_net(bandwidth=100.0)

    def starter(env):
        yield env.timeout(0.5)
        return net.transfer(1, 2, size=100.0)

    dA = net.transfer(0, 2, size=100.0)
    pB = env.process(starter(env))
    env.run()
    dB = pB.value
    assert dA.value.end_time == pytest.approx(1.5)
    assert dB.value.end_time == pytest.approx(2.0)


def test_uplink_bottleneck_for_fan_out():
    """One sender to two receivers: sender's uplink is the bottleneck."""
    env, net = make_net(bandwidth=100.0)
    d1 = net.transfer(0, 1, size=100.0)
    d2 = net.transfer(0, 2, size=100.0)
    env.run()
    assert d1.value.end_time == pytest.approx(2.0)
    assert d2.value.end_time == pytest.approx(2.0)


def test_heterogeneous_slow_node():
    """A node with a 10x slower link takes 10x longer (§6.2)."""
    def hetero_topo():
        return StarTopology(
            3,
            default_spec=LinkSpec(bandwidth=100.0, latency=0.0),
            overrides={1: LinkSpec(bandwidth=10.0, latency=0.0)},
        )

    env = Environment()
    net = Network(env, hetero_topo())
    d_fast = net.transfer(0, 2, size=100.0)
    env.run()
    env2 = Environment()
    net2 = Network(env2, hetero_topo())
    d_slow = net2.transfer(1, 2, size=100.0)
    env2.run()
    assert d_slow.value.duration == pytest.approx(10 * d_fast.value.duration)


def test_bulk_time_analytic_helper():
    env, net = make_net(bandwidth=100.0, latency=0.1, loss=0.0)
    assert bulk_time(net, 0, 1, 100.0) == pytest.approx(1.0 + 0.2)
    assert bulk_time(net, 2, 2, 1e9) == 0.0


def test_flow_records_accumulate():
    env, net = make_net()
    net.transfer(0, 1, size=10.0, tag="push")
    net.transfer(1, 0, size=10.0, tag="pull")
    env.run()
    assert len(net.records) == 2
    assert {r.tag for r in net.records} == {"push", "pull"}


def test_link_bytes_accounting():
    env, net = make_net(bandwidth=100.0)
    net.transfer(0, 1, size=100.0)
    env.run()
    assert link_utilization(net, "up:0") == pytest.approx(1.0)
    assert link_utilization(net, "down:1") == pytest.approx(1.0)


def test_effective_rate_property():
    env, net = make_net(bandwidth=200.0)
    d = net.transfer(0, 1, size=100.0)
    env.run()
    assert d.value.size / d.value.duration == pytest.approx(200.0)


def test_many_sequential_transfers_deterministic():
    def run():
        env, net = make_net(n=9, bandwidth=1250.0)

        def worker(env, wid):
            for it in range(3):
                yield net.transfer(wid, 8, size=100.0 * (wid + 1), tag=(wid, it))
                yield net.transfer(8, wid, size=50.0, tag=("pull", wid, it))

        for w in range(8):
            env.process(worker(env, w))
        env.run()
        return [(r.tag, round(r.end_time, 9)) for r in net.records]

    assert run() == run()


def test_conservation_total_bytes():
    """Sum of per-link carried bytes equals sum over flows of size x links."""
    env, net = make_net(n=5, bandwidth=77.0)
    sizes = [100.0, 250.0, 30.0, 400.0]
    for i, s in enumerate(sizes):
        net.transfer(i, (i + 1) % 4, size=s)
    env.run()
    total_carried = sum(l.bytes_carried for l in net.topology.links)
    assert total_carried == pytest.approx(2 * sum(sizes), rel=1e-6)
