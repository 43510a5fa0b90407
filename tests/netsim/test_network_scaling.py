"""Behavioral tests for the scaled network core.

Covers the machinery around the solver: rerate coalescing,
decoupled-delta solver skipping, the bounded records ring, the recorder
counter mirror, and capacity refreshes across fault windows — with
``PerEventNetwork`` (one full solve per flow event) as the semantic
reference.
"""

import pytest

from repro.netsim.links import LinkSpec
from repro.netsim.network import Network
from repro.netsim.topology import StarTopology
from repro.simcore.environment import Environment
from tests.netsim.reference import PerEventNetwork


def _star(n=4, bandwidth=100.0, latency=0.0):
    return StarTopology(
        n, default_spec=LinkSpec(bandwidth=bandwidth, latency=latency)
    )


def _records_key(net):
    return [
        (r.fid, r.src, r.dst, r.size, r.tag, r.start_time, r.end_time)
        for r in net.records
    ]


def _burst_run(n_flows=6, network=Network):
    """All flows to one destination, started in a single instant."""
    env = Environment()
    net = network(env, _star(n=8))
    for src in range(1, n_flows + 1):
        net.transfer(src, 0, 50.0 * src, tag=src)
    env.run()
    return net, env


def test_same_instant_burst_coalesces_to_one_rerate():
    net, _env_ = _burst_run()
    # 1 coalesced rerate for the 6 same-instant starts, then one per
    # (distinct) completion horizon — instead of one per transfer() call.
    assert net.stats["netsim.rerates"] == 7


def test_burst_records_identical_across_modes():
    ref_net, ref_env = _burst_run(network=PerEventNetwork)
    assert ref_net.stats["netsim.rerates"] >= 6  # one per transfer()
    net, env = _burst_run()
    assert _records_key(net) == _records_key(ref_net)
    assert repr(env.now) == repr(ref_env.now)
    assert net.stats["netsim.rerates"] < ref_net.stats["netsim.rerates"]


def test_decoupled_flows_skip_the_solver():
    env = Environment()
    net = Network(env, _star(n=6, bandwidth=80.0))
    # Disjoint (src, dst) pairs: no shared links, every start/finish is
    # decoupled, so no rerate ever needs the solver.
    net.transfer(0, 1, 100.0)
    env.run()
    net.transfer(2, 3, 100.0)
    net.transfer(4, 5, 100.0)
    env.run()
    assert net.stats["netsim.rerate_skipped"] > 0
    assert net.stats["netsim.fairshare_calls"] == 0
    # Each lone flow got exactly its route's bottleneck capacity.
    for rec in net.records:
        assert rec.duration == pytest.approx(100.0 / 80.0)


def test_coupled_flows_fall_back_to_solver():
    env = Environment()
    net = Network(env, _star(n=4))
    net.transfer(1, 0, 100.0)
    net.transfer(2, 0, 100.0)  # shares link down:0 -> solver required
    env.run()
    assert net.stats["netsim.fairshare_calls"] > 0


def test_per_event_reference_always_solves():
    """The reference really is the per-event model: same decoupled plan as
    above, and it never takes the skip path."""
    env = Environment()
    net = PerEventNetwork(env, _star(n=6))
    net.transfer(0, 1, 100.0)
    env.run()
    net.transfer(2, 3, 100.0)
    env.run()
    assert net.stats["netsim.rerate_skipped"] == 0
    assert net.stats["netsim.fairshare_calls"] > 0


def _staggered_incast_run(fan_out, network=Network, n=48):
    """``n`` staggered-size flows through the PS port (into it, or out of
    it with ``fan_out``) on equal-capacity links, plus one late flow
    between two idle hosts."""
    env = Environment()
    net = network(env, _star(n=n + 3, bandwidth=97.3))

    def bystander():
        yield env.timeout(1.0)
        net.transfer(n + 1, n + 2, 40.0, tag="bystander")

    env.process(bystander())
    for w in range(1, n + 1):
        src, dst = (0, w) if fan_out else (w, 0)
        net.transfer(src, dst, 31.7 * w + 0.1 * w * w, tag=w)
    env.run()
    return net, env


@pytest.mark.parametrize("fan_out", [False, True], ids=["incast", "fan_out"])
def test_staggered_incast_matches_per_event_reference_counts_pinned(fan_out):
    """Every departure re-rates a single-bottleneck incast: the solver's
    last-round exit answers each of those solves (the final one-flow solve,
    whose two links tie exactly, takes the full path). The counts are the
    ones the scheduler gave before the exit existed — it lives inside
    ``fair_rates``, it is not a scheduler skip."""
    ref_net, ref_env = _staggered_incast_run(fan_out, network=PerEventNetwork)
    net, env = _staggered_incast_run(fan_out)
    assert _records_key(net) == _records_key(ref_net)
    assert repr(env.now) == repr(ref_env.now)
    # One coalesced start plus 47 departures solve; the bystander's start
    # and finish are the two decoupled skips.
    assert net.stats["netsim.fairshare_calls"] == 48
    assert net.stats["netsim.rerate_skipped"] == 2
    assert net.stats["netsim.rerates"] == 51


def test_max_records_keeps_latest_and_counts_drops():
    env = Environment()
    net = Network(env, _star(), max_records=3)
    for i in range(8):
        net.transfer(1, 0, 10.0, tag=i)
        env.run()
    assert len(net.records) == 3
    assert [r.tag for r in net.records] == [5, 6, 7]  # keep-latest ring
    assert net.stats["netsim.records_dropped"] == 5


def test_max_records_unset_keeps_everything():
    env = Environment()
    net = Network(env, _star())
    for i in range(5):
        net.transfer(1, 0, 10.0, tag=i)
    env.run()
    assert len(net.records) == 5
    assert net.stats["netsim.records_dropped"] == 0


def test_recorder_mirror_receives_netsim_counters():
    class FakeRecorder:
        def __init__(self):
            self.counts = {}

        def incr(self, name, n=1):
            self.counts[name] = self.counts.get(name, 0) + n

    env = Environment()
    net = Network(env, _star())
    rec = FakeRecorder()
    net.recorder = rec
    net.transfer(1, 0, 100.0)
    net.transfer(2, 0, 100.0)
    env.run()
    assert rec.counts["netsim.rerates"] == net.stats["netsim.rerates"]
    assert (
        rec.counts.get("netsim.fairshare_calls", 0)
        == net.stats["netsim.fairshare_calls"]
    )


def _fault_window_run(network=Network):
    """Bandwidth dips mid-flow on the shared downlink, then recovers."""
    env = Environment()
    topo = _star(n=4, bandwidth=100.0)
    net = network(env, topo)
    dipped = [l for l in topo.links if l.name == "down:0"]

    def faults():
        yield env.timeout(1.0)
        for link in dipped:
            link.apply_fault(bandwidth_factor=0.25)
        net.refresh_capacities()
        yield env.timeout(2.0)
        for link in dipped:
            link.clear_fault(bandwidth_factor=0.25)
        net.refresh_capacities()

    env.process(faults())
    net.transfer(1, 0, 300.0, tag="a")
    net.transfer(2, 0, 300.0, tag="b")
    env.run()
    return net, env


def test_refresh_capacities_mid_flow_identical_across_modes():
    ref_net, ref_env = _fault_window_run(network=PerEventNetwork)
    net, env = _fault_window_run()
    assert _records_key(net) == _records_key(ref_net)
    assert repr(env.now) == repr(ref_env.now)
    # The dip stretched the transfers: 600 bytes through a link that spends
    # 2s at 25 B/s cannot finish at the no-fault time of 6.0s.
    assert env.now > 6.0


def test_refresh_capacities_forces_solver_under_fast():
    net, _env_ = _fault_window_run()
    # Both refresh calls must re-solve (capacities changed), on top of the
    # start/finish solves for the coupled pair.
    assert net.stats["netsim.fairshare_calls"] >= 2


def test_route_cache_does_not_stale_latency_or_loss():
    """Loss/latency are fault-dependent; only the route itself is cached."""
    env = Environment()
    topo = _star(n=3, bandwidth=100.0)
    net = Network(env, topo)
    net.transfer(1, 0, 100.0, tag="before")
    env.run()
    for link in topo.links:
        if link.name == "down:0":
            link.apply_fault(extra_loss=0.5)
    net.transfer(1, 0, 100.0, tag="after")
    env.run()
    before = next(r for r in net.records if r.tag == "before")
    after = next(r for r in net.records if r.tag == "after")
    # Loss inflation: same payload takes 1.5x the bytes after the fault.
    assert after.duration == pytest.approx(1.5 * before.duration)
