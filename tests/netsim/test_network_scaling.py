"""Behavioral tests for the scaled network core.

Covers the machinery around the solver: rerate coalescing, the
touched-component rerate (and the solves it skips), the bounded records ring,
the recorder counter mirror, and capacity refreshes across fault windows —
with ``PerEventNetwork`` (one whole-fabric solve per flow event) as the
semantic reference.
"""

from unittest import mock

import pytest

from repro.metrics.recorder import Recorder
from repro.netsim import PRIO_BULK, PRIO_HIGH
from repro.netsim import network as network_module
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
    """Every departure re-rates a single-bottleneck incast. Its 48 flows
    form a cohort at their first solve, and from then on round 1 read off
    the network's share heap answers each departure's solve without the
    solver (46 of them); the solver runs for the first solve and for the
    final one-flow solve, whose two links tie exactly. ``fairshare_calls``
    counts both kinds: the scheduler gave these counts before either the
    solver's last-round exit or the cohort existed."""
    ref_net, ref_env = _staggered_incast_run(fan_out, network=PerEventNetwork)
    one_share = Network._one_share
    answered = []

    def counted_one_share(self, routes):
        share = one_share(self, routes)
        answered.append(share is not None)
        return share

    with mock.patch.object(
        network_module, "_max_min", wraps=network_module._max_min
    ) as solver, mock.patch.object(Network, "_one_share", counted_one_share):
        net, env = _staggered_incast_run(fan_out)
    assert solver.call_count == 2  # the counter below counts real solves
    assert sum(answered) == 46
    assert _records_key(net) == _records_key(ref_net)
    assert repr(env.now) == repr(ref_env.now)
    # One coalesced start plus 47 departures solve; the bystander's start
    # and finish are the two decoupled skips.
    assert net.stats["netsim.fairshare_calls"] == 48
    assert net.stats["netsim.rerate_skipped"] == 2
    assert net.stats["netsim.rerates"] == 51


def _duplex_hub_run(network=Network, dip_at=None, watch=lambda net, event: None):
    """OSP's two stages on a full-duplex star: 8 BULK pulls out of the hub
    (all on ``up:0``) while 8 staggered HIGH pushes drain into it (all on
    ``down:0``) — two classes that share no link. ``watch(net, event)`` runs
    at every push departure and at both edges of the optional capacity dip."""
    env = Environment()
    topo = _star(n=9, bandwidth=800.0)
    net = network(env, topo)
    hub_ports = [l for l in topo.links if l.name in ("up:0", "down:0")]

    def push(w):
        yield net.transfer(w, 0, 40.0 * w, tag=("push", w), prio=PRIO_HIGH)
        watch(net, ("push", w))

    def dip():
        yield env.timeout(dip_at)
        for link in hub_ports:
            link.apply_fault(bandwidth_factor=0.5)
        net.refresh_capacities()
        watch(net, "dip")
        yield env.timeout(0.25)
        for link in hub_ports:
            link.clear_fault(bandwidth_factor=0.5)
        net.refresh_capacities()
        watch(net, "clear")

    for w in range(1, 9):
        net.transfer(0, w, 400.0, tag=("pull", w), prio=PRIO_BULK)
        env.process(push(w))
    if dip_at is not None:
        env.process(dip())
    env.run()
    return net, env


def _rates(net, prio):
    return {f.fid: f.rate for f in net.active_flows if f.prio == prio}


def test_push_departures_leave_the_pulls_on_the_other_direction_alone():
    seen = []
    with mock.patch.object(
        network_module, "_prio_max_min", wraps=network_module._prio_max_min
    ) as prio_solver:
        net, env = _duplex_hub_run(
            watch=lambda net, event: seen.append(_rates(net, PRIO_BULK))
        )
    # Eight departures, the pulls all still running, none ever re-rated:
    # 800 B/s over 8 pulls, the very same float every time.
    assert seen == [dict.fromkeys(range(8), 100.0)] * 8
    # Two classes on the fabric, never two in one link-component: only the
    # t=0 burst, which touches both at once, is solved as a multi-class set
    # (at the parent: all 8 solves — the burst and 7 departures with survivors).
    assert prio_solver.call_count == 1
    assert net.stats["netsim.fairshare_calls"] == 8
    assert net.stats["netsim.prio_preemptions"] == 0
    ref_net, ref_env = _duplex_hub_run(network=PerEventNetwork)
    assert _records_key(net) == _records_key(ref_net)
    assert repr(env.now) == repr(ref_env.now)


def test_capacity_dip_rerates_both_components_at_the_fault_edge():
    """No flow joins or leaves at a fault edge, yet every rate is stale:
    ``refresh_capacities`` touches every loaded link."""
    seen = {}

    def watch(net, event):
        seen[event] = (_rates(net, PRIO_BULK), _rates(net, PRIO_HIGH))

    # t=1.0: pushes 1 and 2 have left (0.4 s, 0.75 s), push 3 leaves at 1.05 s.
    net, env = _duplex_hub_run(dip_at=1.0, watch=watch)
    pulls, pushes = seen["dip"]
    assert list(pulls.values()) == [400.0 / 8] * 8
    assert list(pushes.values()) == [400.0 / 6] * 6
    pulls, pushes = seen["clear"]
    assert list(pulls.values()) == [800.0 / 8] * 8
    assert list(pushes.values()) == [800.0 / len(pushes)] * len(pushes)
    ref_net, ref_env = _duplex_hub_run(network=PerEventNetwork, dip_at=1.0)
    assert _records_key(net) == _records_key(ref_net)
    assert repr(env.now) == repr(ref_env.now)


def test_recorder_mirror_receives_netsim_counters():
    """Every ``netsim.*`` key the recorder holds equals ``stats``, each one
    the network bumped is there, and each arrived at its first bump: among
    the recorder's own counters, not after them."""
    env = Environment()
    net = Network(env, _star())
    rec = Recorder()
    net.recorder = rec

    def run():
        net.transfer(2, 0, 100.0, prio=PRIO_BULK)
        yield env.timeout(0.5)
        net.transfer(1, 0, 100.0, prio=PRIO_HIGH)  # preempts the BULK flow
        yield env.timeout(10.0)
        rec.incr("osp.deadline_miss")
        net.transfer(1, 0, 100.0, job="a")
        net.transfer(2, 0, 100.0, job="b")

    env.process(run())
    env.run()
    mirrored = {k: v for k, v in rec.counters.items() if k.startswith("netsim.")}
    assert mirrored == {k: v for k, v in net.stats.items() if k in mirrored}
    assert all(v == 0 for k, v in net.stats.items() if k not in mirrored)
    assert net.stats["netsim.prio_preemptions"] == 1
    assert list(rec.counters) == [
        "netsim.rerates", "netsim.rerate_skipped", "netsim.fairshare_calls",
        "netsim.prio_preemptions", "netsim.prio_bytes.high",
        "netsim.prio_bytes.bulk", "osp.deadline_miss",
        "netsim.prio_bytes.normal", "netsim.job_bytes.a",
        "netsim.job_contended_bytes.a", "netsim.job_contended_bytes.b",
        "netsim.job_bytes.b",
    ]  # fmt: skip


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


#: Fault changes on ``down:0`` in turn, as ``(method, extra_loss)``: a burst,
#: a second one stacked on it, then both cleared.
_BURSTS = (("apply_fault", 0.5), ("apply_fault", 0.2), ("clear_fault", 0.5),
           ("clear_fault", 0.2))  # fmt: skip


def _lone_transfers(net, env, pairs):
    """Each of ``pairs`` moved alone from ``env.now``: its flow's effective
    bytes and its duration."""
    seen = []
    net.flow_hooks.append(lambda flow: seen.append(flow.effective))
    out = []
    for src, dst in pairs:
        done = net.transfer(src, dst, 100.0)
        env.run()
        out.append((seen[-1], done.value.duration))
    net.flow_hooks.pop()
    return out


def _fresh_transfers(at, changes, pairs):
    """The same transfers on a fresh network whose ``down:0`` went through
    ``changes``, the first starting at ``at``."""
    env = Environment()
    topo = _star(n=3, bandwidth=100.0, latency=1e-3)
    (link,) = [l for l in topo.links if l.name == "down:0"]
    for method, loss in changes:
        getattr(link, method)(extra_loss=loss)
    net = Network(env, topo)
    if at > 0:
        env.run(until=at)
    return _lone_transfers(net, env, pairs)


@pytest.mark.parametrize("refresh", [False, True], ids=["no-refresh", "refresh"])
def test_route_cache_follows_every_fault_change(refresh):
    """After each burst applied or cleared, with or without a capacity
    refresh, a flow's effective bytes and duration are bit for bit a fresh
    network's in the same link state: a cached latency and loss never
    outlive a fault change."""
    env = Environment()
    topo = _star(n=3, bandwidth=100.0, latency=1e-3)
    (link,) = [l for l in topo.links if l.name == "down:0"]
    net = Network(env, topo)
    pairs = [(1, 0), (2, 0), (1, 2)]
    got = [_lone_transfers(net, env, pairs)]
    starts = [0.0]
    for method, loss in _BURSTS:
        getattr(link, method)(extra_loss=loss)
        if refresh:
            net.refresh_capacities()
        starts.append(env.now)
        got.append(_lone_transfers(net, env, pairs))
    # The fresh networks are built once this run is over: nothing done to
    # them can reach its route cache.
    want = [
        _fresh_transfers(at, _BURSTS[:k], pairs) for k, at in enumerate(starts)
    ]
    assert got == want
    # the bursts inflated the flows into node 0, and only those
    assert [row[0][0] for row in got] == [100.0, 150.0, 160.0, 120.0, 100.0]
    assert {row[2][0] for row in got} == {100.0}
