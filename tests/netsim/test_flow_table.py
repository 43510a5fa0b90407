"""The ``Flow`` objects are the network's only record of progress and rate.

Three pins on that single representation: every float the netsim surface
hands out is a builtin ``float`` (``stream_digest`` hashes ``repr``, so an
``np.float64`` with the same value is a different digest); the scheduler's
work counters on a fixed run are what they were before the array plane was
removed (a host-time change must not move them); and a flow moves exactly
``rate·dt`` bytes from its anchor, which the ledger shows on every link of
its route mid-flight, and credits its exact effective bytes to each of them
when it finishes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.osp import OSP
from repro.harness.cotenancy import osp_with_background, shared_fabric_runner
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.netsim import LinkSpec, Network, StarTopology
from repro.simcore import Environment


def _osp_trainer(epochs=3):
    cfg = WorkloadConfig(
        card_name="resnet50-cifar10",
        n_workers=8,
        n_epochs=epochs,
        iterations_per_epoch=4,
        sigma=0.1,
        seed=11,
    )
    return timing_trainer(cfg, OSP())


def _watch_flow_types(net, seen):
    """Record the type of every active flow's remaining/rate after each drain."""
    drain = net._drain

    def watched():
        drain()
        for flow in net._active.values():
            seen.add(type(flow.remaining))
            seen.add(type(flow.rate))

    net._drain = watched


def _assert_surface_is_builtin_float(net, env, seen):
    assert seen == {float}
    for rec in net.records:
        assert type(rec.start_time) is float and type(rec.end_time) is float
    assert type(env.now) is float
    byte_stats = {
        k: v
        for k, v in net.stats.items()
        if k.startswith(("netsim.prio_bytes.", "netsim.job_bytes."))
    }
    assert any(v > 0 for v in byte_stats.values())
    for name, value in byte_stats.items():
        assert type(value) is float, name


def test_osp_run_hands_out_builtin_floats_only():
    trainer = _osp_trainer(epochs=2)
    seen = set()
    _watch_flow_types(trainer.network, seen)
    result = trainer.run()
    assert type(result.wall_time) is float
    _assert_surface_is_builtin_float(trainer.network, trainer.env, seen)


def test_cotenant_pair_hands_out_builtin_floats_only():
    runner = shared_fabric_runner(
        osp_with_background(n_workers=3, n_epochs=1, iterations_per_epoch=3)
    )
    seen = set()
    _watch_flow_types(runner.network, seen)
    result = runner.run()
    assert type(result.wall_time) is float
    assert any(k.startswith("netsim.job_bytes.") for k in runner.network.stats)
    _assert_surface_is_builtin_float(runner.network, runner.env, seen)


def test_scheduler_work_counts_are_those_of_the_array_plane():
    """Host time only: the counts of the run are the parent commit's."""
    trainer = _osp_trainer()
    trainer.run()
    net = trainer.network
    assert net.stats["netsim.rerates"] == 236
    # 13 of the parent's 203 solver calls had nothing to solve (departures
    # that emptied a link in one instant): they count as skipped since PR 24.
    assert net.stats["netsim.rerate_skipped"] == 5 + 13
    assert net.stats["netsim.fairshare_calls"] == 203 - 13
    assert net.stats["netsim.prio_preemptions"] == 24
    assert len(net.records) == 288


@st.composite
def _star_flows(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    node = st.integers(min_value=0, max_value=n_nodes - 1)
    flows = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        src = draw(node)
        dst = draw(node.filter(lambda d: d != src))
        flows.append((src, dst, draw(st.floats(min_value=1.0, max_value=1e4))))
    dt = draw(st.floats(min_value=1e-6, max_value=5.0))
    return n_nodes, flows, dt


@given(_star_flows())
@settings(max_examples=80, deadline=None)
def test_a_flow_moves_rate_times_dt_and_credits_every_link_of_its_route(case):
    n_nodes, flows, dt = case
    bandwidth = 1000.0
    env = Environment()
    topo = StarTopology(
        n_nodes, default_spec=LinkSpec(bandwidth=bandwidth, latency=0.0)
    )
    net = Network(env, topo)
    for src, dst, size in flows:
        net.transfer(src, dst, 10.0 * bandwidth + size)  # outlasts any drawn dt
    env.run(until=dt)  # the t=0 rerate anchors every flow; no timer fires by dt
    active = list(net._active.values())
    assert len(active) == len(flows)
    ledger = net.ledger()
    moved = {l.name: 0.0 for l in topo.links}
    for flow in active:
        assert type(flow.remaining) is float
        assert flow.remaining == max(0.0, flow.effective - flow.rate * dt)
        assert ledger.remaining[flow.fid] == flow.remaining
        for link in flow.route:
            moved[link.name] += flow.effective - flow.remaining
    assert all(l.bytes_carried == 0.0 for l in topo.links)  # nothing finished
    for name, nbytes in moved.items():
        assert ledger.links[name] == pytest.approx(nbytes, rel=1e-12, abs=1e-9)

    env.run()
    sizes = {flow.fid: flow.effective for flow in active}
    credited = {l.name: 0.0 for l in topo.links}
    for record in net.records:  # in the order the flows finished
        for link in topo.route(record.src, record.dst):
            credited[link.name] += sizes[record.fid]
    assert {l.name: l.bytes_carried for l in topo.links} == credited
