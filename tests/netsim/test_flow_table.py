"""The ``Flow`` objects are the network's only record of ``remaining``/``rate``.

Three pins on that single representation: every float the netsim surface
hands out is a builtin ``float`` (``stream_digest`` hashes ``repr``, so an
``np.float64`` with the same value is a different digest); the scheduler's
work counters on a fixed run are what they were before the array plane was
removed (a host-time change must not move them); and one ``_drain`` moves
exactly ``rate·dt`` bytes per flow onto every link of its route.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.osp import OSP
from repro.harness.cotenancy import osp_with_background, shared_fabric_runner
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.netsim import LinkSpec, Network, StarTopology
from repro.netsim.network import _BYTE_EPS
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
def _star_drains(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    node = st.integers(min_value=0, max_value=n_nodes - 1)
    flows = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        src = draw(node)
        dst = draw(node.filter(lambda d: d != src))
        # fraction of rate·dt the flow still holds: < 1 exercises the clamp
        flows.append((src, dst, draw(st.floats(min_value=0.0, max_value=3.0))))
    dt = draw(st.floats(min_value=1e-6, max_value=5.0))
    return n_nodes, flows, dt


@given(_star_drains())
@settings(max_examples=80, deadline=None)
def test_drain_moves_rate_times_dt_on_every_link_of_the_route(case):
    n_nodes, flows, dt = case
    bandwidth = 1000.0
    env = Environment()
    topo = StarTopology(
        n_nodes, default_spec=LinkSpec(bandwidth=bandwidth, latency=0.0)
    )
    net = Network(env, topo)
    for src, dst, _frac in flows:
        net.transfer(src, dst, 10.0 * bandwidth)  # outlasts any drawn dt
    env.run(until=dt)  # the t=0 rerate assigns rates; no timer fires by dt
    active = list(net._active.values())
    assert len(active) == len(flows)
    for flow, (_src, _dst, frac) in zip(active, flows):
        flow.remaining = frac * flow.rate * dt
    before = [(f.remaining, f.rate) for f in active]
    carried = sum(l.bytes_carried for l in topo.links)

    net._drain()

    expected = 0.0
    for flow, (rem, rate) in zip(active, before):
        assert type(flow.remaining) is float
        assert flow.remaining == max(0.0, rem - rate * dt)
        expected += rate * dt * len(flow.route)
    delta = sum(l.bytes_carried for l in topo.links) - carried
    tol = 1e-3 + _BYTE_EPS * 2 * len(flows) + 1e-9 * max(abs(delta), expected)
    assert abs(delta - expected) <= tol
