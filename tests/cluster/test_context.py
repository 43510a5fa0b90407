"""Unit tests for TrainerContext communication primitives."""

import pytest

from repro.cluster import ClusterSpec, DistributedTrainer, TimingEngine, TrainingPlan
from repro.cluster.context import TrainerContext
from repro.hardware import NoJitter
from repro.metrics.recorder import Recorder
from repro.netsim import LinkSpec, Network, StarTopology
from repro.nn.models import get_card
from repro.simcore import Environment
from repro.sync import BSP


def make_ctx(n_workers=2, ps_agg_bandwidth=None, bandwidth=100.0):
    env = Environment()
    spec = ClusterSpec(
        n_workers=n_workers,
        jitter=NoJitter(),
        link=LinkSpec(bandwidth=bandwidth, latency=0.0),
        ps_agg_bandwidth=ps_agg_bandwidth,
    )
    network = Network(env, StarTopology(spec.n_nodes, default_spec=spec.link))
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=4)
    ps = engine.make_ps(TrainingPlan(n_epochs=1, iterations_per_epoch=2))
    ctx = TrainerContext(
        env=env,
        network=network,
        spec=spec,
        plan=TrainingPlan(n_epochs=1, iterations_per_epoch=2),
        engine=engine,
        ps=ps,
        recorder=Recorder(),
        iterations_per_epoch=2,
    )
    return env, ctx


def test_transfer_to_ps_without_agg_is_pure_network_time():
    env, ctx = make_ctx(ps_agg_bandwidth=None)
    done = ctx.transfer_to_ps(0, 100.0)
    env.run()
    assert env.now == pytest.approx(1.0)  # 100 bytes at 100 B/s
    assert done.triggered


def test_transfer_to_ps_with_agg_adds_service_time():
    env, ctx = make_ctx(ps_agg_bandwidth=50.0)
    done = ctx.transfer_to_ps(0, 100.0)
    env.run()
    # 1s network + 2s aggregation at 50 B/s
    assert env.now == pytest.approx(3.0)
    assert done.triggered


def test_agg_service_serialises_concurrent_pushes():
    env, ctx = make_ctx(n_workers=2, ps_agg_bandwidth=100.0)
    d1 = ctx.transfer_to_ps(0, 100.0)
    d2 = ctx.transfer_to_ps(1, 100.0)

    times = {}

    def waiter(env, ev, key):
        yield ev
        times[key] = env.now

    env.process(waiter(env, d1, "a"))
    env.process(waiter(env, d2, "b"))
    env.run()
    # Both network transfers share the PS downlink (2s each); aggregation
    # then serialises: first done at 3s, second at 4s.
    assert sorted(times.values()) == [pytest.approx(3.0), pytest.approx(4.0)]


def test_zero_byte_push_skips_agg():
    env, ctx = make_ctx(ps_agg_bandwidth=1.0)
    ctx.transfer_to_ps(0, 0.0)
    env.run()
    assert env.now == pytest.approx(0.0)


def test_transfer_from_ps_no_agg_cost():
    env, ctx = make_ctx(ps_agg_bandwidth=10.0)
    ctx.transfer_from_ps(0, 100.0)
    env.run()
    assert env.now == pytest.approx(1.0)  # pulls pay no aggregation


def test_current_lr_tracks_plan_in_timing_mode():
    _env, ctx = make_ctx()
    assert ctx.current_lr == ctx.plan.lr


def test_barrier_factory_parties():
    _env, ctx = make_ctx(n_workers=2)
    assert ctx.quorum_barrier().parties == 2


def test_sync_switch_behaviour_changes_ps_version_cadence():
    """BSP bumps the PS version once per round; ASP once per worker push.
    Sync-Switch must show the cadence change at the boundary."""
    from repro.sync import SyncSwitch

    spec = ClusterSpec(n_workers=4, jitter=NoJitter())
    plan = TrainingPlan(n_epochs=2, iterations_per_epoch=3)
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=6)
    trainer = DistributedTrainer(spec, plan, engine, SyncSwitch(switch_epoch=1))
    trainer.run()
    # epoch 0 (BSP): 3 rounds -> 3 version bumps; epoch 1 (ASP): 4 workers
    # x 3 iterations -> 12 bumps.
    assert trainer.ps.version == 3 + 12
