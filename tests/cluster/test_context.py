"""Unit tests for TrainerContext communication primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, DistributedTrainer, TimingEngine, TrainingPlan
from repro.cluster.context import TrainerContext
from repro.hardware import NoJitter
from repro.metrics.recorder import Recorder
from repro.netsim import LinkSpec, Network, StarTopology
from repro.nn.models import get_card
from repro.simcore import Environment
from repro.sync import BSP
from tests.cluster.reference import ProcessAggregatorContext


def make_ctx(
    n_workers=2,
    ps_agg_bandwidth=None,
    bandwidth=100.0,
    latency=0.0,
    n_ps=1,
    colocated_ps=False,
    context=TrainerContext,
):
    env = Environment()
    spec = ClusterSpec(
        n_workers=n_workers,
        jitter=NoJitter(),
        link=LinkSpec(bandwidth=bandwidth, latency=latency),
        ps_agg_bandwidth=ps_agg_bandwidth,
        n_ps=n_ps,
        colocated_ps=colocated_ps,
    )
    network = Network(env, StarTopology(spec.n_nodes, default_spec=spec.link))
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=4)
    ps = engine.make_ps(TrainingPlan(n_epochs=1, iterations_per_epoch=2))
    ctx = context(
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


@pytest.mark.parametrize(
    "colocated_ps, saved",
    [
        # an ingest process's exit has no waiter, so it settles in place and
        # queues nothing: each push saves its bootstrap and grant entries
        (False, 2 + 2),
        # worker 0's push is loopback: its ingest process also paid a relay
        (True, 3 + 2),
    ],
)
def test_agg_spawns_no_process_and_saves_entries_per_push(
    monkeypatch, colocated_ps, saved
):
    def run(context):
        env, ctx = make_ctx(
            n_workers=2,
            ps_agg_bandwidth=100.0,
            latency=0.01,
            colocated_ps=colocated_ps,
            context=context,
        )
        ctx.transfer_to_ps(0, 100.0)
        ctx.transfer_to_ps(1, 100.0)
        env.run()
        return env._eid

    scheduled_by_reference = run(ProcessAggregatorContext)

    def no_process(self, generator):
        raise AssertionError("transfer_to_ps spawned a process")

    monkeypatch.setattr(Environment, "process", no_process)
    # the bootstrap and grant entries of each push's ingest process
    assert scheduled_by_reference - run(TrainerContext) == saved


@st.composite
def _push_plans(draw):
    """Pushes from a few workers into one or two PS (or one co-located PS),
    over links with or without latency: random sizes, zero-byte pushes, and
    start times drawn from a small grid so same-instant bursts are common."""
    n_workers = draw(st.integers(min_value=1, max_value=4))
    n_ps = draw(st.integers(min_value=1, max_value=2))
    colocated = n_ps == 1 and draw(st.booleans())
    latency = draw(st.sampled_from((0.0, 1e-3, 0.25)))
    agg_bw = draw(st.sampled_from((20.0, 100.0, 1e4)))
    size = st.sampled_from((0.0, 1.0, 50.0)) | st.floats(min_value=1e-3, max_value=500.0)
    start = st.sampled_from((0.0, 0.5, 1.0)) | st.floats(min_value=0.0, max_value=3.0)
    pushes = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_workers - 1),
                st.integers(min_value=0, max_value=n_ps - 1),
                size,
                start,
            ),
            min_size=1,
            max_size=12,
        )
    )
    return dict(
        n_workers=n_workers,
        n_ps=n_ps,
        colocated_ps=colocated,
        latency=latency,
        ps_agg_bandwidth=agg_bw,
    ), pushes


def _ingest_log(shape, pushes, context):
    """``(push, time, record)`` for every push's ``done``, in the order they
    pop (times by ``repr``: bit for bit)."""
    env, ctx = make_ctx(**shape, context=context)
    log = []

    def push(i, worker, ps_index, nbytes):
        done = ctx.transfer_to_ps(worker, nbytes, tag=i, ps_index=ps_index)
        done.callbacks.append(lambda ev: log.append((i, repr(env.now), ev.value)))

    for i, (worker, ps_index, nbytes, start) in enumerate(pushes):
        timer = env.timeout(start)
        timer.callbacks.append(lambda _ev, a=(i, worker, ps_index, nbytes): push(*a))
    env.run()
    assert len(log) == len(pushes)
    return log


@given(_push_plans())
@settings(max_examples=150, deadline=None)
def test_property_agg_fifo_matches_process_and_resource_reference(plan):
    """The callback FIFO ≡ one ingest Process per push on a one-unit
    Resource: every push's done pops at the same time with the same record,
    and the pushes complete in the same global order."""
    shape, pushes = plan
    assert _ingest_log(shape, pushes, TrainerContext) == _ingest_log(
        shape, pushes, ProcessAggregatorContext
    )


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
