"""Placement: a job's hosts, flow tag and default class on a shared Network,
and the drain's per-job attribution."""

import pytest

from repro.check import run_checked
from repro.cluster import Placement
from repro.core.osp import OSP
from repro.faults.schedule import FaultSchedule, LinkFlap
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.netsim.links import LinkSpec
from repro.netsim.network import Network
from repro.netsim.prio import PRIO_BULK, PRIO_HIGH
from repro.netsim.topology import StarTopology
from repro.simcore.environment import Environment
from repro.sync import BSP
from tests.netsim.reference import route_latency


def _fabric(n=4, bw=100.0, **topology):
    env = Environment()
    net = Network(env, StarTopology(n, default_spec=LinkSpec(bandwidth=bw), **topology))
    return env, net


def _ctx(net, placement, n_workers=1, **cfg):
    """The context of an unstarted ``n_workers`` + PS job on ``net``."""
    workload = WorkloadConfig(
        "resnet50-cifar10", n_workers=n_workers, n_epochs=1, iterations_per_epoch=1, **cfg
    )
    return timing_trainer(workload, BSP(), network=net, placement=placement).ctx


def test_placement_maps_local_nodes_to_pool_hosts():
    env, net = _fabric(4)
    ctx = _ctx(net, Placement("job", [2, 3]))
    env.run(until=ctx.transfer_to_ps(0, 100.0))  # worker 0 (node 0) -> PS (node 1)
    env.run(until=ctx.transfer_from_ps(0, 100.0))
    assert [(r.src, r.dst) for r in net.records] == [(2, 3), (3, 2)]


def test_trainer_rejects_a_placement_of_the_wrong_size():
    _env, net = _fabric(4)
    with pytest.raises(ValueError, match="placement has 3 hosts for 2 nodes"):
        _ctx(net, Placement("job", [0, 1, 2]))


def test_flows_tagged_with_job_for_byte_accounting():
    env, net = _fabric(4)
    a = _ctx(net, Placement("a", [0, 1]))
    b = _ctx(net, Placement("b", [2, 3]))
    env.run(until=env.all_of([a.transfer_from_ps(0, 300.0), b.transfer_from_ps(0, 500.0)]))
    assert net.job_bytes("a") == pytest.approx(300.0)
    assert net.job_bytes("b") == pytest.approx(500.0)
    assert net.stats["netsim.job_bytes.a"] == pytest.approx(300.0)
    assert {(r.job, r.src) for r in net.records} == {("a", 1), ("b", 3)}


def test_untagged_transfers_cost_nothing_extra():
    env, net = _fabric(2)
    env.run(until=net.transfer(0, 1, 100.0))
    assert not any(k.startswith("netsim.job_") for k in net.stats)
    assert net.job_overlap == {}
    # a trainer that owns its network sends untagged, on the identity
    assert timing_trainer(
        WorkloadConfig("resnet50-cifar10", n_workers=2), BSP()
    ).placement == Placement(None, (0, 1, 2))


def test_default_prio_demotes_only_default_class():
    env, net = _fabric(2)
    ctx = _ctx(net, Placement("bg", [0, 1], default_prio=PRIO_BULK))
    d1 = ctx.transfer_from_ps(0, 10.0)  # NORMAL -> demoted
    d2 = ctx.transfer_from_ps(0, 10.0, prio=PRIO_HIGH)  # explicit class kept
    env.run(until=env.all_of([d1, d2]))
    assert net.stats["netsim.prio_bytes.bulk"] == pytest.approx(10.0)
    assert net.stats["netsim.prio_bytes.high"] == pytest.approx(10.0)
    assert net.stats["netsim.prio_bytes.normal"] == 0.0


def test_per_job_records_are_the_job_tagged_slice():
    from repro.obs.overlap import overlap_report_from_run

    env, net = _fabric(4)
    a = _ctx(net, Placement("a", [0, 1]))
    b = _ctx(net, Placement("b", [2, 3]))
    env.run(until=env.all_of([a.transfer_from_ps(0, 100.0), b.transfer_from_ps(0, 200.0)]))
    assert [r.size for r in net.records if r.job == "a"] == [100.0]
    assert [r.size for r in net.records if r.job == "b"] == [200.0]
    assert len(net.records) == 2
    # the overlap report of each tenant reads its own slice only
    mine, alone = (
        overlap_report_from_run(r["x"].result)
        for r in _traced_runs({"x": BSP, "y": BSP}, {"x": BSP})
    )
    assert mine.n_flows == alone.n_flows > 0
    assert mine.total_sync_bytes == alone.total_sync_bytes


def _traced_runs(*tenancies):
    """One traced ``MultiJobRunner`` result per ``{name: sync factory}``."""
    from repro.multijob import JobSpec, MultiJobRunner

    cfg = WorkloadConfig("vgg16-cifar10", n_workers=2, n_epochs=1, iterations_per_epoch=2)
    results = []
    for jobs in tenancies:
        runner = MultiJobRunner(
            [JobSpec(name=n, workload=cfg, sync_factory=f) for n, f in jobs.items()]
        )
        runner.enable_tracing()
        results.append(runner.run())
    return results


def test_cotenant_report_reads_its_own_spans():
    """A shared tracer holds every tenant's spans; BSP ``x``'s BST
    decomposition must not list ASP ``y``'s push / pull."""
    from repro.obs.overlap import overlap_report_from_run
    from repro.sync import ASP

    mine, alone = (
        overlap_report_from_run(r["x"].result)
        for r in _traced_runs({"x": BSP, "y": ASP}, {"x": BSP})
    )
    assert set(mine.phase_time) == set(alone.phase_time)
    assert "push" not in mine.phase_time


def test_contended_bytes_are_the_bytes_moved_beside_another_job():
    """``a`` sends 1,000 B from t=0 and ``b`` 200 B from t=5 on disjoint
    hosts of a 100 B/s star: both run at line rate, so for 2 s each moves
    200 B while the other is in flight. Contention is counted by the bytes
    moved in that window, not by who was alone when a flow started."""
    env, net = _fabric(4, bw=100.0)
    a = _ctx(net, Placement("a", [0, 1]))
    b = _ctx(net, Placement("b", [2, 3]))

    def later():
        yield env.timeout(5.0)
        yield b.transfer_from_ps(0, 200.0)

    env.run(until=env.all_of([a.transfer_from_ps(0, 1000.0), env.process(later())]))
    assert net.contended_bytes("a") == pytest.approx(200.0)
    assert net.contended_bytes("b") == pytest.approx(200.0)
    for job in ("a", "b"):
        contended = net.contended_bytes(job)
        solo = net.job_bytes(job) - contended
        assert contended + solo == net.job_bytes(job)
    latency = route_latency(net.topology, 1, 0)
    both = frozenset({"a", "b"})
    assert net.job_overlap[both] == pytest.approx(2.0, abs=latency)
    assert net.job_overlap[frozenset({"a"})] == pytest.approx(8.0, abs=latency)
    assert frozenset({"b"}) not in net.job_overlap


def test_solo_after_the_other_job_drains():
    env, net = _fabric(4)
    a = _ctx(net, Placement("a", [0, 1]))
    env.run(until=a.transfer_from_ps(0, 100.0))
    env.run(until=a.transfer_from_ps(0, 100.0))
    assert net.job_bytes("a") == pytest.approx(200.0)
    assert net.contended_bytes("a") == 0.0
    assert list(net.job_overlap) == [frozenset({"a"})]
    assert net.job_overlap[frozenset({"a"})] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "nodes, hit",
    [((1,), {"up:5", "down:5"}), (None, {"up:4", "up:5", "down:4", "down:5"})],
    ids=["node-1", "all"],
)
def test_node_targeted_fault_degrades_only_the_placed_hosts_links(nodes, hit):
    env, net = _fabric(6)
    faults = FaultSchedule((LinkFlap(start=1.0, duration=2.0, nodes=nodes),))
    _ctx(net, Placement("j", [4, 5]), faults=faults)
    env.run(until=2.0)
    assert {l.name for l in net.topology.links if l.bandwidth_factor != 1.0} == hit
    env.run(until=4.0)
    assert all(l.bandwidth_factor == 1.0 for l in net.topology.links)


def test_placement_keeps_each_hosts_rack():
    env, net = _fabric(6, n_racks=2)
    routes = []
    net.flow_hooks.append(lambda flow: routes.append(tuple(l.name for l in flow.route)))
    # workers 0, 1 on hosts 4 (rack 0) and 1 (rack 1); the PS on host 2 (rack 0)
    ctx = _ctx(net, Placement("j", [4, 1, 2]), n_workers=2)
    env.run(until=env.all_of([ctx.transfer_to_ps(0, 10.0), ctx.transfer_to_ps(1, 10.0)]))
    assert routes == [("up:4", "down:2"), ("up:1", "up:tor1", "down:tor0", "down:2")]


def test_worker_probe_reads_the_placed_uplink():
    cfg = WorkloadConfig("resnet50-cifar10", n_workers=2, n_epochs=1, iterations_per_epoch=2)
    env, net = _fabric(6, bw=1e9)
    trainer = timing_trainer(cfg, BSP(), network=net, placement=Placement("j", [3, 4, 5]))
    sampler = trainer.enable_sampling()
    trainer.run()
    for w in range(2):
        assert max(sampler.series[f"osp.worker.{w}.effective_bandwidth"].values) > 0


def test_monitors_check_as_often_through_an_identity_placement():
    """Monitors subscribe to the hook lists of the network the trainer
    holds, so a tagged identity placement on a fabric the trainer does not
    own is checked at every drain, exactly as often as a direct trainer."""
    cfg = WorkloadConfig(
        card_name="resnet50-cifar10", n_workers=4, n_epochs=3,
        iterations_per_epoch=4, sigma=0.1, seed=7,
    )  # fmt: skip
    direct = timing_trainer(cfg, OSP())
    env = Environment()
    n = direct.spec.n_nodes
    net = Network(env, StarTopology(n, default_spec=direct.spec.link))
    placed = timing_trainer(cfg, OSP(), network=net, placement=Placement("solo", range(n)))
    reports = []
    for trainer in (direct, placed):
        trainer.enable_tracing()
        _result, report = run_checked(trainer, strict=True)
        reports.append(report)
    assert reports[1].monitors == reports[0].monitors
    assert reports[1].skipped == reports[0].skipped
    for name in ("net.conservation", "osp.ics_inflight"):  # one check per drain
        assert reports[1].monitors[name][0] > 100
