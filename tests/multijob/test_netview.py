"""JobNetworkView: node mapping, flow tagging, accounting, fault surface."""

import pytest

from repro.check import run_checked
from repro.core.osp import OSP
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.multijob.netview import (
    FabricAccounting,
    JobNetworkView,
    MappedStarTopology,
)
from repro.netsim.links import LinkSpec
from repro.netsim.network import Network
from repro.netsim.prio import PRIO_BULK, PRIO_HIGH, PRIO_NORMAL
from repro.netsim.topology import StarTopology
from repro.simcore.environment import Environment


def _fabric(n=4, bw=100.0):
    env = Environment()
    net = Network(env, StarTopology(n, default_spec=LinkSpec(bandwidth=bw)))
    return env, net


def test_view_maps_local_nodes_to_pool_hosts():
    env, net = _fabric(4)
    view = JobNetworkView(net, "job", node_map=[2, 3])
    done = view.transfer(0, 1, 100.0)
    env.run(until=done)
    rec = done.value
    # flow actually crossed hosts 2 -> 3 on the shared fabric
    assert (rec.src, rec.dst) == (2, 3)


def test_view_rejects_out_of_placement_nodes():
    _env, net = _fabric(4)
    view = JobNetworkView(net, "job", node_map=[0, 1])
    with pytest.raises(ValueError, match="no local node"):
        view.transfer(0, 5, 10.0)


def test_flows_tagged_with_job_for_byte_accounting():
    env, net = _fabric(4)
    a = JobNetworkView(net, "a", node_map=[0, 1])
    b = JobNetworkView(net, "b", node_map=[2, 3])
    d1 = a.transfer(0, 1, 300.0)
    d2 = b.transfer(0, 1, 500.0)
    env.run(until=env.all_of([d1, d2]))
    assert net.job_bytes("a") == pytest.approx(300.0)
    assert net.job_bytes("b") == pytest.approx(500.0)
    assert a.job_bytes() == pytest.approx(300.0)
    assert net.stats["netsim.job_bytes.a"] == pytest.approx(300.0)


def test_untagged_transfers_cost_nothing_extra():
    env, net = _fabric(2)
    done = net.transfer(0, 1, 100.0)
    env.run(until=done)
    assert not any(k.startswith("netsim.job_bytes.") for k in net.stats)


def test_default_prio_demotes_only_default_class():
    env, net = _fabric(2)
    view = JobNetworkView(net, "bg", node_map=[0, 1], default_prio=PRIO_BULK)
    d1 = view.transfer(0, 1, 10.0)                  # NORMAL -> demoted
    d2 = view.transfer(0, 1, 10.0, prio=PRIO_HIGH)  # explicit class kept
    env.run(until=env.all_of([d1, d2]))
    assert net.stats.get("netsim.prio_bytes.bulk", 0) == pytest.approx(10.0)
    assert net.stats.get("netsim.prio_bytes.high", 0) == pytest.approx(10.0)
    assert net.stats.get("netsim.prio_bytes.normal", 0) == pytest.approx(0.0)


def test_view_keeps_per_job_records_shared_net_interleaves():
    env, net = _fabric(4)
    a = JobNetworkView(net, "a", node_map=[0, 1])
    b = JobNetworkView(net, "b", node_map=[2, 3])
    done = env.all_of([a.transfer(0, 1, 100.0), b.transfer(0, 1, 200.0)])
    env.run(until=done)
    assert [r.size for r in a.records] == [100.0]
    assert [r.size for r in b.records] == [200.0]
    assert len(net.records) == 2


def test_accounting_classifies_contended_vs_solo():
    env, net = _fabric(4)
    acct = FabricAccounting()
    a = JobNetworkView(net, "a", node_map=[0, 1], accounting=acct)
    b = JobNetworkView(net, "b", node_map=[2, 3], accounting=acct)
    # a starts alone -> solo; b starts while a is in flight -> contended
    d1 = a.transfer(0, 1, 1000.0)
    d2 = b.transfer(0, 1, 1000.0)
    env.run(until=env.all_of([d1, d2]))
    acct._advance(env.now)
    assert acct.solo_bytes["a"] == pytest.approx(1000.0)
    assert acct.contended_bytes["b"] == pytest.approx(1000.0)
    assert acct.pair_overlap[frozenset(("a", "b"))] > 0.0
    # disjoint placements at equal size drain together
    assert acct.active_seconds["a"] == pytest.approx(acct.active_seconds["b"])


def test_accounting_solo_after_other_job_drains():
    env, net = _fabric(4)
    acct = FabricAccounting()
    a = JobNetworkView(net, "a", node_map=[0, 1], accounting=acct)
    d1 = a.transfer(0, 1, 100.0)
    env.run(until=d1)
    d2 = a.transfer(0, 1, 100.0)
    env.run(until=d2)
    acct._advance(env.now)
    assert acct.solo_bytes["a"] == pytest.approx(200.0)
    assert acct.contended_seconds.get("a", 0.0) == 0.0


def test_mapped_topology_borrows_pool_links():
    _env, net = _fabric(6)
    view = JobNetworkView(net, "j", node_map=[4, 5])
    topo = view.topology
    assert isinstance(topo, MappedStarTopology)
    # a job-local window is still a StarTopology
    assert isinstance(topo, StarTopology)
    assert topo.n_nodes == 2
    # local node 0's links ARE pool host 4's link objects, not copies
    assert topo.uplinks[0] is net.topology.uplinks[4]
    assert topo.downlinks[1] is net.topology.downlinks[5]
    # inherited routing works on the borrowed links
    route = topo.route(0, 1)
    assert [l.name for l in route] == ["up:4", "down:5"]


def test_mapped_topology_keeps_each_hosts_rack():
    env = Environment()
    net = Network(env, StarTopology(6, n_racks=2))
    topo = JobNetworkView(net, "j", node_map=[4, 1, 2]).topology
    assert topo.rack_of == [0, 1, 0]
    assert topo.rack_uplinks is net.topology.rack_uplinks
    # local 0 -> 1 is pool host 4 (rack 0) -> host 1 (rack 1): via the core
    assert [l.name for l in topo.route(0, 1)] == [
        "up:4", "up:tor0", "down:tor1", "down:1"
    ]
    assert [l.name for l in topo.route(0, 2)] == ["up:4", "down:2"]


def test_view_delegates_fabric_wide_operations():
    env, net = _fabric(4)
    view = JobNetworkView(net, "j", node_map=[0, 1])
    assert view.stats is net.stats
    assert view.bulk_time(0, 1, 100.0) == net.bulk_time(0, 1, 100.0)
    view.refresh_capacities()  # must not raise (delegates to shared net)


def test_monitors_check_as_often_through_an_identity_view():
    """Monitors subscribe to hook lists the fabric owns and a view reaches
    through ``__getattr__``, so the per-drain monitors see every drain of
    the shared Network — not one check at ``finish``, which is all that
    patching ``_drain`` on the view instance ever gave them."""
    cfg = WorkloadConfig(
        card_name="resnet50-cifar10", n_workers=4, n_epochs=3,
        iterations_per_epoch=4, sigma=0.1, seed=7,
    )  # fmt: skip
    direct = timing_trainer(cfg, OSP())
    env = Environment()
    n = direct.spec.n_nodes
    net = Network(env, StarTopology(n, default_spec=direct.spec.link))
    view = JobNetworkView(net, "solo", range(n))
    viewed = timing_trainer(cfg, OSP(), env=env, network=view)
    reports = []
    for trainer in (direct, viewed):
        trainer.enable_tracing()
        _result, report = run_checked(trainer, strict=True)
        reports.append(report)
    assert reports[1].monitors == reports[0].monitors
    assert reports[1].skipped == reports[0].skipped
    for name in ("net.conservation", "osp.ics_inflight"):  # one check per drain
        assert reports[1].monitors[name][0] > 100
