"""Tests for multi-rack topologies and cross-rack training."""

import pytest

from repro.cluster import ClusterSpec, DistributedTrainer, TimingEngine, TrainingPlan
from repro.hardware import NoJitter
from repro.netsim import LinkSpec, StarTopology
from repro.nn.models import get_card
from repro.sync import BSP
from repro.core import OSP
from repro.faults import FaultSchedule, LinkFlap


def test_multirack_validation():
    with pytest.raises(ValueError):
        StarTopology(4, n_racks=0)
    with pytest.raises(ValueError):
        StarTopology(1, n_racks=2)
    with pytest.raises(ValueError):
        StarTopology(4, n_racks=2, oversubscription=0.5)


def test_same_rack_route_avoids_core():
    topo = StarTopology(9, n_racks=2)
    # hosts 0 and 2 both sit in rack 0
    names = [l.name for l in topo.route(0, 2)]
    assert names == ["up:0", "down:2"]


def test_cross_rack_route_crosses_core():
    topo = StarTopology(9, n_racks=2)
    # host 0 (rack 0) -> host 1 (rack 1)
    names = [l.name for l in topo.route(0, 1)]
    assert names == ["up:0", "up:tor0", "down:tor1", "down:1"]


def test_core_links_are_oversubscribed():
    spec = LinkSpec(bandwidth=100.0)
    topo = StarTopology(8, default_spec=spec, n_racks=2, oversubscription=4.0)
    core_links = {l.name: l for l in topo.links if "tor" in l.name}
    # 4 hosts per rack, oversub 4 -> core uplink = 100 * 4 / 4 = 100
    assert core_links["up:tor0"].bandwidth == pytest.approx(100.0)


def run_cross_rack(sync, oversubscription, n_workers=8, ipe=4):
    spec = ClusterSpec(n_workers=n_workers, jitter=NoJitter())
    topo = StarTopology(
        spec.n_nodes, default_spec=spec.link, n_racks=2,
        oversubscription=oversubscription,
    )
    plan = TrainingPlan(n_epochs=1, iterations_per_epoch=ipe)
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=ipe)
    return DistributedTrainer(spec, plan, engine, sync, topology=topo).run()


def test_cross_rack_training_runs():
    res = run_cross_rack(BSP(), oversubscription=4.0)
    assert res.recorder.total_iterations == 32


def test_oversubscription_slows_bsp():
    """The PS sits in rack 0; rack-1 workers cross the oversubscribed core,
    so once the core's fair share drops below the PS-link share (at 9 nodes
    that crossover is oversubscription ≈ 8) BSP's sync time rises."""
    mild = run_cross_rack(BSP(), oversubscription=1.0)
    harsh = run_cross_rack(BSP(), oversubscription=32.0)
    assert harsh.mean_bst > 1.5 * mild.mean_bst


def test_osp_still_beats_bsp_across_racks():
    epochs, ipe = 10, 6
    def run(sync):
        spec = ClusterSpec(n_workers=8, jitter=NoJitter())
        topo = StarTopology(
            spec.n_nodes, default_spec=spec.link, n_racks=2, oversubscription=4.0
        )
        plan = TrainingPlan(n_epochs=epochs, iterations_per_epoch=ipe)
        engine = TimingEngine(
            get_card("resnet50-cifar10"),
            spec,
            total_iterations=epochs * ipe,
            tau=epochs * ipe / 6,
        )
        return DistributedTrainer(spec, plan, engine, sync, topology=topo).run()

    assert run(OSP()).throughput > 1.2 * run(BSP()).throughput


def test_rack_links_follow_the_host_links():
    spec = LinkSpec(bandwidth=100.0)
    topo = StarTopology(5, default_spec=spec, n_racks=2, oversubscription=4.0)
    assert [l.name for l in topo.links] == [
        "up:0", "up:1", "up:2", "up:3", "up:4",
        "down:0", "down:1", "down:2", "down:3", "down:4",
        "up:tor0", "up:tor1", "down:tor0", "down:tor1",
    ]
    assert topo.rack_of == [0, 1, 0, 1, 0]
    # rack 0 holds hosts 0, 2, 4 and rack 1 hosts 1, 3
    assert [l.bandwidth for l in topo.links[10:]] == [75.0, 50.0, 75.0, 50.0]


@pytest.mark.parametrize("node", [0, 3])
def test_node_targeted_flap_on_two_racks_degrades_only_that_node(node):
    """A ``LinkFlap`` on node *k* of a two-rack fabric drops exactly
    ``up:k`` and ``down:k`` for its window: no other host's links and
    neither rack link, even though rack traffic crosses the core."""
    spec = ClusterSpec(
        n_workers=4,
        jitter=NoJitter(),
        faults=FaultSchedule((LinkFlap(start=0.05, duration=0.1, nodes=(node,)),)),
    )
    topo = StarTopology(spec.n_nodes, default_spec=spec.link, n_racks=2)
    plan = TrainingPlan(n_epochs=1, iterations_per_epoch=4)
    engine = TimingEngine(get_card("resnet50-cifar10"), spec, total_iterations=4)
    trainer = DistributedTrainer(spec, plan, engine, BSP(), topology=topo)
    seen = {}

    def probe():
        yield trainer.env.timeout(0.1)
        seen.update({l.name: l.bandwidth_factor for l in topo.links})

    trainer.env.process(probe())
    res = trainer.run()
    assert res.recorder.counter("faults.link_flap") == 1
    assert {name for name, f in seen.items() if f != 1.0} == {
        f"up:{node}", f"down:{node}"
    }
    assert all(l.bandwidth_factor == 1.0 for l in topo.links)
