"""Runtime invariant monitors: pass on healthy runs, catch injected bugs."""

import numpy as np
import pytest

from repro.check import (
    InvariantChecker,
    InvariantViolation,
    NetworkConservationMonitor,
    QuorumConsistencyMonitor,
    run_checked,
)
from repro.core.gib import GIB
from repro.core.osp import OSP
from repro.faults import BandwidthDip, FaultSchedule, WorkerJoin, WorkerLeave
from repro.harness.workloads import (
    WorkloadConfig,
    make_numeric_dataset,
    numeric_trainer,
    timing_trainer,
)
from repro.sync import BSP, DSSP, SSP


def _cfg(workers=3, epochs=2, ipe=4, seed=7):
    return WorkloadConfig(
        card_name="resnet50-cifar10",
        n_workers=workers,
        n_epochs=epochs,
        iterations_per_epoch=ipe,
        sigma=0.1,
        seed=seed,
    )


def _numeric(sync, cfg=None, **kwargs):
    cfg = cfg or _cfg()
    data = make_numeric_dataset(cfg.card, n_samples=240, seed=cfg.seed)
    return numeric_trainer(cfg, sync, data=data, **kwargs)


def test_all_monitors_pass_on_numeric_osp():
    result, report = run_checked(_numeric(OSP()))
    assert report.ok
    for name in ("net.conservation", "ps.ledger", "osp.gib"):
        checks, violations = report.monitors[name]
        assert checks > 0, name
        assert violations == 0, name
    assert "sync.staleness" in report.skipped
    assert result.recorder.counter("check.events_checked") == report.total_checks
    assert result.recorder.counter("check.violation") == 0


def test_monitors_green_across_bandwidth_dip_window():
    """The dip drives ``refresh_capacities`` mid-flow: conservation and the
    ICS in-flight ledger must hold through both capacity changes."""
    cfg = WorkloadConfig(
        card_name="vgg16-cifar10",
        n_workers=4,
        n_epochs=3,
        iterations_per_epoch=6,
        sigma=0.1,
        seed=7,
        faults=FaultSchedule(
            [BandwidthDip(start=5.0, duration=20.0, factor=0.4, nodes=(1,))]
        ),
    )
    trainer = timing_trainer(cfg, OSP())
    trainer.enable_tracing()
    _result, report = run_checked(trainer)
    assert report.ok, report.render()
    for name in ("net.conservation", "osp.ics_inflight"):
        checks, violations = report.monitors[name]
        assert checks > 0, name
        assert violations == 0, name
    # The dip must actually have hit the network for this to be meaningful.
    assert trainer.recorder.counter("faults.bandwidth_dip") > 0
    assert trainer.network.stats["netsim.rerates"] > 0


def test_staleness_monitor_checks_ssp_and_dssp():
    for sync in (SSP(staleness=2), DSSP()):
        _result, report = run_checked(timing_trainer(_cfg(), sync))
        assert report.ok
        checks, violations = report.monitors["sync.staleness"]
        assert checks > 0
        assert violations == 0


def test_inapplicable_monitors_are_skipped_not_failed():
    _result, report = run_checked(timing_trainer(_cfg(), BSP()))
    assert report.ok
    assert set(report.skipped) == {
        "osp.gib",
        "sync.staleness",
        "elastic.quorum",  # static membership: nothing to cross-check
        "osp.ics_inflight",  # untraced run: no gauge to cross-check
    }
    assert report.monitors["net.conservation"][0] > 0


def test_injected_gib_coverage_hole_is_caught():
    """A staged GIB that silently drops a layer must fail osp.gib."""
    trainer = timing_trainer(_cfg(), OSP())
    sync = trainer.sync_model

    def corrupt():
        sync._pending_gib = GIB.all_unimportant(sync.staged_gib.layers[:-1])

    sync.gib_staged_hooks.append(corrupt)  # subscribed first: the monitor sees the damage
    checker = InvariantChecker(trainer, strict=False)
    result = trainer.run()
    report = checker.finish()
    assert not report.ok
    assert all(v.monitor == "osp.gib" for v in report.violations)
    assert any("missing" in str(v) for v in report.violations)
    assert result.recorder.counter("check.violation") == len(report.violations)


def test_strict_mode_raises_on_double_deposit():
    trainer = _numeric(OSP())
    InvariantChecker(trainer, strict=True)
    grads = {n: np.zeros_like(a) for n, a in trainer.ps.snapshot().items()}
    trainer.ps.accumulate("b0", 0, grads)
    with pytest.raises(InvariantViolation, match="deposited twice"):
        trainer.ps.accumulate("b0", 0, grads)


def test_network_tampering_detected_at_finish():
    trainer = timing_trainer(_cfg(), BSP())
    checker = InvariantChecker(
        trainer, monitors=[NetworkConservationMonitor()], strict=False
    )
    trainer.run()
    trainer.network.topology.links[0].bytes_carried += 12345.0
    report = checker.finish()
    assert not report.ok
    assert report.violations[0].monitor == "net.conservation"


def test_conservation_monitor_tracks_in_flight_flows_only():
    """Finished flows fold into running totals: cost follows the active set."""
    trainer = timing_trainer(_cfg(workers=8, epochs=3), OSP())
    monitor = NetworkConservationMonitor()
    checker = InvariantChecker(trainer, monitors=[monitor], strict=True)
    net = trainer.network
    peak = {"tracked": 0, "active": 0}

    def sampled(flow):
        peak["tracked"] = max(peak["tracked"], len(monitor._flows))
        peak["active"] = max(peak["active"], len(net.active_flows))

    net.flow_hooks.append(sampled)  # subscribed after the monitor: it has recorded
    trainer.run()
    assert checker.finish().ok
    assert len(net.records) >= 200
    assert monitor._flows == {}
    assert 0 < peak["tracked"] <= peak["active"]


def _elastic_cfg():
    return WorkloadConfig(
        card_name="resnet50-cifar10",
        n_workers=4,
        n_epochs=6,
        iterations_per_epoch=3,
        sigma=0.1,
        seed=7,
        faults=FaultSchedule(
            (WorkerJoin(worker=3, epoch=2), WorkerLeave(worker=0, epoch=4))
        ),
    )


def test_quorum_monitor_passes_on_elastic_run():
    _result, report = run_checked(timing_trainer(_elastic_cfg(), OSP()))
    assert report.ok
    checks, violations = report.monitors["elastic.quorum"]
    assert checks > 0
    assert violations == 0


def test_quorum_monitor_checks_a_resumed_run(tmp_path):
    """The timeline is the spec's, so a run resumed on the join's own epoch
    is checked from there on."""
    timing_trainer(_elastic_cfg(), OSP(), checkpoint_every=2, checkpoint_dir=tmp_path).run()
    resumed = timing_trainer(
        _elastic_cfg(), OSP(), resume_from=str(tmp_path / "ckpt-epoch0002.npz")
    )
    _result, report = run_checked(resumed, strict=True)
    assert report.ok
    checks, violations = report.monitors["elastic.quorum"]
    assert checks > 0
    assert violations == 0


def test_quorum_monitor_skipped_on_static_run():
    _result, report = run_checked(timing_trainer(_cfg(), OSP()))
    assert "elastic.quorum" in report.skipped


def test_quorum_monitor_catches_off_by_one_resize():
    """An injected off-by-one in the membership resize path is caught."""
    trainer = timing_trainer(_elastic_cfg(), OSP())
    checker = InvariantChecker(
        trainer, monitors=[QuorumConsistencyMonitor], strict=False
    )
    ctx = trainer.ctx

    def off_by_one(_n_alive):  # runs once the context has resized its barriers
        for barrier in ctx.quorum_barriers:
            barrier.set_parties(max(1, barrier.parties - 1))  # injected bug

    ctx.membership_hooks.append(off_by_one)
    trainer.run()
    report = checker.finish()
    assert not report.ok
    assert report.monitors["elastic.quorum"][1] > 0
    assert any("quorum barrier" in str(v) for v in report.violations)


def test_monitors_do_not_perturb_the_timeline():
    """A checked run is bit-identical (virtual time, loss) to an unchecked one."""
    plain = timing_trainer(_cfg(), OSP()).run()
    checked, report = run_checked(timing_trainer(_cfg(), OSP()))
    assert report.ok
    assert checked.wall_time == plain.wall_time
    assert checked.mean_bst == plain.mean_bst
    assert len(checked.recorder.iterations) == len(plain.recorder.iterations)
