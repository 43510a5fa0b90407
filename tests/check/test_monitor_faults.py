"""Fault injection for every monitor: each invariant is broken on purpose,
mid-run where the break can happen mid-run, and the monitor that owns it
must catch it at the event where it breaks.

``osp.gib``, the ``ps.ledger`` double deposit, ``elastic.quorum`` and the
``osp.ics_inflight`` gauge/ledger cases live beside the healthy-run tests
(``test_monitors.py``, ``test_ics_inflight_monitor.py``); this file covers
the rest, so that a monitor reworked for speed is still shown to fire."""

import pytest

from repro.check import (
    DEFAULT_MONITORS,
    ICSInflightMonitor,
    InvariantChecker,
    InvariantViolation,
    NetworkConservationMonitor,
    PSLedgerMonitor,
    StalenessBoundMonitor,
)
from repro.core.osp import OSP
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.sync import BSP, SSP


def _cfg(**kw):
    defaults = dict(
        card_name="vgg16-cifar10",
        n_workers=4,
        n_epochs=3,
        iterations_per_epoch=6,
        sigma=0.1,
        seed=7,
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


def test_conservation_catches_bytes_added_to_a_link_mid_run():
    end = timing_trainer(_cfg(), BSP()).run().wall_time
    trainer = timing_trainer(_cfg(), BSP())
    net = trainer.network
    drains = []

    def tamper():  # subscribed before the monitor: it sees the damage
        drains.append(trainer.env.now)
        if len(drains) == 40:
            net.topology.links[0].bytes_carried += 12345.0

    net.drain_hooks.append(tamper)
    InvariantChecker(trainer, monitors=[NetworkConservationMonitor], strict=True)
    with pytest.raises(InvariantViolation, match="bytes_carried") as caught:
        trainer.run()
    violation = caught.value
    assert violation.monitor == "net.conservation"
    assert len(drains) == 40  # raised at the tampered drain, not later
    assert violation.time == drains[-1]
    assert 0.0 < violation.time < end


def test_staleness_catches_a_floor_that_lags_the_bound():
    trainer = timing_trainer(_cfg(), SSP(staleness=1))
    sync = trainer.sync_model
    true_floor = sync.floor

    def lag(worker, iteration):  # subscribed before the monitor
        if iteration == 3:
            sync.floor = lambda ctx: true_floor(ctx) - sync.staleness - 1

    trainer.ctx.compute_start_hooks.append(lag)
    InvariantChecker(trainer, monitors=[StalenessBoundMonitor], strict=True)
    with pytest.raises(InvariantViolation, match="staleness bound 1") as caught:
        trainer.run()
    assert caught.value.monitor == "sync.staleness"
    assert caught.value.context["iteration"] == 3
    assert caught.value.context["lag"] > caught.value.context["bound"]


def test_ledger_catches_an_apply_on_an_empty_bucket():
    trainer = timing_trainer(_cfg(), BSP())
    InvariantChecker(trainer, monitors=[PSLedgerMonitor], strict=True)
    with pytest.raises(InvariantViolation, match="no observed deposits") as caught:
        trainer.ps.apply_average("never-deposited")
    assert caught.value.monitor == "ps.ledger"
    assert caught.value.context["bucket"] == "never-deposited"


def test_ledger_catches_a_deposit_stranded_on_a_clean_run():
    trainer = timing_trainer(_cfg(), BSP())

    def strand(epoch, train_loss, metric):
        if epoch == 0:
            trainer.ps.accumulate("stranded", 2, None)

    trainer.ctx.epoch_end_hooks.append(strand)
    checker = InvariantChecker(trainer, monitors=[PSLedgerMonitor], strict=False)
    trainer.run()
    report = checker.finish()
    assert not report.ok
    assert report.monitors["ps.ledger"][1] == 1
    (violation,) = report.violations
    assert "lost deposits at run end" in str(violation)
    assert violation.context["stranded"] == {"stranded": [2]}


def test_ics_inflight_catches_wire_above_gauge():
    trainer = timing_trainer(_cfg(), OSP())
    trainer.enable_tracing()
    injected = []

    def foreign_push(epoch, train_loss, metric):
        # An ics-push flow the OSP ledger and gauge never heard of.
        if epoch == 0:
            injected.append(trainer.env.now)
            trainer.network.transfer(0, 1, 5e6, tag=("ics-push", 0, -1))

    trainer.ctx.epoch_end_hooks.append(foreign_push)
    InvariantChecker(trainer, monitors=[ICSInflightMonitor], strict=True)
    with pytest.raises(InvariantViolation, match="netsim carries") as caught:
        trainer.run()
    violation = caught.value
    assert violation.monitor == "osp.ics_inflight"
    assert violation.context["wire"] > violation.context["gauge"]
    assert violation.time == injected[0]  # at the drain that saw it


def test_every_default_monitor_has_an_injected_fault():
    """The monitors this file and its two neighbours break on purpose: a new
    default monitor comes with its own fault test and a name here."""
    assert {m.name for m in DEFAULT_MONITORS} == {
        "net.conservation", "ps.ledger", "osp.gib", "sync.staleness",
        "elastic.quorum", "osp.ics_inflight",
    }
