"""Overlap-report math + the paper's hidden-sync claim, quantified."""

import pytest

from repro.cluster import ClusterSpec, DistributedTrainer, TimingEngine, TrainingPlan
from repro.core import OSP
from repro.hardware import NoJitter
from repro.nn.models import get_card
from repro.obs import read_trace, write_unified_trace
from repro.obs.overlap import (
    OverlapReport,
    _overlap_seconds,
    overlap_report_from_run,
    overlap_report_from_trace,
)
from repro.sync import ASP, BSP, R2SP, SSP, WFBP

pytestmark = pytest.mark.tier1


def run(sync, workers=3, epochs=4, ipe=4):
    spec = ClusterSpec(n_workers=workers, jitter=NoJitter())
    plan = TrainingPlan(n_epochs=epochs, iterations_per_epoch=ipe)
    engine = TimingEngine(
        get_card("resnet50-cifar10"), spec, total_iterations=epochs * ipe
    )
    trainer = DistributedTrainer(spec, plan, engine, sync)
    trainer.enable_tracing()
    return trainer, trainer.run()


# -- interval math -------------------------------------------------------------
def test_overlap_seconds():
    intervals = [(0.0, 1.0), (2.0, 3.0)]
    assert _overlap_seconds(intervals, 0.5, 2.5) == pytest.approx(1.0)
    assert _overlap_seconds(intervals, 1.0, 2.0) == 0.0
    assert _overlap_seconds(intervals, -5.0, 10.0) == pytest.approx(2.0)


def test_empty_report_defaults():
    report = OverlapReport()
    assert report.hidden_sync_ratio == 0.0
    assert report.to_dict()["hidden_sync_ratio"] == 0.0
    assert "Overlap report" in report.render()


# -- the paper's claim ---------------------------------------------------------
def test_osp_hides_sync_bsp_and_asp_do_not():
    _t, osp_res = run(OSP(fixed_budget_fraction=0.5))
    osp = overlap_report_from_run(osp_res)
    assert osp.hidden_sync_ratio > 0.1
    assert osp.phase_bytes["ics-push"][1] > 0  # ICS bytes overlapped

    for baseline in (BSP(), ASP()):
        _t, res = run(baseline)
        report = overlap_report_from_run(res)
        baseline_phases = {
            p: h for p, (_b, h) in report.phase_bytes.items()
        }
        # µs timestamps leave float dust, never more
        assert report.hidden_sync_ratio <= 1e-12, baseline_phases


def test_report_attribution_totals():
    _t, res = run(OSP(fixed_budget_fraction=0.5))
    report = overlap_report_from_run(res)
    assert report.n_iterations == res.recorder.total_iterations
    assert report.bst.count == report.n_iterations
    assert report.bst.mean() == pytest.approx(res.recorder.mean_bst())
    # phase bytes sum to the total
    total = sum(b for b, _h in report.phase_bytes.values())
    assert total == pytest.approx(report.total_sync_bytes)
    hidden = sum(h for _b, h in report.phase_bytes.values())
    assert hidden == pytest.approx(report.hidden_bytes)
    # per-layer traffic covers both stages for an adaptive OSP run
    assert report.layer_traffic["rs"] and report.layer_traffic["ics"]
    # BST decomposition names real phases
    assert "rs_push" in report.phase_time
    assert "ics_push" in report.phase_time


def test_render_and_to_dict_complete():
    _t, res = run(OSP(fixed_budget_fraction=0.5), epochs=2)
    report = overlap_report_from_run(res)
    text = report.render()
    for needle in ("hidden-sync ratio", "BST decomposition", "rs_push", "ICS"):
        assert needle in text
    d = report.to_dict()
    assert set(d) >= {
        "sync", "hidden_sync_ratio", "phase_bytes", "bst", "phase_time",
        "layer_traffic", "counters",
    }
    assert d["bst"]["count"] == report.n_iterations


# -- trace-file parity ---------------------------------------------------------
def test_report_from_trace_matches_report_from_run(tmp_path):
    """Both are built from one document, so they are equal, not close."""
    for sync in (BSP(), ASP(), SSP(), R2SP(), WFBP(), OSP(fixed_budget_fraction=0.5)):
        _t, res = run(sync)
        path = tmp_path / f"{sync.name}.json"
        write_unified_trace(path, res)
        from_trace = overlap_report_from_trace(read_trace(path))
        assert from_trace.to_dict() == overlap_report_from_run(res).to_dict(), sync.name
