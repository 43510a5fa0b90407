"""MultiJobRunner end-to-end: co-tenant runs, attribution, observability."""

import pytest

from repro.harness.cotenancy import osp_with_background, shared_fabric_runner
from repro.harness.workloads import WorkloadConfig
from repro.multijob import JobSpec, MultiJobRunner, multijob_summary, render_report
from repro.sync import BSP

_SMALL = dict(n_epochs=1, iterations_per_epoch=3)


def _pair():
    return osp_with_background(n_workers=3, **_SMALL)


def test_cotenant_pair_completes_with_separate_recorders():
    res = shared_fabric_runner(_pair()).run()
    osp, bulk = res["osp"], res["bulk"]
    assert osp.result.sync_name == "osp"
    assert bulk.result.sync_name == "bsp"
    assert osp.result.recorder is not bulk.result.recorder
    # each tenant recorded its own full iteration schedule
    assert osp.result.recorder.total_iterations == 3 * 3
    assert bulk.result.recorder.total_iterations == 3 * 3
    # makespan covers the slower tenant
    assert res.wall_time == pytest.approx(
        max(osp.finished, bulk.finished)
    )


def test_per_job_byte_attribution_sums_to_fabric_total():
    res = shared_fabric_runner(_pair()).run()
    per_job = sum(r.job_bytes for r in res.jobs.values())
    fabric = sum(
        v for k, v in res.network_stats.items()
        if k.startswith("netsim.job_bytes.")
    )
    assert per_job == pytest.approx(fabric)
    for run in res.jobs.values():
        assert run.contended_bytes + run.solo_bytes == pytest.approx(
            run.job_bytes, rel=1e-6
        )


def test_multijob_counters_on_each_recorder():
    res = shared_fabric_runner(_pair()).run()
    for run in res.jobs.values():
        counters = run.result.recorder.counters
        assert counters["multijob.job_bytes"] == pytest.approx(run.job_bytes)
        assert counters["multijob.contended_bytes"] == pytest.approx(
            run.contended_bytes
        )
        assert counters["multijob.solo_bytes"] == pytest.approx(run.solo_bytes)


def test_interference_matrix_symmetric_with_zero_diagonal():
    res = shared_fabric_runner(_pair()).run()
    m = res.interference_matrix()
    assert m["osp"]["bulk"] == m["bulk"]["osp"] > 0.0
    assert m["osp"]["osp"] == m["bulk"]["bulk"] == 0.0


def test_gpu_oversubscription_serializes_compute():
    jobs = _pair()
    roomy = shared_fabric_runner(jobs).run()  # 2 GPUs/host: no serialization
    tight = shared_fabric_runner(_pair(), gpus_per_host=1).run()
    assert tight.wall_time > roomy.wall_time


def test_exclusive_placement_isolates_star_tenants():
    # On a pure star with exclusive hosts, tenants never share links, so
    # each tenant's wall time matches its solo run. (contended_bytes is
    # *temporal* attribution — bytes moved while another tenant was
    # active anywhere on the fabric — so it is nonzero here by design;
    # what exclusivity buys is performance, not zero overlap.)
    jobs = _pair()
    solo = {j.name: MultiJobRunner([j]).run()[j.name] for j in _pair()}
    res = MultiJobRunner(jobs, placement="exclusive").run()
    for name, run in res.jobs.items():
        # approx, not exact: co-tenant flow events repartition the fluid
        # drain intervals, which perturbs float summation at the ulp level
        assert run.result.wall_time == pytest.approx(
            solo[name].result.wall_time, rel=1e-9
        )
    assert any(run.contended_bytes > 0 for run in res.jobs.values())


def test_tracing_spans_carry_job_dimension():
    runner = shared_fabric_runner(_pair())
    tracer = runner.enable_tracing()
    runner.run()
    jobs = {s.job for s in tracer.spans if s.job is not None}
    assert jobs == {"osp", "bulk"}
    # per-tenant RS filtering works despite job-local worker-id collisions
    assert any(s.name == "rs_push" and s.job == "osp" for s in tracer.spans)


def test_sampling_tracks_per_tenant_occupancy():
    runner = shared_fabric_runner(_pair())
    sampler = runner.enable_sampling(interval=0.5)
    res = runner.run()
    assert res.sampler is sampler
    for name in ("osp", "bulk"):
        series = sampler.series[f"multijob.{name}.active_flows"]
        assert len(series.times) > 0
        assert max(series.values) > 0


def test_summary_and_report_round_trip():
    import json

    from repro.multijob.report import MULTIJOB_SCHEMA

    res = shared_fabric_runner(_pair()).run()
    summary = multijob_summary(res)
    assert summary["schema"] == MULTIJOB_SCHEMA
    # `repro multirun --json` prints exactly this document
    loaded = json.loads(json.dumps(summary))
    assert set(loaded["jobs"]) == {"osp", "bulk"}
    assert loaded["interference"]["osp"]["bulk"] > 0
    text = render_report(res)
    assert "osp" in text and "bulk" in text and "contended" in text


def test_numeric_mode_job_runs_through_multijob():
    from repro.harness.workloads import make_numeric_dataset

    cfg = WorkloadConfig(
        "vgg16-cifar10", n_workers=2, n_epochs=1, iterations_per_epoch=2, seed=3
    )
    data = make_numeric_dataset(cfg.card, n_samples=100, seed=3)
    job = JobSpec(
        name="num",
        workload=cfg,
        sync_factory=BSP,
        mode="numeric",
        numeric_kwargs={"data": data, "batch_size": 25},
    )
    res = MultiJobRunner([job]).run()
    assert res["num"].result.recorder.total_iterations > 0


def test_dashboard_renders_cotenancy_sections():
    from repro.obs.dash import render_multijob_dashboard

    runner = shared_fabric_runner(_pair())
    runner.enable_sampling(interval=0.5)
    res = runner.run()
    page = render_multijob_dashboard(res)
    assert "Interference" in page
    assert "Fabric occupancy" in page
    assert "osp" in page and "bulk" in page
