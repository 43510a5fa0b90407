"""The two priority-scheduling experiments, run live in quick mode.

What used to be read back from committed BENCH_netprio.json /
BENCH_multijob.json: class scheduling protects OSP's RS stage from BULK
traffic, by preempting it, and does nothing on a fair-shared fabric.
"""

from types import SimpleNamespace

import pytest

from repro.harness import (
    osp_beside_bulk_cotenant,
    rs_stage_waits,
    rs_under_bulk_tenants,
)
from repro.obs.tracer import Span


@pytest.mark.parametrize(
    "experiment", [rs_under_bulk_tenants, osp_beside_bulk_cotenant]
)
def test_priorities_protect_the_rs_stage_by_preempting_bulk(experiment):
    data = experiment(quick=True)
    off, on = data["off"], data["on"]
    assert data["improvement"] == off["rs_stage_p90_s"] / on["rs_stage_p90_s"]
    assert data["improvement"] >= 1.5  # 1.97x / 1.96x when written
    assert on["preemptions"] > 0
    assert on["prio_bytes"]["high"] > 0
    assert on["prio_bytes"]["bulk"] > 0
    # Fair-shared fabric: nothing is preempted and no class is accounted.
    assert off["preemptions"] == 0
    assert not any(off["prio_bytes"].values())


def test_rs_stage_waits_sums_the_three_rs_spans_per_worker_iteration():
    spans = [
        Span(i, name, "", "", "", start, end, worker=worker, iteration=0, job=job)
        for i, (name, worker, job, start, end) in enumerate([
            ("rs_push", 0, "a", 0.0, 1.0),
            ("rs_barrier_wait", 0, "a", 1.0, 1.5),
            ("rs_pull", 0, "a", 1.5, 3.0),
            ("rs_push", 1, "b", 0.0, 0.25),
            ("ics_push", 0, "a", 3.0, 9.0),  # not an RS span
        ])
    ]
    tracer = SimpleNamespace(
        spans_named=lambda *names: [s for s in spans if s.name in names]
    )
    assert rs_stage_waits(tracer).tolist() == [0.25, 3.0]
    assert rs_stage_waits(tracer, job="a").tolist() == [3.0]
