"""Multi-job co-tenancy on the shared fabric.

Runs ``repro.harness.osp_beside_bulk_cotenant`` (quick mode by default,
four epochs with ``--full``), prints the per-tenant table, and
asserts the OSP tenant's RS-stage p90 wait is protected by at least 1.5x
when a background BULK tenant shares its hosts and the priority scheduler
is on (1.97x at full scale when the multi-job layer landed).
"""

from conftest import bench_quick

from repro.harness import osp_beside_bulk_cotenant
from repro.metrics.report import format_table


def _run():
    return osp_beside_bulk_cotenant(quick=bench_quick())


def test_multijob_isolation(benchmark):
    data = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    rows = [
        (
            mode,
            f"{data[mode]['rs_stage_p90_s'] * 1e3:.1f}",
            f"{data[mode]['rs_stage_p50_s'] * 1e3:.1f}",
            f"{data[mode]['osp_wall_s']:.2f}",
            f"{data[mode]['bulk_wall_s']:.2f}",
            f"{data[mode]['osp_contended_share']:.1%}",
        )
        for mode in ("off", "on")
    ]
    print(
        format_table(
            ["priorities", "RS p90 (ms)", "RS p50 (ms)", "OSP wall (s)",
             "BULK wall (s)", "OSP contended"],
            rows,
            title="Co-tenancy — OSP + background BSP on shared hosts",
        )
    )
    print(f"improvement: {data['improvement']:.2f}x  "
          f"preemptions: {data['on']['preemptions']}")
    assert data["improvement"] >= 1.5
