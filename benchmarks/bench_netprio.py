"""Priority-aware communication scheduling under background tenants.

Runs ``repro.harness.rs_under_bulk_tenants`` (quick mode by default, four
epochs with ``--full``), prints the contended RS-stage wait
table, and asserts the RS-stage p90 wait improves by at least 1.5x with
priorities on (1.99x at full scale when the scheduler landed).
"""

from conftest import bench_quick

from repro.harness import rs_under_bulk_tenants
from repro.metrics.report import format_table


def _run():
    return rs_under_bulk_tenants(quick=bench_quick())


def test_netprio_contended_rs(benchmark):
    data = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    rows = [
        (
            mode,
            f"{data[mode]['rs_stage_p90_s'] * 1e3:.1f}",
            f"{data[mode]['rs_stage_p50_s'] * 1e3:.1f}",
            f"{data[mode]['rs_push_p90_s'] * 1e3:.1f}",
            f"{data[mode]['throughput']:.1f}",
        )
        for mode in ("off", "on")
    ]
    print(
        format_table(
            ["priorities", "RS p90 (ms)", "RS p50 (ms)", "push p90 (ms)",
             "samples/s"],
            rows,
            title="Priority scheduling — contended RS stage (OSP, 2x4 tenants)",
        )
    )
    print(f"improvement: {data['improvement']:.2f}x  "
          f"preemptions: {data['on']['preemptions']}")
    assert data["improvement"] >= 1.5
