"""Shared infrastructure for the figure-regeneration benchmarks.

Every benchmark regenerates one of the paper's figures/tables (see
DESIGN.md §4) and prints the rows/series with ``-s``. Pass ``--full``
(``pytest benchmarks/ --benchmark-only -s --full``) for larger (slower)
configurations with the same structure.

The four numeric (accuracy) figures share one underlying experiment
(`accuracy_experiment`); a session cache runs each workload once and the
benches extract their views, so the suite stays in the minutes range.
"""

from __future__ import annotations

import pytest

from repro.harness.figures import accuracy_experiment

#: Set from ``--full`` once pytest has parsed the command line.
_FULL = False


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--full", action="store_true",
        help="run the benchmarks at full scale (slower; same structure)",
    )


def pytest_configure(config) -> None:
    global _FULL
    _FULL = config.getoption("full")


def bench_quick() -> bool:
    """False under ``--full`` (full-scale benchmark runs)."""
    return not _FULL


_ACCURACY_CACHE: dict[str, dict] = {}


def cached_accuracy(workload: str) -> dict:
    """Run (once per session) the numeric experiment behind Figs. 6b/6c/7/8."""
    if workload not in _ACCURACY_CACHE:
        _ACCURACY_CACHE[workload] = accuracy_experiment(workload, quick=bench_quick())
    return _ACCURACY_CACHE[workload]


@pytest.fixture
def quick() -> bool:
    return bench_quick()
