"""Smoke tests: every example script parses, imports, and exposes main(),
and the fast ones run.

The four examples that finish in seconds run their ``main()`` in process,
so an API change they call fails here; the slow numeric ones are only
imported (``make examples`` runs all of them end to end).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_present():
    assert len(EXAMPLES) >= 3  # deliverable: at least three runnable examples
    assert "quickstart" in EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_imports_and_has_main(name):
    module = _load(name)
    assert callable(getattr(module, "main", None)), f"{name} lacks main()"


#: Examples whose ``main()`` takes a few seconds at most.
FAST = ("compression_comparison", "heterogeneous_stragglers", "multips_scaling", "osp_anatomy")


@pytest.mark.parametrize("name", FAST)
def test_fast_example_runs(name, capsys):
    _load(name).main()
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_has_module_docstring(name):
    module = _load(name)
    assert module.__doc__ and "Run:" in module.__doc__
