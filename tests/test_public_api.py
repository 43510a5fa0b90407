"""Public API surface tests: imports, __all__ consistency, docstrings, and
package surfaces that import nothing until a name is used."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.simcore",
    "repro.netsim",
    "repro.hardware",
    "repro.autograd",
    "repro.nn",
    "repro.nn.models",
    "repro.optim",
    "repro.data",
    "repro.compression",
    "repro.sync",
    "repro.core",
    "repro.cluster",
    "repro.metrics",
    "repro.obs",
    "repro.harness",
    "repro.check",
    "repro.ckpt",
    "repro.faults",
    "repro.multijob",
    "repro.perf",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(name)
    assert hasattr(mod, "__all__"), f"{name} has no __all__"
    for symbol in mod.__all__:
        assert hasattr(mod, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_package_docstrings(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 20, name


@pytest.mark.parametrize("name", PACKAGES)
def test_public_classes_and_functions_documented(name):
    mod = importlib.import_module(name)
    for symbol in mod.__all__:
        obj = getattr(mod, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


_IMPORT_ALONE = """
import json
import sys

before = set(sys.modules)
import {name} as package

loaded = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
listed = dir(package)
after_dir = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
print(json.dumps({{"loaded": loaded, "after_dir": after_dir,
                  "unlisted": sorted(set(package.__all__) - set(listed))}}))
"""


@pytest.mark.parametrize("name", PACKAGES)
def test_importing_a_package_alone_loads_none_of_its_submodules(name):
    """A fresh interpreter imports one package: it loads that package, its
    parents and the lazy helper, and ``dir()`` lists every ``__all__`` name
    without importing anything."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALONE.format(name=name)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    seen = json.loads(out)
    parts = name.split(".")
    expected = {".".join(parts[:i]) for i in range(1, len(parts) + 1)} | {"repro._lazy"}
    assert name in seen["loaded"]
    assert set(seen["loaded"]) <= expected, seen["loaded"]
    assert seen["after_dir"] == seen["loaded"]
    assert seen["unlisted"] == []


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_sync_models_have_unique_names():
    from repro.compression import TopK
    from repro.core import OSP, ColocatedOSP
    from repro.sync import (
        ASP,
        BSP,
        CompressedBSP,
        DSSP,
        R2SP,
        SSP,
        ShardedBSP,
        SyncSwitch,
    )

    models = [
        ASP(),
        BSP(),
        SSP(),
        DSSP(),
        R2SP(),
        R2SP(duplex=True),
        SyncSwitch(),
        ShardedBSP(),
        CompressedBSP(TopK(0.1)),
        OSP(),
        OSP(force="bsp"),
        OSP(force="asp"),
        OSP(fixed_budget_fraction=0.5),
        ColocatedOSP(),
    ]
    names = [m.name for m in models]
    assert len(set(names)) == len(names)
