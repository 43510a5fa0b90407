"""numpy is the only third-party package ``repro`` imports.

Two checks. A fresh interpreter imports the CLI, runs timing trainers, a
shared-fabric pair and a small numeric job, and after the timing half and
again after the numeric half no third-party top-level module but numpy may
have been loaded (a fresh interpreter, since the test session itself loads
pytest, hypothesis and whatever else is installed). And an AST scan of
``src/repro`` finds no import outside the standard library, numpy and
``repro`` itself — not even one deferred into a function body.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

_COLD_RUN = """
import sys

before = {m.split(".")[0] for m in sys.modules}


def third_party():
    # A module with no __spec__ was not imported but registered by hand
    # (multiprocessing's __mp_main__, Cython's runtime modules).
    loaded = {
        name.split(".")[0]
        for name, mod in list(sys.modules.items())
        if getattr(mod, "__spec__", None) is not None
    }
    return sorted(
        loaded - before - set(sys.stdlib_module_names) - {"numpy", "repro"}
    )


import repro.cli
from repro.core.osp import OSP
from repro.harness import (
    WorkloadConfig, make_numeric_dataset, numeric_trainer, osp_with_background,
    shared_fabric_runner, timing_trainer,
)

cfg = WorkloadConfig("resnet50-cifar10", n_workers=2, n_epochs=1,
                     iterations_per_epoch=2)
timing_trainer(cfg, OSP()).run()
jobs = osp_with_background("vgg16-cifar10", n_workers=2, n_epochs=1,
                           iterations_per_epoch=2, seed=0)
shared_fabric_runner(jobs).run()
print("timing", third_party())

data = make_numeric_dataset(cfg.card, n_samples=40)
numeric_trainer(WorkloadConfig("resnet50-cifar10", n_workers=2, n_epochs=1),
                OSP(), data=data, batch_size=10).run()
print("numeric", third_party())
"""


def test_timing_and_numeric_runs_load_no_third_party_module_but_numpy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _COLD_RUN],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip().splitlines()[-2:] == ["timing []", "numeric []"]


def _foreign_imports(package: Path) -> list[str]:
    allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in allowed:
                    found.append(f"{path.relative_to(package)}:{node.lineno}: {name}")
    return found


def test_src_imports_only_stdlib_numpy_and_repro():
    package = Path(repro.__file__).resolve().parent
    assert _foreign_imports(package) == []
