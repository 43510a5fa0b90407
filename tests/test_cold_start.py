"""A run imports numpy and the modules it calls, and nothing else.

numpy is the only third-party package ``repro`` imports. A fresh
interpreter imports the CLI, runs timing trainers, a shared-fabric pair and
a small numeric job, and after the timing half and again after the numeric
half no third-party top-level module but numpy may have been loaded (a
fresh interpreter, since the test session itself loads pytest, hypothesis
and whatever else is installed). And an AST scan of ``src/repro`` finds no
import outside the standard library, numpy and ``repro`` itself — not even
one deferred into a function body.

Within ``repro``, every package ``__init__`` is a lazy re-export table
(``repro._lazy``): an AST scan fails on one that imports a ``repro`` module
at module level. A fresh interpreter that builds and runs the ``t8_osp``
shape (8-worker timing OSP) must not have loaded the numeric stack, the
observability renderers or the tools a timing run never calls, and
``import repro.cli`` alone stays under a module budget.
"""

import ast
import json
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


def _fresh(code: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout


def test_timing_and_numeric_runs_load_no_third_party_module_but_numpy():
    out = _fresh(_COLD_RUN)
    assert out.strip().splitlines()[-2:] == ["timing []", "numeric []"]


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


def _package_level_repro_imports(package: Path) -> list[str]:
    """``file:line: module`` for every ``repro`` import a package
    ``__init__.py`` makes outside a function body, but the lazy helper."""
    found = []
    for path in sorted(package.rglob("__init__.py")):
        tree = ast.parse(path.read_text(), str(path))
        pending = list(tree.body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            else:
                pending.extend(ast.iter_child_nodes(node))
                continue
            for name in names:
                if name.startswith(".") or name.split(".")[0] == "repro":
                    if name != "repro._lazy":
                        found.append(f"{path.relative_to(package)}:{node.lineno}: {name}")
    return sorted(found)


def test_package_inits_import_no_repro_module_but_the_lazy_helper():
    package = Path(repro.__file__).resolve().parent
    assert _package_level_repro_imports(package) == []


def test_the_scan_names_an_eager_package_import(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(
        "from repro._lazy import lazy_exports\n"
        "import json\n"
        "if True:\n"
        "    from repro.pkg.mod import thing\n"
        "from .other import x\n"
        "def f():\n"
        "    import repro.pkg.mod\n"
    )
    assert _package_level_repro_imports(tmp_path) == [
        "pkg/__init__.py:4: repro.pkg.mod",
        "pkg/__init__.py:5: .other",
    ]


#: Modules the ``t8_osp`` shape never calls into: the numeric stack, the
#: observability renderers and the tools of other subcommands.
NOT_ON_THE_TIMING_PATH = (
    "repro.autograd.functional",
    "repro.nn.layers",
    "repro.nn.models.bert",
    "repro.nn.models.inception",
    "repro.nn.models.resnet",
    "repro.nn.models.vgg",
    "repro.data",
    "repro.optim",
    "repro.multijob",
    "repro.obs.chrome",
    "repro.obs.dash",
    "repro.obs.compare",
    "repro.obs.overlap",
    "repro.obs.health",
    "repro.check",
    "repro.ckpt",
    "repro.compression",
    "repro.perf",
    "repro.harness.figures",
)

#: ``import repro.cli`` alone loads at most this many ``repro`` modules (37
#: when it was set; 110 when every package imported all its submodules).
CLI_IMPORT_BUDGET = 70

_TIMING_RUN = """
import json
import sys

import repro.cli

cli = sorted(m for m in sys.modules if m.split(".")[0] == "repro")

from repro.core.osp import OSP
from repro.harness import WorkloadConfig, timing_trainer

cfg = WorkloadConfig("resnet50-cifar10", n_workers=8, n_epochs=3,
                     iterations_per_epoch=4, seed=3)
result = timing_trainer(cfg, OSP()).run()
assert result.recorder.total_iterations == 8 * 3 * 4
print(json.dumps({"cli": cli, "run": sorted(sys.modules)}))
"""


def test_a_timing_run_loads_only_the_timing_path():
    loaded = json.loads(_fresh(_TIMING_RUN).strip().splitlines()[-1])
    assert [m for m in NOT_ON_THE_TIMING_PATH if m in loaded["run"]] == []
    assert len(loaded["cli"]) <= CLI_IMPORT_BUDGET, loaded["cli"]
