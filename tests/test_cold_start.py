"""A run imports scipy and networkx only when it calls them.

A third-party package other than numpy is imported inside the function that
needs it: ``scipy.ndimage`` by the synthetic image dataset, ``networkx`` by
the multi-rack topology. A timing run builds neither, so importing the CLI
and running timing trainers must leave both out of ``sys.modules``. Checked
in a fresh interpreter, since the test session itself has long loaded them.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_COLD_RUN = """
import sys

import repro.cli
from repro.core.osp import OSP
from repro.harness import (
    WorkloadConfig, osp_with_background, shared_fabric_runner, timing_trainer,
)

cfg = WorkloadConfig("resnet50-cifar10", n_workers=2, n_epochs=1,
                     iterations_per_epoch=2)
timing_trainer(cfg, OSP()).run()
jobs = osp_with_background("vgg16-cifar10", n_workers=2, n_epochs=1,
                           iterations_per_epoch=2, seed=0)
shared_fabric_runner(jobs).run()
print(sorted(m for m in sys.modules if m.split(".")[0] in {"scipy", "networkx"}))
"""


def test_timing_runs_never_import_scipy_or_networkx():
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
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_lazy_users_still_load_their_dependency():
    from repro.data.synthetic_images import make_image_classification
    from repro.netsim.topology import GraphTopology, make_multirack_topology

    data = make_image_classification(20, n_classes=2, image_size=4, seed=1)
    assert len(data) == 20
    assert "scipy.ndimage" in sys.modules

    topo = make_multirack_topology(4, n_racks=2)
    assert isinstance(topo, GraphTopology)
    assert [l.name for l in topo.route(0, 1)] == [
        "0->tor0", "tor0->core", "core->tor1", "tor1->1"
    ]
    assert "networkx" in sys.modules
