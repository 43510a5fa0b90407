"""The synchronous round and the traffic verbs are written once, in
``repro/sync/base.py``.

"Deposit, wait for everyone, average once" used to exist six times over two
barrier classes. No other sync-model module may construct a barrier, call
``.wait()`` on one or average a bucket it closed itself — a model delegates
to ``SyncModel.sync_round`` and keeps its push / pull plan. Checked on the
syntax tree (same shape as ``tests/test_no_environment_reads.py``), so the
seventh copy cannot be written quietly. OSP's one ``apply_average`` is the
ICS round: a frozen quorum without a barrier is a different release rule.
(A model that applies each worker's push as it lands, as ASP does, calls
``apply_immediate`` and has no round.)

The plan itself is spelled with ``SyncModel.push`` / ``pull``: no module
starts a worker ↔ PS flow with ``ctx.transfer_to_ps`` / ``transfer_from_ps``
except the two OSP keeps by hand — the ICS push, whose event the next
iteration's Eq. 5 deadline check reads, and the GIB broadcast, which is
fire-and-forget and has no span. And one model is one setup: one barrier,
one epoch-end hook.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.harness.workloads import WorkloadConfig, timing_trainer
from tests.sync.test_conformance import MODELS, SPEC

CONSTRUCTORS = {"QuorumBarrier", "quorum_barrier"}
TRANSFERS = {"transfer_to_ps", "transfer_from_ps"}


def _round_code(node: ast.AST, where: str = "<module>"):
    """``(line, enclosing function, finding)`` in source order. A transfer
    counts wherever it is named, called or handed on."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _round_code(child, child.name)
            continue
        if isinstance(child, ast.Attribute) and child.attr in TRANSFERS:
            yield child.lineno, where, f"starts a flow ({child.attr})"
        elif isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in CONSTRUCTORS:
                yield child.lineno, where, f"constructs a barrier ({name})"
            elif name == "wait" and isinstance(func, ast.Attribute):
                yield child.lineno, where, "calls .wait()"
            elif name == "apply_average":
                yield child.lineno, where, "averages a bucket"
        yield from _round_code(child, where)


def _modules():
    root = Path(repro.__file__).parent
    sync = sorted(p for p in (root / "sync").glob("*.py") if p.name != "base.py")
    return root, sync + [root / "core" / "osp.py", root / "core" / "colocated.py"]


def test_only_the_base_owns_a_barrier():
    """... and starts a flow, but for OSP's two declared ones."""
    root, modules = _modules()
    assert len(modules) >= 12  # the walk really found the zoo
    found = [
        f"{path.relative_to(root)}: {where} {what}"
        for path in modules
        for _line, where, what in _round_code(ast.parse(path.read_text(), str(path)))
    ]
    assert found == [
        "core/osp.py: _ics_process starts a flow (transfer_to_ps)",  # the ICS push
        "core/osp.py: _ics_process averages a bucket",  # the ICS round
        "core/osp.py: _refresh_gib starts a flow (transfer_from_ps)",  # the GIB broadcast
    ], "\n".join(found)
    base = ast.parse((root / "sync" / "base.py").read_text())
    assert sorted(what for _line, _where, what in _round_code(base)) == [
        "averages a bucket", "calls .wait()", "constructs a barrier (quorum_barrier)",
        "starts a flow (transfer_from_ps)", "starts a flow (transfer_to_ps)",
    ]  # fmt: skip


def test_the_walker_sees_every_spelling():
    code = (
        "from repro.simcore import QuorumBarrier\n"
        "b = QuorumBarrier(env, 4)\nc = ctx.quorum_barrier(timeout=1.0)\n"
        "def f(self):\n    yield self._b.wait()\n    yield ctx.transfer_to_ps(0, 1)\n"
        "    ctx.ps.apply_average('b')\n    move(ctx.transfer_from_ps)\n"
    )
    assert list(_round_code(ast.parse(code))) == [
        (2, "<module>", "constructs a barrier (QuorumBarrier)"),
        (3, "<module>", "constructs a barrier (quorum_barrier)"),
        (5, "f", "calls .wait()"),
        (6, "f", "starts a flow (transfer_to_ps)"),
        (7, "f", "averages a bucket"),
        (8, "f", "starts a flow (transfer_from_ps)"),
    ]


@pytest.mark.parametrize("model", MODELS)
def test_setup_opens_one_barrier_and_one_epoch_hook(model):
    cfg = WorkloadConfig(
        "resnet50-cifar10", n_workers=4, n_epochs=2, iterations_per_epoch=2,
        **SPEC.get(model, {}),
    )  # fmt: skip
    trainer = timing_trainer(cfg, MODELS[model]())
    ctx = trainer.ctx
    hooks = len(ctx.epoch_end_hooks)
    trainer.sync_model.setup(ctx)
    assert (len(ctx.quorum_barriers), len(ctx.epoch_end_hooks) - hooks) == (1, 1)
