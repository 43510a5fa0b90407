"""The synchronous round is written once, in ``repro/sync/base.py``.

"Deposit, wait for everyone, average once" used to exist six times over two
barrier classes. No other sync-model module may construct a barrier, call
``.wait()`` on one or average a bucket it closed itself — a model delegates
to ``SyncModel.sync_round`` and keeps its push / pull plan. Checked on the
syntax tree (same shape as ``tests/test_no_environment_reads.py``), so the
seventh copy cannot be written quietly. OSP's one ``apply_average`` is the
ICS round: a frozen quorum without a barrier is a different release rule.
(A model that applies each worker's push as it lands, as ASP does, calls
``apply_immediate`` and has no round.)
"""

import ast
from pathlib import Path

import repro

CONSTRUCTORS = {"QuorumBarrier", "quorum_barrier"}


def _round_code(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in CONSTRUCTORS:
            yield node.lineno, f"constructs a barrier ({name})"
        elif name == "wait" and isinstance(func, ast.Attribute):
            yield node.lineno, "calls .wait()"
        elif name == "apply_average":
            yield node.lineno, "averages a bucket"


def _modules():
    root = Path(repro.__file__).parent
    sync = sorted(p for p in (root / "sync").glob("*.py") if p.name != "base.py")
    return root, sync + [root / "core" / "osp.py", root / "core" / "colocated.py"]


def test_only_the_base_owns_a_barrier():
    root, modules = _modules()
    assert len(modules) >= 12  # the walk really found the zoo
    found = [
        f"{path.relative_to(root)}: {what}"
        for path in modules
        for _line, what in _round_code(ast.parse(path.read_text(), str(path)))
    ]
    # The ICS round: a frozen quorum and no barrier, so not the base's round.
    assert found == ["core/osp.py: averages a bucket"], "\n".join(found)
    base = ast.parse((root / "sync" / "base.py").read_text())
    assert sorted(what for _line, what in _round_code(base)) == [
        "averages a bucket", "calls .wait()", "constructs a barrier (quorum_barrier)",
    ]  # fmt: skip


def test_the_walker_sees_every_spelling():
    code = (
        "from repro.simcore import QuorumBarrier\n"
        "b = QuorumBarrier(env, 4)\nc = ctx.quorum_barrier(timeout=1.0)\n"
        "def f(self):\n    yield self._b.wait()\n    yield ctx.transfer_to_ps(0, 1)\n"
        "    ctx.ps.apply_average('b')\n"
    )
    assert sorted(_round_code(ast.parse(code))) == [
        (2, "constructs a barrier (QuorumBarrier)"),
        (3, "constructs a barrier (quorum_barrier)"),
        (5, "calls .wait()"),
        (7, "averages a bucket"),
    ]
