"""``repro.check``, ``repro.obs`` and ``ckpt/snapshot.py`` observe a run
through public names only: no ``other._private`` reads, no ``getattr`` /
``hasattr`` with an underscore literal, no ``setattr``. A monitor that needs
a moment appends to the owner's ``*_hooks`` list; one that needs a value asks
for an accessor. Every private name reached from here is a name its owner
could no longer change. ``repro.check`` is held to one rule more — it assigns
no attribute on anything but ``self`` — because a checker that patches what
it checks is how ``_drain`` came to be wrapped on the wrong object; ``obs``
fills in reports it built and ``apply_checkpoint`` restores public state, so
there an assignment is the job. Checked on the syntax tree, so a docstring
may mention ``_drain``."""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
WATCHED = ("check", "obs", "ckpt/snapshot.py")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_own(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _targets(node: ast.AST):
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        pending = [node.target]
    else:
        return
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        else:
            yield target


def _reach_ins(tree: ast.AST, assignments: bool = True):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            if not _is_own(node.value):
                yield node.lineno, f"reads .{node.attr} of another object"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name == "setattr":
                yield node.lineno, "setattr()"
            elif name in ("getattr", "hasattr") and len(node.args) > 1:
                attr = node.args[1]
                if isinstance(attr, ast.Constant) and str(attr.value).startswith("_"):
                    yield node.lineno, f"{name}(…, {attr.value!r})"
        for target in _targets(node) if assignments else ():
            if isinstance(target, ast.Attribute) and not _is_own(target.value):
                yield target.lineno, f"assigns .{target.attr} of another object"


def test_check_obs_and_snapshot_reach_into_no_private_state():
    sources = []
    for entry in WATCHED:
        path = ROOT / entry
        sources.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    assert len(sources) > 12  # the walk really found the three places
    found = sorted(
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sources
        for line, what in set(
            _reach_ins(
                ast.parse(path.read_text(), str(path)),
                assignments=path.parent.name == "check",
            )
        )
    )
    assert not found, "private reach-in from check/, obs/ or snapshot.py:\n" + "\n".join(found)


def test_the_walker_sees_every_spelling():
    code = (
        "class M:\n"
        "    def f(self, net, other):\n"
        "        a = net._active\n"
        "        b = self._sync._gib\n"
        "        c = getattr(net, '_drain')\n"
        "        d = hasattr(net, '_next_fid')\n"
        "        setattr(net, 'transfer', a)\n"
        "        net.transfer = a\n"
        "        other.checks += 1\n"
        "        self._net, other.x = net, 1\n"
        "        self._mine = self._net.active_flows\n"
        "        e = getattr(net, 'tracer', None)\n"
        "        f = type(net).__name__\n"
        "        cls._count = 0\n"
    )
    assert sorted(set(_reach_ins(ast.parse(code)))) == [
        (3, "reads ._active of another object"),
        (4, "reads ._gib of another object"),
        (5, "getattr(…, '_drain')"),
        (6, "hasattr(…, '_next_fid')"),
        (7, "setattr()"),
        (8, "assigns .transfer of another object"),
        (9, "assigns .checks of another object"),
        (10, "assigns .x of another object"),
    ]
    assert len(set(_reach_ins(ast.parse(code), assignments=False))) == 5
