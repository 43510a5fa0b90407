"""``src/repro`` holds no code that only tests reach, and no option that
no caller sets.

Four checks on the syntax tree, so none can drift back in unnoticed.

*Top-level definitions.* A top-level ``def``, ``class`` or assignment
target of a ``src/repro`` module is live when a root loads its name, as a
``Name`` or an ``Attribute``, or when the body of a live definition does.
The roots are the module-level statements of ``src/repro`` that are
neither definitions nor imports (``__main__.py`` reaches ``cli.main`` that
way) and every name loaded in ``bench/``, ``benchmarks/``, ``examples/``
and ``tools/``. Re-exports are not references: an ``import`` line and an
``__all__`` string load nothing. The scan iterates to a fixed point, so
code reached only from dead code is dead too. What stays dead either goes
to ``tests/`` or sits on :data:`ALLOWED` with its reason; what an allowed
definition loads is then live.

*Public methods.* A public method or property of a ``src/repro`` class is
test code when its name is loaded as an attribute nowhere in the source,
the benches, the examples or the tools, and no string constant in
those places spells it (a ``getattr`` dispatch): only ``tests/`` calls it,
or nothing does. Its body moves to a ``tests/`` helper that takes the
object, or it goes, or it sits on :data:`ALLOWED_TEST_ONLY` with a reason.

*Options.* Every defaulted parameter of a public function, method or
class constructor and every defaulted field of a public dataclass under
``src/repro`` is set by some call under ``src/``, ``tests/``, ``bench/``,
``benchmarks/``, ``examples/`` or ``tools/``: by keyword, or positionally
at its index, in a call of that name (a class's name, a subclass that
inherits its constructor, ``super().__init__`` in a subclass, ``cls(…)`` in
its methods). A ``*args`` passes every positional parameter; a
``**mapping`` passes its keys when it names a dict literal, what the
enclosing function's callers pass when it forwards that function's own
``**kwargs``, and everything otherwise. A function handed on as a value
(its calls unseen) passes everything, a name in its class's ``BOUNDS`` is
set by the refusal corpus, and a dataclass field may also be assigned as
an attribute or set through ``replace``. An option no call sets has one
value: it is folded in as a constant, or sits on :data:`ALLOWED_OPTIONS`.

*CLI flags.* Every option string of ``cli.build_parser()`` appears as a
token of some string literal under ``tests/``, so no flag ships untested.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import NamedTuple

import pytest

import repro
from repro.cli import build_parser

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parents[1]
ROOT_DIRS = ("bench", "benchmarks", "examples", "tools")

#: Public methods that only tests call and that stay in ``src/`` on purpose.
ALLOWED_TEST_ONLY = {
    "simcore.process.Process.interrupt": "the kernel's one way to cancel a waiting process",
}

#: Options (``module.Owner(param)`` or ``module.Class.field``) that no call
#: sets and that stay on purpose.
ALLOWED_OPTIONS: dict[str, str] = {}

#: Definitions that only tests reach and that stay in ``src/`` on purpose.
ALLOWED = {
    "autograd.gradcheck.grad_check": "the tests' gradient oracle",
    "core.pgp.taylor_reference_importance": "the tests' PGP reference",
    "check.replay.dump_stream": "writes the committed stream goldens",
    "check.replay.load_stream": "reads the committed stream goldens",
    "check.replay.differential_replay": "the A/B entry point of docs/invariants.md",
    "obs.overlap.overlap_report_from_run": "the quick start of docs/observability.md",
    "obs.registry.COUNTERS": "the counter vocabulary the registry lint checks",
    "obs.registry.COUNTER_TEMPLATES": "the templated counters the registry lint checks",
    "obs.registry.HOOKS": "the hook lists the registry lint checks",
    "obs.registry.ALL_NAMES": "the name vocabulary the registry lint checks",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _loads(node: ast.AST) -> set[str]:
    """Names ``node`` loads, as a ``Name`` or an ``Attribute``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found.add(sub.attr)
    return found


def _targets(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines (none for a non-definition)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return []
    return [
        sub.id
        for target in targets
        for sub in ast.walk(target)
        if isinstance(sub, ast.Name)
    ]


@functools.cache
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


@pytest.fixture(autouse=True, scope="module")
def _release_parsed_trees():
    """The checks share one parse of each file; the rest of the session
    does not keep them."""
    yield
    _parse.cache_clear()


def _modules(src: Path) -> dict[str, ast.Module]:
    trees = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        trees[".".join(parts) or "__init__"] = _parse(path)
    return trees


def _trees_under(dirs) -> list[ast.Module]:
    return [
        _parse(path) for d in dirs if d.is_dir() for path in sorted(d.rglob("*.py"))
    ]


def dead_definitions(src: Path, root_dirs, keep=()) -> dict[str, int]:
    """``{"module.name": line}`` for every top-level definition no root reaches.

    A ``keep`` entry still dead at the fixed point is reported, and then
    counts as a root: what the kept code loads stays live.
    """
    loaded: set[str] = set()
    for tree in _trees_under(root_dirs):
        loaded |= _loads(tree)
    pending: dict[str, tuple[str, int, ast.stmt]] = {}
    for module, tree in _modules(src).items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            public = [n for n in _targets(stmt) if not _is_dunder(n)]
            if not public:
                # A dunder (``__version__``, ``__all__``) or a plain
                # statement. ``__all__`` holds strings, so it loads nothing.
                loaded |= _loads(stmt)
                continue
            for name in public:
                pending[f"{module}.{name}"] = (name, stmt.lineno, stmt)

    def settle():
        changed = True
        while changed:
            changed = False
            for key, (name, _, stmt) in list(pending.items()):
                if name in loaded:
                    del pending[key]
                    loaded.update(_loads(stmt))
                    changed = True

    settle()
    kept = {}
    for key in keep:
        if key in pending:
            _, kept[key], stmt = pending.pop(key)
            loaded.update(_loads(stmt))
    settle()
    return kept | {key: line for key, (_, line, _) in pending.items()}


def dead_methods(src: Path, reference_dirs) -> dict[str, int]:
    """``{"module.Class.method": line}`` for public methods that neither
    ``src`` nor ``reference_dirs`` names, as an attribute or a string."""
    trees = list(_modules(src).items())
    referenced: set[str] = set()
    for tree in [t for _, t in trees] + _trees_under(reference_dirs):
        referenced |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        referenced |= {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
    dead = {}
    for module, tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not stmt.name.startswith("_")
                    and stmt.name not in referenced
                ):
                    dead[f"{module}.{cls.name}.{stmt.name}"] = stmt.lineno
    return dead


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _base_names(cls: ast.ClassDef) -> list[str]:
    return [
        b.id if isinstance(b, ast.Name) else b.attr
        for b in cls.bases
        if isinstance(b, (ast.Name, ast.Attribute))
    ]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


class _CallIndex:
    """Every call under some directories, by the name it calls.

    ``super().__init__(…)`` in a class and ``cls(…)`` in its methods are
    filed under the class's base names and its own name. A ``**mapping``
    is resolved to its keys when ``mapping`` names a dict display or a
    ``dict(k=…)`` call assigned in the same function or module; when it
    names the enclosing function's own ``**kwargs`` it forwards, and passes
    what the callers of that function pass; anything else passes
    everything.
    """

    def __init__(self, trees):
        self.calls: dict[str, list[tuple[ast.Call, dict, object]]] = {}
        #: attribute names some code assigns (``obj.field = …``)
        self.stored: set[str] = set()
        #: names loaded other than as the callee of a call: a function
        #: handed on as a value, whose calls the index cannot see
        self.handed_on: set[str] = set()
        for tree in trees:
            self._visit(tree, _dict_bindings(tree.body), None, None)
            callees = {
                id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
            }
            for node in ast.walk(tree):
                if id(node) in callees or not isinstance(
                    getattr(node, "ctx", None), ast.Load
                ):
                    continue
                if isinstance(node, ast.Name):
                    self.handed_on.add(node.id)
                elif isinstance(node, ast.Attribute):
                    self.handed_on.add(node.attr)

    def _visit(self, node, bindings, fn, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit(child, bindings, fn, child)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = {**bindings, **_dict_bindings(ast.walk(child))}
                self._visit(child, inner, child, cls)
                continue
            if isinstance(child, ast.Call):
                name = _callee(child)
                names = [name]
                if name == "__init__" and isinstance(child.func, ast.Attribute):
                    is_super = isinstance(child.func.value, ast.Call) and (
                        _callee(child.func.value) == "super"
                    )
                    names = _base_names(cls) if is_super and cls else []
                elif name == "cls" and cls is not None:
                    names = [cls.name]
                for key in names:
                    self.calls.setdefault(key, []).append((child, bindings, fn))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store):
                self.stored.add(child.attr)
            self._visit(child, bindings, fn, cls)

    def passes(self, names, index, param, _seen=None) -> bool:
        """Whether a call of one of ``names`` sets ``param`` (at positional
        ``index``, ``None`` for keyword-only)."""
        seen = set() if _seen is None else _seen
        for name in set(names) - seen:
            seen.add(name)
            for call, bindings, fn in self.calls.get(name, ()):
                if any(kw.arg == param for kw in call.keywords):
                    return True
                if index is not None:
                    for slot, arg in enumerate(call.args):
                        if isinstance(arg, ast.Starred) or slot == index:
                            return True
                for kw in call.keywords:
                    if kw.arg is not None:
                        continue
                    value = kw.value
                    if isinstance(value, ast.Name) and value.id in bindings:
                        if param in bindings[value.id]:
                            return True
                    elif (
                        isinstance(value, ast.Name)
                        and fn is not None
                        and fn.args.kwarg is not None
                        and fn.args.kwarg.arg == value.id
                    ):
                        if self.passes([fn.name], None, param, seen):
                            return True
                    else:
                        return True
        return False


def _dict_bindings(stmts) -> dict[str, set[str]]:
    """``{name: keys}`` for each ``name = {…}`` or ``name = dict(k=…)``."""
    found = {}
    for stmt in stmts:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target, value = stmt.targets[0], stmt.value
        if not isinstance(target, ast.Name):
            continue
        if isinstance(value, ast.Dict) and all(
            isinstance(k, ast.Constant) for k in value.keys
        ):
            found[target.id] = {k.value for k in value.keys}
        elif (
            isinstance(value, ast.Call)
            and _callee(value) == "dict"
            and not value.args
            and all(kw.arg for kw in value.keywords)
        ):
            found[target.id] = {kw.arg for kw in value.keywords}
    return found


def _defaulted(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """``(name, positional index)`` of each parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = 1 if bound else 0
    start = len(positional) - len(args.defaults)
    found = [
        (arg.arg, slot - first)
        for slot, arg in enumerate(positional)
        if slot >= max(start, first)
    ]
    found += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _fields(cls: ast.ClassDef) -> list[tuple[str, int, bool]]:
    """``(name, line, has default)`` of each init field of a dataclass."""
    found = []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if (
            isinstance(value, ast.Call)
            and _callee(value) == "field"
            and any(
                kw.arg == "init" and getattr(kw.value, "value", True) is False
                for kw in value.keywords
            )
        ):
            continue
        found.append((stmt.target.id, stmt.lineno, value is not None))
    return found


class _Option(NamedTuple):
    line: int
    param: str
    #: the names a call of the owner goes by
    callees: tuple[str, ...]
    #: positional index, ``None`` for keyword-only
    index: int | None
    #: a dataclass field (also set by assignment or ``replace``)
    field: bool = False
    #: a plain function or method (a constructor is not handed on by name)
    function: bool = False
    #: named in the class's ``BOUNDS``, which the refusal corpus sets
    bounded: bool = False


def _bounds_keys(cls: ast.ClassDef, bindings: dict[str, set[str]]) -> set[str]:
    """The names a class body's ``BOUNDS`` dict declares."""
    for stmt in cls.body:
        if (
            isinstance(stmt, ast.Assign)
            and any(getattr(t, "id", None) == "BOUNDS" for t in stmt.targets)
            and isinstance(stmt.value, ast.Dict)
        ):
            keys = set()
            for key, value in zip(stmt.value.keys, stmt.value.values):
                if key is None and isinstance(value, ast.Name):
                    keys |= bindings.get(value.id, set())
                elif isinstance(key, ast.Constant):
                    keys.add(key.value)
            return keys
    return set()


def options(src: Path) -> dict[str, _Option]:
    """``{"module.Owner(param)": option}`` for every defaulted parameter of
    a public function, method or constructor and every defaulted field of a
    public dataclass (``module.Class.field``): the library's options."""
    trees = _modules(src)
    classes: dict[str, ast.ClassDef] = {}
    for tree in trees.values():
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                classes[stmt.name] = stmt
    children: dict[str, set[str]] = {}
    for cls in classes.values():
        for base in _base_names(cls):
            children.setdefault(base, set()).add(cls.name)

    def constructs(cls: ast.ClassDef) -> tuple[str, ...]:
        """The class and every subclass that inherits its constructor."""
        found, stack = {cls.name}, [cls.name]
        while stack:
            for child in children.get(stack.pop(), ()):
                sub = classes[child]
                own = _is_dataclass(sub) or any(
                    isinstance(s, ast.FunctionDef) and s.name == "__init__"
                    for s in sub.body
                )
                if child not in found and not own:
                    found.add(child)
                    stack.append(child)
        return tuple(sorted(found))

    def inherited_fields(cls: ast.ClassDef) -> int:
        return sum(
            len(_fields(classes[b])) + inherited_fields(classes[b])
            for b in _base_names(cls)
            if b in classes and _is_dataclass(classes[b])
        )

    found = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                for param, index in _defaulted(stmt, bound=False):
                    found[f"{module}.{stmt.name}({param})"] = _Option(
                        stmt.lineno, param, (stmt.name,), index, function=True
                    )
            if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
                continue
            makers = constructs(stmt)
            bounded = _bounds_keys(stmt, _dict_bindings(tree.body))
            if _is_dataclass(stmt):
                offset = inherited_fields(stmt)
                for slot, (name, line, default) in enumerate(_fields(stmt)):
                    if default:
                        found[f"{module}.{stmt.name}.{name}"] = _Option(
                            line, name, makers, offset + slot, field=True,
                            bounded=name in bounded,
                        )
            for fn in stmt.body:
                if not isinstance(fn, ast.FunctionDef) or (
                    fn.name.startswith("_") and fn.name != "__init__"
                ):
                    continue
                bound = not any(
                    ast.unparse(d) == "staticmethod" for d in fn.decorator_list
                )
                for param, index in _defaulted(fn, bound):
                    if fn.name == "__init__":
                        found[f"{module}.{stmt.name}({param})"] = _Option(
                            fn.lineno, param, makers, index,
                            bounded=param in bounded,
                        )
                    else:
                        found[f"{module}.{stmt.name}.{fn.name}({param})"] = _Option(
                            fn.lineno, param, (fn.name,), index, function=True
                        )
    return found


def unset_options(src: Path, caller_dirs) -> dict[str, int]:
    """``{key: line}`` for the options no call under ``caller_dirs`` sets."""
    calls = _CallIndex(_trees_under(caller_dirs))
    unset = {}
    for key, opt in options(src).items():
        if (
            opt.bounded
            or calls.passes(opt.callees, opt.index, opt.param)
            or (opt.function and opt.callees[0] in calls.handed_on)
            or (
                opt.field
                and (
                    opt.param in calls.stored
                    or calls.passes(["replace"], None, opt.param)
                )
            )
        ):
            continue
        unset[key] = opt.line
    return unset


def _report(found: dict[str, int]) -> str:
    return "\n".join(
        f"{key.rsplit('.', 1)[0]}:{line} {key.rsplit('.', 1)[1]}"
        for key, line in sorted(found.items())
    )


def test_no_top_level_definition_is_reached_only_by_tests():
    dead = dead_definitions(SRC, [REPO / d for d in ROOT_DIRS], keep=ALLOWED)
    assert len(_modules(SRC)) > 100  # the walk really found the package
    unexpected = {k: v for k, v in dead.items() if k not in ALLOWED}
    assert not unexpected, (
        "src/repro definitions that no root reaches (delete them, move them "
        "to tests/ or allow them with a reason):\n" + _report(unexpected)
    )
    stale = sorted(set(ALLOWED) - set(dead))
    assert not stale, f"allowlist entries that are gone or now live: {stale}"


def test_the_allowlist_stays_short_and_reasoned():
    assert len(ALLOWED) <= 10
    assert len(ALLOWED_TEST_ONLY) + len(ALLOWED_OPTIONS) <= 10
    for allowed in (ALLOWED, ALLOWED_TEST_ONLY, ALLOWED_OPTIONS):
        assert all(reason.strip() for reason in allowed.values())


def test_every_public_method_is_named_somewhere():
    """Somewhere outside ``tests/``: a method only tests call is test code."""
    dead = dead_methods(SRC, [REPO / d for d in ROOT_DIRS])
    unexpected = {k: v for k, v in dead.items() if k not in ALLOWED_TEST_ONLY}
    assert not unexpected, (
        "public methods that only tests call (move the body to a tests/ "
        "helper, delete it, or allow it with a reason):\n" + _report(unexpected)
    )
    stale = sorted(set(ALLOWED_TEST_ONLY) - set(dead))
    assert not stale, f"allowlist entries that are gone or now live: {stale}"


def test_every_option_has_a_caller():
    callers = [REPO / d for d in ("src", "tests", *ROOT_DIRS)]
    assert len(options(SRC)) > 300  # the walk really found the signatures
    unset = unset_options(SRC, callers)
    unexpected = {k: v for k, v in unset.items() if k not in ALLOWED_OPTIONS}
    assert not unexpected, (
        "options no call sets (fold the one value in as a constant, or "
        "allow it with a reason):\n"
        + "\n".join(f"{k} line {v}" for k, v in sorted(unexpected.items()))
    )
    stale = sorted(set(ALLOWED_OPTIONS) - set(unset))
    assert not stale, f"allowlist entries that are gone or now set: {stale}"


def test_the_scan_finds_an_unreferenced_definition_and_method(tmp_path):
    pkg = tmp_path / "src"
    pkg.mkdir()
    (pkg / "__main__.py").write_text("from .mod import main\n\nmain()\n")
    (pkg / "mod.py").write_text(
        "LIMIT = 3\n"
        "def main():\n    return helper() + Box().used()\n"
        "def helper():\n    return LIMIT\n"
        "def unused_probe():\n    return chained()\n"
        "def chained():\n    pass\n"
        "class Box:\n"
        "    def used(self):\n        return 1\n"
        "    def unused_method(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
        "__all__ = ['unused_probe']\n"
    )
    (pkg / "__init__.py").write_text("from .mod import chained\n")
    roots = tmp_path / "bench"
    roots.mkdir()
    (roots / "b.py").write_text("print('chained')\n")
    # Neither the re-export, the ``__all__`` entry nor the bench's string
    # reaches ``chained``: only the dead ``unused_probe`` loads it.
    assert dead_definitions(pkg, [roots]) == {
        "mod.unused_probe": 6,
        "mod.chained": 8,
    }
    # A kept definition is still reported, and what it loads is live.
    assert dead_definitions(pkg, [roots], keep={"mod.unused_probe"}) == {
        "mod.unused_probe": 6,
    }
    assert dead_methods(pkg, [roots]) == {"mod.Box.unused_method": 13}


def test_the_option_scan_sees_each_way_to_set_an_option(tmp_path):
    pkg = tmp_path / "src"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, by_kw=1, by_pos=2, unset=3, *, only_kw=4, in_dict=5):\n    pass\n"
        "def handed(x=1):\n    pass\n"
        "class Base:\n"
        "    BOUNDS = {'bounded': None}\n"
        "    def __init__(self, via_super=0, bounded=1, never=2):\n        pass\n"
        "    def method(self, flag=False):\n        pass\n"
        "class Child(Base):\n"
        "    def __init__(self):\n        super().__init__(via_super=1)\n"
        "class Heir(Base):\n    pass\n"
        "@dataclass\n"
        "class Rec:\n"
        "    first: int = 0\n"
        "    stored: int = 0\n"
        "    replaced: int = 0\n"
        "    state: list = field(default_factory=list, init=False)\n"
        "    lonely: int = 0\n"
    )
    callers = tmp_path / "tests"
    callers.mkdir()
    (callers / "t.py").write_text(
        "from mod import *\n"
        "from dataclasses import replace\n"
        "f(0, by_kw=1)\nf(0, 1, 2)\n"
        "ARGS = dict(in_dict=5)\n"
        "f(0, **ARGS)\n"
        "def wrap(**kw):\n    return f(0, **kw)\n"
        "wrap(only_kw=1)\n"
        "print(handed)\n"
        "Heir().method(True)\n"
        "r = Rec(5)\nr.stored = 1\nreplace(r, replaced=2)\n"
    )
    assert set(options(pkg)) == {
        "mod.f(by_kw)", "mod.f(by_pos)", "mod.f(unset)", "mod.f(only_kw)",
        "mod.f(in_dict)",
        "mod.handed(x)", "mod.Base(via_super)", "mod.Base(bounded)",
        "mod.Base(never)", "mod.Base.method(flag)", "mod.Rec.first",
        "mod.Rec.stored", "mod.Rec.replaced", "mod.Rec.lonely",
    }
    # ``in_dict`` is a key of the ``**ARGS`` literal; ``only_kw`` reaches
    # ``f`` only through ``wrap``'s forwarded ``**kw``; ``handed`` is handed
    # on as a value, so its calls are unseen; ``super().__init__`` in a
    # subclass is a call of the base.
    assert unset_options(pkg, [pkg, callers]) == {
        "mod.f(unset)": 2,
        "mod.Base(never)": 8,
        "mod.Rec.lonely": 23,
    }


def _literal_tokens(tree: ast.AST) -> set[str]:
    tokens = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            tokens.update(re.split(r"[\s=,'\"\[\]()]+", node.value))
    return tokens


def _option_strings(parser) -> set[str]:
    found = set()
    for action in parser._actions:
        found.update(s for s in action.option_strings if s not in ("-h", "--help"))
        if isinstance(action.choices, dict):  # the subcommands
            for sub in action.choices.values():
                found |= _option_strings(sub)
    return found


def test_every_cli_flag_is_named_by_a_test():
    tokens = set()
    for tree in _trees_under([REPO / "tests"]):
        tokens |= _literal_tokens(tree)
    flags = _option_strings(build_parser())
    assert len(flags) > 30  # the walk really reached the subcommands
    untested = sorted(flags - tokens)
    assert not untested, f"CLI flags that no test names: {untested}"
