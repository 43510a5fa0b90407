"""``src/repro`` holds no code that only tests reach.

Three checks on the syntax tree, so none can drift back in unnoticed.

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
dead when its name is loaded as an attribute nowhere in the source, the
tests, the benches, the examples or the tools, and no string constant in
``src/repro`` spells it (a ``getattr`` dispatch).

*CLI flags.* Every option string of ``cli.build_parser()`` appears as a
token of some string literal under ``tests/``, so no flag ships untested.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parents[1]
ROOT_DIRS = ("bench", "benchmarks", "examples", "tools")

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
    """``{"module.Class.method": line}`` for public methods nothing names."""
    trees = list(_modules(src).items())
    referenced: set[str] = set()
    for tree in [t for _, t in trees] + _trees_under(reference_dirs):
        referenced |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    for _, tree in trees:
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
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_public_method_is_named_somewhere():
    dead = dead_methods(SRC, [REPO / d for d in ("tests", *ROOT_DIRS)])
    assert not dead, "public methods nothing calls:\n" + _report(dead)


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
