"""``src/repro`` reads and writes no environment variable: behaviour is set
by arguments, so two runs of one command line cannot differ by what the
shell exported. The scripts beside it (``benchmarks/``, ``examples/``,
``tools/``) keep the same rule: a benchmark's scale is ``--full``, not a
variable. Checked on the syntax tree, not with grep, so a docstring may
mention a variable but no code may touch one."""

import ast
from pathlib import Path

import pytest

import repro

FORBIDDEN = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _environment_uses(tree: ast.AST):
    os_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "os"
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FORBIDDEN
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in FORBIDDEN:
                    yield node.lineno, f"from os import {alias.name}"


def _found(root: Path, min_sources: int) -> list[str]:
    sources = sorted(root.rglob("*.py"))
    assert len(sources) >= min_sources  # the walk really found the files
    return [
        f"{path.relative_to(root)}:{line}: {what}"
        for path in sources
        for line, what in _environment_uses(ast.parse(path.read_text(), str(path)))
    ]


def test_src_touches_no_environment_variable():
    found = _found(Path(repro.__file__).parent, 100)
    assert not found, "environment access in src/repro:\n" + "\n".join(found)


@pytest.mark.parametrize("directory", ["benchmarks", "examples", "tools"])
def test_scripts_touch_no_environment_variable(directory):
    found = _found(Path(__file__).resolve().parents[1] / directory, 1)
    assert not found, f"environment access in {directory}/:\n" + "\n".join(found)


def test_the_walker_sees_every_spelling():
    code = (
        "import os\nimport os as _os\nfrom os import getenv\n"
        "a = os.environ.get('X')\nb = _os.getenv('X')\nos.putenv('X', '1')\n"
        "c = os.path.join('a', 'b')\n"
    )
    assert sorted(_environment_uses(ast.parse(code))) == [
        (3, "from os import getenv"), (4, "os.environ"), (5, "os.getenv"), (6, "os.putenv"),
    ]  # fmt: skip
