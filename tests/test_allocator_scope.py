"""Only ``cli.py`` touches the C allocator, and only when ``main`` runs.

The CLI is a one-shot process and tunes glibc's allocator for itself; a
library must leave its host's allocator alone.  This check finds a ``ctypes``
import or a ``mallopt`` mention in any other module with the standard ``ast``
module, and finds a call of the CLI's allocator policy outside ``main``,
where importing ``periodicflow.cli`` would run it.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "periodicflow").glob("*.py"))
ALLOCATOR_OWNER = "cli.py"
POLICY = "_keep_freed_memory"


def allocator_uses(source: str) -> list[str]:
    """Each ``ctypes`` import and each ``mallopt`` name, attribute or string in ``source``, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            names = []
        found += [(node.lineno, name) for name in names if name.split(".")[0] == "ctypes" or "mallopt" in name]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def policy_calls_outside_main(source: str) -> list[int]:
    """Lines that call the allocator policy anywhere but in the body of ``main``."""
    tree = ast.parse(source)
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "main":
            inside = {id(n) for n in ast.walk(node)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == POLICY and id(node) not in inside]


def test_the_check_finds_every_form_of_allocator_use():
    source = (
        "import ctypes\nfrom ctypes import CDLL\nimport ctypes.util\nlib.mallopt(-1, 0)\n"
        "getattr(lib, 'mallopt')\nmallopt = None\nimport os\n"
    )
    assert allocator_uses(source) == [
        "ctypes (line 1)",
        "ctypes (line 2)",
        "ctypes.util (line 3)",
        "mallopt (line 4)",
        "mallopt (line 5)",
        "mallopt (line 6)",
    ]


def test_the_check_finds_a_policy_call_outside_main():
    source = f"{POLICY}()\ndef main():\n    {POLICY}()\ndef other():\n    {POLICY}()\n"
    assert policy_calls_outside_main(source) == [1, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_cli_touches_the_allocator(path):
    source = path.read_text()
    if path.name == ALLOCATOR_OWNER:
        assert allocator_uses(source)
        assert policy_calls_outside_main(source) == []
    else:
        assert allocator_uses(source) == []
