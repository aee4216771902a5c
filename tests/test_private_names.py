"""Every private module-level name of the package is used in the package beyond its definition.

A helper that only tests call is production code that exists for a test; this
check finds one with the standard ``ast`` module.  A name counts as used when
a statement other than its own definition reads it, in any package module.
The command line reads ``diagnostics`` through its public names only: a
number the CLI prints is one the library reports.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "periodicflow").glob("*.py"))


def defined_names(statement: ast.stmt) -> set[str]:
    """Private names a module-level statement binds (dunder names excluded)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {statement.name}
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
    else:
        names = set()
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(statement: ast.stmt) -> set[str]:
    """Names a statement reads, as plain names or as attributes."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private module-level name that no other statement reads."""
    definitions = []
    used = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            own = defined_names(statement)
            definitions.extend(f"{module}:{name}" for name in sorted(own))
            used |= read_names(statement) - own
    return [entry for entry in definitions if entry.split(":", 1)[1] not in used]


def test_the_check_finds_an_unused_private_name():
    sources = {
        "a": "_LIMIT = 3\n_SEEN: int = 0\n\ndef _helper():\n    return _helper() + _LIMIT\n",
        "b": "from .a import _SEEN\n\ndef run():\n    return _SEEN\n\n__all__ = ['run']\n",
    }
    assert unused_private_names(sources) == ["a:_helper"]


def test_every_private_name_has_a_user_in_the_package():
    assert unused_private_names({path.stem: path.read_text() for path in SOURCES}) == []


def private_names_read_from(source: str, module: str) -> list[str]:
    """Private names ``source`` imports from the package module ``module`` or reads as its attributes."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"periodicflow.{module}"):
            names.extend(alias.name for alias in node.names if alias.name.startswith("_"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == module:
            if node.attr.startswith("_"):
                names.append(node.attr)
    return names


def test_the_check_finds_a_private_name_read_from_a_module():
    source = (
        "from .diagnostics import EnergyReport, _gap\n"
        "from periodicflow.diagnostics import _scale\n"
        "from . import diagnostics\n"
        "from .fourier import _FLOOR\n"
        "value = diagnostics._floor + diagnostics.norms(_FLOOR)\n"
    )
    assert private_names_read_from(source, "diagnostics") == ["_gap", "_scale", "_floor"]


def test_the_cli_reads_diagnostics_through_public_names_only():
    cli = next(path for path in SOURCES if path.stem == "cli")
    assert private_names_read_from(cli.read_text(), "diagnostics") == []
