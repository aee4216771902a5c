"""Only ``cli`` knows an output format.

The reports the library returns are plain data; the CLI renders every CSV
table it writes from their fields.  This check finds, with the standard
``ast`` module, a function or method named ``csv*``, or an f-string that
formats a value with the ``.12e`` spec of the CSV tables, in any other
package module.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "periodicflow").glob("*.py"))
OWNER = "cli.py"
SPEC = ".12e"


def format_code(source: str) -> list[str]:
    """Each ``csv*`` function and each ``.12e`` f-string field of ``source``, with its line, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("csv"):
            found.append((node.lineno, node.col_offset, f"def {node.name}"))
        elif isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            spec = "".join(part.value for part in node.format_spec.values if isinstance(part, ast.Constant))
            if spec == SPEC:
                found.append((node.lineno, node.col_offset, f"f-string {SPEC}"))
    return [f"{what} (line {line})" for line, _, what in sorted(found)]


def test_the_check_finds_every_format_function_and_spec():
    source = (
        "class Report:\n    def csv_rows(self):\n        return [f'{self.x:.12e},{self.n}']\n"
        "def csv(x):\n    return f'{x:.3e} {x:g}'\n"
        "def rows(x):\n    return 'csv', format(x, '.12e'), f'{x:.12f}'\n"
    )
    assert format_code(source) == ["def csv_rows (line 2)", "f-string .12e (line 3)", "def csv (line 4)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_cli_knows_the_csv_format(path):
    found = format_code(path.read_text())
    if path.name == OWNER:
        assert found
    else:
        assert found == []
