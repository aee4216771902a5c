"""Only ``fourier._lattice_dot`` reads the lattice weights.

A stored half spectrum counts each mode off the n1 = 0 and n1 = N1/2 planes
twice, once for its conjugate partner (``grid.x1_weight``).  Every
whole-lattice norm and inner product of the package goes through
``fourier._lattice_dot``, so the weights are applied in one place.  This
check finds every use of the name ``x1_weight`` in the package with the
standard ``ast`` module: an attribute read, or the name as a string, as
``setattr`` and ``getattr`` take it.  ``domain`` sets the attribute by name
once; ``_lattice_dot`` reads it; nothing else may touch it.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "periodicflow").glob("*.py"))
WEIGHTS = "x1_weight"


def weight_uses(source: str) -> list[tuple[str, str]]:
    """(enclosing function, "read" or "named") of each use of ``x1_weight`` in ``source``."""
    uses = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Attribute) and node.attr == WEIGHTS:
            uses.append((scope, "read"))
        elif isinstance(node, ast.Constant) and node.value == WEIGHTS:
            uses.append((scope, "named"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return uses


def test_the_check_flags_a_planted_second_read():
    source = (
        "def _lattice_dot(a, b, grid):\n    return grid.x1_weight\n"
        "def energy(u, grid):\n    w = grid.x1_weight\n    return getattr(grid, 'x1_weight')\n"
        "weights = GRID.x1_weight\n"
    )
    assert weight_uses(source) == [
        ("_lattice_dot", "read"),
        ("energy", "read"),
        ("energy", "named"),
        ("<module>", "read"),
    ]


def test_only_lattice_dot_reads_the_weights_and_only_the_grid_defines_them():
    uses = {(path.name, scope, kind) for path in SOURCES for scope, kind in weight_uses(path.read_text())}
    assert uses == {("domain.py", "__post_init__", "named"), ("fourier.py", "_lattice_dot", "read")}
