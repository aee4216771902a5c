"""Only ``domain``, ``fourier`` and ``multipliers`` read a grid's frequency factors.

The solver's certificate rests on one fact: the manufactured forcing, the
pressure and the momentum residual use the very symbols the resolvent
inverts.  So each linear symbol is formed once: ``domain`` holds the 1-d
factors, ``fourier`` forms the derivatives i xi and i omega, and
``multipliers`` the Oseen symbol, its separate terms and the projections.
This check finds, with the standard ``ast`` module, a read of ``omega``,
``xi``, ``xi1``, ``xi2``, ``xi3`` or ``xi_sq`` in any other package module.
A second check finds each ``sqrt`` of ``omega``: the branch of (i omega)^(1/2)
is chosen in one function, ``multipliers._half_time_factor``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "periodicflow").glob("*.py"))
OWNERS = {"domain.py", "fourier.py", "multipliers.py"}
FACTORS = {"omega", "xi", "xi1", "xi2", "xi3", "xi_sq"}


def factor_reads(source: str) -> list[str]:
    """Each attribute read of a frequency factor in ``source``, with its line, in source order."""
    reads = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in FACTORS and isinstance(node.ctx, ast.Load)
    ]
    return [f"{node.attr} (line {node.lineno})" for node in sorted(reads, key=lambda n: (n.lineno, n.col_offset))]


def test_the_check_finds_every_factor_read():
    source = (
        "sym = grid.xi_sq + 1j * (g.omega[t] - lam * grid.xi1)\n"
        "dx = [c * xi for xi in spec.grid.xi]\n"
        "grid.xi3 = 0\nk = grid.k_modes\nxi2 = 2\n"
    )
    assert factor_reads(source) == ["xi_sq (line 1)", "omega (line 1)", "xi1 (line 1)", "xi (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_symbol_owners_read_frequency_factors(path):
    reads = factor_reads(path.read_text())
    if path.name in OWNERS:
        assert reads
    else:
        assert reads == []


def omega_roots(source: str) -> list[str]:
    """The innermost function around each ``sqrt`` call of ``source`` that reads ``omega``, in source order."""
    tree = ast.parse(source)
    owner = {}
    for function in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                owner[node] = function.name
    roots = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "sqrt"
        and any(isinstance(inner, ast.Attribute) and inner.attr == "omega" for inner in ast.walk(node))
    ]
    return [owner.get(node, "<module>") for node in sorted(roots, key=lambda n: (n.lineno, n.col_offset))]


def test_the_root_check_finds_every_root_of_omega():
    source = (
        "def half(g):\n    return np.sqrt(1j * g.omega)\n"
        "def outer(g):\n    def inner():\n        return sqrt(g.omega[t])\n    return np.sqrt(g.xi_sq)\n"
    )
    assert omega_roots(source) == ["half", "inner"]


def test_the_principal_root_of_i_omega_is_chosen_in_one_place():
    """(i omega)^(1/2) has two branches; one function picks the principal one, and every root of omega is its."""
    roots = [(path.name, function) for path in SOURCES for function in omega_roots(path.read_text())]
    assert roots == [("multipliers.py", "_half_time_factor")]
