"""Each linear symbol is stated once, in ``domain``, ``fourier`` or ``multipliers``.

The solver's certificate rests on one fact: the manufactured forcing, the
pressure and the momentum residual use the very symbols the resolvent
inverts, and ``marcinkiewicz_probe`` samples those same kernels off the
lattice.  So each linear symbol is formed once: ``domain`` holds the 1-d
factors, ``fourier`` forms the space derivatives i xi, and ``multipliers``
the time derivative i omega, the Oseen symbol, its separate terms and the
projections.  These checks read the sources with the standard ``ast``
module, by what the code reads, whatever it names its variables:

- no other package module reads ``omega``, ``xi``, ``xi1``, ``xi2``, ``xi3``
  or ``xi_sq``, and no module but ``multipliers`` reads ``omega``;
- in ``multipliers`` only ``_oseen_terms`` reads the drift speed ``lam``;
- the branch of (i omega)^(1/2) is chosen in one function,
  ``multipliers._half_time_factor``: every ``sqrt`` of ``omega``, and every
  ``sqrt`` of an argument holding the constant ``1j``, lies in it.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "periodicflow").glob("*.py"))
OWNERS = {"domain.py", "fourier.py", "multipliers.py"}
FACTORS = {"omega", "xi", "xi1", "xi2", "xi3", "xi_sq"}


def factor_reads(source: str, factors: set[str] = FACTORS) -> list[str]:
    """Each attribute read of one of ``factors`` in ``source``, with its line, in source order."""
    reads = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in factors and isinstance(node.ctx, ast.Load)
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


def test_the_check_finds_every_time_frequency_read():
    source = "d = c * (1j * spec.grid.omega)\nomega = 2\ng.omega = w\nsym = grid.xi_sq + g.omega[t]\n"
    assert factor_reads(source, {"omega"}) == ["omega (line 1)", "omega (line 4)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_multipliers_reads_the_time_frequency(path):
    reads = factor_reads(path.read_text(), {"omega"})
    if path.name == "multipliers.py":
        assert reads
    else:
        assert reads == []


def innermost_functions(tree: ast.AST) -> dict[ast.AST, str]:
    """The name of the innermost function around each node of ``tree`` that lies in one."""
    owner = {}
    for function in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                owner[node] = function.name
    return owner


def in_source_order(nodes: list[ast.AST], owner: dict[ast.AST, str]) -> list[str]:
    """The innermost function around each of ``nodes``, ``<module>`` outside any, in source order."""
    return [owner.get(node, "<module>") for node in sorted(nodes, key=lambda n: (n.lineno, n.col_offset))]


def attribute_readers(source: str, attr: str) -> list[str]:
    """The innermost function around each read of ``.attr`` in ``source``, in source order."""
    tree = ast.parse(source)
    reads = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load)
    ]
    return in_source_order(reads, innermost_functions(tree))


def test_the_reader_check_finds_every_read_of_the_drift_speed():
    source = (
        "def terms(p):\n    return -p.lam * x\n"
        "def symbol(g, p):\n    def inner():\n        return g.omega - p.lam * g.xi1\n    return inner\n"
        "lam = 0.0\np.lam = 1.0\nq = Params(lam=2.0).lam\n"
    )
    assert attribute_readers(source, "lam") == ["terms", "inner", "<module>"]


def test_only_the_oseen_terms_read_the_drift_speed_in_multipliers():
    """The drift term -lam i xi1 is formed in ``_oseen_terms``; the symbol, the probe and the rest sum or call it."""
    (path,) = [path for path in SOURCES if path.name == "multipliers.py"]
    assert attribute_readers(path.read_text(), "lam") == ["_oseen_terms"]


def sqrt_owners(source: str, marked) -> list[str]:
    """The innermost function around each ``sqrt`` call holding a node that ``marked`` accepts, in source order."""
    tree = ast.parse(source)
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "sqrt"
        and any(marked(inner) for inner in ast.walk(node))
    ]
    return in_source_order(calls, innermost_functions(tree))


def omega_roots(source: str) -> list[str]:
    """The innermost function around each ``sqrt`` call of ``source`` that reads ``omega``, in source order."""
    return sqrt_owners(source, lambda node: isinstance(node, ast.Attribute) and node.attr == "omega")


def imaginary_roots(source: str) -> list[str]:
    """The innermost function around each ``sqrt`` call of ``source`` holding the constant ``1j``, in source order."""
    return sqrt_owners(source, lambda node: isinstance(node, ast.Constant) and node.value == 1j)


def test_the_root_check_finds_every_root_of_omega():
    source = (
        "def half(g):\n    return np.sqrt(1j * g.omega)\n"
        "def outer(g):\n    def inner():\n        return sqrt(g.omega[t])\n    return np.sqrt(g.xi_sq)\n"
    )
    assert omega_roots(source) == ["half", "inner"]


def test_the_root_check_finds_every_root_of_an_imaginary_argument():
    source = (
        "def half(g):\n    return np.sqrt(1j * g.omega)\n"
        "def probe(eta):\n    def regularity(x):\n        return np.sqrt(1j * eta) * x\n    return regularity\n"
        "z = np.sqrt(w * 1j) + sqrt(2.0 * w) + np.sqrt(1.0)\n"
    )
    assert imaginary_roots(source) == ["half", "regularity", "<module>"]


def test_the_principal_root_of_i_omega_is_chosen_in_one_place():
    """(i omega)^(1/2) has two branches; one function picks the principal one, and every root of omega is its."""
    roots = [(path.name, function) for path in SOURCES for function in omega_roots(path.read_text())]
    assert roots == [("multipliers.py", "_half_time_factor")]


def test_every_root_of_an_imaginary_argument_is_the_principal_root():
    """A root of i times a frequency, however the frequency is named, is taken only where the branch is chosen."""
    found = [(path.name, function) for path in SOURCES for function in imaginary_roots(path.read_text())]
    assert found == [("multipliers.py", "_half_time_factor")]
