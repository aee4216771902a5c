"""Every exception class of ``errors.py`` is raised in the package or is the base of another.

An exception type that nothing raises promises a failure mode the package no
longer has; a mention in a docstring or an ``__all__`` list does not count.
The check reads the sources with the standard ``ast`` module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "periodicflow"


def raised_names(source: str) -> set[str]:
    """Names a ``raise`` statement raises, called or bare, plain or as attributes."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def orphaned_errors(errors_source: str, sources: list[str]) -> list[str]:
    """Classes of ``errors_source`` that no source raises and no class there derives from."""
    classes = [node for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    raised = set().union(*(raised_names(source) for source in sources))
    return [node.name for node in classes if node.name not in raised | bases]


def test_the_check_finds_an_exception_nothing_raises():
    errors = (
        "class Base(Exception):\n    pass\n\n"
        "class Raised(Base):\n    pass\n\n"
        "class Mentioned(Base):\n    pass\n"
    )
    user = (
        "from . import errors\n\n"
        "def run(x):\n"
        '    """Never raises Mentioned."""\n'
        "    if x:\n"
        "        raise errors.Raised('bad')\n"
    )
    assert orphaned_errors(errors, [errors, user]) == ["Mentioned"]


def test_every_error_class_is_raised_or_a_base():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert orphaned_errors((PACKAGE / "errors.py").read_text(), sources) == []
