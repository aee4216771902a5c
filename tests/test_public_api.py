"""The public surface: each module's ``__all__`` is the one list of its names.

The package star-imports its modules, so a name exported by two modules would
silently shadow one of them; these tests pin the one-list design instead.
"""

import importlib
import pkgutil

import periodicflow

# ``cli`` is the command (reached as ``periodicflow.cli.main``), ``__main__`` runs it.
NOT_STAR_IMPORTED = {"cli", "__main__"}


def library_modules():
    return [
        importlib.import_module(f"periodicflow.{info.name}")
        for info in pkgutil.iter_modules(periodicflow.__path__)
        if info.name not in NOT_STAR_IMPORTED
    ]


def test_every_exported_name_is_bound_and_public():
    for module in library_modules():
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            assert not name.startswith("_"), f"{module.__name__}.{name}"


def test_no_name_is_exported_by_two_modules():
    owner = {}
    for module in library_modules():
        for name in module.__all__:
            assert name not in owner, f"{name} is exported by {owner.get(name)} and {module.__name__}"
            owner[name] = module.__name__


def test_package_exports_exactly_the_union():
    union = {name for module in library_modules() for name in module.__all__}
    assert len(set(periodicflow.__all__)) == len(periodicflow.__all__)
    assert set(periodicflow.__all__) == union | {"__version__"}


def test_exported_objects_are_the_modules_own():
    for module in library_modules():
        for name in module.__all__:
            assert getattr(periodicflow, name) is getattr(module, name), f"{module.__name__}.{name}"
