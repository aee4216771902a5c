"""The public surface: each module's ``__all__`` is the one list of its names.

The package star-imports its modules, so a name exported by two modules would
silently shadow one of them; these tests pin the one-list design instead.
They also pin the public-name rule: every exported name has a user outside
the tests, listed in ``USERS``.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import periodicflow

ROOT = Path(__file__).resolve().parents[1]
CLI = "src/periodicflow/cli.py"


def module_file(name):
    return f"src/periodicflow/{name}.py"


# Each exported name and one user outside the tests: a file that names it (the
# CLI, another module, the acceptance tests, the benchmark or the README), or
# "return type of <f>" for a type that an exported function returns, directly
# or in a field of its result.
USERS = {
    "OseenTerms": "return type of norms",
    "NormReport": CLI,
    "EnergyReport": CLI,
    "SpectrumTable": CLI,
    "RegularityReport": "return type of regularity_bootstrap_check",
    "norms": CLI,
    "energy_balance": CLI,
    "cross_orthogonality": "tests/test_acceptance.py",
    "energy_inequality_check": CLI,
    "spectrum_decay": CLI,
    "regularity_bootstrap_check": "tests/test_acceptance.py",
    "Params": CLI,
    "Grid": CLI,
    "SolverError": CLI,
    "MeanModeNonzero": CLI,
    "NoConvergence": CLI,
    "Diverging": CLI,
    "NotSolenoidal": module_file("forcing"),
    "NotAGradient": module_file("solver"),
    "NotHermitian": module_file("fourier"),
    "FieldFormatError": CLI,
    "GridMismatch": module_file("fieldio"),
    "write_field": CLI,
    "read_field": CLI,
    "load_config": CLI,
    "manufactured": CLI,
    "manufactured_preset": CLI,
    "random_smooth": CLI,
    "PRESET_NAMES": CLI,
    "PhysicalField": CLI,
    "SpectralField": module_file("solver"),
    "forward": CLI,
    "inverse": CLI,
    "time_mean_part": module_file("solver"),
    "oscillatory_part": module_file("diagnostics"),
    "spatial_derivative": module_file("forcing"),
    "time_derivative": module_file("forcing"),
    "gradient": module_file("solver"),
    "divergence": module_file("forcing"),
    "laplacian": module_file("forcing"),
    "spectral_sum": module_file("diagnostics"),
    "coeff_norm": module_file("solver"),
    "helmholtz": module_file("solver"),
    "oseen_apply": "tests/test_acceptance.py",
    "oseen_inverse": module_file("solver"),
    "half_time_derivative": module_file("diagnostics"),
    "regularity_multiplier_bound": module_file("diagnostics"),
    "MultiplierReport": CLI,
    "marcinkiewicz_probe": CLI,
    "PROBE_SYMBOLS": CLI,
    "convective": module_file("solver"),
    "dealiased_tensor_product": module_file("diagnostics"),
    "SolverConfig": CLI,
    "Solution": "return type of solve",
    "split": "tests/test_acceptance.py",
    "picard_step": "benchmarks/workloads.py",
    "solve": CLI,
    "recover_pressure": "README.md",
    "pde_residual": CLI,
    "__version__": "benchmarks/run.py",
}
RETURN_TYPE_OF = "return type of "

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


def owners():
    return {name: module.__name__.rsplit(".", 1)[1] for module in library_modules() for name in module.__all__}


def returned_annotations(function_name):
    """The return annotation of an exported function and the field annotations of that type."""
    returned = inspect.signature(getattr(periodicflow, function_name)).return_annotation
    fields = getattr(getattr(periodicflow, str(returned), None), "__annotations__", {})
    return " ".join([str(returned), *map(str, fields.values())])


def test_users_table_lists_exactly_the_exported_names():
    assert set(USERS) == set(periodicflow.__all__)


def test_every_exported_name_has_a_user_outside_the_tests():
    owner = owners()
    for name, user in USERS.items():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if user.startswith(RETURN_TYPE_OF):
            function_name = user[len(RETURN_TYPE_OF):]
            assert function_name in periodicflow.__all__, name
            assert word.search(returned_annotations(function_name)), f"{name}: {user}"
            continue
        path = Path(user)
        library_user = path.parent == Path("src/periodicflow") and path.stem != owner.get(name)
        assert library_user or user in ("tests/test_acceptance.py", "README.md") or path.parts[0] == "benchmarks", (
            f"{name}: {user} is not the CLI, another module, the acceptance tests, the benchmark or the README"
        )
        assert word.search((ROOT / path).read_text()), f"{name} is not named in {user}"
