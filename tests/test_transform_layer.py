"""Only ``fourier.py`` touches an FFT module.

The package has one transform layer: every forward and inverse transform, and
every shared derivative pass, runs in ``fourier``.  Transform counts taken by
wrapping that module's functions rely on it.  This check finds an FFT import
or an ``np.fft`` reference in any other module with the standard ``ast``
module.  Within ``fourier`` it pins the FFT functions to the ones the pass
tree, the forward transform and the transport pipeline need (its forward
passes are ``rfft`` over x1 and ``fft`` over x2, x3 and time): a multi-axis
inverse such as ``irfftn`` would copy its whole complex input, and a complex
``fftn`` would transform twice the data a real transform does.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "periodicflow").glob("*.py"))
FFT_MODULES = ("scipy.fft", "scipy.fftpack", "numpy.fft", "np.fft")
TRANSFORM_LAYER = "fourier.py"
LAYER_FUNCTIONS = {"ifft", "irfft", "rfft", "fft"}


def is_fft(name: str) -> bool:
    return any(name == module or name.startswith(module + ".") for module in FFT_MODULES)


def fft_uses(source: str) -> list[str]:
    """Each imported FFT name and each ``<module>.fft`` attribute in ``source``, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            names = []
        found += [f"{name} (line {node.lineno})" for name in names if is_fft(name)]
    return found


def test_the_check_finds_every_form_of_fft_use():
    source = (
        "import numpy as np\nimport scipy.fft\nfrom scipy import fft as f\n"
        "from numpy.fft import rfft\nx = np.fft.fftfreq(4)\nfrom scipy import linalg\n"
    )
    assert fft_uses(source) == [
        "scipy.fft (line 2)",
        "scipy.fft (line 3)",
        "numpy.fft.rfft (line 4)",
        "np.fft (line 5)",
    ]


def fft_functions(source: str) -> set[str]:
    """Names of the FFT functions ``source`` reaches: imported directly, or as attributes of an FFT module."""
    tree = ast.parse(source)
    modules = set(FFT_MODULES)  # expressions that name an FFT module, aliases added below
    functions = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if is_fft(alias.name)}
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if name in FFT_MODULES:
                    modules.add(alias.asname or alias.name)
                elif is_fft(name):
                    functions.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules:
            functions.add(node.attr)
    return functions


def test_the_check_names_every_fft_function_reached():
    source = (
        "import numpy as np\nimport scipy.fft\nfrom scipy import fft as _fft\nfrom numpy.fft import irfft2\n"
        "a = _fft.irfftn(x)\nb = scipy.fft.fftn(x)\nc = np.fft.ifft(x)\nd = _fft.rfftn(x)\n"
    )
    assert fft_functions(source) == {"irfftn", "fftn", "ifft", "irfft2", "rfftn"}
    assert fft_functions(source) - LAYER_FUNCTIONS == {"irfftn", "fftn", "irfft2", "rfftn"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_transform_layer_uses_fft(path):
    source = path.read_text()
    uses = fft_uses(source)
    if path.name == TRANSFORM_LAYER:
        assert uses
        assert fft_functions(source) <= LAYER_FUNCTIONS
    else:
        assert uses == []


def test_the_package_and_its_cli_load_no_scipy():
    """numpy is the one runtime dependency: a fresh interpreter importing the library and its CLI loads no scipy module."""
    path = os.pathsep.join(filter(None, [str(SOURCES[0].parents[1]), os.environ.get("PYTHONPATH")]))
    code = "import sys, periodicflow, periodicflow.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
