"""Only ``fourier.py`` touches an FFT module.

The package has one transform layer: every forward and inverse transform, and
every shared derivative pass, runs in ``fourier``.  Transform counts taken by
wrapping that module's functions rely on it.  This check finds an FFT import
or an ``np.fft`` reference in any other module with the standard ``ast``
module.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "periodicflow").glob("*.py"))
FFT_MODULES = ("scipy.fft", "scipy.fftpack", "numpy.fft", "np.fft")
TRANSFORM_LAYER = "fourier.py"


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_transform_layer_uses_fft(path):
    uses = fft_uses(path.read_text())
    if path.name == TRANSFORM_LAYER:
        assert uses
    else:
        assert uses == []
