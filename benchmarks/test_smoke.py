"""Smoke test of the benchmark: each workload's code path on grids of at most 8^4.

    PYTHONPATH=src python -m pytest -q benchmarks/test_smoke.py

Kept out of the tier-1 suite (``testpaths`` is ``tests``); it runs in seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import periodicflow  # noqa: E402
from child import run_sample  # noqa: E402
from run import END_TO_END_UNITS, WORKLOADS  # noqa: E402
from tracer import PER_LAYER_UNITS, TRACED, Tracer, TraceError, layer_metrics  # noqa: E402
from workloads import norms_rel_dev  # noqa: E402

FROM_PARENT = {"trace.overhead_frac", "accuracy.pde_residual", "accuracy.u_err_max", "accuracy.norms_rel_dev"}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_traced_at_small_size(name, tmp_path):
    result = run_sample(name, seed=3, work=tmp_path, trace=True, small=True)
    assert result["failures"] == []
    assert result["setup_s"] > 0 and result["run_s"] > 0
    layers = layer_metrics(result["spans"], result["fft_floor_s"], result["grid_bytes"])
    assert set(layers) | FROM_PARENT == set(PER_LAYER_UNITS)
    assert layers["solver.picard_step.calls"] == layers["solver.iterations"]
    if name == "verify-norms-24":
        assert layers["solver.iterations"] == 0
        assert layers["fieldio.read_field.calls"] == 5
        assert layers["diagnostics.norms.calls"] == 2
    else:
        assert layers["solver.iterations"] == result["accuracy"]["iterations"] > 0
        assert layers["solver.transforms_per_step"] == 15
    if name == "pipeline-32":
        assert layers["fieldio.write_field.calls"] == 5
        assert layers["cli.main.s"] >= layers["solver.solve.s"] > 0
    # The tracer is gone after the sample.
    assert periodicflow.solver.forward is periodicflow.fourier.forward
    assert not hasattr(periodicflow.fourier.forward, "__wrapped__")


def test_guard_rejects_a_binding_the_tracer_missed():
    tracer = Tracer()
    tracer.install()
    try:
        original = periodicflow.fourier.forward.__wrapped__
        periodicflow.solver._hidden = (original,)
        with pytest.raises(TraceError, match="fourier.forward"):
            tracer.check_complete()
    finally:
        del periodicflow.solver._hidden
        tracer.uninstall()


def test_install_fails_when_a_traced_function_is_gone(monkeypatch):
    monkeypatch.setitem(TRACED, ("fourier", "no_such_transform"), None)
    with pytest.raises(TraceError, match="no_such_transform"):
        Tracer().install()


def test_norms_deviation_is_relative_above_the_rounding_floor():
    reference = [[1.0, 2e-15]]
    assert norms_rel_dev([[1.0 + 1e-10, 3e-15]], reference) < 1e-9
    assert norms_rel_dev([[1.0 + 1e-8, 2e-15]], reference) > 1e-9
    assert norms_rel_dev([[1.0]], reference) == float("inf")


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_fails_without_the_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "picard-aniso", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
