"""Span tracing of periodicflow's layers, installed from outside the package.

``Tracer.install`` replaces each traced public function, in every periodicflow
module namespace that binds it, with a wrapper that records a span (name,
start, end, parent, units, bytes) in memory.  Modules import names directly
(``solver.forward``, ``nonlinear.inverse``), so wrapping only the defining
module would miss those calls.  ``Grid`` is traced through its
``__post_init__``, where it builds its arrays.

``layer_metrics`` turns the spans into the benchmark's per-layer metrics.  A
span's self time is its duration minus the time covered by its traced
children.  Spans hang off three phase spans, ``setup``, ``run`` and
``check``: the ``forcing`` and ``domain`` metrics sum over set-up and run
(they feed ``setup_s``), every other metric over the run alone.

This module imports periodicflow only inside ``Tracer.install``, so the
benchmark runner can summarize spans without importing the package.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from contextlib import contextmanager


def _forward_count(args, kwargs, result):
    return result.components, result.coeffs.nbytes * 3 // 2


def _inverse_count(args, kwargs, result):
    return result.components, result.values.nbytes * 3


def _written_bytes(args, kwargs, result):
    field = args[1] if len(args) > 1 else kwargs["field"]
    return 0, field.values.nbytes


# (module, function) -> hook returning (units, bytes) from (args, kwargs, result).
# Units are scalar transforms for the transforms, iterations for ``solve`` and
# exponents q for ``norms``.  Transform bytes are computed from the array
# sizes (input plus output), not measured.
TRACED = {
    ("fourier", "forward"): _forward_count,
    ("fourier", "inverse"): _inverse_count,
    ("multipliers", "helmholtz"): None,
    ("multipliers", "oseen_inverse"): None,
    ("nonlinear", "convective"): None,
    ("solver", "solve"): lambda args, kwargs, result: (result.iterations, 0),
    ("solver", "picard_step"): None,
    ("solver", "recover_pressure"): None,
    ("solver", "pde_residual"): None,
    ("forcing", "manufactured"): None,
    ("forcing", "random_smooth"): None,
    ("diagnostics", "norms"): lambda args, kwargs, result: (len(result.lq), 0),
    ("diagnostics", "energy_balance"): None,
    ("diagnostics", "spectrum_decay"): None,
    ("fieldio", "write_field"): _written_bytes,
    ("fieldio", "read_field"): lambda args, kwargs, result: (0, result.values.nbytes),
    ("cli", "main"): None,
}
GRID_SPAN = "domain.Grid"

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "fourier.forward.calls": "count",
    "fourier.forward.self_s": "s",
    "fourier.inverse.calls": "count",
    "fourier.inverse.self_s": "s",
    "fourier.scalar_transforms": "count",
    "fourier.bytes_computed": "bytes",
    "fourier.fft_floor_s": "s",
    "multipliers.helmholtz.calls": "count",
    "multipliers.helmholtz.self_s": "s",
    "multipliers.oseen_inverse.calls": "count",
    "multipliers.oseen_inverse.self_s": "s",
    "nonlinear.convective.calls": "count",
    "nonlinear.convective.self_s": "s",
    "solver.solve.s": "s",
    "solver.iterations": "count",
    "solver.picard_step.calls": "count",
    "solver.picard_step.self_s": "s",
    "solver.step_ms": "ms",
    "solver.transforms_per_step": "count",
    "solver.step_floor_ratio": "ratio",
    "solver.recover_pressure.s": "s",
    "solver.pde_residual.s": "s",
    "forcing.manufactured.s": "s",
    "forcing.random_smooth.s": "s",
    "diagnostics.norms.calls": "count",
    "diagnostics.norms.s": "s",
    "diagnostics.norms.inverse_per_q": "count",
    "diagnostics.energy_balance.s": "s",
    "diagnostics.spectrum_decay.s": "s",
    "fieldio.write_field.calls": "count",
    "fieldio.write_field.s": "s",
    "fieldio.write_field.bytes": "bytes",
    "fieldio.read_field.calls": "count",
    "fieldio.read_field.s": "s",
    "fieldio.read_field.bytes": "bytes",
    "domain.Grid.s": "s",
    "domain.grid_bytes": "bytes",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
    "accuracy.pde_residual": "rel",
    "accuracy.u_err_max": "abs",
    "accuracy.norms_rel_dev": "rel",
}


class TraceError(RuntimeError):
    """A traced function is missing, or some periodicflow module calls it untraced."""


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "periodicflow" or name.startswith("periodicflow."))
    ]


def _bound_values(value):
    """The value itself and what it holds one level down: items, defaults, class attributes."""
    yield value
    if isinstance(value, (tuple, list, set, frozenset)):
        yield from value
    elif isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, type):
        yield from vars(value).values()
    elif callable(value):
        yield from getattr(value, "__defaults__", None) or ()
        yield from (getattr(value, "__kwdefaults__", None) or {}).values()


class Tracer:
    """Records spans around periodicflow's public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrapped: dict[int, tuple[object, str]] = {}
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; a top-level span names a phase of the sample."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, 0]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span[4], span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever periodicflow binds it, then check coverage."""
        package = importlib.import_module("periodicflow")
        for info in pkgutil.iter_modules(package.__path__):
            if info.name != "__main__":  # running __main__ would start the CLI
                importlib.import_module(f"periodicflow.{info.name}")

        wrappers = {}
        for (module_name, attr), count in TRACED.items():
            module = sys.modules[f"periodicflow.{module_name}"]
            fn = getattr(module, attr, None)
            if fn is None:
                raise TraceError(f"periodicflow.{module_name}.{attr} no longer exists; update TRACED")
            name = f"{module_name}.{attr}"
            wrappers[id(fn)] = (fn, self._wrap(name, fn, count))
            self._wrapped[id(fn)] = (fn, name)

        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

        grid = sys.modules["periodicflow.domain"].Grid
        original = grid.__post_init__
        self._patches.append((grid, "__post_init__", original))
        grid.__post_init__ = self._wrap(GRID_SPAN, original, None)
        self.check_complete()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def check_complete(self) -> None:
        """Raise TraceError if a periodicflow module binds a traced function unwrapped.

        Run after install and again after the sample, so a module imported
        lazily, or a function kept in a container or a default argument,
        cannot hide a layer's time in its caller.
        """
        for module in _package_modules():
            for attr, value in vars(module).items():
                for item in _bound_values(value):
                    entry = self._wrapped.get(id(item))
                    if entry is not None and entry[0] is item:
                        raise TraceError(
                            f"{module.__name__}.{attr} reaches {entry[1]} without the tracer"
                        )


class _Totals:
    __slots__ = ("calls", "s", "self_s", "units", "bytes")

    def __init__(self):
        self.calls = 0
        self.s = self.self_s = 0.0
        self.units = self.bytes = 0


def _phases(spans) -> list[str]:
    phase = []
    for name, _, _, parent, _, _ in spans:
        phase.append(name if parent < 0 else phase[parent])
    return phase


def _totals(spans, phase, keep) -> dict[str, _Totals]:
    children_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children_s[parent] += end - start
    totals: dict[str, _Totals] = {}
    for i, (name, start, end, _, units, nbytes) in enumerate(spans):
        if phase[i] in keep:
            t = totals.setdefault(name, _Totals())
            t.calls += 1
            t.s += end - start
            t.self_s += end - start - children_s[i]
            t.units += units
            t.bytes += nbytes
    return totals


def _units_under(spans, phase, ancestor: str, names: set[str]) -> int:
    """Units of run-phase spans named in ``names`` that descend from a span ``ancestor``."""
    total = 0
    for i, (name, _, _, parent, units, _) in enumerate(spans):
        if name not in names or phase[i] != "run":
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            total += units
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, fft_floor_s: float, grid_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced sample (all but the overhead and accuracy fields)."""
    phase = _phases(spans)
    run = _totals(spans, phase, {"run"})
    build = _totals(spans, phase, {"setup", "run"})
    none = _Totals()

    def r(name):
        return run.get(name, none)

    def b(name):
        return build.get(name, none)

    transforms = {"fourier.forward", "fourier.inverse"}
    steps = r("solver.picard_step").calls
    per_step = _ratio(_units_under(spans, phase, "solver.picard_step", transforms), steps)
    step_s = _ratio(r("solver.picard_step").s, steps)
    scalar_floor_s = fft_floor_s / 3.0
    norms_inverse = _units_under(spans, phase, "diagnostics.norms", {"fourier.inverse"})
    return {
        "fourier.forward.calls": r("fourier.forward").calls,
        "fourier.forward.self_s": r("fourier.forward").self_s,
        "fourier.inverse.calls": r("fourier.inverse").calls,
        "fourier.inverse.self_s": r("fourier.inverse").self_s,
        "fourier.scalar_transforms": r("fourier.forward").units + r("fourier.inverse").units,
        "fourier.bytes_computed": r("fourier.forward").bytes + r("fourier.inverse").bytes,
        "fourier.fft_floor_s": fft_floor_s,
        "multipliers.helmholtz.calls": r("multipliers.helmholtz").calls,
        "multipliers.helmholtz.self_s": r("multipliers.helmholtz").self_s,
        "multipliers.oseen_inverse.calls": r("multipliers.oseen_inverse").calls,
        "multipliers.oseen_inverse.self_s": r("multipliers.oseen_inverse").self_s,
        "nonlinear.convective.calls": r("nonlinear.convective").calls,
        "nonlinear.convective.self_s": r("nonlinear.convective").self_s,
        "solver.solve.s": r("solver.solve").s,
        "solver.iterations": r("solver.solve").units,
        "solver.picard_step.calls": steps,
        "solver.picard_step.self_s": r("solver.picard_step").self_s,
        "solver.step_ms": 1e3 * step_s,
        "solver.transforms_per_step": per_step,
        "solver.step_floor_ratio": _ratio(step_s, per_step * scalar_floor_s),
        "solver.recover_pressure.s": r("solver.recover_pressure").s,
        "solver.pde_residual.s": r("solver.pde_residual").s,
        "forcing.manufactured.s": b("forcing.manufactured").s,
        "forcing.random_smooth.s": b("forcing.random_smooth").s,
        "diagnostics.norms.calls": r("diagnostics.norms").calls,
        "diagnostics.norms.s": r("diagnostics.norms").s,
        "diagnostics.norms.inverse_per_q": _ratio(norms_inverse, r("diagnostics.norms").units),
        "diagnostics.energy_balance.s": r("diagnostics.energy_balance").s,
        "diagnostics.spectrum_decay.s": r("diagnostics.spectrum_decay").s,
        "fieldio.write_field.calls": r("fieldio.write_field").calls,
        "fieldio.write_field.s": r("fieldio.write_field").s,
        "fieldio.write_field.bytes": r("fieldio.write_field").bytes,
        "fieldio.read_field.calls": r("fieldio.read_field").calls,
        "fieldio.read_field.s": r("fieldio.read_field").s,
        "fieldio.read_field.bytes": r("fieldio.read_field").bytes,
        "domain.Grid.s": b(GRID_SPAN).s,
        "domain.grid_bytes": grid_bytes,
        "cli.main.s": r("cli.main").s,
        "cli.self_s": r("cli.main").self_s,
    }
