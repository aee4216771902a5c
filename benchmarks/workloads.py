"""The benchmark's workloads: inputs, one unit of work, and correctness gates.

Each workload builds its inputs in ``setup`` (timed as ``setup_s``), does one
unit of work in ``run`` (timed as ``run_s``) and judges the outputs in
``check``, which returns the failed gates and the accuracy fields.  Calls go
through module attributes (``pf.solve``, ``pf.cli.main``) so the tracer's
wrappers see them.

``small=True`` shrinks every grid to at most 8 points per axis so the smoke
test runs each code path in seconds.  The gates that only hold at full
resolution (the error against the manufactured velocity, the verdict of
``verify`` and the norms against their reference values) are then skipped.
"""

from __future__ import annotations

import io
import math
import re
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import periodicflow as pf
import periodicflow.cli  # noqa: F401  (binds pf.cli)

TWO_PI = 2.0 * math.pi
RESIDUAL_GATE = 1e-8
U_ERR_GATE = 1e-9
NORMS_GATE = 1e-9
# Norm entries smaller than this share of the largest reference entry sit at
# rounding level (the Oseen terms of a forcing with no steady part), so they
# are judged against that floor rather than against themselves.
NORMS_FLOOR = 1e-3
# picard-aniso rescales each random forcing so its first Picard iterate has
# this coefficient 2-norm.  A fixed forcing norm leaves the contraction rate
# to the seed (19 to 50 iterations at amplitude 3); a fixed linear response
# held 91 seeds within 20 to 34 iterations, so run_s measures the solver
# rather than the draw.
RESPONSE_NORM = 0.8


def _csv_numbers(path: Path) -> list[list[float]]:
    """Numeric cells of a CSV report after its header; booleans count as 0/1."""
    rows = []
    for line in path.read_text().splitlines()[1:]:
        cells = []
        for cell in line.split(","):
            if cell in ("True", "False"):
                cells.append(float(cell == "True"))
            elif cell:
                try:
                    cells.append(float(cell))
                except ValueError:
                    pass  # row labels such as norm_lq[q=1.2]
        rows.append(cells)
    return rows


def norms_rel_dev(values: list[list[float]], reference: list[list[float]]) -> float:
    """Largest deviation of a norm table from its reference, relative per entry."""
    if len(values) != len(reference) or any(len(a) != len(b) for a, b in zip(values, reference)):
        return math.inf
    floor = NORMS_FLOOR * max((abs(v) for row in reference for v in row), default=0.0)
    dev = 0.0
    for row, ref_row in zip(values, reference):
        for v, ref in zip(row, ref_row):
            dev = max(dev, abs(v - ref) / max(abs(ref), floor, 1e-300))
    return dev


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = pf.cli.main(argv)
    return code, out.getvalue()


def _manufactured(n: int):
    """The ``analytic`` manufactured pair on the n^4 2-pi cube, with the CLI's default drift."""
    grid = pf.Grid(box=(TWO_PI,) * 3, n_space=(n,) * 3, n_time=n, period=TWO_PI)
    params = pf.Params(lam=1.0, period=TWO_PI)
    u_star, p_star = pf.manufactured_preset("analytic", 1e-2, grid)
    f, u, p = pf.manufactured(u_star, p_star, params, grid, solenoidal_tol=1e-2)
    return grid, f, u, p


class Pipeline:
    name = "pipeline-32"

    def setup(self, work: Path, seed: int, small: bool) -> dict:
        n = 8 if small else 32
        grid, f, u, _ = _manufactured(n)
        pf.write_field(work / "f.field", f)
        return {"grid": grid, "work": work, "n": n, "u_star": u.values}

    def run(self, inputs: dict):
        work = inputs["work"]
        return _cli(["solve", "--grid", str(inputs["n"]), "--forcing-file", str(work / "f.field"),
                     "--out-dir", str(work / "out")])

    def check(self, inputs: dict, output, reference: dict | None) -> tuple[list[str], dict]:
        code, text = output
        if code != 0:
            return [f"solve exited {code}"], {}
        out = inputs["work"] / "out"
        residual = float(re.search(r"pde_residual=(\S+)", text).group(1))
        u_err = float(np.abs(pf.read_field(out / "u.field").values - inputs["u_star"]).max())
        iterations = int(re.search(r"iterations=(\d+)", text).group(1))
        accuracy = {"pde_residual": residual, "u_err_max": u_err, "norms_rel_dev": 0.0,
                    "iterations": iterations}
        failures = []
        if not residual <= RESIDUAL_GATE:
            failures.append(f"pde_residual {residual:.3e} > {RESIDUAL_GATE:.0e}")
        if reference is not None:
            accuracy["norms_rel_dev"] = norms_rel_dev(self.norm_table(inputs), reference["norms_csv"])
            if not u_err <= U_ERR_GATE:
                failures.append(f"max |u - u*| {u_err:.3e} > {U_ERR_GATE:.0e}")
        return failures, accuracy

    def norm_table(self, inputs: dict) -> list[list[float]]:
        return _csv_numbers(inputs["work"] / "out" / "norms.csv")


class PicardAniso:
    name = "picard-aniso"

    def setup(self, work: Path, seed: int, small: bool) -> dict:
        shape, n_time = ((8, 6, 4), 8) if small else ((24, 16, 12), 16)
        grid = pf.Grid(box=(TWO_PI, math.pi, 2 * TWO_PI), n_space=shape, n_time=n_time, period=0.7)
        params = pf.Params(lam=-1.5, period=0.7)
        f = pf.random_smooth(seed, amplitude=1.0, cutoff_shell=3, grid=grid)
        response = pf.oseen_inverse(pf.helmholtz(pf.forward(f)), params)
        f = f * (RESPONSE_NORM / pf.coeff_norm(response))
        return {"grid": grid, "params": params, "f": f}

    def run(self, inputs: dict):
        return pf.solve(inputs["f"], inputs["params"], inputs["grid"])

    def check(self, inputs: dict, sol, reference: dict | None) -> tuple[list[str], dict]:
        residual = pf.pde_residual(sol.u, sol.p, inputs["f"], inputs["params"])
        # No exact solution exists here; the error proxy is the fixed-point
        # defect |picard_step(u) - u| on the nodes.
        step = pf.picard_step(sol.u, pf.forward(inputs["f"]), inputs["params"])
        defect = float(np.abs(pf.inverse(step - sol.u).values).max())
        accuracy = {"pde_residual": residual, "u_err_max": defect, "norms_rel_dev": 0.0,
                    "iterations": sol.iterations}
        failures = []
        if not residual <= RESIDUAL_GATE:
            failures.append(f"pde_residual {residual:.3e} > {RESIDUAL_GATE:.0e}")
        return failures, accuracy


class VerifyNorms:
    name = "verify-norms-24"

    def setup(self, work: Path, seed: int, small: bool) -> dict:
        n = 8 if small else 24
        grid, f, u, p = _manufactured(n)
        for name, field in (("f", f), ("u", u), ("p", p)):
            pf.write_field(work / f"{name}.field", field)
        return {"grid": grid, "work": work, "n": n}

    def run(self, inputs: dict):
        work, n = inputs["work"], str(inputs["n"])
        fields = ["--velocity", str(work / "u.field"), "--pressure", str(work / "p.field")]
        verify = _cli(["verify", "--grid", n, "--forcing-file", str(work / "f.field"), *fields,
                       "--out", str(work / "verdict.csv")])
        norms = _cli(["norms", "--grid", n, *fields, "--q", "1.2,1.5,1.8", "--r", "4,6",
                      "--out", str(work / "norms.csv")])
        return verify[0], norms[0]

    def check(self, inputs: dict, output, reference: dict | None) -> tuple[list[str], dict]:
        verify_code, norms_code = output
        failures = [f"norms exited {norms_code}"] if norms_code != 0 else []
        verdict = self.verdict(inputs)
        accuracy = {"pde_residual": verdict.get("pde_residual", math.inf), "u_err_max": 0.0,
                    "norms_rel_dev": 0.0}
        if reference is not None:
            if verify_code != 0:
                failures.append(f"verify exited {verify_code}")
            if norms_code == 0:
                dev = norms_rel_dev(self.norm_table(inputs), reference["norms_csv"])
                accuracy["norms_rel_dev"] = dev
                if not dev <= NORMS_GATE:
                    failures.append(f"norms deviate {dev:.3e} from the reference (gate {NORMS_GATE:.0e})")
        return failures, accuracy

    def verdict(self, inputs: dict) -> dict[str, float]:
        path = inputs["work"] / "verdict.csv"
        if not path.exists():
            return {}
        rows = (line.split(",")[:2] for line in path.read_text().splitlines()[1:])
        return {check: float(value) for check, value in rows}

    def norm_table(self, inputs: dict) -> list[list[float]]:
        """The norms report, then verify's norm rows in name order."""
        table = _csv_numbers(inputs["work"] / "norms.csv")
        table.append([v for k, v in sorted(self.verdict(inputs).items()) if k.startswith("norm_")])
        return table


WORKLOADS = {w.name: w for w in (Pipeline(), PicardAniso(), VerifyNorms())}
