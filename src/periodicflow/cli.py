"""Command line front end: solve, verify, probe and norms subcommands.

Exit codes: 0 success, 2 usage error, 3 no convergence, 4 divergence,
5 unremovable mean mode, 6 input/output failure.  Errors print a single
machine-readable line to stderr of the form ``error=<Kind> detail=...``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .diagnostics import (
    EnergyReport,
    NormReport,
    SpectrumTable,
    energy_balance,
    energy_inequality_check,
    norms,
    spectrum_decay,
)
from .domain import Grid, Params
from .errors import (
    Diverging,
    FieldFormatError,
    MeanModeNonzero,
    NoConvergence,
    SolverError,
)
from .fieldio import load_config, read_field, write_field
from .forcing import PRESET_NAMES, manufactured, manufactured_preset, random_smooth
from .fourier import PhysicalField, _nodes, forward, inverse
from .multipliers import PROBE_SYMBOLS, MultiplierReport, marcinkiewicz_probe
from .solver import SolverConfig, pde_residual, solve

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DIVERGING = 4
EXIT_MEAN_MODE = 5
EXIT_IO = 6


class UsageError(Exception):
    pass


def _parse_numbers(text: str, count: int, what: str, kind: type = float) -> tuple:
    """``count`` values of type ``kind`` from comma or space separated text; one value repeats."""
    parts = text.replace(",", " ").split()
    if len(parts) == 1:
        parts = parts * count
    if len(parts) != count:
        raise UsageError(f"{what} needs 1 or {count} values, got {text!r}")
    try:
        return tuple(kind(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _setting(flag_value, config, section, key):
    """Flag beats config; returns None when neither is present."""
    if flag_value is not None:
        return flag_value
    return config.get(section, {}).get(key)


def _require(value, what):
    if value is None:
        raise UsageError(f"missing required setting: {what}")
    return value


def _build_grid_params(args, config) -> tuple[Grid, Params]:
    grid_text = _setting(args.grid, config, "grid", "resolution")
    if grid_text is None:
        n_space_text = config.get("grid", {}).get("n_space")
        n_time_text = config.get("grid", {}).get("n_time")
        if n_space_text is None or n_time_text is None:
            raise UsageError("missing required setting: grid resolution (--grid or [grid] n_space/n_time)")
        n_space = _parse_numbers(n_space_text, 3, "[grid] n_space", int)
        n_time = int(n_time_text)
    else:
        values = _parse_numbers(str(grid_text), 4, "--grid N1,N2,N3,M", int)
        n_space, n_time = values[:3], values[3]

    box_text = _setting(args.box, config, "grid", "box")
    box = _parse_numbers(str(box_text), 3, "--box") if box_text is not None else (2 * np.pi,) * 3
    period_text = _setting(args.period, config, "params", "period")
    period = float(period_text) if period_text is not None else 2 * np.pi
    lam_text = _setting(args.lam, config, "params", "lambda")
    lam = float(lam_text) if lam_text is not None else 1.0

    try:
        params = Params(lam=lam, period=period)
        grid = Grid(box=box, n_space=tuple(n_space), n_time=n_time, period=period)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return grid, params


def _build_forcing(args, config, grid: Grid, params: Params) -> PhysicalField:
    preset = _setting(args.preset, config, "forcing", "preset")
    forcing_file = _setting(getattr(args, "forcing_file", None), config, "forcing", "field")
    amplitude_text = _setting(args.amplitude, config, "forcing", "amplitude")
    amplitude = float(amplitude_text) if amplitude_text is not None else 1e-2
    scale_text = _setting(args.scale, config, "forcing", "scale")
    scale = float(scale_text) if scale_text is not None else 1.0

    if forcing_file is not None:
        f = read_field(str(forcing_file), expected_grid=grid)
        if f.components != 3:
            raise UsageError(f"forcing file must hold 3 components, found {f.components}")
    elif preset == "random":
        seed_text = _setting(args.seed, config, "forcing", "seed")
        seed = int(seed_text) if seed_text is not None else 0
        cutoff_text = _setting(getattr(args, "cutoff", None), config, "forcing", "cutoff_shell")
        cutoff = int(cutoff_text) if cutoff_text is not None else 3
        f = random_smooth(seed=seed, amplitude=amplitude, cutoff_shell=cutoff, grid=grid)
    elif preset is not None:
        u_star, p_star = manufactured_preset(str(preset), amplitude, grid)
        # The entire-function preset is solenoidal in the continuum but its
        # samples carry an aliased divergence that only decays with the grid,
        # so the recipe guard gets a resolution-tolerant threshold there.
        div_tol = 1e-2 if str(preset) == "analytic" else 1e-10
        f, _, _ = manufactured(u_star, p_star, params, grid, solenoidal_tol=div_tol)
    else:
        raise UsageError("missing required setting: forcing (--preset, --forcing-file or [forcing])")
    if scale != 1.0:
        f = PhysicalField(grid, f.values * scale)
    return f


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def _run_solve(args) -> int:
    config = load_config(args.config) if args.config else {}
    grid, params = _build_grid_params(args, config)
    f = _build_forcing(args, config, grid, params)

    tol_text = _setting(args.tol, config, "solver", "tol")
    max_iter_text = _setting(args.max_iter, config, "solver", "max_iter")
    solver_config = SolverConfig(
        tol=float(tol_text) if tol_text is not None else 1e-10,
        max_iter=int(max_iter_text) if max_iter_text is not None else 200,
    )

    out_text = _setting(args.out_dir, config, "output", "out_dir")
    out_dir = Path(out_text) if out_text is not None else Path("periodicflow_out")

    f_hat = forward(f)
    sol = solve(f_hat, params, grid, solver_config)

    out_dir.mkdir(parents=True, exist_ok=True)
    u = sol.u
    u_nodes = inverse(u).values
    # v is constant in time: invert its k = 0 plane over space alone
    v_nodes = _nodes(sol.v.coeffs[:, 0], grid.shape[1:])[:, np.newaxis]
    write_field(out_dir / "u.field", PhysicalField(grid, u_nodes))
    write_field(out_dir / "v.field", PhysicalField(grid, np.broadcast_to(v_nodes, u_nodes.shape)))
    u_nodes -= v_nodes
    write_field(out_dir / "w.field", PhysicalField(grid, u_nodes))
    del u_nodes
    write_field(out_dir / "p.field", inverse(sol.p))
    write_field(out_dir / "f.field", f)

    report = norms(u, params, p=sol.p)
    _write_csv(out_dir / "norms.csv", NormReport.csv_header(), report.csv_rows())
    energy = energy_balance(u, f_hat)
    _write_csv(out_dir / "energy.csv", EnergyReport.csv_header(), energy.csv_rows())
    iter_rows = [
        f"{i + 1},{d:.12e}" for i, d in enumerate(sol.update_history)
    ]
    _write_csv(out_dir / "iterations.csv", "iteration,update", iter_rows)
    table = spectrum_decay(u)
    _write_csv(out_dir / "spectrum.csv", SpectrumTable.csv_header(), table.csv_rows())

    print(f"converged iterations={sol.iterations} contraction={sol.contraction_estimate:.3e}")
    print(f"pde_residual={sol.pde_residual:.3e} energy_gap={energy.relative_gap:.3e}")
    if params.driftless:
        print("note=driftless lambda is zero; drift-weighted norms degenerate")
    print(f"wrote {out_dir}/u.field v.field w.field p.field f.field and CSV reports")
    return EXIT_OK


def _run_verify(args) -> int:
    config = load_config(args.config) if args.config else {}
    grid, params = _build_grid_params(args, config)
    velocity_path = _require(
        _setting(args.velocity, config, "verify", "velocity"), "--velocity"
    )
    pressure_path = _require(
        _setting(args.pressure, config, "verify", "pressure"), "--pressure"
    )
    u = read_field(str(velocity_path), expected_grid=grid)
    p = read_field(str(pressure_path), expected_grid=grid)
    if u.components != 3 or p.components != 1:
        raise UsageError("verify expects a 3-component velocity and a scalar pressure")
    f = _build_forcing(args, config, grid, params)

    u_hat = forward(u)
    p_hat = forward(p)
    f_hat = forward(f)
    residual = pde_residual(u_hat, p_hat, f_hat, params)
    residual_tol = float(args.residual_tol)
    # The discrete energy gap of a converged run sits near 1e-8 on either
    # side of zero, so the inequality is checked with a matching slack.
    lhs, rhs, holds = energy_inequality_check(u_hat, f_hat, tol=float(args.energy_tol))
    gap = energy_balance(u_hat, f_hat).relative_gap

    rows = [
        f"pde_residual,{residual:.12e},{residual_tol:.3e},{residual <= residual_tol}",
        f"energy_inequality,{lhs - rhs:.12e},{float(args.energy_tol):.3e},{holds}",
        f"energy_gap,{gap:.12e},,",
    ]
    report = norms(u_hat, params, p=p_hat)
    for q in sorted(report.lq):
        rows.append(f"norm_lq[q={q:g}],{report.lq[q]:.12e},,")
        rows.append(f"norm_w21q[q={q:g}],{report.w21q[q]:.12e},,")
        rows.append(f"norm_oseen[q={q:g}],{report.xoseen[q].total:.12e},,")
    for (q, r), value in sorted(report.xpres.items()):
        rows.append(f"norm_pressure[q={q:g} r={r:g}],{value:.12e},,")
    out = "\n".join(["check,value,threshold,passed"] + rows)
    if args.out:
        Path(args.out).write_text(out + "\n")
    else:
        print(out)
    all_pass = residual <= residual_tol and holds
    return EXIT_OK if all_pass else 1


def _run_probe(args) -> int:
    params = Params(
        lam=float(args.lam) if args.lam is not None else 1.0,
        period=float(args.period) if args.period is not None else 2 * np.pi,
    )
    names = args.symbols or list(PROBE_SYMBOLS)
    rows = []
    for name in names:
        try:
            report = marcinkiewicz_probe(name, params, resolution=args.resolution)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        rows.append(report.csv_row())
    out = "\n".join([MultiplierReport.csv_header()] + rows)
    if args.out:
        Path(args.out).write_text(out + "\n")
    else:
        print(out)
    return EXIT_OK


def _run_norms(args) -> int:
    config = load_config(args.config) if args.config else {}
    grid, params = _build_grid_params(args, config)
    velocity_path = _require(
        _setting(args.velocity, config, "verify", "velocity"), "--velocity"
    )
    u = read_field(str(velocity_path), expected_grid=grid)
    p = read_field(str(args.pressure), expected_grid=grid) if args.pressure else None

    def _float_list(text, fallback):
        if text is None:
            return fallback
        try:
            return tuple(float(v) for v in text.replace(",", " ").split())
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    q_list = _float_list(args.q, (1.2,))
    r_list = _float_list(args.r, (6.0,))
    try:
        report = norms(
            forward(u),
            params,
            p=forward(p) if p is not None else None,
            q_list=q_list,
            r_list=r_list,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = "\n".join([NormReport.csv_header()] + report.csv_rows())
    if args.out:
        Path(args.out).write_text(out + "\n")
    else:
        print(out)
    return EXIT_OK


def _add_common_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="sectioned key=value file; flags override it")
    sub.add_argument("--grid", help="resolutions N1,N2,N3,M (one value applies to all)")
    sub.add_argument("--box", help="box lengths L1,L2,L3")
    sub.add_argument("--period", help="time period")
    sub.add_argument("--lambda", dest="lam", help="drift speed along x1")


def _add_forcing_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", help=f"forcing preset: {', '.join(PRESET_NAMES)} or random")
    sub.add_argument("--forcing-file", dest="forcing_file", help="read the forcing from a field file")
    sub.add_argument("--amplitude", help="preset amplitude (default 1e-2)")
    sub.add_argument("--scale", help="multiply the forcing by this factor")
    sub.add_argument("--seed", help="seed for the random preset")
    sub.add_argument("--cutoff", help="shell cutoff for the random preset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodicflow",
        description="Space-time spectral solver for time-periodic flow with a constant drift.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("solve", help="run the fixed-point solver and write reports")
    _add_common_grid_flags(sub)
    _add_forcing_flags(sub)
    sub.add_argument("--tol", help="relative update tolerance (default 1e-10)")
    sub.add_argument("--max-iter", dest="max_iter", help="iteration cap (default 200)")
    sub.add_argument("--out-dir", dest="out_dir", help="output directory")
    sub.set_defaults(func=_run_solve)

    sub = commands.add_parser("verify", help="check user-supplied fields against a forcing")
    _add_common_grid_flags(sub)
    _add_forcing_flags(sub)
    sub.add_argument("--velocity", help="velocity field file")
    sub.add_argument("--pressure", help="pressure field file")
    sub.add_argument("--residual-tol", dest="residual_tol", default="1e-6")
    sub.add_argument("--energy-tol", dest="energy_tol", default="1e-6")
    sub.add_argument("--out", help="write the verdict CSV here instead of stdout")
    sub.set_defaults(func=_run_verify)

    sub = commands.add_parser("probe", help="sample boundedness of the continuous symbols")
    sub.add_argument("symbols", nargs="*", help=f"symbols to probe (default: all of {', '.join(PROBE_SYMBOLS)})")
    sub.add_argument("--resolution", type=int, default=8, help="log-grid points per half axis")
    sub.add_argument("--period", help="time period (default 2*pi)")
    sub.add_argument("--lambda", dest="lam", help="drift speed (default 1)")
    sub.add_argument("--out", help="write the CSV here instead of stdout")
    sub.set_defaults(func=_run_probe)

    sub = commands.add_parser("norms", help="norm report for stored fields")
    _add_common_grid_flags(sub)
    sub.add_argument("--velocity", help="velocity field file")
    sub.add_argument("--pressure", help="optional pressure field file")
    sub.add_argument("--q", help="Lebesgue exponent in (1, 2), default 1.2")
    sub.add_argument("--r", help="pressure gradient exponent in (1, inf), default 6")
    sub.add_argument("--out", help="write the CSV here instead of stdout")
    sub.set_defaults(func=_run_norms)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE

    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error=Usage detail={exc}", file=sys.stderr)
        return EXIT_USAGE
    except MeanModeNonzero as exc:
        print(f"error=MeanModeNonzero detail={exc}", file=sys.stderr)
        return EXIT_MEAN_MODE
    except Diverging as exc:
        print(f"error=Diverging detail={exc}", file=sys.stderr)
        return EXIT_DIVERGING
    except NoConvergence as exc:
        print(f"error=NoConvergence detail={exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except FieldFormatError as exc:
        print(f"error=FieldFormat detail={exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error=IO detail={exc}", file=sys.stderr)
        return EXIT_IO
    except (SolverError, ValueError) as exc:
        print(f"error={type(exc).__name__} detail={exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
