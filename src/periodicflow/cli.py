"""Command line front end: solve, verify, probe and norms subcommands.

Exit codes: 0 success, 2 usage error, 3 no convergence, 4 divergence,
5 unremovable mean mode, 6 input/output failure.  Errors print a single
machine-readable line to stderr of the form ``error=<Kind> detail=...``.

Each setting a config file can hold is one row of ``_SETTINGS``, resolved
as flag, then config, then default.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from .diagnostics import (
    EnergyReport,
    NormReport,
    SpectrumTable,
    _relative_gap,
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
from .fourier import PhysicalField, forward, inverse
from .multipliers import PROBE_SYMBOLS, MultiplierReport, marcinkiewicz_probe
from .nonlinear import _band_radius
from .solver import SolverConfig, pde_residual, solve

__all__ = ["main"]


class UsageError(Exception):
    pass


# One row per config-readable setting: attribute, flag (None: config only), [section] key,
# value type, count (None: one value; n: n values, one value repeats) and default, converted
# like a flag (None: required, optional or worked out by the subcommand).
_Setting = namedtuple("_Setting", "name flag section key kind count default help")
_SETTINGS = (
    _Setting("grid", "--grid", "grid", "resolution", int, 4, None, "resolutions N1,N2,N3,M (one for all)"),
    _Setting("n_space", None, "grid", "n_space", int, 3, None, "resolutions N1,N2,N3 without --grid"),
    _Setting("n_time", None, "grid", "n_time", int, None, None, "resolution M without --grid"),
    _Setting("box", "--box", "grid", "box", float, 3, repr(2 * np.pi), "box lengths L1,L2,L3"),
    _Setting("period", "--period", "params", "period", float, None, repr(2 * np.pi), "time period"),
    _Setting("lam", "--lambda", "params", "lambda", float, None, "1", "drift speed along x1"),
    _Setting("preset", "--preset", "forcing", "preset", str, None, None,
             f"forcing preset: {', '.join(PRESET_NAMES)} or random"),
    _Setting("forcing_file", "--forcing-file", "forcing", "field", str, None, None, "forcing field file"),
    _Setting("amplitude", "--amplitude", "forcing", "amplitude", float, None, "1e-2", "preset amplitude"),
    _Setting("scale", "--scale", "forcing", "scale", float, None, "1", "factor on the forcing"),
    _Setting("seed", "--seed", "forcing", "seed", int, None, "0", "seed for the random preset"),
    _Setting("cutoff", "--cutoff", "forcing", "cutoff_shell", int, None, None,
             "shell cutoff for the random preset (default: the largest shell inside the 2/3 band, at most 3)"),
    _Setting("tol", "--tol", "solver", "tol", float, None, repr(SolverConfig.tol), "relative update tolerance"),
    _Setting("max_iter", "--max-iter", "solver", "max_iter", int, None, repr(SolverConfig.max_iter),
             "iteration cap"),
    _Setting("out_dir", "--out-dir", "output", "out_dir", Path, None, "periodicflow_out", "output directory"),
    _Setting("velocity", "--velocity", "verify", "velocity", str, None, None, "velocity field file"),
    _Setting("pressure", "--pressure", "verify", "pressure", str, None, None, "pressure field file"),
)


def _convert(text: str, what: str, kind: type):
    try:
        return kind(text)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _parse_numbers(text: str, what: str, kind: type = float, count: int | None = None) -> tuple:
    """Values of type ``kind`` from comma or space separated text; with a ``count``, one value repeats."""
    parts = text.replace(",", " ").split()
    if count is not None and len(parts) == 1:
        parts = parts * count
    if count is not None and len(parts) != count:
        raise UsageError(f"{what} needs 1 or {count} values, got {text!r}")
    return tuple(_convert(p, what, kind) for p in parts)


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Add to ``args`` every setting of the subcommand's sections: flag, then config, then default."""
    config = load_config(args.config) if args.config else {}
    known = {(s.section, s.key) for s in _SETTINGS}
    for section, entries in config.items():
        for key in entries:
            # A key no subcommand reads is a misspelling, not a setting to ignore.
            if (section, key) not in known:
                raise UsageError(f"unknown config key [{section}] {key}")
    args.origin = {}
    for s in _SETTINGS:
        if s.section not in args.sections:
            continue
        value, what = (getattr(args, s.name), s.flag) if s.flag else (None, None)
        if value is None:
            value, what = config.get(s.section, {}).get(s.key, s.default), f"[{s.section}] {s.key}"
        if value is not None:
            value = _parse_numbers(value, what, s.kind, s.count) if s.count else _convert(value, what, s.kind)
        setattr(args, s.name, value)
        args.origin[s.name] = what
    return args


def _validated(s: argparse.Namespace, build):
    """``build()``; a rejected value is a usage error naming its setting.

    Validation messages of the library start with the rejected field; ``s.origin``
    maps a field to its flag or config key, and other messages pass unchanged.
    """
    try:
        return build()
    except ValueError as exc:
        field = str(exc).split()[0]
        raise UsageError(f"{s.origin[field]}: {exc}" if field in s.origin else str(exc)) from exc


def _build_grid_params(s: argparse.Namespace) -> tuple[Grid, Params]:
    if s.grid is not None:
        n_space, n_time = s.grid[:3], s.grid[3]
        s.origin["n_space"] = s.origin["n_time"] = s.origin["grid"]
    elif s.n_space is not None and s.n_time is not None:
        n_space, n_time = s.n_space, s.n_time
    else:
        raise UsageError("missing required setting: grid resolution (--grid or [grid] n_space/n_time)")
    params = _validated(s, lambda: Params(lam=s.lam, period=s.period))
    grid = _validated(s, lambda: Grid(box=s.box, n_space=n_space, n_time=n_time, period=s.period))
    return grid, params


def _read_checked(path: str | None, grid: Grid, components: int, what: str) -> PhysicalField:
    """The field stored at ``path``; it must lie on ``grid`` and hold ``components`` components."""
    if path is None:
        raise UsageError(f"missing required setting: {what}")
    field = read_field(path, expected_grid=grid)
    if field.components != components:
        raise UsageError(f"{what} must hold {components} component(s), found {field.components}")
    return field


def _build_forcing(s: argparse.Namespace, grid: Grid, params: Params) -> PhysicalField:
    for name, holds, rule in (  # settings no forcing can use, rejected before any field is sampled
        ("amplitude", np.isfinite(s.amplitude), "must be finite"),
        ("scale", np.isfinite(s.scale), "must be finite"),
        ("seed", s.seed >= 0, "must be a non-negative integer"),
        ("cutoff", s.cutoff is None or s.cutoff >= 1, "must be at least 1"),
    ):
        if not holds:
            raise UsageError(f"{s.origin[name]}: {name} {rule}, got {getattr(s, name)!r}")
    if s.forcing_file is not None:
        f = _read_checked(s.forcing_file, grid, 3, "--forcing-file")
    elif s.preset == "random":
        # Inside the 2/3 band the dealiased transport is exactly energy-neutral;
        # a forcing outside it carries every iterate out of the band too.
        cutoff = min(3, _band_radius(grid)) if s.cutoff is None else s.cutoff
        f = random_smooth(seed=s.seed, amplitude=s.amplitude, cutoff_shell=cutoff, grid=grid)
    elif s.preset is not None:
        u_star, p_star = manufactured_preset(s.preset, s.amplitude, grid)
        # The entire-function preset is solenoidal in the continuum but its
        # samples carry an aliased divergence that only decays with the grid,
        # so the recipe guard gets a resolution-tolerant threshold there.
        div_tol = 1e-2 if s.preset == "analytic" else 1e-10
        f, _, _ = manufactured(u_star, p_star, params, grid, solenoidal_tol=div_tol)
    else:
        raise UsageError("missing required setting: forcing (--preset, --forcing-file or [forcing])")
    if s.scale != 1.0:
        f = PhysicalField(grid, f.values * s.scale)
    return f


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def _write_iterations(out_dir: Path, update_history: tuple[float, ...]) -> None:
    rows = [f"{i + 1},{d:.12e}" for i, d in enumerate(update_history)]
    _write_csv(out_dir / "iterations.csv", "iteration,update", rows)


def _report(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _run_solve(s: argparse.Namespace) -> int:
    grid, params = _build_grid_params(s)
    solver_config = _validated(s, lambda: SolverConfig(tol=s.tol, max_iter=s.max_iter))
    f = _build_forcing(s, grid, params)

    # The forcing's samples are written first and dropped, so the solve holds
    # only their spectrum, and a failed run still leaves its forcing.
    out_dir = s.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    write_field(out_dir / "f.field", f)
    f_hat = forward(f)
    del f
    try:
        sol = solve(f_hat, params, grid, solver_config)
    except (Diverging, NoConvergence) as exc:
        # A failed run still leaves the record of its updates.
        _write_iterations(out_dir, exc.update_history)
        raise

    _write_iterations(out_dir, sol.update_history)
    u = sol.u
    # the forcing spectrum's last use: the inverse, the writes and norms run without it
    energy = energy_balance(u, f_hat)
    del f_hat
    u_nodes = inverse(u).values
    # the time mean of the nodes is the steady part v (the k = 0 plane)
    v_nodes = u_nodes.mean(axis=1, keepdims=True)
    write_field(out_dir / "u.field", PhysicalField(grid, u_nodes))
    write_field(out_dir / "v.field", PhysicalField(grid, np.broadcast_to(v_nodes, u_nodes.shape)))
    u_nodes -= v_nodes
    write_field(out_dir / "w.field", PhysicalField(grid, u_nodes))
    del u_nodes
    write_field(out_dir / "p.field", inverse(sol.p))

    report = norms(u, params, p=sol.p)
    _write_csv(out_dir / "norms.csv", NormReport.csv_header(), report.csv_rows())
    _write_csv(out_dir / "energy.csv", EnergyReport.csv_header(), energy.csv_rows())
    table = spectrum_decay(u)
    _write_csv(out_dir / "spectrum.csv", SpectrumTable.csv_header(), table.csv_rows())

    print(f"converged iterations={sol.iterations} contraction={sol.contraction_estimate:.3e}")
    print(f"pde_residual={sol.pde_residual:.3e} energy_gap={energy.relative_gap:.3e}")
    if params.driftless:
        print("note=driftless lambda is zero; drift-weighted norms degenerate")
    print(f"wrote {out_dir}/u.field v.field w.field p.field f.field and CSV reports")
    return 0


def _run_verify(s: argparse.Namespace) -> int:
    for flag, tol in (("--residual-tol", s.residual_tol), ("--energy-tol", s.energy_tol)):
        if not (np.isfinite(tol) and tol > 0.0):
            raise UsageError(f"{flag}: a tolerance must be positive and finite, got {tol!r}")
    grid, params = _build_grid_params(s)
    u_hat = forward(_read_checked(s.velocity, grid, 3, "--velocity"))
    p_hat = forward(_read_checked(s.pressure, grid, 1, "--pressure"))
    f_hat = forward(_build_forcing(s, grid, params))

    residual = pde_residual(u_hat, p_hat, f_hat, params)
    # The discrete energy gap of a converged run sits near 1e-8 on either
    # side of zero, so the inequality is checked with a matching slack.
    lhs, rhs, holds = energy_inequality_check(u_hat, f_hat, tol=s.energy_tol)
    gap = _relative_gap(lhs, rhs)

    rows = [
        f"pde_residual,{residual:.12e},{s.residual_tol:.3e},{residual <= s.residual_tol}",
        f"energy_inequality,{lhs - rhs:.12e},{s.energy_tol:.3e},{holds}",
        f"energy_gap,{gap:.12e},,",
    ]
    report = norms(u_hat, params, p=p_hat)
    for q in sorted(report.lq):
        rows.append(f"norm_lq[q={q:g}],{report.lq[q]:.12e},,")
        rows.append(f"norm_w21q[q={q:g}],{report.w21q[q]:.12e},,")
        rows.append(f"norm_oseen[q={q:g}],{report.xoseen[q].total:.12e},,")
    for (q, r), value in sorted(report.xpres.items()):
        rows.append(f"norm_pressure[q={q:g} r={r:g}],{value:.12e},,")
    _report(s.out, ["check,value,threshold,passed"] + rows)
    all_pass = residual <= s.residual_tol and holds
    return 0 if all_pass else 1


def _run_probe(s: argparse.Namespace) -> int:
    params = _validated(s, lambda: Params(lam=s.lam, period=s.period))
    s.origin["resolution"] = "--resolution"
    rows = [_validated(s, lambda: marcinkiewicz_probe(name, params, resolution=s.resolution)).csv_row()
            for name in s.symbols or PROBE_SYMBOLS]
    _report(s.out, [MultiplierReport.csv_header()] + rows)
    return 0


def _run_norms(s: argparse.Namespace) -> int:
    grid, params = _build_grid_params(s)
    u_hat = forward(_read_checked(s.velocity, grid, 3, "--velocity"))
    p_hat = forward(_read_checked(s.pressure, grid, 1, "--pressure")) if s.pressure else None
    q_list, r_list = _parse_numbers(s.q, "--q"), _parse_numbers(s.r, "--r")
    s.origin.update(q="--q", r="--r")
    report = _validated(s, lambda: norms(u_hat, params, p=p_hat, q_list=q_list, r_list=r_list))
    _report(s.out, [NormReport.csv_header()] + report.csv_rows())
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # Bad command lines report like every other usage error: one line, exit 2.
        raise UsageError(message)


def _add_settings(sub: argparse.ArgumentParser, sections: tuple[str, ...], config_file: bool = True) -> None:
    """The flags of every setting in ``sections``; the subcommand reads the config unless told otherwise."""
    if config_file:
        sub.add_argument("--config", help="sectioned key=value file; flags override it")
    for s in _SETTINGS:
        if s.flag is not None and s.section in sections:
            default = f" (default {s.default})" if s.default is not None else ""
            sub.add_argument(s.flag, dest=s.name, help=s.help + default)
    sub.set_defaults(sections=sections, config=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="periodicflow",
        description="Space-time spectral solver for time-periodic flow with a constant drift.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("solve", help="run the fixed-point solver and write reports")
    _add_settings(sub, ("grid", "params", "forcing", "solver", "output"))
    sub.set_defaults(func=_run_solve)

    sub = commands.add_parser("verify", help="check user-supplied fields against a forcing")
    _add_settings(sub, ("grid", "params", "forcing", "verify"))
    sub.add_argument("--residual-tol", dest="residual_tol", type=float, default=1e-6)
    sub.add_argument("--energy-tol", dest="energy_tol", type=float, default=1e-6)
    sub.add_argument("--out", help="write the verdict CSV here instead of stdout")
    sub.set_defaults(func=_run_verify)

    sub = commands.add_parser("probe", help="sample boundedness of the continuous symbols")
    sub.add_argument("symbols", nargs="*", help=f"symbols to probe (default: all of {', '.join(PROBE_SYMBOLS)})")
    sub.add_argument("--resolution", type=int, default=8, help="log-grid points per half axis")
    _add_settings(sub, ("params",), config_file=False)
    sub.add_argument("--out", help="write the CSV here instead of stdout")
    sub.set_defaults(func=_run_probe)

    sub = commands.add_parser("norms", help="norm report for stored fields")
    _add_settings(sub, ("grid", "params", "verify"))
    sub.add_argument("--q", default="1.2", help="Lebesgue exponents in (1, 2) (default %(default)s)")
    sub.add_argument("--r", default="6", help="pressure gradient exponents in (1, inf) (default %(default)s)")
    sub.add_argument("--out", help="write the CSV here instead of stdout")
    sub.set_defaults(func=_run_norms)

    return parser


# (exception types, error kind or None for the type's own name, exit code); first match wins.
_EXITS = (
    (UsageError, "Usage", 2),
    (MeanModeNonzero, "MeanModeNonzero", 5),
    (Diverging, "Diverging", 4),
    (NoConvergence, "NoConvergence", 3),
    (FieldFormatError, "FieldFormat", 6),
    (OSError, "IO", 6),
    (MemoryError, "Memory", 2),
    ((SolverError, ValueError), None, 2),
)


# glibc's mallopt parameters, and the settings through which a user has already chosen them.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
_MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold", "glibc.malloc.trim_threshold")


def _keep_freed_memory() -> None:
    """Keep the memory this run frees for its next pass, where glibc allows it.

    Each transform returns a fresh array of a few to a few tens of MB, which
    glibc by default hands back to the system on free, so the next pass
    faults on every page again.  A one-shot run needs that memory again and
    returns it all at exit: blocks up to 32 MiB (the ceiling of glibc's own
    dynamic threshold) come from a heap that is never trimmed.  The library
    leaves its host's allocator alone; thresholds set in glibc's environment win.
    """
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if any(name in os.environ for name in _MALLOC_VARIABLES) or any(t in tunables for t in _MALLOC_TUNABLES):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        # A trim threshold alone would pin the mmap threshold at its 128 KiB floor.
        if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
            mallopt(_M_TRIM_THRESHOLD, -1)  # -1: never trim
    except (OSError, AttributeError, TypeError):  # no C library, or one without mallopt
        pass


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    try:
        args = build_parser().parse_args(argv)
        return args.func(_resolve(args))
    except SystemExit as exc:  # --help
        return exc.code
    except Exception as exc:
        for types, kind, code in _EXITS:
            if isinstance(exc, types):
                print(f"error={kind or type(exc).__name__} detail={exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
