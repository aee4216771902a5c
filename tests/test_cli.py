import math
import re
from pathlib import Path

import numpy as np
import pytest

import periodicflow.cli as cli
from periodicflow import (
    PROBE_SYMBOLS,
    Diverging,
    Params,
    PhysicalField,
    energy_balance,
    forward,
    inverse,
    manufactured,
    manufactured_preset,
    read_field,
    spectrum_decay,
    time_mean_part,
    write_field,
)
from periodicflow.cli import main
from halfspec import traced_peak

GRID8 = "--grid", "8"


def run(*argv):
    return main(list(argv))


def solve_into(out_dir, *extra):
    return run(
        "solve", *GRID8, "--preset", "trig", "--out-dir", str(out_dir), *extra
    )


def test_solve_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run1"
    assert solve_into(out) == 0
    for name in (
        "u.field",
        "v.field",
        "w.field",
        "p.field",
        "f.field",
        "norms.csv",
        "energy.csv",
        "iterations.csv",
        "spectrum.csv",
    ):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "converged iterations=" in stdout
    assert "pde_residual=" in stdout


def test_solve_writes_steady_and_oscillatory_parts(tmp_path):
    out = tmp_path / "run"
    assert run("solve", *GRID8, "--preset", "random", "--seed", "4", "--out-dir", str(out)) == 0
    u, v, w = (read_field(out / f"{name}.field").values for name in ("u", "v", "w"))
    assert np.abs(v).max() > 0.0 and np.abs(w).max() > 0.0
    assert np.array_equal(v, np.broadcast_to(v[:, :1], v.shape))
    assert np.abs(v + w - u).max() <= 1e-14 * np.abs(u).max()
    steady = inverse(time_mean_part(forward(read_field(out / "u.field")))).values
    assert np.abs(v - steady).max() <= 1e-14 * np.abs(u).max()


def test_solve_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert solve_into(a) == 0
    assert solve_into(b) == 0
    assert (a / "u.field").read_bytes() == (b / "u.field").read_bytes()
    assert (a / "p.field").read_bytes() == (b / "p.field").read_bytes()


def test_solve_requires_a_forcing(tmp_path, capsys):
    out = tmp_path / "nothing"
    code = run("solve", *GRID8, "--out-dir", str(out))
    assert code == 2
    assert "error=Usage" in capsys.readouterr().err
    assert not out.exists()


def test_solve_requires_a_grid(capsys):
    assert run("solve", "--preset", "trig") == 2
    assert "error=Usage" in capsys.readouterr().err


def test_solve_rejects_odd_resolution(capsys):
    assert run("solve", "--grid", "7", "--preset", "trig") == 2
    assert "error=Usage" in capsys.readouterr().err


def test_oversized_forcing_exits_diverging(tmp_path, capsys, monkeypatch):
    raised = []
    real_solve = cli.solve

    def recording_solve(*args, **kwargs):
        try:
            return real_solve(*args, **kwargs)
        except Diverging as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(cli, "solve", recording_solve)
    out = tmp_path / "blow"
    code = run(
        "solve",
        *GRID8,
        "--preset",
        "analytic",
        "--amplitude",
        "0.05",
        "--scale",
        "1e4",
        "--out-dir",
        str(out),
    )
    assert code == 4
    assert "error=Diverging" in capsys.readouterr().err
    # the failed run leaves one row per recorded update
    (exc,) = raised
    rows = (out / "iterations.csv").read_text().splitlines()
    assert rows[0] == "iteration,update"
    assert rows[1:] == [f"{i + 1},{d:.12e}" for i, d in enumerate(exc.update_history)]
    assert len(rows) > 3


def test_allocation_failure_is_one_line_and_exit_two(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 4.01 GiB for an array")

    monkeypatch.setattr(cli, "solve", no_memory)
    assert solve_into(tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == "error=Memory detail=Unable to allocate 4.01 GiB for an array\n"


def test_an_unmapped_exception_propagates(tmp_path, capsys, monkeypatch):
    """A type outside ``_EXITS`` is a defect, not an input error: ``main`` re-raises it with its traceback."""
    def broken(*args, **kwargs):
        raise RuntimeError("not an input error")

    monkeypatch.setattr(cli, "solve", broken)
    assert not any(isinstance(RuntimeError("x"), types) for types, _, _ in cli._EXITS)
    with pytest.raises(RuntimeError, match="not an input error"):
        solve_into(tmp_path / "out")
    assert capsys.readouterr().err == ""


def test_mean_mode_forcing_exits_five(tmp_path, capsys, grid8):
    forcing = tmp_path / "constant.field"
    write_field(forcing, PhysicalField(grid8, np.full((3,) + grid8.shape, 0.1)))
    code = run(
        "solve",
        *GRID8,
        "--forcing-file",
        str(forcing),
        "--out-dir",
        str(tmp_path / "out"),
    )
    assert code == 5
    assert "error=MeanModeNonzero" in capsys.readouterr().err


def analytic_forcing(grid, amplitude=1e-2):
    """The forcing of the ``analytic`` preset as the CLI builds it, with its default drift."""
    u_star, p_star = manufactured_preset("analytic", amplitude, grid)
    return manufactured(u_star, p_star, Params(lam=1.0, period=grid.period), grid, solenoidal_tol=1e-2)[0]


@pytest.mark.parametrize(
    "amplitude, flags, scale, code, kind",
    [
        ("0.01", ("--max-iter", "2"), 0.5, 3, "NoConvergence"),
        ("0.05", (), 1e4, 4, "Diverging"),
        (None, (), 3.0, 5, "MeanModeNonzero"),
    ],
    ids=["no convergence", "divergence", "mean mode"],
)
def test_a_failed_solve_leaves_its_scaled_forcing(tmp_path, capsys, grid8, monkeypatch, amplitude, flags, scale,
                                                  code, kind):
    """The forcing is written before the solve, so exits 3, 4 and 5 leave ``f.field`` with the ``--scale``d samples.

    Without an amplitude the forcing is a constant field file.
    """
    monkeypatch.chdir(tmp_path)
    constant = PhysicalField(grid8, np.full((3,) + grid8.shape, 0.1))
    write_field("constant.field", constant)
    source = ("--preset", "analytic", "--amplitude", amplitude) if amplitude else ("--forcing-file", "constant.field")
    out = tmp_path / "out"
    assert run("solve", *GRID8, *source, *flags, "--scale", str(scale), "--out-dir", str(out)) == code
    assert f"error={kind}" in capsys.readouterr().err
    samples = analytic_forcing(grid8, float(amplitude)).values if amplitude else constant.values
    assert np.array_equal(read_field(out / "f.field", grid8).values, samples * scale)


def test_a_forcing_rejected_as_usage_creates_no_directory(tmp_path, capsys, grid8):
    scalar = tmp_path / "scalar.field"
    write_field(scalar, PhysicalField(grid8, np.zeros((1,) + grid8.shape)))
    out = tmp_path / "out"
    assert run("solve", *GRID8, "--forcing-file", str(scalar), "--out-dir", str(out)) == 2
    assert capsys.readouterr().err.startswith("error=Usage detail=--forcing-file must hold 3 component(s)")
    assert not out.exists()


def test_a_solve_holds_neither_the_forcing_samples_nor_copies_of_spent_spectra(tmp_path, capsys, grid16,
                                                                             two_threads):
    """End to end at 16^4, the traced peak of a CLI solve is 3.89 times the velocity spectrum.

    Keeping the forcing samples through the solve for the last write, and
    time-passing copies of the spectra the forcing build and ``norms`` throw
    away, took it to 5.17.
    """
    write_field(tmp_path / "f.field", analytic_forcing(grid16))
    argv = ["solve", "--grid", "16", "--forcing-file", str(tmp_path / "f.field"), "--out-dir", str(tmp_path / "out")]
    codes = []
    peak = traced_peak(lambda: codes.append(main(argv)))
    assert codes == [0]
    capsys.readouterr()
    assert peak < 4.4 * 3 * math.prod(grid16.spectral_shape) * np.dtype(np.complex128).itemsize


def test_verify_accepts_solver_output(tmp_path):
    out = tmp_path / "run"
    assert solve_into(out) == 0
    verdict = tmp_path / "verdict.csv"
    code = run(
        "verify",
        *GRID8,
        "--preset",
        "trig",
        "--velocity",
        str(out / "u.field"),
        "--pressure",
        str(out / "p.field"),
        "--out",
        str(verdict),
    )
    assert code == 0
    text = verdict.read_text()
    assert text.splitlines()[0] == "check,value,threshold,passed"
    assert "pde_residual" in text
    assert "norm_pressure[q=1.2 r=6]" in text


def test_verify_rejects_wrong_fields(tmp_path, capsys):
    out = tmp_path / "run"
    assert solve_into(out) == 0
    # scaled velocity no longer solves the system driven by the same forcing
    code = run(
        "verify",
        *GRID8,
        "--preset",
        "trig",
        "--scale",
        "3.0",
        "--velocity",
        str(out / "u.field"),
        "--pressure",
        str(out / "p.field"),
        "--out",
        str(tmp_path / "verdict.csv"),
    )
    assert code == 1
    capsys.readouterr()


def test_verify_energy_rows_read_the_energy_report(tmp_path, capsys):
    """``energy_inequality`` is dissipation - power_in, judged True on the solver's fields; ``energy_gap`` is the gap."""
    out = tmp_path / "run"
    assert solve_into(out) == 0
    u = read_field(out / "u.field")
    f_hat = forward(read_field(out / "f.field"))
    write_field(tmp_path / "u2.field", PhysicalField(u.grid, 2.0 * u.values))
    # doubling the field quadruples the dissipation but only doubles the power
    for velocity, passed in ((out / "u.field", "True"), (tmp_path / "u2.field", "False")):
        verdict = tmp_path / "verdict.csv"
        code = run("verify", *GRID8, "--preset", "trig", "--velocity", str(velocity),
                   "--pressure", str(out / "p.field"), "--out", str(verdict))
        rows = {line.split(",", 1)[0]: line.split(",")[1:] for line in verdict.read_text().splitlines()}
        energy = energy_balance(read_field(velocity), f_hat)
        assert rows["energy_inequality"] == [f"{energy.dissipation - energy.power_in:.12e}", "1.000e-06", passed]
        assert rows["energy_gap"] == [f"{energy.relative_gap:.12e}", "", ""]
        assert code == (0 if passed == "True" else 1)
    capsys.readouterr()


def test_verify_zero_fields_against_zero_forcing(tmp_path, grid8, capsys):
    zero3 = PhysicalField(grid8, np.zeros((3,) + grid8.shape))
    zero1 = PhysicalField(grid8, np.zeros((1,) + grid8.shape))
    write_field(tmp_path / "u.field", zero3)
    write_field(tmp_path / "p.field", zero1)
    write_field(tmp_path / "f.field", zero3)
    code = run(
        "verify",
        *GRID8,
        "--forcing-file",
        str(tmp_path / "f.field"),
        "--velocity",
        str(tmp_path / "u.field"),
        "--pressure",
        str(tmp_path / "p.field"),
    )
    assert code == 0
    capsys.readouterr()


def test_verify_requires_field_paths(capsys):
    assert run("verify", *GRID8, "--preset", "trig") == 2
    assert "error=Usage" in capsys.readouterr().err


def test_verify_rejects_a_scalar_velocity_file(tmp_path, capsys, grid8):
    path = tmp_path / "scalar.field"
    write_field(path, PhysicalField(grid8, np.zeros((1,) + grid8.shape)))
    code = run("verify", *GRID8, "--preset", "trig", "--velocity", str(path), "--pressure", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert "error=Usage" in err
    assert "--velocity must hold 3 component(s), found 1" in err


def test_driftless_solve_says_its_drift_weighted_norms_degenerate(tmp_path, capsys):
    assert solve_into(tmp_path / "run", "--lambda", "0") == 0
    assert "note=driftless lambda is zero" in capsys.readouterr().out


def test_corrupted_field_exits_io(tmp_path, capsys, grid8):
    path = tmp_path / "u.field"
    write_field(path, PhysicalField(grid8, np.zeros((3,) + grid8.shape)))
    path.write_bytes(path.read_bytes()[:40])
    code = run(
        "verify",
        *GRID8,
        "--preset",
        "trig",
        "--velocity",
        str(path),
        "--pressure",
        str(path),
    )
    assert code == 6
    assert "error=FieldFormat" in capsys.readouterr().err


def test_probe_writes_csv(tmp_path):
    out = tmp_path / "probe.csv"
    code = run("probe", "one", "helmholtz", "--resolution", "4", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "symbol,max_abs,marcinkiewicz_sup,sample_count"
    assert len(lines) == 3
    assert lines[1].startswith("one,")


def test_probe_rejects_unknown_symbol(capsys):
    assert run("probe", "bogus") == 2
    assert "error=Usage" in capsys.readouterr().err


def test_norms_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    assert solve_into(out) == 0
    report = tmp_path / "norms.csv"
    code = run(
        "norms",
        *GRID8,
        "--velocity",
        str(out / "u.field"),
        "--pressure",
        str(out / "p.field"),
        "--q",
        "1.2,1.5",
        "--r",
        "4",
        "--out",
        str(report),
    )
    assert code == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 3  # header + one row per q
    capsys.readouterr()


def test_norms_rejects_out_of_range_exponent(tmp_path, capsys):
    out = tmp_path / "run"
    assert solve_into(out) == 0
    code = run(
        "norms", *GRID8, "--velocity", str(out / "u.field"), "--q", "2.5"
    )
    assert code == 2
    assert "error=Usage" in capsys.readouterr().err


NORMS_HEADER = (
    "q,r,lambda,driftless,lq_u,w21q_w,oseen_amplitude,oseen_gradient,oseen_drift,oseen_hessian,oseen_total,xpres_p"
)


def test_the_cli_renders_every_csv_table(tmp_path, capsys):
    """The solve's table headers, a driftless norms row, the table shapes, and ``--out`` writing what stdout prints."""
    out = tmp_path / "run"
    assert solve_into(out, "--lambda", "0") == 0
    norms_csv, energy_csv, spectrum_csv = ((out / f"{name}.csv").read_text().splitlines()
                                           for name in ("norms", "energy", "spectrum"))
    assert norms_csv[0] == NORMS_HEADER
    assert energy_csv[0] == "dissipation,power_in,relative_gap"
    assert spectrum_csv[0] == "shell,max_abs"
    assert ",0,True," in norms_csv[1]  # lambda and driftless come from the run's params
    assert len(spectrum_csv) - 1 == len(spectrum_decay(forward(read_field(out / "u.field"))).shells)

    fields = ("--velocity", str(out / "u.field"), "--pressure", str(out / "p.field"))
    commands = {
        "verify": ("verify", *GRID8, "--lambda", "0", "--preset", "trig", *fields),
        "norms": ("norms", *GRID8, "--lambda", "0", *fields, "--q", "1.2,1.5", "--r", "4,6"),
        "norms without a pressure": ("norms", *GRID8, "--lambda", "0", *fields[:2], "--q", "1.2,1.5"),
        "probe": ("probe", "--resolution", "4"),
    }
    capsys.readouterr()
    printed = {}
    for name, argv in commands.items():
        assert run(*argv) == 0, name
        printed[name] = capsys.readouterr().out
        path = tmp_path / f"{name}.csv"
        assert run(*argv, "--out", str(path)) == 0, name
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == printed[name].encode(), name

    for name, rows in (("norms", 4), ("norms without a pressure", 2)):
        header, *lines = printed[name].splitlines()
        assert header == NORMS_HEADER
        assert len(lines) == rows  # one row per (q, r) with a pressure, one per q without
        assert all(line.count(",") == header.count(",") for line in lines)
    header, *lines = printed["probe"].splitlines()
    assert [line.split(",")[0] for line in lines] == list(PROBE_SYMBOLS)
    assert all(line.count(",") == header.count(",") for line in lines)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[grid]\nn_space = 8,8,8\nn_time = 8\n\n"
        "[params]\nlambda = 0.5\n\n"
        "[forcing]\npreset = trig\n\n"
        "[output]\nout_dir = {}\n".format(tmp_path / "from_config")
    )
    assert run("solve", "--config", str(cfg)) == 0
    norms_csv = (tmp_path / "from_config" / "norms.csv").read_text().splitlines()
    assert norms_csv[1].split(",")[2] == "0.5"

    assert run("solve", "--config", str(cfg), "--lambda", "1.0", "--out-dir", str(tmp_path / "flag")) == 0
    norms_csv = (tmp_path / "flag" / "norms.csv").read_text().splitlines()
    assert norms_csv[1].split(",")[2] == "1"


def test_unknown_subcommand_is_usage_error(capsys):
    assert run("explode") == 2
    err = capsys.readouterr().err
    assert err.startswith("error=Usage detail=") and "explode" in err
    assert len(err.splitlines()) == 1


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert run("solve", "--help") == 0
    assert "--lambda" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (("probe", "--resolution", "x"), None, "argument --resolution"),
        (("solve", *GRID8, "--preset", "trig", "--lambda", "abc"), None, "--lambda"),
        (("solve",), "[grid]\nn_space = 8\nn_time = eight\n[forcing]\npreset = trig\n", "[grid] n_time"),
        (("solve", "--grid", "8,8", "--preset", "trig"), None, "--grid"),
        (("norms", *GRID8, "--velocity", "u.field", "--q", "1.2,x"), None, "--q"),
        # values that convert but fail validation
        (("solve", *GRID8, "--preset", "trig", "--tol", "0"), None, "--tol: tol must be positive"),
        (("solve", *GRID8, "--preset", "trig", "--max-iter", "0"), None, "--max-iter: max_iter"),
        # the solver settings are checked before the forcing file is read
        (("solve", *GRID8, "--forcing-file", "missing.field", "--tol", "0"), None, "--tol: tol"),
        (("solve", *GRID8, "--preset", "trig"), "[solver]\ntol = nan\n", "[solver] tol: tol"),
        (("solve", *GRID8, "--preset", "trig", "--period", "-1"), None, "--period: period"),
        (("solve", *GRID8, "--preset", "trig", "--lambda", "inf"), None, "--lambda: lam"),
        (("solve", *GRID8, "--preset", "trig", "--box", "1,0,1"), None, "--box: box"),
        (("verify", "--grid", "8,8,7,8", "--velocity", "u.field"), None, "--grid: n_space"),
        (("solve", "--preset", "trig"), "[grid]\nn_space = 8\nn_time = 5\n", "[grid] n_time: n_time"),
        (("norms", *GRID8, "--velocity", "u.field", "--period", "0"), None, "--period: period"),
        (("probe", "--period", "-1"), None, "--period: period"),
        (("probe", "--lambda", "nan"), None, "--lambda: lam"),
        # flags outside the settings table
        (("verify", *GRID8, "--velocity", "u.field", "--residual-tol", "-1"), None, "--residual-tol: "),
        (("verify", *GRID8, "--velocity", "u.field", "--energy-tol", "nan"), None, "--energy-tol: "),
        (("probe", "--resolution", "1"), None, "--resolution: resolution must be at least 2"),
        (("norms", *GRID8, "--velocity", "u.field", "--q", "3"), None, "--q: q (the norm exponent)"),
        (("norms", *GRID8, "--velocity", "u.field", "--pressure", "p.field", "--r", "1"), None,
         "--r: r (the pressure gradient exponent)"),
        # empty exponent lists, which would give a table without rows or a NaN pressure norm
        (("norms", *GRID8, "--velocity", "u.field", "--q", ""), None, "--q: q (the norm exponent)"),
        (("norms", *GRID8, "--velocity", "u.field", "--pressure", "p.field", "--r", ","), None,
         "--r: r (the pressure gradient exponent)"),
        # forcing settings, rejected before any field is sampled
        (("solve", *GRID8, "--preset", "random", "--seed", "-1"), None, "--seed: seed"),
        (("solve", *GRID8, "--preset", "random", "--cutoff", "0"), None, "--cutoff: cutoff must be at least 1"),
        (("solve", *GRID8, "--preset", "trig", "--scale", "nan"), None, "--scale: scale"),
        (("solve", *GRID8, "--preset", "random", "--amplitude", "inf"), None, "--amplitude: amplitude"),
        (("solve", *GRID8), "[forcing]\npreset = random\nseed = -1\n", "[forcing] seed: seed"),
        # r is checked without a pressure too
        (("norms", *GRID8, "--velocity", "u.field", "--r", "1"), None, "--r: r (the pressure gradient exponent)"),
        (("norms", *GRID8, "--velocity", "u.field", "--r", ""), None, "--r: r (the pressure gradient exponent)"),
    ],
)
def test_bad_value_is_one_usage_line_naming_its_setting(tmp_path, capsys, grid8, monkeypatch, argv, config, named):
    monkeypatch.chdir(tmp_path)
    write_field("u.field", PhysicalField(grid8, np.zeros((3,) + grid8.shape)))
    write_field("p.field", PhysicalField(grid8, np.zeros((1,) + grid8.shape)))
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ("--config", str(tmp_path / "run.cfg"))
    assert run(*argv, "--out-dir" if argv[0] == "solve" else "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error=Usage detail={named}") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_fails_before_any_work(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[grid]\nn_space = 8,8,8\nn_time = 8\n\n"
        "[params]\nlamda = 0.5\n\n"
        "[forcing]\npreset = trig\n\n"
        "[output]\nout_dir = {}\n".format(tmp_path / "out")
    )
    assert run("solve", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == "error=Usage detail=unknown config key [params] lamda\n"
    assert not (tmp_path / "out").exists()


def test_one_config_file_serves_every_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[grid]\nresolution = 8\n\n"
        "[forcing]\npreset = trig\n\n"
        "[solver]\ntol = 1e-11\n\n"
        f"[output]\nout_dir = {out}\n\n"
        f"[verify]\nvelocity = {out / 'u.field'}\npressure = {out / 'p.field'}\n"
    )
    assert run("solve", "--config", str(cfg)) == 0
    assert run("verify", "--config", str(cfg), "--out", str(tmp_path / "verdict.csv")) == 0
    # norms reads [verify] pressure as well as [verify] velocity
    assert run("norms", "--config", str(cfg), "--out", str(tmp_path / "norms.csv")) == 0
    assert (tmp_path / "norms.csv").read_text().splitlines()[1].split(",")[-1] != "nan"
    assert run("norms", *GRID8, "--velocity", str(out / "u.field"), "--pressure", str(out / "p.field"),
               "--out", str(tmp_path / "flags.csv")) == 0
    assert (tmp_path / "norms.csv").read_text() == (tmp_path / "flags.csv").read_text()
    capsys.readouterr()


COMMAND_SETTINGS = [
    (command, setting)
    for command in ("solve", "verify", "norms")
    for setting in cli._SETTINGS
    if setting.section in cli.build_parser().parse_args([command]).sections
]


@pytest.mark.parametrize(
    "command, setting", COMMAND_SETTINGS, ids=[f"{c}-{s.section}.{s.key}" for c, s in COMMAND_SETTINGS]
)
def test_every_config_key_matches_and_loses_to_its_flag(tmp_path, command, setting):
    cfg = tmp_path / "run.cfg"

    def resolved(config_text, *flags):
        cfg.write_text(f"[{setting.section}]\n{setting.key} = {config_text}\n" if config_text else "")
        args = cli.build_parser().parse_args([command, "--config", str(cfg), *flags])
        return getattr(cli._resolve(args), setting.name)

    def value(text):
        return setting.kind(text) if setting.count is None else (setting.kind(text),) * setting.count

    assert resolved("3") == value("3")
    if setting.flag is not None:
        assert resolved(None, setting.flag, "3") == value("3")
        assert resolved("3", setting.flag, "5") == value("5")


def test_readme_lists_the_cli_settings_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` +\| (\S+) +\| (.*) \|$", readme, re.MULTILINE)
    assert [(section, key, flag) for section, key, flag, _ in rows] == [
        (s.section, s.key, f"`{s.flag}`" if s.flag else "none") for s in cli._SETTINGS
    ]
    for (_, _, _, default), setting in zip(rows, cli._SETTINGS):
        assert default.startswith(f"`{setting.default}`" if setting.default else "none"), default


def test_random_preset_default_cutoff_keeps_the_energy_inequality(tmp_path, capsys):
    # The default cutoff stays inside the 2/3 band of the coarsest axis (N1 = 8
    # allows shell 2), where the dealiased transport is exactly energy-neutral.
    setup = ("--grid", "8,12,16,10", "--box", "2.5,1,7", "--period", "0.7", "--lambda", "-1.5",
             "--preset", "random", "--amplitude", "2")
    out = tmp_path / "run"
    assert run("solve", *setup, "--out-dir", str(out)) == 0
    fields = ("--velocity", str(out / "u.field"), "--pressure", str(out / "p.field"))
    assert run("verify", *setup, *fields, "--out", str(tmp_path / "verdict.csv")) == 0
    capsys.readouterr()


class FakeC:
    """A C library whose ``mallopt`` records its calls and returns ``result``."""

    def __init__(self, result=1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


@pytest.fixture
def glibc_defaults(monkeypatch):
    for name in (*cli._MALLOC_VARIABLES, "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)


def probe_exits_zero(capsys):
    assert run("probe", "one", "--resolution", "4") == 0
    assert capsys.readouterr().out.startswith("symbol,")


@pytest.mark.parametrize("result, calls", [(1, [(-3, 32 << 20), (-1, -1)]), (0, [(-3, 32 << 20)])],
                         ids=["accepted", "refused"])
def test_cli_keeps_freed_memory(glibc_defaults, monkeypatch, capsys, result, calls):
    c = FakeC(result)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: c)
    probe_exits_zero(capsys)
    # a refused mmap threshold leaves the trim threshold alone
    assert c.calls == calls


def no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("library", [no_c_library, lambda name: object()], ids=["no-library", "no-mallopt"])
def test_cli_runs_where_the_allocator_cannot_be_tuned(glibc_defaults, monkeypatch, capsys, library):
    monkeypatch.setattr(cli.ctypes, "CDLL", library)
    probe_exits_zero(capsys)


@pytest.mark.parametrize("name, value", [("MALLOC_MMAP_THRESHOLD_", "65536"), ("MALLOC_TRIM_THRESHOLD_", "0"),
                                         ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0")])
def test_glibc_settings_of_the_user_win(glibc_defaults, monkeypatch, capsys, name, value):
    c = FakeC()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: c)
    monkeypatch.setenv(name, value)
    probe_exits_zero(capsys)
    assert c.calls == []
