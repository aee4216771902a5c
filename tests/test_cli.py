import numpy as np
import pytest

from periodicflow import PhysicalField, read_field, write_field
from periodicflow.cli import main

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


def test_oversized_forcing_exits_diverging(tmp_path, capsys):
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
    capsys.readouterr()
