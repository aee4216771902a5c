import numpy as np
import pytest

from periodicflow import (
    FieldFormatError,
    Grid,
    GridMismatch,
    PhysicalField,
    load_config,
    read_field,
    write_field,
)


def sample_field(grid, seed=1, components=3):
    rng = np.random.default_rng(seed)
    return PhysicalField(grid, rng.standard_normal((components,) + grid.shape))


def test_round_trip_is_byte_exact(tmp_path, grid8):
    for components in (3, 1):
        u = sample_field(grid8, seed=components, components=components)
        path = tmp_path / f"field_{components}.field"
        write_field(path, u)
        back = read_field(path)
        assert back.grid == grid8
        assert np.array_equal(back.values, u.values)

        second = tmp_path / f"again_{components}.field"
        write_field(second, back)
        assert second.read_bytes() == path.read_bytes()


def test_round_trip_preserves_anisotropic_grid(tmp_path):
    grid = Grid(box=(1.0, 2.0, 3.0), n_space=(4, 6, 8), n_time=4, period=0.7)
    u = sample_field(grid, seed=5)
    path = tmp_path / "aniso.field"
    write_field(path, u)
    back = read_field(path)
    assert back.grid == grid
    assert np.array_equal(back.values, u.values)


def test_grid_mismatch_is_reported(tmp_path, grid8, grid16):
    path = tmp_path / "u.field"
    write_field(path, sample_field(grid8))
    with pytest.raises(GridMismatch):
        read_field(path, expected_grid=grid16)
    # GridMismatch is a format error, so one except-clause can cover both
    assert issubclass(GridMismatch, FieldFormatError)


def test_bad_magic_is_rejected(tmp_path, grid8):
    path = tmp_path / "u.field"
    write_field(path, sample_field(grid8))
    raw = path.read_bytes()
    path.write_bytes(b"NOT-A-FIELD 9" + raw[len(b"PERIODICFLOW-FIELD 1") :])
    with pytest.raises(FieldFormatError):
        read_field(path)


def test_truncated_payload_is_rejected(tmp_path, grid8):
    path = tmp_path / "u.field"
    write_field(path, sample_field(grid8))
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(FieldFormatError):
        read_field(path)


def test_missing_header_key_is_rejected(tmp_path, grid8):
    path = tmp_path / "u.field"
    write_field(path, sample_field(grid8))
    text = path.read_bytes()
    mangled = text.replace(b"period ", b"perryod ", 1)
    path.write_bytes(mangled)
    with pytest.raises(FieldFormatError):
        read_field(path)


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises((FieldFormatError, OSError)):
        read_field(tmp_path / "absent.field")


def test_load_config_sections(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[grid]\nn_space = 16,16,16\nn_time = 16\n\n[flow]\nlambda = 0.5\nPeriod = 6.2832\n"
    )
    cfg = load_config(path)
    assert cfg["grid"]["n_space"] == "16,16,16"
    assert cfg["flow"]["lambda"] == "0.5"
    # keys keep their case verbatim
    assert "Period" in cfg["flow"]


def test_load_config_rejects_garbage(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("this is not an ini file\n")
    with pytest.raises(FieldFormatError):
        load_config(path)
    with pytest.raises(FieldFormatError):
        load_config(tmp_path / "missing.cfg")


@pytest.mark.parametrize(
    "components, n_space, n_time, payload, match",
    [
        (3, "4096 4096 4096", 4096, b"\0" * 8, "payload"),
        # zero components declare an empty payload, so the length check alone passes
        (0, "67108864 4 4", 4, b"", "components"),
    ],
    ids=["short-payload", "zero-components"],
)
def test_oversized_header_is_rejected_before_any_grid_is_built(
    tmp_path, monkeypatch, components, n_space, n_time, payload, match
):
    import periodicflow.fieldio

    def no_grid(*args, **kwargs):
        raise AssertionError("a Grid was built for a header that cannot describe a field")

    monkeypatch.setattr(periodicflow.fieldio, "Grid", no_grid)
    header = "\n".join(
        [
            "PERIODICFLOW-FIELD 1",
            f"components {components}",
            f"n_space {n_space}",
            f"n_time {n_time}",
            "box 1.0 1.0 1.0",
            "period 1.0",
            "endian little",
            "data",
            "",
        ]
    )
    path = tmp_path / "huge.field"
    path.write_bytes(header.encode("ascii") + payload)
    with pytest.raises(FieldFormatError, match=match):
        read_field(path)
