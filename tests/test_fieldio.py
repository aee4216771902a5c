import os

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
from halfspec import traced_peak


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


def test_reading_a_field_holds_its_payload_once(tmp_path, grid16):
    """The payload is read straight into the returned array, not through a bytes copy."""
    path = tmp_path / "u.field"
    write_field(path, sample_field(grid16))
    payload = 3 * 16**4 * 8
    fields = []
    peak = traced_peak(lambda: fields.append(read_field(path, grid16)))
    assert fields[0].values.flags.writeable
    assert peak < 1.1 * payload


def test_writing_a_field_copies_no_payload(tmp_path, grid16):
    """The payload goes to the file from the field's own buffer, not through a bytes copy."""
    field = sample_field(grid16)
    payload = 3 * 16**4 * 8
    peak = traced_peak(lambda: write_field(tmp_path / "u.field", field))
    assert (tmp_path / "u.field").stat().st_size > payload
    assert peak < 0.1 * payload


def test_writing_a_broadcast_field_makes_no_whole_copy(tmp_path, grid16):
    """A field broadcast along time, as ``v.field`` is, goes to the file node by node and reads as its whole array."""
    steady = sample_field(grid16).values[:, :1]
    field = PhysicalField(grid16, np.broadcast_to(steady, (3,) + grid16.shape))
    payload = 3 * 16**4 * 8
    peak = traced_peak(lambda: write_field(tmp_path / "v.field", field))
    assert peak < 0.1 * payload
    write_field(tmp_path / "whole.field", PhysicalField(grid16, np.array(field.values)))
    assert (tmp_path / "v.field").read_bytes() == (tmp_path / "whole.field").read_bytes()


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
    # a magic line that only starts like this format's, as another version's would
    path.write_bytes(b"PERIODICFLOW-FIELD 12" + raw[len(b"PERIODICFLOW-FIELD 1") :])
    with pytest.raises(FieldFormatError, match="bad magic"):
        read_field(path)


LARGE = 4 * 2**20


@pytest.mark.parametrize(
    "content",
    [
        b"PERIODICFLOW-FIELD 1\n" + b"key value\n" * (LARGE // 10),
        b"\0" * LARGE,
        b"NOT-A-FIELD 9\n" + b"key value\n" * (LARGE // 10),
    ],
    ids=["magic-without-marker", "no-newline", "bad-magic"],
)
def test_a_large_non_field_file_is_rejected_from_a_bounded_header(tmp_path, content):
    """Untrusted input costs a bounded header read, not the size of the file."""
    path = tmp_path / "big.field"
    path.write_bytes(content)

    def rejected():
        with pytest.raises(FieldFormatError, match="not a field file"):
            read_field(path)

    peak = traced_peak(rejected)
    assert peak < 64 * 2**10


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


SMALL = Grid(box=(1.0, 1.0, 1.0), n_space=(4, 4, 4), n_time=4, period=1.0)


def edited_field(tmp_path, old, new):
    """A 3-component field file on ``SMALL`` with ``old`` in its header replaced by ``new``."""
    path = tmp_path / "u.field"
    write_field(path, sample_field(SMALL))
    header, payload = path.read_bytes().split(b"data\n", 1)
    assert header.count(old) == 1
    path.write_bytes(header.replace(old, new) + b"data\n" + payload)
    return path


@pytest.mark.parametrize(
    "old, new",
    [
        (b"period 1.0\n", b"period 1.0\nperiod 2.0\n"),
        (b"components 3\n", b"components 3 7\n"),
        (b"endian little\n", b"endian little big\n"),
        (b"endian little\n", b"endian little\ncolour blue\n"),
        (b"period 1.0\n", b"period 1.0" + b" " * 250 + b"period 7.0\n"),
        # a reader that took the first 256 bytes for the whole line would lose the 7
        (b"period 1.0\nendian little\n", b"period 1." + b"0" * 246 + b"7endian little\n"),
        (b"components 3\nn_space 4 4 4\nn_time 4\n", b"n_time 4\nn_space 4 4 4\ncomponents 3\n"),
        (b"n_time 4\n", b"n_time  4\n"),
        (b"n_time 4\n", b"n_time\t4\n"),
    ],
    ids=[
        "repeated-key",
        "extra-components",
        "extra-endian",
        "unknown-key",
        "long-line",
        "line-past-the-bound",
        "reordered",
        "two-spaces",
        "tab",
    ],
)
def test_a_header_write_field_never_writes_is_rejected(tmp_path, old, new):
    """The reader takes the header's lines in write_field's order, each key with exactly its values."""
    with pytest.raises(FieldFormatError, match="not a field file"):
        read_field(edited_field(tmp_path, old, new))


@pytest.mark.parametrize(
    "old, new, match",
    [
        (b"n_time 4\n", b"n_time four\n", "malformed header value"),
        (b"n_time 4\n", b"n_time 0_4\n", "malformed header value"),
        (b"n_time 4\n", b"n_time +4\n", "malformed header value"),
        (b"n_space 4 4 4\n", b"n_space 4 04 4\n", "malformed header value"),
        (b"period 1.0\n", b"period 1_0.0\n", "malformed header value"),
        (b"endian little\n", b"endian big\n", "unsupported endianness"),
        (b"box 1.0 1.0 1.0\n", b"box -1.0 1.0 1.0\n", "invalid grid in header"),
    ],
    ids=[
        "malformed-value",
        "underscore-integer",
        "signed-integer",
        "leading-zero",
        "underscore-float",
        "big-endian",
        "invalid-grid",
    ],
)
def test_a_bad_header_value_is_rejected(tmp_path, old, new, match):
    with pytest.raises(FieldFormatError, match=match):
        read_field(edited_field(tmp_path, old, new))


def test_a_float_at_another_precision_is_read(tmp_path):
    """Only integers must read back as written; a float written by another tool may carry any precision."""
    field = read_field(edited_field(tmp_path, b"period 1.0\n", b"period 1.00\n"))
    assert field.grid == SMALL
    field = read_field(edited_field(tmp_path, b"period 1.0\n", b"period 6.28\n"))
    assert field.grid.period == 6.28


def test_a_non_finite_payload_is_rejected(tmp_path):
    path = tmp_path / "u.field"
    write_field(path, sample_field(SMALL))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    with pytest.raises(FieldFormatError, match="must be finite"):
        read_field(path)


def test_a_payload_shorter_than_its_reported_size_is_rejected(tmp_path, monkeypatch):
    """A file that shrinks between ``fstat`` and the read fails, and never returns a partly read field."""
    import periodicflow.fieldio

    path = tmp_path / "u.field"
    write_field(path, sample_field(SMALL))
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-16])
    real_fstat = os.fstat

    def fstat_before_the_shrink(fd):
        return os.stat_result((*real_fstat(fd)[:6], full, *real_fstat(fd)[7:]))

    monkeypatch.setattr(periodicflow.fieldio.os, "fstat", fstat_before_the_shrink)
    with pytest.raises(FieldFormatError, match="payload shrank"):
        read_field(path)
