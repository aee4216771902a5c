"""Field files and run configuration.

A field file is a plain-text header followed by raw little-endian 64-bit
floats.  The header names the grid so a file is self-describing:

    PERIODICFLOW-FIELD 1
    components 3
    n_space 16 16 16
    n_time 16
    box 6.283185307179586 6.283185307179586 6.283185307179586
    period 6.283185307179586
    endian little
    data

The binary payload holds node samples in canonical traversal order: the
component index outermost, then time-major, then x3, x2, x1, each ascending
from node zero.  Configuration files are flat key = value text grouped into
sections, with no nesting.
"""

from __future__ import annotations

import configparser
import math
import os
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .domain import Grid
from .errors import FieldFormatError, GridMismatch
from .fourier import PhysicalField

__all__ = ["write_field", "read_field", "load_config"]

MAGIC = "PERIODICFLOW-FIELD 1"
# Bounds on the header a reader accepts: ``write_field`` writes 8 lines, each
# under 100 bytes, so any other file fails after a few KiB read at most.
_HEADER_LINES = 16
_HEADER_LINE_BYTES = 256


def write_field(path: str | Path, field: PhysicalField) -> None:
    grid = field.grid
    header = "\n".join(
        [
            MAGIC,
            f"components {field.components}",
            "n_space " + " ".join(str(n) for n in grid.n_space),
            f"n_time {grid.n_time}",
            "box " + " ".join(repr(b) for b in grid.box),
            f"period {grid.period!r}",
            "endian little",
            "data",
            "",
        ]
    )
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        handle.write(np.ascontiguousarray(field.values, dtype="<f8"))


def _parse_header(lines: list[str], path: str) -> dict[str, list[str]]:
    entries: dict[str, list[str]] = {}
    for line in lines:
        parts = line.split()
        if not parts:
            raise FieldFormatError(f"{path}: blank header line")
        entries[parts[0]] = parts[1:]
    required = ("components", "n_space", "n_time", "box", "period", "endian")
    for key in required:
        if key not in entries:
            raise FieldFormatError(f"{path}: header is missing {key!r}")
    return entries


def read_field(path: str | Path, expected_grid: Grid | None = None) -> PhysicalField:
    """Read a field file; reconstructs the grid from the header.

    Raises
    ------
    FieldFormatError
        For a bad magic line, missing keys, a bad component count or payload length.
    GridMismatch
        When ``expected_grid`` is given and the header disagrees with it.
    """
    path = str(path)
    try:
        with open(path, "rb") as handle:
            return _read_open_field(handle, path, expected_grid)
    except OSError as exc:
        raise FieldFormatError(f"{path}: {exc}") from exc


def _read_open_field(handle: BinaryIO, path: str, expected_grid: Grid | None) -> PhysicalField:
    """``read_field`` on an open file: the header line by line, then the payload into its array.

    Only the header is read before the checks, at most ``_HEADER_LINES``
    lines of ``_HEADER_LINE_BYTES`` each, and the payload goes straight into
    the returned array, so a field costs its own size and no copy.
    """
    not_a_field = FieldFormatError(f"{path}: not a field file (bad magic or missing data marker)")
    if handle.readline(_HEADER_LINE_BYTES) != MAGIC.encode("ascii") + b"\n":
        raise not_a_field
    header = bytearray()
    for _ in range(_HEADER_LINES - 1):
        line = handle.readline(_HEADER_LINE_BYTES)
        if line == b"data\n":
            break
        header += line
    else:
        raise not_a_field
    entries = _parse_header(header.decode("ascii", errors="replace").splitlines(), path)

    try:
        components = int(entries["components"][0])
        n_space = tuple(int(v) for v in entries["n_space"])
        n_time = int(entries["n_time"][0])
        box = tuple(float(v) for v in entries["box"])
        period = float(entries["period"][0])
        endian = entries["endian"][0]
    except (ValueError, IndexError) as exc:
        raise FieldFormatError(f"{path}: malformed header value ({exc})") from exc
    if endian != "little":
        raise FieldFormatError(f"{path}: unsupported endianness {endian!r}")
    if components not in (1, 3):
        raise FieldFormatError(f"{path}: fields carry 1 or 3 components, header declares {components}")

    # The payload length is checked against the header's own integers before
    # a Grid exists, so a corrupt header cannot trigger a large allocation.
    payload_bytes = os.fstat(handle.fileno()).st_size - handle.tell()
    count = components * math.prod(n_space) * n_time
    if payload_bytes != count * 8:
        raise FieldFormatError(
            f"{path}: payload holds {payload_bytes} bytes, header declares {count * 8}"
        )

    try:
        grid = Grid(box=box, n_space=n_space, n_time=n_time, period=period)
    except ValueError as exc:
        raise FieldFormatError(f"{path}: invalid grid in header ({exc})") from exc
    if expected_grid is not None and grid != expected_grid:
        raise GridMismatch(
            f"{path}: file grid {grid.n_space} x {grid.n_time} on box {grid.box} "
            f"does not match the expected grid"
        )

    values = np.empty((components,) + grid.shape, dtype="<f8")
    if handle.readinto(values) != values.nbytes:
        raise FieldFormatError(f"{path}: payload shrank while it was read")
    try:
        return PhysicalField(grid, values)
    except ValueError as exc:
        raise FieldFormatError(f"{path}: {exc}") from exc


def load_config(path: str | Path) -> dict[str, dict[str, str]]:
    """Parse a sectioned key = value file into nested dicts (keys kept verbatim)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise FieldFormatError(f"{path}: {exc}") from exc
    except configparser.Error as exc:
        raise FieldFormatError(f"{path}: malformed config ({exc})") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}
