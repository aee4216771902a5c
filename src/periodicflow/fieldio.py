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

A reader takes exactly these lines in this order, each within 256 bytes and
with one space before each value.  Any other header (a repeated, missing,
unknown or reordered key, extra values, a long line) is not a field file.

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


def _exact_int(word: str) -> int:
    """An integer spelled as ``str`` writes it: no sign, underscore or leading zero."""
    value = int(word)
    if str(value) != word:
        raise ValueError(f"integer {word!r} is not written as {value}")
    return value


def _plain_float(word: str) -> float:
    """A float without the underscores ``float`` accepts; any precision reads."""
    if "_" in word:
        raise ValueError(f"float {word!r} contains '_'")
    return float(word)


# The header between the magic line and the ``data`` marker: one line per row,
# in this order, holding the key and exactly ``count`` values, each read by
# the row's reader.
_HEADER = (
    ("components", _exact_int, 1),
    ("n_space", _exact_int, 3),
    ("n_time", _exact_int, 1),
    ("box", _plain_float, 3),
    ("period", _plain_float, 1),
    ("endian", str, 1),
)
# ``write_field`` writes each header line in under 100 bytes, so a reader that
# takes at most this much per line fails on any other file within 2 KiB.
_HEADER_LINE_BYTES = 256


def write_field(path: str | Path, field: PhysicalField) -> None:
    grid = field.grid
    rows = ((field.components,), grid.n_space, (grid.n_time,), grid.box, (grid.period,), ("little",))
    lines = [" ".join(map(str, (key, *values))) for (key, _, _), values in zip(_HEADER, rows)]
    header = "\n".join([MAGIC, *lines, "data", ""])
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        # one component and time node at a time: a broadcast field is never made whole
        for component in field.values:
            for node in component:
                handle.write(np.ascontiguousarray(node, dtype="<f8"))


def read_field(path: str | Path, expected_grid: Grid | None = None) -> PhysicalField:
    """Read a field file; reconstructs the grid from the header.

    Raises
    ------
    FieldFormatError
        For a header other than the one ``write_field`` writes, a bad
        component count, grid or payload length, or a non-finite payload.
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

    Only the header is read before the checks, exactly the lines that
    ``write_field`` writes and each within ``_HEADER_LINE_BYTES``, and the
    payload goes straight into the returned array, so a field costs its own
    size and no copy.
    """
    if handle.readline(_HEADER_LINE_BYTES) != MAGIC.encode("ascii") + b"\n":
        raise FieldFormatError(f"{path}: not a field file (bad magic)")
    header = []
    for key, read, count in _HEADER:
        line = handle.readline(_HEADER_LINE_BYTES)
        words = line[:-1].decode("ascii", errors="replace").split(" ")
        if line[-1:] != b"\n" or words[0] != key or len(words) != 1 + count:
            raise FieldFormatError(f"{path}: not a field file (expected a {key} line with {count} value(s))")
        try:
            header.append(tuple(map(read, words[1:])))
        except ValueError as exc:
            raise FieldFormatError(f"{path}: malformed header value ({exc})") from exc
    if handle.readline(_HEADER_LINE_BYTES) != b"data\n":
        raise FieldFormatError(f"{path}: not a field file (missing data marker)")
    (components,), n_space, (n_time,), box, (period,), (endian,) = header
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
