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
from pathlib import Path

import numpy as np

from .domain import Grid
from .errors import FieldFormatError, GridMismatch
from .fourier import PhysicalField

__all__ = ["write_field", "read_field", "load_config"]

MAGIC = "PERIODICFLOW-FIELD 1"


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
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        handle.write(payload)


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
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise FieldFormatError(f"{path}: {exc}") from exc

    marker = b"\ndata\n"
    head_end = blob.find(marker)
    if not blob.startswith(MAGIC.encode("ascii")) or head_end < 0:
        raise FieldFormatError(f"{path}: not a field file (bad magic or missing data marker)")
    header_lines = blob[: head_end].decode("ascii", errors="replace").splitlines()[1:]
    entries = _parse_header(header_lines, path)

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
    payload = blob[head_end + len(marker):]
    count = components * math.prod(n_space) * n_time
    if len(payload) != count * 8:
        raise FieldFormatError(
            f"{path}: payload holds {len(payload)} bytes, header declares {count * 8}"
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

    values = np.frombuffer(payload, dtype="<f8").reshape((components,) + grid.shape)
    try:
        return PhysicalField(grid, values.astype(np.float64))
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
