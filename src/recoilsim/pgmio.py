"""Binary PGM (P5) reading and writing.

Output is always 16-bit big-endian with maxval 65535, per the interchange
format used by the rest of the toolchain; input accepts 8-bit or 16-bit
raw PGM, so an 8-bit target image can be read but is never written.  A
small text sidecar carries physical metadata (pixel pitch, axis labels)
that PGM itself cannot.  Images are written one block of about
BLOCK_SAMPLES pixels at a time, so writing needs no copy of the whole
image.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

BLOCK_SAMPLES = 2 ** 14     # pixels converted or written at once

_HEADER = re.compile(
    rb"^P5\s+(?:#.*\s+)*(\d+)\s+(?:#.*\s+)*(\d+)\s+(?:#.*\s+)*(\d+)\s")


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a raw PGM; returns (array[height, width], maxval)."""
    buf = Path(path).read_bytes()
    match = _HEADER.match(buf)
    if not match:
        raise ConfigurationError(f"{path}: not a raw (P5) PGM file")
    width, height, maxval = (int(g) for g in match.groups())
    if width == 0 or height == 0:
        raise ConfigurationError(
            f"{path}: image is {width}x{height}; needs at least one pixel")
    if not 0 < maxval < 65536:
        raise ConfigurationError(f"{path}: maxval {maxval} out of range")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    offset = match.end()
    count = width * height
    if len(buf) - offset < count * dtype.itemsize:
        raise ConfigurationError(f"{path}: truncated pixel data")
    data = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    return data.reshape((height, width)).astype(
        np.uint16 if maxval > 255 else np.uint8), maxval


def row_blocks(shape):
    """Slices of whole rows of an image of ``shape`` (height, width), in
    order, each about BLOCK_SAMPLES pixels and at least one row."""
    height, width = shape
    rows = max(1, BLOCK_SAMPLES // width)
    for r0 in range(0, height, rows):
        yield slice(r0, min(r0 + rows, height))


def write_pgm(path, image: np.ndarray) -> None:
    """Write a raw 16-bit big-endian PGM with maxval 65535.

    The range check runs before the file is opened, so an image it
    rejects leaves no file.  The pixels are then converted and written
    one ``row_blocks`` block at a time."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ConfigurationError("PGM images must be 2D")
    if image.min() < 0 or image.max() > 65535:
        raise ConfigurationError("pixel values outside [0, 65535]")
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n65535\n".encode("ascii"))
        for rows in row_blocks(image.shape):
            fh.write(image[rows].astype(">u2", order="C"))


def write_sidecar(path, metadata: dict) -> None:
    """Plain-text key/value sidecar for pitch and axis information."""
    lines = [f"{key} = {value}" for key, value in metadata.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
