"""Deterministic artifact writing: CSV, provenance, manifest.

CSV files are UTF-8 with LF line endings, a header row, and '.' decimal
floats rendered by shortest round-trip repr, so identical inputs always
produce bit-identical bytes.  Rows are formatted and written in chunks of
CSV_CHUNK_ROWS lines, so a CSV never needs its whole text in memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from itertools import islice
from pathlib import Path

TOOL_NAME = "recoilsim"
TOOL_VERSION = "0.1.0"
CSV_CHUNK_ROWS = 4096       # CSV lines formatted and written at once
DIGEST_CHUNK_BYTES = 2 ** 20


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value != value:  # NaN
            return ""
        return repr(value)
    return str(value)


def _csv_line(header: list[str], row) -> str:
    if isinstance(row, dict):
        return ",".join(format_cell(row.get(col)) for col in header)
    return ",".join(format_cell(v) for v in row)


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows`` (an iterable of sequences, or of
    dicts keyed by column) as CSV lines, CSV_CHUNK_ROWS lines at a time.

    The lines go to a temporary file beside ``path``, which replaces
    ``path`` only once every row is written: a row that fails to format
    leaves no file."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    rows = iter(rows)
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
                fh.write("\n".join(_csv_line(header, row) for row in chunk)
                         + "\n")
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    os.replace(part, path)


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:12]


def write_provenance(path, resolved_config: dict, wall_time_s: float,
                     warnings: list[str], rk4_kernel: str | None) -> None:
    doc = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "resolved_config": resolved_config,
        "rk4_kernel": rk4_kernel,
        "wall_time_s": wall_time_s,
        "written_at_unix": time.time(),
        "warnings": warnings,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_manifest(path, artifacts: list[dict]) -> None:
    Path(path).write_text(
        json.dumps({"artifacts": artifacts}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def file_digest(path) -> str:
    """The sha256 of the file at ``path``, read DIGEST_CHUNK_BYTES at a
    time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(DIGEST_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()
