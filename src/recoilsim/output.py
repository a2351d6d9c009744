"""Deterministic artifact writing: CSV, provenance, manifest.

CSV files are UTF-8 with LF line endings, a header row, and '.' decimal
floats rendered by shortest round-trip repr, so identical inputs always
produce bit-identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

TOOL_NAME = "recoilsim"
TOOL_VERSION = "0.1.0"


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value != value:  # NaN
            return ""
        return repr(value)
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        if isinstance(row, dict):
            lines.append(",".join(format_cell(row.get(col)) for col in header))
        else:
            lines.append(",".join(format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict, digits: int = 12) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:digits]


def write_provenance(path, resolved_config: dict, wall_time_s: float,
                     warnings: list[str], rk4_kernel: str) -> None:
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
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
