"""Seeded workload configs and the checks on what each run writes.

A seed picks one jitter level k in -L..L (L = ``jitter_levels`` in
spec.json); every jittered parameter moves by k/L of its band.  The bands
keep the work within a few percent and the physics checks valid, and every
level has a reference in reference.json, so each seed's summary and
artifacts can be compared with the values recorded when the benchmark was
introduced (record them again with perfbench/record_reference.py).
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
REFERENCE_PATH = HERE / "reference.json"
LEVELS = SPEC["jitter_levels"]


def level_for_seed(seed: int) -> int:
    return random.Random(seed).randint(-LEVELS, LEVELS)


def config_for_level(name: str, level: int) -> dict:
    """The workload's template with every jittered parameter at ``level``."""
    spec = SPEC["workloads"][name]
    doc = copy.deepcopy(spec["template"])
    for path, band in spec["jitter"].items():
        section, key = path.split(".")
        base = doc[section][key]
        if "rel" in band:
            value = base * (1.0 + band["rel"] * level / LEVELS)
        else:
            value = base + band["abs"] * level / LEVELS
        doc[section][key] = float(f"{value:.12g}")
    return doc


def config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def artifact_kind(path: Path) -> str:
    """``split2d-<hash>.fringe.pgm`` -> ``fringe.pgm``."""
    return path.name.split(".", 1)[1]


def read_outputs(out_dir: Path) -> tuple[dict, dict]:
    """The run's summary values and {artifact kind: sha256} of every file
    the manifest digests.  Raises ValueError on a missing or inconsistent
    manifest or summary."""
    manifests = list(out_dir.glob("*.manifest.json"))
    if len(manifests) != 1:
        raise ValueError(f"expected one manifest, found {len(manifests)}")
    listed = json.loads(manifests[0].read_text(encoding="utf-8"))["artifacts"]
    digests = {}
    for entry in listed:
        path = out_dir / entry["path"]
        if not path.is_file():
            raise ValueError(f"manifest lists missing file {entry['path']}")
        if "sha256" in entry:
            actual = hashlib.sha256(path.read_bytes()).hexdigest()
            if actual != entry["sha256"]:
                raise ValueError(f"manifest digest of {entry['path']} is wrong")
            digests[artifact_kind(path)] = actual
    summaries = list(out_dir.glob("*.summary.csv"))
    if len(summaries) != 1:
        raise ValueError(f"expected one summary.csv, found {len(summaries)}")
    with summaries[0].open(newline="", encoding="utf-8") as fh:
        summary = {row["quantity"]: float(row["value"])
                   for row in csv.DictReader(fh)}
    return summary, digests


def _near(problems, summary, key, expected, tol):
    value = summary.get(key)
    if value is None:
        problems.append(f"summary lacks {key}")
    elif not abs(value - expected) <= tol:
        problems.append(f"{key} = {value!r}, expected {expected!r} +- {tol!r}")


def physics_problems(name: str, doc: dict, summary: dict,
                     out_dir: Path) -> list[str]:
    """Invariants of each plan, with the acceptance suite's tolerances."""
    problems: list[str] = []
    params = doc["params"]
    if name == "ladder":
        _near(problems, summary, "final_recoils_transferred",
              2.0 * params["n_pairs"], 0.5)
        _near(problems, summary, "final_deflected_population", 0.5, 0.005)
    elif name == "ramsey_scan":
        tau = params["target_tau_s"]
        _near(problems, summary, "fringe_period_hz", 1.0 / tau, 0.05)
        _near(problems, summary, "width_scale_hz",
              1.0 / (2.0 * math.pi * tau), 0.01)
        output = doc["output"]
        points = int(round(output["scan_periods"]
                           * output["points_per_period"])) | 1
        scans = list(out_dir.glob("*.scan.csv"))
        rows = len(scans[0].read_text().splitlines()) - 1 if scans else 0
        if rows != points:
            problems.append(f"scan.csv has {rows} points, expected {points}")
    elif name == "raman2d":
        lam = SPEC["lattice_wavelength_m"]
        for axis in ("z", "x"):
            dn = summary.get(f"delta_n_{axis}", 0.0)
            bin_m = summary.get(f"spacing_{axis}_bin_m", 0.0)
            if dn <= 0 or bin_m <= 0:
                problems.append(f"summary lacks delta_n_{axis} or its bin")
                continue
            _near(problems, summary, f"extracted_spacing_{axis}_m", lam / dn,
                  bin_m)
        if not list(out_dir.glob("*.fringe.pgm")):
            problems.append("no fringe.pgm written")
    return problems


def reference_problems(summary: dict, reference: dict) -> list[str]:
    tol = SPEC["reference_tolerance"]
    problems = []
    for key, expected in reference["summary"].items():
        allowed = tol["rel"] * abs(expected) + tol["abs"].get(key, 0.0)
        _near(problems, summary, key, expected, allowed)
    return problems


def check_outputs(name: str, doc: dict, out_dir: Path,
                  reference: dict | None) -> tuple[list[str], int]:
    """Problems found in a run's outputs, and how many artifacts are
    byte-identical to the reference (0 without a reference).  A digest
    mismatch alone is not a problem: an integrator change may move the last
    bits and still be correct."""
    try:
        summary, digests = read_outputs(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable outputs: {exc}"], 0
    problems = physics_problems(name, doc, summary, out_dir)
    matches = 0
    if reference is not None:
        problems += reference_problems(summary, reference)
        matches = sum(digests.get(kind) == digest
                      for kind, digest in reference["digests"].items())
    return problems, matches
