"""Experiment configuration: JSON schema, validation, plan catalogue.

A run is described by one JSON document with at most these sections:

    {"plan": "<kind>", "atom": {...}, "params": {...},
     "toggles": {...}, "output": {...}}

Unknown keys are rejected everywhere, and validation resolves every default
so the provenance block records the complete effective configuration.
User-facing frequencies are in Hz (cycles); they are converted to angular
rates at the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .basis import PRUNE_FLOOR
from .errors import ConfigurationError
from .fringes import GridSpec
from .params import AtomParams
from .plans import (Figure3Params, Plan1DParams, Plan2DParams, RamseyParams)
from .pulses import SINE_SQUARED, SQUARE

TWO_PI = 2 * math.pi

PLAN_CATALOG = {
    "figure3": {
        "description": "Adiabatic deflection staircase: momentum of the "
                       "deflected component versus interaction time.",
        "anchor": "deflection-staircase",
    },
    "split1d": {
        "description": "One-dimensional adiabatic interferometer ending in "
                       "two same-level arms 4N recoils apart, fringe-ready.",
        "anchor": "one-dimensional-interferometer",
    },
    "ramsey": {
        "description": "Closed interferometer read out as population versus "
                       "two-photon detuning of the final pulse.",
        "anchor": "detuning-scan-readout",
    },
    "split2d": {
        "description": "Alternating-pi-pulse interferometer in two axes, "
                       "four recombined arms forming a 2D grating.",
        "anchor": "two-dimensional-grating",
    },
    "fringes": {
        "description": "Synthesize and analyze a fringe pattern from an "
                       "explicit list of arms.",
        "anchor": "fringe-synthesis",
    },
    "pattern": {
        "description": "Arbitrary-pattern pipeline: arccos phase mask, "
                       "imprint, interference, round-trip error report.",
        "anchor": "arccos-pattern-pipeline",
    },
}

_TOGGLE_SCHEMA = {
    "chirp": (bool, True),
    "decay_gamma_hz": ((int, float), 0.0),
    "envelope": (str, SINE_SQUARED),
}

_PARAM_SCHEMAS = {
    "figure3": {
        "n_pairs": (int, 30),
        "stagger_s": ((int, float), 50e-9),
        "rms_rabi_hz": ((int, float), 100e6),
        "direction": (int, -1),
        "split_first": (bool, True),
        "omega_eff_hz": ((int, float), 5e5),
        "samples_per_pair": (int, 6),
    },
    "split1d": {
        "ladder_n": (int, 25),
        "stagger_s": ((int, float), 50e-9),
        "rms_rabi_hz": ((int, float), 150e6),
        "drift1_s": ((int, float), 3.3e-3),
        "omega_eff_hz": ((int, float), 5e5),
        "cloud_size_m": ((int, float), 1e-3),
        "beam_width_m": ((int, float), 0.5e-3),
        "arm_floor": ((int, float), 1e-6),
    },
    "ramsey": {
        "ladder_n": (int, 25),
        "stagger_s": ((int, float), 50e-9),
        "rms_rabi_hz": ((int, float), 150e6),
        "target_tau_s": ((int, float), 0.102),
        "omega_eff_hz": ((int, float), 5e5),
        "arm_phase_rad": ((int, float), 0.0),
        "cloud_size_m": ((int, float), 1e-3),
        "arm_floor": ((int, float), 1e-6),
    },
    "split2d": {
        "p_pulses": (int, 24),
        "p_reverse": (int, 48),
        "q_pulses": (int, 48),
        "q_reverse": (int, 96),
        "omega_eff_hz": ((int, float), 5e5),
        "drift1_s": ((int, float), 3.3e-3),
        "cloud_size_m": ((int, float), 1e-3),
        "beam_width_m": ((int, float), 0.5e-3),
        "arm_floor": ((int, float), 1e-6),
    },
    "fringes": {
        "arms": (list, None),
        "coherence_length_m": ((int, float), 300e-6),
    },
    "pattern": {
        "input_pgm": (str, None),
        "magnification": ((int, float), 1.0),
        "pitch_m": ((int, float), 1e-9),
    },
}

_OUTPUT_SCHEMAS = {
    "figure3": {},
    "split1d": {
        "grid_pitch_m": ((int, float), 0.25e-9),
        "grid_samples": (int, 4096),
    },
    "ramsey": {
        "scan_periods": ((int, float), 3.2),
        "points_per_period": (int, 100),
    },
    "split2d": {
        "grid_pitch_m": ((int, float), 0.25e-9),
        "grid_samples": (int, 1024),
    },
    "fringes": {
        "dims": (int, 1),
        "grid_pitch_m": ((int, float), 0.25e-9),
        "grid_samples": (int, 4096),
    },
    "pattern": {},
}

# Allowed ranges of parameter, toggle and output keys, checked at load time
# on every section that has the key.  An arm floor below PRUNE_FLOOR would
# keep components the dust prune may zero; a grid needs two samples per axis.
_RANGES = {
    "n_pairs": (lambda v: v >= 1, ">= 1"),
    "direction": (lambda v: v in (-1, 1), "-1 or +1"),
    "target_tau_s": (lambda v: v > 0, "> 0"),
    "coherence_length_m": (lambda v: v > 0, "> 0"),
    "magnification": (lambda v: v > 0, "> 0"),
    "pitch_m": (lambda v: v > 0, "> 0"),
    "samples_per_pair": (lambda v: v >= 1, ">= 1"),
    "ladder_n": (lambda v: v >= 1, ">= 1"),
    "omega_eff_hz": (lambda v: v > 0, "> 0"),
    "rms_rabi_hz": (lambda v: v > 0, "> 0"),
    "stagger_s": (lambda v: v > 0, "> 0"),
    "drift1_s": (lambda v: v >= 0, ">= 0"),
    "cloud_size_m": (lambda v: v > 0, "> 0"),
    "beam_width_m": (lambda v: v > 0, "> 0"),
    "arm_floor": (lambda v: PRUNE_FLOOR <= v < 1,
                  f"in [{PRUNE_FLOOR:g}, 1)"),
    "decay_gamma_hz": (lambda v: v >= 0, ">= 0"),
    "scan_periods": (lambda v: v >= 3, ">= 3"),
    "grid_pitch_m": (lambda v: v > 0, "> 0"),
    "grid_samples": (lambda v: v >= 2, ">= 2"),
    "p_pulses": (lambda v: v >= 2 and v % 2 == 0, "even and >= 2"),
    "p_reverse": (lambda v: v >= 0 and v % 2 == 0, "even and >= 0"),
    "q_pulses": (lambda v: v >= 0 and v % 2 == 0, "even and >= 0"),
    "q_reverse": (lambda v: v >= 0 and v % 2 == 0, "even and >= 0"),
    "dims": (lambda v: v in (1, 2), "1 or 2"),
}

_ARM_SCHEMA = {
    "amplitude_re": ((int, float), None),
    "amplitude_im": ((int, float), 0.0),
    "n_z": (int, None),
    "n_x": (int, 0),
    "phase_rad": ((int, float), 0.0),
}


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:       # an integer beyond the float range
        return False


def _apply_schema(section: dict, schema: dict, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    unknown = set(section) - set(schema)
    if unknown:
        raise ConfigurationError(
            f"unknown keys in {where}: {sorted(unknown)}; "
            f"valid keys: {sorted(schema)}")
    resolved = {}
    for key, (types, default) in schema.items():
        if key in section:
            value = section[key]
            if isinstance(value, bool) and types is not bool:
                raise ConfigurationError(f"{where}.{key} has the wrong type")
            if not isinstance(value, types):
                raise ConfigurationError(
                    f"{where}.{key} must be {types}, got {type(value).__name__}")
            if types == (int, float) and not _is_finite(value):
                raise ConfigurationError(
                    f"{where}.{key} must be a finite float, got {value!r}")
            resolved[key] = value
        elif default is None:
            raise ConfigurationError(f"{where}.{key} is required")
        else:
            resolved[key] = default
    return resolved


@dataclass
class ResolvedConfig:
    plan: str
    atom: AtomParams
    params: object              # plan parameter dataclass or dict
    toggles: dict
    output: dict
    resolved: dict              # the fully resolved JSON document


def validate_config(doc: dict) -> ResolvedConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    allowed = {"plan", "atom", "params", "toggles", "output"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown top-level keys: {sorted(unknown)}; valid: {sorted(allowed)}")
    plan = doc.get("plan")
    if not isinstance(plan, str) or plan not in PLAN_CATALOG:
        raise ConfigurationError(
            f"unknown plan {plan!r}; valid kinds: {sorted(PLAN_CATALOG)}")

    atom_section = doc.get("atom", {})
    if not isinstance(atom_section, dict):
        raise ConfigurationError("atom must be a JSON object")
    try:
        atom = AtomParams.from_dict(atom_section)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigurationError(f"atom section: {exc}") from exc

    params = _apply_schema(doc.get("params", {}), _PARAM_SCHEMAS[plan],
                           f"params({plan})")
    toggles = _apply_schema(doc.get("toggles", {}), _TOGGLE_SCHEMA, "toggles")
    output = _apply_schema(doc.get("output", {}), _OUTPUT_SCHEMAS[plan],
                           f"output({plan})")
    for where, section in ((f"params({plan})", params), ("toggles", toggles),
                           (f"output({plan})", output)):
        for key, value in section.items():
            if key in _RANGES and not _RANGES[key][0](value):
                raise ConfigurationError(
                    f"{where}.{key} must be {_RANGES[key][1]}, got {value!r}")
    if toggles["envelope"] not in (SINE_SQUARED, SQUARE):
        raise ConfigurationError(
            f"toggles.envelope must be {SINE_SQUARED!r} or {SQUARE!r}")
    if plan == "fringes":
        params["arms"] = [_apply_schema(a, _ARM_SCHEMA, "params.arms[]")
                          for a in params["arms"]]
        if not params["arms"]:
            raise ConfigurationError("params.arms must not be empty")

    resolved = {
        "plan": plan,
        "atom": atom.to_dict(),
        "params": params,
        "toggles": toggles,
        "output": output,
    }
    return ResolvedConfig(plan=plan, atom=atom,
                          params=_build_params(plan, params, toggles),
                          toggles=toggles, output=output, resolved=resolved)


def _build_params(plan: str, p: dict, toggles: dict):
    gamma = toggles["decay_gamma_hz"] * TWO_PI
    envelope = toggles["envelope"]
    chirp = toggles["chirp"]
    if plan == "figure3":
        return Figure3Params(
            n_pairs=p["n_pairs"], stagger=p["stagger_s"],
            rms_rabi=TWO_PI * p["rms_rabi_hz"], direction=p["direction"],
            chirp=chirp, envelope=envelope, split_first=p["split_first"],
            omega_eff=TWO_PI * p["omega_eff_hz"],
            samples_per_pair=p["samples_per_pair"], decay_rate=gamma)
    if plan == "split1d":
        return Plan1DParams(
            ladder_n=p["ladder_n"], stagger=p["stagger_s"],
            rms_rabi=TWO_PI * p["rms_rabi_hz"], drift1=p["drift1_s"],
            omega_eff=TWO_PI * p["omega_eff_hz"], chirp=chirp,
            envelope=envelope, cloud_size=p["cloud_size_m"],
            beam_width=p["beam_width_m"], arm_floor=p["arm_floor"],
            decay_rate=gamma)
    if plan == "ramsey":
        return RamseyParams(
            ladder_n=p["ladder_n"], stagger=p["stagger_s"],
            rms_rabi=TWO_PI * p["rms_rabi_hz"], target_tau=p["target_tau_s"],
            omega_eff=TWO_PI * p["omega_eff_hz"], chirp=chirp,
            envelope=envelope, arm_phase=p["arm_phase_rad"],
            cloud_size=p["cloud_size_m"], arm_floor=p["arm_floor"],
            decay_rate=gamma)
    if plan == "split2d":
        return Plan2DParams(
            p_pulses=p["p_pulses"], p_reverse=p["p_reverse"],
            q_pulses=p["q_pulses"], q_reverse=p["q_reverse"],
            omega_eff=TWO_PI * p["omega_eff_hz"], drift1=p["drift1_s"],
            chirp=chirp, cloud_size=p["cloud_size_m"],
            beam_width=p["beam_width_m"], arm_floor=p["arm_floor"],
            decay_rate=gamma)
    return dict(p)  # fringes / pattern keep their validated dict


def load_config(path) -> ResolvedConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:   # a decode error, or an integer too long to parse
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(doc)


def grid_from_output(output: dict, dims: int) -> GridSpec:
    """Square grid of ``grid_samples`` per axis at ``grid_pitch_m``."""
    return GridSpec(dims=dims, pitch=output["grid_pitch_m"],
                    shape=(output["grid_samples"],) * dims)


def list_plans() -> list[dict]:
    return [{"plan": name, **info} for name, info in PLAN_CATALOG.items()]
