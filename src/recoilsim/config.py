"""Experiment configuration: JSON schema, validation, plan catalogue.

A run is described by one JSON document with at most these sections:

    {"plan": "<kind>", "atom": {...}, "params": {...},
     "toggles": {...}, "output": {...}}

Unknown keys are rejected everywhere, and validation resolves every default
so the provenance block records the complete effective configuration.

The params schema of figure3, split1d, ramsey and split2d is their
parameter dataclass (see plans): each field but the toggles is a key, with
its annotated type and its default.  Validation builds the dataclass from
the resolved params and toggles as they are, in the config's units (Hz,
s, m); each plan converts to angular rates on entry.  The fringes and
pattern plans keep a dict schema and a dict of params.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .basis import PRUNE_FLOOR
from .errors import ConfigurationError
from .fringes import GridSpec
from .params import AtomParams
from .plans import (Figure3Params, Plan1DParams, Plan2DParams, RamseyParams)
from .pulses import SINE_SQUARED, SQUARE

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

_PARAM_CLASSES = {
    "figure3": Figure3Params,
    "split1d": Plan1DParams,
    "ramsey": RamseyParams,
    "split2d": Plan2DParams,
}


def _dataclass_schema(cls) -> dict:
    """{field: (accepted types, default)} of every field of ``cls`` but the
    toggles; a float field also accepts an int."""
    hints = typing.get_type_hints(cls)
    return {f.name: ((int, float) if hints[f.name] is float
                     else hints[f.name], f.default)
            for f in fields(cls) if f.name not in _TOGGLE_SCHEMA}


_PARAM_SCHEMAS = {
    **{plan: _dataclass_schema(cls) for plan, cls in _PARAM_CLASSES.items()},
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
    cls = _PARAM_CLASSES.get(plan)
    if cls is None:
        built = dict(params)
    else:
        built = cls(**params, **{f.name: toggles[f.name] for f in fields(cls)
                                 if f.name in toggles})
    return ResolvedConfig(plan=plan, atom=atom, params=built, output=output,
                          resolved=resolved)


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
