"""Experiment configuration: JSON schema, validation, plan catalogue.

A run is described by one JSON document with at most these sections:

    {"plan": "<kind>", "atom": {...}, "params": {...},
     "toggles": {...}, "output": {...}}

Unknown keys are rejected everywhere, and validation resolves every default
so the provenance block records the complete effective configuration.

The params and toggles schemas of every plan are its parameter dataclass
(see plans): each field is a key, with its annotated type and its
default, a field without a default is a required key, and a field named
in ``_TOGGLES`` is a toggle.  So a plan takes exactly the toggles it
reads.  Validation builds the dataclass from the resolved params and
toggles as they are, in the config's units (Hz, s, m); each plan converts
to angular rates on entry.  The atom section is checked the same way,
against AtomParams' fields under the keys of ``_ATOM_FIELDS``.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .basis import PRUNE_FLOOR
from .errors import ConfigurationError
from .fringes import GridSpec, validate_grid
from .params import AtomParams
from .plans import (Figure3Params, FringesParams, PatternParams, Plan1DParams,
                    Plan2DParams, RamseyParams, arm_separation)
from .propagate import MAX_STATES
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

_TOGGLES = ("chirp", "decay_gamma_hz", "envelope")

_PARAM_CLASSES = {
    "figure3": Figure3Params,
    "split1d": Plan1DParams,
    "ramsey": RamseyParams,
    "split2d": Plan2DParams,
    "fringes": FringesParams,
    "pattern": PatternParams,
}


def _dataclass_schemas(cls) -> tuple[dict, dict]:
    """The params and toggles schemas of ``cls``, each {field: (accepted
    types, default)}, where a default of None marks a required key; a
    float field also accepts an int."""
    hints = typing.get_type_hints(cls)
    schemas = ({}, {})
    for f in fields(cls):
        types = (int, float) if hints[f.name] is float else hints[f.name]
        default = None if f.default is MISSING else f.default
        schemas[f.name in _TOGGLES][f.name] = (types, default)
    return schemas


_SCHEMAS = {plan: _dataclass_schemas(cls)
            for plan, cls in _PARAM_CLASSES.items()}
_PARAM_SCHEMAS = {plan: params for plan, (params, _) in _SCHEMAS.items()}
_TOGGLE_SCHEMAS = {plan: toggles for plan, (_, toggles) in _SCHEMAS.items()}

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

# Each pulse (or pair) of a count moves an arm two rungs, and a basis of
# MAX_STATES states spans no more rungs than that, so a larger count could
# never run to its end.
MAX_PULSES = MAX_STATES // 2

# Allowed ranges of parameter, toggle and output keys, checked at load time
# on every section that has the key.  An arm floor below PRUNE_FLOOR would
# keep components the dust prune may zero; a grid needs two samples per axis.
_RANGES = {
    "n_pairs": (lambda v: 1 <= v <= MAX_PULSES, f"in [1, {MAX_PULSES}]"),
    "direction": (lambda v: v in (-1, 1), "-1 or +1"),
    "target_tau_s": (lambda v: v > 0, "> 0"),
    "coherence_length_m": (lambda v: v > 0, "> 0"),
    "magnification": (lambda v: v > 0, "> 0"),
    "pitch_m": (lambda v: v > 0, "> 0"),
    "samples_per_pair": (lambda v: v >= 1, ">= 1"),
    "ladder_n": (lambda v: 1 <= v <= MAX_PULSES, f"in [1, {MAX_PULSES}]"),
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
    "p_pulses": (lambda v: 2 <= v <= MAX_PULSES and v % 2 == 0,
                 f"even and in [2, {MAX_PULSES}]"),
    "p_reverse": (lambda v: 0 <= v <= MAX_PULSES and v % 2 == 0,
                  f"even and in [0, {MAX_PULSES}]"),
    "q_pulses": (lambda v: 0 <= v <= MAX_PULSES and v % 2 == 0,
                 f"even and in [0, {MAX_PULSES}]"),
    "q_reverse": (lambda v: 0 <= v <= MAX_PULSES and v % 2 == 0,
                  f"even and in [0, {MAX_PULSES}]"),
    "dims": (lambda v: v in (1, 2), "1 or 2"),
    "envelope": (lambda v: v in (SINE_SQUARED, SQUARE),
                 f"{SINE_SQUARED!r} or {SQUARE!r}"),
}

# the atom section's keys, each with the AtomParams field it sets, whose
# annotated type and default it takes
_ATOM_FIELDS = {
    "mass_kg": "mass",
    "wavelength_d1_m": "wavelength_d1",
    "wavelength_d2_m": "wavelength_d2",
    "nominal_wavelength_m": "nominal_wavelength",
    "gravity_m_s2": "gravity",
    "lattice_manifold": "lattice_manifold",
}
_ATOM_FIELD_SCHEMAS = _dataclass_schemas(AtomParams)[0]
_ATOM_SCHEMA = {key: _ATOM_FIELD_SCHEMAS[name]
                for key, name in _ATOM_FIELDS.items()}

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


# a schema's accepted types, and a parsed JSON value's type, as JSON names
# them: JSON has one number type, and its true and false are no numbers
_JSON_TYPES = {(int, float): "a number", int: "an integer", bool: "a boolean",
               str: "a string", list: "an array"}
_JSON_VALUES = {bool: "a boolean", int: "a number", float: "a number",
                str: "a string", list: "an array", dict: "an object",
                type(None): "null"}


def _type_error(where: str, types, value) -> ConfigurationError:
    """``where`` must be of ``types``, and ``value`` is not, in JSON terms:
    a number for an integer key is named with its value."""
    got = f"the number {value!r}" if types is int and \
        type(value) is float else \
        _JSON_VALUES.get(type(value), type(value).__name__)
    return ConfigurationError(f"{where} must be {_JSON_TYPES[types]}, "
                              f"got {got}")


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
            # Python's bool is an int, but JSON's true is no number
            if isinstance(value, bool) != (types is bool) or \
                    not isinstance(value, types):
                raise _type_error(f"{where}.{key}", types, value)
            if types in (int, (int, float)) and not _is_finite(value):
                raise ConfigurationError(
                    f"{where}.{key} must be finite, got {value!r}")
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
    params: object              # the plan's parameter dataclass
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

    atom_section = _apply_schema(doc.get("atom", {}), _ATOM_SCHEMA, "atom")
    try:
        atom = AtomParams(**{_ATOM_FIELDS[key]: value
                             for key, value in atom_section.items()})
    except ValueError as exc:
        raise ConfigurationError(f"atom section: {exc}") from exc

    params = _apply_schema(doc.get("params", {}), _PARAM_SCHEMAS[plan],
                           f"params({plan})")
    toggles = _apply_schema(doc.get("toggles", {}), _TOGGLE_SCHEMAS[plan],
                            f"toggles({plan})")
    output = _apply_schema(doc.get("output", {}), _OUTPUT_SCHEMAS[plan],
                           f"output({plan})")
    for where, section in ((f"params({plan})", params),
                           (f"toggles({plan})", toggles),
                           (f"output({plan})", output)):
        for key, value in section.items():
            if key in _RANGES and not _RANGES[key][0](value):
                raise ConfigurationError(
                    f"{where}.{key} must be {_RANGES[key][1]}, got {value!r}")
    if plan == "fringes":
        params["arms"] = [_apply_schema(a, _ARM_SCHEMA, "params.arms[]")
                          for a in params["arms"]]
        if not params["arms"]:
            raise ConfigurationError("params.arms must not be empty")

    resolved = {
        "plan": plan,
        "atom": atom_section,
        "params": params,
        "toggles": toggles,
        "output": output,
    }
    cfg = ResolvedConfig(plan=plan, atom=atom,
                         params=_PARAM_CLASSES[plan](**params, **toggles),
                         output=output, resolved=resolved)
    # an oversized grid, or one too short or too coarse for the fringes of
    # the arms a plan will recombine, fails before any run
    if "grid_samples" in output:
        validate_grid(arm_separation(cfg.params), grid_from_output(cfg),
                      atom.wavenumber())
    return cfg


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


def grid_from_output(cfg: ResolvedConfig) -> GridSpec:
    """Square grid of ``grid_samples`` per axis at ``grid_pitch_m``: 2-D
    for split2d with x pulses and for fringes with ``dims`` 2."""
    if cfg.plan == "split2d":
        dims = 2 if cfg.params.q_pulses > 0 else 1
    else:
        dims = cfg.output.get("dims", 1)
    return GridSpec(pitch=cfg.output["grid_pitch_m"],
                    shape=(cfg.output["grid_samples"],) * dims)


def list_plans() -> list[dict]:
    return [{"plan": name, **info} for name, info in PLAN_CATALOG.items()]
