import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recoilsim import ckernel, cli, interferometer, plans
from recoilsim.cli import main
from recoilsim.config import (_OUTPUT_SCHEMAS, _PARAM_SCHEMAS, _RANGES,
                              _TOGGLE_SCHEMAS, MAX_PULSES, PLAN_CATALOG,
                              list_plans, load_config, validate_config)
from recoilsim.params import AtomParams
from recoilsim.errors import ConfigurationError
from recoilsim.fringes import MAX_GRID_SAMPLES
from recoilsim.output import config_hash
from recoilsim.plans import (Figure3Params, Plan1DParams, Plan2DParams,
                             RamseyParams)
from recoilsim.patterngen import gear_silhouette, to_image
from recoilsim.pgmio import read_pgm, write_pgm
from recoilsim.propagate import MAX_STATES


def test_catalog_has_exactly_six_plans():
    assert len(PLAN_CATALOG) == 6
    assert set(PLAN_CATALOG) == {"figure3", "split1d", "ramsey", "split2d",
                                 "fringes", "pattern"}


def test_catalog_entries_carry_anchor_strings():
    for entry in list_plans():
        assert entry["anchor"]
        assert entry["description"]


def test_unknown_plan_names_valid_kinds():
    with pytest.raises(ConfigurationError) as err:
        validate_config({"plan": "warp"})
    for name in PLAN_CATALOG:
        assert name in str(err.value)


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigurationError):
        validate_config({"plan": "figure3", "bogus": 1})
    with pytest.raises(ConfigurationError):
        validate_config({"plan": "figure3", "params": {"n_pair": 3}})
    with pytest.raises(ConfigurationError):
        validate_config({"plan": "figure3", "toggles": {"chirped": True}})
    with pytest.raises(ConfigurationError):
        validate_config({"plan": "figure3", "atom": {"weight": 1}})


def test_defaults_resolved_and_recorded():
    cfg = validate_config({"plan": "figure3"})
    assert cfg.resolved["params"]["n_pairs"] == 30
    assert cfg.resolved["params"]["rms_rabi_hz"] == 100e6
    assert cfg.resolved["toggles"]["chirp"] is True
    assert cfg.resolved["atom"]["gravity_m_s2"] == 9.81
    assert cfg.params.rms_rabi_hz == 100e6


def test_toggles_flow_into_params():
    cfg = validate_config({"plan": "figure3",
                           "toggles": {"chirp": False,
                                       "decay_gamma_hz": 6e6,
                                       "envelope": "square"}})
    assert cfg.params.chirp is False
    assert cfg.params.envelope == "square"
    assert cfg.params.decay_gamma_hz == 6e6


def test_envelope_toggle_validated():
    with pytest.raises(ConfigurationError):
        validate_config({"plan": "figure3", "toggles": {"envelope": "saw"}})


def test_type_errors_caught():
    with pytest.raises(ConfigurationError):
        validate_config({"plan": "figure3", "params": {"n_pairs": "thirty"}})
    with pytest.raises(ConfigurationError):
        validate_config({"plan": "figure3", "params": {"n_pairs": True}})


def test_fringes_requires_arms():
    with pytest.raises(ConfigurationError):
        validate_config({"plan": "fringes"})
    with pytest.raises(ConfigurationError):
        validate_config({"plan": "fringes", "params": {"arms": []}})
    cfg = validate_config({"plan": "fringes", "params": {
        "arms": [{"amplitude_re": 1.0, "n_z": 0}]}})
    assert cfg.params.arms[0]["n_x"] == 0


def test_cli_list_plans(capsys):
    assert main(["list-plans"]) == 0
    out = capsys.readouterr().out
    for name in PLAN_CATALOG:
        assert name in out


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


OUT_OF_RANGE = [
    ("figure3", "params", {"samples_per_pair": 0}),
    ("ramsey", "params", {"ladder_n": 0}),
    ("split1d", "params", {"ladder_n": 0}),
    ("split2d", "params", {"omega_eff_hz": 0}),
    ("ramsey", "params", {"omega_eff_hz": -5e5}),
    ("split1d", "params", {"drift1_s": -1e-3}),
    ("split2d", "params", {"drift1_s": -1e-3}),
    ("split2d", "params", {"arm_floor": 2}),
    ("ramsey", "params", {"arm_floor": 1}),
    ("split1d", "params", {"arm_floor": 1e-15}),
    ("split1d", "params", {"stagger_s": 0}),
    ("ramsey", "params", {"stagger_s": 0}),
    ("figure3", "params", {"rms_rabi_hz": 0}),
    ("split1d", "params", {"rms_rabi_hz": -1e6}),
    ("split1d", "params", {"cloud_size_m": -1e-3}),
    ("ramsey", "params", {"cloud_size_m": 0}),
    ("split1d", "params", {"beam_width_m": -0.5e-3}),
    ("split2d", "params", {"beam_width_m": 0}),
    ("figure3", "toggles", {"decay_gamma_hz": -1e3}),
    ("ramsey", "output", {"scan_periods": 2.5}),
    ("split1d", "output", {"grid_pitch_m": 0}),
    ("split2d", "output", {"grid_pitch_m": -1e-9}),
    ("split1d", "output", {"grid_samples": 0}),
    ("split2d", "output", {"grid_samples": 1}),
    ("figure3", "params", {"n_pairs": 0}),
    ("figure3", "params", {"direction": 0}),
    ("figure3", "params", {"direction": 2}),
    ("ramsey", "params", {"target_tau_s": -1}),
    ("ramsey", "params", {"target_tau_s": 0}),
    ("fringes", "params", {"arms": [{"amplitude_re": 1.0, "n_z": 0}],
                           "coherence_length_m": 0}),
    # input_pgm is required, so without it that error would fire first
    ("pattern", "params", {"input_pgm": "any.pgm", "magnification": 0}),
    ("pattern", "params", {"input_pgm": "any.pgm", "magnification": -2}),
    ("pattern", "params", {"input_pgm": "any.pgm", "pitch_m": -1}),
    ("split2d", "params", {"p_pulses": 0}),
    ("split2d", "params", {"p_pulses": 3}),
    ("split2d", "params", {"p_reverse": -2}),
    ("split2d", "params", {"p_reverse": 5}),
    ("split2d", "params", {"q_pulses": -2}),
    ("split2d", "params", {"q_pulses": 1}),
    ("split2d", "params", {"q_reverse": -2}),
    ("split2d", "params", {"q_reverse": 7}),
    ("fringes", "output", {"dims": 3}),
    ("fringes", "output", {"dims": 0}),
    ("split2d", "params", {"omega_eff_hz": math.inf}),
    ("ramsey", "params", {"arm_phase_rad": math.nan}),
    ("split1d", "params", {"drift1_s": 10 ** 400}),
    ("figure3", "toggles", {"decay_gamma_hz": -math.inf}),
]

# sections a case needs besides its own, or a "required" error fires first
REQUIRED = {"fringes": {"params": {"arms": [{"amplitude_re": 1.0, "n_z": 0}]}}}


def test_cli_bad_config_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"plan": "nope"})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    path2 = tmp_path / "missing.json"
    assert main(["run", str(path2), "--out", str(tmp_path / "out")]) == 2
    capsys.readouterr()
    # out-of-range values are rejected with one line before any propagation;
    # the offending key is the last one of each case
    for plan, section, values in OUT_OF_RANGE:
        doc = {"plan": plan, **REQUIRED.get(plan, {}), section: values}
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}") and \
            err.count("\n") == 1
        assert f".{list(values)[-1]} must be" in err
        with pytest.raises(ConfigurationError):
            validate_config(doc)


def test_figure3_rejects_omega_eff_as_unknown(tmp_path, capsys):
    # figure3's pi/2 split is only the 0.5 weight; no pulse reads omega_eff
    doc = {"plan": "figure3", "params": {"omega_eff_hz": 5e5}}
    path = write_config(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown keys in params(figure3)")
    assert "'omega_eff_hz'" in err and err.count("\n") == 1


# config_hash of each resolved document; a change here renames artifacts
RESOLVED_HASHES = {
    "figure3.json": "ae35d81cf3c5",
    "figure3_uncompensated.json": "a68fcad35504",
    "fringes_94.json": "5e3146da6c51",
    "pattern_gear.json": "cfbe48ae3199",
    "ramsey.json": "e222c3a67d2b",
    "split1d.json": "dfcb5fe65d27",
    "split2d.json": "30ec780670fc",
    "figure3": "ae35d81cf3c5",
    "split1d": "dfcb5fe65d27",
    "ramsey": "e222c3a67d2b",
    "split2d": "30ec780670fc",
    "fringes": "7b70fc0d3794",
    "pattern": "32a8f23b4631",
}

# the least document of each plan: fringes and pattern have required keys
LEAST_DOCUMENTS = {
    "fringes": {"params": {"arms": [{"amplitude_re": 1.0, "n_z": 0}]}},
    "pattern": {"params": {"input_pgm": "gear.pgm"}},
}


def test_resolved_documents_are_pinned():
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    docs = {path.name: json.loads(path.read_text())
            for path in sorted(configs.glob("*.json"))}
    docs.update({plan: {"plan": plan, **LEAST_DOCUMENTS.get(plan, {})}
                 for plan in PLAN_CATALOG})
    assert {name: config_hash(validate_config(doc).resolved)
            for name, doc in docs.items()} == RESOLVED_HASHES
    for plan, cls in [("figure3", Figure3Params), ("split1d", Plan1DParams),
                      ("ramsey", RamseyParams), ("split2d", Plan2DParams)]:
        assert validate_config({"plan": plan}).params == cls()


@pytest.mark.parametrize("plan, toggles", [
    ("split2d", {"envelope": "square"}),
    ("fringes", {"chirp": False}),
    ("pattern", {"decay_gamma_hz": 0.0}),
])
def test_toggles_a_plan_does_not_read_are_unknown(tmp_path, capsys, plan,
                                                   toggles):
    # a toggle no step of the plan reads would rename every artifact and
    # change none of their bytes
    doc = {"plan": plan, **LEAST_DOCUMENTS.get(plan, {}), "toggles": toggles}
    path = write_config(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: unknown keys in toggles({plan})")
    assert repr(list(toggles)[0]) in err and err.count("\n") == 1


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the config passed validation")


ARM = {"amplitude_re": 1.0, "n_z": 0}


@pytest.mark.parametrize("doc, message", [
    ({"plan": "fringes", "params": {"arms": [{**ARM, "n_z": 10 ** 400}]}},
     "params.arms[].n_z must be finite"),
    ({"plan": "fringes", "params": {"arms": [{**ARM, "n_x": -10 ** 400}]}},
     "params.arms[].n_x must be finite"),
    ({"plan": "figure3", "params": {"n_pairs": 10 ** 400}},
     "params(figure3).n_pairs must be finite"),
    ({"plan": "split1d", "output": {"grid_samples": 10 ** 400}},
     "output(split1d).grid_samples must be finite"),
    ({"plan": "split1d", "output": {"grid_samples": 10 ** 12}},
     f"a grid of {10 ** 12} samples is over the limit of "
     f"{MAX_GRID_SAMPLES}"),
    ({"plan": "split2d", "output": {"grid_samples": 10 ** 6}},
     f"a grid of {10 ** 6} x {10 ** 6} samples is over the limit"),
    ({"plan": "fringes", "params": {"arms": [ARM]},
      "output": {"dims": 2, "grid_samples": 4097}},
     "a grid of 4097 x 4097 samples is over the limit"),
    ({"plan": "split1d", "params": {"ladder_n": MAX_PULSES}},
     "only 0.0 samples per period on n_z"),
    ({"plan": "split1d", "params": {"ladder_n": 10 ** 308}},
     f"params(split1d).ladder_n must be in [1, {MAX_PULSES}]"),
    # 4P + 2 - 4R rounds to 0 in floats, so no grid check could stop it
    ({"plan": "split2d", "params": {"p_pulses": 10 ** 30,
                                    "p_reverse": 10 ** 30, "q_pulses": 0}},
     f"params(split2d).p_pulses must be even and in [2, {MAX_PULSES}]"),
])
def test_rejected_at_load_before_any_run(tmp_path, capsys, monkeypatch, doc,
                                         message):
    # _run refuses, so a check that misses fails here instead of running
    # the plan or allocating the grid
    monkeypatch.setattr(cli, "_run", _refuse_to_run)
    path = write_config(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key", ["n_pairs", "ladder_n", "p_pulses",
                                 "p_reverse", "q_pulses", "q_reverse"])
def test_pulse_counts_are_bounded_by_the_basis_budget(key):
    # an arm moves two rungs per pulse; no basis may hold more rungs than
    # MAX_STATES
    accepts = _RANGES[key][0]
    assert 2 * MAX_PULSES <= MAX_STATES
    assert accepts(MAX_PULSES) and not accepts(MAX_PULSES + 2)


def test_grid_too_short_for_the_arms_exits_before_any_propagation(
        tmp_path, capsys, monkeypatch):
    # 4/8/4/8 pulses end the arms 14 recoils apart on each axis, whose
    # fringes a 256-sample grid at 2 nm spans 9.2 times
    for module in (plans, interferometer):
        monkeypatch.setattr(module, "evolve_plan", _refuse_to_run)
    path = write_config(tmp_path, {
        "plan": "split2d",
        "params": {"p_pulses": 4, "p_reverse": 8, "q_pulses": 4,
                   "q_reverse": 8},
        "output": {"grid_samples": 256, "grid_pitch_m": 2e-9}})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: grid spans 9.2 periods on n_z; needs >= 10\n"


def test_grids_up_to_the_limit_validate():
    side = math.isqrt(MAX_GRID_SAMPLES)
    validate_config({"plan": "split1d",
                     "output": {"grid_samples": MAX_GRID_SAMPLES}})
    validate_config({"plan": "split2d", "output": {"grid_samples": side}})
    validate_config({"plan": "split2d", "params": {"q_pulses": 0},
                     "output": {"grid_samples": side + 1}})
    with pytest.raises(ConfigurationError):
        validate_config({"plan": "split2d",
                         "output": {"grid_samples": side + 1}})


def test_cli_physics_error_exit_code(tmp_path, capsys):
    # a separation time too short for the pulse program is a plan error
    path = write_config(tmp_path, {"plan": "ramsey",
                                   "params": {"target_tau_s": 1e-6}})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("rabi_hz", [1e300, 1e12])
def test_cli_epoch_over_the_step_budget_exit_code(tmp_path, rabi_hz):
    # a step count that is not finite or over MAX_STEPS_PER_EPOCH stops the
    # run before any step: one error line, no traceback
    path = write_config(tmp_path, {"plan": "figure3", "params": {
        "n_pairs": 1, "rms_rabi_hz": rabi_hz}})
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "recoilsim", "run", str(path), "--out",
         str(tmp_path / "out")], env=env, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 3
    assert done.stderr.startswith("physics error: an epoch needs ")
    assert "over the budget" in done.stderr and \
        done.stderr.count("\n") == 1


def test_cli_figure3_artifacts_and_determinism(tmp_path):
    doc = {"plan": "figure3", "params": {"n_pairs": 4}}
    path = write_config(tmp_path, doc)
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert main(["run", str(path), "--out", str(out1)]) == 0
    assert main(["run", str(path), "--out", str(out2)]) == 0
    csvs1 = sorted(out1.glob("*.csv"))
    assert len(csvs1) == 2
    for f1 in csvs1:
        f2 = out2 / f1.name
        assert f1.read_bytes() == f2.read_bytes()
    manifest = json.loads(next(out1.glob("*.manifest.json")).read_text())
    assert {a["path"] for a in manifest["artifacts"]} >= \
        {f.name for f in csvs1}
    prov = json.loads(next(out1.glob("*.provenance.json")).read_text())
    assert prov["resolved_config"]["params"]["n_pairs"] == 4
    assert prov["resolved_config"]["params"]["stagger_s"] == 50e-9
    assert prov["rk4_kernel"] == ckernel.engine()
    assert prov["rk4_kernel"] in ("c-fma", "c-plain", "numpy")


def test_cli_output_names_differ_with_config(tmp_path):
    p1 = write_config(tmp_path, {"plan": "figure3", "params": {"n_pairs": 4}},
                      "a.json")
    p2 = write_config(tmp_path, {"plan": "figure3", "params": {"n_pairs": 5}},
                      "b.json")
    out = tmp_path / "out"
    assert main(["run", str(p1), "--out", str(out)]) == 0
    assert main(["run", str(p2), "--out", str(out)]) == 0
    momentum = list(out.glob("*.momentum.csv"))
    assert len(momentum) == 2  # hashed names never overwrite


def test_cli_fringes_plan(tmp_path):
    amp = 1 / math.sqrt(2)
    doc = {"plan": "fringes",
           "params": {"arms": [{"amplitude_re": amp, "n_z": 0},
                               {"amplitude_re": amp, "n_z": 100}]}}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    summary = next(out.glob("*.summary.csv")).read_text().splitlines()
    row = dict(line.split(",") for line in summary[1:])
    assert float(row["extracted_spacing_z_m"]) == pytest.approx(
        780.241209e-9 / 100, rel=0.02)
    fringe = next(out.glob("*.fringe.csv")).read_text().splitlines()
    assert fringe[0] == "position_nm,value"


def test_cli_fringes_2d_writes_pgm(tmp_path):
    amp = 0.5
    doc = {"plan": "fringes",
           "params": {"arms": [
               {"amplitude_re": amp, "n_z": -48, "n_x": -96},
               {"amplitude_re": amp, "n_z": -48, "n_x": 94},
               {"amplitude_re": amp, "n_z": 46, "n_x": -96},
               {"amplitude_re": amp, "n_z": 46, "n_x": 94}]},
           "output": {"dims": 2, "grid_samples": 512}}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    pgm_path = next(out.glob("*.fringe.pgm"))
    img, maxval = read_pgm(pgm_path)
    assert maxval == 65535
    assert img.shape == (512, 512)
    assert img.max() == 65535
    sidecar = next(out.glob("*.fringe.txt")).read_text()
    assert "pitch_m" in sidecar and "big-endian" in sidecar


def test_cli_pattern_round_trip(tmp_path):
    gear_path = tmp_path / "gear.pgm"
    write_pgm(gear_path, to_image(gear_silhouette(48)))
    doc = {"plan": "pattern", "params": {"input_pgm": str(gear_path)}}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    errors = next(out.glob("*.errors.csv")).read_text().splitlines()
    row = dict(line.split(",") for line in errors[1:])
    assert float(row["max_abs_error"]) < 1e-12
    recovered, _ = read_pgm(next(out.glob("*.recovered.pgm")))
    original, _ = read_pgm(gear_path)
    assert np.array_equal(recovered, original)


def test_cli_pattern_missing_input_is_io_error(tmp_path):
    doc = {"plan": "pattern", "params": {"input_pgm": str(tmp_path / "no.pgm")}}
    path = write_config(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4


def test_cli_pattern_empty_image_is_config_error(tmp_path, capsys):
    empty = tmp_path / "empty.pgm"
    empty.write_bytes(b"P5\n0 0\n255\n")
    path = write_config(tmp_path, {"plan": "pattern",
                                   "params": {"input_pgm": str(empty)}})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_cli_fringes_overflowing_amplitudes_is_config_error(tmp_path,
                                                            capsys):
    doc = {"plan": "fringes",
           "params": {"arms": [{"amplitude_re": 1e200, "n_z": 0},
                               {"amplitude_re": 1e200, "n_z": 94}]}}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not list(out.glob("*.fringe.csv"))


def test_cli_split2d_fringe_artifacts_and_determinism(tmp_path):
    # four small pulse trains per axis and a coarse grid keep this quick
    doc = {"plan": "split2d",
           "params": {"p_pulses": 4, "p_reverse": 8, "q_pulses": 4,
                      "q_reverse": 8, "drift1_s": 0.03},
           "output": {"grid_pitch_m": 2e-9, "grid_samples": 512}}
    path = write_config(tmp_path, doc)
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert main(["run", str(path), "--out", str(out1)]) == 0
    assert main(["run", str(path), "--out", str(out2)]) == 0
    manifest = json.loads(next(out1.glob("*.manifest.json")).read_text())
    hashed = [a["path"] for a in manifest["artifacts"] if "sha256" in a]
    assert [name.split(".", 1)[1] for name in hashed] == \
        ["stages.csv", "fringe.pgm", "fringe.txt", "summary.csv"]
    for name in hashed:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    img, _ = read_pgm(out1 / hashed[1])
    assert img.shape == (512, 512)


def test_cli_two_arm_split2d_honours_grid_samples(tmp_path):
    doc = {"plan": "split2d",
           "params": {"p_pulses": 4, "p_reverse": 8, "q_pulses": 0,
                      "q_reverse": 0, "drift1_s": 0.03},
           "output": {"grid_pitch_m": 2e-9, "grid_samples": 512}}
    path = write_config(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    fringe = next((tmp_path / "out").glob("*.fringe.csv"))
    lines = fringe.read_text().splitlines()
    assert lines[0] == "position_nm,value"
    assert len(lines) == 513


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _section(schema):
    """A section of known and unknown keys, with defaults, numbers around
    the valid ranges and JSON values of every type; sometimes not an object."""
    known = sorted(schema)
    defaults = [default for _, default in schema.values() if default is not None]
    keys = (st.sampled_from(known) if known else st.nothing()) | st.text(max_size=6)
    values = (st.sampled_from(defaults) if defaults else st.nothing()) \
        | st.integers(-3, 3) | JSON_VALUES
    return st.dictionaries(keys, values, max_size=4) | JSON_VALUES


@st.composite
def config_documents(draw):
    plan = draw(st.sampled_from(sorted(PLAN_CATALOG)) | JSON_VALUES)
    schema_plan = plan if isinstance(plan, str) and plan in _PARAM_SCHEMAS \
        else "figure3"
    sections = {
        "params": _PARAM_SCHEMAS[schema_plan],
        "toggles": _TOGGLE_SCHEMAS[schema_plan],
        "output": _OUTPUT_SCHEMAS[schema_plan],
        "atom": {key: (None, value)
                 for key, value in AtomParams().to_dict().items()},
    }
    doc = {"plan": plan} if draw(st.integers(0, 9)) else {}
    for name, schema in sections.items():
        if draw(st.booleans()):
            doc[name] = draw(_section(schema))
    if draw(st.integers(0, 5)) == 0:
        doc[draw(st.text(max_size=6))] = draw(JSON_VALUES)
    return doc


@given(doc=config_documents())
@settings(max_examples=300, deadline=None)
def test_config_fuzz_rejects_only_with_configuration_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_config(path)
        except ConfigurationError:
            pass
        else:
            return
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
        assert code == 2
        assert err.getvalue().startswith("config error: ")
        assert err.getvalue().count("\n") == 1
