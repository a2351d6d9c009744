"""Command-line entry point.

    recoilsim run <config.json> --out <dir> [--strict]
    recoilsim list-plans

Every run writes its artifacts plus a provenance JSON (the fully resolved
configuration, tool version, which RK4 loop runs, wall time) and a
manifest listing the files with their digests.  Artifact names embed a
hash of the canonical config, so distinct configurations never overwrite
each other.  Exit codes: 0 success, 2 configuration error, 3 physics or
numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from . import fringes as fr
from . import patterngen as pg
from . import pgmio
from .config import ResolvedConfig, grid_from_output, list_plans, load_config
from .errors import (ConfigurationError, IntegrationError, NoFringeError,
                     PhysicsError, RecoilSimError)
from .output import (config_hash, file_digest, write_csv, write_manifest,
                     write_provenance)
from .plans import (run_figure3, run_plan_1d_adiabatic, run_plan_2d,
                    run_plan_ramsey)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_IO = 4

STAGE_COLUMNS = ["stage", "t_start", "t_end", "level", "population",
                 "mean_nz", "mean_nx", "sep_z_m", "sep_x_m", "drop_y_m"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="recoilsim",
        description="Recoil-lattice interferometer simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a plan from a JSON config")
    run_p.add_argument("config", help="path to the experiment config JSON")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--strict", action="store_true",
                       help="treat plan warnings as errors")

    sub.add_parser("list-plans", help="show the available plan kinds")

    args = parser.parse_args(argv)
    if args.command == "list-plans":
        for entry in list_plans():
            print(f"{entry['plan']:<10} [{entry['anchor']}] "
                  f"{entry['description']}")
        return EXIT_OK

    try:
        cfg = load_config(args.config)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _run(cfg, out_dir, strict=args.strict)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PhysicsError, IntegrationError, NoFringeError) as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except RecoilSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _run(cfg: ResolvedConfig, out_dir: Path, strict: bool) -> int:
    t0 = time.time()
    base = f"{cfg.plan}-{config_hash(cfg.resolved)}"
    runner = {
        "figure3": _run_figure3,
        "split1d": _run_split1d,
        "ramsey": _run_ramsey,
        "split2d": _run_split2d,
        "fringes": _run_fringes,
        "pattern": _run_pattern,
    }[cfg.plan]
    artifacts, warnings = runner(cfg, out_dir, base)

    prov_path = out_dir / f"{base}.provenance.json"
    from . import ckernel     # not at import: the loader is run-time only
    write_provenance(prov_path, cfg.resolved, time.time() - t0, warnings,
                     ckernel.engine())
    manifest = [{"path": p.name, "sha256": file_digest(p)}
                for p in artifacts] + [{"path": prov_path.name}]
    manifest_path = out_dir / f"{base}.manifest.json"
    write_manifest(manifest_path, manifest)

    for path in artifacts + [prov_path, manifest_path]:
        print(path)
    if warnings:
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        if strict:
            print("strict mode: warnings are errors", file=sys.stderr)
            return EXIT_PHYSICS
    return EXIT_OK


def _run_figure3(cfg, out_dir, base):
    result = run_figure3(cfg.params, cfg.atom)
    rows_path = out_dir / f"{base}.momentum.csv"
    write_csv(rows_path,
              ["t_s", "recoils_transferred", "mean_nz_deflected",
               "pop_a", "pop_b", "pop_e1", "pop_c"], result.rows)
    summary_path = out_dir / f"{base}.summary.csv"
    write_csv(summary_path, ["quantity", "value"], [
        ("final_recoils_transferred", result.final_transfer),
        ("final_deflected_population", result.final_population),
        ("adiabaticity_parameter", result.adiabaticity),
        ("pair_count", cfg.params.n_pairs),
    ])
    return [rows_path, summary_path], []


def _stage_csv(result, path):
    write_csv(path, STAGE_COLUMNS, result.stage_rows())


def _write_fringe(pattern, out_dir, base) -> list[Path]:
    """A 1D pattern as a position/value CSV; a 2D one as a 16-bit PGM plus
    its text sidecar.  Returns the written paths in manifest order."""
    if pattern.dims == 1:
        csv_path = out_dir / f"{base}.fringe.csv"
        write_csv(csv_path, ["position_nm", "value"],
                  [(z * 1e9, v) for z, v in
                   zip(pattern.axis_coordinates(0), pattern.samples)])
        return [csv_path]
    pgm_path = out_dir / f"{base}.fringe.pgm"
    pgmio.write_pgm(pgm_path,
                    (pattern.samples * 65535).round().astype("uint16"))
    sidecar_path = out_dir / f"{base}.fringe.txt"
    pgmio.write_sidecar(sidecar_path, {
        "pitch_m": pattern.pitch, "rows_axis": "z", "cols_axis": "x",
        "max_value": 65535, "byte_order": "big-endian"})
    return [pgm_path, sidecar_path]


def _run_split1d(cfg, out_dir, base):
    result = run_plan_1d_adiabatic(cfg.params, cfg.atom)
    stages_path = out_dir / f"{base}.stages.csv"
    _stage_csv(result, stages_path)

    grid = grid_from_output(cfg)
    pattern = fr.synthesize(result.final_arms, grid, cfg.atom,
                            fr.CoherenceEnvelope())
    spacing = fr.extract_spacing(pattern, "z")
    fringe_paths = _write_fringe(pattern, out_dir, base)
    summary_path = out_dir / f"{base}.summary.csv"
    write_csv(summary_path, ["quantity", "value"], [
        ("delta_n_z", result.extras["delta_n_z"]),
        ("relative_velocity_m_s", result.extras["relative_velocity_m_s"]),
        ("expected_spacing_m", result.extras["expected_spacing_m"]),
        ("extracted_spacing_m", spacing.period),
        ("spacing_bin_uncertainty_m", spacing.bin_uncertainty),
        ("fringe_contrast", fr.contrast(pattern)),
        ("recombine_drift_s", result.extras["recombine_drift_s"]),
    ])
    return [stages_path, *fringe_paths, summary_path], result.warnings


def _run_ramsey(cfg, out_dir, base):
    result = run_plan_ramsey(cfg.params, cfg.atom)
    scan = fr.ramsey_scan(result, periods=cfg.output["scan_periods"],
                          points_per_period=cfg.output["points_per_period"])
    stages_path = out_dir / f"{base}.stages.csv"
    _stage_csv(result.plan, stages_path)
    scan_path = out_dir / f"{base}.scan.csv"
    write_csv(scan_path, ["delta_hz", "population_c"],
              [(r["delta_hz"], r["population_c"]) for r in scan.rows()])
    summary_path = out_dir / f"{base}.summary.csv"
    write_csv(summary_path, ["quantity", "value"], [
        ("tau_s", result.tau),
        ("population_c_at_zero", scan.population_at_zero),
        ("fringe_period_hz", scan.fringe_period_hz),
        ("central_width_hz", scan.central_width_hz),
        ("width_scale_hz", scan.width_scale_hz),
    ])
    return [stages_path, scan_path, summary_path], result.plan.warnings


def _run_split2d(cfg, out_dir, base):
    result = run_plan_2d(cfg.params, cfg.atom)
    stages_path = out_dir / f"{base}.stages.csv"
    _stage_csv(result, stages_path)
    artifacts = [stages_path]

    grid = grid_from_output(cfg)
    pattern = fr.synthesize(result.final_arms, grid, cfg.atom,
                            fr.CoherenceEnvelope())
    summary_rows = [
        ("delta_n_z", result.extras["delta_n_z"]),
        ("delta_n_x", result.extras["delta_n_x"]),
        ("expected_spacing_z_m", result.extras["expected_spacing_z_m"]),
        ("nominal_spacing_z_m", result.extras["nominal_spacing_z_m"]),
    ]
    spacing_z = fr.extract_spacing(pattern, "z")
    summary_rows += [("extracted_spacing_z_m", spacing_z.period),
                     ("spacing_z_bin_m", spacing_z.bin_uncertainty)]
    if grid.dims == 2:
        spacing_x = fr.extract_spacing(pattern, "x")
        summary_rows += [
            ("expected_spacing_x_m", result.extras["expected_spacing_x_m"]),
            ("nominal_spacing_x_m", result.extras["nominal_spacing_x_m"]),
            ("extracted_spacing_x_m", spacing_x.period),
            ("spacing_x_bin_m", spacing_x.bin_uncertainty)]
    artifacts += _write_fringe(pattern, out_dir, base)
    summary_path = out_dir / f"{base}.summary.csv"
    write_csv(summary_path, ["quantity", "value"], summary_rows)
    artifacts.append(summary_path)
    return artifacts, result.warnings


def _run_fringes(cfg, out_dir, base):
    params = cfg.params
    arms = [(complex(a["amplitude_re"], a["amplitude_im"]), a["n_z"], a["n_x"],
             a["phase_rad"]) for a in params.arms]
    grid = grid_from_output(cfg)
    envelope = fr.CoherenceEnvelope(params.coherence_length_m)
    pattern = fr.synthesize(arms, grid, cfg.atom, envelope)
    artifacts = _write_fringe(pattern, out_dir, base)
    summary_rows = []
    for axis in pattern.axes:
        try:
            est = fr.extract_spacing(pattern, axis)
            summary_rows += [(f"extracted_spacing_{axis}_m", est.period),
                             (f"spacing_{axis}_bin_m", est.bin_uncertainty)]
        except NoFringeError:
            summary_rows += [(f"extracted_spacing_{axis}_m", math.nan)]
    summary_rows.append(("contrast", fr.contrast(pattern, envelope)))
    summary_path = out_dir / f"{base}.summary.csv"
    write_csv(summary_path, ["quantity", "value"], summary_rows)
    artifacts.append(summary_path)
    return artifacts, []


def _run_pattern(cfg, out_dir, base):
    params = cfg.params
    image, maxval = pgmio.read_pgm(params.input_pgm)
    target = pg.from_image(image, maxval, pitch=params.pitch_m)
    report = pg.roundtrip(target, magnification=params.magnification)

    recovered_path = out_dir / f"{base}.recovered.pgm"
    pgmio.write_pgm(recovered_path, pg.to_image(report.recovered))
    pgmio.write_sidecar(out_dir / f"{base}.recovered.txt", {
        "pitch_m": report.output_pitch,
        "magnification": params.magnification,
        "max_value": 65535, "byte_order": "big-endian"})
    error_path = out_dir / f"{base}.errors.csv"
    write_csv(error_path, ["quantity", "value"], [
        ("max_abs_error", report.max_abs_error),
        ("mean_abs_error", report.mean_abs_error),
        ("rms_error", report.rms_error),
        ("output_pitch_m", report.output_pitch),
    ])
    warnings = (["unequal split: contrast loss"] if report.contrast_warning
                else [])
    return [recovered_path, out_dir / f"{base}.recovered.txt", error_path], warnings


if __name__ == "__main__":
    sys.exit(main())
