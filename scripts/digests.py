#!/usr/bin/env python3
"""Print the sha256 of every artifact of every example configuration.

    python3 scripts/digests.py > digests.json

Runs each ``scripts/configs/*.json`` through ``recoilsim run`` (the gear
pattern through ``make_gear_pgm.py``, which generates its input image) in a
temporary directory, using the ``src`` of the checkout this script lives
in.  Prints one JSON object {config: {artifact kind: sha256}}, where the
kind is the artifact name after the ``<plan>-<confighash>.`` prefix, so two
checkouts give bit-identical artifacts exactly when their outputs are
identical under ``diff``.  The provenance file has no digest (it records
wall time) and is left out.  On a 2-core AVX-512 host the full set takes
about 11 s with the C kernel's FMA build, 20 s with its plain build and
118 s on the numpy loops, where no C build loads.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"


def child_env() -> dict:
    """This environment with the ``src`` of this checkout first on
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def command(config: Path, out_dir: Path) -> list[str]:
    """The command line that runs ``config`` into ``out_dir``."""
    if config.name == "pattern_gear.json":
        return [sys.executable, str(ROOT / "scripts" / "make_gear_pgm.py"),
                "--out", str(out_dir)]
    return [sys.executable, "-m", "recoilsim", "run", str(config),
            "--out", str(out_dir)]


def run_config(config: Path, out_dir: Path) -> None:
    done = subprocess.run(command(config, out_dir), env=child_env(),
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{config.name} exited {done.returncode}:\n{done.stderr}")


def artifact_digests(out_dir: Path) -> dict:
    (manifest,) = out_dir.glob("*.manifest.json")
    entries = json.loads(manifest.read_text())["artifacts"]
    return {entry["path"].split(".", 1)[1]: entry["sha256"]
            for entry in entries if "sha256" in entry}


def main() -> int:
    digests = {}
    for config in sorted(CONFIGS.glob("*.json")):
        with tempfile.TemporaryDirectory() as tmp:
            run_config(config, Path(tmp))
            digests[config.name] = artifact_digests(Path(tmp))
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
