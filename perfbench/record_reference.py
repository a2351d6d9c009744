"""Record the reference summary and artifact digests of every workload level.

    python3 perfbench/record_reference.py

Runs each workload config that a seed can generate once through the CLI
(as perfbench/run.py does), requires the physics checks to pass, and
writes perfbench/reference.json keyed by config hash.  Run it only when
the workload templates or jitter bands change; the file it writes is what
later commits are compared against.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl
from run import WORK, child_env, run_child


def main() -> int:
    env = child_env()
    reference = {}
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK / "tmp"))
    try:
        for name in wl.SPEC["workloads"]:
            for level in range(-wl.LEVELS, wl.LEVELS + 1):
                doc = wl.config_for_level(name, level)
                config = work / "config.json"
                config.write_text(json.dumps(doc), encoding="utf-8")
                sample = run_child("run", config, work, env)
                if sample.exit_code == 0:
                    sample.problems, _ = wl.check_outputs(
                        name, doc, work / "out", None)
                if not sample.ok:
                    print(f"{name} level {level:+d}: {sample.problems}",
                          file=sys.stderr)
                    return 1
                summary, digests = wl.read_outputs(work / "out")
                reference[wl.config_hash(doc)] = {
                    "workload": name, "level": level, "config": doc,
                    "summary": summary, "digests": digests}
                print(f"{name} level {level:+d}: "
                      f"{sample.numbers['wall_s']:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wl.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
