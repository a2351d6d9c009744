#!/usr/bin/env python3
"""Print the peak resident set size of a run of each example configuration.

    python3 scripts/peak_rss.py [config.json]

Runs each ``scripts/configs/*.json``, or the one config given, the way
``scripts/digests.py`` does: in a fresh child process, into a temporary
directory, with the ``src`` of this checkout.  Prints one JSON object
{config: peak RSS in MB}, each the ru_maxrss that ``os.wait4`` reports for
its child (KiB / 1024), which covers the interpreter, numpy and the whole
run.  That figure also covers any process the child waits for, so one
child loads the C step loop first: a run that compiled it would count the
compiler.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from digests import CONFIGS, child_env, command


def peak_rss_mb(config: Path, out_dir: Path) -> float:
    """Run ``config`` in a child and return the child's ru_maxrss in MB."""
    with tempfile.TemporaryFile() as err:
        child = subprocess.Popen(command(config, out_dir), env=child_env(),
                                 stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            err.seek(0)
            sys.exit(f"{config.name} exited {child.returncode}:\n"
                     f"{err.read().decode(errors='replace')}")
    return usage.ru_maxrss / 1024.0


def main(argv) -> int:
    configs = ([Path(arg).resolve() for arg in argv] if argv
               else sorted(CONFIGS.glob("*.json")))
    subprocess.run([sys.executable, "-c",
                    "from recoilsim import ckernel; ckernel.engine()"],
                   env=child_env(), check=True)
    peaks = {}
    for config in configs:
        with tempfile.TemporaryDirectory() as tmp:
            peaks[config.name] = round(peak_rss_mb(config, Path(tmp)), 3)
    print(json.dumps(peaks, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
