"""One measured child process of the benchmark.

    python3 perfbench/child.py setup|run|trace <config.json> <out_dir> <result.json>

``setup`` times ``import recoilsim`` plus ``config.load_config``; ``run``
also calls ``recoilsim.cli.main(["run", config, "--out", out_dir])`` and
times it with wall clock and process CPU time; ``trace`` does the same with
the wrappers of tracer.py installed.  Set-up and the untraced run are each
timed with a speed probe (speed.py) running inside them, which gives
``setup_s`` and ``run_s`` at the probe's nominal machine speed next to the
raw ``setup_wall_s`` and ``wall_s``; the traced run has no probe, so its
spans hold only the program.  The numbers go to ``result.json`` and the
process exits with the CLI's exit code.  perfbench/run.py starts it with
``src`` on PYTHONPATH and the BLAS and OpenMP pools pinned to one thread.
"""

import json
import resource
import sys
import time
import uuid

from speed import SpeedProbe


def main(argv) -> int:
    mode, config, out_dir, result_path = argv
    probe = SpeedProbe()
    probe.start()
    start = time.perf_counter()
    import recoilsim  # noqa: F401  (the import is what setup_s measures)
    from recoilsim.config import load_config
    load_config(config)
    wall = time.perf_counter() - start
    reading = probe.stop()
    result = {"setup_s": reading.scaled(wall), "setup_wall_s": wall,
              "setup_probes": reading.samples}

    import numpy
    from recoilsim import cli
    result["numpy"] = numpy.__version__
    code = 0
    if mode != "setup":
        tracer = None
        entry = cli.main
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer(run_id=uuid.uuid4().hex)
            entry = tracer.install()
        else:
            probe.start()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        code = entry(["run", config, "--out", out_dir])
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if tracer is None:
            reading = probe.stop()
            result["run_s"] = reading.scaled(wall)
            result["run_probes"] = reading.samples
            result["probe_kernel_s"] = reading.kernel_mean_s
            cpu -= reading.handler_s
            wall -= reading.handler_s
        result["wall_s"] = wall
        result["cpu_s"] = cpu
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counters"] = dict(tracer.counters)
    result["exit_code"] = code
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
