"""Benchmark of the recoilsim command line on three plan workloads.

    python3 perfbench/run.py --workload ladder|raman2d|ramsey_scan|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it uses the checkout's ``src`` and
needs nothing installed but numpy.  Each sample is a fresh child process
(perfbench/child.py) that runs ``recoilsim.cli.main(["run", <config>,
"--out", <dir>])`` single-threaded: OMP_NUM_THREADS, OPENBLAS_NUM_THREADS
and MKL_NUM_THREADS are 1 and the CLI's default ``--threads 1`` is kept.
The workload config is generated from ``--seed`` (workloads.py); the
program sees only the generated JSON.  Every run's outputs are checked
against physics invariants and the recorded reference summary; a run that
exits non-zero or fails a check counts as failed.

``--trace 0`` runs set-up probes, then run children until ``--seconds``
have passed (at least MIN_RUNS), and reports the medians of run_s, setup_s
and peak_rss_mb.  run_s and setup_s are wall times scaled to a nominal
machine speed by a probe that runs inside the timed interval (speed.py),
because co-tenants on a shared host slow the raw times by up to 2x; the
raw wall_s and cpu_s are printed beside them.  ``--trace 1`` alternates
untraced and traced children and reports the per-layer metrics of the
traced ones (tracer.py) plus the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the seed, config, config
hash, machine facts and each metric with its unit and sample count.  A
record of the run goes to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from tracer import layer_metrics

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5        # set-up-only children per run, after one warm-up
MIN_RUNS = 2            # untraced children per --trace 0 run
MIN_PAIRS = 1           # untraced + traced pairs per --trace 1 run
CHILD_TIMEOUT_S = 150


class MeasureError(RuntimeError):
    """The benchmark could not produce a number at all."""


@dataclass
class Sample:
    mode: str
    exit_code: int
    numbers: dict
    problems: list = field(default_factory=list)
    digest_matches: int = 0
    wall_s: float = 0.0         # child lifetime, used only for scheduling

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(mode: str, config: Path, work: Path, env: dict) -> Sample:
    out_dir = work / "out"
    result_path = work / "result.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, str(config), str(out_dir),
             str(result_path)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        code, err = proc.returncode, proc.stderr.strip()
    except subprocess.TimeoutExpired:
        code, err = -1, f"timed out after {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - start
    numbers = json.loads(result_path.read_text()) if result_path.is_file() \
        else {}
    sample = Sample(mode, code, numbers, wall_s=wall)
    if code != 0:
        tail = err.splitlines()[-1] if err else ""
        sample.problems.append(f"exit code {code}: {tail}")
    return sample


def run_samples(name: str, doc: dict, seconds: float, trace: bool,
                reference: dict | None, env: dict) -> tuple[list, list]:
    """Set-up probes and run samples of one workload config."""
    deadline = time.perf_counter() + seconds
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK / "tmp"))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        # the first probe byte-compiles the package and warms the page cache
        probes = [run_child("setup", config, work, env)
                  for _ in range(1 + SETUP_PROBES)][1:]
        samples = []
        modes = ("run", "trace") if trace else ("run",)
        minimum = 2 * MIN_PAIRS if trace else MIN_RUNS
        while True:
            cycle = 0.0
            for mode in modes:
                sample = run_child(mode, config, work, env)
                if sample.exit_code == 0:
                    sample.problems, sample.digest_matches = wl.check_outputs(
                        name, doc, work / "out", reference)
                samples.append(sample)
                cycle += sample.wall_s
            if len(samples) >= minimum and \
                    time.perf_counter() + cycle > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return probes, samples


def _median(samples, key) -> tuple[float, int]:
    values = [s.numbers[key] for s in samples if key in s.numbers]
    if not values:
        raise MeasureError(f"no sample measured {key}")
    return statistics.median(values), len(values)


def summarize(probes, samples, trace: bool) -> dict:
    """{metric: (value, sample count)} from one run's samples."""
    good = [s for s in samples if s.ok] or samples
    runs = [s for s in good if s.mode == "run"]
    if not trace:
        return {
            "run_s": _median(runs, "run_s"),
            "setup_s": _median(probes + samples, "setup_s"),
            "peak_rss_mb": _median(runs, "peak_rss_mb"),
        }
    traced = [s for s in good if s.mode == "trace" and "spans" in s.numbers]
    if not traced:
        raise MeasureError("no traced sample finished")
    per_sample = [layer_metrics(s.numbers["spans"], s.numbers["counters"])
                  for s in traced]
    metrics = {key: (statistics.median(m[key] for m in per_sample),
                     len(per_sample)) for key in per_sample[0]}
    metrics["output.digest_matches"] = (
        statistics.median(s.digest_matches for s in traced), len(traced))
    plain, n_plain = _median(runs, "wall_s")
    with_trace, n_traced = _median(traced, "wall_s")
    metrics["trace.overhead_frac"] = ((with_trace - plain) / plain,
                                      min(n_plain, n_traced))
    return metrics


def result_line(samples, metrics, wanted) -> dict:
    """The JSON object the run prints last; a sample that exited non-zero
    or failed an output check counts as failed."""
    failed = sum(not s.ok for s in samples)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }


def machine_facts(samples, env: dict) -> dict:
    numpy_version = next((s.numbers["numpy"] for s in samples
                          if "numpy" in s.numbers), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        **{var: env[var] for var in THREAD_VARS},
    }


def unfired_sites(name: str, samples) -> list[str]:
    fired = {span[0] for s in samples for span in s.numbers.get("spans", ())}
    return [site for site in wl.SPEC["workloads"][name]["sites"]
            if site not in fired]


def bench_workload(name: str, seed: int, seconds: float, trace: bool,
                   bench: dict, references: dict, env: dict) -> dict:
    level = wl.level_for_seed(seed)
    doc = wl.config_for_level(name, level)
    digest = wl.config_hash(doc)
    reference = references.get(digest)
    if reference is None:
        raise MeasureError(f"no reference for {name} config {digest}; "
                           "run perfbench/record_reference.py")
    print(f"# workload {name} seed={seed} level={level:+d} "
          f"config_hash={digest} trace={int(trace)}")
    print(f"# config {json.dumps(doc, sort_keys=True)}")

    probes, samples = run_samples(name, doc, seconds, trace, reference, env)
    metrics = summarize(probes, samples, trace)
    wanted = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise MeasureError(f"metrics not produced: {missing}")
    result = result_line(samples, metrics, wanted)
    facts = machine_facts(probes + samples, env)
    print("# machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for s in samples:
        for problem in s.problems:
            print(f"# FAILED {s.mode}: {problem}")
    if trace:
        for site in unfired_sites(name, samples):
            print(f"# WARNING trace site {site} never fired", file=sys.stderr)
    rows = [(m["name"], m["unit"], *metrics[m["name"]]) for m in wanted]
    if not trace:
        runs = [s for s in samples if s.ok and s.mode == "run"] or samples
        rows += [(key, "s", *_median(runs, key))
                 for key in ("wall_s", "cpu_s")]
    for metric, unit, value, count in rows:
        print(f"{name:<12} {metric:<28} {value:>14.6g} {unit:<6} n={count}")
    print(f"{name:<12} {'failed_frac':<28} "
          f"{result['failed'] / result['attempted']:>14.6g} {'ratio':<6} "
          f"n={result['attempted']}")

    record = {
        "workload": name, "seed": seed, "level": level, "config": doc,
        "config_hash": digest, "trace": int(trace), "machine": facts,
        "result": result,
        "samples": [{"mode": s.mode, "exit_code": s.exit_code,
                     "problems": s.problems,
                     "digest_matches": s.digest_matches,
                     **{k: v for k, v in s.numbers.items() if k != "spans"}}
                    for s in samples],
        "spans": next((s.numbers["spans"] for s in reversed(samples)
                       if "spans" in s.numbers), []),
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}-"
                   f"{time.time_ns()}.json").write_text(json.dumps(record))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "recoilsim" / "__init__.py").is_file():
        print(f"error: no recoilsim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = list(wl.SPEC["workloads"]) if args.workload == "all" \
        else [args.workload]
    references = wl.load_reference()
    env = child_env()
    results = {}
    try:
        for name in names:
            results[name] = bench_workload(name, args.seed, seconds,
                                           bool(args.trace), bench,
                                           references, env)
    except MeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
