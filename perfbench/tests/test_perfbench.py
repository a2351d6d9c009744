"""Tests of the benchmark harness on tiny configs.

    python3 -m pytest perfbench/tests

Each workload's ``tiny`` config in spec.json runs in well under two
seconds but reaches the same trace sites as the full workload.
"""

import hashlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
import speed  # noqa: E402
from speed import Reading, SpeedProbe  # noqa: E402
from tracer import LAYER_OF, self_times  # noqa: E402

WORKLOADS = list(wl.SPEC["workloads"])
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}


def tiny(name):
    return wl.SPEC["workloads"][name]["tiny"]


@pytest.fixture(scope="module")
def env():
    return run.child_env()


@pytest.fixture(scope="module")
def traced(env):
    """Probes plus one untraced and one traced sample per workload."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "SETUP_PROBES", 1)
        mp.setattr(run, "MIN_PAIRS", 1)
        return {name: run.run_samples(name, tiny(name), 0, True, None, env)
                for name in WORKLOADS}


def run_once(name, doc, work, env):
    config = work / "config.json"
    config.write_text(json.dumps(doc))
    sample = run.run_child("run", config, work, env)
    assert sample.exit_code == 0, sample.problems
    return work / "out"


def rewrite_summary(out_dir, key, factor):
    """Scale one summary value and keep the manifest consistent, as a
    program that computed the wrong number would have written it."""
    path = next(out_dir.glob("*.summary.csv"))
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        quantity, value = line.split(",")
        if quantity == key:
            lines[i] = f"{quantity},{float(value) * factor!r}"
    path.write_text("\n".join(lines) + "\n")
    manifest = next(out_dir.glob("*.manifest.json"))
    doc = json.loads(manifest.read_text())
    for entry in doc["artifacts"]:
        if entry["path"] == path.name:
            entry["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest.write_text(json.dumps(doc))


def test_every_metric_is_emitted_for_every_workload(traced):
    for name, (probes, samples) in traced.items():
        assert all(s.ok for s in samples), [s.problems for s in samples]
        e2e = run.summarize(probes, samples, trace=False)
        layers = run.summarize(probes, samples, trace=True)
        assert set(e2e) == END_TO_END
        assert set(layers) == PER_LAYER
        assert all(value > 0 and count >= 1
                   for value, count in e2e.values()), e2e
        line = run.result_line(samples, e2e, BENCH["end_to_end"])
        assert line["failed"] == 0 and line["correct"]
    assert set(wl.SPEC["layer_map"]) == PER_LAYER


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_wrapper_fires_on_each_workload_that_reaches_it(traced, name):
    assert run.unfired_sites(name, traced[name][1]) == []


def test_every_wrapper_is_reached_by_some_workload():
    reached = {site for spec in wl.SPEC["workloads"].values()
               for site in spec["sites"]}
    assert reached == set(LAYER_OF)


def test_self_times_sum_to_the_traced_run_wall_time(traced):
    for name, (_, samples) in traced.items():
        sample = next(s for s in samples if s.mode == "trace")
        spans = sample.numbers["spans"]
        roots = [span for span in spans if span[3] < 0]
        assert len(roots) == 1
        wall = roots[0][2] - roots[0][1]
        own, _ = self_times(spans)
        assert sum(own.values()) == pytest.approx(wall, rel=1e-9, abs=1e-9)
        assert min(own.values()) >= -1e-9, own
        assert len({span[4] for span in spans}) == 1
        for site, start, end, parent, _ in spans:
            if parent >= 0:
                assert spans[parent][1] <= start <= end <= spans[parent][2]
        assert wall <= sample.numbers["wall_s"] <= wall + 1e-3


def test_perturbed_summary_counts_as_a_failure(env, tmp_path):
    doc = tiny("ramsey_scan")
    out = run_once("ramsey_scan", doc, tmp_path, env)
    assert wl.check_outputs("ramsey_scan", doc, out, None) == ([], 0)
    summary, digests = wl.read_outputs(out)
    reference = {"summary": summary, "digests": digests}
    assert wl.check_outputs("ramsey_scan", doc, out, reference) == \
        ([], len(digests))

    rewrite_summary(out, "fringe_period_hz", 1.01)
    problems, matches = wl.check_outputs("ramsey_scan", doc, out, reference)
    assert any(p.startswith("fringe_period_hz") for p in problems)
    assert matches == len(digests) - 1


def test_reference_drift_fails_but_digest_drift_does_not(env, tmp_path):
    doc = tiny("ladder")
    out = run_once("ladder", doc, tmp_path, env)
    summary, digests = wl.read_outputs(out)
    reference = {"summary": summary, "digests": dict(digests)}

    reference["digests"]["momentum.csv"] = "0" * 64
    assert wl.check_outputs("ladder", doc, out, reference) == \
        ([], len(digests) - 1)

    rewrite_summary(out, "final_deflected_population", 1.0 + 1e-4)
    problems, _ = wl.check_outputs("ladder", doc, out, reference)
    assert wl.physics_problems("ladder", doc, wl.read_outputs(out)[0],
                               out) == []
    assert [p.split(" ")[0] for p in problems] == \
        ["final_deflected_population"]


def test_nonzero_exit_counts_as_a_failure(env, monkeypatch):
    doc = json.loads(json.dumps(tiny("ramsey_scan")))
    doc["output"]["points_per_period"] = 5      # rejected by ramsey_scan
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    probes, samples = run.run_samples("ramsey_scan", doc, 0, False, None, env)
    assert [s.exit_code for s in samples] == [2]
    metrics = run.summarize(probes, samples, trace=False)
    line = run.result_line(samples, metrics, BENCH["end_to_end"])
    assert (line["attempted"], line["failed"], line["correct"]) == \
        (1, 1, False)


def test_seeds_pick_recorded_configs_within_their_bands():
    references = wl.load_reference()
    for name in WORKLOADS:
        spec = wl.SPEC["workloads"][name]
        for level in range(-wl.LEVELS, wl.LEVELS + 1):
            doc = wl.config_for_level(name, level)
            assert wl.config_hash(doc) in references, (name, level)
            for path, band in spec["jitter"].items():
                section, key = path.split(".")
                base = spec["template"][section][key]
                width = band["rel"] * base if "rel" in band else band["abs"]
                assert abs(doc[section][key] - base) <= width * (1 + 1e-9)
    assert [wl.level_for_seed(seed) for seed in range(20)] == \
        [wl.level_for_seed(seed) for seed in range(20)]
    assert {wl.level_for_seed(seed) for seed in range(200)} == \
        set(range(-wl.LEVELS, wl.LEVELS + 1))


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_scaled_time_leaves_out_the_handlers_and_follows_the_kernel():
    # 1.1 s wall, 0.1 s of it in handlers, kernel at twice its nominal time
    reading = Reading([2 * speed.NOMINAL_S] * 3, 0.1)
    assert reading.scaled(1.1) == pytest.approx(0.5)


def test_reading_leaves_out_stretched_kernel_calls():
    reading = Reading([1e-4, 1e-4, 1.3e-4, 1e-3], 0.0)
    assert reading.samples == 3
    assert reading.kernel_mean_s == pytest.approx(1.1e-4)


def test_speed_probe_samples_inside_the_interval_and_restores_sigalrm():
    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        probe = SpeedProbe()
        probe.start()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        wall = time.perf_counter() - start
        reading = probe.stop()
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert reading.samples >= 10
    assert 0 < reading.handler_s < 0.2 * wall
    assert reading.scaled(wall) == pytest.approx(
        (wall - reading.handler_s) * speed.NOMINAL_S / reading.kernel_mean_s)


def test_untraced_children_carry_scaled_and_raw_times(traced):
    for name, (probes, samples) in traced.items():
        for sample in probes + samples:
            assert sample.numbers["setup_s"] > 0
            assert sample.numbers["setup_probes"] >= 1
        for sample in samples:
            numbers = sample.numbers
            assert numbers["wall_s"] > 0 and numbers["cpu_s"] > 0
            if sample.mode == "run":
                assert numbers["run_s"] > 0 and numbers["run_probes"] >= 1
            else:
                assert "run_s" not in numbers
