"""Spans and counters around the entry points of recoilsim's layers.

The package binds names with ``from .x import y``, so a function is wrapped
where its caller looks it up, not where it is defined: wrapping
``recoilsim.propagate.evolve_plan`` would miss every call, because plans and
interferometer hold their own references.  ``Tracer.install`` replaces each
site in ``SITES`` and fails loudly if a site no longer exists; a site that
exists but is no longer called is caught by the benchmark's tests.

A span is ``[site, start, end, parent index, run id]``; spans stay in memory
and are written out by the caller when the run ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans, so the
self times of one run add up to the duration of the root span.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import Counter


def _count_steps(tracer, args, kwargs, dt):
    # mirrors evolve_plan: n_steps = ceil(duration / dt_cap), one per epoch
    hamiltonian = args[0]
    t0 = args[2] if len(args) > 2 else kwargs.get("t0")
    t1 = args[3] if len(args) > 3 else kwargs.get("t1")
    steps = max(1, math.ceil((t1 - t0) / dt)) if math.isfinite(dt) else 1
    tracer.counters["propagate.steps"] += steps
    tracer.counters["propagate.state_steps"] += steps * len(hamiltonian.diagonal)


def _count_compiled(tracer, args, kwargs, hamiltonian):
    tracer.counters["hamiltonian.compiled_states"] += len(hamiltonian.diagonal)


def _count_active(tracer, args, kwargs, mask):
    tracer.counters["hamiltonian.active_states"] += int(mask.sum())


def _count_scan(tracer, args, kwargs, scan):
    tracer.counters["fringes.scan_points"] += len(scan.deltas)


def _count_grid(tracer, args, kwargs, pattern):
    tracer.counters["fringes.grid_samples"] += int(pattern.samples.size)


def _count_epochs(tracer, args, kwargs, plan):
    tracer.counters["pulses.epochs"] += len(plan.epochs)


def _count_file(tracer, args, kwargs, _):
    tracer.counters["output.files"] += 1
    tracer.counters["output.bytes_written"] += os.path.getsize(args[0])


def _trace_observer(tracer, kwargs):
    if kwargs.get("observer") is not None:
        kwargs["observer"] = tracer.wrap("propagate.observer",
                                         kwargs["observer"])


# (module, class or None, attribute, layer, hook after the call,
#  hook before the call)
SITES = [
    ("cli", None, "load_config", "config", None, None),
    ("cli", None, "run_figure3", "plans", None, None),
    ("cli", None, "run_plan_ramsey", "plans", None, None),
    ("cli", None, "run_plan_2d", "plans", None, None),
    ("cli", None, "write_csv", "output", _count_file, None),
    ("cli", None, "write_provenance", "output", _count_file, None),
    ("cli", None, "write_manifest", "output", _count_file, None),
    ("cli", None, "file_digest", "output", None, None),
    ("pgmio", None, "write_pgm", "output", _count_file, None),
    ("pgmio", None, "write_sidecar", "output", _count_file, None),
    ("fringes", None, "ramsey_scan", "fringes.scan", _count_scan, None),
    ("fringes", None, "synthesize", "fringes.synthesize", _count_grid, None),
    ("fringes", None, "extract_spacing", "fringes.spacing", None, None),
    ("plans", None, "build_adiabatic_sequence", "pulses", _count_epochs, None),
    ("plans", None, "build_raman_sequence", "pulses", _count_epochs, None),
    ("plans", None, "effective_pulse", "pulses", None, None),
    ("plans", None, "copropagating_pulse", "pulses", None, None),
    ("interferometer", None, "shift_plan", "pulses", None, None),
    ("plans", None, "selective_transfer", "interferometer", None, None),
    ("interferometer", None, "run_sequence_on_arm", "interferometer", None,
     None),
    ("interferometer", None, "free_flight", "interferometer", None, None),
    ("plans", None, "evolve_plan", "propagate", None, _trace_observer),
    ("interferometer", None, "evolve_plan", "propagate", None,
     _trace_observer),
    ("propagate", None, "default_dt", "propagate", _count_steps, None),
    ("propagate", None, "compile_from_epoch", "hamiltonian.compile",
     _count_compiled, None),
    ("hamiltonian", "EpochHamiltonian", "active_mask", "hamiltonian.reduce",
     _count_active, None),
    ("hamiltonian", "EpochHamiltonian", "reduced", "hamiltonian.reduce", None,
     None),
]

ROOT_SITE = "cli.main"


def site_name(mod, cls, attr) -> str:
    return ".".join(filter(None, (mod, cls, attr)))


LAYER_OF = {ROOT_SITE: "cli", "propagate.observer": "propagate.observer"}
LAYER_OF.update({site_name(mod, cls, attr): layer
                 for mod, cls, attr, layer, _, _ in SITES})


class Tracer:
    """Records spans and counters from wrappers installed into recoilsim."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, site, fn, after=None, before=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        run_id = self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, kwargs)
            span = [site, clock(), 0.0, stack[-1] if stack else -1, run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every site in SITES; returns the traced ``cli.main``."""
        for mod, cls, attr, _, after, before in SITES:
            owner = importlib.import_module(f"recoilsim.{mod}")
            if cls is not None:
                owner = getattr(owner, cls)
            setattr(owner, attr, self.wrap(site_name(mod, cls, attr),
                                           getattr(owner, attr), after, before))
        cli = importlib.import_module("recoilsim.cli")
        return self.wrap(ROOT_SITE, cli.main)


def self_times(spans) -> tuple[dict, dict]:
    """Self and inclusive seconds per layer; nested spans of one layer count
    once in its inclusive time."""
    covered = [0.0] * len(spans)
    for site, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    own, inclusive = Counter(), Counter()
    for i, (site, start, end, parent, _) in enumerate(spans):
        layer = LAYER_OF[site]
        own[layer] += (end - start) - covered[i]
        if parent < 0 or LAYER_OF[spans[parent][0]] != layer:
            inclusive[layer] += end - start
    return own, inclusive


def layer_metrics(spans, counters) -> dict:
    """Per-layer metrics of one traced run (all but the two the parent adds:
    output.digest_matches and trace.overhead_frac)."""
    own, inclusive = self_times(spans)
    counters = Counter(counters)
    calls = Counter(span[0] for span in spans)
    steps = counters["propagate.steps"]
    state_steps = counters["propagate.state_steps"]
    compiled = counters["hamiltonian.compiled_states"]
    points = counters["fringes.scan_points"]

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    return {
        "propagate.self_s": own["propagate"],
        "propagate.steps": steps,
        "propagate.state_steps": state_steps,
        "propagate.us_per_step": per(own["propagate"], steps, 1e6),
        "propagate.ns_per_state_step": per(own["propagate"], state_steps, 1e9),
        "propagate.calls": calls["plans.evolve_plan"]
        + calls["interferometer.evolve_plan"],
        "propagate.observer_s": own["propagate.observer"],
        "hamiltonian.compile_s": own["hamiltonian.compile"],
        "hamiltonian.compiles": calls["propagate.compile_from_epoch"],
        "hamiltonian.compiled_states": compiled,
        "hamiltonian.reduce_s": own["hamiltonian.reduce"],
        "hamiltonian.active_states": counters["hamiltonian.active_states"],
        "hamiltonian.active_ratio": per(counters["hamiltonian.active_states"],
                                        compiled, 1.0),
        "fringes.scan_s": own["fringes.scan"],
        "fringes.scan_points": points,
        "fringes.ms_per_scan_point": per(inclusive["fringes.scan"], points,
                                         1e3),
        "fringes.synthesize_s": own["fringes.synthesize"],
        "fringes.grid_samples": counters["fringes.grid_samples"],
        "fringes.spacing_s": own["fringes.spacing"],
        "interferometer.self_s": own["interferometer"],
        "interferometer.arm_runs": calls["interferometer.run_sequence_on_arm"],
        "plans.self_s": own["plans"],
        "pulses.build_s": own["pulses"],
        "pulses.epochs": counters["pulses.epochs"],
        "output.write_s": own["output"],
        "output.bytes_written": counters["output.bytes_written"],
        "output.files": counters["output.files"],
        "config.load_s": own["config"],
        "cli.self_s": own["cli"],
    }
