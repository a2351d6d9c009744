#!/usr/bin/env python3
"""Time the C RK4 step loop alone on the kernel calls of one run.

    python3 scripts/kernel_ns.py CONFIG [--against FILE.c] [--rounds N]

Runs CONFIG once through ``recoilsim run`` (into a temporary directory,
with the ``src`` of this checkout), with a wrapper on ``ckernel.bind`` that
records every call of every bound step loop: the layout with its rate
rows, the states it starts from, each chunk's envelope table and substage
times and the states after each call.  Then it replays the recorded calls
N times (default 5) on the loaded build and, given ``--against``, on a
build of FILE.c with the same compiler flags, which must pass the loader's
probes too; the builds alternate round by round in this one process.
Only the calls of the step loop are timed, not the binding.  A call with
rates makes its phase ramps inside the kernel, so its time includes them.

Prints, for each build, the kernel time of one replay in ms and the ns per
state-step, the median and the fastest of the rounds; then the recorded
run's wall time in ``evolve_plan`` (every call, less the time the
recording itself took) and the part of it outside the step loop: that
time less the loaded build's median kernel time.  Exits 1 if any
replayed state differs, bit for bit, from the recorded run, and so between
the builds; 2 if no C build loads here or FILE.c gives none.
"""

import argparse
import contextlib
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from recoilsim import ckernel, cli, interferometer, plans  # noqa: E402


class Bound:
    """One ``ckernel.bind`` of a run: the layout it was bound on, copied
    when bound, and its calls in order, each (table, times, m, lo, hi,
    states after the call); calls of one chunk share their table and
    times, which no one writes once made."""

    def __init__(self, states, layout):
        self.start = states.copy()
        self.layout = tuple(None if a is None else np.array(a)
                            for a in layout)
        self.calls = []

    def record(self, states, table, times, m, lo, hi):
        self.calls.append((table, times, m, lo, hi, states.tobytes()))

    def state_steps(self) -> int:
        return sum((hi - lo) * self.start.size
                   for _, _, _, lo, hi, _ in self.calls)


def record(config: Path) -> tuple[list, float]:
    """Run ``config`` once and return a ``Bound`` of each binding, and the
    seconds spent in ``evolve_plan``, less those spent recording."""
    bound = []
    bind = ckernel.bind
    seconds = {"evolve": 0.0, "recording": 0.0}

    def recording(rk4_steps, states, *layout):
        steps = bind(rk4_steps, states, *layout)
        t0 = time.perf_counter()
        entry = Bound(states, layout)
        bound.append(entry)
        seconds["recording"] += time.perf_counter() - t0

        def run(table, times, m, lo, hi):
            steps(table, times, m, lo, hi)
            t0 = time.perf_counter()
            entry.record(states, table, times, m, lo, hi)
            seconds["recording"] += time.perf_counter() - t0
        return run

    def timed(wrapped):
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return wrapped(*args, **kwargs)
            finally:
                seconds["evolve"] += time.perf_counter() - t0
        return run

    # plans and interferometer each hold their own evolve_plan
    callers = {module: module.evolve_plan for module in (plans,
                                                         interferometer)}
    ckernel.bind = recording
    for module, evolve_plan in callers.items():
        module.evolve_plan = timed(evolve_plan)
    try:
        with tempfile.TemporaryDirectory() as out, \
                open(os.devnull, "w") as quiet, \
                contextlib.redirect_stdout(quiet):
            code = cli.main(["run", str(config), "--out", out])
    finally:
        ckernel.bind = bind
        for module, evolve_plan in callers.items():
            module.evolve_plan = evolve_plan
    if code != 0:
        sys.exit(f"{config} exited {code}")
    return bound, seconds["evolve"] - seconds["recording"]


def replay(kernel, bound: list) -> tuple[float, bool]:
    """Seconds in the step loop of ``kernel`` over every recorded call,
    and whether every state after a call is the recorded one."""
    seconds, same = 0.0, True
    for entry in bound:
        states = entry.start.copy()
        steps = kernel(states, *entry.layout)
        for table, times, m, lo, hi, after in entry.calls:
            t0 = time.perf_counter()
            steps(table, times, m, lo, hi)
            seconds += time.perf_counter() - t0
            same &= states.tobytes() == after
    return seconds, same


def build(source: Path):
    """The probed ``Kernel`` of ``source``, built with the loaded build's
    flags, or None if it does not build or its probes disagree."""
    flags = dict([ckernel.PLAIN, ckernel.FMA])[ckernel.engine()]
    loaded = ckernel.SOURCE
    ckernel.SOURCE = source
    try:
        return ckernel._open(flags)
    finally:
        ckernel.SOURCE = loaded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("--against", type=Path, metavar="FILE.c")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if ckernel.load() is None:
        print("no C build of the step loop loads here", file=sys.stderr)
        return 2
    builds = {f"loaded {ckernel.engine()} {ckernel.SOURCE}": ckernel.load()}
    if args.against is not None:
        other = build(args.against.resolve())
        if other is None:
            print(f"{args.against} gives no build that passes the probes",
                  file=sys.stderr)
            return 2
        builds[f"against {args.against.resolve()}"] = other
    bound, evolve = record(args.config)
    state_steps = sum(entry.state_steps() for entry in bound)
    times = {name: [] for name in builds}
    same = True
    for _ in range(args.rounds):
        for name, kernel in builds.items():
            seconds, ok = replay(kernel, bound)
            times[name].append(seconds)
            same &= ok
    calls = sum(len(entry.calls) for entry in bound)
    print(f"{args.config.name}: {len(bound)} bindings, {calls} calls, "
          f"{state_steps} state-steps, {args.rounds} rounds")
    for name, seconds in times.items():
        median, fastest = statistics.median(seconds), min(seconds)
        print(f"  {name}: kernel {1e3 * median:.2f} ms median, "
              f"{1e3 * fastest:.2f} ms min; "
              f"{1e9 * median / state_steps:.2f} ns per state-step median, "
              f"{1e9 * fastest / state_steps:.2f} min")
    kernel = statistics.median(next(iter(times.values())))
    print(f"  recorded run: evolve_plan {1e3 * evolve:.2f} ms, of which "
          f"{1e3 * (evolve - kernel):.2f} ms outside the loaded build's "
          f"step loop")
    if not same:
        print("replayed states differ from the recorded run", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
