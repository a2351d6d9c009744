#!/usr/bin/env python3
"""Time the C RK4 step loop and fringe field alone on the kernel calls of
one run.

    python3 scripts/kernel_ns.py CONFIG [--against FILE.c] [--tune=FLAGS]
        [--rounds N]

Runs CONFIG once through ``recoilsim run`` (into a temporary directory,
with the ``src`` of this checkout), with a wrapper on ``ckernel.bind`` that
records every call of every bound step loop: the layout with its rate
rows, the states it starts from, each chunk's envelope table and substage
times and the states after each call; and one on
``ckernel.Kernel.fringe_fields`` that records every fringe grid: its plane
waves, coordinates and block, the rows of each call and a digest of the
fields they gave.  Then it replays the recorded calls N times (default 5)
on the loaded build and, given ``--against``, on a build of FILE.c with
the same compiler flags, which must have the loaded source's interface
and pass the loader's probes too; the builds alternate round by round in
this one process.  ``--tune`` replaces the tuning flags of that second
build (the loader's ``ckernel.TUNE``, ``-mtune=native``), given after an
``=`` as they start with a dash: ``--tune=""`` builds it untuned, and
``--tune="-mtune=native -mtune-ctrl=^FEATURE"`` drops one of GCC's tuning
features; without ``--against`` it builds the loaded source.  The second
build is compiled into a temporary cache directory, removed on exit, so
it leaves no ``rk4-*.so`` in the kernel cache.  A tuning the compiler
refuses exits 2, as does a FILE.c that gives no build.  Only the calls of
the step loop are timed, not the binding.  A call with rates makes its
phase ramps inside the kernel, so its time includes them.  A fringe
grid's time is its binding, which makes its column waves, and its calls.

Prints, for each build, the kernel time of one replay in ms and the ns per
state-step, the median and the fastest of the rounds; then the recorded
run's wall time in ``evolve_plan`` (every call, less the time the
recording itself took) and the part of it outside the step loop: that
time less the loaded build's median kernel time.  A run that synthesizes
fringes adds, for each build, the fringe field's ms per grid and ns per
sample and arm.  Exits 1 if any replayed state or field differs, bit for
bit, from the recorded run, and so between the builds; 2 if no C build
loads here or FILE.c gives none.
"""

import argparse
import contextlib
import hashlib
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


class Grid:
    """One ``Kernel.fringe_fields`` binding of a run: its plane waves,
    coordinates and block, copied, the rows (r0, r1) of each of its calls
    in order, and the sha256 of the fields they gave, one after another."""

    def __init__(self, waves, z, x, block):
        self.binding = ([tuple(w) for w in waves], np.array(z), np.array(x),
                        block)
        self.rows = []
        self.digest = hashlib.sha256()

    def sample_arms(self) -> int:
        waves, _, x, _ = self.binding
        return sum(r1 - r0 for r0, r1 in self.rows) * x.size * len(waves)


def record(config: Path) -> tuple[list, list, float]:
    """Run ``config`` once and return a ``Bound`` of each binding, a
    ``Grid`` of each fringe grid, and the seconds spent in
    ``evolve_plan``, less those spent recording."""
    bound, grids = [], []
    bind, fringe_fields = ckernel.bind, ckernel.Kernel.fringe_fields
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

    def recording_fields(kernel, *binding):
        fields = fringe_fields(kernel, *binding)
        grid = Grid(*binding)
        grids.append(grid)

        def run(r0, r1):
            field = fields(r0, r1)
            grid.rows.append((r0, r1))
            grid.digest.update(field)
            return field
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
    ckernel.bind, ckernel.Kernel.fringe_fields = recording, recording_fields
    for module, evolve_plan in callers.items():
        module.evolve_plan = timed(evolve_plan)
    try:
        with tempfile.TemporaryDirectory() as out, \
                open(os.devnull, "w") as quiet, \
                contextlib.redirect_stdout(quiet):
            code = cli.main(["run", str(config), "--out", out])
    finally:
        ckernel.bind, ckernel.Kernel.fringe_fields = bind, fringe_fields
        for module, evolve_plan in callers.items():
            module.evolve_plan = evolve_plan
    if code != 0:
        sys.exit(f"{config} exited {code}")
    return bound, grids, seconds["evolve"] - seconds["recording"]


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


def replay_fringes(kernel, grids: list) -> tuple[float, bool]:
    """Seconds in ``kernel``'s fringe field over every recorded grid, its
    binding included, and whether every grid's fields are the recorded
    ones."""
    seconds, same = 0.0, True
    for grid in grids:
        digest = hashlib.sha256()
        t0 = time.perf_counter()
        fields = kernel.fringe_fields(*grid.binding)
        seconds += time.perf_counter() - t0
        for r0, r1 in grid.rows:
            t0 = time.perf_counter()
            field = fields(r0, r1)
            seconds += time.perf_counter() - t0
            digest.update(field)
        same &= digest.digest() == grid.digest.digest()
    return seconds, same


def build(source: Path, tune: tuple):
    """The probed ``Kernel`` of ``source``, built with the loaded build's
    flags and the tuning flags ``tune`` into a temporary cache directory,
    or None if it does not build so or its probes disagree."""
    flags = dict([ckernel.PLAIN, ckernel.FMA])[ckernel.engine()]
    loaded = ckernel.SOURCE, ckernel.TUNE, os.environ.get("XDG_CACHE_HOME")
    ckernel.SOURCE, ckernel.TUNE = source, tune
    try:
        # the library stays loaded once its file is gone
        with tempfile.TemporaryDirectory() as cache:
            os.environ["XDG_CACHE_HOME"] = cache
            # built first, so that the loader cannot fall back to no tuning
            if ckernel._built(ckernel.COMPILE + tune + flags) is None:
                return None
            return ckernel._open(flags)
    finally:
        ckernel.SOURCE, ckernel.TUNE = loaded[:2]
        if loaded[2] is None:
            del os.environ["XDG_CACHE_HOME"]
        else:
            os.environ["XDG_CACHE_HOME"] = loaded[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("--against", type=Path, metavar="FILE.c")
    parser.add_argument("--tune", metavar="FLAGS")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if ckernel.load() is None:
        print("no C build of the step loop loads here", file=sys.stderr)
        return 2
    builds = {f"loaded {ckernel.engine()} {ckernel.SOURCE}": ckernel.load()}
    if args.against is not None or args.tune is not None:
        source = (args.against or ckernel.SOURCE).resolve()
        tune = ckernel.TUNE if args.tune is None else tuple(args.tune.split())
        other = build(source, tune)
        if other is None:
            print(f"{source} with {' '.join(tune) or 'no tuning'} gives no "
                  f"build that passes the probes", file=sys.stderr)
            return 2
        builds[f"against {source} {' '.join(tune) or 'untuned'}"] = other
    bound, grids, evolve = record(args.config)
    state_steps = sum(entry.state_steps() for entry in bound)
    times = {name: [] for name in builds}
    fringe_times = {name: [] for name in builds}
    same = True
    for _ in range(args.rounds):
        for name, kernel in builds.items():
            for replayed, runs in ((replay(kernel, bound), times),
                                   (replay_fringes(kernel, grids),
                                    fringe_times)):
                seconds, ok = replayed
                runs[name].append(seconds)
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
    if grids:
        sample_arms = sum(grid.sample_arms() for grid in grids)
        print(f"  fringe field: {len(grids)} grids, "
              f"{sum(len(grid.rows) for grid in grids)} calls, "
              f"{sample_arms} sample-arms")
        for name, seconds in fringe_times.items():
            median, fastest = statistics.median(seconds), min(seconds)
            print(f"  {name}: {1e3 * median / len(grids):.2f} ms per grid "
                  f"median, {1e3 * fastest / len(grids):.2f} min; "
                  f"{1e9 * median / sample_arms:.2f} ns per sample and arm "
                  f"median, {1e9 * fastest / sample_arms:.2f} min")
    if not same:
        print("replayed states or fields differ from the recorded run",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
