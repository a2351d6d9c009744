"""Machine-speed probe that runs inside a measured interval.

On a shared host the same code runs up to twice as slow for stretches of
a few seconds, as co-tenants come and go; cpu_s moves with wall time, so
the process is not descheduled but each instruction takes longer.  A probe
run before or after the program misses such stretches.  ``SpeedProbe``
instead runs a fixed kernel from a SIGALRM handler every PERIOD_S seconds
of the interval it measures, on the same core and at the same moments as
the program.  The kernel is plain Python (complex arithmetic, tuples, dicts
and a list comprehension), so it needs no import that the measured code
would otherwise pay for (this module imports only ``gc``, ``signal`` and
``time``), and a stretch that slows the interpreter slows the kernel by
about as much.

    probe = SpeedProbe()
    probe.start()
    ...                                  # the measured code
    wall = ...                           # its wall time
    probe.stop().scaled(wall)            # wall at nominal kernel speed

``Reading.scaled`` removes the handlers' own time from the wall time and
scales the rest by NOMINAL_S over the mean kernel time: the time the
interval would have taken on this machine with the kernel running at
NOMINAL_S.  The kernel and NOMINAL_S fix that scale, so the figure compares
commits of the program measured by the same benchmark.
"""

import gc
import signal
import time

PERIOD_S = 0.01         # one kernel call per 10 ms costs about 1% of the run
ITERATIONS = 60         # about 50 us per kernel call on an idle core
NOMINAL_S = 5e-5
OUTLIER = 4.0           # kernel calls slower than this times the median
VALUES = tuple(complex(i, -i) for i in range(48))


class Reading:
    def __init__(self, kernel_s: list, handler_s: float):
        # a kernel call stretched by an interrupt or a page fault says
        # nothing about the speed of the program around it
        median = sorted(kernel_s)[len(kernel_s) // 2]
        kept = [k for k in kernel_s if k <= OUTLIER * median]
        self.samples = len(kept)
        self.kernel_mean_s = sum(kept) / len(kept)
        self.handler_s = handler_s      # time in the handler, kernel included

    def scaled(self, wall_s: float) -> float:
        return (wall_s - self.handler_s) * NOMINAL_S / self.kernel_mean_s


class SpeedProbe:
    def __init__(self):
        self._kernel_s = []
        self._handler_s = 0.0
        self._previous = None

    def kernel(self) -> None:
        start = time.perf_counter()
        table = {}
        acc = 0j
        for k in range(ITERATIONS):
            acc = acc * 0.999 + VALUES[k % 48] * (1 - 0.5j)
            table[k % 11] = (k, acc.real)
            table[11] = [x * 2.0 for x in (1.0, 2.0, 3.0)]
        self._kernel_s.append(time.perf_counter() - start)

    def _handler(self, signum, frame) -> None:
        # a collection triggered by the kernel's allocations would collect
        # the program's garbage inside the handler: hold it until the
        # program allocates again
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.kernel()
        self._handler_s += time.perf_counter() - start
        if enabled:
            gc.enable()

    def start(self) -> None:
        self._kernel_s = []
        self._handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> Reading:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        if not self._kernel_s:          # interval shorter than one period
            self.kernel()
        return Reading(self._kernel_s, self._handler_s)
