"""Build and load the C RK4 step loop, envelope tabulation and fringe
field (``_rk4.c``) on first use.

Nothing happens at import.  The first ``load()`` compiles the kernel with
the system C compiler into ``$XDG_CACHE_HOME/recoilsim`` (default
``~/.cache/recoilsim``), named by a hash of the source and the flags, and
opens it with ctypes.  Each build is tuned for the CPU that compiles it
(``TUNE``, ``-mtune=native``), or built untuned where the compiler refuses
that flag, which costs each process one failed compile of a few ms.
Tuning picks the compiler's instruction scheduling and selection, never
the instruction set (there is no ``-march``), so no build runs an
instruction its CPU lacks, and with ``-ffp-contract=off`` it changes no
rounding: the probes below hold for a tuned build as for an untuned one.
The cache key names the flags, not the CPU, so a cache shared between
CPUs reuses the build tuned for the one that compiled it first, which
gives the same bits, only tuned for another CPU.

Two builds exist: a plain one, and one that fuses
each real part of a complex product into one multiply-add (``-mfma``), as
numpy's FMA kernels do.  The probes choose between them: on a CPU that
numpy reports with FMA3 the FMA build is tried first and then the plain
one, elsewhere only the plain one, and the first build is used whose
envelope table of fixed probe windows and times equals
``PulseEnvelope.value`` bit for bit, and whose steps on two fixed probe
operators equal ``propagate._numpy_loop``'s bit for bit; a build whose
complex products round otherwise than numpy's fails the steps.  One of
the operators has phase ramps (antisymmetric rates, a coupled pair at
rate 0, a step from time 0.0), which the kernel makes with libm's
``sincos`` and the numpy loop with numpy's complex ``exp``, so a libm
whose ``sincos`` disagrees with that ``exp`` leaves the numpy loop
running.  Its fringe field on a fixed odd-sized 2-D grid and on a 1-D
grid, each with an arm at the origin, a product of row and column waves
that it makes with ``sincos`` per arm and grid line, must also equal
``fringes._numpy_fields``' bit for bit.
With no such build, no compiler or no writable cache, ``load()`` returns
None, and the numpy loop, ``PulseEnvelope.value`` and
``fringes._numpy_fields`` run.

Why tuning pays.  On an AVX-512 Xeon that GCC 12 resolves to
sapphirerapids, the FMA build's step loop takes 7.9-8.3 ns per
state-step on the figure3 ladder of 30 pairs, against 9.5-10.0 untuned
(``scripts/kernel_ns.py --tune=""``); the plain build gains about 5%.  No
tuning feature of ``-mtune-ctrl`` accounts for it: generic tuning with
every feature that sapphirerapids turns on gives none of it; skylake
gives all of it and haswell none, and skylake with the one feature that
haswell lacks (``prefer_known_rep_movsb_stosb``) turned off still gives
all of it, as does native tuning without post-reload scheduling or loop
alignment.  It comes from the processor cost table that ``-mtune``
selects and ``-mtune-ctrl`` does not reach: the same loops vectorize at
the same width, but under the tunings that gain (skylake, icelake-server,
sapphirerapids) the step loop's vector bodies carry 53
register-to-register copies (``vmovapd``), and under those that do not
(generic, haswell, znver3) 101-105.
"""

from __future__ import annotations

import ctypes
import math
import os
from functools import lru_cache
from pathlib import Path

import numpy as np

from .pulses import SINE_SQUARED, SQUARE, PulseEnvelope

SOURCE = Path(__file__).with_name("_rk4.c")
COMPILE = ("cc", "-O3", "-shared", "-fPIC", "-ffp-contract=off")
TUNE = ("-mtune=native",)
PLAIN, FMA = ("c-plain", ()), ("c-fma", ("-mfma", "-DUSE_FMA"))
_loaded = None          # (engine name, Kernel or None) once chosen


def commands(flags: tuple) -> tuple:
    """The compiler commands of the build with ``flags``, in the order
    they are tried: tuned for this CPU, then untuned."""
    return COMPILE + TUNE + flags, COMPILE + flags


def _library(flags: tuple) -> Path | None:
    """The compiled kernel of the build with ``flags``, tuned for this CPU
    (``TUNE``) unless the compiler refuses that, built unless the cache
    holds it; None when it cannot be built or cached."""
    for command in commands(flags):
        path = _built(command)
        if path is not None:
            return path
    return None


def _path(command: tuple) -> Path:
    """Where the cache keeps the kernel compiled by ``command``: named by
    a hash of the source and the command."""
    import hashlib
    key = hashlib.sha256(SOURCE.read_bytes() +
                         " ".join(command).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME")
                 or Path.home() / ".cache") / "recoilsim"
    return cache / f"rk4-{key[:16]}.so"


def _built(command: tuple) -> Path | None:
    """The kernel compiled by ``command``, built unless the cache holds
    it; None when it cannot be built or cached."""
    try:
        path = _path(command)
        if path.is_file():
            return path
        import subprocess
        import tempfile
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
        os.close(fd)
        try:
            built = subprocess.run(command + ("-o", tmp, str(SOURCE), "-lm"),
                                   capture_output=True).returncode == 0
            if built:
                os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except (OSError, RuntimeError):     # RuntimeError: no home directory
        return None     # no source, compiler or writable cache
    return path if built else None


def _envelope_probe():
    """Fixed sine-squared and square windows, and times before, over and
    after each, with each window edge and its neighbouring doubles."""
    windows = [PulseEnvelope(SINE_SQUARED, 2 * math.pi * 1e8, 3e-8, 1e-7),
               PulseEnvelope(SINE_SQUARED, 1.0, 0.0, 1.0),
               PulseEnvelope(SQUARE, 5.0, 1.1e-7, 4e-8)]
    times = [w.start + w.duration * k / 37 for w in windows
             for k in range(-4, 42)]
    times += [math.nextafter(edge, toward) for w in windows
              for edge in (w.start, w.end)
              for toward in (-math.inf, edge, math.inf)]
    return windows, times


def _step_probes():
    """Binder arguments, a 2-step envelope table and its times for two fixed
    operators in ``propagate._rk4``'s layout, made of plain Python numbers,
    so the probe pages in no numpy code that a run would not.  Both have
    runs of 11, 11, 5, 5, 3 and 3 states (vector bodies and remainders), a
    diagonal real (imaginary parts -0.0) on 19 states, a state component of
    -0.0, 2 families, one real (imaginary parts +0.0 and -0.0), each
    coupling some runs to others and some to themselves, and steps long
    enough that a one-ulp change in a stage reaches the state; the first
    has rates of both signs, antisymmetric over each family's coupled runs
    with a coupled pair at rate 0, and zeros on the runs coupled to
    themselves, and its first step starts at time 0.0."""
    n, steps = 38, 2
    grid = [divmod(k, 19) for k in range(n)]
    starts = np.array([0, 11, 22, 27, 32, 35, n])
    partner = np.array([[1, 0, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]])
    states = np.array([complex(math.cos(k + 7 * b), math.sin(3 * k - b))
                       for b, k in grid])
    states[5] = complex(-0.0, 0.25)
    diag = np.array([complex(k - 9 + 0.5 * b, -0.05 * b * k)
                     for b, k in grid])
    pattern = np.array([
        [complex(1.5 - k / 7, math.copysign(0.0, k % 3 - 1))
         for _, k in grid],
        [complex(math.sin(k + b), math.cos(2 * k)) for b, k in grid]])
    # family 0 couples runs 0-1 and 2-3, family 1 runs 4-5 (rate 0 on
    # their middle pair)
    rho = [0.7 * (k - 4.5) for k in range(11)]
    rate = np.array([rho + [-x for x in rho] + rho[:5] + [-x for x in rho[:5]]
                     + [0.0] * 6,
                     [0.0] * 32 + [1.3, 0.0, -2.1, -1.3, -0.0, 2.1]])
    dt = 0.25
    coef = np.array([-0.5j * dt, -1j * dt, -1j * dt / 6.0, 2.0])
    table = np.array([[0.5 + 0.1 * j + f for j in range(3 * steps)]
                      for f in range(2)])
    times = np.array([[dt * (j + s / 2) for j in range(steps)]
                      for s in range(3)])
    for rates in (rate, None):
        yield (states, diag, starts, partner, pattern, rates, coef, table,
               times)


def _fringe_probes():
    """Plane waves (amp, kz, kx) and grid coordinates z and x, on a 9 x 7
    grid and on a 1-D grid of 10 samples (z = 0 on its row 5, x = 0 on its
    one column), with an arm at the origin and one with kx = 0, so that
    phases of exactly +0 and -0 occur, amplitudes with signed-zero parts,
    and products that round differently with and without a fused
    multiply-add: the kernel's separable field against numpy's."""
    from .fringes import GridSpec
    arms = [(complex(0.6, -0.0), 0.0, -0.0),
            (complex(1.0 / 3.0, -2.0 / 7.0), 7.1e8, -3.3e8),
            (complex(-0.0, 0.45), -2.9e8, 0.0),
            (complex(0.25, 1.0 / 9.0), 4.7e8, 4.7e8)]
    for shape in ((9, 7), (10,)):
        grid = GridSpec(pitch=1e-9, shape=shape)
        yield arms, grid.coordinates(0), grid.coordinates(1)


def _open(flags: tuple):
    """The build with ``flags`` as a ``Kernel``, or None unless its probe
    envelopes equal ``PulseEnvelope.value``, its probe steps
    ``propagate._numpy_loop``'s, and its probe fringe fields the plain
    sums of ``fringes._numpy_fields``, bit for bit."""
    path = _library(flags)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        steps, envelopes, fringes = \
            lib.rk4_steps, lib.rk4_envelopes, lib.rk4_fringes
    except (OSError, AttributeError):
        return None
    steps.argtypes = (ctypes.c_int64,) * 3 + (ctypes.c_void_p,) * 7 + \
        (ctypes.c_int64,) * 3
    steps.restype = None
    envelopes.argtypes = (ctypes.c_int64,) + (ctypes.c_void_p,) * 2 + \
        (ctypes.c_int64, ctypes.c_void_p)
    envelopes.restype = None
    fringes.argtypes = (ctypes.c_int64,) + (ctypes.c_void_p,) * 4 + \
        (ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64) + \
        (ctypes.c_void_p,) * 2
    fringes.restype = None
    kernel = Kernel(steps, envelopes, fringes)
    windows, times = _envelope_probe()
    if kernel.envelope_table(windows, times).tobytes() != \
            np.array([w.value(times) for w in windows]).tobytes():
        return None
    from .propagate import _numpy_loop
    for states, *layout, table, times in _step_probes():
        runs = []
        for loop in (kernel, _numpy_loop):
            work, m = states.copy(), len(times[0])
            loop(work, *layout)(table, times, m, 0, m)
            runs.append(work.tobytes())
        if runs[0] != runs[1]:
            return None
    from .fringes import _numpy_fields
    for waves, z, x in _fringe_probes():
        runs = [fields(waves, z, x, len(z))(0, len(z)).tobytes()
                for fields in (kernel.fringe_fields, _numpy_fields)]
        if runs[0] != runs[1]:
            return None
    return kernel


class Kernel:
    """One probed build: calling it binds its ``rk4_steps`` on an operator
    layout (``bind``), ``envelope_table`` runs its ``rk4_envelopes``, and
    ``fringe_fields`` binds its ``rk4_fringes`` on a grid."""

    def __init__(self, rk4_steps, rk4_envelopes, rk4_fringes):
        self._steps, self._envelopes, self._fringes = \
            rk4_steps, rk4_envelopes, rk4_fringes

    def __call__(self, *layout):
        return bind(self._steps, *layout)

    def envelope_table(self, envelopes, times) -> np.ndarray:
        """The ``PulseEnvelope``s ``envelopes`` at the 1-D ``times``,
        (F, len(times)), each row what that envelope's ``value`` gives, in
        one call for all of them."""
        times = np.ascontiguousarray(times, dtype=np.float64)
        windows = np.array([(e.shape == SINE_SQUARED, e.peak_rabi, e.start,
                             e.end, e.duration) for e in envelopes],
                           dtype=np.float64).reshape(-1, 5)
        out = np.empty((len(windows), len(times)))
        self._envelopes(len(windows), windows.ctypes.data, times.ctypes.data,
                        len(times), out.ctypes.data)
        return out

    def fringe_fields(self, waves, z, x, block: int):
        """``fringes._numpy_fields`` in C: ``fields(r0, r1)`` gives the
        field of the plane waves ``waves`` (amp, kz, kx) on the grid rows
        r0 ... r1 - 1 of the coordinates ``z`` (n_z,) and ``x`` (n_x,),
        (r1 - r0, n_x), at most ``block`` rows, as a view of a buffer made
        once, which the next call overwrites.  The column waves are made
        here, once; every phase must be finite.  Every check is made
        before a pointer reaches C, and ``fields`` holds every array it
        passes."""
        amp = np.array([a for a, _, _ in waves], dtype=np.complex128)
        kz = np.array([k for _, k, _ in waves], dtype=np.float64)
        kx = np.array([k for _, _, k in waves], dtype=np.float64)
        z, x = (np.ascontiguousarray(c, dtype=np.float64) for c in (z, x))
        n_z, n_x = len(z), len(x)
        if amp.ndim != 1 or z.ndim != 1 or x.ndim != 1 or n_x < 1 or \
                block < 1:
            raise ValueError("waves, coordinates or block outside the grid")
        field = np.empty((block, n_x), dtype=np.complex128)
        columns = np.empty((len(amp), 2, n_x))
        fixed = (len(amp), amp.ctypes.data, kz.ctypes.data, kx.ctypes.data)
        rows = z.ctypes.data                # row r at rows + 8 r
        self._fringes(*fixed, rows, 0, x.ctypes.data, n_x,
                      columns.ctypes.data, field.ctypes.data)

        def fields(r0, r1):
            if not 0 <= r0 < r1 <= min(n_z, r0 + block):
                raise ValueError("rows outside the grid or the block")
            self._fringes(*fixed, rows + 8 * r0, r1 - r0, None, n_x,
                          columns.ctypes.data, field.ctypes.data)
            return field[:r1 - r0]
        fields.held = (amp, kz, kx, z, x, columns, field)
        return fields


def bind(rk4_steps, states, diag, starts, partner, pattern, rate, coef):
    """``steps(table, times, m, lo, hi)``: steps lo..hi-1 of a chunk of m,
    run by ``rk4_steps`` in place on ``states``, in ``propagate._rk4``'s
    layout: states and diagonal (n,) in runs, run r from ``starts[r]`` up
    to ``starts[r + 1]``, coupled by family f to the run ``partner[f, r]``
    of the same length, and pattern and rate rows (F, n), or None for the
    rates when no family has one.  Then every rate must be exactly minus
    its partner's, each family's partner runs pairing up, as the kernel
    makes one ramp of a coupled pair the other's conjugate.  ``states``
    must be writeable C-contiguous complex128; the factors ``coef``, the
    diagonal and the pattern are copied into one float64 block with the
    kernel's scratch (split: real parts, then imaginary parts), the rest
    only if need be.  Every check is made before a pointer reaches C, and
    ``steps`` holds every array it passes; the verdict on the runs and
    partners is kept for the last distinct layouts (``_runs_verdict``),
    and the rates are checked on every call."""
    diag, pattern, coef = (np.ascontiguousarray(a, dtype=np.complex128)
                           for a in (diag, pattern, coef))
    starts, partner = (np.ascontiguousarray(a, dtype=np.int64)
                       for a in (starts, partner))
    if rate is not None:
        rate = np.ascontiguousarray(rate, dtype=np.float64)
    n, families, runs = states.size, len(pattern), len(starts) - 1
    if states.dtype != np.complex128 or not states.flags.c_contiguous or \
            not states.flags.writeable or states.ndim != 1 or \
            (diag.shape, coef.shape, pattern.shape) != \
            ((n,), (4,), (families, n)) or \
            rate is not None and rate.shape != pattern.shape:
        raise ValueError("arrays outside the (n,) operator layout")
    mate = _runs_verdict(n, families, starts.shape, starts.tobytes(),
                         partner.shape, partner.tobytes(), rate is not None)
    if rate is not None:
        flat = rate.reshape(-1)
        if (flat != -flat.take(mate)).any():
            raise ValueError("rates not antisymmetric over paired partner "
                             "runs")
    # coef, then split (real parts, then imaginary parts): diagonal,
    # pattern, and room for the states, k1, k2, two y and the ramps
    rows = 2 * families if rate is not None else families
    block = np.empty(8 + 2 * n * (rows + 6))
    block[:8] = coef.view(np.float64)
    for a, at in ((diag, 8), (pattern, 8 + 2 * n)):
        block[at:at + 2 * a.size].reshape(2, -1)[...] = \
            a.reshape(-1).view(np.float64).reshape(-1, 2).T
    held = (states, starts, partner, rate, block)
    fixed = (n, families, runs,
             *(None if a is None else a.ctypes.data for a in held))

    def steps(table, times, m, lo, hi):
        if table.dtype != np.float64 or not table.flags.c_contiguous or \
                table.shape != (families, 3 * m) or \
                times.dtype != np.float64 or \
                not times.flags.c_contiguous or times.shape != (3, m) or \
                not 0 <= lo <= hi <= m:
            raise ValueError("envelope table, times or steps outside the "
                             "chunk")
        rk4_steps(*fixed, table.ctypes.data, times.ctypes.data, m, lo, hi)
    steps.held = held
    return steps


@lru_cache(maxsize=16)
def _runs_verdict(n: int, families: int, starts_shape: tuple,
                  starts: bytes, partner_shape: tuple, partner: bytes,
                  rated: bool):
    """``bind``'s checks of the runs ``starts`` and the partner runs
    ``partner`` of ``families`` families on ``n`` states, given as shapes
    and int64 bytes, and, when ``rated``, of the partner runs' pairing up:
    raises where ``bind`` must refuse the layout.  Else, when ``rated``,
    the flat position in the (F, n) rows of each element's partner
    (read-only), against which ``bind`` checks the rates.  A verdict is
    kept for the last distinct layouts, as the parts of a lattice repeat
    theirs epoch after epoch; a refusal is not, and each layout is keyed
    by its bytes, so no check is skipped."""
    starts = np.frombuffer(starts, dtype=np.int64).reshape(starts_shape)
    partner = np.frombuffer(partner, dtype=np.int64).reshape(partner_shape)
    runs = len(starts) - 1
    # a kind of block has a run for each of its positions, so the runs are
    # few, and they are checked as Python ints
    edges, mates = starts.tolist(), partner.tolist()
    if starts.shape != (runs + 1,) or runs < 0 or edges[0] != 0 or \
            edges[-1] != n or any(a >= b for a, b in zip(edges, edges[1:])):
        raise ValueError("runs outside the states")
    lengths = [b - a for a, b in zip(edges, edges[1:])]
    if partner.shape != (families, runs) or any(
            not 0 <= p < runs or lengths[p] != lengths[r]
            for row in mates for r, p in enumerate(row)):
        raise ValueError("partner run outside the runs or of another length")
    if not rated:
        return None
    if any(row[p] != r for row in mates for r, p in enumerate(row)):
        raise ValueError("rates not antisymmetric over paired partner runs")
    # the partner of each element: its run's partner run, at its position
    mate = (np.arange(n) + n * np.arange(families)[:, None] + np.repeat(
        starts[partner] - starts[:-1], lengths, axis=-1)).reshape(-1)
    mate.flags.writeable = False
    return mate


def _choose():
    """(engine name, Kernel) of the first build whose probes pass: the
    FMA build, tried only on a CPU that numpy reports with FMA3, then the
    plain one; ("numpy", None) when none does."""
    for name, flags in (FMA, PLAIN) if _cpu_features().get("FMA3") \
            else (PLAIN,):
        kernel = _open(flags)
        if kernel is not None:
            return name, kernel
    return "numpy", None


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return {}
    return __cpu_features__


def load():
    """The probed C ``Kernel``, or None where numpy's loop,
    ``PulseEnvelope.value`` and ``fringes._numpy_fields`` run."""
    global _loaded
    if _loaded is None:
        _loaded = _choose()
    return _loaded[1]


def engine() -> str:
    """Which loops run: "c-fma", "c-plain" or "numpy"."""
    load()
    return _loaded[0]
