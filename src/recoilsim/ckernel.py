"""Build and load the C RK4 step loop, envelope tabulation and fringe
field (``_rk4.c``) on first use.

Nothing happens at import.  The first ``load()`` compiles the kernel with
the system C compiler into ``$XDG_CACHE_HOME/recoilsim`` (default
``~/.cache/recoilsim``), named by a hash of the source and the flags, and
opens it with ctypes.  Two builds exist: a plain one, and one that fuses
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
grid, each with an arm at the origin, made by the kernel's mirror rule,
must also equal ``fringes._numpy_fields``' plain per-arm sum bit for bit.
With no such build, no compiler or no writable cache, ``load()`` returns
None, and the numpy loop, ``PulseEnvelope.value`` and
``fringes._numpy_fields`` run.
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
PLAIN, FMA = ("c-plain", ()), ("c-fma", ("-mfma", "-DUSE_FMA"))
_loaded = None          # (engine name, Kernel or None) once chosen


def _library(flags: tuple) -> Path | None:
    """The compiled kernel, built unless the cache holds it; None when it
    cannot be built or cached."""
    import hashlib
    command = COMPILE + flags
    try:
        source = SOURCE.read_bytes()
        key = hashlib.sha256(source + " ".join(command).encode()).hexdigest()
        cache = Path(os.environ.get("XDG_CACHE_HOME")
                     or Path.home() / ".cache") / "recoilsim"
        path = cache / f"rk4-{key[:16]}.so"
        if path.is_file():
            return path
        import subprocess
        import tempfile
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
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
    one column), with an arm at the origin and one with kz = kx, so that
    phases of exactly +0 and -0 occur in rows and mirror rows, amplitudes
    with signed-zero parts, and products that round differently with and
    without a fused multiply-add: the kernel's mirror rule, which takes
    the conjugate even at a zero phase, against the plain sum."""
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
        (ctypes.c_int64, ctypes.c_void_p) + (ctypes.c_int64,) * 5 + \
        (ctypes.c_void_p,) * 3
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
        half = len(z) // 2 + 1
        whole = (0, half, 1, len(z) - half + 1)     # rows and mirror rows
        runs = [[a.tobytes() for a in fields(waves, z, x, half)(*whole)]
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
        """``fringes._numpy_fields`` in C: ``fields(r0, r1, i0, i1)`` gives
        the field of the plane waves ``waves`` (amp, kz, kx) on grid rows
        r0 ... r1 - 1 and on the mirror rows n_z - i of rows i0 <= i < i1,
        (r1 - r0, n_x) and (i1 - i0, n_x), at most ``block`` rows each, as
        views of buffers made once, each mirror row from its row's waves
        by the mirror rule ``fringes.synthesize`` states.  The grid
        coordinates ``z`` (n_z,) and ``x`` (n_x,) must put each mirror row
        and column at exactly minus its mirror's, and every phase must be
        finite.  Every check is made before a pointer reaches C, and
        ``fields`` holds every array it passes."""
        amp = np.array([a for a, _, _ in waves], dtype=np.complex128)
        kz = np.array([k for _, k, _ in waves], dtype=np.float64)
        kx = np.array([k for _, _, k in waves], dtype=np.float64)
        z, x = (np.ascontiguousarray(c, dtype=np.float64) for c in (z, x))
        n_z, n_x = len(z), len(x)
        if amp.ndim != 1 or z.ndim != 1 or x.ndim != 1 or n_x < 1 or \
                block < 1:
            raise ValueError("waves, coordinates or block outside the grid")
        field, mirror, row = (np.empty(shape, dtype=np.complex128)
                              for shape in ((block, n_x), (block, n_x), n_x))
        fixed = (len(amp), amp.ctypes.data, kz.ctypes.data, kx.ctypes.data,
                 z.ctypes.data, n_z, x.ctypes.data, n_x)

        def fields(r0, r1, i0, i1):
            if not (0 <= r0 < r1 <= n_z and r1 - r0 <= block and
                    r0 <= i0 <= i1 <= r1 and i0 >= 1):
                raise ValueError("rows outside the grid or the block")
            self._fringes(*fixed, r0, r1, i0, i1, field.ctypes.data,
                          mirror.ctypes.data, row.ctypes.data)
            return field[:r1 - r0], mirror[:i1 - i0]
        fields.held = (amp, kz, kx, z, x, field, mirror, row)
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
