"""Build and load the C RK4 step loop and envelope tabulation (``_rk4.c``)
on first use.

Nothing happens at import.  The first ``load()`` compiles the kernel with
the system C compiler into ``$XDG_CACHE_HOME/recoilsim`` (default
``~/.cache/recoilsim``), named by a hash of the source and the flags, and
opens it with ctypes.  Two builds exist: a plain one, and one that fuses
each real part of a complex product into one multiply-add (``-mfma``), as
numpy's FMA kernels do.  The build is the one whose complex product numpy
matches on fixed probe operands, and it is used only once its own product
of them equals numpy's bit for bit, its envelope table of fixed probe
windows and times equals ``PulseEnvelope.value`` bit for bit, and its
steps on two fixed probe operators equal ``propagate._numpy_loop``'s bit
for bit; the FMA build is never run on a CPU that numpy reports without
FMA3.  With no such build, no compiler or no writable cache, ``load()``
returns None, and the numpy loop and ``PulseEnvelope.value`` run.
"""

from __future__ import annotations

import cmath
import ctypes
import math
import os
from pathlib import Path

import numpy as np

from .pulses import SINE_SQUARED, SQUARE, PulseEnvelope

SOURCE = Path(__file__).with_name("_rk4.c")
COMPILE = ("cc", "-O3", "-shared", "-fPIC", "-ffp-contract=off")
PLAIN, FMA = ("c-plain", ()), ("c-fma", ("-mfma", "-DUSE_FMA"))
_loaded = None          # (engine name, Kernel or None) once chosen


def _probe_operands():
    """Fixed complex pairs, most of whose products round differently with
    and without a fused multiply-add; plain Python numbers, so the probe
    pages in no numpy code that a run would not."""
    return ([complex(k / 7.0 + 1.0 / 3.0, k / 11.0 - 2.0 / 9.0)
             for k in range(1, 65)],
            [complex(1.0 / k - 0.3, k / 13.0 + 1.0 / 17.0)
             for k in range(1, 65)])


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
    """Binder arguments and a 2-step envelope table for two fixed operators
    in ``propagate._rk4``'s layout, made of plain Python numbers, so the
    probe pages in no numpy code that a run would not.  Both have runs of
    11, 11, 5, 5, 3 and 3 states (vector bodies and remainders), a diagonal
    real (imaginary parts -0.0) on 19 states, a state component of -0.0,
    2 families, one real (imaginary parts +0.0 and -0.0), each coupling
    some runs to others and some to themselves, and steps long enough that
    a one-ulp change in a stage reaches the state; the first has a phase
    ramp on the complex family."""
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
    ramp = [cmath.exp(0.3j * (k - 9 + b)) for b, k in grid]
    phases = [np.array([[[1.0] * n, ramp]] * steps)] * 3
    dt = 0.25
    coef = np.array([-0.5j * dt, -1j * dt, -1j * dt / 6.0, 2.0])
    scratch = np.empty((4, n), dtype=np.complex128)
    table = np.array([[0.5 + 0.1 * j + f for j in range(3 * steps)]
                      for f in range(2)])
    for tables in (phases, [None] * 3):
        yield (states, diag, starts, partner, pattern, tables, coef, scratch,
               table)


def _open(flags: tuple):
    """The build with ``flags`` as a ``Kernel``, or None unless its probe
    product equals numpy's, its probe envelopes ``PulseEnvelope.value``,
    and its probe steps ``propagate._numpy_loop``'s, bit for bit."""
    path = _library(flags)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        probe, steps, envelopes = \
            lib.rk4_probe, lib.rk4_steps, lib.rk4_envelopes
    except (OSError, AttributeError):
        return None
    a, b = (np.array(x) for x in _probe_operands())
    out = np.empty_like(a)
    probe.argtypes = (ctypes.c_void_p,) * 3 + (ctypes.c_int64,)
    probe.restype = None
    probe(a.ctypes.data, b.ctypes.data, out.ctypes.data, len(a))
    if out.tobytes() != (a * b).tobytes():
        return None
    steps.argtypes = (ctypes.c_int64,) * 3 + (ctypes.c_void_p,) * 12 + \
        (ctypes.c_int64,) * 3
    steps.restype = None
    envelopes.argtypes = (ctypes.c_int64,) + (ctypes.c_void_p,) * 2 + \
        (ctypes.c_int64, ctypes.c_void_p)
    envelopes.restype = None
    kernel = Kernel(steps, envelopes)
    windows, times = _envelope_probe()
    if kernel.envelope_table(windows, times).tobytes() != \
            np.array([w.value(times) for w in windows]).tobytes():
        return None
    from .propagate import _numpy_loop
    for states, *layout, table in _step_probes():
        runs = []
        for loop in (kernel, _numpy_loop):
            work, m = states.copy(), len(table[0]) // 3
            loop(work, *layout)(table, m, 0, m)
            runs.append(work.tobytes())
        if runs[0] != runs[1]:
            return None
    return kernel


class Kernel:
    """One probed build: calling it binds its ``rk4_steps`` on an operator
    layout (``bind``), and ``envelope_table`` runs its ``rk4_envelopes``."""

    def __init__(self, rk4_steps, rk4_envelopes):
        self._steps, self._envelopes = rk4_steps, rk4_envelopes

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


def bind(rk4_steps, states, diag, starts, partner, pattern, phases, coef,
         scratch):
    """``steps(table, m, lo, hi)``: steps lo..hi-1 of a chunk of m, run by
    ``rk4_steps`` in place on ``states``, in ``propagate._rk4``'s layout:
    states and diagonal (n,) in runs, run r from ``starts[r]`` up to
    ``starts[r + 1]``, coupled by family f to the run ``partner[f, r]`` of
    the same length, and pattern and phase rows (F, n).  ``states`` and
    the phase tables must be C-contiguous complex128; the diagonal and
    pattern are copied into split float64 arrays (real parts, then
    imaginary parts), the rest only if need be.  Every check is made before
    a pointer reaches C, and ``steps`` holds every array it passes."""
    diag, pattern, coef, scratch = (np.ascontiguousarray(
        a, dtype=np.complex128) for a in (diag, pattern, coef, scratch))
    starts, partner = (np.ascontiguousarray(a, dtype=np.int64)
                       for a in (starts, partner))
    families, runs = len(pattern), len(starts) - 1
    tables = [p for p in phases if p is not None]
    chunk = len(tables[0]) if tables else np.inf
    if len(tables) not in (0, 3) or not all(
            a.dtype == np.complex128 and a.flags.c_contiguous
            for a in (states, *tables)) or states.ndim != 1 or \
            (diag.shape, scratch.shape, coef.shape, pattern.shape) != \
            (states.shape, (4,) + states.shape, (4,),
             (families,) + states.shape) or \
            any(p.shape != (chunk,) + pattern.shape for p in tables):
        raise ValueError("arrays outside the (n,) operator layout")
    lengths = starts[1:] - starts[:-1]
    if starts.shape != (runs + 1,) or runs < 0 or starts[0] != 0 or \
            starts[-1] != states.size or (lengths <= 0).any():
        raise ValueError("runs outside the states")
    if partner.shape != (families, runs) or partner.size and not (
            0 <= partner.min() <= partner.max() < runs and
            (lengths[partner] == lengths).all()):
        raise ValueError("partner run outside the runs or of another length")
    # (2, count) float64: the real parts, then the imaginary parts
    diag, pattern = (a.view(np.float64).reshape(-1, 2).T.copy()
                     for a in (diag, pattern))
    split = np.empty(2 * states.size)       # the states
    held = (states, diag, starts, partner, pattern, *tables, coef, scratch,
            split)
    fixed = (states.size, families, runs, *(a.ctypes.data for a in held[:5]),
             *([p.ctypes.data for p in tables] or [None] * 3),
             *(a.ctypes.data for a in held[-3:]))

    def steps(table, m, lo, hi):
        if table.dtype != np.float64 or not table.flags.c_contiguous or \
                table.shape != (families, 3 * m) or \
                not 0 <= lo <= hi <= m <= chunk:
            raise ValueError("envelope table or steps outside the chunk")
        rk4_steps(*fixed, table.ctypes.data, m, lo, hi)
    steps.held = held
    return steps


def _numpy_product_is_plain() -> bool:
    """Whether numpy rounds both terms of each part of a complex product,
    as Python's float operations, one rounding each, do."""
    a, b = _probe_operands()
    return (np.array(a) * np.array(b)).tolist() == [
        complex(x.real * y.real - x.imag * y.imag,
                x.real * y.imag + x.imag * y.real) for x, y in zip(a, b)]


def _choose():
    if _numpy_product_is_plain():
        name, flags = PLAIN
    elif _cpu_features().get("FMA3"):
        name, flags = FMA
    else:
        return "numpy", None
    steps = _open(flags)
    return (name, steps) if steps is not None else ("numpy", None)


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return {}
    return __cpu_features__


def load():
    """The probed C ``Kernel``, or None where numpy's loop and
    ``PulseEnvelope.value`` run."""
    global _loaded
    if _loaded is None:
        _loaded = _choose()
    return _loaded[1]


def engine() -> str:
    """Which RK4 loop runs: "c-fma", "c-plain" or "numpy"."""
    load()
    return _loaded[0]
