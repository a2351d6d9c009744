"""Build and load the C RK4 step loop (``_rk4.c``) on first use.

Nothing happens at import.  The first ``load()`` compiles the kernel with
the system C compiler into ``$XDG_CACHE_HOME/recoilsim`` (default
``~/.cache/recoilsim``), named by a hash of the source and the flags, and
opens it with ctypes.  Two builds exist: a plain one, and one that fuses
each real part of a complex product into one multiply-add (``-mfma``), as
numpy's FMA kernels do.  The build is the one whose complex product numpy
matches on fixed probe operands, and it is used only once its own product
of them equals numpy's bit for bit; the FMA build is never run on a CPU
that numpy reports without FMA3.  With no such build, no compiler or no
writable cache, ``load()`` returns None and the numpy loop runs.
"""

from __future__ import annotations

import ctypes
import os
from functools import partial
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_rk4.c")
COMPILE = ("cc", "-O3", "-shared", "-fPIC", "-ffp-contract=off")
PLAIN, FMA = ("c-plain", ()), ("c-fma", ("-mfma", "-DUSE_FMA"))
_loaded = None          # (engine name, bind on rk4_steps or None) once chosen


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


def _open(flags: tuple):
    """``bind`` on ``rk4_steps`` of the build with ``flags``, or None
    unless its probe product equals numpy's bit for bit."""
    path = _library(flags)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        probe, steps = lib.rk4_probe, lib.rk4_steps
    except (OSError, AttributeError):
        return None
    a, b = (np.array(x) for x in _probe_operands())
    out = np.empty_like(a)
    probe.argtypes = (ctypes.c_void_p,) * 3 + (ctypes.c_int64,)
    probe.restype = None
    probe(a.ctypes.data, b.ctypes.data, out.ctypes.data, len(a))
    if out.tobytes() != (a * b).tobytes():
        return None
    steps.argtypes = (ctypes.c_int64,) * 3 + (ctypes.c_void_p,) * 4 + \
        (ctypes.c_int64,) * 2 + (ctypes.c_void_p,) * 6 + (ctypes.c_int64,) * 3
    steps.restype = None
    return partial(bind, steps)


def bind(rk4_steps, states, diag, perm, pattern, phases, coef, scratch):
    """``steps(table, m, lo, hi)``: steps lo..hi-1 of a chunk of m, run by
    ``rk4_steps`` in place on ``states``, on the operator layout of
    ``propagate._rk4``.  ``states`` and the phase tables, refilled between
    calls, must be C-contiguous complex128; the other arrays are copied
    into that form if need be.  A pattern row shared by the members is
    read with a member stride of 0.  ``steps`` holds every array whose
    pointer it passes."""
    members, n = states.shape
    diag, pattern, coef, scratch = (np.ascontiguousarray(
        a, dtype=np.complex128) for a in (diag, pattern, coef, scratch))
    perm = np.ascontiguousarray(perm, dtype=np.int64)
    families, rows = len(perm), pattern.shape[1]
    tables = [p for p in phases if p is not None]
    chunk = len(tables[0]) if tables else np.inf
    if len(tables) not in (0, 3) or not all(
            a.dtype == np.complex128 and a.flags.c_contiguous
            for a in (states, *tables)) or \
            (diag.shape, scratch.shape, coef.shape) != \
            (states.shape, (4,) + states.shape, (4,)) or \
            any(p.shape != (chunk,) + pattern.shape for p in tables) or \
            pattern.shape != (families, rows, n) or rows not in (1, members):
        raise ValueError("arrays outside the (B, n) operator layout")
    if perm.shape != (families, n) or \
            perm.size and not 0 <= perm.min() <= perm.max() < n:
        raise ValueError("partner index outside the states")
    held = (states, diag, perm, pattern, *tables, coef, scratch)
    fixed = (members, n, families, states.ctypes.data, diag.ctypes.data,
             perm.ctypes.data, pattern.ctypes.data, rows * n,
             n if rows > 1 else 0,
             *([p.ctypes.data for p in tables] or [None] * 3),
             coef.ctypes.data, scratch.ctypes.data)

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
    """``bind`` on the C ``rk4_steps``, or None where numpy's loop runs."""
    global _loaded
    if _loaded is None:
        _loaded = _choose()
    return _loaded[1]


def engine() -> str:
    """Which RK4 loop runs: "c-fma", "c-plain" or "numpy"."""
    load()
    return _loaded[0]
