"""Matter-wave fringe synthesis and analysis.

Recombined arms are superposed plane waves: intensity is the squared
modulus of the sum over arms of amp * exp(i k (n_z z + n_x x) + i phi),
with k the lattice wavenumber.  Two arms separated by dn recoils therefore
produce a fringe period of exactly lambda/dn -- sub-wavelength for dn > 1.
Spacing is recovered independently by discrete Fourier analysis, so the
synthesis path and the measurement path can check each other.

Each arm's wave factors into a row wave amp * exp(i k n_z z) and a column
wave exp(i k n_x x), so a grid of n_z x n_x samples takes one complex exp
per arm and grid line, and one complex multiply-add per arm and sample.
The field runs in the C kernel (``ckernel.Kernel.fringe_fields``) where
``ckernel.load`` gives one, and in numpy (``_numpy_fields``, its fallback
and oracle) otherwise; the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NoFringeError, PhysicsError
from .params import AtomParams

MIN_PERIODS = 10          # grid must span at least this many fringes
MIN_SAMPLES_PER_PERIOD = 16
PEAK_OVER_BACKGROUND = 5.0
MAX_GRID_SAMPLES = 2 ** 24  # 4096 x 4096
SYNTHESIS_BLOCK = 2 ** 14   # grid samples synthesized at once


@dataclass(frozen=True)
class GridSpec:
    """(n_z, n_x) samples ``pitch`` m apart, centred on the origin.  A 1-D
    grid, ``shape`` (n_z,), is the same grid with one column, at x = 0."""

    pitch: float = 0.25e-9          # m per sample
    shape: tuple[int, ...] = (4096,)

    def __post_init__(self):
        if self.dims not in (1, 2):
            raise ConfigurationError("grids are 1D or 2D")
        if not 0 < self.pitch < math.inf or any(n < 2 for n in self.shape):
            raise ConfigurationError(
                "grid pitch must be positive and finite, and sizes at least 2")
        if math.prod(self.shape) > MAX_GRID_SAMPLES:
            raise ConfigurationError(
                f"a grid of {' x '.join(map(str, self.shape))} samples is "
                f"over the limit of {MAX_GRID_SAMPLES}")

    @property
    def dims(self) -> int:
        return len(self.shape)

    @property
    def axes(self) -> tuple[str, ...]:
        return ("z", "x")[:self.dims]

    def coordinates(self, axis: int) -> np.ndarray:
        """Positions (m) on axis 0 (z) or 1 (x): [0.0] on x of a 1-D grid."""
        if axis >= self.dims:
            return np.zeros(1)
        n = self.shape[axis]
        return (np.arange(n) - n / 2) * self.pitch

    @classmethod
    def default_2d(cls) -> "GridSpec":
        return cls(pitch=0.25e-9, shape=(1024, 1024))


@dataclass(frozen=True)
class CoherenceEnvelope:
    """Gaussian coherence window of the source; limits the fringe field."""

    length: float = 300e-6  # m

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ConfigurationError(
                "coherence length must be positive and finite")

    def intensity_factor(self, r2: np.ndarray) -> np.ndarray:
        return np.exp(-r2 / (2.0 * self.length ** 2))


@dataclass
class FringePattern:
    """Intensity ``samples`` on ``grid``, in the grid's shape: (n_z,) for
    a 1-D grid, which is one column at x = 0."""

    grid: GridSpec
    samples: np.ndarray


@dataclass
class SpacingEstimate:
    period: float
    bin_uncertainty: float


def _arm_tuple(arm):
    """Accept ArmTrack-like objects or (amplitude, n_z, n_x[, phase])."""
    if hasattr(arm, "amplitude"):
        return (arm.amplitude * np.exp(1j * arm.kinetic_phase),
                arm.n_z, arm.n_x, getattr(arm, "level", None))
    if len(arm) == 3:
        amp, nz, nx = arm
        return (amp, nz, nx, None)
    amp, nz, nx, phase = arm
    return (amp * np.exp(1j * phase), nz, nx, None)


def synthesize(arms, grid: GridSpec, atom: AtomParams,
               envelope: CoherenceEnvelope | None = None) -> FringePattern:
    """Superpose the arms' plane waves on a spatial grid.

    The sum runs on (n_z, n_x), a 1-D grid being its one column at x = 0,
    and the samples take the grid's shape.  All arms must share one
    internal level: components in different levels are distinguishable
    and cannot interfere.  The result is normalized to unit peak, so
    amplitudes whose intensity could overflow, and rungs whose
    wavenumber k n or whose phase k n z on the grid is not finite, are
    rejected.

    Each sample adds, in arm order to a zero, the arms' products of a
    row wave amp * exp(1j * (kz z)) and a column wave exp(1j * (kx x)),
    kz = k n_z and kx = k n_x, by the C kernel where it loads, and by
    ``_numpy_fields`` otherwise; the two agree bit for bit.  On a 1-D
    grid every column wave, at x = 0, is 1 + 0j or 1 - 0j, so the product
    is the row wave exactly: the samples are those of one phase
    kz z + kx x per sample.  On a 2-D grid they differ from those in the
    last bits, and lie nearer the exact intensity, as no sum kz z + kx x
    is rounded.  The modulus, its square and the envelope stay in numpy.
    """
    entries = [_arm_tuple(a) for a in arms]
    if not entries:
        raise ConfigurationError("need at least one arm")
    levels = {lv for *_, lv in entries if lv is not None}
    if len(levels) > 1:
        raise PhysicsError(
            "arms in different internal levels cannot interfere; transfer "
            f"them to one level first (got {sorted(lv.name for lv in levels)})")

    # the intensity never exceeds the squared sum of the amplitudes
    total = float(sum(abs(amp) for amp, *_ in entries))
    if not math.isfinite(total * total):
        raise ConfigurationError(
            f"arm amplitudes summing to {total:.3g} overflow the intensity")
    k = atom.wavenumber()
    waves = [(amp, _wavenumber(k, nz, "n_z"), _wavenumber(k, nx, "n_x"))
             for amp, nz, nx, _ in entries]
    validate_grid(arm_spread([(nz, nx) for _, nz, nx, _ in entries]), grid, k)

    z, x = grid.coordinates(0), grid.coordinates(1)
    n_z = z.size
    intensity = np.empty((n_z, x.size))
    # about SYNTHESIS_BLOCK samples at a time: each element is what the
    # whole-grid expressions give, with no full-grid temporaries
    block = max(1, SYNTHESIS_BLOCK // x.size)
    # z[0] and x[0] have the largest |z| and |x|, and rounding is
    # monotone, so every phase kz z + kx x is finite when each arm's
    # |kz z[0]| + |kx x[0]| is; as Python floats, which overflow to inf
    # without a warning
    reach = max(abs(float(kz) * float(z[0])) + abs(float(kx) * float(x[0]))
                for _, kz, kx in waves)
    if not math.isfinite(reach):
        raise ConfigurationError(
            "the arms' phases k (n_z z + n_x x) overflow on this grid; "
            "use smaller rungs or a smaller grid")
    from . import ckernel     # not at import: the loader is run-time only
    kernel = ckernel.load()
    fields = (_numpy_fields if kernel is None else kernel.fringe_fields)(
        waves, z, x, block)
    for r0 in range(0, n_z, block):
        r1 = min(r0 + block, n_z)
        out = intensity[r0:r1]
        np.abs(fields(r0, r1), out=out)
        np.square(out, out=out)
        if envelope is not None:
            out *= envelope.intensity_factor(z[r0:r1, None] ** 2 + x ** 2)
    peak = intensity.max()
    if peak > 0:
        intensity /= peak
    return FringePattern(grid=grid, samples=intensity.reshape(grid.shape))


def _numpy_fields(waves, z, x, block: int):
    """``fields(r0, r1)``: the field of the plane waves ``waves``
    (amp, kz, kx) on the grid rows r0 ... r1 - 1 of the coordinates ``z``
    (n_z,) and ``x`` (n_x,), (r1 - r0, n_x), at most ``block`` rows, as a
    view of a buffer made once, which the next call overwrites.  Each
    arm's wave factors into a row wave amp * exp(1j * (kz z)) and a column
    wave exp(1j * (kx x)), each made once, and every sample adds the
    arms' products of the two in arm order to a zero;
    ``Kernel.fringe_fields`` is the same in C."""
    rows = [amp * np.exp(1j * (kz * z)) for amp, kz, _ in waves]
    columns = [np.exp(1j * (kx * x)) for _, _, kx in waves]
    buffer = np.empty((block, x.size), dtype=np.complex128)

    def fields(r0, r1):
        field = buffer[:r1 - r0]
        field[...] = 0.0
        for u, w in zip(rows, columns):
            field += u[r0:r1, None] * w
        return field
    return fields


def _wavenumber(k: float, n, key: str) -> float:
    """k n for a rung n, rejected unless finite: a NaN rung would slip
    past the grid check and make every sample NaN."""
    try:
        kn = k * n
    except OverflowError:       # an int too large for a float
        kn = math.inf
    if not math.isfinite(kn):
        raise ConfigurationError(
            f"arm rung {key} and its wavenumber k * {key} must be finite")
    return kn


def arm_spread(rungs) -> tuple[float, float]:
    """The separation, in recoils, of the farthest-apart arms on
    ``rungs`` (n_z, n_x), along z and along x, in floats: near the float
    limit it is infinite, which ``validate_grid`` rejects."""
    return tuple(float(max(ns)) - float(min(ns)) for ns in zip(*rungs))


def validate_grid(separations, grid: GridSpec, k: float) -> None:
    """Reject a grid too short or too coarse for the fringes of arms
    ``separations`` = (dn_z, dn_x) recoils apart at wavenumber ``k``: each
    grid axis must span MIN_PERIODS fringe periods with
    MIN_SAMPLES_PER_PERIOD samples each.  A zero separation makes no
    fringe to check."""
    for key, dn, n in zip(("n_z", "n_x"), separations, grid.shape):
        if dn == 0:
            continue
        finest = 2 * math.pi / (k * dn)
        span = n * grid.pitch
        if span < MIN_PERIODS * finest:
            raise ConfigurationError(
                f"grid spans {span / finest:.1f} periods on {key}; "
                f"needs >= {MIN_PERIODS}")
        if finest < MIN_SAMPLES_PER_PERIOD * grid.pitch:
            raise ConfigurationError(
                f"only {finest / grid.pitch:.1f} samples per period on {key}; "
                f"needs >= {MIN_SAMPLES_PER_PERIOD}")


def extract_spacing(pattern: FringePattern, axis: str = "z") -> SpacingEstimate:
    """Dominant fringe period along one axis via the discrete spectrum.

    The uncertainty is one frequency bin, converted to a period difference.
    """
    axes = pattern.grid.axes
    if axis not in axes:
        raise ConfigurationError(f"pattern has no axis {axis!r}")
    others = tuple(j for j, name in enumerate(axes) if name != axis)
    data = pattern.samples.mean(axis=others)
    data = data - data.mean()
    n = data.shape[0]
    spectrum = np.abs(np.fft.rfft(data))
    spectrum[0] = 0.0
    peak_idx = int(np.argmax(spectrum))
    peak = spectrum[peak_idx]
    rest = np.delete(spectrum, [0, peak_idx])
    background = float(np.mean(rest)) if rest.size else 0.0
    if peak <= 0 or (background > 0 and peak < PEAK_OVER_BACKGROUND * background) \
            or peak < 1e-9 * n:
        raise NoFringeError(
            f"no spectral peak above {PEAK_OVER_BACKGROUND}x background on "
            f"axis {axis!r}")
    span = n * pattern.grid.pitch
    freq = peak_idx / span
    period = 1.0 / freq
    uncertainty = period ** 2 / span  # one bin, |d(1/f)| = f^-2 * df
    return SpacingEstimate(period=period, bin_uncertainty=uncertainty)


def contrast(pattern: FringePattern,
             envelope: CoherenceEnvelope | None = None) -> float:
    """(max - min) / (max + min) over the central coherence region.

    The region is read as a view: the coordinates increase along each
    axis, so the samples with |coordinate| <= length / 2 are one run."""
    data = pattern.samples
    if envelope is not None:
        half = envelope.length / 2
        central = [np.flatnonzero(np.abs(pattern.grid.coordinates(i)) <= half)
                   for i in range(pattern.grid.dims)]
        if all(run.size for run in central):
            data = data[tuple(slice(run[0], run[-1] + 1) for run in central)]
    hi = float(data.max())
    lo = float(data.min())
    if hi + lo == 0:
        return 0.0
    return (hi - lo) / (hi + lo)


@dataclass
class RamseyScan:
    deltas: np.ndarray            # rad/s
    populations: np.ndarray       # P_c per delta
    population_at_zero: float     # P_c at exactly zero detuning
    fringe_period_hz: float       # measured from minima spacing
    central_width_hz: float       # half the span between minima around zero
    width_scale_hz: float         # 1/(2 pi tau_measured)

    def rows(self):
        return [{"delta_hz": d / (2 * math.pi), "population_c": p}
                for d, p in zip(self.deltas, self.populations)]


def ramsey_scan(result, periods: float = 3.2,
                points_per_period: int = 100) -> RamseyScan:
    """Scan the closing pulse's two-photon detuning and read P_c.

    ``result`` must expose ``tau`` (s) and ``pc_of(deltas_rad_s)``, which
    takes an array and returns one population per entry.  The grid must
    span at least 3 fringe periods with at least 20 points each.  The whole
    grid plus one member at exactly zero detuning (the odd grid's midpoint
    is only zero up to rounding) is evaluated in one call.
    """
    if periods < 3:
        raise ConfigurationError("scan must span at least 3 fringe periods")
    if points_per_period < 20:
        raise ConfigurationError("scan needs at least 20 points per period")
    tau = result.tau
    period_rad = 2 * math.pi / tau
    half_span = periods / 2 * period_rad
    n = int(round(periods * points_per_period)) | 1  # odd: include delta=0
    deltas = np.linspace(-half_span, half_span, n)
    pops = result.pc_of(np.append(deltas, 0.0))
    pops, at_zero = pops[:-1], float(pops[-1])

    minima = _local_minima(deltas, pops)
    if len(minima) < 2:
        raise NoFringeError("fewer than two fringe minima in the scan window")
    spacings = np.diff(minima)
    period_meas = float(np.mean(spacings))
    below = [m for m in minima if m < -0.25 * period_meas]
    above = [m for m in minima if m > +0.25 * period_meas]
    if below and above:
        central_width = (above[0] - below[-1]) / 2
    else:
        central_width = period_meas
    period_hz = period_meas / (2 * math.pi)
    return RamseyScan(
        deltas=deltas, populations=pops, population_at_zero=at_zero,
        fringe_period_hz=period_hz,
        central_width_hz=central_width / (2 * math.pi),
        width_scale_hz=1.0 / (2 * math.pi * (1.0 / period_hz)))


def _local_minima(x: np.ndarray, y: np.ndarray) -> list[float]:
    """Positions of local minima, refined by parabolic interpolation."""
    out = []
    for i in range(1, len(y) - 1):
        if y[i] <= y[i - 1] and y[i] <= y[i + 1] and \
                (y[i] < y[i - 1] or y[i] < y[i + 1]):
            denom = (y[i - 1] - 2 * y[i] + y[i + 1])
            if denom > 0:
                shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
            else:
                shift = 0.0
            step = x[1] - x[0]
            out.append(float(x[i] + shift * step))
    return out


def scan_minimum_near(scan: RamseyScan, center_hz: float = 0.0) -> float:
    """The fringe minimum closest to ``center_hz``, in Hz."""
    minima = _local_minima(scan.deltas, scan.populations)
    if not minima:
        raise NoFringeError("scan has no minima")
    hz = [m / (2 * math.pi) for m in minima]
    return min(hz, key=lambda v: abs(v - center_hz))
