"""Arbitrary-pattern pipeline: arccos encoding, phase imprint, interference.

A desired grayscale pattern f in [-1, 1] is encoded as a phase mask
g = arccos(f).  Imprinting g on one internal-state component of an equally
split matter wave and interfering the two components gives an intensity
I = (1 + cos g)/2, so the recovered pattern 2I - 1 reproduces f exactly:
the whole pipeline is the identity cos(arccos(f)) plus bookkeeping.  The
defocus/collimation steps around the mask are modelled as an ideal
magnification applied to the pixel pitch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError


@dataclass
class TargetPattern:
    values: np.ndarray          # floats in [-1, 1]
    pitch: float = 1.0          # m per pixel

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise NormalizationError("target pattern must be a 2D grid")

    def validate_range(self):
        lo, hi = float(self.values.min()), float(self.values.max())
        if lo < -1.0 or hi > 1.0:
            raise NormalizationError(
                f"pattern values span [{lo:.4g}, {hi:.4g}]; normalize to "
                "[-1, 1] first")


@dataclass
class PhaseMask:
    values: np.ndarray          # radians in [0, pi]
    pitch: float = 1.0
    magnification: float = 1.0

    @property
    def output_pitch(self) -> float:
        return self.pitch / self.magnification


@dataclass
class SplitField:
    """Two-component matter wave over the mask grid."""

    psi1: np.ndarray
    psi2: np.ndarray


def from_image(u: np.ndarray, maxval: int, pitch: float = 1.0) -> TargetPattern:
    """Map image grays in [0, maxval] onto the symmetric range [-1, 1]."""
    f = 2.0 * (np.asarray(u, dtype=np.float64) / float(maxval)) - 1.0
    return TargetPattern(values=f, pitch=pitch)


def to_image(f: np.ndarray) -> np.ndarray:
    """Map [-1, 1] onto 16-bit grays in [0, 65535]."""
    u = np.clip((np.asarray(f) + 1.0) / 2.0, 0.0, 1.0)
    return np.round(u * 65535).astype(np.uint16)


def encode(pattern: TargetPattern, magnification: float = 1.0) -> PhaseMask:
    """Phase mask g = arccos(f), elementwise; range [0, pi]."""
    pattern.validate_range()
    return PhaseMask(values=np.arccos(pattern.values), pitch=pattern.pitch,
                     magnification=magnification)


def equal_split(shape) -> SplitField:
    amp = 1.0 / np.sqrt(2.0)
    return SplitField(psi1=np.full(shape, amp, dtype=np.complex128),
                      psi2=np.full(shape, amp, dtype=np.complex128))


def imprint(state: SplitField, mask: PhaseMask) -> SplitField:
    """The mask intensity acts as a linear phase on one component only."""
    if state.psi2.shape != mask.values.shape:
        raise NormalizationError("mask and field shapes differ")
    return SplitField(psi1=state.psi1.copy(),
                      psi2=state.psi2 * np.exp(1j * mask.values))


def interfere(state: SplitField):
    """Convert both components to one level and interfere.

    Intensity carries the conventional one-half of the coherent sum, so the
    equal split gives I = (1 + cos g)/2 in [0, 1].  Returns (intensity,
    contrast_map_or_None); the map is produced when the split is not equal,
    as a warning signal rather than an error.
    """
    intensity = 0.5 * np.abs(state.psi1 + state.psi2) ** 2
    p1 = np.abs(state.psi1) ** 2
    p2 = np.abs(state.psi2) ** 2
    unequal = np.max(np.abs(p1 - p2)) > 1e-12 or \
        np.max(np.abs(p1 + p2 - 1.0)) > 1e-12
    contrast_map = None
    if unequal:
        with np.errstate(divide="ignore", invalid="ignore"):
            contrast_map = np.where(p1 + p2 > 0, 2 * np.sqrt(p1 * p2) / (p1 + p2),
                                    0.0)
    return intensity, contrast_map


def recover(intensity: np.ndarray) -> np.ndarray:
    """Invert the two-wave intensity back to the encoded pattern."""
    return 2.0 * intensity - 1.0


@dataclass
class RoundTripReport:
    recovered: np.ndarray
    max_abs_error: float
    mean_abs_error: float
    rms_error: float
    output_pitch: float
    contrast_warning: bool = False


def roundtrip(pattern: TargetPattern, magnification: float = 1.0) -> RoundTripReport:
    """encode -> imprint -> interfere -> recover, with error accounting."""
    mask = encode(pattern, magnification)
    state = imprint(equal_split(mask.values.shape), mask)
    intensity, contrast_map = interfere(state)
    f_hat = recover(intensity)
    err = np.abs(f_hat - pattern.values)
    return RoundTripReport(
        recovered=f_hat,
        max_abs_error=float(err.max()),
        mean_abs_error=float(err.mean()),
        rms_error=float(np.sqrt(np.mean(err ** 2))),
        output_pitch=mask.output_pitch,
        contrast_warning=contrast_map is not None)


def gear_silhouette(size: int = 64) -> np.ndarray:
    """Binary gear test image in [-1, 1], ``size`` pixels square: 8 teeth
    out to 0.46 of the size from the centre, 0.34 between them, and a hub
    hole of 0.12; handy as a roundtrip fixture."""
    y, x = np.mgrid[0:size, 0:size]
    cx = cy = (size - 1) / 2
    dx = (x - cx) / size
    dy = (y - cy) / size
    r = np.sqrt(dx ** 2 + dy ** 2)
    theta = np.arctan2(dy, dx)
    tooth = (np.cos(8 * theta) > 0)
    radius = np.where(tooth, 0.46, 0.34)
    solid = (r <= radius) & (r >= 0.12)
    return np.where(solid, 1.0, -1.0)
