"""Arbitrary-pattern pipeline: arccos encoding, phase imprint, interference.

A desired grayscale pattern f in [-1, 1] is encoded as a phase mask
g = arccos(f).  Imprinting g on one internal-state component of an equally
split matter wave and interfering the two components gives an intensity
I = (1 + cos g)/2, so the recovered pattern 2I - 1 reproduces f exactly:
the whole pipeline is the identity cos(arccos(f)) plus bookkeeping.  Every
step takes and returns plain arrays on the pattern's grid.  The
defocus/collimation steps around the mask are an ideal magnification,
which only divides the pixel pitch (``cli``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError


def from_image(u: np.ndarray, maxval: int) -> np.ndarray:
    """Map image grays in [0, maxval] onto the symmetric range [-1, 1]."""
    return 2.0 * (np.asarray(u, dtype=np.float64) / float(maxval)) - 1.0


def to_image(f: np.ndarray) -> np.ndarray:
    """Map [-1, 1] onto 16-bit grays in [0, 65535]."""
    u = np.clip((np.asarray(f) + 1.0) / 2.0, 0.0, 1.0)
    return np.round(u * 65535).astype(np.uint16)


def encode(pattern: np.ndarray) -> np.ndarray:
    """Phase mask g = arccos(f) of a pattern f in [-1, 1], elementwise;
    range [0, pi]."""
    lo, hi = float(pattern.min()), float(pattern.max())
    if lo < -1.0 or hi > 1.0:
        raise NormalizationError(
            f"pattern values span [{lo:.4g}, {hi:.4g}]; normalize to "
            "[-1, 1] first")
    return np.arccos(pattern)


def interfere(mask: np.ndarray) -> np.ndarray:
    """Split a matter wave equally, imprint ``mask`` as a phase on one
    component only, convert both to one level and interfere them.

    Intensity carries the conventional one-half of the coherent sum, so it
    is I = (1 + cos g)/2 in [0, 1]."""
    amp = 1.0 / np.sqrt(2.0)
    psi1 = np.full(mask.shape, amp, dtype=np.complex128)
    psi2 = psi1 * np.exp(1j * mask)
    return 0.5 * np.abs(psi1 + psi2) ** 2


def recover(intensity: np.ndarray) -> np.ndarray:
    """Invert the two-wave intensity back to the encoded pattern."""
    return 2.0 * intensity - 1.0


@dataclass
class RoundTripReport:
    recovered: np.ndarray
    max_abs_error: float
    mean_abs_error: float
    rms_error: float


def roundtrip(pattern: np.ndarray) -> RoundTripReport:
    """encode -> interfere -> recover, with error accounting."""
    f_hat = recover(interfere(encode(pattern)))
    err = np.abs(f_hat - pattern)
    return RoundTripReport(
        recovered=f_hat,
        max_abs_error=float(err.max()),
        mean_abs_error=float(err.mean()),
        rms_error=float(np.sqrt(np.mean(err ** 2))))


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
