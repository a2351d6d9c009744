"""Atomic species parameters and the internal-level catalogue.

Everything internal to the simulator works in angular frequencies (rad/s),
seconds, and integer recoil units; this module is the only place where SI
constants enter.  Derived quantities (wavenumber, recoil velocity, recoil
frequency) are computed on demand so they can never go stale relative to the
fields they derive from.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

HBAR = 1.054571817e-34  # J s
ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg

RB87_MASS_U = 86.909180527
RB87_D1_WAVELENGTH = 794.978851e-9  # m
RB87_D2_WAVELENGTH = 780.241209e-9  # m
STANDARD_GRAVITY = 9.81  # m/s^2


class Manifold(enum.Enum):
    GROUND = "ground"
    D1_EXCITED = "d1-excited"
    D2_EXCITED = "d2-excited"


class InternalLevel(enum.Enum):
    """The five internal states retained by the model.

    A and B are the two deflectable ground sublevels of the lambda system,
    C is the spectator ground sublevel addressed by the copropagating
    two-photon channel, E1 is the intermediate of the adiabatic-transfer
    channel, and E2 stands in for the far-detuned intermediate of the
    effective two-level channels (it never acquires population there).
    """

    A = ("a", 1, 1, Manifold.GROUND)
    B = ("b", 1, -1, Manifold.GROUND)
    C = ("c", 2, 1, Manifold.GROUND)
    E1 = ("e1", 1, 0, Manifold.D1_EXCITED)
    E2 = ("e2", 1, 0, Manifold.D2_EXCITED)

    def __init__(self, tag, f, mf, manifold):
        self.tag = tag
        self.f = f
        self.mf = mf
        self.manifold = manifold

    @property
    def is_excited(self) -> bool:
        return self.manifold is not Manifold.GROUND

    def __repr__(self):
        return f"<{self.name} F={self.f} mF={self.mf}>"


@dataclass(frozen=True)
class AtomParams:
    """Physical parameters of the atom and its environment.

    ``lattice_wavelength`` sets the single recoil unit hbar*k used for the
    whole momentum lattice; the small recoil difference between the two
    optical manifolds is ignored, as is conventional for this kind of
    bookkeeping.  ``nominal_wavelength`` (~800 nm) is only used when quoting
    round-number spacing estimates next to the exact ones.
    """

    mass: float = RB87_MASS_U * ATOMIC_MASS_UNIT  # kg
    wavelength_d1: float = RB87_D1_WAVELENGTH  # m
    wavelength_d2: float = RB87_D2_WAVELENGTH  # m
    nominal_wavelength: float = 800e-9  # m
    gravity: float = STANDARD_GRAVITY  # m/s^2
    lattice_manifold: str = "d2"

    def __post_init__(self):
        for name in ("mass", "wavelength_d1", "wavelength_d2",
                     "nominal_wavelength", "gravity"):
            value = getattr(self, name)
            if not (value > 0) or not math.isfinite(value):
                raise ValueError(f"AtomParams.{name} must be positive and finite")
        if self.lattice_manifold not in ("d1", "d2"):
            raise ValueError("lattice_manifold must be 'd1' or 'd2'")

    def wavenumber(self) -> float:
        """Optical wavenumber k = 2*pi/lambda of the lattice, in rad/m."""
        return 2.0 * math.pi / self.lattice_wavelength

    @property
    def lattice_wavelength(self) -> float:
        return {"d1": self.wavelength_d1, "d2": self.wavelength_d2}[self.lattice_manifold]

    @property
    def recoil_velocity(self) -> float:
        """hbar*k/m for one lattice photon, in m/s."""
        return HBAR * self.wavenumber() / self.mass

    @property
    def recoil_frequency(self) -> float:
        """Recoil angular frequency hbar*k^2/(2m) in rad/s."""
        k = self.wavenumber()
        return HBAR * k * k / (2.0 * self.mass)

    def kinetic_rate(self, n_z: int, n_x: int = 0) -> float:
        """Kinetic energy of lattice momentum (n_z, n_x) as an angular rate."""
        return self.recoil_frequency * (n_z ** 2 + n_x ** 2)


def rb87() -> AtomParams:
    """Default rubidium-87 parameter set."""
    return AtomParams()
