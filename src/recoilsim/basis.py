"""Momentum-lattice Hilbert space: basis construction and state vectors.

A basis state is an internal level plus a pair of integer recoil indices
(n_z, n_x) counting photon momenta along the two beam axes.  The basis is
the product of level x z window x x window in a fixed order, so that
wavefunctions are plain complex vectors and all operators reduce to index
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .params import InternalLevel

LEVELS = tuple(InternalLevel)
LEVEL_ORDER = {level: i for i, level in enumerate(LEVELS)}

PRUNE_FLOOR = 1e-14          # on |amplitude|^2
PRUNE_NORM_BUDGET = 1e-12    # max total probability a prune may remove


def prune_dust(amps: np.ndarray) -> None:
    """Zero, in place, all amplitudes with 0 < |amp|^2 < PRUNE_FLOOR, unless
    together they hold more than PRUNE_NORM_BUDGET of probability: then none
    is touched, so a prune can never move the norm measurably.  A batch
    (B, n) is pruned row by row, each against its own budget."""
    w = np.abs(amps) ** 2
    small = (w > 0.0) & (w < PRUNE_FLOOR)
    dust = np.where(small, w, 0.0).sum(axis=-1, keepdims=True)
    amps[small & (dust <= PRUNE_NORM_BUDGET)] = 0.0


class RecoilState(NamedTuple):
    level: InternalLevel
    n_z: int
    n_x: int = 0

    def __repr__(self):
        return f"|{self.level.tag},{self.n_z},{self.n_x}>"


class Basis:
    """Product of level x z window x x window, ordered (level, n_z, n_x).

    Levels follow the enum order and both windows ascend, so a state's flat
    index is plain index arithmetic on its three positions.
    """

    def __init__(self, levels: Iterable[InternalLevel],
                 window_z: Iterable[int], window_x: Iterable[int] = (0,)):
        self.levels: tuple[InternalLevel, ...] = tuple(
            sorted(set(levels), key=LEVEL_ORDER.__getitem__))
        self.rungs_z, self.rungs_x = (
            np.array(sorted({int(n) for n in window}), dtype=np.int64)
            for window in (window_z, window_x))
        if not self.levels:
            raise ConfigurationError("basis needs at least one internal level")
        if not len(self.rungs_z) or not len(self.rungs_x):
            raise ConfigurationError("momentum windows must be nonempty")
        codes = np.array([LEVEL_ORDER[lv] for lv in self.levels], dtype=np.int64)
        self._position = np.full(len(LEVELS), -1, dtype=np.int64)
        self._position[codes] = np.arange(len(codes))
        grid = np.meshgrid(codes, self.rungs_z, self.rungs_x, indexing="ij")
        self.level_codes, self.n_z, self.n_x = (g.ravel() for g in grid)
        self.n_squared = self.n_z ** 2 + self.n_x ** 2
        self._level_masks, self._edge_masks = {}, {}

    def __len__(self):
        return len(self.level_codes)

    def __contains__(self, state):
        return bool(self.locate(LEVEL_ORDER[state.level], state.n_z,
                                state.n_x) >= 0)

    def locate(self, codes, n_z, n_x) -> np.ndarray:
        """Flat index of each (level code, n_z, n_x), or -1 outside the basis."""
        level = self._position[np.asarray(codes, dtype=np.int64)]
        # searching all but the last rung keeps every position in range
        iz = np.searchsorted(self.rungs_z[:-1], n_z)
        ix = np.searchsorted(self.rungs_x[:-1], n_x)
        found = (level >= 0) & (self.rungs_z[iz] == n_z) & \
            (self.rungs_x[ix] == n_x)
        flat = (level * len(self.rungs_z) + iz) * len(self.rungs_x) + ix
        return np.where(found, flat, -1)

    def index_of(self, state: RecoilState) -> int:
        i = int(self.locate(LEVEL_ORDER[state.level], state.n_z, state.n_x))
        if i < 0:
            raise ConfigurationError(f"state {state} not in basis")
        return i

    def state(self, i: int) -> RecoilState:
        return RecoilState(LEVELS[self.level_codes[i]], int(self.n_z[i]),
                           int(self.n_x[i]))

    def level_mask(self, levels: Iterable[InternalLevel]) -> np.ndarray:
        """Which states lie on one of ``levels``: read-only, made once per
        set of levels, as observers ask for the same mask at every
        sample."""
        codes = frozenset(LEVEL_ORDER[lv] for lv in levels)
        mask = self._level_masks.get(codes)
        if mask is None:
            mask = np.isin(self.level_codes, list(codes))
            mask.flags.writeable = False
            self._level_masks[codes] = mask
        return mask

    def edge_mask(self, margin: int) -> np.ndarray:
        """Which states lie within ``margin`` rungs of the window edge:
        read-only, made once per margin, as ``evolve_plan`` checks the
        edge after every epoch.  A one-rung window is a cross axis, not
        an edge."""
        near = self._edge_masks.get(margin)
        if near is None:
            near = np.zeros(len(self), dtype=bool)
            for n, (lo, hi) in ((self.n_z, self.window_z()),
                                (self.n_x, self.window_x())):
                if hi > lo:
                    near |= (n <= lo + margin - 1) | (n >= hi - margin + 1)
            near.flags.writeable = False
            self._edge_masks[margin] = near
        return near

    def window_z(self) -> tuple[int, int]:
        return int(self.rungs_z[0]), int(self.rungs_z[-1])

    def window_x(self) -> tuple[int, int]:
        return int(self.rungs_x[0]), int(self.rungs_x[-1])


def span_window(occupied: Iterable[int], guard: int = 3) -> range:
    """Window covering all occupied rungs plus a guard band on each side."""
    occupied = list(occupied)
    if not occupied:
        raise ConfigurationError("no occupied rungs to span")
    return range(min(occupied) - guard, max(occupied) + guard + 1)


@dataclass
class Observables:
    """Level-filtered momentum statistics; mean/spread are None when the
    filtered population is zero rather than masquerading as 0."""

    mean: float | None
    spread: float | None


def _per_member(x):
    """A float for one wavefunction, an array over the members of a batch."""
    return float(x) if np.ndim(x) == 0 else x


def momentum_moments(basis: Basis, w: np.ndarray,
                     levels: Iterable[InternalLevel] | None = None
                     ) -> Observables:
    """Mean z momentum and its spread of the populations ``w`` (the
    |amplitude|^2 of one wavefunction on ``basis``) over a level filter."""
    if levels is not None:
        mask = basis.level_mask(levels)
        w = w * mask
    pop = float(w.sum())
    if pop == 0.0:
        return Observables(mean=None, spread=None)
    n = basis.n_z
    mean = float(np.sum(n * w) / pop)
    var = float(np.sum((n - mean) ** 2 * w) / pop)
    return Observables(mean=mean, spread=float(np.sqrt(max(var, 0.0))))


class WaveFunction:
    """Complex amplitudes over a Basis at a given time.

    The amplitudes are one vector (n,) or a batch (B, n) of members on the
    same basis.  ``total_population``, ``population``,
    ``boundary_population`` and ``project_onto`` act per member; the other
    methods need a single wavefunction.
    """

    def __init__(self, basis: Basis, amplitudes: np.ndarray | None = None,
                 time: float = 0.0):
        self.basis = basis
        if amplitudes is None:
            amplitudes = np.zeros(len(basis), dtype=np.complex128)
        else:
            amplitudes = np.asarray(amplitudes, dtype=np.complex128)
            if amplitudes.ndim not in (1, 2) or \
                    amplitudes.shape[-1] != len(basis):
                raise ConfigurationError("amplitude vector does not match basis size")
        self.amplitudes = amplitudes
        self.time = float(time)

    @classmethod
    def from_components(cls, basis: Basis,
                        components: dict[RecoilState, complex]
                        ) -> "WaveFunction":
        """The normalized wavefunction at time 0 with ``components``."""
        psi = cls(basis)
        for state, amp in components.items():
            psi.amplitudes[basis.index_of(state)] = amp
        norm = psi.norm()
        if norm == 0:
            raise ConfigurationError("cannot normalize a zero wavefunction")
        psi.amplitudes /= norm
        return psi

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def total_population(self):
        return _per_member(np.sum(np.abs(self.amplitudes) ** 2, axis=-1))

    def amplitude(self, state: RecoilState) -> complex:
        return complex(self.amplitudes[self.basis.index_of(state)])

    def population(self, levels: Iterable[InternalLevel] | None = None):
        w = np.abs(self.amplitudes) ** 2
        if levels is not None:
            w = w[..., self.basis.level_mask(levels)]
        return _per_member(w.sum(axis=-1))

    def observables(self, levels: Iterable[InternalLevel] | None = None
                    ) -> Observables:
        """Mean z momentum and its spread over a level filter."""
        return momentum_moments(self.basis, np.abs(self.amplitudes) ** 2,
                                levels)

    def boundary_population(self, margin: int = 1):
        """Probability sitting within ``margin`` rungs of the window edge
        (``Basis.edge_mask``)."""
        near = self.basis.edge_mask(margin)
        return _per_member(
            (abs(self.amplitudes[..., near]) ** 2).sum(axis=-1))

    def components(self, floor: float = 0.0) -> list[tuple[RecoilState, complex]]:
        """(state, amplitude) pairs with |amp|^2 above ``floor``, basis order."""
        if floor <= 0.0:
            keep = np.nonzero(self.amplitudes)[0]
        else:
            keep = np.nonzero(np.abs(self.amplitudes) ** 2 > floor)[0]
        return [(self.basis.state(i), complex(self.amplitudes[i]))
                for i in keep]

    def project_onto(self, basis: Basis) -> "WaveFunction":
        """Re-express on another basis; errors if population would be lost."""
        target = basis.locate(self.basis.level_codes, self.basis.n_z,
                              self.basis.n_x)
        lost = np.max(np.sum(np.abs(self.amplitudes[..., target < 0]) ** 2,
                             axis=-1))
        if lost > 1e-12:
            raise ConfigurationError(
                f"target basis drops {lost:.3e} of population")
        keep = target >= 0
        amps = np.zeros(self.amplitudes.shape[:-1] + (len(basis),),
                        dtype=np.complex128)
        amps[..., target[keep]] = self.amplitudes[..., keep]
        return WaveFunction(basis, amps, self.time)
