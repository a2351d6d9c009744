"""Hamiltonian assembly on the recoil lattice.

The frame convention: optical and hyperfine frequencies are already removed,
and each internal level is additionally shifted by the kinetic energy of an
anchor rung (per epoch), so the transition chain a pulse targets sits at
exactly zero diagonal; on a basis with a one-rung axis the anchors take
that rung (``compile_from_epoch``).  What remains on the diagonal is the
real physics a chirped synthesizer cannot remove for more than one
momentum class at a time: quadratic recoil/Doppler mismatches of all the
other rungs.  A second synthesizer tone inside the same window is
represented by a coupling whose phase rotates at the tone-spacing rate.

Every coupling family here (one per beam or tone) is a perfect matching:
each state has at most one partner per family.  That matching structure is
also the physical content of the momentum selection rules: within one
family a state can only ever reach its single partner.  A compiled operator
holds its F families stacked, in one format from compile to step: partner
indices ``perm`` (F, n), ``pattern`` and phase-ramp ``rate`` (F, n) or
(F, B, n), and one ``PulseEnvelope`` and one peak per family, so that

    H[i, perm[f, i]] += envelope_f(t) * pattern[f, i] * e^{i rate[f, i] t}.

``rate`` is zero wherever ``pattern`` is, and a family without a rate holds
exact zeros.  The queries (bounds, blocks, active sets, restriction) are
one array expression over the family axis each.  The families link the
states into blocks that no coupling crosses (``blocks``), of 2 or 3 states
in the paper's sequences; active sets and step layouts are whole blocks.

An operator may carry a leading batch axis: B members that share the
permutation and envelopes, such as one closing pulse at B detunings.  A
family unbatched among batched ones has its row repeated over the
members.  Every operation below is elementwise over that axis, so each
member's arithmetic is exactly that of an operator compiled for it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .basis import LEVEL_ORDER, LEVELS, Basis, RecoilState, WaveFunction
from .errors import ConfigurationError
from .params import AtomParams, InternalLevel
from .pulses import (CHANNEL_LAMBDA, CHANNEL_RAMAN, Epoch, SIGMA_LEG)


_EXCITED = np.array([level.is_excited for level in LEVELS])


def _in_order_sum(rows: np.ndarray, empty):
    """Sum over the leading (family) axis in family order, as a loop of
    ``+=`` adds; ``np.sum`` pairs the terms differently along a short
    axis.  ``empty`` is the sum of no rows."""
    return np.add.accumulate(rows, axis=0)[-1] if len(rows) else empty


def _window_bound(diag_max, scales, envelopes):
    """``diag_max`` plus the largest sum over the live families, at any of
    their sampled times, of each one's ``scales`` (L, 1) or (L, R, 1) times
    its ``envelopes`` (L, samples), in family order, with a small safety
    factor against the sampling missing the true peak."""
    total = _in_order_sum(scales * envelopes.reshape(
        envelopes.shape[:1] + (1,) * (scales.ndim - 2) + envelopes.shape[1:]),
        np.zeros(np.shape(diag_max) + (1,)))
    return diag_max + 1.02 * np.max(total, axis=-1)


@dataclass(eq=False)
class EpochHamiltonian:
    """Compiled operator for one epoch: static structure, time-dependent
    envelopes.

    ``psi`` may be one state vector (n,) or a batch (B, n); the peak and
    bound queries return one value per member when the operator is batched.
    """

    diagonal: np.ndarray    # real part of the frame diagonal, (n,) or (B, n)
    decay: np.ndarray       # excited-state decay rate, shaped like diagonal
    perm: np.ndarray        # (F, n) partner per state (identity where uncoupled)
    pattern: np.ndarray     # complex (F, n) or (F, B, n)
    rate: np.ndarray        # rad/s phase ramp, shaped like pattern (anti-symmetric over the matching)
    envelopes: tuple        # per family: a PulseEnvelope
    peak: np.ndarray        # (F,) peak envelope per family
    _bound: tuple | None = field(default=None, init=False, repr=False)
    _blocks: np.ndarray | None = field(default=None, init=False, repr=False)
    _peaks: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._diag_complex = self.diagonal - 0.5j * self.decay

    def envelope_table(self, times: np.ndarray) -> np.ndarray:
        """Every family's envelope at the 1-D ``times``, (F, len(times)):
        one C call for all families where ``ckernel.load`` gives a kernel,
        each envelope's ``value`` on the whole array otherwise; the two
        agree bit for bit."""
        from . import ckernel     # not at import: the loader is run-time only
        kernel = ckernel.load()
        if kernel is not None:
            return kernel.envelope_table(self.envelopes, times)
        return np.array([e.value(times) for e in self.envelopes],
                        dtype=np.float64).reshape(len(self.envelopes),
                                                  len(times))

    def _maxima(self):
        """Largest |diagonal element| (per member for a batch), largest
        |H element| of each family, (F,) or (F, B), and the larger of the
        two (kept)."""
        if self._peaks is None:
            diag = np.max(np.abs(self._diag_complex), axis=-1, initial=0.0)
            peak = self.peak.reshape((-1,) + (1,) * (self.pattern.ndim - 2))
            elem = peak * np.max(np.abs(self.pattern), axis=-1, initial=0.0)
            self._peaks = (diag, elem,
                           np.maximum(diag, elem.max(axis=0, initial=0.0)))
        return self._peaks

    def max_element(self):
        return self._maxima()[2]

    def row_bound(self, t0: float | None = None, t1: float | None = None):
        """Gershgorin-style bound on the spectral radius.

        With a time window, the envelopes are sampled over it so beams that
        never peak simultaneously are not double-counted.  The last window's
        bound is kept, so asking again for it costs nothing.
        """
        if self._bound is None or self._bound[0] != (t0, t1):
            self._bound = ((t0, t1), self._sampled_bound(t0, t1))
        return self._bound[1]

    def _sampled_bound(self, t0, t1):
        diag_max, elem, _ = self._maxima()
        if t0 is None or t1 is None or t1 <= t0 or not len(elem):
            return diag_max + _in_order_sum(elem, 0)
        live = self.peak != 0
        envelopes = self.envelope_table(np.linspace(t0, t1, 257))[live]
        scales = elem[live] / self.peak[live].reshape((-1,) + (1,) * (
            elem.ndim - 1))
        if not (np.ndim(diag_max) or elem.ndim > 1):
            return _window_bound(diag_max, scales[:, None], envelopes)
        # batch members mostly share their peak elements (over a detuning
        # scan they differ by an ulp at most), so each distinct row of them
        # is summed once instead of building a (B, 257) array
        distinct = {}
        member = [distinct.setdefault(tuple(row), len(distinct)) for row in
                  np.column_stack(np.broadcast_arrays(diag_max, *scales))
                  .tolist()]
        rows = np.array(list(distinct))
        return _window_bound(rows[:, 0], rows[:, 1:].T[..., None],
                             envelopes)[member]

    def blocks(self) -> np.ndarray:
        """One label per state, the smallest index of its block (kept): the
        partners link it, the identity where a family couples nothing."""
        if self._blocks is None:
            labels, grown = None, np.arange(self.diagonal.shape[-1])
            while labels is None or (grown != labels).any():
                labels = grown
                for partner in self.perm:
                    grown = np.minimum(grown, grown[partner])
            self._blocks = labels
        return self._blocks

    def active_mask(self, amps: np.ndarray) -> np.ndarray:
        """The blocks that hold a nonzero amplitude, shaped like ``amps``
        (one row per member of a batch).  Everything outside stays exactly
        zero under the evolution, so it is excluded with no approximation."""
        labels = self.blocks()
        supported = np.abs(amps).reshape(-1, len(labels)) > 0.0
        hit = np.zeros(supported.shape, dtype=bool)
        rows, states = np.nonzero(supported)
        hit[rows, labels[states]] = True
        return hit[:, labels].reshape(np.shape(amps))

    def reduced(self, idx: np.ndarray) -> "EpochHamiltonian":
        """Restriction to ``idx``, a union of blocks; families that couple
        nothing there are dropped.  It keeps this operator's block labels."""
        def restrict(a):        # take() keeps the rows C-contiguous
            return a.take(idx, axis=-1)
        inverse = np.full(self.diagonal.shape[-1], -1, dtype=np.int64)
        inverse[idx] = np.arange(len(idx))
        pattern = restrict(self.pattern)
        live = (pattern != 0).any(axis=tuple(range(1, pattern.ndim)))
        perm = inverse[restrict(self.perm[live])]
        if np.any(perm < 0):
            raise ValueError("index set not a union of blocks")
        op = EpochHamiltonian(
            restrict(self.diagonal), restrict(self.decay), perm, pattern[live],
            restrict(self.rate[live]), tuple(compress(self.envelopes, live)),
            self.peak[live])
        op._blocks = inverse[self.blocks()[idx]]    # min index to min index
        return op


def _matching(basis: Basis, level_from: InternalLevel, shift: int,
              level_to: InternalLevel, axis: str = "z",
              rung: int | None = None):
    """Pairs (i, j) taking |level_from, n> to |level_to, n + shift> along
    ``axis`` (only from ``rung`` if given).  The levels differ, so the
    pairs form a perfect matching."""
    i = np.flatnonzero(basis.level_codes == LEVEL_ORDER[level_from])
    if rung is not None:
        i = i[(basis.n_z if axis == "z" else basis.n_x)[i] == rung]
    dz, dx = (shift, 0) if axis == "z" else (0, shift)
    j = basis.locate(LEVEL_ORDER[level_to], basis.n_z[i] + dz,
                     basis.n_x[i] + dx)
    return i[j >= 0], j[j >= 0]


def compile_epoch(basis: Basis, events, atom: AtomParams,
                  anchors: dict[InternalLevel, tuple[int, int]] | None = None,
                  decay_rate: float = 0.0) -> EpochHamiltonian:
    """Turn an epoch's active events into a ready-to-integrate operator,
    with one coupling family per event.  A Raman tone with an array bias
    detuning or phase gives one batch member per entry."""
    anchors = anchors or {}
    # the kinetic rate each level's frame subtracts, indexed by level code
    shifts = np.array([atom.kinetic_rate(*anchors.get(level, (0, 0)))
                       for level in LEVELS])
    for event in events:
        if event.channel == CHANNEL_LAMBDA:
            if InternalLevel.E1 not in basis.levels:
                raise ConfigurationError(
                    "adiabatic channel needs the intermediate level in the basis")
        elif event.channel == CHANNEL_RAMAN:
            for level in event.levels:
                if level not in basis.levels:
                    raise ConfigurationError(
                        f"pulse addresses level {level.name} missing from basis")
        else:  # pragma: no cover - PulseEvent validation rejects this earlier
            raise ConfigurationError(f"unknown channel {event.channel!r}")
    n = len(basis)
    batch = np.broadcast_shapes(*(np.shape(value) for event in events
                                  for value in (event.bias_detuning,
                                                event.phase)))
    perm = np.tile(np.arange(n), (len(events), 1))
    pattern = np.zeros((len(events),) + batch + (n,), dtype=np.complex128)
    rate = np.zeros(pattern.shape, dtype=np.float64)
    wr = atom.recoil_frequency
    for f, event in enumerate(events):
        if event.channel == CHANNEL_LAMBDA:
            i, j = _matching(basis, SIGMA_LEG[event.polarization],
                             event.direction, InternalLevel.E1)
            pattern[f][..., i] = 0.5
            pattern[f][..., j] = 0.5
        else:
            lf, lt = event.levels
            ref = event.reference_rung if event.reference_rung is not None \
                else 0
            tone = wr * ((ref + event.delta_n) ** 2 - ref ** 2) \
                if event.delta_n else 0.0
            rho = np.asarray(tone + event.bias_detuning
                             - (shifts[LEVEL_ORDER[lt]]
                                - shifts[LEVEL_ORDER[lf]]))[..., None]
            half = np.asarray(0.5 * np.exp(1j * event.phase))[..., None]
            i, j = _matching(basis, lf, event.delta_n, lt, event.axis,
                             event.target_rung)
            pattern[f][..., j] = half           # H[to, from]
            pattern[f][..., i] = np.conj(half)
            # a tone without a detuning keeps its exact zero rates
            if np.any(rho != 0.0):
                rate[f][..., j] = -rho
                rate[f][..., i] = +rho
        perm[f, i] = j
        perm[f, j] = i
    diagonal = wr * basis.n_squared - shifts[basis.level_codes]
    decay = np.where(_EXCITED[basis.level_codes], float(decay_rate), 0.0)
    return EpochHamiltonian(
        diagonal, decay, perm, pattern, rate,
        tuple(event.envelope for event in events),
        np.array([event.envelope.peak_rabi for event in events],
                 dtype=np.float64))


def compile_from_epoch(basis: Basis, epoch: Epoch, atom: AtomParams,
                       decay_rate: float = 0.0) -> EpochHamiltonian:
    """Compile an epoch on ``basis``, with its anchors gauged to it.

    Along an axis where the basis holds one rung (the cross axis of an
    arm's lattice), every anchored level is anchored on that rung: the
    frame then subtracts the arm's own transverse kinetic energy, a
    common-mode term that would add only a global phase but would still
    throttle the step size.  Levels without an anchor stay unshifted.
    """
    (z_lo, z_hi), (x_lo, x_hi) = basis.window_z(), basis.window_x()
    anchors = {level: (z_lo if z_lo == z_hi else n_z,
                       x_lo if x_lo == x_hi else n_x)
               for level, (n_z, n_x) in epoch.anchors.items()}
    return compile_epoch(basis, epoch.events, atom, anchors, decay_rate)


def dark_state(rabi_plus: float, rabi_minus: float, n_origin: int,
               direction: int, basis: Basis | None = None) -> WaveFunction:
    """The uncoupled superposition of the lambda system's ground legs.

    Returns the normalized state rabi_minus*|a, n> - rabi_plus*|b, n + 2d>.
    It carries no intermediate-level amplitude, and it is stationary under a
    lambda coupling whose a-leg amplitude is rabi_plus and whose b-leg
    amplitude is rabi_minus.
    """
    if rabi_plus == 0.0 and rabi_minus == 0.0:
        raise ConfigurationError("dark state undefined for two zero Rabi frequencies")
    if direction not in (-1, +1):
        raise ConfigurationError("direction must be +1 or -1")
    target_rung = n_origin + 2 * direction
    if basis is None:
        lo, hi = sorted((n_origin, target_rung))
        basis = Basis(
            [InternalLevel.A, InternalLevel.B, InternalLevel.E1],
            range(lo - 3, hi + 4))
    # hypot survives magnitudes whose squares would underflow
    norm = np.hypot(rabi_plus, rabi_minus)
    amps = np.zeros(len(basis), dtype=np.complex128)
    amps[basis.index_of(RecoilState(InternalLevel.A, n_origin))] = \
        rabi_minus / norm
    amps[basis.index_of(RecoilState(InternalLevel.B, target_rung))] = \
        -rabi_plus / norm
    return WaveFunction(basis, amps)
