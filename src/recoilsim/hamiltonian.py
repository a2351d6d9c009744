"""Hamiltonian assembly on the recoil lattice.

The frame convention: optical and hyperfine frequencies are already removed,
and each internal level is additionally shifted by the kinetic energy of an
anchor rung (per epoch), so the transition chain a pulse targets sits at
exactly zero diagonal.  What remains on the diagonal is the real physics a
chirped synthesizer cannot remove for more than one momentum class at a
time: quadratic recoil/Doppler mismatches of all the other rungs.  A second
synthesizer tone inside the same window is represented by a coupling whose
phase rotates at the tone-spacing rate.

Every coupling family here (one per beam or tone) is a perfect matching:
each state has at most one partner per family.  That matching structure is
also the physical content of the momentum selection rules: within one
family a state can only ever reach its single partner.  A compiled operator
holds its F families stacked, in one format from compile to step: partner
indices ``perm`` (F, n), ``pattern`` and phase-ramp ``rate`` (F, n) or
(F, B, n), and one envelope callable and one peak per family, so that

    H[i, perm[f, i]] += envelope_f(t) * pattern[f, i] * e^{i rate[f, i] t}.

``rate`` is zero wherever ``pattern`` is, and a family without a rate holds
exact zeros.  The queries (bounds, active sets, restriction, member
selection, stacking) are one array expression over the family axis each.
For integration, H psi is one ``take`` that gathers every family's partners
at once, one multiply each for the patterns, a row of phase ramps and a
column of envelope values, and one add per family row onto the diagonal
term, in family order (``StepOperator``).  The ramps and envelopes do not
depend on psi, so they are tabulated for many times at once.

An operator may carry a leading batch axis: B members that share the
permutation and envelopes, such as one closing pulse at B detunings, and
``stack`` gives the diagonal and decay that axis too, for members compiled
apart (arms with their own anchors).  A family unbatched among batched ones
has its row repeated over the members.  Every operation below is
elementwise over that axis, so each member's arithmetic is exactly that of
an operator compiled for it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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


def _lift(rows: np.ndarray, ndim: int) -> np.ndarray:
    """Family rows with a member axis of one inserted after the family
    axis when they have fewer than ``ndim`` dimensions."""
    return np.expand_dims(rows, 1) if rows.ndim < ndim else rows


class StepOperator:
    """What an operator's RK4 step needs for states of one shape, (n,) or
    (B, n): flat partner indices with the batch offsets (``take`` then
    gathers straight into the (F, B, n) layout whose family rows are
    contiguous), the family rows lifted to that shape, and the scratch
    buffers.  Element by element ``apply`` does what a loop over the
    families would: partner amplitude * pattern * e^{i rate t} * envelope,
    added in family order, with the phase left out when no family has a
    rate.
    """

    def __init__(self, h: "EpochHamiltonian", shape: tuple):
        self.diag = h._diag_complex
        self.column = (len(h.envelopes),) + (1,) * len(shape)
        self.index = None
        self.rate = None
        if not h.envelopes:
            return
        ndim = len(shape) + 1
        offsets = shape[-1] * np.arange(shape[0])[:, None] \
            if len(shape) > 1 else 0
        self.index = _lift(h.perm, ndim) + offsets
        self.pattern = _lift(h.pattern, ndim)
        if h.rate.any():
            self.rate = _lift(h.rate, ndim)
        self._gathered = np.empty(self.index.shape, dtype=np.complex128)
        self._rows = list(self._gathered)

    def phase_table(self, times: np.ndarray, out: np.ndarray) -> np.ndarray:
        """e^{i rate t} of every family at each of ``times``, written to
        ``out`` (shaped ``times.shape + rate.shape``) and returned; each row
        is exactly what ``exp(1j * t * rate)`` gives.  Only for an operator
        with a rate.

        The rates are cast into ``out`` and scaled there, which makes no
        temporary copy of them; the product (rate + 0i)(0 + it) has the bits
        of (0 + it)(rate + 0i), as each factor has one zero part."""
        out[...] = self.rate
        out *= (1j * times).reshape(times.shape + (1,) * self.rate.ndim)
        return np.exp(out, out=out)

    def apply(self, psi: np.ndarray, out: np.ndarray, envelope: np.ndarray,
              phase: np.ndarray | None) -> None:
        """out = H psi at the time of the ``envelope`` column and the
        ``phase`` row of ``phase_table`` (None when no family has a
        rate)."""
        np.multiply(self.diag, psi, out=out)
        if self.index is None:
            return
        gathered = self._gathered
        psi.take(self.index, out=gathered, mode="clip")
        gathered *= self.pattern
        if phase is not None:
            gathered *= phase
        gathered *= envelope
        for row in self._rows:
            out += row


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
    envelopes: tuple        # per family: time or array of times -> envelope
    peak: np.ndarray        # (F,) peak envelope per family
    _bound: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._diag_complex = self.diagonal - 0.5j * self.decay

    @property
    def batched(self) -> bool:
        return self.diagonal.ndim > 1 or self.pattern.ndim > 2

    @property
    def structure(self) -> tuple:
        """Equal for operators whose members can share one integration: the
        same number of states, coupled alike by the same envelopes."""
        return (self.diagonal.shape[-1], self.envelopes, self.perm.tobytes())

    def envelope_table(self, times: np.ndarray) -> np.ndarray:
        """Every family's envelope at ``times``, (F, len(times)), each
        envelope evaluated once on the whole array."""
        return np.array([value(times) for value in self.envelopes],
                        dtype=np.float64).reshape(len(self.envelopes),
                                                  len(times))

    def _diag_max(self):
        """Largest |diagonal element|, per member for a batch."""
        return np.max(np.abs(self._diag_complex), axis=-1, initial=0.0)

    def _peak_elements(self) -> np.ndarray:
        """Largest |H element| of each family, (F,) or (F, B)."""
        peak = self.peak.reshape((-1,) + (1,) * (self.pattern.ndim - 2))
        return peak * np.max(np.abs(self.pattern), axis=-1, initial=0.0)

    def max_element(self):
        return np.maximum(self._diag_max(),
                          self._peak_elements().max(axis=0, initial=0.0))

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
        diag_max = self._diag_max()
        elem = self._peak_elements()
        if t0 is None or t1 is None or t1 <= t0 or not len(elem):
            return diag_max + _in_order_sum(elem, 0)
        live = self.peak != 0
        envelopes = self.envelope_table(np.linspace(t0, t1, 257))[live]
        # batch members mostly share their peak elements (over a detuning
        # scan they differ by an ulp at most), so each distinct row of them
        # is summed once instead of building a (B, 257) array
        distinct = {}
        member = [distinct.setdefault(tuple(row), len(distinct)) for row in
                  np.column_stack(np.broadcast_arrays(diag_max, *elem))
                  .tolist()]
        rows = np.array(list(distinct))
        scales = rows[:, 1:][:, live] / self.peak[live]
        bound = np.empty(len(distinct))
        for r, scale in enumerate(scales):
            total = _in_order_sum(scale[:, None] * envelopes, 0.0)
            # small safety factor against the sampling missing the true peak
            bound[r] = rows[r, 0] + 1.02 * np.max(total)
        return bound[member] if self.batched else bound[0]

    def active_mask(self, amps: np.ndarray) -> np.ndarray:
        """States reachable from nonzero amplitudes via this epoch's
        couplings, shaped like ``amps``: one row per member of a batch.
        Everything outside stays exactly zero under the evolution, so it
        can be excluded with no approximation."""
        links = (self.pattern != 0).swapaxes(0, -2)       # ([B,] F, n)
        active = np.abs(amps) > 0.0
        while True:
            grown = active | (links & active[..., self.perm]).any(axis=-2)
            if bool(np.array_equal(grown, active)):
                return active
            active = grown

    def reduced(self, idx: np.ndarray) -> "EpochHamiltonian":
        """Restriction to the index set ``idx`` (closed under couplings);
        families that couple nothing there are dropped."""
        def restrict(a):        # take() keeps the rows C-contiguous
            return a.take(idx, axis=-1)
        inverse = np.full(self.diagonal.shape[-1], -1, dtype=np.int64)
        inverse[idx] = np.arange(len(idx))
        pattern = restrict(self.pattern)
        coupled = pattern != 0
        live = coupled.any(axis=tuple(range(1, coupled.ndim)))
        coupled = coupled[live].any(axis=tuple(range(1, coupled.ndim - 1)))
        perm = inverse[restrict(self.perm[live])]
        loose = perm < 0
        if np.any(loose & coupled):
            raise ValueError("index set not closed under couplings")
        return EpochHamiltonian(
            restrict(self.diagonal), restrict(self.decay),
            np.where(loose, np.arange(len(idx)), perm), pattern[live],
            restrict(self.rate[live]), tuple(compress(self.envelopes, live)),
            self.peak[live])

    def members(self, rows) -> "EpochHamiltonian":
        """The operator of the batch members ``rows`` (increasing indices)
        alone: the operator itself for all of them, unbatched arrays for
        one."""
        members = self.diagonal.shape[:-1] or self.pattern.shape[1:-1]
        if not members or len(rows) == members[0]:
            return self
        pick = rows[0] if len(rows) == 1 else rows

        def take(a, axis):      # the member axis: 0 of a diagonal, 1 of rows
            return a.take(pick, axis) if a.ndim > axis + 1 else a
        return replace(self, diagonal=take(self.diagonal, 0),
                       decay=take(self.decay, 0),
                       pattern=take(self.pattern, 1),
                       rate=take(self.rate, 1))


def stack(operators: list[EpochHamiltonian], sizes) -> EpochHamiltonian:
    """One batched operator over the members of ``operators``, which share
    their ``structure``; operator k stands for ``sizes[k]`` members (one row
    each of a batched operator, or copies of a shared one)."""
    def rows(name, axis):       # the member axis: 0 of a diagonal, 1 of rows
        arrays = [getattr(op, name) for op in operators]
        return np.concatenate([np.broadcast_to(
            np.expand_dims(a, axis) if a.ndim == axis + 1 else a,
            a.shape[:axis] + (size,) + a.shape[-1:])
            for a, size in zip(arrays, sizes)], axis=axis)
    return replace(operators[0], diagonal=rows("diagonal", 0),
                   decay=rows("decay", 0), pattern=rows("pattern", 1),
                   rate=rows("rate", 1))


def frame_diagonal(basis: Basis, atom: AtomParams,
                   anchors: dict[InternalLevel, tuple[int, int]] | None) -> np.ndarray:
    anchors = anchors or {}
    shifts = np.array([atom.kinetic_rate(*anchors.get(level, (0, 0)))
                       for level in LEVELS])
    return atom.recoil_frequency * basis.n_squared - shifts[basis.level_codes]


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
            shift_f = atom.kinetic_rate(*anchors.get(lf, (0, 0)))
            shift_t = atom.kinetic_rate(*anchors.get(lt, (0, 0)))
            ref = event.reference_rung if event.reference_rung is not None \
                else 0
            tone = wr * ((ref + event.delta_n) ** 2 - ref ** 2) \
                if event.delta_n else 0.0
            rho = np.asarray(tone + event.bias_detuning
                             - (shift_t - shift_f))[..., None]
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
    diagonal = frame_diagonal(basis, atom, anchors)
    decay = np.where(_EXCITED[basis.level_codes], float(decay_rate), 0.0)
    return EpochHamiltonian(
        diagonal, decay, perm, pattern, rate,
        tuple(event.envelope.value for event in events),
        np.array([event.envelope.peak_rabi for event in events],
                 dtype=np.float64))


def compile_from_epoch(basis: Basis, epoch: Epoch, atom: AtomParams,
                       decay_rate: float = 0.0) -> EpochHamiltonian:
    return compile_epoch(basis, epoch.events, atom, epoch.anchors, decay_rate)


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
