"""Hamiltonian assembly on the recoil lattice.

The frame convention: optical and hyperfine frequencies are already removed,
and each internal level is additionally shifted by the kinetic energy of an
anchor rung (per epoch), so the transition chain a pulse targets sits at
exactly zero diagonal.  What remains on the diagonal is the real physics a
chirped synthesizer cannot remove for more than one momentum class at a
time: quadratic recoil/Doppler mismatches of all the other rungs.  A second
synthesizer tone inside the same window is represented by a coupling whose
phase rotates at the tone-spacing rate.

Couplings are stored as whole-basis permutation/pattern arrays: every
coupling family here is a perfect matching (each state has at most one
partner per family), so H*psi is a gather and a few multiplies.  For
integration the families are stacked (``StepOperator``): one ``take``
gathers every family's partners at once, one multiply applies all the
patterns, one the phase ramps and one a column of envelope values, and each
family's row is then added onto the diagonal term in family order.  That
matching structure is also the physical content of the momentum selection
rules: within one family a state can only ever reach its single partner.

An operator may carry a leading batch axis: ``pattern`` and ``rate`` of
shape (B, n) hold B members that share the permutation and envelope, such
as one closing pulse at B detunings, and ``stack`` gives the diagonal and
decay that axis too, for members compiled apart (arms with their own
anchors).  Every operation below is elementwise over that axis, so each
member's arithmetic is exactly that of an operator compiled for it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import LEVEL_ORDER, LEVELS, Basis, RecoilState, WaveFunction
from .errors import ConfigurationError
from .params import AtomParams, InternalLevel
from .pulses import (CHANNEL_LAMBDA, CHANNEL_RAMAN, Epoch, PulseEvent,
                     SIGMA_LEG)


_EXCITED = np.array([level.is_excited for level in LEVELS])


@dataclass
class CouplingFamily:
    """One beam or tone, expanded over the basis as a perfect matching."""

    perm: np.ndarray       # partner index per state (identity where uncoupled)
    pattern: np.ndarray    # complex, (n,) or (B, n); H[i, perm[i]] = envelope(t) * pattern[i] * e^{i rate[i] t}
    rate: np.ndarray       # rad/s phase-ramp per entry, shaped like pattern (anti-symmetric over the matching)
    envelope_value: object  # callable: time or array of times -> envelope
    peak: float
    has_rate: bool = False


class StepOperator:
    """An operator's families stacked for states of one shape, (n,) or
    (B, n), so that ``apply`` treats all of them with one call per
    operation.  Element by element it does what a loop over the families
    would: partner amplitude * pattern * e^{i rate t} * envelope, added in
    family order, with the phase of a family without a rate left out (a
    factor of exactly 1 in the stacked multiply).
    """

    def __init__(self, h: "EpochHamiltonian", shape: tuple):
        families = h.families
        self.diag = h._diag_complex
        self.envelopes = [fam.envelope_value for fam in families]
        self.column = (len(families),) + (1,) * len(shape)
        self.index = None
        self.rates = None
        if not families:
            return
        # flat indices into psi: take() then gathers straight into the
        # (F, B, n) layout whose family rows are contiguous
        offsets = shape[-1] * np.arange(shape[0])[:, None] \
            if len(shape) > 1 else 0
        self.index = np.stack([fam.perm + offsets for fam in families])
        self.patterns = np.stack([np.broadcast_to(fam.pattern, shape)
                                  for fam in families])
        if any(fam.has_rate for fam in families):
            self.rates = np.stack([np.broadcast_to(
                fam.rate if fam.has_rate else 0.0, shape)
                for fam in families])
            self._phase = np.empty_like(self.patterns)
        self._gathered = np.empty_like(self.patterns)
        self._rows = list(self._gathered)

    def envelope_table(self, times: np.ndarray) -> np.ndarray:
        """Envelope columns (len(times), F, 1...) for ``apply``, each
        family evaluated once on the whole array."""
        table = np.empty((len(times), len(self.envelopes)),
                         dtype=np.complex128)
        for f, value in enumerate(self.envelopes):
            table[:, f] = value(times)
        return table.reshape((len(times),) + self.column)

    def phase(self, t: float) -> np.ndarray | None:
        """e^{i rate t} of every family, or None when no family has a rate;
        the array is overwritten by the next call."""
        if self.rates is None:
            return None
        np.multiply(1j * t, self.rates, out=self._phase)
        return np.exp(self._phase, out=self._phase)

    def apply(self, psi: np.ndarray, out: np.ndarray, envelope: np.ndarray,
              phase: np.ndarray | None) -> None:
        """out = H psi at the time of the ``envelope`` column and
        ``phase``."""
        np.multiply(self.diag, psi, out=out)
        if self.index is None:
            return
        gathered = self._gathered
        psi.take(self.index, out=gathered, mode="clip")
        gathered *= self.patterns
        if phase is not None:
            gathered *= phase
        gathered *= envelope
        for row in self._rows:
            out += row


class EpochHamiltonian:
    """Compiled operator for one epoch: static structure, time-dependent
    envelopes.

    ``psi`` may be one state vector (n,) or a batch (B, n); the peak and
    bound queries return one value per member when the operator is batched.
    """

    def __init__(self, diagonal: np.ndarray,
                 families: list[CouplingFamily], decay: np.ndarray):
        self.diagonal = diagonal            # real part of the frame diagonal
        self.decay = decay
        self._diag_complex = diagonal - 0.5j * decay
        self.families = families
        self._bound = None                  # last (t0, t1) and its row_bound

    @property
    def batched(self) -> bool:
        return self._diag_complex.ndim > 1 or \
            any(fam.pattern.ndim > 1 for fam in self.families)

    @property
    def structure(self) -> tuple:
        """Equal for operators whose members can share one integration: the
        same number of states, coupled alike by the same envelopes."""
        return (self.diagonal.shape[-1],
                tuple((fam.envelope_value, fam.perm.tobytes())
                      for fam in self.families))

    def _diag_max(self):
        """Largest |diagonal element|, per member for a batch."""
        return np.max(np.abs(self._diag_complex), axis=-1, initial=0.0)

    def _peak_elements(self) -> list:
        """Largest |H element| of each family, per member for a batch."""
        return [fam.peak * np.max(np.abs(fam.pattern), axis=-1)
                for fam in self.families]

    def max_element(self):
        peak = self._diag_max()
        for elem in self._peak_elements():
            peak = np.maximum(peak, elem)
        return peak

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
        if t0 is None or t1 is None or t1 <= t0 or not self.families:
            return diag_max + sum(elem)
        grid = np.linspace(t0, t1, 257)
        envelopes = [fam.envelope_value(grid) if fam.peak else None
                     for fam in self.families]
        # batch members mostly share their peak elements (over a detuning
        # scan they differ by an ulp at most), so each distinct row of them
        # is summed once instead of building a (B, 257) array
        distinct = {}
        member = [distinct.setdefault(tuple(row), len(distinct)) for row in
                  np.column_stack(np.broadcast_arrays(diag_max, *elem))
                  .tolist()]
        bound = np.empty(len(distinct))
        for r, (row_diag, *row) in enumerate(distinct):
            total = np.zeros_like(grid)
            for fam, peak_elem, envelope in zip(self.families, row, envelopes):
                if fam.peak == 0:
                    continue
                scale = peak_elem / fam.peak
                total += scale * envelope
            # small safety factor against the sampling missing the true peak
            bound[r] = row_diag + 1.02 * total.max()
        return bound[member] if self.batched else bound[0]

    def active_mask(self, amps: np.ndarray) -> np.ndarray:
        """States reachable from nonzero amplitudes via this epoch's
        couplings, shaped like ``amps``: one row per member of a batch.
        Everything outside stays exactly zero under the evolution, so it
        can be excluded with no approximation."""
        active = np.abs(amps) > 0.0
        coupled = [fam.pattern != 0 for fam in self.families]
        while True:
            grown = active.copy()
            for fam, links in zip(self.families, coupled):
                grown |= links & active[..., fam.perm]
            if bool(np.array_equal(grown, active)):
                return active
            active = grown

    def reduced(self, idx: np.ndarray) -> "EpochHamiltonian":
        """Restriction to the index set ``idx`` (closed under couplings)."""
        inverse = np.full(self.diagonal.shape[-1], -1, dtype=np.int64)
        inverse[idx] = np.arange(len(idx))
        families = []
        for fam in self.families:
            pattern = fam.pattern[..., idx]
            if not np.any(pattern):
                continue
            perm = inverse[fam.perm[idx]]
            loose = perm < 0
            if np.any(loose & (pattern != 0)):
                raise ValueError("index set not closed under couplings")
            perm[loose] = np.nonzero(loose)[0]
            rate = fam.rate[..., idx]
            families.append(CouplingFamily(
                perm=perm, pattern=pattern, rate=rate,
                envelope_value=fam.envelope_value, peak=fam.peak,
                has_rate=bool(np.any(rate[pattern != 0]))))
        return EpochHamiltonian(self.diagonal[..., idx], families,
                                self.decay[..., idx])

    def members(self, rows) -> "EpochHamiltonian":
        """The operator of the batch members ``rows`` alone; one member (an
        integer row) gets unbatched arrays."""
        if not self.batched:
            return self

        def pick(a):
            return a[rows] if a.ndim > 1 else a
        families = [replace(fam, pattern=pick(fam.pattern),
                            rate=pick(fam.rate)) for fam in self.families]
        return EpochHamiltonian(pick(self.diagonal), families,
                                pick(self.decay))


def stack(operators: list[EpochHamiltonian], sizes) -> EpochHamiltonian:
    """One batched operator over the members of ``operators``, which share
    their ``structure``; operator k stands for ``sizes[k]`` members (one row
    each of a batched operator, or copies of a shared one)."""
    def rows(arrays):
        return np.concatenate([np.broadcast_to(a, (size, a.shape[-1]))
                               for a, size in zip(arrays, sizes)])
    families = []
    for f, fam in enumerate(operators[0].families):
        alike = [op.families[f] for op in operators]
        families.append(replace(
            fam, pattern=rows([x.pattern for x in alike]),
            rate=rows([x.rate for x in alike]),
            has_rate=any(x.has_rate for x in alike)))
    return EpochHamiltonian(rows([op.diagonal for op in operators]), families,
                            rows([op.decay for op in operators]))


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
    ``axis`` (only from ``rung`` if given), and the permutation swapping
    each pair.  The levels differ, so the pairs form a perfect matching."""
    i = np.flatnonzero(basis.level_codes == LEVEL_ORDER[level_from])
    if rung is not None:
        i = i[(basis.n_z if axis == "z" else basis.n_x)[i] == rung]
    dz, dx = (shift, 0) if axis == "z" else (0, shift)
    j = basis.locate(LEVEL_ORDER[level_to], basis.n_z[i] + dz,
                     basis.n_x[i] + dx)
    i, j = i[j >= 0], j[j >= 0]
    perm = np.arange(len(basis))
    perm[i] = j
    perm[j] = i
    return i, j, perm


def _sigma_family(basis: Basis, event: PulseEvent) -> CouplingFamily:
    i, j, perm = _matching(basis, SIGMA_LEG[event.polarization],
                           event.direction, InternalLevel.E1)
    pattern = np.zeros(len(basis), dtype=np.complex128)
    pattern[i] = 0.5
    pattern[j] = 0.5
    return CouplingFamily(perm=perm, pattern=pattern,
                          rate=np.zeros(len(basis)),
                          envelope_value=event.envelope.value,
                          peak=event.envelope.peak_rabi)


def _effective_family(basis: Basis, event: PulseEvent, atom: AtomParams,
                      anchors: dict[InternalLevel, tuple[int, int]] | None) -> CouplingFamily:
    anchors = anchors or {}
    lf, lt = event.levels
    shift_f = atom.kinetic_rate(*anchors.get(lf, (0, 0)))
    shift_t = atom.kinetic_rate(*anchors.get(lt, (0, 0)))
    ref = event.reference_rung if event.reference_rung is not None else 0
    wr = atom.recoil_frequency
    tone = wr * ((ref + event.delta_n) ** 2 - ref ** 2) if event.delta_n else 0.0
    # an array bias and phase give one member per entry
    rho = np.asarray(tone + event.bias_detuning - (shift_t - shift_f))[..., None]
    half = np.asarray(0.5 * np.exp(1j * event.phase))[..., None]

    i, j, perm = _matching(basis, lf, event.delta_n, lt, event.axis,
                           event.target_rung)
    shape = np.broadcast_shapes(rho.shape, half.shape)[:-1] + (len(basis),)
    pattern = np.zeros(shape, dtype=np.complex128)
    pattern[..., j] = half          # H[to, from]
    pattern[..., i] = np.conj(half)
    rate = np.zeros(shape, dtype=np.float64)
    rate[..., j] = -rho
    rate[..., i] = +rho
    return CouplingFamily(perm=perm, pattern=pattern, rate=rate,
                          envelope_value=event.envelope.value,
                          peak=event.envelope.peak_rabi,
                          has_rate=bool(np.any(rho != 0.0)))


def compile_epoch(basis: Basis, events, atom: AtomParams,
                  anchors: dict[InternalLevel, tuple[int, int]] | None = None,
                  decay_rate: float = 0.0) -> EpochHamiltonian:
    """Turn an epoch's active events into a ready-to-integrate operator."""
    families = []
    for event in events:
        if event.channel == CHANNEL_LAMBDA:
            if InternalLevel.E1 not in basis.levels:
                raise ConfigurationError(
                    "adiabatic channel needs the intermediate level in the basis")
            families.append(_sigma_family(basis, event))
        elif event.channel == CHANNEL_RAMAN:
            for level in event.levels:
                if level not in basis.levels:
                    raise ConfigurationError(
                        f"pulse addresses level {level.name} missing from basis")
            families.append(_effective_family(basis, event, atom, anchors))
        else:  # pragma: no cover - PulseEvent validation rejects this earlier
            raise ConfigurationError(f"unknown channel {event.channel!r}")
    diagonal = frame_diagonal(basis, atom, anchors)
    decay = np.where(_EXCITED[basis.level_codes], float(decay_rate), 0.0)
    return EpochHamiltonian(diagonal, families, decay)


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
