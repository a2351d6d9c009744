"""Hamiltonian assembly on the recoil lattice.

The frame convention: optical and hyperfine frequencies are already removed,
and each internal level is additionally shifted by the kinetic energy of an
anchor rung (per epoch), so the transition chain a pulse targets sits at
exactly zero diagonal; on a basis with a one-rung axis the anchors take
that rung (``compile_plan``).  What remains on the diagonal is the
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

A plan is compiled on a lattice in one pass (``compile_plan``): it reads
every event of the plan's epochs once, refuses any that addresses a level
outside the basis before an epoch runs, and finds the coupled pairs of
all events, with their pattern, rate and frame-shift values, in a few
array operations.  It keeps tables of O(couplings), two entries per
coupled pair, shared by the epochs whose families couple the same pairs;
an epoch's dense operator is assembled from them when the epoch comes
up (``compile_from_epoch``), so each value has one implementation.

The bound of an operator samples its envelopes at 257 times of the
epoch's window (``window_samples``); the operators of an epoch's lattices
share those samples, and a reduced operator takes its families' rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .basis import LEVEL_ORDER, LEVELS, Basis, RecoilState, WaveFunction
from .errors import ConfigurationError
from .params import AtomParams, InternalLevel
from .pulses import CHANNEL_LAMBDA, CHANNEL_RAMAN, SIGMA_LEG


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
    # the window, envelope table and row maxima of ``window_samples``
    samples: tuple | None = field(default=None, init=False, repr=False)
    _bound: tuple | None = field(default=None, init=False, repr=False)
    _blocks: np.ndarray | None = field(default=None, init=False, repr=False)
    _peaks: tuple | None = field(default=None, init=False, repr=False)

    @cached_property
    def _diag_complex(self) -> np.ndarray:
        """The diagonal less i decay / 2 (kept)."""
        return self.diagonal - 0.5j * self.decay

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
            diag = abs(self._diag_complex).max(axis=-1, initial=0.0)
            peak = self.peak.reshape((-1,) + (1,) * (self.pattern.ndim - 2))
            elem = peak * abs(self.pattern).max(axis=-1, initial=0.0)
            self._peaks = (diag, elem,
                           np.maximum(diag, elem.max(axis=0, initial=0.0)))
        return self._peaks

    def max_element(self):
        return self._maxima()[2]

    def window_samples(self, t0: float, t1: float) -> tuple:
        """The window (t0, t1), every family's envelope at the 257 bound
        times over it, (F, 257), and each family's largest sample, (F,):
        kept for the last window, and handed down by ``reduced``.  The
        operators of one epoch share their families, so ``evolve_plan``
        samples an epoch once and sets ``samples`` on every lattice's."""
        if self.samples is None or self.samples[0] != (t0, t1):
            table = self.envelope_table(np.linspace(t0, t1, 257))
            self.samples = ((t0, t1), table, table.max(axis=1, initial=0.0))
        return self.samples

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
        _, table, largest = self.window_samples(t0, t1)
        peaks = self.peak.tolist()
        live = [f for f, peak in enumerate(peaks) if peak != 0]
        batched = elem.ndim > 1 or diag_max.ndim
        if not batched and len(live) == 1:
            # one family's sum is its row, and fl(scale * x) is monotone in
            # x for a finite scale >= 0 (peaks and envelopes are >= 0), so
            # the largest product is the one with the largest sample
            (f,) = live
            scale = elem[f] / peaks[f]
            if math.isfinite(scale):
                return diag_max + 1.02 * (scale * largest[f])
        envelopes = table[live]
        scales = elem[live] / self.peak[live].reshape((-1,) + (1,) * (
            elem.ndim - 1))
        # an unbatched operator skips the distinct-row path below, which
        # would cost raman2d's 303 bound calls 3.5-4.4 ms a run
        if not batched:
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
        supported = abs(amps).reshape(-1, len(labels)) > 0.0
        hit = np.zeros(supported.shape, dtype=bool)
        rows, states = supported.nonzero()
        hit[rows, labels[states]] = True
        return hit[:, labels].reshape(amps.shape)

    def reduced(self, idx: np.ndarray) -> "EpochHamiltonian":
        """Restriction to ``idx``, a union of blocks; families that couple
        nothing there are dropped.  It keeps this operator's block labels
        and window samples."""
        def restrict(a):        # take() keeps the rows C-contiguous
            return a.take(idx, axis=-1)
        inverse = np.full(self.diagonal.shape[-1], -1, dtype=np.int64)
        inverse[idx] = np.arange(len(idx))
        pattern = restrict(self.pattern)
        live = (pattern != 0).any(axis=tuple(range(1, pattern.ndim)))
        perm = inverse[restrict(self.perm[live])]
        if (perm < 0).any():
            raise ValueError("index set not a union of blocks")
        op = EpochHamiltonian(
            restrict(self.diagonal), restrict(self.decay), perm, pattern[live],
            restrict(self.rate[live]), tuple(compress(self.envelopes, live)),
            self.peak[live])
        op._blocks = inverse[self.blocks()[idx]]    # min index to min index
        if self.samples is not None:
            window, table, largest = self.samples
            op.samples = (window, table[live], largest[live])
        return op


def compile_from_epoch(kinetic, codes, decay, shifts, envelopes, peak, index,
                       partner, code, values, rates, batch,
                       sweeps) -> EpochHamiltonian:
    """One epoch's operator from its tables, its part of a plan pass
    (``compile_plan``): the lattice's kinetic rates, level codes and decay
    rates, the epoch's frame shift per level, its families' envelopes and
    peaks, and its entries, two for each coupled pair, one for each of its
    states: the flat position in the (F, n) family rows, the partner
    state, and the value ``code``, 2 f for the target state of family f
    and 2 f + 1 for its source state, which picks the pattern and rate
    from ``values`` and ``rates`` (F, 2).  A family whose tone sweeps an array of detunings or
    phases, giving the epoch its ``batch`` shape, gets its values from
    ``sweeps`` instead, as (family, source states, target states, pattern
    at the targets, rates)."""
    n, families = len(kinetic), len(envelopes)
    perm = np.empty((families, n), dtype=np.int64)
    perm[...] = np.arange(n)
    perm.reshape(-1)[index] = partner
    pattern = np.zeros((families, n), dtype=np.complex128)
    rate = np.zeros((families, n), dtype=np.float64)
    pattern.reshape(-1)[index] = values.take(code)
    rate.reshape(-1)[index] = rates.take(code)
    if batch:
        # every member starts as the unswept rows
        pattern, rate = (np.broadcast_to(
            a.reshape((families,) + (1,) * len(batch) + (n,)),
            (families,) + batch + (n,)).copy() for a in (pattern, rate))
    for f, i, j, half, rho in sweeps:
        pattern[f][..., j] = half           # H[to, from]
        pattern[f][..., i] = np.conj(half)
        # a tone without a detuning keeps its exact zero rates
        if np.any(rho != 0.0):
            rate[f][..., j] = -rho
            rate[f][..., i] = +rho
    return EpochHamiltonian(kinetic - shifts[codes], decay, perm, pattern,
                            rate, envelopes, peak)


def _pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ..."""
    out = np.empty(2 * len(a), dtype=a.dtype)
    out[0::2], out[1::2] = a, b
    return out


def _plan_pass(basis: Basis, epochs, atom: AtomParams,
               decay_rate: float) -> Iterator[tuple]:
    """The tables of each of ``epochs``, (events, anchors) pairs, on
    ``basis``, taken in turn: the arguments of ``compile_from_epoch``,
    which assembles the epoch's operator from them.  An event on a level
    outside the basis is refused here, before any epoch runs.

    The coupled pairs come from one comparison of each event's source
    level and rung with every state, and one ``Basis.locate`` of their
    partners, for the events of the first epoch of each kind (epochs of
    one kind couple the same pairs, family by family); each event's pairs
    form a perfect matching, as its two levels differ.  Every value is
    computed with the operations, in the order, of a loop over the
    events."""
    wr = atom.recoil_frequency
    first, epoch_of, anchored, swept = [0], [], [], []
    # per event: source and target level codes, recoil shift along z and
    # along x, the axis of the rung it starts from (-1: any rung) and that
    # rung, and its tone's reference rung and net recoil; its pattern at
    # the target and at the source state, its bias detuning, and whether
    # it is a tone with a scalar detuning
    spec, values, bias, tuned, envelopes = [], [], [], [], []
    for k, (events, anchors) in enumerate(epochs):
        for level, (n_z, n_x) in anchors.items():
            anchored.append((k, LEVEL_ORDER[level], n_z, n_x))
        epoch_of += [k] * len(events)
        for event in events:
            envelopes.append(event.envelope)
            sweeping = isinstance(event.bias_detuning, np.ndarray) or \
                isinstance(event.phase, np.ndarray)
            if sweeping:
                swept.append((k, len(spec), event))
            if event.channel == CHANNEL_LAMBDA:
                if InternalLevel.E1 not in basis.levels:
                    raise ConfigurationError("adiabatic channel needs the "
                                             "intermediate level in the basis")
                spec.append((LEVEL_ORDER[SIGMA_LEG[event.polarization]],
                             LEVEL_ORDER[InternalLevel.E1], event.direction,
                             0, -1, 0, 0, 0))
                values.append((0.5, 0.5))
                bias.append(0.0)
                tuned.append(False)
                continue
            if event.channel != CHANNEL_RAMAN:  # pragma: no cover
                # PulseEvent validation rejects any other channel earlier
                raise ConfigurationError(
                    f"unknown channel {event.channel!r}")
            lf, lt = event.levels
            if lf not in basis.levels or lt not in basis.levels:
                missing = lf if lf not in basis.levels else lt
                raise ConfigurationError(f"pulse addresses level "
                                         f"{missing.name} missing from basis")
            on_z, dn = event.axis == "z", event.delta_n
            spec.append((LEVEL_ORDER[lf], LEVEL_ORDER[lt], dn if on_z else 0,
                         0 if on_z else dn,
                         -1 if event.target_rung is None else int(not on_z),
                         event.target_rung or 0, event.reference_rung or 0,
                         dn))
            if sweeping:
                values.append((0.0, 0.0))
                bias.append(0.0)
            else:
                half = 0.5 * np.exp(1j * event.phase)
                values.append((half, np.conj(half)))
                bias.append(event.bias_detuning)
            tuned.append(not sweeping)
        first.append(len(spec))

    spec = np.array(spec, dtype=np.int64).reshape(-1, 8)
    bounds = np.array(first)
    # an epoch's kind is the pairs its families couple, set by the first
    # six columns; ``head`` is the first epoch of each kind.  Finding pairs
    # for every epoch instead keeps every byte but costs the ladder's pass
    # 0.8-1.0 ms a run, and its peak memory more
    kinds, kind, head = {}, [], []
    key, width = spec[:, :6].tobytes(), 6 * spec.itemsize
    for k in range(len(epochs)):
        kind.append(kinds.setdefault(key[width * first[k]:
                                         width * first[k + 1]], len(kinds)))
        if len(head) < len(kinds):
            head.append(k)
    rungs = np.zeros((len(epochs), len(LEVELS), 2), dtype=np.int64)
    if anchored:
        k, code, n_z, n_x = np.array(anchored, dtype=np.int64).T
        rungs[k, code, 0], rungs[k, code, 1] = n_z, n_x
    shifts = wr * (rungs ** 2).sum(axis=-1)
    epoch_of = np.array(epoch_of, dtype=np.int64)
    source, target, dz, dx, axis, rung, ref, dn = spec.T
    # the tone, plus the bias, less the frame's shift of the target level
    # from the source level
    tone = wr * ((ref + dn) ** 2 - ref ** 2)
    shift = shifts[epoch_of, target] - shifts[epoch_of, source]
    rho = tone + np.array(bias, dtype=np.float64) - shift
    rates = np.zeros((len(spec), 2))
    live = np.flatnonzero(tuned)
    live = live[rho[live] != 0.0]     # a tone on resonance keeps exact zeros
    rates[live, 0], rates[live, 1] = -rho[live], rho[live]

    is_head = np.zeros(len(epochs), dtype=bool)
    is_head[head] = True
    lead = np.flatnonzero(is_head[epoch_of])
    along = np.where(axis[lead, None] == 1, basis.n_x, basis.n_z)
    e, i = np.nonzero((basis.level_codes == source[lead, None])
                      & ((axis[lead, None] < 0) | (along == rung[lead, None])))
    e = lead[e]
    j = basis.locate(target[e], basis.n_z[i] + dz[e], basis.n_x[i] + dx[e])
    e, i, j = e[j >= 0], i[j >= 0], j[j >= 0]
    # two entries per pair: the target state j, then the source state i
    family = e - bounds[epoch_of[e]]
    row = family * len(basis)
    index = _pairwise(row + j, row + i)
    partner = _pairwise(i, j)
    code = _pairwise(2 * family, 2 * family + 1)
    start = (2 * np.searchsorted(e, bounds[head])).tolist()
    stop = (2 * np.searchsorted(e, bounds[np.add(head, 1)])).tolist()

    kinetic = wr * basis.n_squared
    decay = np.where(_EXCITED[basis.level_codes], float(decay_rate), 0.0)
    peak = np.array([envelope.peak_rabi for envelope in envelopes],
                    dtype=np.float64)
    values = np.array(values, dtype=np.complex128).reshape(-1, 2)
    decay.flags.writeable = peak.flags.writeable = False   # shared
    batches, sweeps = {}, {}
    for k, s, event in swept:
        batches[k] = np.broadcast_shapes(*(
            np.shape(value) for other in epochs[k][0]
            for value in (other.bias_detuning, other.phase)))
        if event.channel == CHANNEL_RAMAN:
            # the pairs of this family in the first epoch of this kind
            h = first[head[kind[k]]] + s - first[k]
            p0, p1 = np.searchsorted(e, (h, h + 1))
            sweeps[k] = sweeps.get(k, ()) + ((
                s - first[k], i[p0:p1], j[p0:p1],
                np.asarray(0.5 * np.exp(1j * event.phase))[..., None],
                np.asarray(tone[s] + event.bias_detuning - shift[s])
                [..., None]),)
    return ((kinetic, basis.level_codes, decay, shifts[k],
             tuple(envelopes[first[k]:first[k + 1]]),
             peak[first[k]:first[k + 1]],
             *(a[start[kind[k]]:stop[kind[k]]]
               for a in (index, partner, code)),
             values[first[k]:first[k + 1]], rates[first[k]:first[k + 1]],
             batches.get(k, ()), sweeps.get(k, ()))
            for k in range(len(epochs)))


def compile_plan(basis: Basis, epochs, atom: AtomParams,
                 decay_rate: float) -> Iterator[tuple]:
    """The plan pass: the tables of each of ``epochs`` on ``basis``, with
    one coupling family per event; a Raman tone with an array bias
    detuning or phase gives one batch member per entry.

    Along an axis where the basis holds one rung (the cross axis of an
    arm's lattice), every anchored level is anchored on that rung: the
    frame then subtracts the arm's own transverse kinetic energy, a
    common-mode term that would add only a global phase but would still
    throttle the step size.  Levels without an anchor stay unshifted.
    """
    (z_lo, z_hi), (x_lo, x_hi) = basis.window_z(), basis.window_x()
    return _plan_pass(basis, [(epoch.events, {
        level: (z_lo if z_lo == z_hi else n_z, x_lo if x_lo == x_hi else n_x)
        for level, (n_z, n_x) in epoch.anchors.items()}) for epoch in epochs],
        atom, decay_rate)


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
