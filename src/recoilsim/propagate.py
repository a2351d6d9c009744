"""Norm-preserving propagation of lattice wavefunctions.

Classic fixed-step fourth-order Runge-Kutta on the Schrodinger equation.
The step size is validated against an explicit stability bound and chosen
conservatively enough that norm drift stays below 1e-9 per step without any
renormalization tricks; norm is checked, never silently repaired.

Each lattice's epochs are compiled in one plan pass when a plan starts
(``hamiltonian.compile_plan``), which refuses an event outside the basis
before the first step, and in one more for the epochs left after its
window grows; each epoch's operator is assembled from the pass's tables
as the epoch comes up.  The states fall into small blocks that no
coupling crosses (``EpochHamiltonian.blocks``).  A member's active set
is the blocks of its support, and ``_rk4`` steps the active states of
every member of a batch (a detuning scan, the arms of a pulse stage) as
one vector, in runs that each family couples to one whole partner run.

Most of an epoch's work outside the step loop is per member group, on
arrays of a few states, so each group costs a fixed number of small
numpy calls: the epoch's envelopes are sampled for the bounds once for
every lattice (``EpochHamiltonian.window_samples``), and an unbatched
operator with one live family takes its bound from that family's
largest sample, with no sum; a lone part is laid out as it is, a lone
member is gathered by basic indexing, and one bound gives its step as a
float, not an array.  ``ckernel.bind`` keeps its verdict on the runs and
partners of the last distinct layouts, keyed by their bytes.

The step loop runs in C (``ckernel``, ``_rk4.c``), one chunk of steps per
call, on split real and imaginary arrays: each RK4 substage is one pass
per run, which the compiler vectorizes and which takes each element from
H psi to its RK4 update in registers.  The numpy loop (``_numpy_loop``),
whose every step costs a few dozen calls of interpreter overhead whatever
the vector size, stays as the fallback where no build matches numpy's
complex rounding and as the C loop's bit-for-bit oracle.  Nothing else
exists twice: ``_rk4`` lays the operator out once for both (``_runs``
keeps the last distinct layouts), and one chunk loop tabulates the
substage times and envelopes per chunk of steps, evaluated once on an
array of times; ``EpochHamiltonian.envelope_table`` fills the envelopes
in one C call (``PulseEnvelope.value``, its oracle, without a kernel).
The phase ramps e^{i rate t} are made inside each loop, for each
substage time: the C loop takes one ``sincos`` per coupled pair and the
conjugate for the partner, the numpy loop one ``exp`` per element
(``_phase_rows``).  Every element is computed exactly as a per-family
loop computes it, so results are bit-identical to that loop, whatever
the chunk size or the state order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import Basis, WaveFunction, prune_dust, span_window
from .errors import ConfigurationError, IntegrationError
from .hamiltonian import EpochHamiltonian, compile_from_epoch, compile_plan
from .params import AtomParams
from .pulses import Epoch, SequencePlan

STABILITY_LIMIT = 0.1       # dt * max |H element| must stay below this
DEFAULT_DT_FACTOR = 32.0    # default dt = 1 / (factor * spectral bound)
NORM_TOL_PER_STEP = 1e-9
BOUNDARY_TOL = 1e-10        # population near the window edge triggering growth
EXTEND_BY = 8               # rungs added per auto-extension
MAX_STATES = 40_000         # basis size an auto-extension may not exceed
MAX_STEPS_PER_EPOCH = 10 ** 7   # RK4 steps one epoch may ask for
ENVELOPE_CHUNK = 2048       # steps whose envelopes are tabulated at once


def check_stability(hamiltonian: EpochHamiltonian, dt: float) -> None:
    peak = hamiltonian.max_element()
    if (dt * peak > STABILITY_LIMIT).any():
        raise IntegrationError(
            f"dt={dt:.3e} s violates the stability bound "
            f"dt*max|H| <= {STABILITY_LIMIT}")


def _dt_caps(bound, dt_factor: float):
    """1 / (dt_factor * bound), per member for a batch; inf where the
    operator vanishes.  One bound gives a float, by the division numpy
    makes."""
    if np.ndim(bound) == 0:
        scaled = float(dt_factor * bound)
        return 1.0 / scaled if scaled else math.copysign(math.inf, scaled)
    with np.errstate(divide="ignore"):
        return 1.0 / (dt_factor * np.asarray(bound, dtype=np.float64))


def default_dt(hamiltonian: EpochHamiltonian,
               dt_factor: float = DEFAULT_DT_FACTOR,
               t0: float | None = None, t1: float | None = None) -> float:
    """Default step; for a batch, that of the member with the largest
    bound, i.e. the finest."""
    caps = _dt_caps(hamiltonian.row_bound(t0, t1), dt_factor)
    return caps if isinstance(caps, float) else float(caps.min())


def _step_count(duration: float, dt_cap):
    """Equal RK4 steps covering ``duration`` with none above ``dt_cap``:
    an int, or a list of them for an array of caps; a count that is not
    finite or exceeds MAX_STEPS_PER_EPOCH is an error."""
    if isinstance(dt_cap, float) and dt_cap > 0.0:
        # ceil(x) <= MAX_STEPS_PER_EPOCH exactly when x is
        steps = duration / dt_cap
        if steps <= MAX_STEPS_PER_EPOCH:
            return max(1, math.ceil(steps))
    with np.errstate(divide="ignore"):
        steps = np.ceil(duration / np.asarray(dt_cap))
    if not np.all(steps <= MAX_STEPS_PER_EPOCH):
        raise IntegrationError(
            f"an epoch needs {np.max(steps):.3e} RK4 steps, over the budget "
            f"of {MAX_STEPS_PER_EPOCH}")
    return np.maximum(1, steps).astype(np.int64).tolist()


@dataclass
class EvolveResult:
    psi: WaveFunction | list    # in the form evolve_plan was given
    loss: float | list          # population removed by decay, if enabled
                                # (per member for a batch)
    samples: list               # observer outputs in time order
    steps: int


def evolve_plan(psi: WaveFunction | list, plan: SequencePlan,
                atom: AtomParams, decay_rate: float = 0.0,
                dt_factor: float = DEFAULT_DT_FACTOR,
                observer=None, observe_per_epoch: int = 0) -> EvolveResult:
    """Integrate wavefunctions through every epoch of a sequence plan.

    ``psi`` is one wavefunction or a list of them, each on its own basis,
    all run under the one ``plan``; each epoch is compiled on each basis
    (``compile_from_epoch``) from one plan pass per basis
    (``compile_plan``), which gauges the frame to the basis's one-rung
    axis, if any.  The pass is made when the plan starts, so that an event
    outside a basis is refused before the first step, and again for the
    epochs left after the basis grows.
    A wavefunction may hold a batch of members (B, n), such as one state
    under a pulse compiled at B detunings; then its ``psi`` and ``loss`` in
    the result are per member too.  The result holds ``psi`` and ``loss``
    in the form they were given.

    In every epoch each basis is compiled once, its envelopes are sampled
    for the bounds once for every basis, and each member gets its own
    active set, and with it its own reduced operator, bound, step count,
    norm check and dust prune.  Members with the same active set
    share one reduced operator, and all with the same envelopes and step
    count run as one batch through the one RK4 loop; every operation is
    elementwise, so each member does the arithmetic of a run on its own;
    ``steps`` counts loop iterations.  Observers need a single
    wavefunction.

    The basis of a wavefunction grows automatically whenever more than
    BOUNDARY_TOL of the population of any of its members reaches the edge
    of the momentum window; exceeding MAX_STATES is a hard error rather
    than a silent truncation.  A member far from that edge keeps the bits
    of a run on its own basis, as its active blocks, and with them its
    reduced operator, are the same on the grown basis.
    """
    single = isinstance(psi, WaveFunction)
    psis = [psi] if single else list(psi)
    if not psis:
        raise ConfigurationError("no wavefunction to evolve")
    if observer is not None and not (single and psi.amplitudes.ndim == 1):
        raise ConfigurationError("observers need a single wavefunction")
    bases = [p.basis for p in psis]
    amps = [np.array(p.amplitudes, ndmin=2) for p in psis]   # copies
    t = max(p.time for p in psis)
    samples = []
    total_steps = 0
    # each lattice's tables of the epochs to come; a grown window drops
    # them, and the next epoch passes the rest of the plan anew
    tables = [compile_plan(basis, plan.epochs, atom, decay_rate)
              for basis in bases]

    for k, epoch in enumerate(plan.epochs):
        if epoch.t_start < t - 1e-15:
            raise ConfigurationError(
                f"epoch {epoch.label!r} starts at {epoch.t_start} before "
                f"current time {t}")
        t = epoch.t_start
        # restrict each member to the blocks of its support (the rest stays
        # an exact zero); members alike share one reduced operator, and all
        # that share the envelopes and a step count run as one batch
        batches, sampled = {}, None
        for b, basis in enumerate(bases):
            if tables[b] is None:
                tables[b] = compile_plan(basis, plan.epochs[k:], atom,
                                         decay_rate)
            compiled = compile_from_epoch(*next(tables[b]))
            # every lattice's operator has the epoch's families: their
            # envelopes are sampled for the bounds once an epoch
            if sampled is None:
                sampled = compiled.window_samples(epoch.t_start, epoch.t_end)
            compiled.samples = sampled
            active = compiled.active_mask(amps[b])
            alike = {}
            for r, row in enumerate(active):
                if row.any():       # a member with no amplitude stays put
                    alike.setdefault(row.tobytes(), []).append(r)
            for rows in alike.values():
                idx = active[rows[0]].nonzero()[0]
                h = compiled if len(idx) == len(basis) else \
                    compiled.reduced(idx)
                dt_cap = default_dt(h, dt_factor, epoch.t_start, epoch.t_end)
                bound = h.row_bound(epoch.t_start, epoch.t_end)
                if np.ndim(bound):
                    # members share the finest step unless their own bounds
                    # move them across a step edge; each keeps its own count
                    counts = _step_count(epoch.duration,
                                         _dt_caps(bound, dt_factor)[rows])
                else:
                    counts = [_step_count(epoch.duration, dt_cap)] * len(rows)
                for count in sorted(set(counts)):
                    members = [r for r, c in zip(rows, counts) if c == count]
                    # a lone member's row as a slice: the same
                    # C-contiguous copy as np.ix_ gives, in fewer calls
                    at = (slice(members[0], members[0] + 1), idx) \
                        if len(members) == 1 else np.ix_(members, idx)
                    batches.setdefault((h.envelopes, count), []).append(
                        (h, amps[b][at], members, b, at))

        for (_, count), batch in batches.items():
            observe = None
            if observer is not None and observe_per_epoch:
                full, ((_, work, _, _, (_, support)),) = amps[0][0], batch

                def observe(t):
                    full[support] = work[0]
                    samples.append(observer(t, WaveFunction(bases[0],
                                                            full.copy(), t)))
            norms = [(abs(part[1]) ** 2).sum(axis=-1) for part in batch]
            t = _rk4([part[:3] for part in batch], epoch, count, observe,
                     observe_per_epoch)
            total_steps += count
            for (_, work, _, b, at), norm in zip(batch, norms):
                drift = abs((abs(work) ** 2).sum(axis=-1) - norm)
                if decay_rate == 0.0 and (
                        drift > NORM_TOL_PER_STEP * count).any():
                    raise IntegrationError(
                        f"norm drifted by {np.max(drift):.3e} over epoch "
                        f"{epoch.label!r}; reduce the step size")
                # drop sub-floor dust so dead rungs cannot re-enter the
                # active set (and the stability bound) of later epochs
                prune_dust(work)
                amps[b][at] = work

        for b, basis in enumerate(bases):
            edge = WaveFunction(basis, amps[b]).boundary_population(2)
            if (edge > BOUNDARY_TOL).any():
                bases[b], amps[b] = _extend(basis, amps[b])
                tables[b] = None

    finals = [WaveFunction(basis, a if p.amplitudes.ndim > 1 else a[0], t)
              for basis, a, p in zip(bases, amps, psis)]
    losses = [np.maximum(0.0, 1.0 - f.total_population()) if decay_rate
              else 0.0 for f in finals]
    return EvolveResult(psi=finals[0] if single else finals,
                        loss=losses[0] if single else losses,
                        samples=samples, steps=total_steps)


def _rk4(parts, epoch: Epoch, n_steps: int, observe=None,
         observe_per_epoch: int = 0) -> float:
    """Classic RK4 over the epoch in ``n_steps`` equal steps; returns the
    end time.  Each of ``parts``, (h, work, rows), steps ``work`` ((n,) or
    (B, n), C-contiguous complex128) in place under the member rows
    ``rows`` of ``h``, one for each row of ``work``; all share their
    envelopes.

    All rows are laid out once, block-major (``_layout``), for either step
    loop: states and diagonal (N,), runs, and pattern and rate rows (F, N),
    the rates only when a family has one; the order is undone before each
    observer call and on return.  A lone part is laid out from its own
    arrays, its states a view of its ``work``.  Times and envelopes are
    tabulated from their step indices, ENVELOPE_CHUNK steps at a time, and
    each chunk runs to each observer stop in the C loop where
    ``ckernel.load`` gives one, in ``_numpy_loop`` otherwise; each loop
    makes its phase ramps from the rates and the times step by step: no
    chunk size or state order is in the bits.  A lone state that a family couples is refused, as numpy
    rounds a product of 1-element arrays as the C loop does not.
    """
    dt = epoch.duration / n_steps
    views, columns, offset = [], [], 0
    for h, work, rows in parts:
        if not (work.flags.c_contiguous and work.dtype == np.complex128):
            raise ValueError("the states must be C-contiguous complex128")
        check_stability(h, dt)
        view = work.reshape(-1, work.shape[-1])
        views.append((view, offset))
        diag = h._diag_complex
        if len(view) == 1 and diag.ndim == 1 and h.pattern.ndim == 2:
            # the one member of an unbatched operator: its own rows
            columns.append((view.reshape(-1), diag,
                            h.blocks() + offset, h.perm + offset, h.pattern,
                            h.rate))
        else:
            # each member row: the states of one operator, in turn
            shift = offset + view.shape[1] * np.arange(len(view))[:, None]
            columns.append([a.reshape(a.shape[:-2] + (view.size,)) for a in (
                view, _member_rows(diag, rows, 0),
                h.blocks() + shift, h.perm[:, None] + shift,
                _member_rows(h.pattern, rows, 1),
                _member_rows(h.rate, rows, 1))])
        offset += view.size
    # one part is laid out as it is: its states are a view of ``work``
    flat, diag, labels, perm, pattern, rate = columns[0] if len(parts) == 1 \
        else (np.concatenate(arrays, axis=-1) for arrays in zip(*columns))
    order, starts, partner = _runs(labels.tobytes(), perm.tobytes(),
                                   len(labels))
    states, diag, pattern = (a[..., order] for a in (flat, diag, pattern))

    def unpermute():
        flat[order] = states
        if len(views) > 1:
            for view, start in views:
                view[...] = flat[start:start + view.size].reshape(view.shape)

    if states.size == 1 and pattern.any():
        # numpy's FMA kernels do not fuse a product of 1-element arrays,
        # so the two loops would round a lone coupled state apart
        raise ValueError("a family couples a lone state")
    stride = max(1, n_steps // observe_per_epoch) if observe else 0
    coef = np.array([-0.5j * dt, -1j * dt, -1j * dt / 6.0, 2.0])
    from . import ckernel     # not at import: the loader is run-time only
    steps = (ckernel.load() or _numpy_loop)(
        states, diag, starts, partner, pattern,
        rate[..., order] if rate.any() else None, coef)
    # the batches of evolve_plan are keyed by the envelopes, so every part
    # shares the first one's
    shared = parts[0][0]
    for k0 in range(0, n_steps, ENVELOPE_CHUNK):
        k_stop = min(k0 + ENVELOPE_CHUNK, n_steps)
        # the times of the step loop: each step starts where the last ended
        bounds = epoch.t_start + np.arange(k0, k_stop + 1) * epoch.duration \
            / n_steps
        t = bounds[:-1]
        mid = t + 0.5 * dt
        # clamp: rounding must not push the last substage past the
        # envelope window (a square edge there breaks the error order)
        end = np.minimum(t + dt, epoch.t_end)
        times = np.concatenate([t, mid, end])
        table = shared.envelope_table(times)
        times = times.reshape(3, -1)
        done = k0
        while done < k_stop:
            stop = min(k_stop, (done // stride + 1) * stride) \
                if stride else k_stop
            steps(table, times, k_stop - k0, done - k0, stop - k0)
            done = stop
            if stride and (done % stride == 0 or done == n_steps):
                unpermute()
                observe(float(bounds[done - k0]))
    unpermute()
    return float(bounds[-1])


def _member_rows(a: np.ndarray, rows: np.ndarray, axis: int) -> np.ndarray:
    """The member rows ``rows`` of ``a`` along its member ``axis`` (0 of a
    diagonal, 1 of family rows), or ``a`` repeated if it has none."""
    if a.ndim > axis + 1:
        return a.take(rows, axis)
    return a.reshape(a.shape[:axis] + (1,) + a.shape[axis:]).repeat(
        len(rows), axis)


@lru_cache(maxsize=16)     # raman2d makes 7 distinct layouts
def _runs(labels: bytes, perm: bytes, n: int):
    """``_layout`` of ``n`` states with block labels and (F, n) partners
    given as the bytes of int64 arrays, kept for the last distinct ones,
    as the parts of a lattice repeat them epoch after epoch."""
    return _layout(np.frombuffer(labels, dtype=np.int64),
                   np.frombuffer(perm, dtype=np.int64).reshape(-1, n))


def _layout(labels: np.ndarray, perm: np.ndarray):
    """Block-major order of states with block ``labels`` and partners
    ``perm`` (F, n): ``order``, the state at each position; ``starts`` of
    the runs, then the count; ``partner`` (F, runs), each family's partner
    run of each run.  A kind (blocks of one size and coupling) takes one
    run for each position in its blocks, so each family's partner of a run
    is a run.  All three are read-only, as ``_runs`` shares them."""
    by_block = np.argsort(labels, kind="stable")
    grouped = labels[by_block]
    size = np.bincount(labels, minlength=len(labels))[grouped]
    position = np.empty_like(labels)
    position[by_block] = np.arange(len(labels)) - np.searchsorted(grouped,
                                                                  grouped)
    order, starts, partner = [], [0], []
    for s in sorted(set(size.tolist())):
        blocks = by_block[size == s].reshape(-1, s)
        # each family's partner, as a position, of each position of a block
        kinds = {}
        for b, shape in enumerate(position[perm[:, blocks]]
                                  .transpose(1, 0, 2).reshape(len(blocks), -1)
                                  .tolist()):
            kinds.setdefault(tuple(shape), []).append(b)
        for shape, kind in kinds.items():
            runs = blocks[kind].T
            partner.append(len(starts) - 1 + np.array(
                shape, dtype=np.int64).reshape(-1, s))
            order += list(runs)
            starts += [starts[-1] + runs.shape[1] * j for j in range(1, s + 1)]
    runs = (np.concatenate(order), np.array(starts),
            np.concatenate(partner, axis=1))
    for a in runs:
        a.flags.writeable = False
    return runs


def _phase_rows(rate: np.ndarray, times: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """e^{i rate t} of every family row at each of ``times``, written to
    ``out`` (shaped ``times.shape + rate.shape``) and returned; each row is
    exactly what ``exp(1j * t * rate)`` gives.

    Each 1j * t is spread over ``out`` and multiplied there by the rates,
    which makes no temporary copy of them, in the operand order of
    ``1j * t * rate``: on numpy's FMA kernels (0 + it)(rate + 0i) and
    (rate + 0i)(0 + it) fuse different products, and so differ in the sign
    of an angle rate * t that underflows to zero."""
    out[...] = (1j * times).reshape(times.shape + (1,) * rate.ndim)
    out *= rate
    return np.exp(out, out=out)


class _numpy_loop:
    """``ckernel.bind``'s chunk runner, in numpy.

    H psi is one ``take`` of every family's partners (the runs expanded
    into one index), one multiply each for the patterns, a row of phase
    ramps and a column of envelope values, and one add per family row onto
    the diagonal term, in family order.  Each step fills its three rows of
    ramps, at its start, middle and end, with ``_phase_rows``.  k4 reuses
    k3's buffer once k2 + k3 is taken.  The -i of the Schrodinger equation
    rides on the step coefficients: a product with -i only swaps and
    negates components, so each element is exactly -i H psi scaled by a
    real coefficient.
    """

    def __init__(self, states, diag, starts, partner, pattern, rate, coef):
        self.states, self.diag = states, diag
        self.partner = np.arange(len(states)) + np.repeat(
            starts[partner] - starts[:-1], starts[1:] - starts[:-1], axis=-1)
        self.pattern, self.rate = pattern, rate
        self.phases = None if rate is None else \
            np.empty((3,) + rate.shape, dtype=np.complex128)
        self.coef = coef[:3]
        self.scratch = np.empty((4,) + states.shape, dtype=np.complex128)
        self.gathered = np.empty(self.partner.shape, dtype=np.complex128)
        self.rows = list(self.gathered)

    def _apply(self, psi, out, envelope, phase):
        """out = H psi at the time of the ``envelope`` column and the
        ``phase`` rows (None when no family has a rate)."""
        np.multiply(self.diag, psi, out=out)
        if not self.rows:
            return
        gathered = self.gathered
        psi.take(self.partner, out=gathered, mode="clip")
        gathered *= self.pattern
        if phase is not None:
            gathered *= phase
        gathered *= envelope
        for row in self.rows:
            out += row

    def __call__(self, table, times, m, lo, hi):
        work, (k1, k2, k3, y) = self.states, self.scratch
        half, full, sixth = self.coef
        envelopes = table.T.astype(np.complex128) \
            .reshape((3, m, len(table), 1))
        p_s = p_m = p_e = None
        for j in range(lo, hi):
            e_s, e_m, e_e = envelopes[:, j]
            if self.rate is not None:
                p_s, p_m, p_e = _phase_rows(self.rate, times[:, j],
                                            self.phases)
            self._apply(work, k1, e_s, p_s)
            np.multiply(k1, half, out=y)
            y += work
            self._apply(y, k2, e_m, p_m)
            np.multiply(k2, half, out=y)
            y += work
            self._apply(y, k3, e_m, p_m)
            np.multiply(k3, full, out=y)
            y += work
            k2 += k3
            self._apply(y, k3, e_e, p_e)       # k4
            k2 *= 2.0
            k2 += k1
            k2 += k3
            k2 *= sixth
            work += k2


def _extend(basis: Basis, amps: np.ndarray):
    # a one-rung axis is the cross axis of the run: nothing moves along it
    def grown(lo, hi):
        return range(lo, hi + 1) if lo == hi else \
            range(lo - EXTEND_BY, hi + EXTEND_BY + 1)
    window_z = grown(*basis.window_z())
    window_x = grown(*basis.window_x())
    levels = basis.levels
    new_size = len(levels) * len(window_z) * len(window_x)
    if new_size > MAX_STATES:
        raise ConfigurationError(
            f"momentum window extension needs {new_size} states, over the "
            f"budget of {MAX_STATES}")
    new_basis = Basis(levels, window_z, window_x)
    moved = WaveFunction(basis, amps).project_onto(new_basis)
    return new_basis, moved.amplitudes


def ladder_basis(levels, rungs) -> Basis:
    """Convenience basis spanning a set of z rungs plus guard bands of
    three rungs."""
    return Basis(levels, span_window(rungs, 3), (0,))
