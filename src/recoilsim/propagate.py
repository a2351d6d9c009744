"""Norm-preserving propagation of lattice wavefunctions.

Classic fixed-step fourth-order Runge-Kutta on the Schrodinger equation.
The step size is validated against an explicit stability bound and chosen
conservatively enough that norm drift stays below 1e-9 per step without any
renormalization tricks; norm is checked, never silently repaired.

The one RK4 loop works on a leading batch axis: a whole detuning scan is
one batch of members sharing a compiled operator, and the arms of one pulse
stage, each compiled on its own lattice, are stacked into one batch
wherever their reduced operators couple alike.

The vectors are short (2 to a few hundred states), so the step loop runs
in C (``ckernel``, ``_rk4.c``), one chunk of steps per call; the numpy
loop below, whose every step costs a few dozen calls of interpreter
overhead whatever the vector size, stays as the fallback where no build
matches numpy's complex rounding and as the C loop's bit-for-bit oracle.
Both take their operator in one form: a compiled operator holds its
coupling families stacked, so that one gather serves all of them
(``StepOperator`` adds only the batch offsets and scratch buffers of the
work shape), and the substage times, envelopes and phase ramps are
tabulated per chunk of steps in Python, each envelope and ramp evaluated
once on an array of times.  Every element is computed exactly as a
per-family loop computes it, so results are bit-identical to that loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .basis import Basis, WaveFunction, prune_dust, span_window
from .errors import ConfigurationError, IntegrationError
from .hamiltonian import (EpochHamiltonian, StepOperator, compile_from_epoch,
                          stack)
from .params import AtomParams
from .pulses import Epoch, SequencePlan

STABILITY_LIMIT = 0.1       # dt * max |H element| must stay below this
DEFAULT_DT_FACTOR = 32.0    # default dt = 1 / (factor * spectral bound)
NORM_TOL_PER_STEP = 1e-9
BOUNDARY_TOL = 1e-10        # population near the window edge triggering growth
EXTEND_BY = 8               # rungs added per auto-extension
MAX_STATES = 40_000         # basis size an auto-extension may not exceed
MAX_STEPS_PER_EPOCH = 10 ** 7   # RK4 steps one epoch may ask for
ENVELOPE_CHUNK = 128        # steps whose envelopes are tabulated at once
PHASE_TABLE_ELEMENTS = 2 ** 12  # ramps in one substage's phase table: caps
                                # the chunk of an operator with a rate, and
                                # with it the tables' memory


def check_stability(hamiltonian: EpochHamiltonian, dt: float) -> None:
    peak = hamiltonian.max_element()
    if np.any(dt * peak > STABILITY_LIMIT):
        raise IntegrationError(
            f"dt={dt:.3e} s violates the stability bound "
            f"dt*max|H| <= {STABILITY_LIMIT}")


def _dt_caps(bound, dt_factor: float):
    """1 / (dt_factor * bound), per member for a batch; inf where the
    operator vanishes."""
    with np.errstate(divide="ignore"):
        return 1.0 / (dt_factor * np.asarray(bound, dtype=np.float64))


def default_dt(hamiltonian: EpochHamiltonian,
               dt_factor: float = DEFAULT_DT_FACTOR,
               t0: float | None = None, t1: float | None = None) -> float:
    """Default step; for a batch, that of the member with the largest
    bound, i.e. the finest."""
    return float(np.min(_dt_caps(hamiltonian.row_bound(t0, t1), dt_factor)))


def _step_count(duration: float, dt_cap):
    """Equal RK4 steps covering ``duration`` with none above ``dt_cap``;
    a count that is not finite or exceeds MAX_STEPS_PER_EPOCH is an
    error."""
    with np.errstate(divide="ignore"):
        steps = np.ceil(duration / np.asarray(dt_cap))
    if not np.all(steps <= MAX_STEPS_PER_EPOCH):
        raise IntegrationError(
            f"an epoch needs {np.max(steps):.3e} RK4 steps, over the budget "
            f"of {MAX_STEPS_PER_EPOCH}")
    return np.maximum(1, steps).astype(np.int64)


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
    all run under the one ``plan``; each epoch is compiled on each basis,
    whose one-rung axis, if any, gauges the frame (``compile_from_epoch``).
    A wavefunction may hold a batch of members (B, n), such as one state
    under a pulse compiled at B detunings; then its ``psi`` and ``loss`` in
    the result are per member too.  The result holds ``psi`` and ``loss``
    in the form they were given.

    In every epoch each member gets its own active set, and with it its
    own reduced operator, bound, step count, norm check and dust prune.
    Members whose reduced operators couple alike and whose step counts
    agree run as one batch through the one RK4 loop; every operation is
    elementwise over the members, so each member does exactly the
    arithmetic of a run on its own; ``steps`` counts loop iterations.
    Observers need a single wavefunction.

    The basis of a wavefunction grows automatically whenever more than
    BOUNDARY_TOL of the population of any of its members reaches the edge
    of the momentum window; exceeding MAX_STATES is a hard error rather
    than a silent truncation.
    """
    single = isinstance(psi, WaveFunction)
    psis = [psi] if single else list(psi)
    if observer is not None and not (single and psi.amplitudes.ndim == 1):
        raise ConfigurationError("observers need a single wavefunction")
    bases = [p.basis for p in psis]
    amps = [np.array(p.amplitudes, ndmin=2) for p in psis]   # copies
    t = max(p.time for p in psis)
    samples = []
    total_steps = 0

    for epoch in plan.epochs:
        if epoch.t_start < t - 1e-15:
            raise ConfigurationError(
                f"epoch {epoch.label!r} starts at {epoch.t_start} before "
                f"current time {t}")
        t = epoch.t_start
        # restrict each member to the states reachable from its support:
        # everything else holds an exact zero and cannot change during this
        # epoch.  Members whose restrictions couple alike share one batch.
        batches = {}
        for b, basis in enumerate(bases):
            compiled = compile_from_epoch(basis, epoch, atom, decay_rate)
            active = compiled.active_mask(amps[b])
            alike = {}
            for r, row in enumerate(active):
                alike.setdefault(row.tobytes(), []).append(r)
            for rows in alike.values():
                idx = np.flatnonzero(active[rows[0]])
                op = compiled.members(rows)
                if len(idx) < len(basis):
                    op = op.reduced(idx)
                batches.setdefault(op.structure, []).append((op, b, rows, idx))

        for parts in batches.values():
            h = parts[0][0] if len(parts) == 1 else stack(
                [op for op, *_ in parts], [len(part[2]) for part in parts])
            work = np.concatenate([amps[b][np.ix_(rows, idx)]
                                   for _, b, rows, idx in parts])
            if len(work) == 1:
                work = work[0]
            dt_cap = default_dt(h, dt_factor, epoch.t_start, epoch.t_end)
            if h.batched:
                # members share the finest step unless their own bounds
                # move them across a step edge; each keeps its own count
                dt_cap = _dt_caps(h.row_bound(epoch.t_start, epoch.t_end),
                                  dt_factor)
            n_steps = np.broadcast_to(_step_count(epoch.duration, dt_cap),
                                      work.shape[:-1])

            observe = None
            if observer is not None and observe_per_epoch:
                full, support = amps[0][0], parts[0][3]

                def observe(t):
                    full[support] = work
                    samples.append(observer(t, WaveFunction(bases[0],
                                                            full.copy(), t)))

            norm_before = np.sum(np.abs(work) ** 2, axis=-1)
            counts = sorted(set(n_steps.flat))
            for count in counts:
                if len(counts) == 1:
                    t = _rk4(h, work, epoch, int(count), observe,
                             observe_per_epoch)
                else:
                    rows = np.flatnonzero(n_steps == count)
                    part = work[rows]
                    t = _rk4(h.members(rows), part, epoch, int(count))
                    work[rows] = part
                total_steps += int(count)

            norm_after = np.sum(np.abs(work) ** 2, axis=-1)
            if decay_rate == 0.0:
                drift = np.abs(norm_after - norm_before)
                if np.any(drift > NORM_TOL_PER_STEP * n_steps):
                    raise IntegrationError(
                        f"norm drifted by {np.max(drift):.3e} over epoch "
                        f"{epoch.label!r}; reduce the step size")
            # drop sub-floor dust so dead rungs cannot re-enter the active
            # set (and with it the stability bound) of later epochs
            prune_dust(work)

            start = 0
            for _, b, rows, idx in parts:
                amps[b][np.ix_(rows, idx)] = \
                    np.atleast_2d(work)[start:start + len(rows)]
                start += len(rows)

        for b, basis in enumerate(bases):
            edge = WaveFunction(basis, amps[b]).boundary_population(2)
            if np.any(edge > BOUNDARY_TOL):
                bases[b], amps[b] = _extend(basis, amps[b])

    finals = [WaveFunction(basis, a if p.amplitudes.ndim > 1 else a[0], t)
              for basis, a, p in zip(bases, amps, psis)]
    losses = [np.maximum(0.0, 1.0 - f.total_population()) if decay_rate
              else 0.0 for f in finals]
    return EvolveResult(psi=finals[0] if single else finals,
                        loss=losses[0] if single else losses,
                        samples=samples, steps=total_steps)


def _rk4(h: EpochHamiltonian, work: np.ndarray, epoch: Epoch, n_steps: int,
         observe=None, observe_per_epoch: int = 0) -> float:
    """Classic RK4 over the epoch in ``n_steps`` equal steps, in place on
    ``work`` (members x states); returns the end time.

    The substage times, every envelope and every phase ramp on them are
    tabulated for up to ENVELOPE_CHUNK steps at a time, with at most
    PHASE_TABLE_ELEMENTS ramps per substage.  The steps of a chunk run in
    the C kernel where ``ckernel.load`` gives one, split wherever the
    observer is due, and in the numpy loop below otherwise; the two agree
    bit for bit.  k4 reuses k3's buffer once k2 + k3 is taken.  The stages
    are H psi, and the -i of the Schrodinger equation rides on the step
    coefficients: a product with -i only swaps and negates components, so
    each element is exactly what -i H psi scaled by a real coefficient
    gives.
    """
    dt = epoch.duration / n_steps
    check_stability(h, dt)
    stride = max(1, n_steps // observe_per_epoch) if observe else 0
    op = StepOperator(h, work.shape)
    if op.rate is None:
        chunk, phases = ENVELOPE_CHUNK, (repeat(None),) * 3
    else:
        # one table of phase rows per substage, filled anew for each chunk
        chunk = max(1, min(ENVELOPE_CHUNK,
                           PHASE_TABLE_ELEMENTS // op.rate.size))
        phases = [np.empty((chunk,) + op.rate.shape, dtype=np.complex128)
                  for _ in range(3)]
    half, full, sixth = (np.array(c) for c in
                         (-0.5j * dt, -1j * dt, -1j * dt / 6.0))
    from . import ckernel     # not at import: the loader is run-time only
    kernel = ckernel.load() if work.flags.c_contiguous and \
        work.dtype == np.complex128 else None
    if kernel is not None:
        members, n = work.size // work.shape[-1], work.shape[-1]
        perm = np.ascontiguousarray(h.perm, dtype=np.int64)
        if perm.size and not 0 <= perm.min() <= perm.max() < n:
            raise ValueError("partner index outside the states")
        # a family's row shared by the members is read with a member stride
        # of 0; the phase tables hold their rows laid out as the pattern
        pattern = np.ascontiguousarray(h.pattern, dtype=np.complex128)
        rows = pattern.shape[1] if pattern.ndim > 2 else 1
        if rows not in (1, members):
            raise ValueError("pattern rows do not match the members")
        coef = np.array([half, full, sixth, 2.0])
        scratch = np.empty((4,) + work.shape, dtype=np.complex128)
        fixed = (members, n, len(perm), work.ctypes.data, op.diag.ctypes.data,
                 perm.ctypes.data, pattern.ctypes.data, rows * n,
                 n if rows > 1 else 0,
                 *(None if op.rate is None else p.ctypes.data
                   for p in phases),
                 coef.ctypes.data, scratch.ctypes.data)
    else:
        k1 = np.empty_like(work)
        k2 = np.empty_like(work)
        k3 = np.empty_like(work)
        y = np.empty_like(work)
    for k0 in range(0, n_steps, chunk):
        k_stop = min(k0 + chunk, n_steps)
        # the times of the step loop: each step starts where the last ended
        bounds = epoch.t_start + np.arange(k0, k_stop + 1) * epoch.duration \
            / n_steps
        t = bounds[:-1]
        mid = t + 0.5 * dt
        # clamp: rounding must not push the last substage past the
        # envelope window (a square edge there breaks the error order)
        end = np.minimum(t + dt, epoch.t_end)
        table = h.envelope_table(np.concatenate([t, mid, end]))
        if op.rate is not None:
            for times, phase in zip((t, mid, end), phases):
                op.phase_table(times, phase[:k_stop - k0])
        if kernel is not None:
            done = k0
            while done < k_stop:
                stop = min(k_stop, (done // stride + 1) * stride) \
                    if stride else k_stop
                kernel(*fixed, table.ctypes.data, k_stop - k0, done - k0,
                       stop - k0)
                done = stop
                if stride and (done % stride == 0 or done == n_steps):
                    observe(float(bounds[done - k0]))
            continue
        envelopes = table.T.astype(np.complex128) \
            .reshape((3, k_stop - k0) + op.column)
        for k, e_s, e_m, e_e, p_s, p_m, p_e in zip(
                range(k0 + 1, k_stop + 1), *envelopes, *phases):
            op.apply(work, k1, e_s, p_s)
            np.multiply(k1, half, out=y)
            y += work
            op.apply(y, k2, e_m, p_m)
            np.multiply(k2, half, out=y)
            y += work
            op.apply(y, k3, e_m, p_m)
            np.multiply(k3, full, out=y)
            y += work
            k2 += k3
            op.apply(y, k3, e_e, p_e)       # k4
            k2 *= 2.0
            k2 += k1
            k2 += k3
            k2 *= sixth
            work += k2
            if stride and (k % stride == 0 or k == n_steps):
                observe(float(bounds[k - k0]))
    return float(bounds[-1])


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
