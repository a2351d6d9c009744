"""Norm-preserving propagation of lattice wavefunctions.

Classic fixed-step fourth-order Runge-Kutta on the Schrodinger equation.
The step size is validated against an explicit stability bound and chosen
conservatively enough that norm drift stays below 1e-9 per step without any
renormalization tricks; norm is checked, never silently repaired.

The one RK4 loop works on a leading batch axis: a wavefunction is a batch
of one, and a whole detuning scan is one batch of members sharing a
compiled operator, integrated in one pass of the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Basis, WaveFunction, prune_dust, span_window
from .errors import ConfigurationError, IntegrationError
from .hamiltonian import EpochHamiltonian, compile_from_epoch
from .params import AtomParams
from .pulses import Epoch, SequencePlan

STABILITY_LIMIT = 0.1       # dt * max |H element| must stay below this
DEFAULT_DT_FACTOR = 32.0    # default dt = 1 / (factor * spectral bound)
NORM_TOL_PER_STEP = 1e-9
BOUNDARY_TOL = 1e-10        # population near the window edge triggering growth
EXTEND_BY = 8               # rungs added per auto-extension
DEFAULT_MAX_STATES = 40_000


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
    """Equal RK4 steps covering ``duration`` with none above ``dt_cap``."""
    return np.maximum(1, np.ceil(duration / np.asarray(dt_cap))).astype(np.int64)


@dataclass
class EvolveResult:
    psi: WaveFunction
    loss: float                 # population removed by decay, if enabled (per member for a batch)
    samples: list               # observer outputs in time order
    steps: int


def evolve_plan(psi: WaveFunction, plan: SequencePlan, atom: AtomParams,
                decay_rate: float = 0.0,
                dt_factor: float = DEFAULT_DT_FACTOR,
                observer=None, observe_per_epoch: int = 0,
                norm_tol_per_step: float = NORM_TOL_PER_STEP,
                auto_extend: bool = True,
                max_states: int = DEFAULT_MAX_STATES) -> EvolveResult:
    """Integrate a wavefunction through every epoch of a sequence plan.

    ``psi`` may hold a batch of members (B, n), such as one state under a
    pulse compiled at B detunings; then ``psi`` and ``loss`` of the result
    are per member too.  Each member keeps its own step count, norm check,
    dust prune and window check, so members that share their support do
    exactly the arithmetic of a run on their own; ``steps`` counts loop
    iterations.  Observers need a single wavefunction.

    The basis grows automatically whenever more than BOUNDARY_TOL of the
    population of any member reaches the edge of the momentum window;
    exceeding ``max_states`` is a hard error rather than a silent
    truncation.
    """
    basis = psi.basis
    amps = psi.amplitudes.copy()
    if observer is not None and amps.ndim != 1:
        raise ConfigurationError("observers need a single wavefunction")
    t = psi.time
    samples = []
    total_steps = 0

    for epoch in plan.epochs:
        if epoch.t_start < t - 1e-15:
            raise ConfigurationError(
                f"epoch {epoch.label!r} starts at {epoch.t_start} before "
                f"current time {t}")
        t = epoch.t_start
        h = compile_from_epoch(basis, epoch, atom, decay_rate)
        # restrict to states reachable from the current support: everything
        # else holds an exact zero and cannot change during this epoch
        active = h.active_mask(amps)
        if bool(active.all()):
            work, idx = amps, None
        else:
            idx = np.nonzero(active)[0]
            h = h.reduced(idx)
            work = amps[..., idx]

        dt_cap = default_dt(h, dt_factor, epoch.t_start, epoch.t_end)
        if h.batched:
            # members share the finest step unless an ulp of their bounds
            # moves them across a step edge; each keeps its own count
            dt_cap = _dt_caps(h.row_bound(epoch.t_start, epoch.t_end),
                              dt_factor)
        n_steps = np.broadcast_to(_step_count(epoch.duration, dt_cap),
                                  work.shape[:-1])

        observe = None
        if observer is not None and observe_per_epoch:
            def observe(t):
                if idx is not None:
                    amps[idx] = work
                samples.append(observer(t, WaveFunction(basis, amps.copy(), t)))

        norm_before = np.sum(np.abs(amps) ** 2, axis=-1)
        for count in sorted(set(n_steps.flat)):
            rows = n_steps == count
            if rows.all():
                t = _rk4(h, work, epoch, int(count), observe,
                         observe_per_epoch)
            else:
                part = work[rows]
                t = _rk4(h.members(rows), part, epoch, int(count))
                work[rows] = part
            total_steps += int(count)
        if idx is not None:
            amps[..., idx] = work

        norm_after = np.sum(np.abs(amps) ** 2, axis=-1)
        if decay_rate == 0.0:
            drift = np.abs(norm_after - norm_before)
            if np.any(drift > norm_tol_per_step * n_steps):
                raise IntegrationError(
                    f"norm drifted by {np.max(drift):.3e} over epoch "
                    f"{epoch.label!r}; reduce the step size")

        # drop sub-floor dust so dead rungs cannot re-enter the active set
        # (and with it the stability bound) of later epochs
        prune_dust(amps)

        if auto_extend:
            probe = WaveFunction(basis, amps, t)
            if np.any(probe.boundary_population(margin=2) > BOUNDARY_TOL):
                basis, amps = _extend(basis, amps, max_states)

    final = WaveFunction(basis, amps, t)
    loss = np.maximum(0.0, 1.0 - final.total_population()) if decay_rate \
        else 0.0
    return EvolveResult(psi=final, loss=loss, samples=samples,
                        steps=total_steps)


def _rk4(h: EpochHamiltonian, work: np.ndarray, epoch: Epoch, n_steps: int,
         observe=None, observe_per_epoch: int = 0) -> float:
    """Classic RK4 over the epoch in ``n_steps`` equal steps, in place on
    ``work`` (members x states); returns the end time."""
    dt = epoch.duration / n_steps
    check_stability(h, dt)
    stride = max(1, n_steps // observe_per_epoch) if observe else 0
    t = epoch.t_start
    k1 = np.empty_like(work)
    k2 = np.empty_like(work)
    k3 = np.empty_like(work)
    k4 = np.empty_like(work)
    y = np.empty_like(work)
    buf = np.empty_like(work)
    for k in range(n_steps):
        h.derivative_into(t, work, k1, buf)
        np.multiply(k1, 0.5 * dt, out=y)
        y += work
        h.derivative_into(t + 0.5 * dt, y, k2, buf)
        np.multiply(k2, 0.5 * dt, out=y)
        y += work
        h.derivative_into(t + 0.5 * dt, y, k3, buf)
        np.multiply(k3, dt, out=y)
        y += work
        # clamp: rounding must not push the last substage past the
        # envelope window (a square edge there breaks the error order)
        h.derivative_into(min(t + dt, epoch.t_end), y, k4, buf)
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= dt / 6.0
        work += k2
        t = epoch.t_start + (k + 1) * epoch.duration / n_steps
        if stride and ((k + 1) % stride == 0 or k + 1 == n_steps):
            observe(t)
    return t


def _extend(basis: Basis, amps: np.ndarray, max_states: int):
    zmin, zmax = basis.window_z()
    xmin, xmax = basis.window_x()
    window_z = range(zmin - EXTEND_BY, zmax + EXTEND_BY + 1)
    window_x = range(xmin, xmax + 1) if xmax == xmin else \
        range(xmin - EXTEND_BY, xmax + EXTEND_BY + 1)
    levels = basis.levels
    new_size = len(levels) * len(window_z) * len(window_x)
    if new_size > max_states:
        raise ConfigurationError(
            f"momentum window extension needs {new_size} states, over the "
            f"budget of {max_states}")
    new_basis = Basis(levels, window_z, window_x)
    moved = WaveFunction(basis, amps).project_onto(new_basis)
    return new_basis, moved.amplitudes


def ladder_basis(levels, rungs, guard: int = 3, window_x=(0,)) -> Basis:
    """Convenience basis spanning a set of z rungs plus guard bands."""
    return Basis(levels, span_window(rungs, guard), window_x)
