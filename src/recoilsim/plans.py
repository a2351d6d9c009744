"""The canned experiment plans and their parameter sets.

* figure3 -- splitter-only run producing the momentum-versus-time staircase
  of the deflected component.
* split1d -- adiabatic 1D interferometer: split, drift, reverse, selective
  state transfer, recombine; ends fringe-ready with two level-A arms
  differing by 4N recoils.
* ramsey -- the same geometry closed by a third ladder and a final pi/2,
  read out as population versus two-photon detuning.
* split2d -- the alternating-pi-pulse scheme in both axes, ending with four
  level-A arms on a 2D momentum lattice; with no x pulses it degrades to
  the two-arm Raman variant.
* fringes and pattern -- fringe synthesis from a list of arms and the
  arccos pattern pipeline; they propagate nothing, so only their parameter
  sets live here.

Each plan's parameter dataclass is also its config schema: a field is named
by its JSON key and holds that key's value and default, in the config's
units (Hz, s, m); the toggles ride along as those of the chirp, envelope
and decay_gamma_hz fields that the plan reads.  A plan converts to angular
rates on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, RecoilState, WaveFunction, momentum_moments
from .errors import ConfigurationError, PhysicsError
from .fringes import arm_spread
from .interferometer import (ArmTrack, PlanResult, _Timeline,
                             require_adiabatic, selective_transfer)
from .params import AtomParams, InternalLevel
from .propagate import evolve_plan, ladder_basis
from .pulses import (SINE_SQUARED, SequencePlan, build_adiabatic_sequence,
                     build_raman_sequence, copropagating_pulse,
                     effective_pulse, single_pulse_plan)

TWO_PI = 2 * math.pi
CLOSURE_TOL_FRACTION = 0.1

LAMBDA_LEVELS = (InternalLevel.A, InternalLevel.B, InternalLevel.E1)
RAMAN_LEVELS = (InternalLevel.A, InternalLevel.C)


# ----------------------------------------------------------------------
# figure3: deflection staircase
# ----------------------------------------------------------------------

@dataclass
class Figure3Params:
    n_pairs: int = 30
    stagger_s: float = 50e-9          # each beam lasts twice this
    rms_rabi_hz: float = 100e6
    direction: int = -1
    split_first: bool = True          # apply the pi/2 so the arm carries 1/2
    samples_per_pair: int = 6
    chirp: bool = True
    envelope: str = SINE_SQUARED
    decay_gamma_hz: float = 0.0


@dataclass
class Figure3Result:
    rows: list[dict]                  # fine-grained momentum trajectory
    pair_end_transfer: list[float]    # recoils transferred at each pair end
    final_transfer: float             # |mean n_z| of the deflected component
    final_population: float           # population of the deflected level
    adiabaticity: float


def run_figure3(params: Figure3Params, atom: AtomParams) -> Figure3Result:
    rms_rabi = TWO_PI * params.rms_rabi_hz
    weight = 1.0
    if params.split_first:
        weight = 0.5

    ladder = build_adiabatic_sequence(
        params.n_pairs, params.stagger_s, rms_rabi, start_rung=0,
        direction=params.direction, chirp=params.chirp, shape=params.envelope)
    xi = require_adiabatic(rms_rabi, params.stagger_s)

    rungs = range(0, 2 * params.direction * params.n_pairs + params.direction,
                  params.direction)
    basis = ladder_basis(LAMBDA_LEVELS, list(rungs))
    psi = WaveFunction.from_components(
        basis, {RecoilState(InternalLevel.A, 0): 1.0})

    def observe(t, wf):
        # |psi|^2 once, for the moments and each level's sum over its
        # states in basis order, as WaveFunction.observables and
        # .population take them
        w = np.abs(wf.amplitudes) ** 2
        obs_all = momentum_moments(wf.basis, w, LAMBDA_LEVELS)
        pops = {lv: float(w.take(wf.basis.level_index([lv])).sum())
                for lv in LAMBDA_LEVELS}
        return {
            "t_s": t,
            "recoils_transferred": (obs_all.mean or 0.0) / params.direction,
            "mean_nz_deflected": obs_all.mean if obs_all.mean is not None
            else 0.0,
            "pop_a": pops[InternalLevel.A] * weight,
            "pop_b": pops[InternalLevel.B] * weight,
            "pop_e1": pops[InternalLevel.E1] * weight,
            "pop_c": 1.0 - weight,
        }

    result = evolve_plan(psi, ladder, atom,
                         decay_rate=params.decay_gamma_hz * TWO_PI,
                         observer=observe,
                         observe_per_epoch=params.samples_per_pair)
    rows = [{"t_s": 0.0, "recoils_transferred": 0.0, "mean_nz_deflected": 0.0,
             "pop_a": weight, "pop_b": 0.0, "pop_e1": 0.0,
             "pop_c": 1.0 - weight}] + result.samples

    pair_ends = []
    for j in range(params.n_pairs):
        t_end = ladder.epochs[j].t_end
        nearest = min(result.samples, key=lambda r: abs(r["t_s"] - t_end))
        pair_ends.append(nearest["recoils_transferred"])

    final = result.psi
    final_level = ladder.expected_final["deflected"].level
    obs_final = final.observables([final_level])
    return Figure3Result(
        rows=rows, pair_end_transfer=pair_ends,
        final_transfer=(obs_final.mean or 0.0) / params.direction,
        final_population=final.population([final_level]) * weight,
        adiabaticity=xi)


# ----------------------------------------------------------------------
# split1d: adiabatic interferometer, fringe-ready output
# ----------------------------------------------------------------------

@dataclass
class Plan1DParams:
    ladder_n: int = 25                # splitter is 2n pairs; reversal 4n
    stagger_s: float = 50e-9
    rms_rabi_hz: float = 150e6
    drift1_s: float = 3.3e-3
    omega_eff_hz: float = 5e5         # effective two-photon Rabi frequency
    cloud_size_m: float = 1e-3        # initial cloud diameter scale
    beam_width_m: float = 0.5e-3
    arm_floor: float = 1e-6           # population below which arms drop
    chirp: bool = True
    envelope: str = SINE_SQUARED
    decay_gamma_hz: float = 0.0


def run_plan_1d_adiabatic(params: Plan1DParams, atom: AtomParams) -> PlanResult:
    n = params.ladder_n
    if n < 1:
        raise ConfigurationError("ladder_n must be at least 1")
    rms_rabi = TWO_PI * params.rms_rabi_hz
    omega_eff = TWO_PI * params.omega_eff_hz
    require_adiabatic(rms_rabi, params.stagger_s)
    tl = _Timeline(atom, params.arm_floor, params.decay_gamma_hz * TWO_PI)

    _initial_split(tl, omega_eff)
    _lambda_ladder(tl, "split-ladder", params, rms_rabi, 2 * n, 0, -1)
    tl.drift("drift-separate", params.drift1_s)
    reverse = _lambda_ladder(tl, "reverse-ladder", params, rms_rabi, 4 * n,
                             -4 * n, +1)
    _state_transfer(tl, "state-transfer", params, omega_eff, "z",
                    tl.arm_by_state(InternalLevel.C).position[2])

    moving = tl.arm_by_state(InternalLevel.A, n_z=4 * n)
    still = tl.arm_by_state(InternalLevel.A, n_z=0)
    t_close = _closing_time(moving, still, axis=2)
    if abs(t_close - params.drift1_s) > 0.05 * params.drift1_s:
        tl.warnings.append(
            f"recombination drift {t_close * 1e3:.3f} ms differs from the "
            f"separation drift {params.drift1_s * 1e3:.3f} ms by more than 5%")
    tl.drift("drift-recombine", t_close)

    sep = tl.stages[-1].separation(2)
    if sep > CLOSURE_TOL_FRACTION * params.cloud_size_m:
        tl.warnings.append(
            f"closure mismatch {sep * 1e6:.1f} um exceeds "
            f"{CLOSURE_TOL_FRACTION:.0%} of the cloud size")

    dn = 4 * n
    lam = atom.lattice_wavelength
    extras = {
        "delta_n_z": dn,
        "relative_velocity_m_s": dn * atom.recoil_velocity,
        "expected_spacing_m": lam / dn,
        "recombine_drift_s": t_close,
        "reversal_duration_s": reverse.total_duration - reverse.epochs[0].t_start,
    }
    return tl.result(extras)


def _initial_split(tl: _Timeline, omega_eff: float):
    """The copropagating pi/2 that splits the atom between A and C."""
    splitter = copropagating_pulse(math.pi / 2, omega_eff, "a-c", axis="x")
    tl.sequence("initial-split", single_pulse_plan(splitter), RAMAN_LEVELS,
                "x")


def _moving(arm: ArmTrack) -> bool:
    """The arms a lambda ladder drives: those in the ground levels A, B."""
    return arm.level in (InternalLevel.A, InternalLevel.B)


def _lambda_ladder(tl: _Timeline, name: str, params, rms_rabi: float,
                   n_pairs: int, start_rung: int,
                   direction: int) -> SequencePlan:
    """One lambda-ladder stage of ``n_pairs`` pairs on the moving arms;
    returns the ladder as built, before it is shifted onto the timeline."""
    ladder = build_adiabatic_sequence(
        n_pairs, params.stagger_s, rms_rabi, start_rung=start_rung,
        direction=direction, chirp=params.chirp, shape=params.envelope)
    tl.sequence(name, ladder, LAMBDA_LEVELS, "z", only=_moving)
    return ladder


def _state_transfer(tl: _Timeline, name: str, params, omega_eff: float,
                    axis: str, center: float):
    """Flip the C arms to A with a copropagating pi pulse whose beam
    crosses ``axis`` and is centred on ``center`` along it."""
    pulse = copropagating_pulse(math.pi, omega_eff, "c-a",
                                axis="x" if axis == "z" else "z",
                                t_start=tl.t)
    tl.arms, dropped, warnings = selective_transfer(
        tl.arms, pulse, tl.atom, axis_name=axis, region_center=center,
        region_halfwidth=params.beam_width_m / 2,
        beam_width=params.beam_width_m, cloud_size=params.cloud_size_m,
        arm_floor=tl.arm_floor, decay_rate=tl.decay_rate,
        intended=lambda a: a.level is InternalLevel.C, stage=name)
    tl.warnings.extend(warnings)
    tl.record(name, pulse.envelope.duration, dropped)


def _closing_time(a: ArmTrack, b: ArmTrack, axis: int) -> float:
    gap = a.position[axis] - b.position[axis]
    rate = a.velocity[axis] - b.velocity[axis]
    if rate == 0:
        raise PhysicsError("arms do not converge; no recombination time")
    t = -gap / rate
    if t <= 0:
        raise PhysicsError("arms are moving apart; no recombination time")
    return t


# ----------------------------------------------------------------------
# ramsey: closed interferometer read out against two-photon detuning
# ----------------------------------------------------------------------

@dataclass
class RamseyParams:
    ladder_n: int = 25
    stagger_s: float = 50e-9
    rms_rabi_hz: float = 150e6
    target_tau_s: float = 0.102       # split-to-recombine separation
    omega_eff_hz: float = 5e5
    arm_phase_rad: float = 0.0        # extra phase injected on the moving arm
    cloud_size_m: float = 1e-3
    arm_floor: float = 1e-6
    chirp: bool = True
    envelope: str = SINE_SQUARED
    decay_gamma_hz: float = 0.0


@dataclass
class RamseyResult:
    params: RamseyParams
    atom: AtomParams
    tau: float
    plan: PlanResult
    pre_final: dict                   # state label -> complex amplitude
    _scan_basis: object = field(repr=False, default=None)
    _scan_psi: object = field(repr=False, default=None)

    def pc_of(self, delta):
        """Population left in level C after the closing pi/2 at detuning
        ``delta`` (rad/s): a float, or for a 1-D array of detunings an array,
        evaluated as one batch under one compiled pulse."""
        if np.ndim(delta):
            delta = np.asarray(delta, dtype=np.float64)
        pulse = effective_pulse(
            math.pi / 2, TWO_PI * self.params.omega_eff_hz,
            RecoilState(InternalLevel.C, 0), RecoilState(InternalLevel.B, 2),
            "z", bias_detuning=delta, phase=delta * self.tau)
        plan = single_pulse_plan(pulse)
        # evolve_plan copies the amplitudes, so a broadcast view will do
        amps = np.broadcast_to(self._scan_psi,
                               np.shape(delta) + self._scan_psi.shape)
        psi = WaveFunction(self._scan_basis, amps, 0.0)
        out = evolve_plan(psi, plan, self.atom).psi
        return out.population([InternalLevel.C])

    def with_arm_phase(self, phase: float) -> "RamseyResult":
        """Same interferometer with an extra phase on the moving arm;
        cheap because only the closing pulse needs re-evaluating."""
        shifted = np.array(self._scan_psi, copy=True)
        i_b = self._scan_basis.index_of(RecoilState(InternalLevel.B, 2))
        shifted[i_b] *= np.exp(1j * phase)
        return RamseyResult(
            params=self.params, atom=self.atom, tau=self.tau, plan=self.plan,
            pre_final=dict(self.pre_final), _scan_basis=self._scan_basis,
            _scan_psi=shifted)


def run_plan_ramsey(params: RamseyParams, atom: AtomParams) -> RamseyResult:
    n = params.ladder_n
    rms_rabi = TWO_PI * params.rms_rabi_hz
    omega_eff = TWO_PI * params.omega_eff_hz
    require_adiabatic(rms_rabi, params.stagger_s)
    stagger3 = 3 * params.stagger_s
    d_half = (math.pi / 2) / omega_eff
    s1 = 2 * n * stagger3
    s2 = 4 * n * stagger3
    s3 = (2 * n - 1) * stagger3
    vr = atom.recoil_velocity
    big_v = 4 * n * vr

    # Solve drifts: total center-to-center separation equals target_tau and
    # the moving arm returns to the resting arm at the closing pulse.
    # displacement terms use the same trapezoid rule the stage engine uses.
    seq_sum = d_half / 2 + s1 + s2 + s3 + d_half / 2
    disp_fixed = (-big_v / 2 * s1) + 0.0 * s2 \
        + (big_v + 2 * vr) / 2 * s3 + 2 * vr * d_half / 2
    mat = np.array([[1.0, 1.0], [-big_v, big_v]])
    rhs = np.array([params.target_tau_s - seq_sum, -disp_fixed])
    d1, d2 = np.linalg.solve(mat, rhs)
    if d1 < 0 or d2 < 0:
        raise PhysicsError(
            f"target separation time {params.target_tau_s} s is too short for "
            "this pulse program")

    tl = _Timeline(atom, params.arm_floor, params.decay_gamma_hz * TWO_PI)
    _initial_split(tl, omega_eff)
    t_first_center = d_half / 2
    _lambda_ladder(tl, "split-ladder", params, rms_rabi, 2 * n, 0, -1)
    tl.drift("drift-out", float(d1))
    _lambda_ladder(tl, "reverse-ladder", params, rms_rabi, 4 * n, -4 * n, +1)
    tl.drift("drift-back", float(d2))
    _lambda_ladder(tl, "closing-ladder", params, rms_rabi, 2 * n - 1, 4 * n,
                   -1)

    moving = tl.arm_by_state(InternalLevel.B, n_z=2)
    still = tl.arm_by_state(InternalLevel.C, n_z=0)
    gap = abs(moving.position[2] - still.position[2])
    if gap > CLOSURE_TOL_FRACTION * params.cloud_size_m:
        tl.warnings.append(
            f"arms recombine {gap * 1e6:.1f} um apart, over "
            f"{CLOSURE_TOL_FRACTION:.0%} of the cloud size")

    tau = (tl.t + d_half / 2) - t_first_center

    scan_basis = Basis([InternalLevel.B, InternalLevel.C],
                             range(-3, 6))
    amps = np.zeros(len(scan_basis), dtype=np.complex128)
    amps[scan_basis.index_of(RecoilState(InternalLevel.C, 0))] = still.amplitude
    amps[scan_basis.index_of(RecoilState(InternalLevel.B, 2))] = \
        moving.amplitude * np.exp(1j * params.arm_phase_rad)
    tl.record("closing-pulse", d_half)

    return RamseyResult(
        params=params, atom=atom, tau=float(tau), plan=tl.result(),
        pre_final={"c0": complex(still.amplitude),
                   "b2": complex(moving.amplitude)},
        _scan_basis=scan_basis, _scan_psi=amps)


# ----------------------------------------------------------------------
# split2d: alternating pi pulses in two axes
# ----------------------------------------------------------------------

@dataclass
class Plan2DParams:
    p_pulses: int = 24                # z splitting pi pulses (2P)
    p_reverse: int = 48
    q_pulses: int = 48                # x splitting pi pulses (2Q); 0 = skip x
    q_reverse: int = 96
    omega_eff_hz: float = 5e5
    drift1_s: float = 3.3e-3
    cloud_size_m: float = 1e-3
    beam_width_m: float = 0.5e-3
    arm_floor: float = 1e-6
    chirp: bool = True
    decay_gamma_hz: float = 0.0


def run_plan_2d(params: Plan2DParams, atom: AtomParams) -> PlanResult:
    if params.p_pulses < 2 or params.p_pulses % 2:
        raise ConfigurationError("p_pulses must be a positive even count")
    if params.q_pulses % 2 or params.q_reverse % 2 or params.p_reverse % 2:
        raise ConfigurationError("pulse counts must be even")
    omega = TWO_PI * params.omega_eff_hz
    t_pi = math.pi / omega
    vr = atom.recoil_velocity

    a_z = params.p_pulses * 2          # +4P
    c_z = -(params.p_pulses * 2 + 2)   # -(4P+2)

    tl = _Timeline(atom, params.arm_floor, params.decay_gamma_hz * TWO_PI)
    zsplit = build_raman_sequence("half_pi", params.p_pulses, t_pi, omega,
                                  "z", start_rung=0, start_direction=+1,
                                  half_pi_direction=-1, chirp=params.chirp)
    tl.sequence("z-split", zsplit, RAMAN_LEVELS, "z")

    tl.drift("drift-separate", params.drift1_s)

    zrev = build_raman_sequence("none", params.p_reverse, t_pi, omega, "z",
                                start_rung=a_z, c_start_rung=c_z,
                                start_direction=-1, chirp=params.chirp)
    tl.sequence("z-reverse", zrev, RAMAN_LEVELS, "z")
    exp_a = zrev.expected_final["a_arm"].n_z
    exp_c = zrev.expected_final["c_arm"].n_z

    _state_transfer(tl, "z-state-transfer", params, omega, "z",
                    tl.arm_by_state(InternalLevel.C, n_z=exp_c).position[2])

    if params.q_pulses == 0:
        moving = tl.arm_by_state(InternalLevel.A, n_z=exp_a)
        still = tl.arm_by_state(InternalLevel.A, n_z=exp_c)
        t_close = _closing_time(moving, still, axis=2)
        tl.drift("drift-recombine", t_close)
        return _finish_2d(tl, params, atom, dn_z=abs(exp_a - exp_c), dn_x=0)

    a_x = params.q_pulses * 2
    c_x = -(params.q_pulses * 2 + 2)
    xsplit = build_raman_sequence("half_pi", params.q_pulses, t_pi, omega,
                                  "x", start_rung=0, start_direction=+1,
                                  half_pi_direction=-1, chirp=params.chirp)
    xrev = build_raman_sequence("none", params.q_reverse, t_pi, omega, "x",
                                start_rung=a_x, c_start_rung=c_x,
                                start_direction=-1, chirp=params.chirp)
    a_xr = xrev.expected_final["a_arm"].n_x
    c_xr = xrev.expected_final["c_arm"].n_x

    # closure rehearsal: the two x drifts are the unknowns; both the z gap
    # and the x gap must vanish at recombination.  All stage kinematics is
    # linear, so two probe evaluations fix the affine map exactly.
    seq_x_split = t_pi / 2 + params.q_pulses * t_pi
    seq_x_rev = params.q_reverse * t_pi
    seq_z_sel = t_pi

    def gaps(dx, df):
        za, zc = 0.0, 0.0
        xa, xc = 0.0, 0.0
        vza, vzc = exp_a * vr, exp_c * vr
        for dur, (vxa_i, vxa_f), (vxc_i, vxc_f) in (
            (seq_x_split, (0, a_x * vr), (0, c_x * vr)),
            (dx, (a_x * vr, a_x * vr), (c_x * vr, c_x * vr)),
            (seq_x_rev, (a_x * vr, a_xr * vr), (c_x * vr, c_xr * vr)),
            (seq_z_sel, (a_xr * vr, a_xr * vr), (c_xr * vr, c_xr * vr)),
            (df, (a_xr * vr, a_xr * vr), (c_xr * vr, c_xr * vr)),
        ):
            xa += 0.5 * (vxa_i + vxa_f) * dur
            xc += 0.5 * (vxc_i + vxc_f) * dur
            za += vza * dur
            zc += vzc * dur
        z_gap = (tl.arms[0].position[2] + za) - (tl.arms[1].position[2] + zc)
        return np.array([z_gap, xa - xc])

    g0 = gaps(0.0, 0.0)
    jac = np.column_stack([gaps(1.0, 0.0) - g0, gaps(0.0, 1.0) - g0])
    dx, df = np.linalg.solve(jac, -g0)
    if dx < 0 or df < 0:
        raise PhysicsError("x-splitting drifts came out negative; "
                           "reduce pulse counts or increase drift1_s")

    tl.sequence("x-split", xsplit, RAMAN_LEVELS, "x")
    tl.drift("x-drift", float(dx))
    tl.sequence("x-reverse", xrev, RAMAN_LEVELS, "x")

    c_subs = [a for a in tl.arms if a.level is InternalLevel.C]
    if not c_subs:
        raise PhysicsError("no C-level arms before the final state transfer")
    _state_transfer(tl, "x-state-transfer", params, omega, "x",
                    float(np.mean([a.position[0] for a in c_subs])))

    tl.drift("drift-recombine", float(df))
    return _finish_2d(tl, params, atom, dn_z=abs(exp_a - exp_c),
                      dn_x=abs(a_xr - c_xr), dx=float(dx))


def _finish_2d(tl: _Timeline, params: Plan2DParams, atom: AtomParams,
               dn_z: int, dn_x: int, dx: float = 0.0) -> PlanResult:
    sep_z = tl.stages[-1].separation(2)
    sep_x = tl.stages[-1].separation(0)
    tol = CLOSURE_TOL_FRACTION * params.cloud_size_m
    if sep_z > tol or sep_x > tol:
        tl.warnings.append(
            f"closure mismatch z={sep_z * 1e6:.1f} um, x={sep_x * 1e6:.1f} um "
            f"exceeds {tol * 1e6:.0f} um")
    lam = atom.lattice_wavelength
    # the round-number estimates, 100 nm / (P / 2) at the nominal 800 nm
    nominal = atom.nominal_wavelength / 8
    p_half = params.p_pulses // 2
    q_half = params.q_pulses // 2
    extras = {
        "delta_n_z": dn_z, "delta_n_x": dn_x,
        "expected_spacing_z_m": lam / dn_z if dn_z else math.inf,
        "expected_spacing_x_m": lam / dn_x if dn_x else math.inf,
        "nominal_spacing_z_m": nominal / p_half if p_half else math.inf,
        "nominal_spacing_x_m": nominal / q_half if q_half else math.inf,
        "convergence_speed_z_m_s": dn_z * atom.recoil_velocity,
        "convergence_speed_x_m_s": dn_x * atom.recoil_velocity,
        "x_drift_s": dx,
    }
    return tl.result(extras)


def arm_separation(params: Plan1DParams | Plan2DParams | FringesParams
                   ) -> tuple[float, ...]:
    """Nominal momentum separation, in recoils, of the recombined arms of
    split1d, split2d or fringes along each axis of its fringe grid: z, then
    x when split2d splits along x.  split1d ends 4N recoils apart.  On each
    split2d axis, P splitting pi pulses leave the arms 4P + 2 recoils apart
    and each of the R reversing ones closes that gap by 4.  The arms of
    fringes are as far apart as their rungs (z, then x).

    In floats: a count near the float limit gives an infinite separation,
    which the grid check rejects, where an integer one would overflow."""
    if isinstance(params, FringesParams):
        return arm_spread([(arm["n_z"], arm["n_x"]) for arm in params.arms])
    if isinstance(params, Plan1DParams):
        return (4.0 * params.ladder_n,)
    counts = [(params.p_pulses, params.p_reverse)]
    if params.q_pulses:
        counts.append((params.q_pulses, params.q_reverse))
    return tuple(abs(4.0 * p + 2 - 4.0 * r) for p, r in counts)


# ----------------------------------------------------------------------
# fringes and pattern: no propagation
# ----------------------------------------------------------------------

@dataclass
class FringesParams:
    arms: list                        # one resolved JSON object per arm
    coherence_length_m: float = 300e-6


@dataclass
class PatternParams:
    input_pgm: str
    magnification: float = 1.0
    pitch_m: float = 1e-9
