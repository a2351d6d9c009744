"""Full experiment timelines: split, drift, reverse, transfer, recombine.

The representation is hybrid: pulse sequences act on lattice wavefunctions
(per arm, which is exact because the evolution is linear), while the
macroscopic separation of the arms lives in classical centroid tracks
evolved under gravity in closed form.  Quantization z and beam axis x are
both normal to gravity (y), so separations never depend on g.

Phase bookkeeping: each arm's complex ``amplitude`` is its laser-frame
amplitude, the one subsequent pulses act on -- equivalent to assuming every
synthesizer tone runs phase-continuously at the exact (chirped) resonance
of the transition it drives.  The lab-frame kinetic phase accumulated in
free flight is tracked separately in ``kinetic_phase`` and only matters for
where the spatial fringes sit, not for their spacing or contrast.

Drift durations are not hard-coded: each plan solves its closure conditions
(all centroids coincident at recombination) exactly, then checks the result
against the nominal round-number timings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import Basis, RecoilState, WaveFunction, span_window
from .errors import (AdiabaticityError, ConfigurationError, PhysicsError,
                     SelectivityError)
from .params import AtomParams, InternalLevel
from .propagate import evolve_plan
from .pulses import (ADIABATIC_FLAG_THRESHOLD, SequencePlan,
                     adiabaticity_parameter, shift_plan, single_pulse_plan)

ARM_GUARD = 3                 # guard rungs around a sequence on an arm lattice


@dataclass(eq=False)
class ArmTrack:
    """One macroscopically distinct component of the superposition."""

    id: str
    amplitude: complex
    level: InternalLevel
    n_z: int
    n_x: int
    position: np.ndarray      # (x, y, z) in m
    velocity: np.ndarray      # (vx, vy, vz) in m/s
    kinetic_phase: float = 0.0

    @property
    def population(self) -> float:
        return abs(self.amplitude) ** 2

    @property
    def state(self) -> RecoilState:
        return RecoilState(self.level, self.n_z, self.n_x)

    def copy(self) -> "ArmTrack":
        return ArmTrack(self.id, self.amplitude, self.level, self.n_z,
                        self.n_x, self.position.copy(), self.velocity.copy(),
                        self.kinetic_phase)


def initial_arm(atom: AtomParams, level=InternalLevel.A) -> ArmTrack:
    return ArmTrack("arm", 1.0 + 0.0j, level, 0, 0,
                    np.zeros(3), np.zeros(3), 0.0)


def lattice_velocity(atom: AtomParams, n_z: int, n_x: int,
                     vy: float) -> np.ndarray:
    vr = atom.recoil_velocity
    return np.array([n_x * vr, vy, n_z * vr])


def free_flight(arms: list[ArmTrack], duration: float,
                atom: AtomParams) -> list[ArmTrack]:
    """Ballistic drift: exact constant-gravity kinematics plus the kinetic
    phase of each arm's momentum."""
    if duration < 0:
        raise ConfigurationError("drift duration must be nonnegative")
    g = atom.gravity
    out = []
    for arm in arms:
        a = arm.copy()
        a.position = a.position + a.velocity * duration
        a.position[1] -= 0.5 * g * duration ** 2
        a.velocity = a.velocity.copy()
        a.velocity[1] -= g * duration
        a.kinetic_phase -= atom.kinetic_rate(a.n_z, a.n_x) * duration
        out.append(a)
    return out


def _anchor_cross_axis(plan: SequencePlan, axis: str,
                       cross_rung: int) -> SequencePlan:
    """Frame gauge: subtract the arm's own transverse kinetic energy.

    The sequence builders anchor the unused axis at rung zero; an arm that
    is already moving across the beam carries a large common-mode kinetic
    term that would only add a global phase but would still throttle the
    integrator's step size.
    """
    if cross_rung == 0:
        return plan
    return replace(plan, epochs=[
        replace(ep, anchors={
            level: (cross_rung, ax) if axis == "x" else (az, cross_rung)
            for level, (az, ax) in ep.anchors.items()})
        for ep in plan.epochs])


def _sequence_rungs(plan: SequencePlan, axis: str) -> set[int]:
    rungs = set()
    for epoch in plan.epochs:
        for anchor in epoch.anchors.values():
            rungs.add(anchor[0] if axis == "z" else anchor[1])
        for ev in epoch.events:
            if ev.target_rung is not None and ev.axis == axis:
                rungs.add(ev.target_rung)
                rungs.add(ev.target_rung + ev.delta_n)
    return rungs


def run_sequence_on_arm(arms: list[ArmTrack], plan: SequencePlan,
                        atom: AtomParams, levels, axis: str,
                        decay_rate: float, arm_floor: float
                        ) -> list[tuple[list[ArmTrack], float]]:
    """Propagate arms through one pulse sequence, each on its own small
    lattice, as one batch.

    Returns (child arms, dropped population) for each arm, in order;
    components below ``arm_floor`` population are dropped.
    Linearity of the Schrodinger equation makes per-arm propagation exact;
    spatial selectivity is then just a matter of which arms a stage is
    applied to.
    """
    seq_rungs = _sequence_rungs(plan, axis)
    t0 = plan.epochs[0].t_start if plan.epochs else 0.0
    psis, plans = [], []
    for arm in arms:
        own, cross = (arm.n_z, arm.n_x) if axis == "z" else (arm.n_x, arm.n_z)
        window = span_window(seq_rungs | {own}, ARM_GUARD)
        basis = Basis(levels, window, (cross,)) if axis == "z" else \
            Basis(levels, (cross,), window)
        psis.append(WaveFunction.from_components(
            basis, {arm.state: 1.0}, time=t0, normalize=False))
        plans.append(_anchor_cross_axis(plan, axis, cross))
    finals = evolve_plan(psis, plans, atom, decay_rate=decay_rate).psi

    duration = plan.total_duration - t0
    g = atom.gravity
    runs = []
    for arm, final in zip(arms, finals):
        children = []
        kept = 0.0
        comps = final.components(floor=arm_floor)
        for k, (state, amp) in enumerate(comps):
            kept += abs(amp) ** 2
            vy_out = arm.velocity[1] - g * duration
            v_out = lattice_velocity(atom, state.n_z, state.n_x, vy_out)
            # trapezoid displacement: the ladder ramps velocity uniformly
            pos = arm.position + 0.5 * (arm.velocity + v_out) * duration
            pos[1] = arm.position[1] + arm.velocity[1] * duration \
                - 0.5 * g * duration ** 2
            children.append(ArmTrack(
                id=arm.id if len(comps) == 1 else f"{arm.id}/{k}",
                amplitude=arm.amplitude * amp,
                level=state.level, n_z=state.n_z, n_x=state.n_x,
                position=pos, velocity=v_out,
                kinetic_phase=arm.kinetic_phase))
        runs.append((children, arm.population * max(0.0, 1.0 - kept)))
    return runs


def selective_transfer(arms: list[ArmTrack], pulse, atom: AtomParams,
                       axis_name: str, region_center: float,
                       region_halfwidth: float, beam_width: float,
                       cloud_size: float, arm_floor: float, decay_rate: float,
                       intended=None, stage: str = "selective"):
    """Apply a momentum-preserving pulse only to arms inside a region;
    the others fly free for the pulse's duration.

    Every non-selected arm must sit farther than beam_width + cloud_size
    from the region, otherwise the stage is physically unrealizable and a
    SelectivityError identifies it.
    """
    ax = {"x": 0, "y": 1, "z": 2}[axis_name]
    selected, others = [], []
    for arm in arms:
        dist = abs(arm.position[ax] - region_center)
        (selected if dist <= region_halfwidth else others).append(arm)

    margin = beam_width + cloud_size
    for arm in others:
        clearance = abs(arm.position[ax] - region_center) - region_halfwidth
        if clearance < margin:
            raise SelectivityError(
                f"arm {arm.id} is {clearance * 1e3:.3f} mm from the "
                f"addressed region; needs > {margin * 1e3:.3f} mm",
                stage=stage)
    warnings = []
    if not selected:
        warnings.append(f"{stage}: no arm inside the addressed region; no-op")
    elif intended is not None:
        want = {a.id for a in arms if intended(a)}
        got = {a.id for a in selected}
        if want != got:
            raise SelectivityError(
                f"region selects arms {sorted(got)} but stage intends "
                f"{sorted(want)}", stage=stage)

    out, dropped = _apply_to_chosen(arms, selected, single_pulse_plan(pulse),
                                    pulse.envelope.duration, atom,
                                    list(pulse.levels), pulse.axis,
                                    decay_rate, arm_floor)
    return out, dropped, warnings


def _apply_to_chosen(arms: list[ArmTrack], chosen: list[ArmTrack],
                     plan: SequencePlan, duration: float, atom: AtomParams,
                     levels, axis: str, decay_rate: float, arm_floor: float
                     ) -> tuple[list[ArmTrack], float]:
    """Run the ``chosen`` arms through ``plan`` as one batch and let the
    rest of ``arms`` fly free for ``duration``; returns the new arms, in
    the order of ``arms``, and the population the chosen ones dropped."""
    runs = dict(zip(map(id, chosen), run_sequence_on_arm(
        chosen, plan, atom, levels, axis, decay_rate,
        arm_floor))) if chosen else {}
    out = []
    dropped = 0.0
    for arm in arms:
        if id(arm) not in runs:
            out.extend(free_flight([arm], duration, atom))
            continue
        kids, d = runs[id(arm)]
        out.extend(kids)
        dropped += d
    return out, dropped


@dataclass
class StageRecord:
    name: str
    kind: str
    t_start: float
    t_end: float
    arms: list[ArmTrack]
    dropped: float
    warnings: list[str] = field(default_factory=list)

    def level_populations(self) -> dict[str, float]:
        pops: dict[str, float] = {}
        for arm in self.arms:
            pops[arm.level.tag] = pops.get(arm.level.tag, 0.0) + arm.population
        return pops

    def mean_momenta(self, tag: str) -> tuple[float, float]:
        w = [(a.population, a.n_z, a.n_x) for a in self.arms
             if a.level.tag == tag]
        total = sum(p for p, _, _ in w)
        if total == 0:
            return (math.nan, math.nan)
        return (sum(p * nz for p, nz, _ in w) / total,
                sum(p * nx for p, _, nx in w) / total)

    def separation(self, ax: int) -> float:
        if len(self.arms) < 2:
            return 0.0
        coords = [a.position[ax] for a in self.arms]
        return max(coords) - min(coords)

    def drop_y(self) -> float:
        if not self.arms:
            return 0.0
        return -min(a.position[1] for a in self.arms)


@dataclass
class PlanResult:
    kind: str
    atom: AtomParams
    stages: list[StageRecord]
    final_arms: list[ArmTrack]
    warnings: list[str]
    dropped_total: float
    extras: dict = field(default_factory=dict)

    def stage_rows(self):
        """Flattened per-stage, per-level rows for the log CSV."""
        rows = []
        for st in self.stages:
            for tag in sorted(st.level_populations()):
                mz, mx = st.mean_momenta(tag)
                rows.append({
                    "stage": st.name, "t_start": st.t_start,
                    "t_end": st.t_end, "level": tag,
                    "population": st.level_populations()[tag],
                    "mean_nz": mz, "mean_nx": mx,
                    "sep_z_m": st.separation(2), "sep_x_m": st.separation(0),
                    "drop_y_m": st.drop_y(),
                })
        return rows


class _Timeline:
    """Shared bookkeeping for plan execution, and the settings every
    pulse stage of a plan shares: the population floor below which a
    component is dropped and the decay rate (rad/s) of the excited level."""

    def __init__(self, kind: str, atom: AtomParams, arm_floor: float,
                 decay_rate: float):
        self.kind = kind
        self.atom = atom
        self.arm_floor = arm_floor
        self.decay_rate = decay_rate
        self.t = 0.0
        self.arms: list[ArmTrack] = [initial_arm(atom)]
        self.stages: list[StageRecord] = []
        self.warnings: list[str] = []
        self.dropped = 0.0

    def record(self, name: str, kind: str, duration: float,
               dropped: float = 0.0, warnings=()):
        self.dropped += dropped
        self.warnings.extend(warnings)
        self.stages.append(StageRecord(
            name=name, kind=kind, t_start=self.t, t_end=self.t + duration,
            arms=[a.copy() for a in self.arms], dropped=dropped,
            warnings=list(warnings)))
        self.t += duration

    def drift(self, name: str, duration: float):
        self.arms = free_flight(self.arms, duration, self.atom)
        self.record(name, "drift", duration)

    def sequence(self, name: str, plan: SequencePlan, levels, axis: str,
                 only=None):
        plan = shift_plan(plan, self.t - (plan.epochs[0].t_start
                                          if plan.epochs else 0.0))
        duration = plan.total_duration - self.t if plan.epochs else 0.0
        chosen = [arm for arm in self.arms if only is None or only(arm)]
        self.arms, dropped = _apply_to_chosen(
            self.arms, chosen, plan, duration, self.atom, levels, axis,
            self.decay_rate, self.arm_floor)
        self.record(name, "quantum-sequence", duration, dropped)

    def result(self, extras=None) -> PlanResult:
        return PlanResult(kind=self.kind, atom=self.atom, stages=self.stages,
                          final_arms=[a.copy() for a in self.arms],
                          warnings=self.warnings, dropped_total=self.dropped,
                          extras=extras or {})

    def arm_by_state(self, level, n_z=None, n_x=None) -> ArmTrack:
        matches = [a for a in self.arms if a.level is level
                   and (n_z is None or a.n_z == n_z)
                   and (n_x is None or a.n_x == n_x)]
        if len(matches) != 1:
            raise PhysicsError(
                f"expected exactly one arm at {level.name}"
                f"{'' if n_z is None else f', n_z={n_z}'}; "
                f"found {len(matches)}")
        return matches[0]


def require_adiabatic(rms_rabi: float, stagger: float, strict: bool = True):
    xi = adiabaticity_parameter(rms_rabi, stagger)
    if strict and xi >= ADIABATIC_FLAG_THRESHOLD:
        raise AdiabaticityError(
            f"adiabaticity parameter {xi:.3f} is not << 1; "
            "slower or stronger pulses are required")
    return xi
