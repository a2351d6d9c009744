import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recoilsim import interferometer, propagate
from recoilsim.errors import PhysicsError, SelectivityError
from recoilsim.interferometer import (ArmTrack, _Timeline, free_flight,
                                      initial_arm, lattice_velocity,
                                      selective_transfer)
from recoilsim.params import AtomParams, InternalLevel, rb87
from recoilsim.pulses import (build_adiabatic_sequence, build_raman_sequence,
                              copropagating_pulse)

A, B, C, E1 = (InternalLevel.A, InternalLevel.B, InternalLevel.C,
               InternalLevel.E1)


@pytest.fixture(scope="module")
def atom():
    return rb87()


def make_arm(atom, arm_id, level, n_z, z, amp=1 / math.sqrt(2)):
    return ArmTrack(arm_id, amp, level, n_z, 0,
                    np.array([0.0, 0.0, z]),
                    lattice_velocity(atom, n_z, 0, 0.0), 0.0)


def test_free_flight_separation_at_3_3_ms(atom):
    arms = [make_arm(atom, "still", C, 0, 0.0),
            make_arm(atom, "moving", A, -100, 0.0)]
    out = free_flight(arms, 3.3e-3, atom)
    sep = abs(out[0].position[2] - out[1].position[2])
    assert sep == pytest.approx(1.94e-3, abs=0.01e-3)  # nominal 2 mm


def test_free_flight_gravity_drop(atom):
    arms = [make_arm(atom, "a", A, 0, 0.0)]
    out = free_flight(arms, 3.3e-3, atom)
    drop = -out[0].position[1]
    assert drop == pytest.approx(53.4e-6, abs=0.5e-6)  # nominal 55 um
    assert out[0].velocity[1] == pytest.approx(-atom.gravity * 3.3e-3)


def test_free_flight_long_drift_separation(atom):
    arms = [make_arm(atom, "still", C, 0, 0.0),
            make_arm(atom, "moving", A, 100, 0.0)]
    out = free_flight(arms, 50e-3, atom)
    sep = abs(out[0].position[2] - out[1].position[2])
    assert sep == pytest.approx(2.95e-2, abs=0.05e-2)  # nominal 3 cm


def test_free_flight_advances_kinetic_phase(atom):
    arms = [make_arm(atom, "m", A, -10, 0.0)]
    out = free_flight(arms, 1e-3, atom)
    assert out[0].kinetic_phase == pytest.approx(
        -atom.kinetic_rate(-10) * 1e-3)


@given(nz=st.integers(-100, 100), nx=st.integers(-100, 100),
       t=st.floats(1e-5, 0.1), g=st.floats(0.0, 20.0))
@settings(max_examples=50, deadline=None)
def test_gravity_only_moves_y(nz, nx, t, g):
    atom = AtomParams(gravity=g) if g > 0 else AtomParams(gravity=1e-30)
    arm = ArmTrack("a", 1.0, A, nz, nx, np.zeros(3),
                   lattice_velocity(atom, nz, nx, 0.0), 0.0)
    out_g = free_flight([arm.copy()], t, atom)[0]
    atom0 = AtomParams(gravity=1e-30)
    out_0 = free_flight([arm.copy()], t, atom0)[0]
    assert out_g.position[0] == out_0.position[0]
    assert out_g.position[2] == out_0.position[2]


def test_selective_transfer_applies_only_in_region(atom):
    # separation 2 mm, beam 0.5 mm, cloud 1 mm: margin check passes and the
    # resting component flips internal state while the mover is untouched
    arms = [make_arm(atom, "still", C, 0, 0.0),
            make_arm(atom, "moving", A, 100, 2e-3)]
    pulse = copropagating_pulse(math.pi, 2 * math.pi * 5e5, "c-a",
                                axis="x")
    out, dropped, warnings = selective_transfer(
        arms, pulse, atom, axis_name="z", region_center=0.0,
        region_halfwidth=0.25e-3, beam_width=0.5e-3, cloud_size=1e-3,
        arm_floor=1e-6, decay_rate=0.0, intended=lambda a: a.level is C)
    assert not warnings
    levels = sorted(a.level.name for a in out)
    assert levels == ["A", "A"]
    assert sum(a.population for a in out) == pytest.approx(1.0, abs=1e-9)


def test_selective_transfer_rejects_overlapping_arms(atom):
    # 0.1 mm separation with a 1 mm cloud cannot be addressed selectively
    arms = [make_arm(atom, "still", C, 0, 0.0),
            make_arm(atom, "moving", A, 100, 0.1e-3)]
    pulse = copropagating_pulse(math.pi, 2 * math.pi * 5e5, "c-a",
                                axis="x")
    with pytest.raises(SelectivityError):
        selective_transfer(arms, pulse, atom, axis_name="z",
                           region_center=0.0, region_halfwidth=0.25e-3,
                           beam_width=0.5e-3, cloud_size=1e-3,
                           arm_floor=1e-6, decay_rate=0.0,
                           intended=lambda a: a.level is C)


def test_selective_transfer_empty_region_warns(atom):
    # with no arm in the region every arm still flies for the pulse's length
    arms = [make_arm(atom, "moving", A, 100, 5e-3)]
    pulse = copropagating_pulse(math.pi, 2 * math.pi * 5e5, "c-a",
                                axis="x")
    out, dropped, warnings = selective_transfer(
        arms, pulse, atom, axis_name="z", region_center=0.0,
        region_halfwidth=0.25e-3, beam_width=0.5e-3, cloud_size=1e-3,
        arm_floor=1e-6, decay_rate=0.0)
    assert warnings
    assert dropped == 0.0
    (flown,) = free_flight(arms, pulse.envelope.duration, atom)
    (got,) = out
    assert (got.id, got.amplitude, got.level, got.n_z, got.n_x,
            got.kinetic_phase) == (flown.id, flown.amplitude, flown.level,
                                   flown.n_z, flown.n_x, flown.kinetic_phase)
    assert np.array_equal(got.position, flown.position)
    assert np.array_equal(got.velocity, flown.velocity)
    assert got.position[2] > arms[0].position[2]


def test_selective_transfer_checks_intent(atom):
    arms = [make_arm(atom, "still", C, 0, 0.0),
            make_arm(atom, "bystander", A, 0, 0.0)]
    pulse = copropagating_pulse(math.pi, 2 * math.pi * 5e5, "c-a",
                                axis="x")
    with pytest.raises(SelectivityError):
        selective_transfer(arms, pulse, atom, axis_name="z",
                           region_center=0.0, region_halfwidth=0.25e-3,
                           beam_width=0.5e-3, cloud_size=1e-3,
                           arm_floor=1e-6, decay_rate=0.0,
                           intended=lambda a: a.level is C)


def test_arm_velocity_consistent_with_momentum(atom):
    arm = initial_arm()
    assert arm.velocity[2] == 0.0
    v = lattice_velocity(atom, -100, 4, -0.5)
    assert v[2] == pytest.approx(-100 * atom.recoil_velocity)
    assert v[0] == pytest.approx(4 * atom.recoil_velocity)
    assert v[1] == -0.5


@pytest.mark.bits
def test_batched_stage_matches_lone_arms(atom, monkeypatch):
    # an x-reverse stage on four arms (two z rungs x levels A and C) plus two
    # arms off the pulse path, whose one-state supports share a batch and
    # then need different step counts; every child must equal a lone run.
    # The four on the path lie on two lattices (one per z rung), the two
    # off it on one each, so each epoch compiles four lattices, not six
    omega = 2 * math.pi * 5e5
    a_x, c_x = 4, -6
    plan = build_raman_sequence("none", 4, math.pi / omega, omega, "x",
                                start_rung=a_x, c_start_rung=c_x,
                                start_direction=-1)
    arms = [ArmTrack(f"{level.tag}{n_z}", 0.5, level, n_z, n_x,
                     np.array([1e-3 * n_x, 0.0, 1e-3 * n_z]),
                     lattice_velocity(atom, n_z, n_x, 0.0))
            for n_z in (4, -6) for level, n_x in ((A, a_x), (C, c_x))]
    arms += [ArmTrack("offA", 0.1, A, 4, a_x + 10, np.zeros(3),
                      lattice_velocity(atom, 4, a_x + 10, 0.0)),
             ArmTrack("offC", 0.1, C, -6, c_x - 3, np.zeros(3),
                      lattice_velocity(atom, -6, c_x - 3, 0.0))]

    widths, stage_calls, compiled, passes = [], [], [], []
    rk4, run = propagate._rk4, interferometer.run_sequence_on_arm
    compile_from_epoch = propagate.compile_from_epoch
    compile_plan = propagate.compile_plan

    # each pass hands its epoch to the compile with its tables
    def recording_compile(epoch, *tables):
        compiled.append(epoch)
        return compile_from_epoch(*tables)

    def recording_pass(basis, epochs, *args):
        passes.append(len(epochs))
        return ((epoch, *tables) for epoch, tables in
                zip(epochs, compile_plan(basis, epochs, *args)))

    def recording_rk4(parts, *args):
        widths.append(sum(len(rows) for *_, rows in parts))
        return rk4(parts, *args)

    def recording_run(stage_arms, *args):
        stage_calls.append(len(stage_arms))
        return run(stage_arms, *args)

    monkeypatch.setattr(propagate, "_rk4", recording_rk4)
    monkeypatch.setattr(interferometer, "run_sequence_on_arm", recording_run)
    monkeypatch.setattr(propagate, "compile_from_epoch", recording_compile)
    monkeypatch.setattr(propagate, "compile_plan", recording_pass)
    tl = _Timeline(atom, arm_floor=1e-6, decay_rate=0.0)
    tl.arms = arms
    tl.sequence("x-reverse", plan, (A, C), "x")
    assert stage_calls == [len(arms)]
    assert {1, 2, 4} <= set(widths)
    per_epoch = Counter(map(id, compiled))    # compiled holds every epoch
    assert list(per_epoch.values()) == [4] * len(plan.epochs)
    # one plan pass per lattice, none growing
    assert passes == [len(plan.epochs)] * 4

    lone_dropped = 0.0
    children = iter(tl.arms)
    for arm in arms:
        ((kids, dropped),) = run([arm], plan, atom, (A, C), "x", 0.0, 1e-6)
        lone_dropped += dropped
        for kid in kids:
            got = next(children)
            assert (got.id, got.amplitude, got.level, got.n_z, got.n_x) == \
                (kid.id, kid.amplitude, kid.level, kid.n_z, kid.n_x)
            assert np.array_equal(got.position, kid.position)
            assert np.array_equal(got.velocity, kid.velocity)
    assert next(children, None) is None
    assert tl.stages[-1].dropped == lone_dropped > 0.0


@pytest.mark.bits
def test_a_shared_lattice_grows_for_one_member_and_keeps_the_other(
        atom, monkeypatch):
    # a 3-pair ladder whose window spans rungs -9..3: an arm at (A, -6) is
    # pushed to the edge by the first pair, while its sibling at (A, 0)
    # follows the ladder and first nears the edge in the second pair; both
    # lie on one lattice, which grows after the first pair, so the sibling
    # runs the second pair on a wider window than it would alone
    plan = build_adiabatic_sequence(3, 50e-9, 2 * math.pi * 1e8)
    sibling, mover = (ArmTrack(name, 0.5, A, n_z, 0, np.zeros(3),
                               lattice_velocity(atom, n_z, 0, 0.0))
                      for name, n_z in (("sibling", 0), ("mover", -6)))
    grown, lattices, epochs, passes = [], [], [], []
    extend, evolve = propagate._extend, interferometer.evolve_plan
    compile_from_epoch = propagate.compile_from_epoch
    compile_plan = propagate.compile_plan

    # each pass hands its epoch to the compile with its tables
    def recording_compile(epoch, *tables):
        epochs.append(epoch.label)
        return compile_from_epoch(*tables)

    def recording_pass(basis, plan_epochs, *args):
        passes.append([epoch.label for epoch in plan_epochs])
        return ((epoch, *tables) for epoch, tables in
                zip(plan_epochs, compile_plan(basis, plan_epochs, *args)))

    def recording_extend(basis, amps):
        grown.append((epochs[-1], basis.window_z(), len(amps)))
        return extend(basis, amps)

    def recording_evolve(psis, *args, **kwargs):
        lattices.append([psi.amplitudes.shape for psi in psis])
        return evolve(psis, *args, **kwargs)

    monkeypatch.setattr(propagate, "compile_from_epoch", recording_compile)
    monkeypatch.setattr(propagate, "compile_plan", recording_pass)
    monkeypatch.setattr(propagate, "_extend", recording_extend)
    monkeypatch.setattr(interferometer, "evolve_plan", recording_evolve)
    run = interferometer.run_sequence_on_arm
    (kids, dropped), _ = run([sibling, mover], plan, atom, (A, B, E1), "z",
                             0.0, 1e-6)
    ((lone_kids, lone_dropped),) = run([sibling], plan, atom, (A, B, E1),
                                       "z", 0.0, 1e-6)
    assert lattices == [[(2, 39)], [(1, 39)]]
    assert grown == [("pair-0", (-9, 3), 2), ("pair-1", (-9, 3), 1)]
    # a plan pass when each run starts, and one more for the epochs left
    # after each growth
    labels = [epoch.label for epoch in plan.epochs]
    assert passes == [labels, labels[1:], labels, labels[2:]]
    assert dropped == lone_dropped
    assert len(kids) == len(lone_kids) > 1
    for got, kid in zip(kids, lone_kids):
        assert (got.id, got.amplitude, got.level, got.n_z, got.n_x) == \
            (kid.id, kid.amplitude, kid.level, kid.n_z, kid.n_x)
        assert np.array_equal(got.position, kid.position)
        assert np.array_equal(got.velocity, kid.velocity)
