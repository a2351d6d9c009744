import math

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
from recoilsim.pulses import build_raman_sequence, copropagating_pulse

A, C = InternalLevel.A, InternalLevel.C


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
    pulse = copropagating_pulse(math.pi, 2 * math.pi * 5e5, atom, "c-a",
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
    pulse = copropagating_pulse(math.pi, 2 * math.pi * 5e5, atom, "c-a",
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
    pulse = copropagating_pulse(math.pi, 2 * math.pi * 5e5, atom, "c-a",
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
    pulse = copropagating_pulse(math.pi, 2 * math.pi * 5e5, atom, "c-a",
                                axis="x")
    with pytest.raises(SelectivityError):
        selective_transfer(arms, pulse, atom, axis_name="z",
                           region_center=0.0, region_halfwidth=0.25e-3,
                           beam_width=0.5e-3, cloud_size=1e-3,
                           arm_floor=1e-6, decay_rate=0.0,
                           intended=lambda a: a.level is C)


def test_arm_velocity_consistent_with_momentum(atom):
    arm = initial_arm(atom)
    assert arm.velocity[2] == 0.0
    v = lattice_velocity(atom, -100, 4, -0.5)
    assert v[2] == pytest.approx(-100 * atom.recoil_velocity)
    assert v[0] == pytest.approx(4 * atom.recoil_velocity)
    assert v[1] == -0.5


def test_batched_stage_matches_lone_arms(atom, monkeypatch):
    # an x-reverse stage on four arms (two z rungs x levels A and C) plus two
    # arms off the pulse path, whose one-state supports share a batch and
    # then need different step counts; every child must equal a lone run
    omega = 2 * math.pi * 5e5
    a_x, c_x = 4, -6
    plan = build_raman_sequence("none", 4, math.pi / omega, omega, "x", atom,
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

    widths, stage_calls = [], []
    rk4, run = propagate._rk4, interferometer.run_sequence_on_arm

    def recording_rk4(h, work, *args):
        widths.append(1 if work.ndim == 1 else len(work))
        return rk4(h, work, *args)

    def recording_run(stage_arms, *args):
        stage_calls.append(len(stage_arms))
        return run(stage_arms, *args)

    monkeypatch.setattr(propagate, "_rk4", recording_rk4)
    monkeypatch.setattr(interferometer, "run_sequence_on_arm", recording_run)
    tl = _Timeline("test", atom, arm_floor=1e-6, decay_rate=0.0)
    tl.arms = arms
    tl.sequence("x-reverse", plan, (A, C), "x")
    assert stage_calls == [len(arms)]
    assert {1, 2, 4} <= set(widths)

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
