import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recoilsim.basis import Basis, RecoilState
from recoilsim.errors import ConfigurationError
from recoilsim.hamiltonian import compile_from_epoch, compile_plan
from recoilsim.params import InternalLevel, rb87
from recoilsim.propagate import default_dt, ladder_basis
from recoilsim.pulses import (Epoch, PulseEnvelope, SINE_SQUARED, SQUARE,
                              adiabaticity_parameter,
                              build_adiabatic_sequence, build_raman_sequence,
                              copropagating_pulse, counter_intuitive_pair,
                              effective_pulse)

A, B, C, E1 = (InternalLevel.A, InternalLevel.B, InternalLevel.C,
               InternalLevel.E1)
TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def atom():
    return rb87()


@given(peak=st.floats(1e3, 1e10), start=st.floats(0, 1e-3),
       duration=st.floats(1e-9, 1e-3),
       shape=st.sampled_from([SINE_SQUARED, SQUARE]),
       x=st.floats(-0.5, 1.5))
@settings(max_examples=80, deadline=None)
def test_envelope_zero_outside_window_peak_inside(peak, start, duration, shape, x):
    env = PulseEnvelope(shape, peak, start, duration)
    t = start + x * duration
    value = env.value(t)
    if x < -0.01 or x > 1.01:          # clear of float edge collisions
        assert value == 0.0
    elif 0 <= x <= 1:
        assert 0.0 <= value <= peak
    assert env.value(start + duration / 2) == pytest.approx(peak)


def scalar_envelope(env, t):
    """The envelope formula one time at a time; the array form must give
    exactly this at every element."""
    if t < env.start or t > env.end:
        return 0.0
    if env.shape == SQUARE:
        return env.peak_rabi
    x = (t - env.start) / env.duration
    s = math.sin(math.pi * x)
    return env.peak_rabi * s * s


@pytest.mark.bits
@pytest.mark.parametrize("shape", [SINE_SQUARED, SQUARE])
def test_array_envelope_is_the_scalar_formula_at_the_window_edges(shape):
    env = PulseEnvelope(shape, TWO_PI * 1e8, 3e-8, 1e-7)
    times = [t for edge in (env.start, env.end)
             for t in (np.nextafter(edge, -np.inf), edge,
                       np.nextafter(edge, np.inf))]
    times += np.linspace(0.0, 2e-7, 41).tolist()
    values = env.value(np.array(times))
    assert values.tolist() == [scalar_envelope(env, t) for t in times]
    assert [env.value(t) for t in times] == values.tolist()
    assert values[0] == 0.0 and values[5] == 0.0
    assert (values[1] == 0.0) == (shape == SINE_SQUARED)
    assert values[2] > 0.0 and values[4] > 0.0


@pytest.mark.bits
def test_array_envelope_is_the_scalar_formula_at_every_ladder_substage(atom):
    # the times the RK4 loop evaluates, computed as it does one step at a
    # time, over the second pair of a ladder (one beam opens at the epoch
    # start, the other closes at its end)
    epoch = build_adiabatic_sequence(2, 50e-9, TWO_PI * 1e8).epochs[1]
    basis = ladder_basis([A, B, E1], [-2, -4])
    h = compile_from_epoch(*next(compile_plan(basis, [epoch], atom, 0.0)))
    n_steps = math.ceil(epoch.duration / default_dt(h, 32.0, epoch.t_start,
                                                    epoch.t_end))
    dt = epoch.duration / n_steps
    times = []
    for k in range(n_steps):
        t = epoch.t_start + k * epoch.duration / n_steps
        times += [t, t + 0.5 * dt, min(t + dt, epoch.t_end)]
    assert n_steps > 100
    for event in epoch.events:
        values = event.envelope.value(np.array(times))
        assert values.tolist() == [scalar_envelope(event.envelope, t)
                                   for t in times]


def test_envelope_validation():
    with pytest.raises(ConfigurationError):
        PulseEnvelope("triangle", 1.0, 0, 1.0)
    with pytest.raises(ConfigurationError):
        PulseEnvelope(SQUARE, 1.0, 0, 0.0)


def test_adiabaticity_number(atom):
    # rms Rabi at 100 MHz with a 50 ns stagger
    xi = adiabaticity_parameter(TWO_PI * 100e6, 50e-9)
    assert xi == pytest.approx(0.032, abs=0.002)


def test_pair_geometry_and_tags(atom):
    T = 50e-9
    pair = counter_intuitive_pair(0, T, TWO_PI * 1e8, direction=-1)
    lead, trail = pair.epoch.events
    assert lead.polarization == "sigma_plus"
    assert lead.direction == +1
    assert trail.polarization == "sigma_minus"
    assert trail.direction == -1
    assert lead.envelope.start == 0.0
    assert lead.envelope.duration == pytest.approx(2 * T)
    assert trail.envelope.start == pytest.approx(T)
    assert trail.envelope.duration == pytest.approx(2 * T)
    # total pair window is 3T
    assert pair.epoch.duration == pytest.approx(3 * T)

    odd = counter_intuitive_pair(1, T, TWO_PI * 1e8, direction=-1,
                                 start_rung=-2)
    lead, trail = odd.epoch.events
    assert lead.polarization == "sigma_minus"
    assert lead.direction == +1
    assert trail.polarization == "sigma_plus"
    assert trail.direction == -1


def test_pair_chain_prediction(atom):
    pair = counter_intuitive_pair(0, 50e-9, TWO_PI * 1e8, direction=-1)
    assert pair.target == RecoilState(B, -2)


def test_pair_flagged_when_not_adiabatic(atom, pair_adiabaticity):
    T = 50e-9
    g = 1 / (0.5 * T)  # adiabaticity parameter exactly 0.5
    pair = counter_intuitive_pair(0, T, g)
    assert pair_adiabaticity(pair) == pytest.approx(0.5)
    assert not pair.adiabatic
    good = counter_intuitive_pair(0, T, TWO_PI * 1e8)
    assert good.adiabatic


def test_pair_rejects_nonpositive_inputs(atom):
    with pytest.raises(ConfigurationError):
        counter_intuitive_pair(0, 0.0, 1e8)
    with pytest.raises(ConfigurationError):
        counter_intuitive_pair(0, 50e-9, 0.0)


def tone_rate(atom, from_state, to_state, anchors=None, **kw):
    """Phase-ramp rate of one compiled Raman tone on its from-state: the
    tone's detuning from the pair's transition in the anchored frame."""
    ev = effective_pulse(math.pi, 1e6, from_state, to_state, "z", **kw)
    basis = Basis([A, C], range(-12, 13))
    epoch = Epoch(ev.envelope.start, ev.envelope.duration, (ev,),
                  anchors or {})
    h = compile_from_epoch(*next(compile_plan(basis, [epoch], atom, 0.0)))
    (perm,), (rate,) = h.perm, h.rate
    i = basis.index_of(from_state)
    assert perm[i] == basis.index_of(to_state)
    assert rate[perm[i]] == -rate[i]
    return rate[i]


def test_chirp_offset_first_rung_is_pure_recoil(atom):
    # in the unanchored frame the chirped tone runs at the pair's kinetic step
    wr = atom.recoil_frequency
    rate = tone_rate(atom, RecoilState(A, 0), RecoilState(C, -2))
    assert rate == pytest.approx(4 * wr)


def test_chirp_offset_second_rung(atom):
    wr = atom.recoil_frequency
    step = (RecoilState(A, -2), RecoilState(C, -4))
    assert tone_rate(atom, *step) == pytest.approx(12 * wr)
    # anchored on the pair, the chirped tone is resonant; a tone left at
    # rung 0 is 12 wr needed minus 4 wr tuned off resonance
    anchors = {A: (-2, 0), C: (-4, 0)}
    assert tone_rate(atom, *step, anchors) == 0.0
    unchirped = tone_rate(atom, *step, anchors, reference_rung=0)
    assert abs(unchirped) == pytest.approx(8 * wr)


@given(drift=st.integers(-6, 6))
@settings(max_examples=40, deadline=None)
def test_chirp_offset_doppler_symmetry(drift):
    # the mirrored pair of an atom drifting the other way (drift recoils)
    # needs the sign-flipped tone
    atom = rb87()
    fwd = tone_rate(atom, RecoilState(A, -drift), RecoilState(C, -drift - 2))
    rev = tone_rate(atom, RecoilState(A, drift + 2), RecoilState(C, drift))
    assert rev == -fwd


def test_chirp_offset_rejects_illegal_pairs(atom):
    with pytest.raises(ConfigurationError):  # one recoil is not two-photon
        effective_pulse(math.pi, 1e6, RecoilState(A, 0), RecoilState(C, -1),
                        "z")
    with pytest.raises(ConfigurationError):  # a z tone cannot move along x
        effective_pulse(math.pi, 1e6, RecoilState(A, 0, 0),
                        RecoilState(C, -2, 2), "z")


def test_adiabatic_sequence_predictions(atom):
    two = build_adiabatic_sequence(2, 50e-9, TWO_PI * 1e8)
    assert two.expected_final["deflected"] == RecoilState(A, -4)

    thirty = build_adiabatic_sequence(30, 50e-9, TWO_PI * 1e8)
    assert thirty.total_duration == pytest.approx(4.5e-6)
    assert thirty.expected_final["deflected"] == RecoilState(A, -60)

    fifty = build_adiabatic_sequence(50, 50e-9, TWO_PI * 1e8)
    assert fifty.total_duration == pytest.approx(7.5e-6)
    assert fifty.expected_final["deflected"] == RecoilState(A, -100)


def test_adiabatic_sequence_parity_all_rungs(atom):
    # level alternates a, b with pair count; momentum steps two per pair
    for n_pairs in range(1, 61):
        plan = build_adiabatic_sequence(n_pairs, 50e-9, TWO_PI * 1e8)
        final = plan.expected_final["deflected"]
        assert final.n_z == -2 * n_pairs
        assert final.level is (A if n_pairs % 2 == 0 else B)


def test_adiabatic_sequence_needs_pairs(atom):
    with pytest.raises(ConfigurationError):
        build_adiabatic_sequence(0, 50e-9, TWO_PI * 1e8)


def test_raman_pi_condition_enforced(atom):
    omega = TWO_PI * 5e5
    with pytest.raises(ConfigurationError):
        build_raman_sequence("half_pi", 2, 1.0001 * math.pi / omega, omega,
                             "z")


def test_raman_half_pi_bookkeeping(atom):
    omega = TWO_PI * 5e5
    plan = build_raman_sequence("half_pi", 0, math.pi / omega, omega, "z",
                                half_pi_direction=-1)
    assert plan.expected_final["a_arm"] == RecoilState(A, 0)
    assert plan.expected_final["c_arm"] == RecoilState(C, -2)


def test_raman_ladder_bookkeeping_matches_closed_form(atom):
    omega = TWO_PI * 5e5
    for pulses in (2, 4, 24, 48):
        plan = build_raman_sequence("half_pi", pulses, math.pi / omega,
                                    omega, "z", start_direction=+1,
                                    half_pi_direction=-1)
        p = pulses // 2
        assert plan.expected_final["a_arm"] == RecoilState(A, 4 * p)
        assert plan.expected_final["c_arm"] == RecoilState(C, -(4 * p + 2))


def test_raman_two_pulses_named_example(atom):
    omega = TWO_PI * 5e5
    plan = build_raman_sequence("half_pi", 2, math.pi / omega, omega, "z")
    assert plan.expected_final["a_arm"] == RecoilState(A, 4)
    assert plan.expected_final["c_arm"] == RecoilState(C, -6)


def test_raman_parallel_tones_per_pi_pulse(atom):
    omega = TWO_PI * 5e5
    plan = build_raman_sequence("half_pi", 2, math.pi / omega, omega, "z")
    pi_epochs = [ep for ep in plan.epochs if ep.label.startswith("pi")]
    for ep in pi_epochs:
        assert len(ep.events) == 2  # both parallel transitions driven


def test_raman_reversal_merges_tones_at_path_crossing(atom):
    omega = TWO_PI * 5e5
    plan = build_raman_sequence("none", 48, math.pi / omega, omega, "z",
                                start_rung=48, c_start_rung=-50,
                                start_direction=-1)
    assert plan.expected_final["a_arm"] == RecoilState(A, -48)
    assert plan.expected_final["c_arm"] == RecoilState(C, 46)
    tone_counts = [len(ep.events) for ep in plan.epochs]
    assert tone_counts.count(1) == 1  # exactly one crossing pulse
    assert set(tone_counts) == {1, 2}


def test_copropagating_pulse_shapes(atom):
    omega = TWO_PI * 5e5
    ev = copropagating_pulse(math.pi / 2, omega, "a-c", axis="x")
    assert ev.delta_n == 0
    assert ev.envelope.duration == pytest.approx((math.pi / 2) / omega)
    assert ev.polarization == "pi_pair"
    z = copropagating_pulse(math.pi, omega, "c-a", axis="z")
    assert z.polarization == "sigma_pair"
    with pytest.raises(ConfigurationError):
        copropagating_pulse(0.0, omega)
    with pytest.raises(ConfigurationError):
        copropagating_pulse(math.pi, omega, "a-b")
    with pytest.raises(ConfigurationError):  # a coupling must change level
        dataclasses.replace(ev, levels=(A, A))
