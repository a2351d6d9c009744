"""Adiabatic-transfer behavior: fidelity, robustness, chirp, dark state.

The headline physics claims live here: the dark-state splitter forgives
pulse-area errors that would wreck a bare pi pulse, and the stepwise
frequency compensation is what keeps the ladder working once the Doppler
shift grows past the two-photon linewidth.
"""

import math

import numpy as np
import pytest

from recoilsim.basis import Basis, RecoilState, WaveFunction
from recoilsim.hamiltonian import dark_state
from recoilsim.params import InternalLevel, rb87
from recoilsim.propagate import evolve_plan, ladder_basis
from recoilsim.pulses import (Epoch, PulseEnvelope, PulseEvent, SQUARE,
                              SequencePlan, build_adiabatic_sequence,
                              counter_intuitive_pair, effective_pulse)

A, B, C, E1 = (InternalLevel.A, InternalLevel.B, InternalLevel.C,
               InternalLevel.E1)
TWO_PI = 2 * math.pi
NOMINAL_RMS = TWO_PI * 100e6
NOMINAL_STAGGER = 50e-9


@pytest.fixture(scope="module")
def atom():
    return rb87()


def run_single_pair(atom, rms=NOMINAL_RMS, stagger=NOMINAL_STAGGER,
                    rabi_scale=1.0, stagger_scale=1.0):
    pair = counter_intuitive_pair(0, stagger * stagger_scale,
                                  rms * rabi_scale, direction=-1)
    plan = SequencePlan(epochs=[pair.epoch])
    basis = ladder_basis([A, B, E1], [0, -2])
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    out = evolve_plan(psi, plan, atom).psi
    return out, pair


def test_single_pair_transfer_nearly_perfect(atom):
    out, pair = run_single_pair(atom)
    fid = abs(out.amplitude(pair.target)) ** 2
    assert fid > 0.9999


def test_transferred_amplitude_flips_sign(atom):
    # each adiabatic step multiplies the moving amplitude by -1; the closed
    # interferometer's output port hinges on these signs
    out, pair = run_single_pair(atom)
    amp = out.amplitude(pair.target)
    assert amp.real < -0.999
    assert abs(amp.imag) < 1e-3


@pytest.mark.parametrize("scale", [0.8, 0.9, 1.1, 1.2])
def test_robust_to_pulse_area_error(atom, scale):
    out, pair = run_single_pair(atom, rabi_scale=scale)
    fid = abs(out.amplitude(pair.target)) ** 2
    assert fid > 0.99


@pytest.mark.parametrize("jitter", [-0.1, 0.1])
def test_robust_to_timing_jitter(atom, jitter):
    out, pair = run_single_pair(atom, stagger_scale=1 + jitter)
    fid = abs(out.amplitude(pair.target)) ** 2
    assert fid > 0.99


def test_pi_pulse_area_sensitivity_formula(atom):
    # contrast case: a bare two-level pi pulse leaves cos^2((1+eps)pi/2)
    # behind for an area error eps
    omega = TWO_PI * 5e5
    basis = Basis([A, C], range(-4, 3))
    for eps in (-0.2, -0.1, -0.03, 0.05, 0.15):
        area = (1 + eps) * math.pi
        ev = effective_pulse(area, omega, RecoilState(A, 0),
                             RecoilState(C, -2), "z")
        plan = SequencePlan(epochs=[
            Epoch(0.0, ev.envelope.duration, (ev,), {A: (0, 0), C: (-2, 0)})])
        psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
        out = evolve_plan(psi, plan, atom, dt_factor=64).psi
        residual = out.population([A])
        assert abs(residual - math.cos(area / 2) ** 2) < 1e-6


def test_dark_state_stationary_under_constant_drive(atom):
    # kinetic terms zeroed via the frame anchors; the a-leg amplitude is
    # rabi_plus and the b-leg amplitude rabi_minus, matching the dark state
    g_plus, g_minus = TWO_PI * 3e6, TWO_PI * 7e6
    duration = 5e-6
    a_leg = PulseEvent(PulseEnvelope(SQUARE, g_plus, 0.0, duration),
                       "sigma_minus", "z", -1, "adiabatic_lambda")
    b_leg = PulseEvent(PulseEnvelope(SQUARE, g_minus, 0.0, duration),
                       "sigma_plus", "z", +1, "adiabatic_lambda")
    anchors = {A: (0, 0), E1: (-1, 0), B: (-2, 0)}
    basis = Basis([A, B, E1], range(-6, 5))
    psi = dark_state(g_plus, g_minus, 0, -1, basis=basis)
    plan = SequencePlan(epochs=[
        Epoch(0.0, duration, (a_leg, b_leg), anchors)])
    out = evolve_plan(psi, plan, atom).psi
    assert out.population([E1]) < 1e-10
    overlap = abs(np.vdot(psi.amplitudes, out.amplitudes)) ** 2
    assert overlap > 1 - 1e-9


def test_bright_state_is_driven(atom):
    # sanity counterpart: the orthogonal combination does reach the
    # intermediate level under the same drive
    g_plus, g_minus = TWO_PI * 3e6, TWO_PI * 7e6
    duration = 0.3e-6
    a_leg = PulseEvent(PulseEnvelope(SQUARE, g_plus, 0.0, duration),
                       "sigma_minus", "z", -1, "adiabatic_lambda")
    b_leg = PulseEvent(PulseEnvelope(SQUARE, g_minus, 0.0, duration),
                       "sigma_plus", "z", +1, "adiabatic_lambda")
    anchors = {A: (0, 0), E1: (-1, 0), B: (-2, 0)}
    basis = Basis([A, B, E1], range(-6, 5))
    norm = math.hypot(g_plus, g_minus)
    bright = WaveFunction.from_components(
        basis, {RecoilState(A, 0): g_plus / norm,
                RecoilState(B, -2): g_minus / norm})
    plan = SequencePlan(epochs=[
        Epoch(0.0, duration, (a_leg, b_leg), anchors)])
    out = evolve_plan(bright, plan, atom).psi
    assert out.population([E1]) > 0.1


def test_chirped_ladder_per_pair_fidelity_uniform(atom):
    # with compensation on, each rung transfers as well as the first
    n_pairs = 20
    plan = build_adiabatic_sequence(n_pairs, NOMINAL_STAGGER, NOMINAL_RMS,
                                    chirp=True)
    basis = ladder_basis([A, B, E1], range(-2 * n_pairs, 1))
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    res = evolve_plan(psi, plan, atom, observer=lambda t, wf: wf,
                      observe_per_epoch=1)
    populations = []
    for j, wf in enumerate(res.samples):
        target = plan.pairs[j].target
        populations.append(abs(wf.amplitude(target)) ** 2)
    ratios = [populations[j] / populations[j - 1]
              for j in range(1, len(populations))]
    assert max(ratios) - min(ratios) < 1e-3


def test_decay_barely_touches_dark_transfer(atom):
    # the transfer rides the uncoupled superposition: with the natural decay
    # rate on the intermediate level the loss is percent-scale, versus the
    # near-total loss a scheme parked half-time in the excited state would
    # suffer over the same window
    gamma = TWO_PI * 6e6
    pair = counter_intuitive_pair(0, NOMINAL_STAGGER, NOMINAL_RMS)
    plan = SequencePlan(epochs=[pair.epoch])
    basis = ladder_basis([A, B, E1], [0, -2])
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    res = evolve_plan(psi, plan, atom, decay_rate=gamma)
    assert res.loss < 0.05
    naive_exposure = 1 - math.exp(-gamma * (3 * NOMINAL_STAGGER) / 2)
    assert res.loss < naive_exposure / 10
    assert abs(res.psi.amplitude(pair.target)) ** 2 > 0.95


def test_momentum_selection_in_parallel_raman_pulse(atom):
    # both parallel transitions fire; nothing leaks anywhere else
    omega = TWO_PI * 5e5
    t_pi = math.pi / omega
    from recoilsim.pulses import build_raman_sequence
    plan = build_raman_sequence("none", 1, t_pi, omega, "z",
                                start_rung=0, c_start_rung=-2,
                                start_direction=+1)
    basis = Basis([A, C], range(-30, 31))
    psi = WaveFunction.from_components(
        basis, {RecoilState(A, 0): 1 / math.sqrt(2),
                RecoilState(C, -2): 1 / math.sqrt(2)})
    out = evolve_plan(psi, plan, atom).psi
    allowed = {RecoilState(C, 2), RecoilState(A, -4),
               RecoilState(A, 0), RecoilState(C, -2)}
    leak = sum(abs(amp) ** 2 for state, amp in out.components()
               if state not in allowed)
    assert leak < 1e-8
    assert out.population([C]) == pytest.approx(0.5, abs=1e-6)
    assert abs(out.amplitude(RecoilState(C, 2))) ** 2 == pytest.approx(
        0.5, abs=1e-6)
