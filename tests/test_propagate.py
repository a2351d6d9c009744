"""Integrator oracles: analytic two-level formulas, norm, stability."""

import math

import numpy as np
import pytest

from recoilsim import propagate
from recoilsim.basis import Basis, RecoilState, WaveFunction
from recoilsim.errors import ConfigurationError, IntegrationError
from recoilsim.hamiltonian import EpochHamiltonian, compile_epoch
from recoilsim.params import InternalLevel, rb87
from recoilsim.propagate import (STABILITY_LIMIT, check_stability,
                                 evolve_plan)
from recoilsim.pulses import (Epoch, SequencePlan, effective_pulse,
                              copropagating_pulse)

A, B, C, E1 = (InternalLevel.A, InternalLevel.B, InternalLevel.C,
               InternalLevel.E1)


@pytest.fixture(scope="module")
def atom():
    return rb87()


def two_level_plan(atom, omega, duration, detuning=0.0):
    ev = effective_pulse(omega * duration, omega, RecoilState(A, 0),
                         RecoilState(C, -2), atom, "sigma_pair", "z",
                         bias_detuning=detuning)
    anchors = {A: (0, 0), C: (-2, 0)}
    return SequencePlan(kind="two-level", epochs=[
        Epoch(0.0, duration, (ev,), anchors)])


def generalized_rabi(omega, delta, t):
    w = math.hypot(omega, delta)
    return (omega / w) ** 2 * math.sin(w * t / 2) ** 2


def run_two_level(atom, omega, duration, detuning=0.0, dt_factor=32.0):
    basis = Basis([A, C], range(-4, 3))
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    plan = two_level_plan(atom, omega, duration, detuning)
    res = evolve_plan(psi, plan, atom, dt_factor=dt_factor)
    return res.psi


def test_resonant_pi_pulse_full_transfer(atom):
    omega = 2 * math.pi * 4e5
    psi = run_two_level(atom, omega, math.pi / omega)
    assert abs(psi.population([C]) - 1.0) < 1e-6
    assert abs(psi.norm() - 1.0) < 1e-9


def test_generalized_rabi_oracle_ten_random_triples(atom):
    rng = np.random.default_rng(1234)
    for _ in range(10):
        omega = 2 * math.pi * 10 ** rng.uniform(4.5, 6.0)
        delta = omega * rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.2, 3.0) * 2 * math.pi / omega
        psi = run_two_level(atom, omega, t, detuning=delta, dt_factor=64)
        expected = generalized_rabi(omega, delta, t)
        assert abs(psi.population([C]) - expected) < 1e-6


def test_zero_hamiltonian_identity_up_to_kinetic_phases(atom):
    basis = Basis([A], range(-6, 9))
    psi = WaveFunction.from_components(
        basis, {RecoilState(A, 0): 1.0, RecoilState(A, 2): 1.0})
    duration = 1e-5
    plan = SequencePlan(kind="free", epochs=[Epoch(0.0, duration, (), {})])
    out = evolve_plan(psi, plan, atom).psi
    assert np.allclose(np.abs(out.amplitudes), np.abs(psi.amplitudes),
                       atol=1e-12)
    ratio = out.amplitude(RecoilState(A, 2)) / out.amplitude(RecoilState(A, 0))
    expected = np.exp(-1j * (atom.kinetic_rate(2) - atom.kinetic_rate(0))
                      * duration)
    assert abs(ratio - expected) < 1e-6


def test_step_validates_stability_bound(atom):
    omega = 2 * math.pi * 1e6
    ev = copropagating_pulse(math.pi, omega, atom, "a-c", axis="x")
    basis = Basis([A, C], range(-1, 2))
    h = compile_epoch(basis, [ev], atom)
    limit = STABILITY_LIMIT / h.max_element()
    with pytest.raises(IntegrationError):
        check_stability(h, 2 * limit)
    check_stability(h, limit / 10)


def test_norm_conserved_over_ten_thousand_steps(atom):
    # constant lambda drive via two square sigma beams, >= 1e4 RK4 steps
    from recoilsim.pulses import PulseEnvelope, PulseEvent, SQUARE
    omega = 2 * math.pi * 5e5
    basis = Basis([A, B, E1], range(-3, 4))
    duration = 10_500 / (32 * (omega + 4 * atom.recoil_frequency))
    lead = PulseEvent(PulseEnvelope(SQUARE, omega, 0.0, duration),
                      "sigma_plus", "z", +1, "adiabatic_lambda")
    trail = PulseEvent(PulseEnvelope(SQUARE, omega, 0.0, duration),
                       "sigma_minus", "z", -1, "adiabatic_lambda")
    anchors = {A: (0, 0), E1: (-1, 0), B: (-2, 0)}
    plan = SequencePlan(kind="drive", epochs=[
        Epoch(0.0, duration, (lead, trail), anchors)])
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    res = evolve_plan(psi, plan, atom)
    assert res.steps >= 10_000
    assert abs(res.psi.total_population() - 1.0) < 1e-7


def test_cross_axis_momentum_conserved_under_z_pulses(atom):
    # z-axis beams cannot change the transverse momentum distribution
    from recoilsim.pulses import build_adiabatic_sequence
    plan = build_adiabatic_sequence(2, 50e-9, 2 * math.pi * 1e8, atom)
    basis = Basis([A, B, E1], range(-7, 4), (2,))
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0, 2): 1.0})
    out = evolve_plan(psi, plan, atom).psi
    w = np.abs(out.amplitudes) ** 2
    nx_mean = float(np.sum(out.basis.n_x * w) / np.sum(w))
    assert nx_mean == pytest.approx(2.0, abs=1e-12)
    assert out.population([A]) > 0.99  # two pairs end back in the first leg


def test_two_level_oracle_inside_large_basis(atom):
    # an isolated coupled pair inside a big lattice follows the same
    # analytic formula as the bare two-level system
    omega = 2 * math.pi * 3e5
    delta = 0.7 * omega
    t = 1.8 * math.pi / omega
    ev = effective_pulse(omega * t, omega, RecoilState(A, 5),
                         RecoilState(C, 3), atom, "sigma_pair", "z",
                         bias_detuning=delta)
    basis = Basis([A, B, C, E1], range(-40, 41))
    anchors = {A: (5, 0), C: (3, 0)}
    plan = SequencePlan(kind="pair", epochs=[Epoch(0.0, t, (ev,), anchors)])
    psi = WaveFunction.from_components(basis, {RecoilState(A, 5): 1.0})
    out = evolve_plan(psi, plan, atom, dt_factor=64).psi
    expected = generalized_rabi(omega, delta, t)
    assert abs(out.population([C]) - expected) < 1e-6


def test_auto_extension_grows_window(atom):
    from recoilsim.pulses import build_adiabatic_sequence
    plan = build_adiabatic_sequence(3, 50e-9, 2 * math.pi * 1e8, atom)
    basis = Basis([A, B, E1], range(-4, 2))  # too small for 3 pairs
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    out = evolve_plan(psi, plan, atom).psi
    assert out.basis.window_z()[0] < -4
    assert out.population([B]) > 0.99


def test_x_sequence_on_one_z_rung_keeps_its_basis(atom):
    # a one-rung z window is the cross axis of an x run, never its edge
    from recoilsim.pulses import build_raman_sequence
    omega = 2 * math.pi * 5e5
    plan = build_raman_sequence("half_pi", 2, math.pi / omega, omega, "x",
                                atom)
    basis = Basis([A, C], (0,), range(-9, 8))
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0, 0): 1.0})
    assert psi.boundary_population(margin=2) == 0.0
    out = evolve_plan(psi, plan, atom).psi
    assert out.basis.window_z() == (0, 0)
    assert out.basis.window_x() == (-9, 7)
    assert out.total_population() == pytest.approx(1.0, abs=1e-9)
    assert out.population([A]) == pytest.approx(0.5, abs=1e-3)


def test_memory_budget_enforced(atom, monkeypatch):
    from recoilsim.pulses import build_adiabatic_sequence
    plan = build_adiabatic_sequence(3, 50e-9, 2 * math.pi * 1e8, atom)
    basis = Basis([A, B, E1], range(-4, 2))
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    monkeypatch.setattr(propagate, "MAX_STATES", 20)
    with pytest.raises(ConfigurationError, match="over the budget of 20"):
        evolve_plan(psi, plan, atom)


def test_batch_member_keeps_its_own_step_count(atom, monkeypatch):
    omega = 2 * math.pi * 4e5
    duration = 0.8 * math.pi / omega
    detunings = np.array([0.0, 0.3 * omega, -0.5 * omega])
    basis = Basis([A, C], range(-4, 3))
    single = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    batch = WaveFunction(basis, np.tile(single.amplitudes, (3, 1)))
    plan = two_level_plan(atom, omega, duration, detunings)

    def alone(k, dt_factor=32.0):
        plan_k = two_level_plan(atom, omega, duration, float(detunings[k]))
        return evolve_plan(single, plan_k, atom, dt_factor=dt_factor)

    plain = evolve_plan(batch, plan, atom)
    assert plain.psi.amplitudes.shape == (3, len(basis))
    assert plain.steps == alone(0).steps
    for k in range(3):
        assert np.array_equal(plain.psi.amplitudes[k], alone(k).psi.amplitudes)

    # triple member 1's bound: it alone needs the steps of dt_factor 96
    # (32 * (3 * bound) rounds exactly as 96 * bound)
    row_bound = EpochHamiltonian.row_bound

    def boosted(self, t0=None, t1=None):
        bound = row_bound(self, t0, t1)
        return bound * np.array([1.0, 3.0, 1.0]) if np.ndim(bound) else bound

    monkeypatch.setattr(EpochHamiltonian, "row_bound", boosted)
    split = evolve_plan(batch, plan, atom)
    finer = alone(1, dt_factor=96.0)
    assert finer.steps > alone(1).steps
    assert split.steps == alone(0).steps + finer.steps
    assert np.array_equal(split.psi.amplitudes[1], finer.psi.amplitudes)
    for k in (0, 2):
        assert np.array_equal(split.psi.amplitudes[k], alone(k).psi.amplitudes)


def test_batch_window_grows_when_any_member_nears_the_edge(atom):
    from recoilsim.pulses import build_adiabatic_sequence
    plan = build_adiabatic_sequence(3, 50e-9, 2 * math.pi * 1e8, atom)
    basis = Basis([A, B, C, E1], range(-4, 2))  # too small for 3 pairs
    still = WaveFunction.from_components(basis, {RecoilState(C, -2): 1.0})
    mover = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    assert evolve_plan(still, plan, atom).psi.basis.window_z() == (-4, 1)
    batch = WaveFunction(basis, np.stack([still.amplitudes,
                                          mover.amplitudes]))
    out = evolve_plan(batch, plan, atom).psi
    alone = evolve_plan(mover, plan, atom).psi
    assert out.basis.window_z() == alone.basis.window_z()
    assert out.basis.window_z()[0] < -4
    assert out.population([C])[0] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(out.amplitudes[1] - alone.amplitudes)) < 1e-9
