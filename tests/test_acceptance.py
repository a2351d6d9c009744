"""Acceptance suite: one test per shipped criterion, stated tolerances.

Each test prints a PASS line with the measured numbers once its assertions
hold, so `pytest tests/test_acceptance.py -v -s` doubles as the acceptance
report.  Heavy plan executions are shared session fixtures (conftest.py).
"""

import math
import time

import numpy as np
import pytest

from recoilsim.basis import Basis, RecoilState, WaveFunction
from recoilsim.fringes import (GridSpec, extract_spacing, ramsey_scan,
                               scan_minimum_near, synthesize)
from recoilsim.params import InternalLevel, rb87
from recoilsim.patterngen import TargetPattern, gear_silhouette, roundtrip
from recoilsim.plans import LAMBDA_LEVELS
from recoilsim.propagate import evolve_plan, ladder_basis
from recoilsim.pulses import (Epoch, SequencePlan, adiabaticity_parameter,
                              build_adiabatic_sequence, build_raman_sequence,
                              counter_intuitive_pair, effective_pulse)

A, B, C, E1 = (InternalLevel.A, InternalLevel.B, InternalLevel.C,
               InternalLevel.E1)
TWO_PI = 2 * math.pi


def report(n, text):
    print(f"\nPASS criterion {n}: {text}")


# ----------------------------------------------------------------------
# 1. deflection staircase at the published working point
# ----------------------------------------------------------------------

def test_criterion_1_deflection_staircase(figure3_run):
    result, wall_time = figure3_run
    p = result.params
    assert p.n_pairs == 30
    assert p.stagger_s == 50e-9                    # pair window 150 ns
    assert p.rms_rabi_hz == 100e6
    assert p.chirp

    assert result.final_transfer == pytest.approx(60.0, abs=0.5)
    assert result.final_population == pytest.approx(0.500, abs=0.005)

    seq = [row["recoils_transferred"] for row in result.rows]
    assert all(b >= a - 1e-3 for a, b in zip(seq, seq[1:])), \
        "staircase must be monotone"
    ends = result.pair_end_transfer
    assert len(ends) == 30
    for j, value in enumerate(ends):
        assert value == pytest.approx(2 * (j + 1), abs=0.2)

    assert wall_time < 300.0
    report(1, f"mean transfer {result.final_transfer:.3f} recoils, "
              f"population {result.final_population:.4f}, 30 monotone "
              f"steps, {wall_time:.0f} s wall time")


# ----------------------------------------------------------------------
# 2. adiabaticity arithmetic
# ----------------------------------------------------------------------

def test_criterion_2_adiabaticity_number(atom):
    xi = adiabaticity_parameter(TWO_PI * 100e6, 50e-9)
    assert xi == pytest.approx(0.032, abs=0.002)
    pair = counter_intuitive_pair(0, 50e-9, TWO_PI * 100e6, atom)
    assert pair.adiabaticity == pytest.approx(xi)
    assert pair.adiabatic
    report(2, f"(2 pi g T)^-1 = {xi:.4f}")


# ----------------------------------------------------------------------
# 3. area robustness of the dark-state transfer vs the bare pi pulse
# ----------------------------------------------------------------------

def test_criterion_3_area_robustness(atom):
    worst = 1.0
    for scale in (0.8, 0.9, 1.0, 1.1, 1.2):
        pair = counter_intuitive_pair(0, 50e-9, scale * TWO_PI * 100e6, atom)
        basis = ladder_basis([A, B, E1], [0, -2])
        psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
        out = evolve_plan(psi, SequencePlan(kind="p", epochs=[pair.epoch]),
                          atom).psi
        fid = abs(out.amplitude(pair.target)) ** 2
        worst = min(worst, fid)
        assert fid > 0.99

    omega = TWO_PI * 5e5
    max_dev = 0.0
    for eps in np.linspace(-0.2, 0.2, 9):
        area = (1 + eps) * math.pi
        ev = effective_pulse(area, omega, RecoilState(A, 0),
                             RecoilState(C, -2), atom, "sigma_pair", "z")
        basis = Basis([A, C], range(-5, 3))
        psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
        plan = SequencePlan(kind="pi", epochs=[
            Epoch(0.0, ev.envelope.duration, (ev,), {A: (0, 0), C: (-2, 0)})])
        out = evolve_plan(psi, plan, atom, dt_factor=64).psi
        residual = out.population([A])
        dev = abs(residual - math.cos(area / 2) ** 2)
        max_dev = max(max_dev, dev)
        assert dev < 1e-6
    report(3, f"dark-state transfer fidelity > {worst:.5f} across +-20% "
              f"drive error; bare pi-pulse residual matches "
              f"cos^2((1+eps)pi/2) within {max_dev:.1e}")


# ----------------------------------------------------------------------
# 4. the stepwise frequency compensation is load-bearing
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def chirp_demo(atom):
    """30-pair ladders, slow enough that the Doppler ramp competes with the
    drive (same adiabaticity parameter as the nominal working point)."""
    stagger = 5e-6
    rms = TWO_PI * 1e6
    results = {}
    for chirp in (True, False):
        plan = build_adiabatic_sequence(30, stagger, rms, atom, chirp=chirp)
        basis = ladder_basis([A, B, E1], range(-60, 1))
        psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
        res = evolve_plan(psi, plan, atom, observer=lambda t, wf: wf,
                          observe_per_epoch=1)
        fidelities = [abs(wf.amplitude(plan.pairs[j].target)) ** 2
                      for j, wf in enumerate(res.samples)]
        results[chirp] = fidelities
    return results


def test_criterion_4_chirp_necessity(atom, chirp_demo):
    xi = adiabaticity_parameter(TWO_PI * 1e6, 5e-6)
    assert xi == pytest.approx(0.032, abs=0.002)  # same working point

    uncompensated = chirp_demo[False]
    assert uncompensated[-1] < 0.5

    compensated = chirp_demo[True]
    assert compensated[-1] > 0.99
    per_pair = [compensated[j] / compensated[j - 1]
                for j in range(1, len(compensated))]
    spread = max(per_pair) - min(per_pair)
    assert spread < 1e-3
    report(4, f"cumulative fidelity after 30 pairs: "
              f"{uncompensated[-1]:.3f} without compensation, "
              f"{compensated[-1]:.5f} with it (per-pair spread {spread:.1e})")


# ----------------------------------------------------------------------
# 5. kinematics
# ----------------------------------------------------------------------

def test_criterion_5_kinematics(atom):
    from recoilsim.interferometer import ArmTrack, free_flight, \
        lattice_velocity

    v100 = 100 * atom.recoil_velocity
    assert v100 == pytest.approx(0.589, abs=0.001)  # nominal 0.6 m/s

    def arm(nz, z=0.0):
        return ArmTrack("a", 1.0, A, nz, 0, np.array([0.0, 0.0, z]),
                        lattice_velocity(atom, nz, 0, 0.0), 0.0)

    out = free_flight([arm(0), arm(-100)], 3.3e-3, atom)
    sep = abs(out[0].position[2] - out[1].position[2])
    assert sep == pytest.approx(1.94e-3, abs=0.01e-3)   # nominal 2 mm
    drop = -out[0].position[1]
    assert drop == pytest.approx(53.4e-6, abs=0.5e-6)   # nominal 55 um

    far = free_flight([arm(0), arm(100)], 50e-3, atom)
    sep50 = abs(far[0].position[2] - far[1].position[2])
    assert sep50 == pytest.approx(2.95e-2, abs=0.05e-2)  # nominal 3 cm
    report(5, f"relative velocity {v100:.4f} m/s, separation "
              f"{sep * 1e3:.3f} mm at 3.3 ms, drop {drop * 1e6:.1f} um, "
              f"{sep50 * 1e2:.2f} cm at 50 ms")


# ----------------------------------------------------------------------
# 6. one-dimensional fringe spacings
# ----------------------------------------------------------------------

def test_criterion_6_one_dimensional_fringes(atom, plan1d_run,
                                             raman_variant_run):
    lam = atom.lattice_wavelength
    pattern = synthesize(plan1d_run.final_arms, GridSpec(), atom)
    est = extract_spacing(pattern, "z")
    # 7.80 nm from the exact 100-recoil separation, within one Fourier bin
    assert lam / 100 == pytest.approx(7.80e-9, abs=0.005e-9)
    assert abs(est.period - lam / 100) <= est.bin_uncertainty
    # consistent with the round-number estimate at 800 nm within 10%
    assert est.period == pytest.approx(8e-9, rel=0.10)

    pattern94 = synthesize(raman_variant_run.final_arms, GridSpec(), atom)
    est94 = extract_spacing(pattern94, "z")
    # 8.30 nm from the 94-recoil separation, within one Fourier bin
    assert lam / 94 == pytest.approx(8.30e-9, abs=0.005e-9)
    assert abs(est94.period - lam / 94) <= est94.bin_uncertainty
    assert est94.period == pytest.approx(8e-9, rel=0.10)
    report(6, f"adiabatic route {est.period * 1e9:.3f} nm (lambda/100), "
              f"two-photon route {est94.period * 1e9:.3f} nm (lambda/94)")


# ----------------------------------------------------------------------
# 7. two-dimensional grating
# ----------------------------------------------------------------------

def test_criterion_7_two_dimensional_grating(atom, plan2d_run):
    lam = atom.lattice_wavelength
    for arm in plan2d_run.final_arms:
        assert arm.population == pytest.approx(0.25, abs=0.005)

    pattern = synthesize(plan2d_run.final_arms, GridSpec.default_2d(), atom)
    est_z = extract_spacing(pattern, "z")
    est_x = extract_spacing(pattern, "x")
    assert abs(est_z.period - lam / 94) <= est_z.bin_uncertainty
    assert abs(est_x.period - lam / 190) <= est_x.bin_uncertainty
    assert est_z.period == pytest.approx(8e-9, rel=0.10)
    assert est_x.period == pytest.approx(4e-9, rel=0.10)
    report(7, f"grating spacings {est_z.period * 1e9:.3f} nm (z) by "
              f"{est_x.period * 1e9:.3f} nm (x), four arms at 0.25 each")


# ----------------------------------------------------------------------
# 8. detuning-scan readout
# ----------------------------------------------------------------------

def test_criterion_8_ramsey_readout(ramsey_run):
    assert ramsey_run.tau == pytest.approx(0.102, rel=1e-9)
    pc0 = ramsey_run.pc_of(0.0)
    assert pc0 < 1e-3

    scan = ramsey_scan(ramsey_run, periods=3.2, points_per_period=100)
    assert scan.fringe_period_hz == pytest.approx(9.80, abs=0.05)
    assert scan.width_scale_hz == pytest.approx(1.56, abs=0.01)

    phi = math.pi / 2
    shifted = ramsey_scan(ramsey_run.with_arm_phase(phi), periods=3.2,
                          points_per_period=100)
    m0 = scan_minimum_near(scan, 0.0)
    m1 = scan_minimum_near(shifted, 0.0)
    expected = phi / (2 * math.pi) * scan.fringe_period_hz
    assert abs(m1 - m0) == pytest.approx(expected, rel=0.02)
    report(8, f"P_c(0) = {pc0:.2e}, period {scan.fringe_period_hz:.3f} Hz, "
              f"width scale {scan.width_scale_hz:.3f} Hz, pi/2 arm phase "
              f"moves the pattern {abs(m1 - m0):.3f} Hz")


# ----------------------------------------------------------------------
# 9. pattern pipeline round trip
# ----------------------------------------------------------------------

def test_criterion_9_pattern_round_trip():
    worst = 0.0
    for value in (-1.0, 0.0, 0.6, 1.0):
        rep = roundtrip(TargetPattern(np.full((32, 32), value)))
        worst = max(worst, rep.max_abs_error)
        assert rep.max_abs_error < 1e-12

    gradient = np.outer(np.linspace(-1, 1, 64), np.ones(64))
    rep = roundtrip(TargetPattern(gradient))
    worst = max(worst, rep.max_abs_error)
    assert rep.max_abs_error < 1e-12

    rep = roundtrip(TargetPattern(gear_silhouette(64)))
    worst = max(worst, rep.max_abs_error)
    assert rep.max_abs_error < 1e-12
    report(9, f"constant, gradient and silhouette round trips all within "
              f"{worst:.1e} (the nanometer feature-size goal is documented, "
              f"not simulated)")


# ----------------------------------------------------------------------
# 10. engine oracles
# ----------------------------------------------------------------------

def test_criterion_10_engine_oracles(atom):
    # generalized two-level formula over ten seeded random triples
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(10):
        omega = TWO_PI * 10 ** rng.uniform(4.5, 6.0)
        delta = omega * rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.2, 3.0) * TWO_PI / omega
        ev = effective_pulse(omega * t, omega, RecoilState(A, 0),
                             RecoilState(C, -2), atom, "sigma_pair", "z",
                             bias_detuning=delta)
        basis = Basis([A, C], range(-5, 3))
        psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
        plan = SequencePlan(kind="rabi", epochs=[
            Epoch(0.0, t, (ev,), {A: (0, 0), C: (-2, 0)})])
        out = evolve_plan(psi, plan, atom, dt_factor=64).psi
        w = math.hypot(omega, delta)
        expected = (omega / w) ** 2 * math.sin(w * t / 2) ** 2
        dev = abs(out.population([C]) - expected)
        worst = max(worst, dev)
        assert dev < 1e-6

    # norm conservation over >= 1e4 steps of a constant lambda drive
    from recoilsim.pulses import PulseEnvelope, PulseEvent, SQUARE
    omega = TWO_PI * 5e5
    duration = 10_500 / (32 * (omega + 4 * atom.recoil_frequency))
    lead = PulseEvent(PulseEnvelope(SQUARE, omega, 0.0, duration),
                      "sigma_plus", "z", +1, "adiabatic_lambda")
    trail = PulseEvent(PulseEnvelope(SQUARE, omega, 0.0, duration),
                       "sigma_minus", "z", -1, "adiabatic_lambda")
    plan = SequencePlan(kind="drive", epochs=[
        Epoch(0.0, duration, (lead, trail),
              {A: (0, 0), E1: (-1, 0), B: (-2, 0)})])
    basis = Basis([A, B, E1], range(-4, 5))
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    res = evolve_plan(psi, plan, atom)
    assert res.steps >= 10_000
    norm_err = abs(res.psi.total_population() - 1.0)
    assert norm_err < 1e-7

    # momentum selection in a parallel two-transition pi pulse
    omega = TWO_PI * 5e5
    plan = build_raman_sequence("none", 1, math.pi / omega, omega, "z", atom,
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
    report(10, f"two-level oracle within {worst:.1e}, norm error "
               f"{norm_err:.1e} over {res.steps} steps, parallel-transition "
               f"leakage {leak:.1e}")
