"""Spacing-versus-pulse-count law for the two-axis scheme.

The grating periods scale inversely with the pulse-pair counts: the exact
separations are dn = 8P-2 (z) and 8Q+... mirrored; the plane-wave period
lambda/dn then tracks the round-number estimate 100/P nm (at the nominal
800 nm wavelength) to within a few percent.
"""

import math

import pytest

from recoilsim.errors import AdiabaticityError
from recoilsim.fringes import GridSpec, extract_spacing, synthesize
from recoilsim.plans import Plan1DParams, run_plan_1d_adiabatic
from recoilsim.pulses import build_raman_sequence

TWO_PI = 2 * math.pi


@pytest.mark.parametrize("half_count", [6, 12, 24, 48])
def test_z_spacing_scales_inversely_with_pulse_count(atom, half_count):
    # ladder bookkeeping gives the exact recoil separation for 2P pulses
    # plus the mirrored 4P reversal
    omega = TWO_PI * 5e5
    t_pi = math.pi / omega
    forward = build_raman_sequence("half_pi", 2 * half_count, t_pi, omega,
                                   "z")
    a_rung = forward.expected_final["a_arm"].n_z
    c_rung = forward.expected_final["c_arm"].n_z
    reverse = build_raman_sequence("none", 4 * half_count, t_pi, omega, "z",
                                   start_rung=a_rung,
                                   c_start_rung=c_rung, start_direction=-1)
    dn = abs(reverse.expected_final["a_arm"].n_z
             - reverse.expected_final["c_arm"].n_z)
    assert dn == 8 * half_count - 2

    amp = 1 / math.sqrt(2)
    pitch = min(0.25e-9, atom.lattice_wavelength / dn / 20)
    grid = GridSpec(pitch=pitch, shape=(8192,))
    pattern = synthesize([(amp, 0, 0), (amp, dn, 0)], grid, atom)
    est = extract_spacing(pattern, "z")
    exact = atom.lattice_wavelength / dn
    assert est.period == pytest.approx(exact, rel=0.02)
    nominal = 100e-9 / half_count
    assert est.period == pytest.approx(nominal, rel=0.10)


def test_plan_rejects_non_adiabatic_parameters(atom):
    slow = Plan1DParams(rms_rabi_hz=1e5)  # parameter lands at 0.32
    with pytest.raises(AdiabaticityError):
        run_plan_1d_adiabatic(slow, atom)


def test_stage_log_records_four_state_family(plan2d_run):
    # right after the transverse splitting the log shows both levels moving
    # apart along x while the z separation persists
    by_name = {s.name: s for s in plan2d_run.stages}
    xsplit = by_name["x-split"]
    pops = xsplit.level_populations()
    assert pops["a"] == pytest.approx(0.5, abs=1e-6)
    assert pops["c"] == pytest.approx(0.5, abs=1e-6)
    assert len(xsplit.arms) == 4
    assert xsplit.separation(2) > 1e-3  # still separated along z
    xladder_end = by_name["x-drift"]
    mean_a = xladder_end.mean_momenta("a")
    mean_c = xladder_end.mean_momenta("c")
    assert mean_a[1] == pytest.approx(+96, abs=1e-9)
    assert mean_c[1] == pytest.approx(-98, abs=1e-9)
