import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recoilsim import ckernel, fringes
from recoilsim.errors import (ConfigurationError, NoFringeError, PhysicsError)
from recoilsim.fringes import (CoherenceEnvelope, GridSpec, contrast,
                               extract_spacing, ramsey_scan, scan_minimum_near,
                               synthesize)
from recoilsim.params import rb87


@pytest.fixture(scope="module")
def atom():
    return rb87()


def equal_arms(*momenta):
    amp = 1 / math.sqrt(len(momenta))
    return [(amp, nz, nx) for nz, nx in momenta]


def test_two_arm_spacing_is_wavelength_over_dn(atom):
    # oracle: two plane waves separated by dn recoils beat with period
    # lambda/dn
    pattern = synthesize(equal_arms((0, 0), (94, 0)), GridSpec(), atom)
    est = extract_spacing(pattern, "z")
    expected = atom.lattice_wavelength / 94
    assert abs(est.period - expected) <= est.bin_uncertainty
    assert expected == pytest.approx(8.30e-9, abs=0.01e-9)


@pytest.mark.parametrize("dn", [2, 10, 50, 94, 100, 190])
def test_fourier_consistency_across_separations(atom, dn):
    n = 4096
    pitch = 0.25e-9 if dn >= 10 else 2e-9
    grid = GridSpec(pitch=pitch, shape=(n,))
    pattern = synthesize(equal_arms((0, 0), (dn, 0)), grid, atom)
    est = extract_spacing(pattern, "z")
    assert abs(est.period - atom.lattice_wavelength / dn) <= est.bin_uncertainty


def test_single_arm_flat_and_no_fringe_error(atom):
    pattern = synthesize([(1.0, 0, 0)], GridSpec(), atom)
    assert pattern.samples.max() == pytest.approx(1.0)
    assert pattern.samples.min() == pytest.approx(1.0)
    with pytest.raises(NoFringeError):
        extract_spacing(pattern, "z")
    assert contrast(pattern) == pytest.approx(0.0, abs=1e-12)


def test_mixed_internal_levels_rejected(atom):
    class FakeArm:
        def __init__(self, level, nz):
            self.amplitude = 1 / math.sqrt(2)
            self.kinetic_phase = 0.0
            self.n_z = nz
            self.n_x = 0
            self.level = level

    from recoilsim.params import InternalLevel
    arms = [FakeArm(InternalLevel.A, 0), FakeArm(InternalLevel.C, 94)]
    with pytest.raises(PhysicsError):
        synthesize(arms, GridSpec(), atom)


def test_grid_must_span_ten_periods(atom):
    small = GridSpec(pitch=0.25e-9, shape=(64,))
    with pytest.raises(ConfigurationError):
        synthesize(equal_arms((0, 0), (94, 0)), small, atom)


def test_grid_must_resolve_sixteen_samples_per_period(atom):
    coarse = GridSpec(pitch=2e-9, shape=(4096,))
    with pytest.raises(ConfigurationError):
        synthesize(equal_arms((0, 0), (94, 0)), coarse, atom)


def commensurate_grid(atom, dn, samples_per_period=64, periods=64):
    """Grid whose samples land exactly on the fringe extrema."""
    pitch = atom.lattice_wavelength / (dn * samples_per_period)
    return GridSpec(pitch=pitch, shape=(samples_per_period * periods,))


def test_two_arm_contrast_unity(atom):
    grid = commensurate_grid(atom, 50)
    pattern = synthesize(equal_arms((0, 0), (50, 0)), grid, atom)
    assert contrast(pattern) == pytest.approx(1.0, abs=1e-9)


def test_unbalanced_contrast_formula(atom):
    arms = [(math.sqrt(0.8), 0, 0, 0.0), (math.sqrt(0.2), 50, 0, 0.0)]
    pattern = synthesize(arms, commensurate_grid(atom, 50), atom)
    assert contrast(pattern) == pytest.approx(0.8, abs=1e-6)


@given(p1=st.floats(0.05, 0.95))
@settings(max_examples=30, deadline=None)
def test_contrast_matches_two_wave_formula(p1):
    atom = rb87()
    p2 = 1 - p1
    arms = [(math.sqrt(p1), 0, 0, 0.0), (math.sqrt(p2), 40, 0, 0.0)]
    pattern = synthesize(arms, commensurate_grid(atom, 40), atom)
    expected = 2 * math.sqrt(p1 * p2) / (p1 + p2)
    assert contrast(pattern) == pytest.approx(expected, abs=1e-6)


def test_four_arm_lattice_spacings(atom):
    arms = equal_arms((-48, -96), (-48, 94), (46, -96), (46, 94))
    pattern = synthesize(arms, GridSpec.default_2d(), atom)
    est_z = extract_spacing(pattern, "z")
    est_x = extract_spacing(pattern, "x")
    lam = atom.lattice_wavelength
    assert abs(est_z.period - lam / 94) <= est_z.bin_uncertainty
    assert abs(est_x.period - lam / 190) <= est_x.bin_uncertainty
    # round-number estimates at the nominal 800 nm: 100/P and 100/Q
    assert est_z.period == pytest.approx(100e-9 / 12, rel=0.1)
    assert est_x.period == pytest.approx(100e-9 / 24, rel=0.1)


def test_arm_phase_shifts_pattern_not_spacing(atom):
    base = synthesize(equal_arms((0, 0), (94, 0)), GridSpec(), atom)
    shifted = synthesize([(1 / math.sqrt(2), 0, 0, 0.0),
                          (1 / math.sqrt(2), 94, 0, 1.0)], GridSpec(), atom)
    assert extract_spacing(base, "z").period == \
        extract_spacing(shifted, "z").period
    assert contrast(base) == pytest.approx(contrast(shifted), abs=1e-5)
    assert not np.allclose(base.samples, shifted.samples)


def test_overflowing_amplitudes_rejected(atom):
    # |1e200 + 1e200|^2 overflows: the normalized pattern would be all NaN
    with pytest.raises(ConfigurationError, match="overflow the intensity"):
        synthesize([(1e200, 0, 0), (1e200, 94, 0)], GridSpec(), atom)


@pytest.mark.parametrize("arms", [
    [(1, 0, 0), (1, math.nan, 0)], [(1, 0, 0), (1, 0, math.nan)],
    [(1, -math.inf, 0)], [(1, 0, 1e303)], [(1, 10 ** 400, 0)]])
def test_rungs_whose_wavenumber_is_not_finite_rejected(atom, arms):
    # a NaN rung gave a zero spread, which skipped the grid check, and an
    # all-NaN pattern, as did one arm whose k n overflows (n = 1e303)
    with pytest.raises(ConfigurationError, match="must be finite"):
        synthesize(arms, GridSpec(), atom)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_pitch_and_coherence_length_must_be_finite_and_positive(value):
    # a NaN would pass a "<= 0" check and make every sample NaN
    with pytest.raises(ConfigurationError):
        GridSpec(pitch=value)
    with pytest.raises(ConfigurationError):
        CoherenceEnvelope(value)


def plane_wave_sum(arms, grid, k, envelope_length):
    """The fringe intensity written out: each arm's plane wave added in
    order, times the Gaussian coherence envelope, over its peak.  A 1-D
    grid takes the phase (k * n_z) * z alone."""
    n = grid.shape
    z = (np.arange(n[0]) - n[0] / 2) * grid.pitch
    field = np.zeros(n, dtype=np.complex128)
    if len(n) == 1:
        for amp, nz, _, phase in arms:
            field += amp * np.exp(1j * phase) * np.exp(1j * (k * nz) * z)
        r2 = z ** 2
    else:
        z = z[:, None]
        x = ((np.arange(n[1]) - n[1] / 2) * grid.pitch)[None, :]
        for amp, nz, nx, phase in arms:
            field += amp * np.exp(1j * phase) * np.exp(
                1j * ((k * nz) * z + (k * nx) * x))
        r2 = z ** 2 + x ** 2
    intensity = np.abs(field) ** 2
    if envelope_length is not None:
        intensity = intensity * np.exp(-r2 / (2.0 * envelope_length ** 2))
    peak = intensity.max()
    return intensity / peak if peak > 0 else intensity


PLANE_WAVE_CASES = {
    "1d-two-arms-envelope": ((1024,), [(0.6, 0, 0, 0.0), (0.8j, 40, 0, 0.3)],
                             100e-9),
    "1d-three-arms": ((1024,), [(0.5, -12, 7, 1.1), (0.3 - 0.2j, 0, -5, 0.0),
                                (0.4, 20, 3, -2.0)], None),
    "1d-one-arm": ((1024,), [(0.7, 17, 0, 0.4)], 300e-6),
    "2d-four-arms-envelope": ((256, 256), [(0.5, 0, 0, 0.0),
                                           (0.5 + 0.2j, 40, 0, 0.3),
                                           (0.4, 0, 35, 0.0),
                                           (0.3, 40, 35, 1.1)], 100e-9),
    "2d-two-arms": ((256, 256), [(0.6, -20, 15, 0.0), (0.8, 20, -20, 2.5)],
                    None),
    "2d-odd-sizes": ((255, 257), [(0.6, -20, 18, 0.0),
                                  (0.5 - 0.3j, 20, -18, 0.7),
                                  (0.4, 0, 0, 1.9)], 100e-9),
    "1d-odd-size": ((1023,), [(0.6, 0, 0, 0.0), (0.8j, 40, 0, 0.3)], None),
    "2d-arm-at-origin": ((256, 256), [(0.7, 0, 0, 0.0)], 100e-9),
    "2d-arms-without-n_z": ((200, 256), [(0.5, 0, 20, 0.0),
                                         (0.6 + 0.1j, 0, -16, 1.0)], None),
}


@pytest.mark.bits
@pytest.mark.parametrize("loader, shape, arms, envelope_length", [
    pytest.param(loader, *case, id=name + suffix)
    for loader, suffix in ((ckernel.load, ""), (lambda: None, "-numpy"))
    for name, case in PLANE_WAVE_CASES.items()])
def test_synthesize_is_the_per_arm_plane_wave_sum(atom, loader, shape, arms,
                                                  envelope_length,
                                                  monkeypatch):
    # the C kernel where it loads, with its mirror rule, and the numpy
    # fallback, each against the sum written out
    monkeypatch.setattr(ckernel, "load", loader)
    grid = GridSpec(pitch=1e-9, shape=shape)
    envelope = (None if envelope_length is None
                else CoherenceEnvelope(envelope_length))
    pattern = synthesize(arms, grid, atom, envelope)
    expected = plane_wave_sum(arms, grid, atom.wavenumber(), envelope_length)
    assert pattern.samples.shape == grid.shape
    assert pattern.samples.tobytes() == expected.tobytes()


@pytest.mark.bits
@pytest.mark.parametrize("shape", [(4096,), (230, 240), (4095,), (231, 241)])
def test_synthesis_block_is_not_in_the_bits(atom, shape):
    # blocks of one row (one sample on a 1-D grid), of rows that do not
    # divide the grid, and of the whole grid give the same samples, with
    # block edges on either side of the middle row n_z // 2, the last row
    # whose waves the C kernel makes
    grid = GridSpec(pitch=1e-9, shape=shape)
    arms = [(0.5, 0, 0, 0.0), (0.5 + 0.2j, 40, 0, 0.3), (0.4, 20, 35, 1.1)]
    envelope = CoherenceEnvelope(100e-9)
    runs = []
    for block in (1, 1000, 2 ** 14, 2 ** 20):
        with mock.patch.object(fringes, "SYNTHESIS_BLOCK", block):
            runs.append(synthesize(arms, grid, atom, envelope).samples)
    assert all(run.tobytes() == runs[0].tobytes() for run in runs)


signed_parts = st.one_of(st.sampled_from([0.0, -0.0]),
                         st.floats(-2.0, 2.0, allow_nan=False))
amplitudes = st.one_of(
    st.builds(complex, signed_parts, signed_parts),
    signed_parts,
    st.builds(lambda re, im: np.complex128(complex(re, im)), signed_parts,
              signed_parts))
# rungs with 0 and both signs: an arm at the origin, arms with kz = kx and
# arms with kz = -kx give phases of exactly +0 and -0 in rows and mirrors
rungs = st.integers(-4, 4)
drawn_arms = st.lists(
    st.one_of(st.tuples(amplitudes, rungs, rungs),
              st.tuples(amplitudes, rungs, rungs,
                        st.sampled_from([0.0, -0.0, 0.7, -2.5]))),
    min_size=1, max_size=5)
grids = st.one_of(
    st.tuples(st.integers(2, 300)),
    st.tuples(st.integers(2, 40), st.integers(2, 40)))


@pytest.mark.bits
@given(arms=drawn_arms, shape=grids,
       pitch=st.sampled_from([1e-9, 0.25e-9, 3e-8, 1.7e-7]),
       rows=st.integers(2, 9), length=st.sampled_from([None, 40e-9]))
@example(arms=[(complex(-0.0, 0.5), 0, 0), (0.6, 1, -1), (-0.0, 2, 2)],
         shape=(2, 2), pitch=1e-9, rows=2, length=None)
@example(arms=[(1.0, 0, 0), (complex(0.5, -0.0), -3, 0)], shape=(2,),
         pitch=1e-9, rows=2, length=40e-9)
@example(arms=[(complex(0.3, 0.4), 1, 1), (-0.5, 0, 0)], shape=(7, 2),
         pitch=3e-8, rows=3, length=None)
# phases of exactly +0 and -0 on mirror elements (the arm at the origin,
# and the diagonal of kz = -kx), with amplitudes whose zero parts are
# signed: the conjugate's term differs from the plain one in a zero's sign
@example(arms=[(complex(-0.0, 0.5), 0, 0), (complex(0.25, -0.0), 3, -3)],
         shape=(7, 7), pitch=1e-9, rows=2, length=None)
@settings(max_examples=150, deadline=None)
def test_c_fringe_field_is_the_numpy_fallback_bit_for_bit(atom, arms, shape,
                                                          pitch, rows,
                                                          length):
    # the C field, with its mirror rule, against the plain per-arm sum of
    # the numpy fallback, on blocks of one row (one sample on a 1-D grid),
    # of rows that need not divide the grid, and of the whole grid; the
    # grid check is not under test, and it would leave grids this small no
    # fringes
    if ckernel.load() is None:
        pytest.skip("no C kernel here")
    grid = GridSpec(pitch=pitch, shape=shape)
    envelope = None if length is None else CoherenceEnvelope(length)
    n_x = shape[1] if len(shape) == 2 else 1
    half = shape[0] // 2 + 1                # rows 0 ... n_z // 2
    rows = next(r for r in range(rows, rows + half) if half % r)
    runs = []
    for block in (1, 2 * n_x * rows, 2 ** 24):
        for loader in (ckernel.load, lambda: None):
            with mock.patch.object(fringes, "SYNTHESIS_BLOCK", block), \
                    mock.patch.object(fringes, "validate_grid",
                                      lambda *args: None), \
                    mock.patch.object(ckernel, "load", loader):
                runs.append(synthesize(arms, grid, atom, envelope)
                            .samples.tobytes())
        assert runs[-2] == runs[-1]
    assert len(set(runs)) == 1


@pytest.mark.bits
@pytest.mark.parametrize("arms, shape", [
    ([(complex(-0.0, 0.5), 0, 0), (complex(0.25, -0.0), 3, -3)], (7, 7)),
    ([(complex(0.5, -0.0), 0, 0)], (7, 7)),
    ([(complex(0.5, -0.0), 0, 0)], (6,))],
    ids=["2d-two-arms", "2d-lone-arm", "1d-lone-arm"])
def test_c_fringe_field_is_the_plain_sum_in_every_zero_sign(atom, arms,
                                                            shape):
    # the fields themselves, whose zero signs no intensity shows: a lone
    # arm at the origin leaves a zero part in every sum, and the kernel's
    # waves and terms at a zero phase differ from numpy's in a zero's sign
    kernel = ckernel.load()
    if kernel is None:
        pytest.skip("no C kernel here")
    k = atom.wavenumber()
    waves = [(amp, k * nz, k * nx) for amp, nz, nx in arms]
    grid = GridSpec(pitch=1e-9, shape=shape)
    z, x = grid.coordinates(0), grid.coordinates(1)
    half = shape[0] // 2 + 1
    whole = (0, half, 1, shape[0] - half + 1)     # rows and mirror rows
    runs = [[a.tobytes() for a in fields(waves, z, x, half)(*whole)]
            for fields in (kernel.fringe_fields, fringes._numpy_fields)]
    assert runs[0] == runs[1]


def ix_contrast(pattern, envelope):
    """contrast with the central region copied out through np.ix_."""
    data = pattern.samples
    central = [np.abs(pattern.grid.coordinates(i)) <= envelope.length / 2
               for i in range(pattern.grid.dims)]
    if all(mask.any() for mask in central):
        data = data[np.ix_(*central)]
    hi, lo = float(data.max()), float(data.min())
    return 0.0 if hi + lo == 0 else (hi - lo) / (hi + lo)


@pytest.mark.parametrize("shape", [(64,), (65,), (48, 64), (49, 63)])
@pytest.mark.parametrize("length", [0.4e-9, 3e-9, 20e-9, 1e-6])
def test_contrast_reads_the_central_region_of_the_ix_copy(shape, length):
    # lengths under one pitch (no central sample on an odd axis), inside
    # the grid, and wider than the grid
    samples = np.random.default_rng(sum(shape)).random(shape)
    pattern = fringes.FringePattern(GridSpec(pitch=1e-9, shape=shape),
                                    samples)
    envelope = CoherenceEnvelope(length)
    assert contrast(pattern, envelope) == ix_contrast(pattern, envelope)


finite_phases = st.floats(allow_nan=False, allow_infinity=False).filter(bool)


@pytest.mark.bits
@given(phases=st.lists(finite_phases, min_size=1, max_size=40))
@example(phases=[5e-324, -2.2e-308, 1e-300])      # subnormal and tiny
@example(phases=[1.7976931348623157e308, -1e22, 2.0 ** 60])
@settings(max_examples=200, deadline=None)
def test_exp_of_a_negated_phase_is_the_conjugate_bit_for_bit(phases):
    # the C kernel makes the rows past the middle from this mirror rule
    def exp_i(p):
        return np.exp(np.multiply(1j, p))
    p = np.array(phases)
    assert exp_i(-p).tobytes() == np.conjugate(exp_i(p)).tobytes()
    # except at zero: exp(i 0) is 1 + 0j for either zero, and its
    # conjugate 1 - 0j; the kernel takes the conjugate there too, as the
    # two differ only in the sign of a zero, and a field sum, which starts
    # at +0.0 and so never becomes -0.0, cannot see that sign
    for zero in (0.0, -0.0):
        z = np.array([zero])
        assert exp_i(-z).tobytes() != np.conjugate(exp_i(z)).tobytes()


def test_coherence_envelope_counts_enough_periods():
    env = CoherenceEnvelope()
    assert env.length == pytest.approx(300e-6)
    assert env.length / 8e-9 > 1e4  # periods of an 8 nm fringe inside it


def test_envelope_limits_fringe_field(atom):
    env = CoherenceEnvelope(length=100e-9)  # absurdly short, visible in grid
    grid = GridSpec(pitch=0.25e-9, shape=(4096,))
    pattern = synthesize(equal_arms((0, 0), (94, 0)), grid, atom, env)
    z = pattern.grid.coordinates(0)
    outside = pattern.samples[np.abs(z) > 5 * env.length]
    assert outside.max() < 1e-3


class AnalyticRamsey:
    """Closed-form two-path stand-in for scan analysis tests."""

    def __init__(self, tau, phase=0.0):
        self.tau = tau
        self.phase = phase

    def pc_of(self, delta):
        return np.sin((delta * self.tau + self.phase) / 2) ** 2


def test_scan_measures_period_and_widths():
    tau = 0.102
    scan = ramsey_scan(AnalyticRamsey(tau), periods=3.2,
                       points_per_period=100)
    assert scan.fringe_period_hz == pytest.approx(1 / tau, abs=0.02)
    assert scan.width_scale_hz == pytest.approx(1 / (2 * math.pi * tau),
                                                abs=0.005)
    assert scan.populations.min() < 1e-4
    # the zero-detuning member is evaluated but kept off the grid
    assert len(scan.deltas) == len(scan.populations) == 321
    assert scan.population_at_zero == AnalyticRamsey(tau).pc_of(0.0)


def test_scan_reads_exact_zero_not_the_grid_midpoint():
    # at this tau the 1601-point grid's midpoint is -2.8e-14 rad/s
    scan = ramsey_scan(AnalyticRamsey(0.10251), periods=8,
                       points_per_period=200)
    assert scan.deltas[len(scan.deltas) // 2] != 0.0
    assert scan.population_at_zero == 0.0


def test_scan_phase_shift_mapping():
    # a constant phase on one arm moves the pattern by phi/2pi periods
    tau = 0.05
    phi = 1.3
    base = ramsey_scan(AnalyticRamsey(tau), points_per_period=200)
    moved = ramsey_scan(AnalyticRamsey(tau, phase=phi), points_per_period=200)
    m0 = scan_minimum_near(base, 0.0)
    m1 = scan_minimum_near(moved, 0.0)
    expected = phi / (2 * math.pi) * base.fringe_period_hz
    assert abs(m1 - m0) == pytest.approx(expected, rel=0.01)


def test_scan_grid_preconditions():
    with pytest.raises(ConfigurationError):
        ramsey_scan(AnalyticRamsey(0.1), periods=2.0)
    with pytest.raises(ConfigurationError):
        ramsey_scan(AnalyticRamsey(0.1), points_per_period=10)


def test_scan_doubled_tau_halves_width():
    s1 = ramsey_scan(AnalyticRamsey(0.05))
    s2 = ramsey_scan(AnalyticRamsey(0.10))
    assert s2.width_scale_hz == pytest.approx(s1.width_scale_hz / 2, rel=0.02)
