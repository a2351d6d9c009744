import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from recoilsim.errors import NormalizationError
from recoilsim.patterngen import (PhaseMask, TargetPattern, encode,
                                  equal_split, from_image, gear_silhouette,
                                  imprint, interfere, recover, roundtrip,
                                  to_image)


def test_encode_fixed_points():
    pattern = TargetPattern(np.array([[1.0, -1.0, 0.0]] * 2))
    mask = encode(pattern)
    assert mask.values[0, 0] == pytest.approx(0.0)
    assert mask.values[0, 1] == pytest.approx(math.pi)
    assert mask.values[0, 2] == pytest.approx(math.pi / 2)
    assert mask.values.min() >= 0.0 and mask.values.max() <= math.pi


def test_encode_rejects_out_of_range():
    with pytest.raises(NormalizationError):
        encode(TargetPattern(np.array([[1.5, 0.0]])))
    with pytest.raises(NormalizationError):
        encode(TargetPattern(np.array([[-1.0001, 0.0]])))


def test_imprint_identity_for_zero_mask():
    state = equal_split((4, 4))
    mask = PhaseMask(np.zeros((4, 4)))
    out = imprint(state, mask)
    assert np.array_equal(out.psi2, state.psi2)
    assert np.array_equal(out.psi1, state.psi1)


def test_imprint_pi_flips_sign():
    state = equal_split((3, 3))
    mask = PhaseMask(np.full((3, 3), math.pi))
    out = imprint(state, mask)
    assert np.allclose(out.psi2, -state.psi2)


def test_imprint_checkerboard_elementwise():
    # oracle: apply the exponential by hand, element by element
    g = np.indices((6, 6)).sum(axis=0) % 2 * math.pi
    state = equal_split((6, 6))
    out = imprint(state, PhaseMask(g))
    manual = np.array([[state.psi2[i, j] * np.exp(1j * g[i, j])
                        for j in range(6)] for i in range(6)])
    assert np.allclose(out.psi2, manual, atol=0, rtol=0)


def test_interfere_fixed_points():
    for g, expected_i in ((0.0, 1.0), (math.pi, 0.0), (math.pi / 2, 0.5)):
        state = imprint(equal_split((2, 2)), PhaseMask(np.full((2, 2), g)))
        intensity, warning = interfere(state)
        assert intensity[0, 0] == pytest.approx(expected_i, abs=1e-12)
        assert warning is None
        assert recover(intensity)[0, 0] == pytest.approx(math.cos(g),
                                                         abs=1e-12)


def test_interfere_warns_on_unequal_split():
    state = equal_split((2, 2))
    state.psi1 *= 0.8
    intensity, warning = interfere(state)
    assert warning is not None
    assert warning.shape == (2, 2)
    assert np.all(warning <= 1.0)


@given(hnp.arrays(np.float64, (8, 8),
                  elements=st.floats(-1.0, 1.0, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_roundtrip_is_identity(values):
    report = roundtrip(TargetPattern(values))
    assert report.max_abs_error < 1e-12


def test_roundtrip_constant_grids():
    for value in (-1.0, -0.5, 0.0, 0.25, 1.0):
        report = roundtrip(TargetPattern(np.full((16, 16), value)))
        assert report.max_abs_error < 1e-12


def test_roundtrip_gradient():
    g = np.linspace(-1, 1, 64)
    pattern = TargetPattern(np.outer(np.ones(64), g))
    report = roundtrip(pattern)
    assert report.max_abs_error < 1e-12


def test_roundtrip_gear_silhouette():
    gear = gear_silhouette(64)
    assert set(np.unique(gear)) == {-1.0, 1.0}
    report = roundtrip(TargetPattern(gear))
    assert report.max_abs_error < 1e-12
    assert np.array_equal(np.sign(report.recovered), np.sign(gear))


def test_monotone_gray_ordering_preserved():
    # encode decreases, interference increases: the composition keeps the
    # ordering of gray levels
    values = np.linspace(-1, 1, 32).reshape(1, -1)
    mask = encode(TargetPattern(values))
    assert np.all(np.diff(mask.values[0]) <= 0)
    report = roundtrip(TargetPattern(values))
    assert np.all(np.diff(report.recovered[0]) >= -1e-12)


def test_magnification_scales_output_pitch():
    pattern = TargetPattern(np.zeros((4, 4)), pitch=2e-6)
    report = roundtrip(pattern, magnification=100.0)
    assert report.output_pitch == pytest.approx(2e-8)


def test_image_gray_mapping_round_trip():
    img = np.array([[0, 32768, 65535]], dtype=np.uint16)
    pattern = from_image(img, 65535)
    assert pattern.values[0, 0] == pytest.approx(-1.0)
    assert pattern.values[0, 2] == pytest.approx(1.0)
    back = to_image(pattern.values)
    assert np.array_equal(back, img)
