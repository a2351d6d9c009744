import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from recoilsim.cli import main
from recoilsim.errors import NormalizationError
from recoilsim.patterngen import (encode, from_image, gear_silhouette,
                                  interfere, recover, roundtrip, to_image)
from recoilsim.pgmio import write_pgm


def test_encode_fixed_points():
    mask = encode(np.array([[1.0, -1.0, 0.0]] * 2))
    assert mask[0, 0] == pytest.approx(0.0)
    assert mask[0, 1] == pytest.approx(math.pi)
    assert mask[0, 2] == pytest.approx(math.pi / 2)
    assert mask.min() >= 0.0 and mask.max() <= math.pi


def test_encode_rejects_out_of_range():
    with pytest.raises(NormalizationError):
        encode(np.array([[1.5, 0.0]]))
    with pytest.raises(NormalizationError):
        encode(np.array([[-1.0001, 0.0]]))


def two_wave(g):
    """The intensity of one cell, by hand: half the squared modulus of an
    equal split, 1/sqrt(2) each, with e^{i g} on the second wave."""
    amp = np.complex128(1.0 / np.sqrt(2.0))
    return 0.5 * np.abs(amp + amp * np.exp(1j * g)) ** 2


def test_imprint_identity_for_zero_mask():
    # the waves add in phase: every cell holds the full intensity
    intensity = interfere(np.zeros((4, 4)))
    assert np.array_equal(intensity, np.full((4, 4), two_wave(0.0)))
    assert intensity[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_imprint_pi_flips_sign():
    # the imprinted wave is negated, so the two cancel
    intensity = interfere(np.full((3, 3), math.pi))
    assert intensity.shape == (3, 3)
    assert np.all(intensity <= 1e-30)


def test_imprint_checkerboard_elementwise():
    # oracle: the two waves interfered by hand, element by element
    g = np.indices((6, 6)).sum(axis=0) % 2 * math.pi
    manual = np.array([[two_wave(g[i, j]) for j in range(6)]
                       for i in range(6)])
    assert np.array_equal(interfere(g), manual)


def test_interfere_fixed_points():
    for g, expected_i in ((0.0, 1.0), (math.pi, 0.0), (math.pi / 2, 0.5)):
        intensity = interfere(np.full((2, 2), g))
        assert intensity[0, 0] == pytest.approx(expected_i, abs=1e-12)
        assert recover(intensity)[0, 0] == pytest.approx(math.cos(g),
                                                         abs=1e-12)


@given(hnp.arrays(np.float64, (8, 8),
                  elements=st.floats(-1.0, 1.0, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_roundtrip_is_identity(values):
    report = roundtrip(values)
    assert report.max_abs_error < 1e-12


def test_roundtrip_constant_grids():
    for value in (-1.0, -0.5, 0.0, 0.25, 1.0):
        report = roundtrip(np.full((16, 16), value))
        assert report.max_abs_error < 1e-12


def test_roundtrip_gradient():
    g = np.linspace(-1, 1, 64)
    report = roundtrip(np.outer(np.ones(64), g))
    assert report.max_abs_error < 1e-12


def test_roundtrip_gear_silhouette():
    gear = gear_silhouette(64)
    assert set(np.unique(gear)) == {-1.0, 1.0}
    report = roundtrip(gear)
    assert report.max_abs_error < 1e-12
    assert np.array_equal(np.sign(report.recovered), np.sign(gear))


def test_monotone_gray_ordering_preserved():
    # encode decreases, interference increases: the composition keeps the
    # ordering of gray levels
    values = np.linspace(-1, 1, 32).reshape(1, -1)
    assert np.all(np.diff(encode(values)[0]) <= 0)
    report = roundtrip(values)
    assert np.all(np.diff(report.recovered[0]) >= -1e-12)


def test_magnification_scales_output_pitch(tmp_path):
    # a pattern run writes the input pitch over the magnification to its
    # sidecar and to its error report
    write_pgm(tmp_path / "flat.pgm", to_image(np.zeros((4, 4))))
    doc = {"plan": "pattern",
           "params": {"input_pgm": str(tmp_path / "flat.pgm"),
                      "pitch_m": 2e-6, "magnification": 100.0}}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    sidecar = dict(line.split(" = ") for line in
                   next(out.glob("*.recovered.txt")).read_text().splitlines())
    errors = dict(line.split(",") for line in
                  next(out.glob("*.errors.csv")).read_text().splitlines()[1:])
    assert float(sidecar["pitch_m"]) == pytest.approx(2e-8)
    assert float(errors["output_pitch_m"]) == pytest.approx(2e-8)


def test_image_gray_mapping_round_trip():
    img = np.array([[0, 32768, 65535]], dtype=np.uint16)
    pattern = from_image(img, 65535)
    assert pattern[0, 0] == pytest.approx(-1.0)
    assert pattern[0, 2] == pytest.approx(1.0)
    back = to_image(pattern)
    assert np.array_equal(back, img)
