import math

import pytest

from recoilsim.config import validate_config
from recoilsim.errors import ConfigurationError
from recoilsim.params import (AtomParams, InternalLevel, Manifold, rb87)


def test_level_catalogue_is_fixed():
    assert len(InternalLevel) == 5
    assert (InternalLevel.A.f, InternalLevel.A.mf) == (1, 1)
    assert (InternalLevel.B.f, InternalLevel.B.mf) == (1, -1)
    assert (InternalLevel.C.f, InternalLevel.C.mf) == (2, 1)
    assert InternalLevel.E1.manifold is Manifold.D1_EXCITED
    assert InternalLevel.E2.manifold is Manifold.D2_EXCITED
    assert not InternalLevel.A.is_excited
    assert InternalLevel.E1.is_excited


def test_recoil_velocity_in_expected_band():
    atom = rb87()
    assert 5.8e-3 <= atom.recoil_velocity <= 6.0e-3


def test_recoil_frequency_matches_direct_formula():
    atom = rb87()
    hbar = 1.054571817e-34
    k = 2 * math.pi / atom.wavelength_d2
    expected = hbar * k * k / (2 * atom.mass)
    assert atom.recoil_frequency == pytest.approx(expected, rel=1e-12)
    # the common quoted figure: about 2*pi*3.77 kHz
    assert atom.recoil_frequency / (2 * math.pi) == pytest.approx(3771, abs=5)


def test_derived_values_never_stale():
    atom = AtomParams(wavelength_d2=780.241209e-9)
    k1 = atom.wavenumber()
    atom2 = AtomParams(wavelength_d2=790e-9)
    assert atom2.wavenumber() != k1
    assert atom2.wavenumber() == pytest.approx(2 * math.pi / 790e-9)


def test_kinetic_rate_quadratic_and_doppler():
    atom = rb87()
    wr = atom.recoil_frequency
    assert atom.kinetic_rate(0, 0) == 0.0
    assert atom.kinetic_rate(-2, 0) == pytest.approx(4 * wr)
    assert atom.kinetic_rate(3, 4) == pytest.approx(25 * wr)
    # a momentum offset folds in linearly as a Doppler cross term
    assert (atom.kinetic_rate(3, 0) - atom.kinetic_rate(1, 0)
            - atom.kinetic_rate(2, 0)) == pytest.approx(4 * wr)


def test_kinetic_rate_examples():
    atom = rb87()
    wr = atom.recoil_frequency
    assert atom.kinetic_rate(0, 0) == 0.0
    assert atom.kinetic_rate(-2, 0) == pytest.approx(4 * wr)
    # one recoil of Rb-87 on the D2 line is 3.77 kHz
    assert atom.kinetic_rate(1, 0) / (2 * math.pi) == pytest.approx(3771, abs=5)


@pytest.mark.parametrize("field", ["mass", "wavelength_d1", "wavelength_d2",
                                   "nominal_wavelength", "gravity"])
def test_nonpositive_parameters_rejected(field):
    with pytest.raises(ValueError):
        AtomParams(**{field: 0.0})
    with pytest.raises(ValueError):
        AtomParams(**{field: -1.0})


def test_unknown_atom_key_rejected():
    with pytest.raises(ConfigurationError):
        validate_config({"plan": "figure3", "atom": {"mass_g": 1.0}})
