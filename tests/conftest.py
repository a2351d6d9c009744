"""Shared fixtures; the heavyweight plan runs are session-scoped."""

import time

import pytest

from recoilsim.params import rb87
from recoilsim.plans import (Figure3Params, Plan1DParams, Plan2DParams,
                             RamseyParams, run_figure3, run_plan_1d_adiabatic,
                             run_plan_2d, run_plan_ramsey)
from recoilsim.pulses import RMS_TO_PEAK, adiabaticity_parameter


@pytest.fixture(scope="session")
def atom():
    return rb87()


@pytest.fixture(scope="session")
def figure3_params():
    """The parameters of the figure3 run, the published working point."""
    return Figure3Params()


@pytest.fixture(scope="session")
def figure3_run(atom, figure3_params):
    t0 = time.time()
    result = run_figure3(figure3_params, atom)
    return result, time.time() - t0


@pytest.fixture(scope="session")
def pair_adiabaticity():
    """The adiabaticity parameter of a counter-intuitive pair, read from
    its leading beam: the RMS Rabi frequency, and a stagger of half the
    beam's duration."""
    def of(pair):
        lead = pair.epoch.events[0].envelope
        return adiabaticity_parameter(lead.peak_rabi / RMS_TO_PEAK[lead.shape],
                                      lead.duration / 2)
    return of


@pytest.fixture(scope="session")
def plan1d_run(atom):
    return run_plan_1d_adiabatic(Plan1DParams(), atom)


@pytest.fixture(scope="session")
def ramsey_run(atom):
    return run_plan_ramsey(RamseyParams(), atom)


@pytest.fixture(scope="session")
def plan2d_run(atom):
    return run_plan_2d(Plan2DParams(), atom)


@pytest.fixture(scope="session")
def raman_variant_run(atom):
    """Two-arm variant: no transverse pulses, 94-recoil separation."""
    return run_plan_2d(Plan2DParams(q_pulses=0, q_reverse=0), atom)
