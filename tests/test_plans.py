"""Whole-timeline checks against the narrative bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recoilsim.errors import PhysicsError
from recoilsim.params import InternalLevel
from recoilsim.plans import (Plan2DParams, RamseyParams, run_plan_2d,
                             run_plan_ramsey)

A, B, C = InternalLevel.A, InternalLevel.B, InternalLevel.C


def arm_map(result):
    return {(a.level, a.n_z, a.n_x): a for a in result.final_arms}


class TestPlan1D:
    def test_final_arms_and_populations(self, plan1d_run):
        arms = arm_map(plan1d_run)
        assert (A, 0, 0) in arms and (A, 100, 0) in arms
        for arm in plan1d_run.final_arms:
            assert arm.population == pytest.approx(0.5, abs=1e-3)

    def test_stage_narrative(self, plan1d_run):
        names = [s.name for s in plan1d_run.stages]
        assert names == ["initial-split", "split-ladder", "drift-separate",
                         "reverse-ladder", "state-transfer",
                         "drift-recombine"]
        by_name = {s.name: s for s in plan1d_run.stages}
        # split puts the moving arm at -100 recoils, half population each
        split = by_name["split-ladder"]
        assert split.level_populations()["a"] == pytest.approx(0.5, abs=1e-3)
        assert split.level_populations()["c"] == pytest.approx(0.5, abs=1e-3)
        assert split.mean_momenta("a")[0] == pytest.approx(-100, abs=1e-6)
        # after the reversal the mover is at +100
        rev = by_name["reverse-ladder"]
        assert rev.mean_momenta("a")[0] == pytest.approx(+100, abs=1e-6)
        # after the selective transfer everything is in one internal level
        xfer = by_name["state-transfer"]
        assert set(xfer.level_populations()) == {"a"}

    def test_separation_and_closure(self, plan1d_run):
        by_name = {s.name: s for s in plan1d_run.stages}
        assert by_name["drift-separate"].separation(2) == pytest.approx(
            1.94e-3, abs=0.01e-3)
        final = plan1d_run.stages[-1]
        assert final.separation(2) < 0.1 * 1e-3  # a tenth of the cloud
        assert not plan1d_run.warnings

    def test_reversal_duration_matches_narrative(self, plan1d_run):
        # 100 pairs of 150 ns: about 15 microseconds
        assert plan1d_run.extras["reversal_duration_s"] == pytest.approx(
            15e-6, rel=1e-6)

    def test_recombination_drift_agrees_with_separation_drift(self, plan1d_run):
        assert plan1d_run.extras["recombine_drift_s"] == pytest.approx(
            3.3e-3, rel=0.05)

    def test_population_accounting(self, plan1d_run):
        kept = sum(a.population for a in plan1d_run.final_arms)
        assert kept + plan1d_run.dropped_total == pytest.approx(
            1.0, abs=1e-7)
        assert plan1d_run.dropped_total < 1e-3

    def test_stage_rows_schema(self, plan1d_run):
        rows = plan1d_run.stage_rows()
        assert rows
        keys = {"stage", "t_start", "t_end", "level", "population",
                "mean_nz", "mean_nx", "sep_z_m", "sep_x_m", "drop_y_m"}
        assert set(rows[0]) == keys
        stages_in_rows = {r["stage"] for r in rows}
        assert stages_in_rows == {s.name for s in plan1d_run.stages}


class TestRamsey:
    def test_tau_hits_target(self, ramsey_run):
        assert ramsey_run.tau == pytest.approx(0.102, rel=1e-9)

    def test_closing_ladder_lands_on_two_recoils(self, ramsey_run):
        amps = ramsey_run.pre_final
        assert abs(amps["c0"]) == pytest.approx(1 / math.sqrt(2), abs=1e-4)
        assert abs(amps["b2"]) == pytest.approx(1 / math.sqrt(2), abs=1e-4)

    def test_dark_port_at_zero_detuning(self, ramsey_run):
        assert ramsey_run.pc_of(0.0) < 1e-3

    def test_half_period_bright(self, ramsey_run):
        # two-path phase accumulation: pi/tau sits mid-fringe
        assert ramsey_run.pc_of(math.pi / ramsey_run.tau) == pytest.approx(
            1.0, abs=1e-3)

    def test_closure_without_x_pulses(self, ramsey_run):
        assert not ramsey_run.plan.warnings

    def test_too_short_tau_rejected(self, atom):
        with pytest.raises(PhysicsError):
            run_plan_ramsey(RamseyParams(target_tau_s=1e-6), atom)


@pytest.fixture(scope="module")
def short_ramsey(atom):
    return run_plan_ramsey(RamseyParams(ladder_n=1), atom)


@given(picks=st.lists(st.integers(0, 320), max_size=10),
       others=st.lists(st.floats(-300.0, 300.0), max_size=4),
       arm_phase=st.sampled_from([None, 0.9, -2.3]))
@settings(max_examples=30, deadline=None)
def test_batched_pc_of_matches_single_calls(short_ramsey, picks, others,
                                            arm_phase):
    result = short_ramsey if arm_phase is None else \
        short_ramsey.with_arm_phase(arm_phase)
    # values of the default scan grid, exact zero of both signs, and others
    half_span = 3.2 / 2 * (2 * math.pi / result.tau)
    grid = np.linspace(-half_span, half_span, 321)
    deltas = np.array([0.0, -0.0, *grid[picks], *others])
    batch = result.pc_of(deltas)
    single = [result.pc_of(float(d)) for d in deltas]
    assert all(type(p) is float for p in single)
    assert batch.shape == deltas.shape
    assert np.array_equal(batch, single)


class TestPlan2D:
    def test_four_final_momenta_exact(self, plan2d_run):
        got = sorted((a.n_z, a.n_x) for a in plan2d_run.final_arms)
        assert got == [(-48, -96), (-48, 94), (46, -96), (46, 94)]
        assert all(a.level is A for a in plan2d_run.final_arms)

    def test_equal_four_way_split(self, plan2d_run):
        for arm in plan2d_run.final_arms:
            assert arm.population == pytest.approx(0.25, abs=0.005)

    def test_convergence_speed_ratio(self, plan2d_run):
        ex = plan2d_run.extras
        assert ex["convergence_speed_z_m_s"] == pytest.approx(0.553, abs=0.01)
        assert ex["convergence_speed_x_m_s"] == pytest.approx(1.118, abs=0.01)
        ratio = ex["convergence_speed_x_m_s"] / ex["convergence_speed_z_m_s"]
        assert ratio == pytest.approx(2.0, abs=0.05)

    def test_x_separation_near_two_mm(self, plan2d_run):
        by_name = {s.name: s for s in plan2d_run.stages}
        sep_x = by_name["x-reverse"].separation(0)
        assert sep_x == pytest.approx(2e-3, rel=0.15)
        assert plan2d_run.extras["x_drift_s"] == pytest.approx(1.7e-3, rel=0.1)

    def test_closure_all_four(self, plan2d_run):
        final = plan2d_run.stages[-1]
        assert final.separation(2) < 0.1e-3
        assert final.separation(0) < 0.1e-3
        assert not plan2d_run.warnings

    def test_reversal_bookkeeping_is_asymmetric(self, raman_variant_run):
        # 24 splitting pulses then 48 reversing ones land on -48/+46, not a
        # symmetric pair
        got = sorted((a.n_z, a.n_x) for a in raman_variant_run.final_arms)
        assert got == [(-48, 0), (46, 0)]
        assert raman_variant_run.extras["delta_n_z"] == 94

    def test_population_conservation(self, plan2d_run):
        total_arms = sum(a.population for a in plan2d_run.final_arms)
        assert total_arms + plan2d_run.dropped_total == pytest.approx(
            1.0, abs=1e-7)
        assert total_arms == pytest.approx(1.0, abs=1e-6)

    def test_odd_pulse_counts_rejected(self, atom):
        with pytest.raises(Exception):
            run_plan_2d(Plan2DParams(p_pulses=13), atom)


class TestFigure3:
    def test_transfer_and_population(self, figure3_run):
        result, _ = figure3_run
        assert result.final_transfer == pytest.approx(60.0, abs=0.5)
        assert result.final_population == pytest.approx(0.5, abs=0.005)

    def test_staircase_steps(self, figure3_run):
        result, _ = figure3_run
        ends = result.pair_end_transfer
        assert len(ends) == 30
        for j, value in enumerate(ends):
            assert value == pytest.approx(2 * (j + 1), abs=0.2)

    def test_monotone_within_tolerance(self, figure3_run):
        result, _ = figure3_run
        seq = [row["recoils_transferred"] for row in result.rows]
        assert all(b >= a - 1e-3 for a, b in zip(seq, seq[1:]))
