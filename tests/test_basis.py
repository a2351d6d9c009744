import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recoilsim.basis import (LEVEL_ORDER, Basis, RecoilState, WaveFunction,
                             momentum_moments, prune_dust, span_window)
from recoilsim.errors import ConfigurationError
from recoilsim.params import InternalLevel

A, B, C, E1 = (InternalLevel.A, InternalLevel.B, InternalLevel.C,
               InternalLevel.E1)


def test_basis_size_three_levels():
    basis = Basis([A, B, C], range(-2, 1), (0,))
    assert len(basis) == 9


def test_basis_size_ladder_window():
    basis = Basis([A, B, C, E1], range(-62, 3), (0,))
    assert len(basis) == 4 * 65


def test_empty_window_rejected():
    with pytest.raises(ConfigurationError):
        Basis([A], [], (0,))
    with pytest.raises(ConfigurationError):
        Basis([], range(3), (0,))


def test_ordering_level_then_nz_then_nx():
    basis = Basis([C, A], [1, -1], [0, 2])
    assert basis.state(0) == RecoilState(A, -1, 0)
    assert basis.state(1) == RecoilState(A, -1, 2)
    assert basis.state(2) == RecoilState(A, 1, 0)
    assert basis.state(len(basis) - 1) == RecoilState(C, 1, 2)


@given(levels=st.sets(st.sampled_from(list(InternalLevel)), min_size=1),
       window_z=st.sets(st.integers(-12, 12), min_size=1, max_size=8),
       window_x=st.sets(st.integers(-4, 4), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_build_deterministic_and_indexable(levels, window_z, window_x):
    b1 = Basis(levels, window_z, window_x)
    b2 = Basis(sorted(levels, key=lambda lv: lv.name, reverse=True),
                     sorted(window_z, reverse=True), list(window_x))
    expected = [RecoilState(lv, nz, nx) for lv in InternalLevel if lv in levels
                for nz in sorted(window_z) for nx in sorted(window_x)]
    states = [b1.state(i) for i in range(len(b1))]
    # input order cannot matter
    assert states == [b2.state(i) for i in range(len(b2))] == expected
    for i, state in enumerate(states):
        assert state in b1
        assert b1.index_of(state) == i
    # every state of a box one rung wider than the windows: present ones,
    # gaps of non-contiguous windows, rungs outside, and missing levels
    index = {state: i for i, state in enumerate(expected)}
    probes = [RecoilState(lv, nz, nx) for lv in InternalLevel
              for nz in range(min(window_z) - 1, max(window_z) + 2)
              for nx in range(min(window_x) - 1, max(window_x) + 2)]
    for state in probes:
        if state not in index:
            assert state not in b1
            with pytest.raises(ConfigurationError):
                b1.index_of(state)
    flat = b1.locate([LEVEL_ORDER[s.level] for s in probes],
                     [s.n_z for s in probes], [s.n_x for s in probes])
    assert flat.tolist() == [index.get(s, -1) for s in probes]
    assert b1.locate([], [], []).shape == (0,)


def test_level_mask_is_made_once_per_set_of_levels_and_read_only():
    basis = Basis([A, B, C, E1], range(-3, 2), (0, 1))
    mask = basis.level_mask([B, E1])
    assert mask.tolist() == [basis.state(i).level in (B, E1)
                             for i in range(len(basis))]
    assert basis.level_mask((E1, B, E1)) is mask
    assert basis.level_mask([B]) is not mask
    index = basis.level_index([E1, B])
    assert index.tolist() == np.flatnonzero(mask).tolist()
    assert basis.level_index([B, E1]) is index
    for kept in (mask, index):
        with pytest.raises(ValueError):
            kept[0] = 0


@pytest.mark.bits
def test_moments_over_every_level_skip_the_mask_with_the_same_bits():
    # a filter that selects every state leaves the populations as they
    # are, which w * mask gives too; a filter that drops a level masks
    basis = Basis([A, B, E1], range(-4, 5))
    rng = np.random.default_rng(5)
    w = rng.random(len(basis)) ** 3
    for levels in ([A, B, E1], [E1, A]):
        mask = basis.level_mask(levels)
        got = momentum_moments(basis, w, levels)
        want = momentum_moments(basis, w * mask)
        assert (got.mean, got.spread) == (want.mean, want.spread)


def test_span_window_guard():
    assert list(span_window([0, -10], guard=3)) == list(range(-13, 4))


def test_wavefunction_normalization_and_lookup():
    basis = Basis([A, C], range(-1, 2))
    psi = WaveFunction.from_components(
        basis, {RecoilState(C, 0): 1.0, RecoilState(A, -1): 1.0})
    assert psi.norm() == pytest.approx(1.0, abs=1e-15)
    assert abs(psi.amplitude(RecoilState(C, 0))) == pytest.approx(1 / math.sqrt(2))


def test_observables_equal_superposition():
    basis = Basis([A, B, C], range(-5, 1))
    psi = WaveFunction.from_components(
        basis, {RecoilState(C, 0): 1.0, RecoilState(A, -4): 1.0})
    obs_a = psi.observables([A])
    assert psi.population([A]) == pytest.approx(0.5, abs=1e-12)
    assert obs_a.mean == pytest.approx(-4.0)
    assert obs_a.spread == pytest.approx(0.0, abs=1e-9)
    obs_c = psi.observables([C])
    assert psi.population([C]) == pytest.approx(0.5, abs=1e-12)
    assert obs_c.mean == pytest.approx(0.0)


def test_observables_empty_filter_undefined_not_zero():
    basis = Basis([A, B, C], range(-5, 1))
    psi = WaveFunction.from_components(
        basis, {RecoilState(C, 0): 1.0, RecoilState(A, -4): 1.0})
    obs_b = psi.observables([B])
    assert psi.population([B]) == 0.0
    assert obs_b.mean is None
    assert obs_b.spread is None


def test_momentum_spread():
    basis = Basis([A], range(-3, 4))
    psi = WaveFunction.from_components(
        basis, {RecoilState(A, 1): 1.0, RecoilState(A, -1): 1.0})
    obs = psi.observables([A])
    assert obs.mean == pytest.approx(0.0)
    assert obs.spread == pytest.approx(1.0)


def test_prune_respects_norm_budget():
    amps = np.zeros(40, dtype=complex)
    amps[0] = 1.0
    amps[1:31] = 1e-8  # each |amp|^2 = 1e-16, total 3e-15
    before = np.sum(np.abs(amps) ** 2)
    prune_dust(amps)
    assert np.count_nonzero(amps) == 1
    assert abs(np.sum(np.abs(amps) ** 2) - before) < 1e-12


def test_prune_never_removes_too_much():
    amps = np.full(2000, 7e-8, dtype=complex)  # each 4.9e-15, total ~1e-11
    amps[0] = 1.0
    dust = amps.copy()
    prune_dust(amps)
    assert np.array_equal(amps, dust)


def test_prune_each_row_against_its_own_budget():
    rows = np.zeros((3, 2000), dtype=complex)
    rows[:, 0] = 1.0
    rows[0, 1:31] = 1e-8     # 3e-15 of dust: within its budget
    rows[1, 1:] = 7e-8       # ~1e-11 of dust: over budget, left whole
    rows[2, 1] = 1e-9        # one speck
    before = rows.copy()
    prune_dust(rows)
    # pooled, the batch's dust would exceed the budget and nothing would go
    assert [np.count_nonzero(row) for row in rows] == [1, 2000, 1]
    for row, ref in zip(rows, before):
        alone = ref.copy()
        prune_dust(alone)
        assert np.array_equal(row, alone)


@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                   allow_infinity=False), min_size=1,
                max_size=7))
@settings(max_examples=60, deadline=None)
def test_components_reconstruct_state(amps):
    basis = Basis([A], range(0, len(amps)))
    psi = WaveFunction(basis, np.array(amps, dtype=complex))
    rebuilt = np.zeros(len(basis), dtype=complex)
    for state, amp in psi.components():
        rebuilt[basis.index_of(state)] = amp
    assert np.array_equal(rebuilt, psi.amplitudes)


def test_project_onto_guards_population():
    small = Basis([A], range(0, 2))
    big = Basis([A], range(-2, 4))
    psi = WaveFunction.from_components(small, {RecoilState(A, 0): 1.0})
    lifted = psi.project_onto(big)
    assert lifted.amplitude(RecoilState(A, 0)) == pytest.approx(1.0)
    back = lifted.project_onto(small)
    assert back.norm() == pytest.approx(1.0)
    lifted.amplitudes[big.index_of(RecoilState(A, -2))] = 0.5
    with pytest.raises(ConfigurationError):
        lifted.project_onto(small)
