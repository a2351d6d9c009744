"""Integrator oracles: analytic two-level formulas, norm, stability."""

import gc
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recoilsim import ckernel, propagate
from recoilsim.basis import Basis, RecoilState, WaveFunction
from recoilsim.errors import ConfigurationError, IntegrationError
from recoilsim.hamiltonian import (EpochHamiltonian, compile_from_epoch,
                                   compile_plan)
from recoilsim.params import InternalLevel, rb87
from recoilsim.propagate import (STABILITY_LIMIT, check_stability,
                                 evolve_plan)
from recoilsim.pulses import (SINE_SQUARED, SQUARE, Epoch, PulseEnvelope,
                              SequencePlan, build_adiabatic_sequence,
                              effective_pulse, copropagating_pulse,
                              single_pulse_plan)

A, B, C, E1 = (InternalLevel.A, InternalLevel.B, InternalLevel.C,
               InternalLevel.E1)


@pytest.fixture(scope="module")
def atom():
    return rb87()


def two_level_plan(atom, omega, duration, detuning=0.0):
    ev = effective_pulse(omega * duration, omega, RecoilState(A, 0),
                         RecoilState(C, -2), "z",
                         bias_detuning=detuning)
    anchors = {A: (0, 0), C: (-2, 0)}
    return SequencePlan(epochs=[
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
    plan = SequencePlan(epochs=[Epoch(0.0, duration, (), {})])
    out = evolve_plan(psi, plan, atom).psi
    assert np.allclose(np.abs(out.amplitudes), np.abs(psi.amplitudes),
                       atol=1e-12)
    ratio = out.amplitude(RecoilState(A, 2)) / out.amplitude(RecoilState(A, 0))
    expected = np.exp(-1j * (atom.kinetic_rate(2) - atom.kinetic_rate(0))
                      * duration)
    assert abs(ratio - expected) < 1e-6


def test_step_validates_stability_bound(atom):
    omega = 2 * math.pi * 1e6
    ev = copropagating_pulse(math.pi, omega, "a-c", axis="x")
    basis = Basis([A, C], range(-1, 2))
    h = compile_from_epoch(*next(compile_plan(
        basis, single_pulse_plan(ev).epochs, atom, 0.0)))
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
    plan = SequencePlan(epochs=[
        Epoch(0.0, duration, (lead, trail), anchors)])
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    res = evolve_plan(psi, plan, atom)
    assert res.steps >= 10_000
    assert abs(res.psi.total_population() - 1.0) < 1e-7


def test_cross_axis_momentum_conserved_under_z_pulses(atom):
    # z-axis beams cannot change the transverse momentum distribution
    from recoilsim.pulses import build_adiabatic_sequence
    plan = build_adiabatic_sequence(2, 50e-9, 2 * math.pi * 1e8)
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
                         RecoilState(C, 3), "z",
                         bias_detuning=delta)
    basis = Basis([A, B, C, E1], range(-40, 41))
    anchors = {A: (5, 0), C: (3, 0)}
    plan = SequencePlan(epochs=[Epoch(0.0, t, (ev,), anchors)])
    psi = WaveFunction.from_components(basis, {RecoilState(A, 5): 1.0})
    out = evolve_plan(psi, plan, atom, dt_factor=64).psi
    expected = generalized_rabi(omega, delta, t)
    assert abs(out.population([C]) - expected) < 1e-6


def test_auto_extension_grows_window(atom):
    from recoilsim.pulses import build_adiabatic_sequence
    plan = build_adiabatic_sequence(3, 50e-9, 2 * math.pi * 1e8)
    basis = Basis([A, B, E1], range(-4, 2))  # too small for 3 pairs
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    out = evolve_plan(psi, plan, atom).psi
    assert out.basis.window_z()[0] < -4
    assert out.population([B]) > 0.99


def test_x_sequence_on_one_z_rung_keeps_its_basis(atom):
    # a one-rung z window is the cross axis of an x run, never its edge
    from recoilsim.pulses import build_raman_sequence
    omega = 2 * math.pi * 5e5
    plan = build_raman_sequence("half_pi", 2, math.pi / omega, omega, "x")
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
    plan = build_adiabatic_sequence(3, 50e-9, 2 * math.pi * 1e8)
    basis = Basis([A, B, E1], range(-4, 2))
    psi = WaveFunction.from_components(basis, {RecoilState(A, 0): 1.0})
    monkeypatch.setattr(propagate, "MAX_STATES", 20)
    with pytest.raises(ConfigurationError, match="over the budget of 20"):
        evolve_plan(psi, plan, atom)


@pytest.mark.bits
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
    plan = build_adiabatic_sequence(3, 50e-9, 2 * math.pi * 1e8)
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


# The integrator as it was before the families were stacked: one gather,
# multiply and add per family, a family skipped while its envelope is zero,
# and -i applied to each stage.  The stacked kernel must match it bit for
# bit; only the sign of an exact zero may differ.

def reference_derivative(h, t, psi, out, buf):
    np.multiply(h.diagonal - 0.5j * h.decay, psi, out=out)
    for f, envelope in enumerate(h.envelopes):
        env = float(envelope.value(t))
        if env == 0.0:
            continue
        psi.take(h.perm[f], axis=-1, out=buf)
        buf *= h.pattern[f]
        if h.rate[f].any():
            buf *= np.exp(1j * t * h.rate[f])
        buf *= env
        out += buf
    out *= -1j


def reference_rk4(h, work, epoch, n_steps, observe=None,
                  observe_per_epoch=0):
    dt = epoch.duration / n_steps
    stride = max(1, n_steps // observe_per_epoch) if observe else 0
    t = epoch.t_start
    k1, k2, k3, k4, y, buf = (np.empty_like(work) for _ in range(6))
    for k in range(n_steps):
        reference_derivative(h, t, work, k1, buf)
        np.multiply(k1, 0.5 * dt, out=y)
        y += work
        reference_derivative(h, t + 0.5 * dt, y, k2, buf)
        np.multiply(k2, 0.5 * dt, out=y)
        y += work
        reference_derivative(h, t + 0.5 * dt, y, k3, buf)
        np.multiply(k3, dt, out=y)
        y += work
        reference_derivative(h, min(t + dt, epoch.t_end), y, k4, buf)
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= dt / 6.0
        work += k2
        t = epoch.t_start + (k + 1) * epoch.duration / n_steps
        if stride and ((k + 1) % stride == 0 or k + 1 == n_steps):
            observe(t)
    return t


@st.composite
def kernel_cases(draw):
    """A random operator, state, epoch and step count: 0-3 families, each
    a perfect matching with an unbatched or (B, n) pattern (an unbatched
    row repeated over the members when another family is batched), rates
    and decay on or off, and square or sine^2 windows that may open or
    close inside the epoch; ``scale`` sets the time unit.  Up to 40 states,
    so the C loop's vector bodies run as well as their remainders.  A real
    operator (ladder's case) has patterns and a diagonal whose imaginary
    parts are +0.0 or -0.0, and the state may hold exact zeros of either
    sign.  The envelope chunk drawn last gives chunks of one step and
    partial chunks, with rates and without."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def signed_zeros(shape):
        return np.copysign(0.0, rng.normal(size=shape))
    n = draw(st.integers(2, 40))
    real = draw(st.booleans())
    batch = draw(st.sampled_from([None, 1, 3]))
    shape = (n,) if batch is None else (batch, n)
    scale = draw(st.sampled_from([1.0, 1e-7]))
    t_start = scale * draw(st.floats(0.0, 4.0))
    duration = scale * draw(st.floats(0.25, 2.0))

    def per_member():
        return shape if batch and draw(st.booleans()) else (n,)

    families = []
    for _ in range(draw(st.integers(0, 3))):
        order = rng.permutation(n)
        m = int(rng.integers(0, n // 2 + 1))
        i, j = order[:m], order[m:2 * m]
        perm = np.arange(n)
        perm[i], perm[j] = j, i
        fam_shape = per_member()
        half = np.zeros(fam_shape[:-1] + (m,), dtype=np.complex128)
        half.real = rng.normal(size=half.shape)
        half.imag = signed_zeros(half.shape) if real else \
            rng.normal(size=half.shape)
        pattern = np.zeros(fam_shape, dtype=np.complex128)
        pattern[..., j] = half
        pattern[..., i] = np.conj(half)
        rate = np.zeros(fam_shape)
        if draw(st.booleans()):
            rho = rng.uniform(-20.0, 20.0, size=half.shape) / scale
            rate[..., j] = -rho
            rate[..., i] = rho
        opens = draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.9)))
        window = PulseEnvelope(draw(st.sampled_from([SQUARE, SINE_SQUARED])),
                               draw(st.sampled_from([0.0, 1.0, 2.0])) / scale,
                               t_start + opens * duration,
                               duration * draw(st.floats(0.1, 1.5)))
        families.append((perm, pattern, rate, window))
    diagonal = rng.normal(size=per_member()) / scale
    if real:    # set apart: x + 1j * -0.0 has an imaginary part of +0.0
        diagonal = diagonal.astype(np.complex128)
        diagonal.imag = signed_zeros(diagonal.shape)
    decay = np.zeros(per_member())
    if draw(st.booleans()):
        decay[..., ::2] = rng.uniform(0.0, 1.0, size=decay[..., ::2].shape) \
            / scale
    members = np.broadcast_shapes(*(p.shape[:-1] for _, p, _, _ in families))
    pattern = np.zeros((len(families),) + members + (n,), dtype=np.complex128)
    rate = np.zeros(pattern.shape)
    for f, (_, fam_pattern, fam_rate, _) in enumerate(families):
        pattern[f] = fam_pattern
        rate[f] = fam_rate
    h = EpochHamiltonian(
        diagonal, decay,
        np.array([perm for perm, *_ in families], dtype=np.int64)
        .reshape(-1, n), pattern, rate,
        tuple(window for *_, window in families),
        np.array([window.peak_rabi for *_, window in families]))
    work = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if draw(st.booleans()):
        for part in (work.real, work.imag):
            zero = rng.random(size=shape) < 0.3
            part[zero] = signed_zeros(shape)[zero]
    stable = math.ceil(duration * float(np.max(h.max_element())) / 0.05)
    n_steps = max(draw(st.integers(1, 40)), stable)
    return (h, work, Epoch(t_start, duration, ()), n_steps,
            draw(st.integers(0, 5)), draw(st.sampled_from([1, 3, 1024])))


def whole(h, work):
    """``work`` as one part for ``propagate._rk4``: every row, each under
    the same row of ``h`` (or ``h`` itself)."""
    return h, work, np.arange(work.size // work.shape[-1])


def observed(work):
    samples = []
    return samples, lambda t: samples.append((t, work.copy()))


@pytest.mark.bits
@given(case=kernel_cases())
@settings(max_examples=200, deadline=None)
def test_stacked_kernel_matches_the_per_family_loop_bit_for_bit(case):
    h, work, epoch, n_steps, per_epoch, chunk = case
    ref = work.copy()
    samples, observe = observed(work)
    ref_samples, ref_observe = observed(ref)
    with mock.patch.object(propagate, "ENVELOPE_CHUNK", chunk):
        t = propagate._rk4([whole(h, work)], epoch, n_steps,
                           observe if per_epoch else None, per_epoch)
    t_ref = reference_rk4(h, ref, epoch, n_steps,
                          ref_observe if per_epoch else None, per_epoch)
    assert t == t_ref
    assert np.array_equal(work, ref)
    assert [s for s, _ in samples] == [s for s, _ in ref_samples]
    for (_, got), (_, want) in zip(samples, ref_samples):
        assert np.array_equal(got, want)


# The C kernel against the numpy loop it replaces, which stays as the
# fallback and as its oracle: every bit of the state and of each observed
# sample must agree.

def c_kernel_or_skip():
    if all(ckernel._library(flags) is None
           for _, flags in (ckernel.PLAIN, ckernel.FMA)):
        pytest.skip("no C compiler or no writable cache here")
    assert ckernel.load() is not None, "no C build passes its probes"


@pytest.mark.bits
@given(case=kernel_cases())
@settings(max_examples=200, deadline=None)
def test_c_kernel_equals_the_numpy_loop(case):
    c_kernel_or_skip()
    h, work, epoch, n_steps, per_epoch, chunk = case
    ref = work.copy()
    samples, observe = observed(work)
    ref_samples, ref_observe = observed(ref)
    with mock.patch.object(propagate, "ENVELOPE_CHUNK", chunk):
        t = propagate._rk4([whole(h, work)], epoch, n_steps,
                           observe if per_epoch else None, per_epoch)
        with mock.patch.object(ckernel, "load", lambda: None):
            t_ref = propagate._rk4([whole(h, ref)], epoch, n_steps,
                                   ref_observe if per_epoch else None,
                                   per_epoch)
    assert t == t_ref
    assert work.tobytes() == ref.tobytes()
    assert [s for s, _ in samples] == [s for s, _ in ref_samples]
    for (_, got), (_, want) in zip(samples, ref_samples):
        assert got.tobytes() == want.tobytes()


@st.composite
def bound_cases(draw):
    """A layout for ``ckernel.bind`` drawn as it is, not through an
    operator: runs of 1-17 states, some runs of each length; 0-5 families,
    each coupling each run to a run of its length, itself included, and
    rate rows or none.  Rate rows need each family's partner runs to pair
    up; they hold rho on one run of a pair and -rho on the other, rho of
    both signs, from 1e-3 to 1e4 in size, or an exact zero of either sign
    on some coupled pairs, and zeros of either sign on a run coupled to
    itself and on every run of a family without a rate.  The substage times
    run to 1e5 or more, so that |rate t| passes 1e5 rad, and some are 0.0
    and -0.0; most steps start at the last one's end, bit for bit, some
    one ulp later, and some at -0.0 after an end at 0.0.  Each run of the
    state, the diagonal and each pattern row has both parts drawn, or its
    real part, its imaginary part or both exact zeros of either sign;
    envelopes are zero at random and in closed windows.  In half the cases, quiet ones (below), a product that drops
    an x * 0.0 term shows in the sign of a zero.  The m steps are cut into
    calls, of one step each or at random."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # 2 states at least: numpy's FMA kernels do not fuse an in-place
    # product of 1-element arrays, which the C build always fuses
    kinds = draw(st.lists(st.tuples(st.integers(1, 17), st.integers(1, 3)),
                          min_size=1, max_size=3)
                 .filter(lambda kinds: sum(a * b for a, b in kinds) > 1))
    lengths = [length for length, count in kinds for _ in range(count)]
    lengths = [lengths[k] for k in rng.permutation(len(lengths))]
    starts = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    n, runs = int(starts[-1]), len(lengths)
    families = draw(st.integers(0, 5))
    rated = draw(st.booleans())

    def partners():
        """Each run's partner: a run of its length at random, or, for
        rates, pairs of such runs and runs left to themselves."""
        if not rated:
            return [rng.choice([q for q in range(runs)
                                if lengths[q] == lengths[r]])
                    for r in range(runs)]
        out = list(range(runs))
        for length in set(lengths):
            alike = [r for r in rng.permutation(runs) if lengths[r] == length]
            pairs = int(rng.integers(0, len(alike) // 2 + 1))
            for a, b in zip(alike[:pairs], alike[pairs:2 * pairs]):
                out[a], out[b] = b, a
        return out
    partner = np.array([partners() for _ in range(families)],
                       dtype=np.int64).reshape(families, runs)

    def zeros(shape):
        """+0.0 and -0.0, at random or all of one sign."""
        signs = rng.normal(size=shape) if rng.random() < 0.5 else \
            np.full(shape, rng.normal())
        return np.copysign(0.0, signs)

    def drawn(rows, mode=None):
        """(rows, n) values, where each run of each row has both parts
        drawn (mode 0), or its real part (1), its imaginary part (2) or
        both (3) exact zeros: by ``mode``, or at random for each run."""
        out = np.empty((rows, n), dtype=np.complex128)
        out.real, out.imag = rng.normal(size=(2, rows, n))
        for row in out:
            for r in range(runs):
                run = slice(starts[r], starts[r + 1])
                zero = rng.integers(4) if mode is None else mode
                for part, bit in ((row.real, 1), (row.imag, 2)):
                    if zero & bit:
                        part[run] = zeros(lengths[r])
        return out

    m = draw(st.integers(1, 4))
    # envelopes in [0, 2), each a zero with chance 0.3, and windows closed
    # throughout
    table = rng.uniform(0.0, 2.0, size=(families, 3 * m))
    closed = rng.random(table.shape) < 0.3
    table[closed] = zeros(table.shape)[closed]
    table[rng.random(families) < 0.4] = 0.0
    times = rng.uniform(-1.0, 1.0, (3, m)) * 10.0 ** rng.uniform(0, 6)
    for zero in (0.0, -0.0):
        times[rng.random(times.shape) < 0.2] = zero
    # most steps start where the last one ended, bit for bit, as _rk4's
    # mostly do, and the C loop keeps that end's ramps for the start; some
    # start one ulp later, or at the other zero after an end at a zero
    ends, starts_at = times[2, :-1], times[0, 1:]
    link = rng.choice(["same", "ulp", "zero", "free"], m - 1,
                      p=[0.6, 0.15, 0.1, 0.15])
    starts_at[link == "same"] = ends[link == "same"]
    starts_at[link == "ulp"] = np.nextafter(ends[link == "ulp"], np.inf)
    ends[link == "zero"] = 0.0
    starts_at[link == "zero"] = -0.0
    rate = None
    if rated:
        rate = zeros((families, n))
        without = rng.random(families) < 0.3
        for f, r in zip(*np.nonzero(partner > np.arange(runs))):
            if without[f]:
                continue
            rho = rng.choice([-1.0, 1.0], lengths[r]) * \
                10.0 ** rng.uniform(-3, 4, lengths[r])
            rho[rng.random(lengths[r]) < 0.2] = zeros(lengths[r])[0]
            p = partner[f, r]
            rate[f, starts[r]:starts[r + 1]] = rho
            rate[f, starts[p]:starts[p + 1]] = -rho
    dt = draw(st.sampled_from([0.25, 1e-3]))
    # a quiet case: every window closed, and a state and a diagonal whose
    # real parts are zeros (a diagonal of decay alone), so the diagonal
    # term is exactly real, and the sign of its imaginary zero is set by
    # the couplings' x * 0.0 terms
    mode = None
    if draw(st.booleans()):
        table[...], mode = 0.0, 1
    layout = (drawn(1, mode)[0], starts, partner, drawn(families), rate,
              np.array([-0.5j * dt, -1j * dt, -1j * dt / 6.0, 2.0]))
    states = drawn(1, mode)[0]
    if draw(st.booleans()):
        cuts = range(m + 1)
    else:
        cuts = [0, *sorted(set(draw(st.lists(st.integers(1, m))))), m]
    calls = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    return states, layout, table, times, m, calls


@pytest.mark.bits
@given(case=bound_cases())
@settings(max_examples=400, deadline=None)
def test_c_kernel_equals_the_numpy_loop_on_drawn_layouts(case):
    # every state after every call, the sign of each zero included; the
    # draws reach the loop of each family count, with and without rates,
    # and the loop of a run-time family count past 3
    c_kernel_or_skip()
    states, layout, table, times, m, calls = case
    runs = []
    for loop in (ckernel.load(), propagate._numpy_loop):
        work = states.copy()
        steps = loop(work, *layout)
        after = []
        for lo, hi in calls:
            steps(table, times, m, lo, hi)
            after.append(work.tobytes())
        runs.append(after)
    assert runs[0] == runs[1]


@st.composite
def layout_cases(draw):
    """The parts of one step batch: 1-3 operators of 1-12 states each, under
    the same 0-3 families, each of which is a random perfect matching of
    its own on each operator, with an unbatched or (B, n) pattern and
    diagonal (B of 1 to 3), and the states of some of its member rows,
    which hold exact zeros of either sign and a NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    envelopes = tuple(PulseEnvelope(SQUARE, 1.0, 0.0, 1.0)
                      for _ in range(draw(st.integers(0, 3))))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 12))
        members = draw(st.integers(1, 3))
        batched = members > 1 and draw(st.booleans())
        shape = (members, n) if batched else (n,)
        perm = np.tile(np.arange(n), (len(envelopes), 1))
        pattern = np.zeros((len(envelopes),) + shape, dtype=np.complex128)
        for f in range(len(envelopes)):
            order = rng.permutation(n)
            m = int(rng.integers(0, n // 2 + 1))
            i, j = order[:m], order[m:2 * m]
            perm[f, i], perm[f, j] = j, i
            pattern[f][..., i] = rng.normal(size=shape[:-1] + (m,)) + 1j
            pattern[f][..., j] = np.conj(pattern[f][..., i])
        h = EpochHamiltonian(rng.normal(size=shape), np.zeros(shape), perm,
                             pattern, np.zeros(pattern.shape), envelopes,
                             np.ones(len(envelopes)))
        rows = np.flatnonzero(rng.random(members) < 0.7)
        rows = rows if len(rows) else np.array([members - 1])
        work = rng.normal(size=(len(rows), n)) + 1j * rng.normal(
            size=(len(rows), n))
        work.real[rng.random(size=work.shape) < 0.2] = -0.0
        work.imag[0, 0] = np.nan
        parts.append((h, work, rows))
    return parts


def components(h):
    """Per state, the smallest index of the states that the nonzero
    off-diagonal entries of its dense matrix (of any member) link it to."""
    n = h.diagonal.shape[-1]
    reach = np.eye(n, dtype=bool)
    for f, row in enumerate(h.pattern):
        live = (row != 0).reshape(-1, n).any(axis=0)
        reach[np.flatnonzero(live), h.perm[f, live]] = True
    while not np.array_equal(grown := (reach.astype(int) @ reach) > 0,
                             reach):
        reach = grown
    return reach.argmax(axis=1)


class _BindRecorder:
    """A kernel that records the layout it is bound on and steps nothing;
    its envelope table is all zeros."""

    def __init__(self):
        self.bound = []

    def __call__(self, states, diag, starts, partner, pattern, *_):
        self.bound.append((states.copy(), diag, starts, partner, pattern))
        return lambda *chunk: None

    def envelope_table(self, envelopes, times):
        return np.zeros((len(envelopes), len(times)))


@pytest.mark.bits
@given(parts=layout_cases())
@settings(max_examples=200, deadline=None)
def test_layout_is_block_major_and_undone_bit_for_bit(parts):
    # every stepped state as (part, row, state), the rows of the parts one
    # after the other, each with its operator's blocks and partners
    flat, labels, perm = [], [], []
    for k, (h, work, _) in enumerate(parts):
        for r in range(len(work)):
            n, first = h.diagonal.shape[-1], len(flat)
            flat += [(k, r, i) for i in range(n)]
            labels.append(first + h.blocks())
            perm.append(first + h.perm)
    order, starts, partner = propagate._layout(
        np.concatenate(labels), np.concatenate(perm, axis=1))
    assert np.array_equal(np.sort(order), np.arange(len(flat)))
    assert starts[0] == 0 and starts[-1] == len(flat)
    assert np.all(np.diff(starts) > 0)
    for h, *_ in parts:
        assert np.array_equal(h.blocks(), components(h))
    # each family's partner of every run is a whole run of the same length,
    # position by position: the partner of each state of the run
    lengths = np.diff(starts)
    assert partner.shape == (len(parts[0][0].perm), len(lengths))
    for f, runs in enumerate(partner):
        assert np.array_equal(lengths[runs], lengths)
        for r, p in enumerate(runs):
            for j in range(lengths[r]):
                k, row, i = flat[order[starts[r] + j]]
                assert flat[order[starts[p] + j]] == \
                    (k, row, parts[k][0].perm[f, i])

    # _rk4 binds the states and the operator in that order, and undoes it
    # into every part, at each observer stop and on return, bit for bit
    def member(a, row, axis):
        return a.take(row, axis) if a.ndim > axis + 1 else a
    before = [work.copy() for _, work, _ in parts]
    seen = []
    kernel = _BindRecorder()
    with mock.patch.object(ckernel, "load", lambda: kernel):
        propagate._rk4(parts, Epoch(0.0, 1e-3, ()), 5,
                       lambda t: seen.append([w.tobytes() for _, w, _ in
                                              parts]), 2)
    assert [w.tobytes() for _, w, _ in parts] == \
        [w.tobytes() for w in before]
    assert seen == [[w.tobytes() for w in before]] * 3
    ((states, diag, bound_starts, bound_partner, pattern),) = kernel.bound
    assert np.array_equal(bound_starts, starts)
    assert np.array_equal(bound_partner, partner)
    for q, (k, row, i) in enumerate(np.array(flat, dtype=object)[order]):
        h, _, rows = parts[k]
        assert states[q].tobytes() == before[k][row, i].tobytes()
        assert diag[q] == member(h._diag_complex, rows[row], 0)[i]
        assert np.array_equal(pattern[:, q],
                              member(h.pattern, rows[row], 1)[:, i])


def test_runs_keeps_a_bounded_number_of_read_only_layouts():
    # the layouts of lattices of 2 to 25 two-state blocks, one family each,
    # and of 3 states with no family, the last two asked for again: each
    # is _layout's, read-only, the same object when asked again while
    # kept, and no more than the memo's 16 are kept
    propagate._runs.cache_clear()
    layouts = [(np.arange(3), np.empty((0, 3), dtype=np.int64))]
    for pairs in range(2, 26):
        labels = np.repeat(np.arange(0, 2 * pairs, 2), 2)
        perm = (np.arange(2 * pairs) ^ 1)[None]
        layouts.append((labels, perm))
    for labels, perm in layouts + layouts[-2:]:
        key = (labels.tobytes(), perm.tobytes(), len(labels))
        runs = propagate._runs(*key)
        for got, want in zip(runs, propagate._layout(labels, perm)):
            assert np.array_equal(got, want) and not got.flags.writeable
        assert propagate._runs(*key) is runs
    info = propagate._runs.cache_info()
    assert (info.hits, info.misses) == (len(layouts) + 4, len(layouts))
    assert info.currsize == info.maxsize == 16
    propagate._runs.cache_clear()


@st.composite
def ramp_cases(draw):
    """Family rows of phase rates over random matchings, as the compiler
    makes them: in a family with a rate each coupled pair holds rho and
    -rho, with exact zeros of both signs drawn on purpose; a family
    without one holds +0.0 throughout.  With them the substage times of
    an epoch that may start at 0, at -0.0 or before 0, and a table with
    room for more steps than the epoch has."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 24))
    families = draw(st.integers(1, 3))
    rate = np.zeros((families, n))
    for f in range(families):
        order = rng.permutation(n)
        m = int(rng.integers(0, n // 2 + 1))
        i, j = order[:m], order[m:2 * m]
        if draw(st.booleans()):
            rho = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-3, 9, m)
            rho[rng.random(m) < 0.3] = 0.0
            rho[rng.random(m) < 0.2] = -0.0
            rate[f, i], rate[f, j] = rho, -rho
    t_start = draw(st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0))
    duration = draw(st.floats(1e-9, 1.0))
    n_steps = draw(st.integers(1, 40))
    t = t_start + np.arange(n_steps) * duration / n_steps
    times = np.concatenate([t, t + 0.5 * duration / n_steps,
                            np.minimum(t + duration / n_steps,
                                       t_start + duration)])
    return rate, times, n_steps + draw(st.integers(0, 3))


@pytest.mark.bits
@given(case=ramp_cases())
@example(case=(np.array([[-2.2e-3, 2.2e-3, -118.0, 118.0]]),   # rate * t
               np.array([5e-324, 0.5, 1.0]), 1))              # underflows
@settings(max_examples=300, deadline=None)
def test_phase_rows_are_exp_of_each_time_bit_for_bit(case):
    # rows filled in place for any array of times (the numpy loop passes
    # a step's three) must each be exactly exp(1j * t * rate), the C
    # loop's oracle through the states: at t = 0 and for a zero rate that is
    # exp's 1+0j (or 1-0j before t = 0), the sign of the zero included;
    # the spare rows of the table stay untouched
    rate, times, rows = case
    out = np.full((3, rows) + rate.shape, np.nan, dtype=np.complex128)
    steps = len(times) // 3
    for substage, table in zip(times.reshape(3, steps), out):
        view = table[:steps]
        assert propagate._phase_rows(rate, substage, view) is view
    for time, row in zip(times.tolist(), out[:, :steps].reshape(
            (-1,) + rate.shape)):
        assert row.tobytes() == np.exp(1j * time * rate).tobytes()
    assert np.isnan(out[:, steps:]).all()


@pytest.mark.bits
@given(links=st.lists(st.sampled_from(["same", "ulp", "zero", "free"]),
                      min_size=5, max_size=5),
       cuts=st.sets(st.integers(1, 5)))
@settings(max_examples=100, deadline=None)
def test_c_loop_keeps_an_end_s_ramps_only_for_a_start_at_that_time(links,
                                                                  cuts):
    # the loader's rated probe operator over 6 steps, each starting at the
    # last one's end (bit for bit), one ulp later, at -0.0 after an end at
    # +0.0, or anywhere: the C loop, which keeps an end's ramps for a start
    # at that very time within a call, against the numpy loop, which makes
    # every ramp anew, after each call
    c_kernel_or_skip()
    states, *layout, _, _ = next(ckernel._step_probes())
    m = 6
    times = np.array([[0.25 * j + 0.125 * s for j in range(m)]
                      for s in range(3)])
    for j, link in enumerate(links):
        if link == "same":
            times[0, j + 1] = times[2, j]
        elif link == "ulp":
            times[0, j + 1] = np.nextafter(times[2, j], np.inf)
        elif link == "zero":
            times[2, j], times[0, j + 1] = 0.0, -0.0
    table = np.array([[0.5 + 0.1 * k + f for k in range(3 * m)]
                      for f in range(2)])
    bounds = [0, *sorted(cuts), m]
    runs = []
    for loop in (ckernel.load(), propagate._numpy_loop):
        work = states.copy()
        steps = loop(work, *layout)
        after = []
        for lo, hi in zip(bounds, bounds[1:]):
            steps(table, times, m, lo, hi)
            after.append(work.tobytes())
        runs.append(after)
    assert runs[0] == runs[1]


@pytest.mark.bits
def test_c_kernel_binder_holds_the_copies_it_passes():
    c_kernel_or_skip()
    rng = np.random.default_rng(5)
    n, m = 18, 5

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # int32 run starts and partner runs, a transposed pattern and float32
    # rates: bind passes copies
    starts = np.array([0, 3, 6, 9, 12, 18], dtype=np.int32)
    partner = np.array([[1, 0, 3, 2, 4], [2, 3, 0, 1, 4]], dtype=np.int32)
    pattern = normal(n, 2).T
    rho = rng.uniform(-3, 3, size=(2, 3)).astype(np.float32)
    rate = np.zeros((2, n), dtype=np.float32)
    rate[0, :12] = np.concatenate([rho[0], -rho[0], rho[1], -rho[1]])
    rate[1, :12] = np.concatenate([rho[0], rho[1], -rho[0], -rho[1]])
    diag, states = normal(n), normal(n)
    coef = np.array([-0.05j, -0.1j, -0.1j / 6.0, 2.0])
    table = rng.uniform(size=(2, 3 * m))
    times = rng.uniform(size=(3, m))
    runs = []
    for loop in (ckernel.load(), propagate._numpy_loop):
        work = states.copy()
        steps = loop(work, diag, starts, partner, pattern, rate, coef)
        gc.collect()
        # take back the memory of a dropped copy (numpy reuses freed blocks
        # of a size) and zero it: every run starting at 0 and coupled to
        # run 0, no pattern and no rate
        junk = [np.full(size, 0, dtype=np.int64)
                for size in (starts.size, partner.size, 2 * pattern.size,
                             rate.size) * 4]
        steps(table, times, m, 0, 2)
        steps(table, times, m, 2, m)
        runs.append(work.tobytes())
    assert runs[0] == runs[1]


def bind_layouts():
    """A valid layout for ``ckernel.bind`` (12 states in 4 runs of 3, 2
    families with a rate), then that layout with one array the kernel
    would read out of bounds, write where it may not or ramp wrong:
    read-only states, a pattern row shorter than the states, rate rows of
    the wrong shape, run starts that run past the states, start below 0,
    do not increase or do not end at the state count, a partner run of
    another length, partner runs below 0 or past the last run, a rate that
    is not minus its partner's, and rates on partner runs that do not pair
    up."""
    n = 12
    states = np.ones(n, dtype=np.complex128)
    starts = np.array([0, 3, 6, 9, n])
    partner = np.array([[1, 0, 3, 2], [3, 2, 1, 0]])
    pattern = np.ones((2, n), dtype=np.complex128)
    rate = np.array([[1.0, 2.0, 3.0] * 2 + [4.0, 5.0, 6.0] * 2,
                     [7.0, 8.0, 9.0] * 2 + [-7.0, -8.0, -9.0] * 2])
    rate[0, 3:6] *= -1
    rate[0, 9:] *= -1
    valid = dict(states=states, diag=states.copy(), starts=starts,
                 partner=partner, pattern=pattern, rate=rate,
                 coef=np.array([-0.05j, -0.1j, -0.1j / 6.0, 2.0]))
    low, high = partner.copy(), partner.copy()
    low[1, 2], high[0, 2] = -1, len(starts) - 1
    frozen = states.copy()
    frozen.flags.writeable = False
    lopsided = rate.copy()
    lopsided[1, 4] = np.nextafter(lopsided[1, 4], 0.0)
    cycle = partner.copy()
    cycle[1] = [1, 2, 3, 0]
    return valid, [
        ("layout", dict(valid, states=frozen)),
        ("layout", dict(valid, pattern=pattern[:, :3], rate=None)),
        ("layout", dict(valid, rate=rate[:, :3])),
        ("layout", dict(valid, rate=rate[:1])),
        ("runs", dict(valid, starts=np.array([0, 3, 6, 9, n + 1]))),
        ("runs", dict(valid, starts=np.array([-3, 3, 6, 9, n]))),
        ("runs", dict(valid, starts=np.array([0, 6, 3, 9, n]))),
        ("runs", dict(valid, starts=np.array([0, 3, 3, 9, n]))),
        ("runs", dict(valid, starts=np.array([0, 3, 6, 9]))),
        ("runs", dict(valid, starts=np.array([0, 3, 6, 9, n - 1]))),
        ("partner", dict(valid, starts=np.array([0, 3, 6, 8, n]))),
        ("partner", dict(valid, partner=low)),
        ("partner", dict(valid, partner=high)),
        ("antisymmetric", dict(valid, rate=lopsided)),
        ("antisymmetric", dict(valid, partner=cycle,
                               rate=np.zeros((2, n))))]


@pytest.mark.bits
def test_bind_refuses_a_layout_before_any_pointer_reaches_c():
    def never_called(*args):
        raise AssertionError("a pointer reached the kernel")
    valid, bad = bind_layouts()
    ran = []
    steps = ckernel.bind(lambda *args: ran.append(args), **valid)
    steps(np.ones((2, 6)), np.zeros((3, 2)), 2, 0, 2)
    assert len(ran) == 1
    # the same layout without rates, and with zero rates on partner runs
    # that do not pair up, which only rates need
    cycle = valid["partner"].copy()
    cycle[1] = [1, 2, 3, 0]
    for layout in (dict(valid, rate=None),
                   dict(valid, partner=cycle, rate=None)):
        ckernel.bind(lambda *args: ran.append(args), **layout)(
            np.ones((2, 6)), np.zeros((3, 2)), 2, 0, 2)
    assert len(ran) == 3
    for message, layout in bad:
        with pytest.raises(ValueError, match=message):
            ckernel.bind(never_called, **layout)
    # a chunk's envelope table, times and steps must fit it
    steps = ckernel.bind(never_called, **valid)
    for table, times, m, lo, hi in [
            (np.ones((2, 6)), np.zeros((2, 3)), 2, 0, 2),
            (np.ones((2, 6)), np.zeros(6), 2, 0, 2),
            (np.ones((2, 6)), np.zeros((3, 3)), 2, 0, 2),
            (np.ones((2, 6)), np.zeros((3, 2), dtype=np.float32), 2, 0, 2),
            (np.ones((2, 6)), np.zeros((2, 3)).T, 2, 0, 2),
            (np.ones((2, 9)), np.zeros((3, 2)), 2, 0, 2),
            (np.ones((2, 6)), np.zeros((3, 2)), 2, 1, 3)]:
        with pytest.raises(ValueError, match="outside the chunk"):
            steps(table, times, m, lo, hi)


@pytest.mark.bits
def test_bind_refuses_a_bad_layout_after_keeping_a_good_one_of_its_shapes():
    # bind keeps the verdict on a layout's runs and partners, keyed by its
    # bytes: a bad layout of the same shapes is still refused, each time,
    # and rates are checked on every call
    def never_called(*args):
        raise AssertionError("a pointer reached the kernel")
    valid, bad = bind_layouts()
    ckernel._runs_verdict.cache_clear()
    for _ in range(2):
        ckernel.bind(lambda *args: None, **valid)
    assert ckernel._runs_verdict.cache_info().hits == 1
    alike = [(message, layout) for message, layout in bad
             if layout["starts"].shape == valid["starts"].shape and
             layout["partner"].shape == valid["partner"].shape and
             message != "layout"]
    assert {message for message, _ in alike} == {"runs", "partner",
                                                 "antisymmetric"}
    for message, layout in alike * 2:
        with pytest.raises(ValueError, match=message):
            ckernel.bind(never_called, **layout)


@pytest.mark.bits
@given(windows=st.lists(st.tuples(st.sampled_from([SQUARE, SINE_SQUARED]),
                                  st.floats(0.0, 1e10), st.floats(-1e-3, 1e-3),
                                  st.floats(1e-9, 1e-3)),
                        min_size=1, max_size=4),
       fractions=st.lists(st.floats(-0.5, 1.5), max_size=24))
@settings(max_examples=100, deadline=None)
def test_c_envelope_table_is_the_envelope_value_bit_for_bit(windows,
                                                            fractions):
    c_kernel_or_skip()
    envelopes = [PulseEnvelope(*window) for window in windows]
    # each window edge, the doubles either side of it, and times before,
    # inside and after the window, for every family at once
    times = np.array([t for e in envelopes for edge in (e.start, e.end)
                      for t in (np.nextafter(edge, -np.inf), edge,
                                np.nextafter(edge, np.inf))] +
                     [e.start + x * e.duration for e in envelopes
                      for x in fractions])
    n, families = 2, len(envelopes)
    h = EpochHamiltonian(np.zeros(n), np.zeros(n),
                         np.tile(np.arange(n), (families, 1)),
                         np.zeros((families, n), dtype=np.complex128),
                         np.zeros((families, n)),
                         tuple(envelopes),
                         np.array([e.peak_rabi for e in envelopes]))
    table = h.envelope_table(times)
    with mock.patch.object(ckernel, "load", lambda: None):
        fallback = h.envelope_table(times)
    want = np.array([e.value(times) for e in envelopes])
    assert table.tobytes() == fallback.tobytes() == want.tobytes()


@pytest.mark.bits
def test_loader_refuses_a_build_whose_envelope_probe_disagrees(monkeypatch):
    c_kernel_or_skip()
    value = PulseEnvelope.value
    monkeypatch.setattr(PulseEnvelope, "value", lambda self, t: np.nextafter(
        value(self, t), np.inf))
    monkeypatch.setattr(ckernel, "_loaded", None)   # choose again
    assert ckernel.load() is None
    assert ckernel.engine() == "numpy"


@pytest.mark.bits
def test_loader_refuses_a_build_whose_step_probe_disagrees(monkeypatch):
    c_kernel_or_skip()
    loop = propagate._numpy_loop

    def nudged(states, *layout):
        steps = loop(states, *layout)

        def run(*chunk):
            steps(*chunk)
            # the last state: in the remainder after the vector body
            states.real[-1] = np.nextafter(states.real[-1], np.inf)
        return run
    monkeypatch.setattr(propagate, "_numpy_loop", nudged)
    monkeypatch.setattr(ckernel, "_loaded", None)   # choose again
    assert ckernel.load() is None
    assert ckernel.engine() == "numpy"


@pytest.mark.bits
def test_loader_refuses_a_build_whose_fringe_probe_disagrees(monkeypatch):
    c_kernel_or_skip()
    from recoilsim import fringes
    numpy_fields = fringes._numpy_fields

    def nudged(*grid):
        fields = numpy_fields(*grid)

        def run(*rows):
            field, mirror = fields(*rows)
            # the last mirror sample, which the kernel makes as a
            # mirror column's conjugate
            mirror.real[-1, -1] = np.nextafter(mirror.real[-1, -1], np.inf)
            return field, mirror
        return run
    monkeypatch.setattr(fringes, "_numpy_fields", nudged)
    monkeypatch.setattr(ckernel, "_loaded", None)   # choose again
    assert ckernel.load() is None
    assert ckernel.engine() == "numpy"


def chunk_cases(atom):
    """A ladder epoch (two sine-squared beams, no rate) and a detuned Raman
    pulse (a rate, whose ramps each loop makes step by step), each with a
    state, a step count and an observer count whose stride divides none of
    the chunks."""
    epoch = build_adiabatic_sequence(2, 50e-9, 2 * math.pi * 1e8).epochs[1]
    ladder = compile_from_epoch(*next(compile_plan(
        propagate.ladder_basis([A, B, E1], [-2, -4]), [epoch], atom, 0.0)))
    omega = 2 * math.pi * 4e5
    raman_epoch = two_level_plan(atom, omega, math.pi / omega,
                                 0.3 * omega).epochs[0]
    raman = compile_from_epoch(*next(compile_plan(
        Basis([A, C], range(-4, 3)), [raman_epoch], atom, 0.0)))
    rng = np.random.default_rng(11)
    for h, ep in ((ladder, epoch), (raman, raman_epoch)):
        n = h.diagonal.shape[-1]
        work = rng.normal(size=n) + 1j * rng.normal(size=n)
        yield h, work / np.linalg.norm(work), ep, 4100, 3


@pytest.mark.bits
@pytest.mark.parametrize("engine", ["kernel", "numpy"])
def test_rk4_bytes_do_not_depend_on_the_envelope_chunk(atom, engine):
    if engine == "kernel":
        c_kernel_or_skip()
    loader = ckernel.load if engine == "kernel" else lambda: None
    for h, start, epoch, n_steps, per_epoch in chunk_cases(atom):
        assert n_steps // per_epoch % 7 and 2048 % (n_steps // per_epoch)
        runs = []
        for chunk in (1, 7, 128, 2048):
            work = start.copy()
            samples, observe = observed(work)
            with mock.patch.object(propagate, "ENVELOPE_CHUNK", chunk), \
                    mock.patch.object(ckernel, "load", loader):
                t = propagate._rk4([whole(h, work)], epoch,
                                   n_steps, observe, per_epoch)
            runs.append((t, work.tobytes(),
                         [(s, w.tobytes()) for s, w in samples]))
        assert len(runs[0][2]) == per_epoch + 1
        assert all(run == runs[0] for run in runs)


def test_rk4_refuses_a_lone_state_that_a_family_couples():
    # numpy's FMA kernels round a product of 1-element arrays unfused,
    # unlike the C loop, so the two loops could not agree on it; a family
    # that couples nothing there leaves every product exact
    n = 1
    envelopes = (PulseEnvelope(SQUARE, 1.0, 0.0, 1.0),)
    epoch = Epoch(0.0, 1.0, ())
    for pattern, refused in ((0.5 + 0.25j, True), (0.0, False)):
        h = EpochHamiltonian(np.ones(n), np.zeros(n),
                             np.zeros((1, n), dtype=np.int64),
                             np.full((1, n), pattern, dtype=np.complex128),
                             np.zeros((1, n)), envelopes, np.ones(1))
        work = np.ones(n, dtype=np.complex128)
        if refused:
            with pytest.raises(ValueError, match="lone state"):
                propagate._rk4([whole(h, work)], epoch, 40)
            assert work.tobytes() == np.ones(n, dtype=np.complex128).tobytes()
        else:
            propagate._rk4([whole(h, work)], epoch, 40)
            assert not np.array_equal(work, np.ones(n))


def test_a_level_outside_the_basis_is_refused_before_any_step(atom,
                                                               monkeypatch):
    # the plan pass checks every epoch as the plan starts, so a second
    # epoch that addresses B on an (A, C) basis is refused before the first
    # is integrated
    steps = []
    rk4 = propagate._rk4

    def recording_rk4(*args):
        steps.append(args)
        return rk4(*args)

    monkeypatch.setattr(propagate, "_rk4", recording_rk4)
    omega = 2 * math.pi * 4e5
    (first,) = two_level_plan(atom, omega, math.pi / omega).epochs
    stray = effective_pulse(math.pi, omega, RecoilState(A, 0),
                            RecoilState(B, 2), "z")
    plan = SequencePlan(epochs=[first, Epoch(first.t_end, first.duration,
                                             (stray,), {})])
    psi = WaveFunction.from_components(Basis([A, C], range(-4, 3)),
                                       {RecoilState(A, 0): 1.0})
    with pytest.raises(ConfigurationError, match="level B missing"):
        evolve_plan(psi, plan, atom)
    assert steps == []


def test_evolve_plan_refuses_an_empty_list(atom):
    plan = two_level_plan(atom, 2 * math.pi * 4e5, 1e-6)
    with pytest.raises(ConfigurationError):
        evolve_plan([], plan, atom)


def test_rk4_refuses_work_it_cannot_step_in_place():
    n = 4
    h = EpochHamiltonian(np.zeros(n), np.zeros(n),
                         np.empty((0, n), dtype=np.int64),
                         np.empty((0, n), dtype=np.complex128),
                         np.empty((0, n)), (), np.empty(0))
    epoch = Epoch(0.0, 1.0, ())
    for work in (np.ones((n, 2), dtype=np.complex128)[:, 0],
                 np.ones((2, 2 * n), dtype=np.complex128)[:, ::2],
                 np.ones(n)):
        with pytest.raises(ValueError):
            propagate._rk4([whole(h, work)], epoch, 4)


@pytest.mark.bits
def test_loader_refuses_a_build_whose_probe_disagrees():
    # the build whose complex products round otherwise than numpy's is
    # built and opened, then refused on its probes: they alone choose
    c_kernel_or_skip()
    other = ckernel.PLAIN if ckernel.engine() == "c-fma" else ckernel.FMA
    if other == ckernel.FMA and not ckernel._cpu_features().get("FMA3"):
        pytest.skip("the FMA build cannot run on this CPU")
    assert ckernel._library(other[1]) is not None
    assert ckernel._open(other[1]) is None


@pytest.mark.bits
@pytest.mark.parametrize("broken", ["compiler", "cache"])
def test_loader_falls_back_to_numpy_with_identical_results(
        atom, monkeypatch, tmp_path, broken):
    omega = 2 * math.pi * 4e5
    kernel_run = run_two_level(atom, omega, 0.7 * math.pi / omega, 0.2 * omega)
    if broken == "compiler":
        tools = tmp_path / "bin"
        tools.mkdir()
        (tools / "cc").write_text("#!/bin/sh\nexit 1\n")
        (tools / "cc").chmod(0o755)
        monkeypatch.setenv("PATH", str(tools))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    else:
        # a file where the cache directory should be: mkdir fails
        (tmp_path / "cache").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache" / "x"))
    monkeypatch.setattr(ckernel, "_loaded", None)   # choose again
    fallback_run = run_two_level(atom, omega, 0.7 * math.pi / omega,
                                 0.2 * omega)
    assert ckernel.engine() == "numpy"
    assert fallback_run.amplitudes.tobytes() == \
        kernel_run.amplitudes.tobytes()


def test_import_neither_builds_nor_loads_the_kernel(tmp_path):
    code = ("import sys, recoilsim, recoilsim.cli; "
            "print('recoilsim.ckernel' in sys.modules); "
            "from recoilsim import ckernel; "
            "print(ckernel._loaded, 'subprocess' in sys.modules)")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=str(Path(propagate.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\nNone False\n"
    assert not list(tmp_path.iterdir())


def test_kernel_ns_replays_a_run_on_two_builds(tmp_path):
    # a 2-pair figure3 run, recorded and replayed once on the loaded build
    # and once on a build of the same source: both report their kernel
    # time and exit 0, as every replayed state is the recorded one, and
    # the recorded run's evolve_plan time follows with its part outside
    # the step loop; a source that does not build exits 2
    c_kernel_or_skip()
    script = Path(__file__).parents[1] / "scripts" / "kernel_ns.py"
    config = tmp_path / "figure3.json"
    config.write_text('{"plan": "figure3", "params": {"n_pairs": 2, '
                      '"stagger_s": 5e-08, "rms_rabi_hz": 1e8}}')
    done = subprocess.run([sys.executable, str(script), str(config),
                           "--against", str(ckernel.SOURCE), "--rounds", "1"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("figure3.json: 2 bindings")
    assert [line.split()[0] for line in lines[1:]] == ["loaded", "against",
                                                       "recorded"]
    assert all("ns per state-step" in line for line in lines[1:3])
    evolve, outside = (float(word) for word in lines[3].split()
                       if word.replace(".", "").isdigit())
    assert 0 < outside < evolve
    broken = tmp_path / "broken.c"
    broken.write_text("not C\n")
    done = subprocess.run([sys.executable, str(script), str(config),
                           "--against", str(broken), "--rounds", "1"],
                          capture_output=True, text=True)
    assert done.returncode == 2 and "broken.c" in done.stderr
