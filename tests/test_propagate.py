"""Integrator oracles: analytic two-level formulas, norm, stability."""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recoilsim import ckernel, propagate
from recoilsim.basis import Basis, RecoilState, WaveFunction
from recoilsim.errors import ConfigurationError, IntegrationError
from recoilsim.hamiltonian import EpochHamiltonian, compile_epoch
from recoilsim.params import InternalLevel, rb87
from recoilsim.propagate import (STABILITY_LIMIT, check_stability,
                                 evolve_plan)
from recoilsim.pulses import (SINE_SQUARED, SQUARE, Epoch, PulseEnvelope,
                              SequencePlan, effective_pulse,
                              copropagating_pulse)

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
    h = compile_epoch(basis, [ev], atom)
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
        env = float(envelope(t))
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
    close inside the epoch; ``scale`` sets the time unit.  The envelope
    chunk and phase-table budget drawn last give chunks of one step and
    partial chunks, with rates and without."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 9))
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
        half += rng.normal(size=half.shape) + 1j * rng.normal(size=half.shape)
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
        tuple(window.value for *_, window in families),
        np.array([window.peak_rabi for *_, window in families]))
    work = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    stable = math.ceil(duration * float(np.max(h.max_element())) / 0.05)
    n_steps = max(draw(st.integers(1, 40)), stable)
    return (h, work, Epoch(t_start, duration, ()), n_steps,
            draw(st.integers(0, 5)), draw(st.sampled_from([1, 3, 1024])),
            draw(st.sampled_from([1, 40, 2 ** 12])))


def observed(work):
    samples = []
    return samples, lambda t: samples.append((t, work.copy()))


@given(case=kernel_cases())
@settings(max_examples=200, deadline=None)
def test_stacked_kernel_matches_the_per_family_loop_bit_for_bit(case):
    h, work, epoch, n_steps, per_epoch, chunk, budget = case
    ref = work.copy()
    samples, observe = observed(work)
    ref_samples, ref_observe = observed(ref)
    with mock.patch.object(propagate, "ENVELOPE_CHUNK", chunk), \
            mock.patch.object(propagate, "PHASE_TABLE_ELEMENTS", budget):
        t = propagate._rk4(h, work, epoch, n_steps,
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
    plain = ckernel._numpy_product_is_plain()
    if not (plain or ckernel._cpu_features().get("FMA3")):
        pytest.skip("no C build can match numpy's complex product here")
    if ckernel._library((ckernel.PLAIN if plain else ckernel.FMA)[1]) is None:
        pytest.skip("no C compiler or no writable cache here")
    assert ckernel.load() is not None, "the C kernel's probe disagrees"


@given(case=kernel_cases())
@settings(max_examples=200, deadline=None)
def test_c_kernel_equals_the_numpy_loop(case):
    c_kernel_or_skip()
    h, work, epoch, n_steps, per_epoch, chunk, budget = case
    ref = work.copy()
    samples, observe = observed(work)
    ref_samples, ref_observe = observed(ref)
    with mock.patch.object(propagate, "ENVELOPE_CHUNK", chunk), \
            mock.patch.object(propagate, "PHASE_TABLE_ELEMENTS", budget):
        t = propagate._rk4(h, work, epoch, n_steps,
                           observe if per_epoch else None, per_epoch)
        with mock.patch.object(ckernel, "load", lambda: None):
            t_ref = propagate._rk4(h, ref, epoch, n_steps,
                                   ref_observe if per_epoch else None,
                                   per_epoch)
    assert t == t_ref
    assert work.tobytes() == ref.tobytes()
    assert [s for s, _ in samples] == [s for s, _ in ref_samples]
    for (_, got), (_, want) in zip(samples, ref_samples):
        assert got.tobytes() == want.tobytes()


def test_loader_refuses_a_build_whose_probe_disagrees(monkeypatch,
                                                      tmp_path):
    c_kernel_or_skip()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    # pretend numpy rounds the other way, so the other build is chosen
    flipped = not ckernel._numpy_product_is_plain()
    monkeypatch.setattr(ckernel, "_numpy_product_is_plain", lambda: flipped)
    monkeypatch.setattr(ckernel, "_loaded", None)   # choose again
    assert ckernel.load() is None
    assert ckernel.engine() == "numpy"
    if flipped or ckernel._cpu_features().get("FMA3"):
        # built and opened, then refused on its probe
        assert list((tmp_path / "recoilsim").glob("rk4-*.so"))


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
