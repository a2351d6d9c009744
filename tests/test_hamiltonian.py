import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recoilsim import hamiltonian, propagate
from recoilsim.basis import Basis, RecoilState
from recoilsim.errors import ConfigurationError
from recoilsim.hamiltonian import (EpochHamiltonian, _plan_pass,
                                   _window_bound, compile_from_epoch,
                                   compile_plan, dark_state)
from recoilsim.params import InternalLevel, rb87
from recoilsim.plans import (Figure3Params, Plan1DParams, Plan2DParams,
                             RamseyParams, run_figure3, run_plan_1d_adiabatic,
                             run_plan_2d, run_plan_ramsey)
from recoilsim.propagate import ladder_basis
from recoilsim.pulses import (CHANNEL_LAMBDA, CHANNEL_RAMAN, PI_PAIR,
                              SIGMA_LEG, SIGMA_PAIR, PulseEnvelope,
                              PulseEvent, SINE_SQUARED, SQUARE,
                              build_adiabatic_sequence,
                              build_raman_sequence, copropagating_pulse,
                              counter_intuitive_pair, effective_pulse,
                              single_pulse_plan)

A, B, C, E1 = (InternalLevel.A, InternalLevel.B, InternalLevel.C,
               InternalLevel.E1)


@pytest.fixture(scope="module")
def atom():
    return rb87()


def sigma_event(pol, direction, peak=1e6, duration=1e-6):
    return PulseEvent(envelope=PulseEnvelope(SQUARE, peak, 0.0, duration),
                      polarization=pol, axis="z", direction=direction,
                      channel="adiabatic_lambda")


def compile_epoch(basis, events, atom, anchors=None, decay_rate=0.0):
    """An epoch of ``events`` compiled alone, from a one-epoch plan pass
    that takes its ``anchors`` as given: no gauge to the basis."""
    return compile_from_epoch(*next(_plan_pass(
        basis, [(tuple(events), anchors or {})], atom, decay_rate)))


def dense(h, t, member=0):
    """H(t) of one member of a compiled operator as a dense matrix, entry
    by entry as the RK4 step loops apply it: H[i, perm[i]] = envelope(t)
    * pattern[i] * exp(i rate[i] t), plus the diagonal minus i decay / 2."""
    def rows(a, axis):      # the member's rows; axis is the member axis
        return a.take(member, axis) if a.ndim > axis + 1 else a
    pattern, rate = rows(h.pattern, 1), rows(h.rate, 1)
    m = np.diag(rows(h.diagonal, 0) - 0.5j * rows(h.decay, 0))
    for f, envelope in enumerate(h.envelopes):
        for i in np.flatnonzero(pattern[f]):
            m[i, h.perm[f, i]] += envelope.value(t) * pattern[f, i] * \
                np.exp(1j * t * rate[f, i])
    return m


def couplings(basis, h):
    """The coupled state pairs (i < j) of every family."""
    return [(basis.state(i), basis.state(int(h.perm[f, i])))
            for f in range(len(h.perm)) for i in np.flatnonzero(h.pattern[f])
            if h.perm[f, i] > i]


def test_no_pulses_is_diagonal_only(atom):
    basis = Basis([A, B, E1], range(-3, 4))
    h = compile_epoch(basis, [], atom)
    assert h.envelopes == ()
    assert h.pattern.shape == h.rate.shape == h.perm.shape == (0, len(basis))
    m = dense(h, 0.0)
    assert np.array_equal(m, np.diag(m.diagonal()))
    wr = atom.recoil_frequency
    for i in range(len(basis)):
        assert m[i, i] == pytest.approx(wr * basis.state(i).n_z ** 2)


def test_sigma_plus_recoil_bookkeeping(atom):
    # one coupling per rung, each stepping n_z by the photon direction
    basis = Basis([A, B, E1], range(-3, 4))
    h = compile_epoch(basis, [sigma_event("sigma_plus", +1)], atom)
    m = dense(h, 0.5e-6)
    pairs = couplings(basis, h)
    assert pairs, "beam should couple something"
    for lo, hi in pairs:
        assert {lo.level, hi.level} == {B, E1}
        ground = lo if lo.level is B else hi
        excited = hi if hi.level is E1 else lo
        assert excited.n_z == ground.n_z + 1
        amp = m[basis.index_of(excited), basis.index_of(ground)]
        assert amp == pytest.approx(0.5e6)
    assert len(pairs) == 6  # every rung pair inside the window


def test_counterpropagating_pair_builds_lambda_chain(atom):
    pair = counter_intuitive_pair(0, 50e-9, 2 * math.pi * 1e8,
                                  direction=-1, start_rung=0)
    basis = Basis([A, B, E1], range(-5, 3))
    h = compile_epoch(basis, pair.epoch.events, atom, pair.epoch.anchors)
    pairs = set(couplings(basis, h))
    assert (RecoilState(A, 0), RecoilState(E1, -1)) in pairs
    assert (RecoilState(B, -2), RecoilState(E1, -1)) in pairs
    # two-photon chain steps two recoils between the ground legs, with no
    # direct one-photon shortcut between them
    m = dense(h, 75e-9)
    ia = basis.index_of(RecoilState(A, 0))
    ie = basis.index_of(RecoilState(E1, -1))
    ib = basis.index_of(RecoilState(B, -2))
    assert m[ie, ia] != 0
    assert m[ie, ib] != 0
    assert m[ib, ia] == 0


def test_hermitian_exactly_when_no_decay(atom):
    pair = counter_intuitive_pair(0, 50e-9, 2 * math.pi * 1e8)
    basis = Basis([A, B, C, E1], range(-5, 3))
    # a detuned, phased Raman tone adds a rotating coupling
    tone = effective_pulse(math.pi, 1e6, RecoilState(A, -2),
                           RecoilState(C, -4), "z", reference_rung=0,
                           bias_detuning=2.5e4, phase=0.7)
    h = compile_epoch(basis, [*pair.epoch.events, tone], atom,
                      pair.epoch.anchors)
    assert h.rate.any()
    m = dense(h, 60e-9)
    assert np.array_equal(m.real, m.real.T)
    assert np.array_equal(m.imag, -m.imag.T)


def test_decay_appears_on_excited_levels_only(atom):
    basis = Basis([A, B, E1], range(-2, 3))
    h = compile_epoch(basis, [], atom, decay_rate=1e5)
    for i in range(len(basis)):
        expected = 1e5 if basis.state(i).level.is_excited else 0.0
        assert h.decay[i] == expected
    m = dense(h, 0.0)
    assert np.any(m.imag.diagonal() < 0)


def test_pulse_referencing_missing_level_rejected(atom):
    basis = Basis([A, B], range(-2, 3))  # no intermediate level
    with pytest.raises(ConfigurationError):
        compile_epoch(basis, [sigma_event("sigma_plus", +1)], atom)
    basis2 = Basis([A, B, E1], range(-2, 3))  # no C
    pulse = copropagating_pulse(math.pi, 1e6, "a-c", axis="x")
    with pytest.raises(ConfigurationError):
        compile_epoch(basis2, [pulse], atom)


def test_chirped_effective_pulse_degenerate_diagonal(atom):
    # the chirp contract: both target states sit at the same diagonal value
    ev = effective_pulse(math.pi, 1e6, RecoilState(A, -2), RecoilState(C, -4),
                         "z")
    basis = Basis([A, C], range(-8, 3))
    anchors = {A: (-2, 0), C: (-4, 0)}
    m = dense(compile_epoch(basis, [ev], atom, anchors), 0.0)
    ia = basis.index_of(RecoilState(A, -2))
    ic = basis.index_of(RecoilState(C, -4))
    assert m[ia, ia] == m[ic, ic] == 0.0


def test_dark_state_matches_stated_formula():
    d = dark_state(1.0, 1.0, 0, -1)
    amp_a = d.amplitude(RecoilState(A, 0))
    amp_b = d.amplitude(RecoilState(B, -2))
    assert amp_a == pytest.approx(1 / math.sqrt(2))
    assert amp_b == pytest.approx(-1 / math.sqrt(2))


def test_dark_state_limits():
    only_a = dark_state(0.0, 5.0, 0, -1)
    assert only_a.amplitude(RecoilState(A, 0)) == pytest.approx(1.0)
    only_b = dark_state(7.0, 0.0, 0, -1)
    assert only_b.amplitude(RecoilState(B, -2)) == pytest.approx(-1.0)
    assert abs(only_b.norm() - 1.0) < 1e-15


def test_dark_state_degenerate_input_rejected():
    with pytest.raises(ConfigurationError):
        dark_state(0.0, 0.0, 0, -1)


@given(gp=st.one_of(st.just(0.0), st.floats(1e-6, 1e9)),
       gm=st.one_of(st.just(0.0), st.floats(1e-6, 1e9)),
       direction=st.sampled_from([-1, 1]), origin=st.integers(-20, 20))
@settings(max_examples=60, deadline=None)
def test_dark_state_normalized_no_excited(gp, gm, direction, origin):
    if gp == 0 and gm == 0:
        return
    d = dark_state(gp, gm, origin, direction)
    assert d.norm() == pytest.approx(1.0, abs=1e-12)
    assert d.population([E1]) == 0.0
    # orthogonal to the bright combination
    bright_a = gp
    bright_b = gm
    overlap = (np.conj(d.amplitude(RecoilState(A, origin))) * bright_a +
               np.conj(d.amplitude(RecoilState(B, origin + 2 * direction))) *
               bright_b)
    assert abs(overlap) <= 1e-9 * max(gp, gm)


def reference_compile(basis, events, atom, anchors, decay_rate):
    """Brute-force per-state compiler: a dict over the basis states."""
    states = [basis.state(i) for i in range(len(basis))]
    index = {state: i for i, state in enumerate(states)}
    n = len(states)
    wr = atom.recoil_frequency
    shift = {lv: atom.kinetic_rate(*anchors.get(lv, (0, 0)))
             for lv in InternalLevel}
    diagonal = np.array([atom.kinetic_rate(s.n_z, s.n_x) - shift[s.level]
                         for s in states])
    decay = np.array([decay_rate if s.level.is_excited else 0.0
                      for s in states])
    families = []
    for ev in events:
        perm = np.arange(n)
        pattern = np.zeros(n, dtype=complex)
        rate = np.zeros(n)
        if ev.channel == CHANNEL_LAMBDA:
            lf, lt, dn, rung = SIGMA_LEG[ev.polarization], E1, ev.direction, None
            forward = back = 0.5
            rho = None
        else:
            lf, lt = ev.levels
            dn, rung = ev.delta_n, ev.target_rung
            ref = ev.reference_rung if ev.reference_rung is not None else 0
            tone = wr * ((ref + dn) ** 2 - ref ** 2) if dn else 0.0
            rho = tone + ev.bias_detuning - (shift[lt] - shift[lf])
            back = 0.5 * np.exp(1j * ev.phase)
            forward = np.conj(back)
        for i, s in enumerate(states):
            along = s.n_z if ev.axis == "z" else s.n_x
            if s.level is not lf or (rung is not None and along != rung):
                continue
            partner = RecoilState(lt, s.n_z + dn, s.n_x) if ev.axis == "z" \
                else RecoilState(lt, s.n_z, s.n_x + dn)
            j = index.get(partner)
            if j is None:
                continue
            perm[i], perm[j] = j, i
            pattern[i], pattern[j] = forward, back
            # a tone without a detuning has no rate: exact zeros
            if rho is not None and abs(rho) > 0.0:
                rate[i], rate[j] = rho, -rho
        families.append((perm, pattern, rate,
                         rho is not None and abs(rho) > 0.0))
    return diagonal, decay, families


def identical(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def envelope(peak):
    return PulseEnvelope(SQUARE, peak, 0.0, 1e-6)


sigma_events = st.builds(
    lambda pol, d, peak: PulseEvent(envelope=envelope(peak), polarization=pol,
                                    axis="z", direction=d,
                                    channel=CHANNEL_LAMBDA),
    st.sampled_from(list(SIGMA_LEG)), st.sampled_from([-1, 1]),
    st.floats(1e3, 1e8))


@st.composite
def effective_events(draw):
    lf, lt = draw(st.permutations(list(InternalLevel)))[:2]
    dn = draw(st.sampled_from([-2, 0, 2]))
    rung = st.integers(-6, 6)
    target = draw(rung) if dn else draw(st.one_of(st.none(), rung))
    return PulseEvent(
        envelope=envelope(draw(st.floats(1e3, 1e7))),
        polarization=draw(st.sampled_from([PI_PAIR, SIGMA_PAIR])),
        axis=draw(st.sampled_from(["z", "x"])), direction=1,
        channel=CHANNEL_RAMAN, levels=(lf, lt), delta_n=dn,
        target_rung=target, reference_rung=draw(st.one_of(st.none(), rung)),
        bias_detuning=draw(st.sampled_from([0.0, 1e3, -2.5e4])),
        phase=draw(st.floats(-4.0, 4.0)))


@given(levels=st.sets(st.sampled_from(list(InternalLevel)), max_size=5),
       window_z=st.sets(st.integers(-6, 6), min_size=1, max_size=8),
       window_x=st.sets(st.integers(-3, 3), min_size=1, max_size=4),
       events=st.lists(st.one_of(sigma_events, effective_events()),
                       max_size=4),
       anchors=st.dictionaries(st.sampled_from(list(InternalLevel)),
                               st.tuples(st.integers(-6, 6),
                                         st.integers(-3, 3)), max_size=3),
       decay_rate=st.sampled_from([0.0, 1e5]))
@settings(max_examples=150, deadline=None)
def test_compile_matches_per_state_reference(atom, levels, window_z, window_x,
                                             events, anchors, decay_rate):
    # the basis holds every level the events address, plus random extras
    for ev in events:
        levels |= {E1} if ev.channel == CHANNEL_LAMBDA else set(ev.levels)
    if not levels:
        levels = {A}
    basis = Basis(levels, window_z, window_x)
    h = compile_epoch(basis, events, atom, anchors, decay_rate)
    diagonal, decay, families = reference_compile(basis, events, atom,
                                                  anchors, decay_rate)
    assert identical(h.diagonal, diagonal)
    assert identical(h.decay, decay)
    assert len(h.envelopes) == len(h.peak) == len(families)
    for f, (perm, pattern, rate, has_rate) in enumerate(families):
        assert identical(h.perm[f], perm)
        assert identical(h.pattern[f], pattern)
        assert identical(h.rate[f], rate)
        # a rate shows where a detuned tone couples a pair of the basis
        assert h.rate[f].any() == (has_rate and pattern.any())
        assert h.envelopes[f] is events[f].envelope
        assert h.peak[f] == events[f].envelope.peak_rabi


@st.composite
def batched_epochs(draw):
    """A basis, the events of one epoch (lambda beams and Raman tones; one
    tone may sweep B two-photon detunings and phases, zero included), its
    decay rate and the support of each member."""
    levels = draw(st.sets(st.sampled_from(list(InternalLevel)), max_size=5))
    events = draw(st.lists(st.one_of(sigma_events, effective_events()),
                           min_size=1, max_size=4))
    members = 1
    raman = [k for k, ev in enumerate(events) if ev.channel == CHANNEL_RAMAN]
    if raman and draw(st.booleans()):
        members = draw(st.integers(2, 4))
        detunings = draw(st.lists(st.sampled_from([0.0, 1e3, -2.5e4]),
                                  min_size=members, max_size=members))
        phases = draw(st.lists(st.floats(-4.0, 4.0), min_size=members,
                               max_size=members))
        k = draw(st.sampled_from(raman))
        events[k] = replace(events[k], bias_detuning=np.array(detunings),
                            phase=np.array(phases))
    for ev in events:
        levels |= {E1} if ev.channel == CHANNEL_LAMBDA else set(ev.levels)
    basis = Basis(levels, draw(st.sets(st.integers(-4, 4), min_size=1,
                                       max_size=5)),
                  draw(st.sets(st.integers(-2, 2), min_size=1, max_size=2)))
    anchors = draw(st.dictionaries(st.sampled_from(list(InternalLevel)),
                                   st.tuples(st.integers(-4, 4),
                                             st.integers(-2, 2)),
                                   max_size=2))
    support = np.array(draw(st.lists(
        st.lists(st.booleans(), min_size=len(basis), max_size=len(basis)),
        min_size=members, max_size=members)))
    support[:, draw(st.integers(0, len(basis) - 1))] = True
    return (basis, events, anchors, draw(st.sampled_from([0.0, 1e5])),
            support)


def reference_bound(h, t0=None, t1=None):
    """The spectral bound as a loop over the families computes it: the
    largest |diagonal element| plus each family's largest element, scaled
    by its envelope sampled at 257 times of a window (plus 2%)."""
    diag = np.max(np.abs(h.diagonal - 0.5j * h.decay), axis=-1, initial=0.0)
    elem = [h.peak[f] * np.max(np.abs(h.pattern[f]), axis=-1)
            for f in range(len(h.envelopes))]
    if t0 is None:
        return diag + sum(elem)
    grid = np.linspace(t0, t1, 257)
    total = np.zeros(np.shape(diag + sum(elem)) + grid.shape)
    for f, envelope in enumerate(h.envelopes):
        if h.peak[f]:
            total += (elem[f] / h.peak[f])[..., None] * envelope.value(grid)
    return diag + 1.02 * total.max(axis=-1)


def member_events(events, r):
    """The events of batch member ``r``: each array entry taken alone."""
    return [replace(ev, bias_detuning=float(ev.bias_detuning[r]),
                    phase=float(ev.phase[r])) if np.ndim(ev.phase) else ev
            for ev in events]


@given(case=batched_epochs())
@settings(max_examples=120, deadline=None)
def test_reductions_match_the_dense_operator(atom, case):
    basis, events, anchors, decay_rate, support = case
    h = compile_epoch(basis, events, atom, anchors, decay_rate)
    members = len(support)
    assert (np.ndim(h.row_bound(-0.2e-6, 0.7e-6)) > 0) == (members > 1)
    assert np.array_equal(h.row_bound(), reference_bound(h))
    assert np.array_equal(h.row_bound(-0.2e-6, 0.7e-6),
                          reference_bound(h, -0.2e-6, 0.7e-6))
    t = 0.5e-6                  # every square envelope is on
    full = [dense(h, t, r) for r in range(members)]
    lone = [compile_epoch(basis, member_events(events, r), atom, anchors,
                          decay_rate) for r in range(members)]

    # active_mask: the closure of each member's support under the nonzero
    # off-diagonal entries of its dense matrix
    amps = np.where(support, 0.5 - 0.25j, 0.0)
    mask = h.active_mask(amps)
    for r in range(members):
        linked = (full[r] != 0) & ~np.eye(len(basis), dtype=bool)
        closure = support[r]
        while not np.array_equal(grown := closure | linked[:, closure]
                                 .any(axis=1), closure):
            closure = grown
        assert np.array_equal(mask[r], closure)

    # members whose largest elements differ each get their own bound
    other = compile_epoch(basis, member_events(events, 0), atom, anchors,
                          1e5 - decay_rate)
    mixed = replace(lone[0], **{name: np.stack([getattr(op, name) for op in
                                                (lone[0], other, other,
                                                 lone[0])])
                                for name in ("diagonal", "decay")})
    assert np.array_equal(mixed.row_bound(-0.2e-6, 0.7e-6),
                          reference_bound(mixed, -0.2e-6, 0.7e-6))

    # reduced(idx): the full matrix restricted to idx, for each member
    for r in range(members):
        idx = np.flatnonzero(mask[r])
        small = h.reduced(idx)
        assert np.array_equal(dense(small, t, r), full[r][np.ix_(idx, idx)])
        assert all(row.any() for row in small.pattern)   # none left idle
        # the step gathers and multiplies these rows whole: keep them dense
        assert all(a.flags.c_contiguous for a in
                   (small.perm, small.pattern, small.rate, small.diagonal))
    if members > 1 and np.array_equal(mask[0], mask[1]):
        idx = np.flatnonzero(mask[0])
        both = h.reduced(idx)
        for r in range(members):
            assert np.array_equal(dense(both, t, r),
                                  full[r][np.ix_(idx, idx)])


def alone(h):
    """An operator built anew from the arrays of ``h``."""
    return EpochHamiltonian(h.diagonal, h.decay, h.perm, h.pattern, h.rate,
                            h.envelopes, h.peak)


# the envelopes of batched_epochs are square over (0, 1e-6): the first
# window sees them on, the second off, so a bound from reused samples of
# the first would be wrong in the second
WINDOWS = ((-0.2e-6, 0.7e-6), (1.5e-6, 2e-6), (-0.2e-6, 0.7e-6))


@pytest.mark.bits
@given(case=batched_epochs(), dead=st.booleans())
@settings(max_examples=100, deadline=None)
def test_reduced_operator_bounds_as_if_built_alone(atom, case, dead):
    # a reduced operator's bound and largest element must be those of the
    # same arrays alone, in every window, batched or not, with a family of
    # zero peak or not
    basis, events, anchors, decay_rate, support = case
    if dead:
        events[0] = replace(events[0], envelope=replace(events[0].envelope,
                                                        peak_rabi=0.0))
    h = compile_epoch(basis, events, atom, anchors, decay_rate)
    mask = h.active_mask(np.where(support, 0.5 - 0.25j, 0.0))
    for t0, t1 in WINDOWS:
        for r in range(len(support)):
            small = h.reduced(np.flatnonzero(mask[r]))
            lone = alone(small)
            assert identical(np.asarray(small.row_bound(t0, t1)),
                             np.asarray(lone.row_bound(t0, t1)))
            assert identical(np.asarray(small.max_element()),
                             np.asarray(lone.max_element()))
        assert identical(np.asarray(h.row_bound(t0, t1)),
                         np.asarray(alone(h).row_bound(t0, t1)))


@pytest.mark.bits
def test_reduced_operator_drops_a_tone_and_bounds_each_window(atom):
    # three tones on sine-squared envelopes of their own, a batch of 3
    # detunings on the first; member support at (A, 0) links A0-C2 and, by
    # the zero-peak third tone, A0-B0, so the reduced operator drops the
    # second tone (C4-B2) and keeps one dead family
    def tone(levels, dn, rung, peak, start, bias=0.0):
        return PulseEvent(
            envelope=PulseEnvelope(SINE_SQUARED, peak, start, 1e-6),
            polarization=PI_PAIR, axis="z", direction=1,
            channel=CHANNEL_RAMAN, levels=levels, delta_n=dn,
            target_rung=rung, reference_rung=rung, bias_detuning=bias)

    events = [tone((A, C), 2, 0, 2e5, 0.0, np.array([0.0, 1e3, -2e4])),
              tone((C, B), -2, 4, 7e5, 0.3e-6),
              tone((A, B), 0, 0, 0.0, 0.1e-6)]
    basis = Basis([A, B, C], range(-4, 5))
    h = compile_epoch(basis, events, atom, {C: (2, 0)})
    amps = np.zeros((3, len(basis)), dtype=np.complex128)
    amps[:, basis.index_of(RecoilState(A, 0))] = 1.0
    idx = np.flatnonzero(h.active_mask(amps)[0])
    small = h.reduced(idx)
    assert len(idx) == 3 and small.envelopes == (events[0].envelope,
                                                 events[2].envelope)
    bounds = []
    for t0, t1 in ((0.0, 1.3e-6), (0.5e-6, 0.6e-6), (0.0, 1.3e-6)):
        siblings = [h.reduced(idx) for _ in range(2)]
        bounds.append(siblings[0].row_bound(t0, t1))
        for op in siblings:
            assert identical(op.row_bound(t0, t1),
                             alone(op).row_bound(t0, t1))
            assert identical(op.max_element(), alone(op).max_element())
    assert not np.array_equal(bounds[0], bounds[1])
    assert np.array_equal(bounds[0], bounds[2])


def inverse_reduced(h, idx):
    """The oracle of ``h.reduced(idx)`` for any order of ``idx``: the
    arrays restricted to ``idx``, the families live there, and partners
    and block labels mapped through an inverse index over the whole
    lattice (-1 outside idx), refused where one falls outside."""
    inverse = np.full(h.diagonal.shape[-1], -1, dtype=np.int64)
    inverse[idx] = np.arange(len(idx))
    pattern = h.pattern[..., idx]
    live = (pattern != 0).any(axis=tuple(range(1, pattern.ndim)))
    perm, labels = inverse[h.perm[live][:, idx]], inverse[h.blocks()[idx]]
    if (perm < 0).any() or (labels < 0).any():
        raise ValueError("index set not a union of blocks")
    window, table, largest = h.samples
    return dict(diagonal=h.diagonal[..., idx], decay=h.decay[..., idx],
                perm=perm, pattern=pattern[live], rate=h.rate[live][..., idx],
                peak=h.peak[live], _blocks=labels,
                envelopes=tuple(e for e, on in zip(h.envelopes, live) if on),
                samples=(window, table[live], largest[live]))


@pytest.mark.bits
@given(case=batched_epochs(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_reduced_maps_an_ascending_union_of_blocks_as_its_oracle(
        atom, case, data):
    # drawn blocks, and the same less one state: reduced gives its
    # oracle's arrays, partners and block labels bit for bit, or refuses
    # where the oracle does, short of a block's label or of a state that
    # a live family couples; the first family may couple its pairs by a
    # zero pattern, so that it links blocks it never makes live; an index
    # set out of order or with a repeat is refused
    basis, events, anchors, decay_rate, _ = case
    h = compile_epoch(basis, events, atom, anchors, decay_rate)
    if data.draw(st.booleans()):
        h.pattern[0] = 0.0
    h.window_samples(0.0, 1e-6)
    labels = h.blocks()
    chosen = data.draw(st.lists(st.sampled_from(np.unique(labels).tolist()),
                                min_size=1, unique=True))
    idx = np.flatnonzero(np.isin(labels, chosen))
    for drop in [None] + idx.tolist():
        part = idx[idx != drop]
        try:
            want = inverse_reduced(h, part)
        except ValueError:
            assert drop is not None     # a union of blocks is kept
            with pytest.raises(ValueError, match="not a union of blocks"):
                h.reduced(part)
            continue
        small = h.reduced(part)
        for name, a in want.items():
            if isinstance(a, np.ndarray):
                assert identical(getattr(small, name), a), name
        assert small.envelopes == want["envelopes"]
        window, table, largest = small.samples
        assert window == want["samples"][0]
        assert identical(table, want["samples"][1])
        assert identical(largest, want["samples"][2])
    if len(idx) > 1:
        for disordered in (idx[::-1].copy(), np.repeat(idx, 2)):
            with pytest.raises(ValueError, match="not ascending"):
                h.reduced(disordered)


@pytest.mark.bits
def test_reduced_refuses_a_block_short_of_its_label():
    # states 0 and 1 are one block, linked by a family whose pattern is
    # zero there, so no live partner shows that state 1 lacks its block's
    # smallest state: its block label does
    n = 3
    h = EpochHamiltonian(np.zeros(n), np.zeros(n), np.array([[1, 0, 2]]),
                         np.zeros((1, n), dtype=np.complex128),
                         np.zeros((1, n)), (envelope(1.0),), np.ones(1))
    assert h.blocks().tolist() == [0, 0, 2]
    with pytest.raises(ValueError, match="not a union of blocks"):
        h.reduced(np.array([1, 2]))
    small = h.reduced(np.array([0, 1]))
    assert small.perm.shape == (0, 2) and small.blocks().tolist() == [0, 0]


@st.composite
def bound_cases(draw):
    """An operator of 1-3 families on 4 states, of which exactly one has a
    nonzero peak, unbatched or over 3 members, and a window starting at
    0.0, -0.0 or a drawn time; square envelopes may be off for all of it,
    and a family's pattern may be zero."""
    families = draw(st.integers(1, 3))
    members = draw(st.sampled_from([(), (3,)]))
    live = draw(st.integers(0, families - 1))
    t0 = draw(st.sampled_from([0.0, -0.0]) | st.floats(-2e-6, 2e-6))
    t1 = t0 + draw(st.floats(1e-9, 3e-6))
    values = st.floats(-1e7, 1e7, allow_subnormal=False)
    envelopes = []
    for f in range(families):
        # a square envelope may end before t0 or start after t1
        start = draw(st.floats(-5e-6, 5e-6))
        envelopes.append(PulseEnvelope(
            draw(st.sampled_from([SQUARE, SINE_SQUARED])),
            draw(st.floats(1.0, 1e9)) if f == live else 0.0, start,
            draw(st.floats(1e-9, 4e-6))))
    n = 4
    parts = 2 * families * n * (members[0] if members else 1)
    pattern = np.array(draw(st.lists(values, min_size=parts,
                                     max_size=parts))).view(
        np.complex128).reshape((families,) + members + (n,))
    if draw(st.booleans()):
        pattern[live] = 0.0
    diagonal = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    decay = np.array(draw(st.lists(st.floats(0.0, 1e6), min_size=n,
                                   max_size=n)))
    perm = np.tile(np.arange(n), (families, 1))
    h = EpochHamiltonian(diagonal, decay, perm, pattern,
                         np.zeros(pattern.shape), tuple(envelopes),
                         np.array([e.peak_rabi for e in envelopes]))
    return h, t0, t1


@pytest.mark.bits
@given(case=bound_cases())
@settings(max_examples=200, deadline=None)
def test_one_live_family_bound_is_the_window_bound(case):
    # an unbatched operator with one live family takes its bound from the
    # family's largest sample, a batched one sums the samples: both must
    # give _window_bound's bits, over the window's 257 samples
    h, t0, t1 = case
    diag_max, elem, _ = h._maxima()
    live = h.peak != 0
    samples = h.envelope_table(np.linspace(t0, t1, 257))[live]
    scales = elem[live] / h.peak[live].reshape((-1,) + (1,) * (elem.ndim - 1))
    expected = _window_bound(diag_max, scales[..., None], samples)
    summed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hamiltonian, "_window_bound",
                      lambda *args: summed.append(args) or
                      _window_bound(*args))
        assert identical(np.asarray(h.row_bound(t0, t1)),
                         np.asarray(expected))
    assert bool(summed) == (h.pattern.ndim > 2)
    # and so must a copy that takes the samples of another operator of the
    # same families, as the lattices of an epoch share them
    other = alone(h)
    other.samples = alone(h).window_samples(t0, t1)
    assert identical(np.asarray(other.row_bound(t0, t1)),
                     np.asarray(expected))


@pytest.mark.bits
@pytest.mark.parametrize("bias, shape", [
    (0.0, ()),                              # unbatched: one member
    (0.0, (3,)),                            # rows repeated over 3 members
    (np.linspace(-2e4, 2e4, 5), (5,)),      # a detuning scan, (F, B, n)
])
def test_phase_table_matches_the_per_time_formula_bit_for_bit(atom, bias,
                                                              shape):
    # the two tones of a split2d-like pulse, one per axis, in a frame
    # anchored off their rungs so the rates carry both signs
    events = [PulseEvent(envelope=PulseEnvelope(SQUARE, 2e5, 1e-3, 5e-6),
                         polarization=PI_PAIR, axis=axis, direction=1,
                         channel=CHANNEL_RAMAN, levels=(A, B), delta_n=2,
                         target_rung=rung, reference_rung=1,
                         bias_detuning=bias, phase=0.3)
              for axis, rung in (("z", -1), ("x", 0))]
    basis = Basis([A, B], range(-4, 5), range(-2, 3))
    h = compile_epoch(basis, events, atom, {B: (2, 1)})
    # laid out as _rk4 lays it out, member after member (an unbatched row
    # repeated for each), for one state or B: (F, B n)
    members = np.arange(shape[0] if shape else 1)
    rate = propagate._member_rows(h.rate, members, 1).reshape(2, -1)
    assert rate.shape == (2, len(members) * len(basis))
    assert (rate < 0).any() and (rate > 0).any()
    # every substage time of the epoch as the RK4 loop steps it
    t_start, duration, n_steps = 1e-3, 5e-6, 97
    dt = duration / n_steps
    t = t_start + np.arange(n_steps) * duration / n_steps
    times = np.concatenate([t, t + 0.5 * dt,
                            np.minimum(t + dt, t_start + duration)])
    out = np.empty(times.shape + rate.shape, dtype=np.complex128)
    assert propagate._phase_rows(rate, times, out) is out
    for time, row in zip(times.tolist(), out):
        assert identical(row, np.exp(1j * time * rate))


def anchor_cross_axis(plan, axis, cross_rung):
    """The per-arm frame gauge as a plan rewrite: every anchor of the plan
    moved onto the arm's cross-axis rung."""
    if cross_rung == 0:
        return plan
    return replace(plan, epochs=[
        replace(ep, anchors={
            level: (cross_rung, ax) if axis == "x" else (az, cross_rung)
            for level, (az, ax) in ep.anchors.items()})
        for ep in plan.epochs])


LADDER = build_adiabatic_sequence(3, 50e-9, 2 * math.pi * 100e6,
                                  start_rung=4, direction=-1)
RAMAN_X = build_raman_sequence("half_pi", 3, math.pi / 1e6, 1e6, "x",
                               start_rung=2)
TRANSFER = single_pulse_plan(copropagating_pulse(math.pi, 1e6, "c-a",
                                                 axis="x"))


@pytest.mark.bits
@pytest.mark.parametrize("plan, basis, axis, cross", [
    # a z ladder arm on x rung 7
    (LADDER, Basis([A, B, E1], range(-5, 8), (7,)), "z", 7),
    # an x Raman arm on z rung -50
    (RAMAN_X, Basis([A, C], (-50,), range(-12, 13)), "x", -50),
    # an anchor-free epoch, on an arm with a cross rung: no shift at all
    (TRANSFER, Basis([A, C], (3,), range(-4, 5)), "x", 3),
    # a ladder basis (x window (0,)): the builders' anchors as they are
    (LADDER, ladder_basis([A, B, E1], range(-4, 5)), "z", 0),
])
def test_compile_from_epoch_anchors_on_the_cross_rung(atom, plan, basis, axis,
                                                      cross):
    gauged = anchor_cross_axis(plan, axis, cross)
    for epoch, reference, tables in zip(
            plan.epochs, gauged.epochs,
            compile_plan(basis, plan.epochs, atom, 1e5)):
        h = compile_from_epoch(*tables)
        ref = compile_epoch(basis, reference.events, atom, reference.anchors,
                            1e5)
        for name in ("diagonal", "decay", "perm", "pattern", "rate", "peak"):
            assert identical(getattr(h, name), getattr(ref, name))
        assert h.envelopes == ref.envelopes
        if not epoch.anchors:
            assert identical(h.diagonal,
                             atom.recoil_frequency * basis.n_squared)
        if cross == 0:
            assert reference.anchors == epoch.anchors


@pytest.mark.bits
def test_a_plan_pass_assembles_each_epoch_as_compiled_alone(atom,
                                                            monkeypatch):
    # every operator that evolve_plan assembles from a plan pass, over small
    # runs of the four plans and the Ramsey closing pulse at seven
    # detunings, equals its epoch compiled alone, byte for byte; figure3
    # runs with decay, and the ladders grow their windows, so some epochs
    # come from a pass made after a growth
    compile_from, compile_pass = propagate.compile_from_epoch, \
        propagate.compile_plan
    extend = propagate._extend
    grown, seen = [], Counter()

    # each pass hands its lattice, epoch and arguments to the compile with
    # its tables
    def recording_pass(basis, epochs, *args):
        return ((basis, epoch, args, *tables) for epoch, tables in
                zip(epochs, compile_pass(basis, epochs, *args)))

    def checked_compile(basis, epoch, args, *tables):
        h = compile_from(*tables)
        alone = compile_from(*next(compile_pass(basis, [epoch], *args)))
        for name in ("perm", "pattern", "rate", "diagonal", "decay", "peak"):
            assert identical(getattr(h, name), getattr(alone, name)), name
        assert len(h.envelopes) == len(alone.envelopes)
        assert all(a is b for a, b in zip(h.envelopes, alone.envelopes))
        seen["epochs"] += 1
        seen["batched"] += h.pattern.ndim > 2
        seen["grown"] += any(basis is b for b in grown)
        seen["decay"] += bool(h.decay.any())
        return h

    def recording_extend(basis, amps):
        new_basis, new_amps = extend(basis, amps)
        grown.append(new_basis)
        return new_basis, new_amps

    monkeypatch.setattr(propagate, "compile_from_epoch", checked_compile)
    monkeypatch.setattr(propagate, "compile_plan", recording_pass)
    monkeypatch.setattr(propagate, "_extend", recording_extend)
    run_figure3(Figure3Params(n_pairs=4, decay_gamma_hz=1e6), atom)
    run_plan_1d_adiabatic(Plan1DParams(ladder_n=2, drift1_s=0.06), atom)
    run_plan_2d(Plan2DParams(p_pulses=4, p_reverse=8, q_pulses=4,
                             q_reverse=8, drift1_s=0.03), atom)
    ramsey = run_plan_ramsey(RamseyParams(ladder_n=1), atom)
    ramsey.pc_of(np.linspace(-2e3, 2e3, 7))
    assert seen["epochs"] == 69
    assert seen["batched"] == 1
    assert seen["grown"] > 0 and seen["decay"] > 0
