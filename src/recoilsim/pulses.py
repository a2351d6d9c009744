"""Pulse construction: envelopes, events, pairs, and executable sequences.

Two families of light pulses exist in this model:

* ``adiabatic_lambda`` -- travelling-wave circularly polarized beams on the
  z axis that couple one ground sublevel to the intermediate level with a
  single-photon recoil.  Pairs of them, counter-intuitively ordered, walk
  population down a momentum ladder two recoils at a time while the state
  stays dark.

* ``raman_effective`` -- far-detuned two-photon drives treated as effective
  two-level couplings between ground sublevels.  Counterpropagating legs
  transfer two recoils net, copropagating legs none.  Each drive is
  modelled as one event per synthesizer tone, resonant with exactly one
  momentum class; cross-tone driving is neglected (valid when the tones are
  spectrally resolved).

The chirp lives in each epoch's frame anchors and each tone's reference
rung: every sequence step re-anchors both on the momentum the atom is
predicted to have at that step (open-loop, like a pre-programmed frequency
ramp).  Disabling the chirp freezes them at the sequence's starting rung so
the Doppler ramp shows up as a real detuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import RecoilState
from .errors import ConfigurationError
from .params import InternalLevel

SINE_SQUARED = "sine_squared"
SQUARE = "square"

# Peak envelope value per unit rms Rabi frequency, where the rms is taken
# over the full 3T pair window (each beam is on for 2T of it).
RMS_TO_PEAK = {SINE_SQUARED: 2.0, SQUARE: math.sqrt(1.5)}

ADIABATIC_FLAG_THRESHOLD = 0.1

CHANNEL_LAMBDA = "adiabatic_lambda"
CHANNEL_RAMAN = "raman_effective"

SIGMA_PLUS = "sigma_plus"
SIGMA_MINUS = "sigma_minus"
PI_PAIR = "pi_pair"        # linear, copropagating or counterpropagating legs
SIGMA_PAIR = "sigma_pair"  # circular two-photon pair

# The polarization of a two-photon drive along each axis.
RAMAN_POLARIZATION = {"z": SIGMA_PAIR, "x": PI_PAIR}

# Which ground leg each circular polarization drives (quantization along +z:
# sigma+ raises m_F, reaching the intermediate m_F'=0 from B at m_F=-1).
SIGMA_LEG = {SIGMA_PLUS: InternalLevel.B, SIGMA_MINUS: InternalLevel.A}


def adiabaticity_parameter(rms_rabi: float, stagger: float) -> float:
    """Dimensionless figure of merit; transfer is adiabatic when << 1."""
    return 1.0 / (rms_rabi * stagger)


@dataclass(frozen=True)
class PulseEnvelope:
    shape: str
    peak_rabi: float  # rad/s
    start: float      # s
    duration: float   # s

    def __post_init__(self):
        if self.shape not in (SINE_SQUARED, SQUARE):
            raise ConfigurationError(f"unknown envelope shape {self.shape!r}")
        if not self.duration > 0:
            raise ConfigurationError("envelope duration must be positive")
        if self.peak_rabi < 0:
            raise ConfigurationError("peak Rabi frequency must be nonnegative")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def value(self, t):
        """The envelope at the time or array of times ``t``, zero outside
        the closed window.  Each element is the scalar formula: math.sin
        per element, since a SIMD np.sin may differ in the last bit.

        The C kernel's ``rk4_envelopes`` tabulates the operator envelopes
        with the same operations and libm's sin; this stays as its
        fallback and as the oracle it is checked against bit for bit."""
        t = np.asarray(t, dtype=np.float64)
        inside = (t >= self.start) & (t <= self.end)
        out = np.zeros(t.shape)
        if self.shape == SQUARE:
            out[inside] = self.peak_rabi
        else:
            x = (t[inside] - self.start) / self.duration
            s = np.array([math.sin(v) for v in (math.pi * x).tolist()])
            out[inside] = self.peak_rabi * s * s
        return out[()]


@dataclass(frozen=True)
class PulseEvent:
    """One beam (adiabatic channel) or one synthesizer tone (Raman channel)."""

    envelope: PulseEnvelope
    polarization: str
    axis: str
    direction: int
    channel: str
    # raman_effective fields:
    levels: tuple[InternalLevel, InternalLevel] | None = None
    delta_n: int = 0              # net recoil on `axis` for from -> to
    target_rung: int | None = None
    reference_rung: int | None = None  # rung the tone is actually tuned to
    # deliberate two-photon detuning (scan knob) and coupling phase; arrays
    # of one shape compile to a batch with one member per entry
    bias_detuning: float = 0.0    # rad/s
    phase: float = 0.0            # rad

    def __post_init__(self):
        if self.axis not in ("z", "x"):
            raise ConfigurationError("axis must be 'z' or 'x'")
        if self.direction not in (-1, +1):
            raise ConfigurationError("direction must be +1 or -1")
        if self.channel == CHANNEL_LAMBDA:
            if self.polarization not in (SIGMA_PLUS, SIGMA_MINUS):
                raise ConfigurationError(
                    "adiabatic channel pulses must be sigma polarized")
            if self.axis != "z":
                raise ConfigurationError(
                    "sigma polarizations only propagate along z in this geometry")
        elif self.channel == CHANNEL_RAMAN:
            if self.polarization not in (PI_PAIR, SIGMA_PAIR):
                raise ConfigurationError(
                    "raman_effective pulses must be pi_pair or sigma_pair")
            if self.levels is None or len(self.levels) != 2 or \
                    self.levels[0] is self.levels[1]:
                raise ConfigurationError(
                    "raman_effective pulses need two distinct levels")
            if self.delta_n not in (-2, 0, 2):
                raise ConfigurationError("two-photon recoil must be 0 or +-2")
            if self.delta_n != 0 and self.target_rung is None:
                raise ConfigurationError(
                    "momentum-changing raman pulse needs a target rung")
        else:
            raise ConfigurationError(f"unknown channel {self.channel!r}")


@dataclass(frozen=True)
class Epoch:
    """A time window with a fixed set of active events and one frame.

    ``anchors`` gives, per internal level, the (n_z, n_x) rung whose kinetic
    energy the rotating frame subtracts for that level; the targeted
    transition chain of the window then sits at zero diagonal.
    """

    t_start: float
    duration: float
    events: tuple[PulseEvent, ...]
    anchors: dict[InternalLevel, tuple[int, int]] = field(default_factory=dict)
    label: str = ""

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration


@dataclass(frozen=True)
class PulsePair:
    """One counter-intuitive pair: the leading beam, first of
    ``epoch.events``, couples the empty leg."""

    adiabatic: bool
    target: RecoilState
    epoch: Epoch


@dataclass
class SequencePlan:
    """Time-ordered pulse program plus its bookkeeping predictions."""

    epochs: list[Epoch]
    pairs: list[PulsePair] = field(default_factory=list)
    expected_final: dict = field(default_factory=dict)

    @property
    def total_duration(self) -> float:
        return max((ep.t_end for ep in self.epochs), default=0.0)


def single_pulse_plan(event: PulseEvent) -> SequencePlan:
    """A plan of one epoch that runs ``event`` alone, in the frame with
    no anchors."""
    return SequencePlan(epochs=[
        Epoch(event.envelope.start, event.envelope.duration, (event,))])


def counter_intuitive_pair(index: int, stagger: float, rms_rabi: float,
                           direction: int = -1, start_rung: int = 0,
                           anchor_rung: int | None = None,
                           t_start: float = 0.0,
                           shape: str = SINE_SQUARED) -> PulsePair:
    """Build the two counter-intuitively ordered beams of one ladder step.

    The pair transfers (pop_level, start_rung) to (target_level,
    start_rung + 2*direction) via the intermediate level.  Even-index pairs
    start from A with the sigma+ beam leading; odd ones start from B with
    sigma- leading.  Each beam lasts 2*stagger and the second starts one
    stagger after the first, so the pair occupies 3*stagger.  The frame is
    anchored on ``anchor_rung``, by default the chirped one, start_rung.
    """
    if not stagger > 0:
        raise ConfigurationError("stagger must be positive")
    if not rms_rabi > 0:
        raise ConfigurationError("rms Rabi frequency must be positive")
    if direction not in (-1, +1):
        raise ConfigurationError("direction must be +1 or -1")

    even = index % 2 == 0
    pop_level = InternalLevel.A if even else InternalLevel.B
    tgt_level = InternalLevel.B if even else InternalLevel.A
    lead_pol = SIGMA_PLUS if even else SIGMA_MINUS
    trail_pol = SIGMA_MINUS if even else SIGMA_PLUS

    target = RecoilState(tgt_level, start_rung + 2 * direction)

    peak = rms_rabi * RMS_TO_PEAK[shape]
    lead_env = PulseEnvelope(shape, peak, t_start, 2 * stagger)
    trail_env = PulseEnvelope(shape, peak, t_start + stagger, 2 * stagger)

    anchor = start_rung if anchor_rung is None else anchor_rung

    lead = PulseEvent(
        envelope=lead_env, polarization=lead_pol, axis="z",
        direction=-direction, channel=CHANNEL_LAMBDA,
    )
    trail = PulseEvent(
        envelope=trail_env, polarization=trail_pol, axis="z",
        direction=direction, channel=CHANNEL_LAMBDA,
    )

    a_rungs = {pop_level: (anchor, 0),
               InternalLevel.E1: (anchor + direction, 0),
               tgt_level: (anchor + 2 * direction, 0)}
    epoch = Epoch(t_start=t_start, duration=3 * stagger,
                  events=(lead, trail), anchors=a_rungs,
                  label=f"pair-{index}")

    xi = adiabaticity_parameter(rms_rabi, stagger)
    return PulsePair(adiabatic=xi <= ADIABATIC_FLAG_THRESHOLD,
                     target=target, epoch=epoch)


def build_adiabatic_sequence(n_pairs: int, stagger: float, rms_rabi: float,
                             start_rung: int = 0,
                             direction: int = -1, chirp: bool = True,
                             shape: str = SINE_SQUARED) -> SequencePlan:
    """Chain ``n_pairs`` counter-intuitive pairs into one deflection ramp,
    starting at time 0 (``shift_plan`` moves it).

    The deflected component ends at start_rung + 2*direction*n_pairs, in
    level A when n_pairs is even and B when odd.
    """
    if n_pairs < 1:
        raise ConfigurationError("need at least one pulse pair")
    pairs = []
    epochs = []
    rung = start_rung
    t = 0.0
    for j in range(n_pairs):
        pair = counter_intuitive_pair(
            j, stagger, rms_rabi, direction=direction, start_rung=rung,
            anchor_rung=rung if chirp else start_rung, t_start=t,
            shape=shape)
        pairs.append(pair)
        epochs.append(pair.epoch)
        rung += 2 * direction
        t += 3 * stagger

    final_level = InternalLevel.A if n_pairs % 2 == 0 else InternalLevel.B
    plan = SequencePlan(
        epochs=epochs,
        pairs=pairs,
        expected_final={"deflected": RecoilState(final_level, rung)},
    )
    return plan


def effective_pulse(area: float, omega_eff: float,
                    from_state: RecoilState, to_state: RecoilState,
                    axis: str, reference_rung: int | None = None,
                    bias_detuning: float = 0.0, phase: float = 0.0,
                    t_start: float = 0.0) -> PulseEvent:
    """One tone of a two-photon drive as an effective two-level coupling,
    tuned to ``reference_rung``, by default its own target rung."""
    if not area > 0:
        raise ConfigurationError("pulse area must be positive")
    if not omega_eff > 0:
        raise ConfigurationError("effective Rabi frequency must be positive")
    if from_state.level == to_state.level:
        raise ConfigurationError("effective pulse must change the internal level")
    dn = (to_state.n_z - from_state.n_z) if axis == "z" \
        else (to_state.n_x - from_state.n_x)
    cross = (to_state.n_x - from_state.n_x) if axis == "z" \
        else (to_state.n_z - from_state.n_z)
    if cross != 0:
        raise ConfigurationError("effective pulse cannot change the other axis")
    duration = area / omega_eff
    env = PulseEnvelope(SQUARE, omega_eff, t_start, duration)
    target = from_state.n_z if axis == "z" else from_state.n_x
    return PulseEvent(
        envelope=env, polarization=RAMAN_POLARIZATION.get(axis), axis=axis,
        direction=1 if dn >= 0 else -1, channel=CHANNEL_RAMAN,
        levels=(from_state.level, to_state.level), delta_n=dn,
        target_rung=target,
        reference_rung=target if reference_rung is None else reference_rung,
        bias_detuning=bias_detuning, phase=phase,
    )


def copropagating_pulse(area: float, omega_eff: float,
                        transition: str = "a-c", axis: str = "x",
                        t_start: float = 0.0) -> PulseEvent:
    """Momentum-preserving two-photon pulse (both legs travel together).

    Because the legs copropagate, every momentum class is resonant at once,
    so the returned event carries no target rung restriction.
    """
    pairs = {"a-c": (InternalLevel.A, InternalLevel.C),
             "c-a": (InternalLevel.C, InternalLevel.A)}
    if transition not in pairs:
        raise ConfigurationError(f"unknown copropagating transition {transition!r}")
    if not area > 0:
        raise ConfigurationError("pulse area must be positive")
    if not omega_eff > 0:
        raise ConfigurationError("effective Rabi frequency must be positive")
    duration = area / omega_eff
    env = PulseEnvelope(SQUARE, omega_eff, t_start, duration)
    return PulseEvent(
        envelope=env, polarization=RAMAN_POLARIZATION.get(axis), axis=axis,
        direction=+1, channel=CHANNEL_RAMAN, levels=pairs[transition],
        delta_n=0, target_rung=None, reference_rung=None,
    )


def _raman_tone_pair(a_rung: int, c_rung: int, d: int, omega_eff: float,
                     duration: float, axis: str, ref_a: int, ref_c: int,
                     t_start: float) -> tuple[PulseEvent, PulseEvent]:
    """The two tones of one momentum-stepping pi pulse.

    Tone 1 drives (A, a_rung) -> (C, a_rung + 2d); tone 2 drives
    (C, c_rung) -> (A, c_rung - 2d).  They run in parallel and momentum
    selection keeps their transitions disjoint.
    """
    area = omega_eff * duration
    tone1 = effective_pulse(
        area, omega_eff, _state(axis, InternalLevel.A, a_rung),
        _state(axis, InternalLevel.C, a_rung + 2 * d), axis,
        reference_rung=ref_a, t_start=t_start)
    tone2 = effective_pulse(
        area, omega_eff, _state(axis, InternalLevel.C, c_rung),
        _state(axis, InternalLevel.A, c_rung - 2 * d), axis,
        reference_rung=ref_c, t_start=t_start)
    return tone1, tone2


def build_raman_sequence(first: str, n_pulses: int, t_prime: float,
                         omega_eff: float, axis: str,
                         start_rung: int = 0, start_direction: int = +1,
                         half_pi_direction: int = -1, c_start_rung: int | None = None,
                         chirp: bool = True) -> SequencePlan:
    """Optional pi/2 splitter followed by direction-alternating pi pulses,
    starting at time 0 (``shift_plan`` moves them).

    With ``first='half_pi'`` the sequence starts from a single component in
    level A at ``start_rung``; otherwise the caller supplies both components
    (A at ``start_rung``, C at ``c_start_rung``).  Each pi pulse drives both
    Raman transitions in parallel, with a per-step frequency offset so both
    targeted pairs are two-photon resonant; alternating leg directions step
    the components apart four recoils per pulse pair.
    """
    if first not in ("half_pi", "none"):
        raise ConfigurationError("first must be 'half_pi' or 'none'")
    if n_pulses < 0:
        raise ConfigurationError("number of pi pulses must be nonnegative")
    if abs(omega_eff * t_prime - math.pi) > 1e-12:
        raise ConfigurationError(
            "pi-pulse condition violated: omega_eff * t_prime must equal pi "
            f"(got {omega_eff * t_prime!r})")
    if start_direction not in (-1, +1) or half_pi_direction not in (-1, +1):
        raise ConfigurationError("directions must be +1 or -1")

    epochs = []
    t = 0.0
    a_rung = start_rung

    if first == "half_pi":
        d0 = half_pi_direction
        c_rung = a_rung + 2 * d0
        ev = effective_pulse(math.pi / 2, omega_eff,
                             _state(axis, InternalLevel.A, a_rung),
                             _state(axis, InternalLevel.C, c_rung), axis,
                             t_start=t)
        anchors = {InternalLevel.A: _anchor(axis, a_rung),
                   InternalLevel.C: _anchor(axis, c_rung)}
        epochs.append(Epoch(t, t_prime / 2, (ev,), anchors, label="half-pi"))
        t += t_prime / 2
    else:
        if c_start_rung is None:
            raise ConfigurationError(
                "sequences without a splitter need the C component's rung")
        c_rung = c_start_rung

    ref_a0, ref_c0 = a_rung, c_rung
    d = start_direction
    for j in range(n_pulses):
        ref_a = a_rung if chirp else ref_a0
        ref_c = c_rung if chirp else ref_c0
        tone1, tone2 = _raman_tone_pair(
            a_rung, c_rung, d, omega_eff, t_prime, axis, ref_a, ref_c, t)
        if a_rung == c_rung - 2 * d:
            # The components' momentum paths cross here: both transitions
            # collapse onto one pair, so there is physically a single tone,
            # and its pi area swaps the two amplitudes in one stroke.
            tones = (tone1,)
        else:
            tones = (tone1, tone2)
        anchors = {InternalLevel.A: _anchor(axis, a_rung),
                   InternalLevel.C: _anchor(axis, a_rung + 2 * d)}
        epochs.append(Epoch(t, t_prime, tones, anchors,
                            label=f"pi-{j}"))
        a_rung, c_rung = c_rung - 2 * d, a_rung + 2 * d
        d = -d
        t += t_prime

    plan = SequencePlan(
        epochs=epochs,
        expected_final={"a_arm": _state(axis, InternalLevel.A, a_rung),
                        "c_arm": _state(axis, InternalLevel.C, c_rung)},
    )
    return plan


def _anchor(axis: str, rung: int) -> tuple[int, int]:
    return (rung, 0) if axis == "z" else (0, rung)


def _state(axis: str, level: InternalLevel, rung: int) -> RecoilState:
    return RecoilState(level, *_anchor(axis, rung))


def shift_plan(plan: SequencePlan, dt: float) -> SequencePlan:
    """Return a copy of the plan with all times offset by ``dt``."""
    return replace(plan, epochs=[
        replace(ep, t_start=ep.t_start + dt, events=tuple(
            replace(e, envelope=replace(e.envelope,
                                        start=e.envelope.start + dt))
            for e in ep.events))
        for ep in plan.epochs])
