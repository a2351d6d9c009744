"""Recoil-lattice simulator for large-angle atom interferometers."""

from .basis import (Basis, Observables, RecoilState, WaveFunction,
                    span_window)
from .errors import (AdiabaticityError, ConfigurationError, IntegrationError,
                     NoFringeError, NormalizationError, PhysicsError,
                     RecoilSimError, SelectivityError)
from .fringes import (CoherenceEnvelope, FringePattern, GridSpec, RamseyScan,
                      contrast, extract_spacing, ramsey_scan, synthesize)
from .hamiltonian import EpochHamiltonian, compile_plan, dark_state
from .interferometer import (ArmTrack, PlanResult, StageRecord, free_flight,
                             selective_transfer)
from .params import AtomParams, InternalLevel, rb87
from .patterngen import (encode, gear_silhouette, interfere, recover,
                         roundtrip)
from .plans import (Figure3Params, Figure3Result, Plan1DParams, Plan2DParams,
                    RamseyParams, RamseyResult, run_figure3,
                    run_plan_1d_adiabatic, run_plan_2d, run_plan_ramsey)
from .propagate import evolve_plan
from .pulses import (PulseEnvelope, PulseEvent, PulsePair, SequencePlan,
                     adiabaticity_parameter, build_adiabatic_sequence,
                     build_raman_sequence, counter_intuitive_pair,
                     copropagating_pulse, effective_pulse)

__version__ = "0.1.0"
