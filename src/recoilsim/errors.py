"""Exception hierarchy.

The CLI maps these onto distinct exit codes, so every error raised by the
physics or plan layers should be (a subclass of) one of the classes below.
"""


class RecoilSimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(RecoilSimError):
    """Invalid parameters, schema violations, malformed configs."""


class NormalizationError(ConfigurationError):
    """Input data outside its declared range (caller must normalize first)."""


class PhysicsError(RecoilSimError):
    """A plan or pulse sequence violates a physical precondition."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class SelectivityError(PhysicsError):
    """A spatially selective pulse would illuminate more arms than intended."""


class AdiabaticityError(PhysicsError):
    """A plan was asked to run with pulses too fast to follow adiabatically."""


class IntegrationError(RecoilSimError):
    """Propagation step-size outside the stability bound."""


class NoFringeError(RecoilSimError):
    """Spectral analysis found no fringe peak above background."""
