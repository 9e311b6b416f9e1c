"""Exception hierarchy shared by all modules."""


class BanachScaleError(Exception):
    """Base class for all library errors."""


class DomainError(BanachScaleError, ValueError):
    """An argument lies outside the mathematically admissible domain."""


class ConfigurationError(BanachScaleError, ValueError):
    """A run configuration is malformed or inconsistent (CLI exit code 2)."""


class InfeasibleHorizonError(ConfigurationError):
    """The horizon slope does not exceed lambda0 (lambda1 for a family); exit code 4."""


class AdmissibilityError(BanachScaleError):
    """An iterate left the admissible ball around the initial datum."""


class ContractionViolationError(BanachScaleError):
    """Measured contraction ratio exceeded the certified bound plus slack.

    Signals that the declared constants are inconsistent with the actual
    operators, not a numerical failure of the iteration itself.
    """


class ModelValidationError(BanachScaleError, ValueError):
    """Model data violates a structural requirement (symmetry, sign, finiteness)."""


class OracleDomainError(BanachScaleError, ValueError):
    """An oracle was invoked outside the regime where it is exact."""
