"""Exception hierarchy shared by all modules."""


class BanachScaleError(Exception):
    """Base class for all library errors.

    Each type carries the CLI's outcome for it: ``cli.main`` prints
    ``f"{verdict}: {message}"`` to stderr and exits with ``exit_code``.
    ``field`` names the argument a refusal is about, as its owner calls it,
    or is None for a condition on several values.
    """
    exit_code = 2
    verdict = "error"

    def __init__(self, *args, field: str | None = None):
        super().__init__(*args)
        self.field = field


class DomainError(BanachScaleError, ValueError):
    """An argument lies outside the mathematically admissible domain."""
    verdict = "invalid configuration"


class ConfigurationError(BanachScaleError, ValueError):
    """A run configuration is malformed or inconsistent."""
    verdict = "invalid configuration"


class InfeasibleHorizonError(ConfigurationError):
    """The horizon slope does not exceed lambda0 (lambda1 for a family)."""
    exit_code = 4
    verdict = "infeasible horizon slope"


class AdmissibilityError(BanachScaleError):
    """An iterate left the admissible ball around the initial datum.

    The slope exceeds lambda0, so the certificate guarantees the ball: leaving
    it violates a certified bound.
    """
    exit_code = 5
    verdict = "bound violation"


class ContractionViolationError(BanachScaleError):
    """Measured contraction ratio exceeded the certified bound plus slack.

    Signals that the declared constants are inconsistent with the actual
    operators, not a numerical failure of the iteration itself.
    """
    exit_code = 3
    verdict = "contraction violation"


class ModelValidationError(BanachScaleError, ValueError):
    """Model data violates a structural requirement (symmetry, sign, finiteness)."""
    verdict = "invalid configuration"


class OracleDomainError(BanachScaleError, ValueError):
    """An oracle was invoked outside the regime where it is exact."""
