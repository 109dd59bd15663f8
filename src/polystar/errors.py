"""Exception types raised across the package."""


class PolystarError(Exception):
    """Base class for all package errors."""


class NoVacuumRadius(PolystarError):
    """The enthalpy never crossed zero before r_max (index outside the
    compact-support regime, or tolerances too loose)."""


class NonMonotone(PolystarError):
    """The enthalpy derivative is not strictly negative in the interior."""


class UnsupportedOrder(PolystarError):
    """Requested expansion or energy order exceeds what is implemented."""


class OutOfDomain(PolystarError):
    """Radial coordinate outside [0, R]."""


class InsufficientResolution(PolystarError):
    """Too few mesh nodes in the requested fit window."""


class ZeroVector(PolystarError):
    """Trial vector vanishes identically on the interior nodes."""


class ConvergenceFailure(PolystarError):
    """Eigensolver did not converge within its iteration budget."""


class StatePastVacuumCollapse(PolystarError):
    """The flow map degenerated (1+zeta <= 0 or J <= 0); the run must stop.

    rows lists the rows of a (B, N+1) block that failed the check which
    raised ([0] for a single state); other rows may fail a later check.
    """

    def __init__(self, message: str, rows=(0,)):
        super().__init__(message)
        self.rows = list(rows)


class WindowTooSmall(PolystarError):
    """Not enough samples inside the growth-fit window."""


class ExponentOutOfRange(PolystarError):
    """Weight exponent outside the valid branch of the inequality."""


class RateUnavailable(PolystarError):
    """No positive growth rate exists for the requested adiabatic exponent."""


class NonFiniteOutput(PolystarError):
    """A value bound for a JSON output is NaN or infinite, which JSON
    cannot represent."""


class ConfigError(PolystarError):
    """Invalid or unknown experiment configuration."""
