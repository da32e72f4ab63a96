"""Exception taxonomy shared by all modules.

Exit-code mapping used by the CLI: ConfigurationError -> 2,
NumericFailure -> 3, OSError -> 4.
"""


class ConfigurationError(ValueError):
    """Invalid configuration or data: one line per violated rule, each with its assumption tag."""


def require(*rules: tuple[bool, str]) -> None:
    """Raise one ConfigurationError listing the message of every rule whose condition fails."""
    broken = [message for holds, message in rules if not holds]
    if broken:
        raise ConfigurationError("\n".join(broken))


class NumericFailure(RuntimeError):
    """An iterative solver failed to converge."""


class StepFailure(NumericFailure):
    """A single time step could not be completed."""


class RunFailure(NumericFailure):
    """A simulation aborted; carries the partial trajectory."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class MeanDomainError(ValueError):
    """Operand has nonzero mean where a zero-mean element is required."""
