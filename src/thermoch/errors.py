"""Exception taxonomy shared by all modules.

One exception type per exit code of the CLI: ConfigurationError -> 2,
NumericFailure -> 3, OSError -> 4 (and a MemoryError -> 2, as a (2.11) line).
"""


class ConfigurationError(ValueError):
    """Invalid configuration or data, one line per fault: a broken rule's line carries its
    assumption tag; malformed text and an unknown section or key give an untagged line."""


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
