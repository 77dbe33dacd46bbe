"""Exception hierarchy shared across the package.

`mpflow.cli.EXIT_CODES` maps these onto process exit codes: ConfigError (any
ValueError) -> 2, NumericError -> 3, UnsupportedError -> 4,
VerificationError -> 5.
"""


class ConfigError(ValueError):
    """Invalid configuration: bad dimensions, unknown keys, malformed documents."""


class ParseError(ConfigError):
    """A serialized document violates the schema; message names the offending field."""


class NumericError(RuntimeError):
    """Non-finite arithmetic or numeric blow-up; carries the failing step when known."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class TrainingError(NumericError):
    """Training aborted on non-finite loss; keeps the last finite checkpoint."""

    def __init__(self, message, epoch=None, checkpoint=None):
        super().__init__(message, step=epoch)
        self.epoch = epoch
        self.checkpoint = checkpoint


class DecompositionError(NumericError):
    """Pairwise decomposition failed; carries the worst sample point and residual."""

    def __init__(self, message, worst_point=None, worst_residual=None):
        super().__init__(message)
        self.worst_point = worst_point
        self.worst_residual = worst_residual


class UnsupportedError(RuntimeError):
    """A requested operation lies outside the implemented constructions."""


class VerificationError(RuntimeError):
    """A model property check failed; message names the failing point."""
