"""Exception types shared across the package."""


class ConsensusAdmmError(Exception):
    """Base class for all package-specific errors."""


class InvalidEdge(ConsensusAdmmError):
    """Edge references a missing node, is a self-loop, or is a duplicate."""


class Disconnected(ConsensusAdmmError):
    """Graph operation that needs reachability hit an unreachable pair."""


class ProtocolViolation(ConsensusAdmmError):
    """A round was run with no broadcast wave to deliver (nothing primed)."""


class NumericBreakdown(ConsensusAdmmError):
    """A denominator or kernel normalization fell below tolerance."""


class AlreadyFrozen(ConsensusAdmmError):
    """Termination counter cap was set twice on the same node."""


class NonIntegerResult(ConsensusAdmmError):
    """Round arithmetic that must produce an integer did not."""


class SolverFailure(ConsensusAdmmError):
    """Inner solver exhausted its iteration budget."""


class MaxIterations(ConsensusAdmmError):
    """Reference solver exhausted its iteration budget."""


class SchemaMismatch(ConsensusAdmmError):
    """CSV files handed to the comparator do not share a schema."""


class InsufficientData(ConsensusAdmmError):
    """Not enough usable points for a statistical probe."""


class ConfigError(ConsensusAdmmError):
    """Experiment configuration is invalid; message carries file:line."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")
