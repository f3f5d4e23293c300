"""Exception hierarchy shared by all modules.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented process exit codes (2 configuration, 3 data format, 4 numerical).
"""


class HrsError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigurationError(HrsError):
    """Invalid parameters, dimension mismatches, or out-of-domain inputs."""

    exit_code = 2


class DataFormatError(HrsError):
    """Malformed, truncated, or corrupted serialized files."""

    exit_code = 3


class NumericalConsistencyError(HrsError):
    """An internal numerical contract was violated (likely a bug or a
    pathological input, never a user mistake)."""

    exit_code = 4


class FeasibilityError(ConfigurationError):
    """A partition cannot be served (more groups than antennas, an empty
    group), or a power setting lies outside its domain."""


class DegenerateInputError(NumericalConsistencyError):
    """Input matrix is numerically rank deficient where full rank is required."""


class CalibrationError(ConfigurationError):
    """Similarity standardization requested outside its domain, M <= N_k + N_j."""


class StratificationError(ConfigurationError):
    """A class is too small for a stratified train/validation/test split."""


class ResourceLimitError(ConfigurationError):
    """A combinatorial operation was requested beyond its guarded size."""


class NoFeasiblePartitionError(ConfigurationError):
    """Every candidate partition of an instance was infeasible."""
