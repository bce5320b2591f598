"""Exception types shared across the toolkit.

Argument/precondition violations raise plain ``ValueError``: they are bugs,
and the CLI lets them propagate.  The classes below cover conditions that
depend on the config, the input data or numerical behaviour; a failure that
user input can reach raises one of them where it starts, and the CLI maps
each to its own exit code.
"""


class ToolkitError(Exception):
    """Base class for toolkit-specific failures."""


class DataError(ToolkitError):
    """Malformed input files or domain violations in loaded data."""


class ImputationError(DataError):
    """A feature cannot be imputed (e.g. every cell is missing)."""


class ResampleError(DataError):
    """Oversampling impossible for the requested class (too few samples)."""


class ConvergenceError(ToolkitError):
    """An iterative numerical routine failed to converge."""


class ConfigError(ToolkitError):
    """Invalid configuration file, key, or override value."""
