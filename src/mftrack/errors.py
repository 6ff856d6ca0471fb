"""Exception hierarchy shared by all modules.

Each error carries the process exit code the CLI maps it to.
"""


class TrackerError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class InputError(TrackerError):
    """Malformed, inconsistent, or out-of-order input data."""

    exit_code = 2


class ParseError(InputError):
    """A text input file failed to parse; message carries the line number."""


class SequencingError(InputError):
    """Frames were fed to the engine out of order."""


class HistogramShapeError(InputError):
    """Two histograms of different lengths were compared, or a file row
    carried a histogram that is neither n bins nor 768 raw bins."""


class ConfigError(TrackerError):
    """Invalid configuration value or unknown config key."""

    exit_code = 3


class MetricError(TrackerError):
    """An evaluation metric is undefined for the given inputs."""


class MeasurementError(TrackerError):
    """Throughput measurement over a zero or negative elapsed time."""


class NumericOverflowError(InputError):
    """A filter update produced a non-finite value: the input drove the
    filter past the range of a float."""
