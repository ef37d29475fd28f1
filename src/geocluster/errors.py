"""The package's exception classes: one per CLI exit code.

Every failure the package raises on purpose is a `DataError` (bad input:
files, out-of-range parameters, mismatched shapes; exit 3) or a
`NumericalError` (a solver or the generator's calibration did not succeed;
exit 4). The message says what went wrong; no subclass tells cases apart,
so this module is the only one that defines exception classes.
"""


class GeoclusterError(Exception):
    """Base class for all errors raised by this package."""


class DataError(GeoclusterError):
    """Invalid inputs: bad files, out-of-range parameters, mismatched shapes."""


class NumericalError(GeoclusterError):
    """A numerical procedure failed to converge or calibrate."""
