"""Exception types shared across the package."""

__all__ = [
    "ContourStatError",
    "DegenerateContourError",
    "FocalDistributionError",
    "DegenerateVarianceError",
    "ParseError",
    "ManifestError",
]


class ContourStatError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateContourError(ContourStatError):
    """Point set too degenerate to carry shape information, or not finite."""


class FocalDistributionError(ContourStatError):
    """Top eigenvalue of the mean matrix is not (numerically) simple.

    The extrinsic mean is only defined when the averaged embedded matrix has a
    unique closest rank-one projector, which requires a simple largest
    eigenvalue.
    """


class DegenerateVarianceError(ContourStatError):
    """Studentizing variance of the test statistic vanished."""


class ParseError(ContourStatError):
    """A contour or mask file could not be read or used."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


class ManifestError(ContourStatError):
    """A sample manifest is malformed or one of its entries failed to load."""
