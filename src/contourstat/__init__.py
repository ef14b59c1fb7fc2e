"""Extrinsic statistical analysis of direct-similarity shapes of planar contours.

Pipeline: ingest closed contours (CSV point lists or PGM masks), canonicalize
and approximate them by k-gons at shared random stopping times, map the
resulting configurations to preshapes, and analyze the sample in complex
projective shape space through the Veronese-Whitney embedding: extrinsic mean
shapes, a one-sample neighborhood hypothesis test, and nonparametric
bootstrap confidence regions, with SVG figure output.

The public names are those of each module's ``__all__``.
"""

from . import bootstrap, contour, errors, inference, ingestion, shape_space, svg
from .bootstrap import *  # noqa: F401,F403
from .contour import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403
from .ingestion import *  # noqa: F401,F403
from .shape_space import *  # noqa: F401,F403
from .svg import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *contour.__all__,
    *shape_space.__all__,
    *inference.__all__,
    *bootstrap.__all__,
    *ingestion.__all__,
    *svg.__all__,
    *errors.__all__,
]
