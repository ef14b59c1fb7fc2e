"""Extrinsic statistical analysis of direct-similarity shapes of planar contours.

Pipeline: ingest closed contours (CSV point lists or PGM masks), canonicalize
and approximate them by k-gons at shared random stopping times, map the
resulting configurations to preshapes, and analyze the sample in complex
projective shape space through the Veronese-Whitney embedding: extrinsic mean
shapes, a one-sample neighborhood hypothesis test, and nonparametric
bootstrap confidence regions, with SVG figure output.
"""

from .bootstrap import BootstrapRegion, align_rotation, bootstrap_region, resample_mean
from .contour import (
    Contour,
    ParamCurve,
    StoppingTimes,
    build_correspondence,
    canonicalize,
    evaluate,
    relative_length_error,
    select_stopping_times,
    union_of_times,
)
from .errors import (
    ContourStatError,
    DegenerateContourError,
    DegenerateVarianceError,
    FocalDistributionError,
    ManifestError,
    MaskError,
    ParseError,
)
from .inference import (
    TestConfig,
    TestResult,
    critical_radius,
    neighborhood_test,
    squared_shape_distance,
    studentizing_variance,
    tangent_offset,
)
from .ingestion import (
    SampleManifest,
    load_sample,
    parse_manifest,
    read_contour,
    read_curves,
    write_contour,
)
from .shape_space import (
    DEFAULT_GAP_TOL,
    EigenSystem,
    ExtrinsicCovariance,
    Preshape,
    approximation_errors,
    chord_distance,
    eigensystem,
    extrinsic_covariance,
    extrinsic_mean,
    mean_matrix,
    preshape,
)
from .svg import PathStyle, svg_render

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # contour
    "Contour",
    "ParamCurve",
    "StoppingTimes",
    "canonicalize",
    "select_stopping_times",
    "evaluate",
    "relative_length_error",
    "build_correspondence",
    "union_of_times",
    # shape space
    "DEFAULT_GAP_TOL",
    "Preshape",
    "EigenSystem",
    "ExtrinsicCovariance",
    "preshape",
    "chord_distance",
    "mean_matrix",
    "eigensystem",
    "extrinsic_mean",
    "extrinsic_covariance",
    "approximation_errors",
    # inference
    "TestConfig",
    "TestResult",
    "squared_shape_distance",
    "tangent_offset",
    "studentizing_variance",
    "neighborhood_test",
    "critical_radius",
    # bootstrap
    "BootstrapRegion",
    "resample_mean",
    "bootstrap_region",
    "align_rotation",
    # ingestion
    "SampleManifest",
    "read_contour",
    "write_contour",
    "parse_manifest",
    "load_sample",
    "read_curves",
    # figures
    "PathStyle",
    "svg_render",
    # errors
    "ContourStatError",
    "DegenerateContourError",
    "FocalDistributionError",
    "DegenerateVarianceError",
    "ParseError",
    "MaskError",
    "ManifestError",
]
