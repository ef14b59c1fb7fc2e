"""Command-line surface: approximation reports, mean shapes, tests, bootstrap, plots.

Subcommands
-----------
approx     mean/sd of relative length error and of squared shape distance per k
mean       extrinsic mean shape of a manifest sample (CSV + SVG)
test       one-sample neighborhood test against a hypothesized contour
bootstrap  bootstrap confidence region (summary CSV + overlay SVG)
plot       overlay of the preshaped sample contours

The full pipeline is deterministic: outputs are a pure function of the
manifest contents and the run configuration.  Domain failures (focal spectra,
degenerate variance, unreadable inputs) exit with status 2 and a diagnostic
on stderr; a completed test exits 0 whatever its decision.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bootstrap import align_rotation, bootstrap_region
from .contour import (
    Contour,
    ParamCurve,
    StoppingTimes,
    _cum_lengths,
    _interpolate,
    _require_polygons,
    _signed_area,
    _substream,
    canonicalize,
    evaluate,
    select_stopping_times,
)
from .errors import ContourStatError, DegenerateContourError
from .inference import TestConfig, _radius_at_level, _studentized_core, neighborhood_test
from .ingestion import (
    SampleManifest,
    _read_curves,
    load_sample,
    parse_manifest,
    read_contour,
    write_contour,
)
from .shape_space import _chord, _preshape_rows, extrinsic_mean, preshape
from .svg import PathStyle, svg_render

# Not called here, but kept importable from this module: the benchmark's
# tracer (bench/tracing.py) wraps these names on it.
from .contour import relative_length_error  # noqa: F401
from .inference import (  # noqa: F401
    critical_radius,
    squared_shape_distance,
    studentizing_variance,
    tangent_offset,
)
from .shape_space import chord_distance, extrinsic_covariance  # noqa: F401

__all__ = ["RunConfig", "main"]

MEAN_STYLE = PathStyle(stroke="#d62728", width=1.6)
BOOT_STYLE = PathStyle(stroke="#1f77b4", width=0.8, opacity=0.35)
PLAIN_STYLE = PathStyle(stroke="#444444", width=1.0, opacity=0.8)


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters for one CLI invocation."""

    command: str
    manifest: SampleManifest  # with the --seed/--k overrides applied
    out: str
    B: int = 400
    alpha: float = 0.05
    delta: float | None = None
    solve_delta: bool = False
    m0: str | None = None
    k_grid: tuple[int, ...] = ()
    repeats: int = 50


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        handler = {
            "approx": cmd_approx,
            "mean": cmd_mean,
            "test": cmd_test,
            "bootstrap": cmd_bootstrap,
            "plot": cmd_plot,
        }[config.command]
        handler(config)
    except ContourStatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contourstat",
        description="Extrinsic statistical analysis of planar contour shapes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--manifest", required=True, help="sample manifest file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the manifest seed")
        p.add_argument("--k", type=int, default=None, help="override the manifest k")

    p_approx = sub.add_parser("approx", help="k-gon approximation error report")
    common(p_approx)
    p_approx.add_argument(
        "--k-grid", default="50,100,200,400", help="comma-separated k values"
    )
    p_approx.add_argument("--repeats", type=int, default=50, help="seeded repeats per k")

    p_mean = sub.add_parser("mean", help="extrinsic mean shape")
    common(p_mean)

    p_test = sub.add_parser("test", help="neighborhood hypothesis test")
    common(p_test)
    p_test.add_argument("--m0", required=True, help="hypothesized mean contour file")
    p_test.add_argument("--delta", type=float, default=None, help="neighborhood radius")
    p_test.add_argument(
        "--solve-delta",
        action="store_true",
        help="solve for the largest radius at which the null is rejected",
    )
    p_test.add_argument("--alpha", type=float, default=0.05, help="asymptotic level")

    p_boot = sub.add_parser("bootstrap", help="bootstrap confidence region")
    common(p_boot)
    p_boot.add_argument("--B", type=int, default=400, help="number of resamples")
    p_boot.add_argument("--alpha", type=float, default=0.05, help="1 - confidence level")

    p_plot = sub.add_parser("plot", help="overlay the preshaped sample")
    common(p_plot)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    if args.command == "test" and args.delta is None and not args.solve_delta:
        raise ContourStatError("test needs --delta unless --solve-delta is given")
    if args.command == "test" and args.delta is not None and not args.delta > 0:
        raise ContourStatError("--delta must be positive")
    alpha = getattr(args, "alpha", 0.05)
    if not 0.0 < alpha < 1.0:
        raise ContourStatError(f"--alpha must lie in (0, 1), got {alpha:g}")
    B = getattr(args, "B", 400)
    if B < 50:
        raise ContourStatError(f"--B must be at least 50 resamples, got {B}")
    repeats = getattr(args, "repeats", 50)
    if repeats < 1:
        raise ContourStatError(f"--repeats must be at least 1, got {repeats}")
    k_grid = _parse_k_grid(args.k_grid) if args.command == "approx" else ()
    manifest = parse_manifest(args.manifest)
    return RunConfig(
        command=args.command,
        manifest=replace(
            manifest,
            seed=manifest.seed if args.seed is None else args.seed,
            k=manifest.k if args.k is None else args.k,
        ),
        out=args.out,
        B=B,
        alpha=alpha,
        delta=getattr(args, "delta", None),
        solve_delta=getattr(args, "solve_delta", False),
        m0=getattr(args, "m0", None),
        k_grid=k_grid,
        repeats=repeats,
    )


def _parse_k_grid(text: str) -> tuple[int, ...]:
    try:
        k_grid = tuple(int(token) for token in text.split(",") if token.strip())
    except ValueError:
        raise ContourStatError(f"--k-grid must list integers, got {text!r}") from None
    if not k_grid or min(k_grid) < 3:
        raise ContourStatError(f"--k-grid must list one or more k >= 3, got {text!r}")
    return k_grid


def cmd_approx(config: RunConfig) -> None:
    """Approximation quality over a grid of k: length error and shape distance.

    For each contour, k, and repeat, a fresh set of stopping times is drawn
    from a substream keyed by (seed, k-index, repeat).  When k equals the
    contour's own vertex count the contour's vertex fractions are used (the
    k-gon is the contour itself), so the error row is exactly zero.  The
    repeats of one contour and k are then evaluated together.
    """
    manifest = config.manifest
    curves = _read_curves(manifest)
    rows = []
    for ki, k in enumerate(config.k_grid):
        times = [[] for _ in curves]
        for rep in range(config.repeats):
            rng = _substream(manifest.seed, ki, rep)
            for curve_times, curve in zip(times, curves):
                if k == len(curve):
                    curve_times.append(curve.cum_lengths[:-1] / curve.total_length)
                else:
                    curve_times.append(select_stopping_times(k, rng).times)
        errs = np.array([_approx_rows(c, np.array(t)) for c, t in zip(curves, times)])
        # (contour, kind, repeat) -> per kind in draw order: repeat-major, contour-minor
        len_errs, shape_sqs = errs.transpose(1, 2, 0).reshape(2, -1)
        rows.append(
            (
                k,
                float(np.mean(len_errs)),
                float(np.std(len_errs)),
                float(np.mean(shape_sqs)),
                float(np.std(shape_sqs)),
            )
        )
    out = Path(config.out) / "approx_report.csv"
    header = "k,mean_rel_len_err,sd_rel_len_err,mean_sq_shape_dist,sd_sq_shape_dist"
    body = "\n".join(
        f"{k},{m1:.10g},{s1:.10g},{m2:.10g},{s2:.10g}" for k, m1, s1, m2, s2 in rows
    )
    out.write_text(header + "\n" + body + "\n", encoding="ascii")
    print(f"{'k':>6} {'len_err_mean':>14} {'len_err_sd':>12} {'shape_sq_mean':>14} {'shape_sq_sd':>12}")
    for k, m1, s1, m2, s2 in rows:
        print(f"{k:>6} {m1:>14.6g} {s1:>12.6g} {m2:>14.6g} {s2:>12.6g}")
    print(f"wrote {out}")


def _approx_rows(curve: ParamCurve, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative length error and squared shape distance of the k-gon at each row of times.

    Each k-gon is parameterized by its own arclength and evaluated at the
    contour's vertex fractions; the shape error is the squared chord distance
    from that configuration to the contour's vertices.  A k-gon that winds
    clockwise (all stopping times on one concave arc) is mirrored together
    with its reference, which keeps arclengths and chord distance but
    restores counterclockwise order; a k-gon of zero area (all times on one
    straight run) is parameterized as it is.
    """
    kgons = _interpolate(curve.cum_lengths[None], curve.vertices[None], times)
    _require_polygons(kgons)
    cum = _cum_lengths(kgons)  # mirroring keeps every edge length
    if np.any(np.diff(cum, axis=1) <= 0):
        raise DegenerateContourError("k-gon arclength is not strictly increasing")
    len_errs = (curve.total_length - cum[:, -1]) / curve.total_length
    clockwise = _signed_area(kgons) < 0
    kgons[clockwise] = kgons[clockwise].conj()
    ref_fracs = curve.cum_lengths[:-1] / curve.total_length
    # a configuration, not a contour: a zero-area k-gon maps reference
    # fractions f and 1 - f about its turning point to one point
    kgons_at_ref = _interpolate(cum, kgons, ref_fracs[None])
    ref, mirrored_ref = _preshape_rows(np.stack((curve.vertices, curve.vertices.conj())))
    shape_sqs = [
        _chord(g, mirrored_ref if cw else ref) ** 2
        for g, cw in zip(_preshape_rows(kgons_at_ref), clockwise)
    ]
    return len_errs, np.array(shape_sqs)


def cmd_mean(config: RunConfig) -> None:
    shapes, times = load_sample(config.manifest)
    mean, eigen = extrinsic_mean(shapes)
    out = Path(config.out)
    write_contour(Contour(mean.coords), out / "mean_shape.csv")
    svg_render([(mean, MEAN_STYLE)], out / "mean_shape.svg")
    print(f"n        {len(shapes)}")
    print(f"k        {times.k}")
    print(f"top_eig  {eigen.eigenvalues[0]:.10g}")
    print(f"gap      {eigen.gap:.10g}")
    print(f"wrote {out / 'mean_shape.csv'} and {out / 'mean_shape.svg'}")


def _hypothesis_shape(config: RunConfig, times: StoppingTimes):
    """Preshape the hypothesized contour in the sample's correspondence.

    A contour with exactly k vertices is taken to be in correspondence
    already (vertex j at stopping time j), which is the case for any
    mean_shape.csv written by `contourstat mean`; any other contour is
    canonicalized and evaluated at the sample's stopping times.
    """
    try:
        m0_contour = read_contour(config.m0)
        if len(m0_contour) == times.k:
            return preshape(m0_contour)
        return preshape(evaluate(canonicalize(m0_contour), times))
    except ContourStatError as err:
        raise ContourStatError(f"--m0 {config.m0}: {err}") from err


def _load_two_or_more(config: RunConfig):
    """The sample of a command that needs at least two contours (test, bootstrap)."""
    shapes, times = load_sample(config.manifest)
    if len(shapes) < 2:
        raise ContourStatError(
            f"{config.command} needs at least 2 contours, the manifest lists {len(shapes)}"
        )
    return shapes, times


def cmd_test(config: RunConfig) -> None:
    shapes, times = _load_two_or_more(config)
    m0 = _hypothesis_shape(config, times)
    print(f"n               {len(shapes)}")
    print(f"k               {times.k}")
    if config.delta is not None:
        result = neighborhood_test(shapes, m0, TestConfig(config.delta, config.alpha))
        print(f"delta           {config.delta:.10g}")
        print(f"phi             {result.squared_distance:.10g}")
        print(f"s_n             {result.std_error:.10g}")
        print(f"T_n             {result.statistic:.10g}")
        print(f"p_value         {result.p_value:.10g}")
        print(f"critical_delta  {result.critical_radius:.10g}")
        print(f"decision        {'reject' if result.reject else 'fail-to-reject'}")
    else:
        phi, s, n = _studentized_core(shapes, m0)
        print(f"phi             {phi:.10g}")
        print(f"s_n             {s:.10g}")
        print(f"critical_delta  {_radius_at_level(phi, s, n, config.alpha):.10g}")
        print("decision        (no --delta given; reject exactly when delta < critical_delta)")


def cmd_bootstrap(config: RunConfig) -> None:
    shapes, times = _load_two_or_more(config)
    region = bootstrap_region(
        shapes, B=config.B, alpha=config.alpha, seed=config.manifest.seed
    )
    out = Path(config.out)
    csv_path = out / "bootstrap_summary.csv"
    lines = [
        f"# B={config.B} alpha={config.alpha:.10g} radius={region.radius:.17g}",
        "resample,distance,included",
    ]
    for i, (d, inc) in enumerate(zip(region.distances, region.included)):
        lines.append(f"{i},{d:.17g},{int(inc)}")
    csv_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    overlay = [
        (align_rotation(bm, region.sample_mean), BOOT_STYLE)
        for bm, inc in zip(region.boot_means, region.included)
        if inc
    ]
    overlay.append((region.sample_mean, MEAN_STYLE))
    svg_render(overlay, out / "bootstrap_region.svg")
    print(f"n         {len(shapes)}")
    print(f"B         {config.B}")
    print(f"radius    {region.radius:.10g}")
    print(f"included  {int(region.included.sum())}")
    print(f"wrote {csv_path} and {out / 'bootstrap_region.svg'}")


def cmd_plot(config: RunConfig) -> None:
    shapes, times = load_sample(config.manifest)
    out = Path(config.out) / "contours.svg"
    svg_render([(s, PLAIN_STYLE) for s in shapes], out)
    print(f"n  {len(shapes)}")
    print(f"k  {times.k}")
    print(f"wrote {out}")


if __name__ == "__main__":
    raise SystemExit(main())
