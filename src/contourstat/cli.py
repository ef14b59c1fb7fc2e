"""Command-line surface: approximation reports, mean shapes, tests, bootstrap, plots.

Subcommands
-----------
approx     mean/sd of relative length error and of squared shape distance per k
mean       extrinsic mean shape of a manifest sample (CSV + SVG)
test       one-sample neighborhood test against a hypothesized contour
bootstrap  bootstrap confidence region (summary CSV + overlay SVG)
plot       overlay of the preshaped sample contours

The full pipeline is deterministic: outputs are a pure function of the
manifest contents and the command-line options.  Domain failures (focal
spectra, degenerate variance, unreadable inputs, unwritable outputs) exit
with status 2 and a diagnostic on stderr; a completed test exits 0 whatever
its decision.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bootstrap import align_rotation, bootstrap_region
from .contour import Contour, StoppingTimes, canonicalize, evaluate
from .errors import ContourStatError
from .inference import critical_radius, neighborhood_test
from .ingestion import (
    MAX_K,
    SampleManifest,
    load_sample,
    parse_manifest,
    read_contour,
    read_curves,
    write_contour,
)
from .shape_space import approximation_errors, extrinsic_mean, preshape, register_vertex_order
from .svg import PathStyle, svg_render

# Not called here, but kept importable from this module: the benchmark's
# tracer (bench/tracing.py) wraps these names on it.
from .contour import relative_length_error, select_stopping_times  # noqa: F401
from .inference import (  # noqa: F401
    squared_shape_distance,
    studentizing_variance,
    tangent_offset,
)
from .shape_space import chord_distance, extrinsic_covariance  # noqa: F401

__all__ = ["main"]

MEAN_STYLE = PathStyle(stroke="#d62728", width=1.6)
BOOT_STYLE = PathStyle(stroke="#1f77b4", width=0.8, opacity=0.35)
PLAIN_STYLE = PathStyle(stroke="#444444", width=1.0, opacity=0.8)

# the most points a command may hold at once; traced peaks per point, 12 contours at
# k = 20,000: approx's k-gon vertices (--repeats x contours x the largest k) 50 bytes;
# the sample (contours x dimension) 25 in load_sample, 34 in plot, 49 in mean; and
# bootstrap's resampled mean coordinates (--B x dimension) 33 at k = 5,000, 136 at k = 8.
# Uncounted: one contour beside the sample in the sample commands, every canonical curve in approx
MAX_HELD_POINTS = 10_000_000


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        given = {key: val for key, val in vars(args).items() if key in ("seed", "k") and val is not None}
        manifest = replace(parse_manifest(args.manifest), **given)
        _check_holdings(args, manifest)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        handler = {
            "approx": cmd_approx,
            "mean": cmd_mean,
            "test": cmd_test,
            "bootstrap": cmd_bootstrap,
            "plot": cmd_plot,
        }[args.command]
        handler(args, manifest)
    except (ContourStatError, OSError) as err:
        # the readers turn their own OSErrors into ContourStatErrors: an
        # OSError here failed to create --out or to write a result into it
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

    # approx takes its k values from --k-grid and has no --k: without
    # allow_abbrev=False, argparse would read a --k as --k-grid
    p_approx = sub.add_parser("approx", help="k-gon approximation error report", allow_abbrev=False)
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
    for p in (p_mean, p_test, p_boot, p_plot):
        p.add_argument("--k", type=int, default=None, help="override the manifest k")
    return parser


def _check_options(args: argparse.Namespace) -> None:
    """Reject bad option values before the manifest is read; parse --k-grid in place."""
    if args.command == "test" and args.delta is None and not args.solve_delta:
        raise ContourStatError("test needs --delta unless --solve-delta is given")
    if args.command == "test" and args.delta is not None and args.solve_delta:
        raise ContourStatError("test takes --delta or --solve-delta, not both")
    if args.command == "test" and args.delta is not None and not args.delta > 0:
        raise ContourStatError(f"--delta must be positive, got {args.delta:g}")
    if "alpha" in args and not 0.0 < args.alpha < 1.0:
        raise ContourStatError(f"--alpha must lie in (0, 1), got {args.alpha:g}")
    if "B" in args and args.B < 50:
        raise ContourStatError(f"--B must be at least 50 resamples, got {args.B}")
    if "repeats" in args and args.repeats < 1:
        raise ContourStatError(f"--repeats must be at least 1, got {args.repeats}")
    if args.command == "approx":
        args.k_grid = _parse_k_grid(args.k_grid)


def _parse_k_grid(text: str) -> tuple[int, ...]:
    try:
        k_grid = tuple(int(token) for token in text.split(",") if token.strip())
    except ValueError:
        raise ContourStatError(f"--k-grid must list integers, got {text!r}") from None
    if not k_grid or min(k_grid) < 3:
        raise ContourStatError(f"--k-grid must list one or more k >= 3, got {text!r}")
    if max(k_grid) > MAX_K:
        raise ContourStatError(f"--k-grid values must be <= {MAX_K}, got {max(k_grid)}")
    return k_grid


def _check_holdings(args: argparse.Namespace, manifest: SampleManifest) -> None:
    """Reject a manifest the command cannot hold, before any contour is read."""
    n = len(manifest.entries)
    if args.command == "approx":
        k, r = max(args.k_grid), args.repeats
        _check_held(f"--repeats {r} x {n} contours x k {k}", r * n * k, "k-gon vertices")
        return
    if args.command in ("test", "bootstrap") and n < 2:
        raise ContourStatError(f"{args.command} needs at least 2 contours, the manifest lists {n}")
    # load_sample's dimension; a union is smaller only where two uniform draws coincide
    dim = manifest.k if manifest.strategy == "shared-times" else n * (manifest.k - 1) + 1
    _check_held(f"{n} contours x dimension {dim}", n * dim, "sample coordinates")
    if args.command == "bootstrap":
        _check_held(f"--B {args.B} x dimension {dim}", args.B * dim, "resampled mean coordinates")


def _check_held(factors: str, points: int, what: str) -> None:
    if points > MAX_HELD_POINTS:
        raise ContourStatError(f"{factors} = {points} {what}, more than the limit of {MAX_HELD_POINTS}")


def cmd_approx(args: argparse.Namespace, manifest: SampleManifest) -> None:
    """Approximation quality over a grid of k: length error and shape distance."""
    curves = read_curves(manifest)
    len_errs, shape_sqs = approximation_errors(curves, args.k_grid, args.repeats, manifest.seed)
    rows = [
        (k, float(np.mean(le)), float(np.std(le)), float(np.mean(sq)), float(np.std(sq)))
        for k, le, sq in zip(args.k_grid, len_errs, shape_sqs)
    ]
    out = Path(args.out) / "approx_report.csv"
    with open(out, "w", encoding="ascii") as report:
        report.write("k,mean_rel_len_err,sd_rel_len_err,mean_sq_shape_dist,sd_sq_shape_dist\n")
        report.writelines(f"{k},{m1:.10g},{s1:.10g},{m2:.10g},{s2:.10g}\n" for k, m1, s1, m2, s2 in rows)
    print(f"{'k':>6} {'len_err_mean':>14} {'len_err_sd':>12} {'shape_sq_mean':>14} {'shape_sq_sd':>12}")
    for k, m1, s1, m2, s2 in rows:
        print(f"{k:>6} {m1:>14.6g} {s1:>12.6g} {m2:>14.6g} {s2:>12.6g}")
    print(f"wrote {out}")


def cmd_mean(args: argparse.Namespace, manifest: SampleManifest) -> None:
    shapes, times = load_sample(manifest)
    mean, eigen = extrinsic_mean(shapes)
    out = Path(args.out)
    write_contour(Contour(mean.coords), out / "mean_shape.csv")
    svg_render([(mean, MEAN_STYLE)], out / "mean_shape.svg")
    print(f"n        {len(shapes)}")
    print(f"k        {times.k}")
    print(f"top_eig  {eigen.eigenvalues[0]:.10g}")
    print(f"gap      {eigen.gap:.10g}")
    print(f"wrote {out / 'mean_shape.csv'} and {out / 'mean_shape.svg'}")


def _hypothesis_shape(path: str, shapes, times: StoppingTimes):
    """Preshape the hypothesized contour in the sample's correspondence.

    A contour with exactly k vertices, such as a mean_shape.csv written by
    `contourstat mean`, keeps its vertices: of its k cyclic shifts and the k
    shifts of its reversal, the one nearest the sample's extrinsic mean is
    taken (register_vertex_order), so its start vertex and direction do not
    matter.  Any other contour is canonicalized and evaluated at the
    sample's stopping times.
    """
    try:
        m0_contour = read_contour(path)
        if len(m0_contour) != times.k:
            return preshape(evaluate(canonicalize(m0_contour), times))
        m0 = preshape(m0_contour)
    except ContourStatError as err:
        raise ContourStatError(f"--m0 {path}: {err}") from err
    return register_vertex_order(m0, extrinsic_mean(shapes)[0])


def cmd_test(args: argparse.Namespace, manifest: SampleManifest) -> None:
    shapes, times = load_sample(manifest)
    m0 = _hypothesis_shape(args.m0, shapes, times)
    print(f"n               {len(shapes)}")
    print(f"k               {times.k}")
    if args.delta is not None:
        result = neighborhood_test(shapes, m0, args.delta, args.alpha)
        print(f"delta           {args.delta:.10g}")
        print(f"phi             {result.squared_distance:.10g}")
        print(f"s_n             {result.std_error:.10g}")
        print(f"T_n             {result.statistic:.10g}")
        print(f"p_value         {result.p_value:.10g}")
        print(f"critical_delta  {result.critical_radius:.10g}")
        print(f"decision        {'reject' if result.reject else 'fail-to-reject'}")
    else:
        radius, phi, s = critical_radius(shapes, m0, args.alpha)
        print(f"phi             {phi:.10g}")
        print(f"s_n             {s:.10g}")
        print(f"critical_delta  {radius:.10g}")
        print("decision        (no --delta given; reject exactly when delta < critical_delta)")


def cmd_bootstrap(args: argparse.Namespace, manifest: SampleManifest) -> None:
    shapes, times = load_sample(manifest)
    region = bootstrap_region(shapes, B=args.B, alpha=args.alpha, seed=manifest.seed)
    out = Path(args.out)
    csv_path = out / "bootstrap_summary.csv"
    with open(csv_path, "w", encoding="ascii") as summary:
        summary.write(f"# B={args.B} alpha={args.alpha:.10g} radius={region.radius:.17g}\n")
        summary.write("resample,distance,included\n")
        rows = enumerate(zip(region.distances, region.included))
        summary.writelines(f"{i},{d:.17g},{int(inc)}\n" for i, (d, inc) in rows)
    overlay = [
        (align_rotation(bm, region.sample_mean), BOOT_STYLE)
        for bm, inc in zip(region.boot_means, region.included)
        if inc
    ]
    overlay.append((region.sample_mean, MEAN_STYLE))
    svg_render(overlay, out / "bootstrap_region.svg")
    print(f"n         {len(shapes)}")
    print(f"B         {args.B}")
    print(f"radius    {region.radius:.10g}")
    print(f"included  {int(region.included.sum())}")
    print(f"wrote {csv_path} and {out / 'bootstrap_region.svg'}")


def cmd_plot(args: argparse.Namespace, manifest: SampleManifest) -> None:
    shapes, times = load_sample(manifest)
    out = Path(args.out) / "contours.svg"
    svg_render([(s, PLAIN_STYLE) for s in shapes], out)
    print(f"n  {len(shapes)}")
    print(f"k  {times.k}")
    print(f"wrote {out}")


if __name__ == "__main__":
    raise SystemExit(main())
