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
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bootstrap import align_rotation, bootstrap_region
from .contour import (
    Contour,
    ParamCurve,
    StoppingTimes,
    _signed_area,
    canonicalize,
    evaluate,
    relative_length_error,
    select_stopping_times,
)
from .errors import ContourStatError
from .inference import (
    TestConfig,
    critical_radius,
    neighborhood_test,
    squared_shape_distance,
    studentizing_variance,
    tangent_offset,
)
from .ingestion import SampleManifest, load_sample, parse_manifest, read_contour, write_contour
from .shape_space import chord_distance, extrinsic_covariance, extrinsic_mean, preshape
from .svg import PathStyle, svg_render

__all__ = ["RunConfig", "main"]

MEAN_STYLE = PathStyle(stroke="#d62728", width=1.6)
BOOT_STYLE = PathStyle(stroke="#1f77b4", width=0.8, opacity=0.35)
PLAIN_STYLE = PathStyle(stroke="#444444", width=1.0, opacity=0.8)


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters for one CLI invocation."""

    command: str
    manifest: str
    out: str
    seed: int
    k: int
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
    manifest = parse_manifest(args.manifest)
    seed = manifest.seed if args.seed is None else args.seed
    k = manifest.k if args.k is None else args.k
    if args.command == "test" and args.delta is None and not args.solve_delta:
        raise ContourStatError("test needs --delta unless --solve-delta is given")
    if args.command == "test" and args.delta is not None and not args.delta > 0:
        raise ContourStatError("--delta must be positive")
    return RunConfig(
        command=args.command,
        manifest=args.manifest,
        out=args.out,
        seed=seed,
        k=k,
        B=getattr(args, "B", 400),
        alpha=getattr(args, "alpha", 0.05),
        delta=getattr(args, "delta", None),
        solve_delta=getattr(args, "solve_delta", False),
        m0=getattr(args, "m0", None),
        k_grid=tuple(
            int(s) for s in getattr(args, "k_grid", "").split(",") if s.strip()
        ),
        repeats=getattr(args, "repeats", 50),
    )


def _configured_manifest(config: RunConfig) -> SampleManifest:
    """Manifest with any --seed/--k overrides applied."""
    return replace(parse_manifest(config.manifest), seed=config.seed, k=config.k)


def _load(config: RunConfig):
    return load_sample(_configured_manifest(config))


def cmd_approx(config: RunConfig) -> None:
    """Approximation quality over a grid of k: length error and shape distance.

    For each contour, k, and repeat, a fresh set of stopping times is drawn
    from a substream keyed by (seed, k-index, repeat).  When k equals the
    contour's own vertex count the contour's vertex fractions are used (the
    k-gon is the contour itself), so the error row is exactly zero.
    """
    manifest = _configured_manifest(config)
    curves = [canonicalize(read_contour(path)) for _, path in manifest.entries]
    rows = []
    for ki, k in enumerate(config.k_grid):
        len_errs = []
        shape_sqs = []
        for rep in range(config.repeats):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=config.seed, spawn_key=(ki, rep))
            )
            for curve in curves:
                len_err, shape_sq = _approx_one(curve, k, rng)
                len_errs.append(len_err)
                shape_sqs.append(shape_sq)
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


def _approx_one(curve: ParamCurve, k: int, rng: np.random.Generator):
    ref_fracs = StoppingTimes(curve.cum_lengths[:-1] / curve.total_length)
    ref_points = curve.vertices
    if k == len(curve):
        times = ref_fracs
    else:
        times = select_stopping_times(k, rng)
    kgon = evaluate(curve, times)
    len_err = relative_length_error(curve.total_length, kgon)
    if _signed_area(kgon.points) < 0:
        # all stopping times fell on one concave arc, so the k-gon winds
        # clockwise; mirroring both configurations keeps arclengths and
        # chord distance but restores counterclockwise order; a k-gon of
        # zero area (all times on one straight run) is parameterized as is
        kgon = Contour(kgon.points.conj())
        ref_points = ref_points.conj()
    kgon_at_ref = evaluate(ParamCurve.from_vertices(kgon), ref_fracs)
    shape_sq = chord_distance(preshape(kgon_at_ref), preshape(ref_points)) ** 2
    return len_err, shape_sq


def cmd_mean(config: RunConfig) -> None:
    shapes, times = _load(config)
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
    m0_contour = read_contour(config.m0)
    if len(m0_contour) == times.k:
        return preshape(m0_contour)
    return preshape(evaluate(canonicalize(m0_contour), times))


def cmd_test(config: RunConfig) -> None:
    shapes, times = _load(config)
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
        mean, eigen = extrinsic_mean(shapes)
        cov = extrinsic_covariance(shapes, eigen)
        s = math.sqrt(studentizing_variance(tangent_offset(eigen, m0), cov))
        crit = critical_radius(shapes, m0, config.alpha)
        print(f"phi             {squared_shape_distance(mean, m0):.10g}")
        print(f"s_n             {s:.10g}")
        print(f"critical_delta  {crit:.10g}")
        print("decision        (no --delta given; reject exactly when delta < critical_delta)")


def cmd_bootstrap(config: RunConfig) -> None:
    shapes, times = _load(config)
    region = bootstrap_region(shapes, B=config.B, alpha=config.alpha, seed=config.seed)
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
    shapes, times = _load(config)
    out = Path(config.out) / "contours.svg"
    svg_render([(s, PLAIN_STYLE) for s in shapes], out)
    print(f"n  {len(shapes)}")
    print(f"k  {times.k}")
    print(f"wrote {out}")


if __name__ == "__main__":
    raise SystemExit(main())
