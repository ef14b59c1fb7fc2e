"""In-memory span tracing around the calls one contourstat module makes into another.

:class:`Tracer` replaces module attributes (``cli.load_sample``,
``bootstrap.extrinsic_mean``, ``shape_space.eigensystem``, ...) with wrappers
that record a span per call: name, start, end, parent span, command id and a
few attributes.  Nothing in the package is edited; the wrappers are removed
when the traced block ends.  Spans stay in memory and are written out once,
by the caller, when the benchmark ends.

:func:`layer_metrics` turns one traced pass into the per-layer metrics.  A
span's self time is its duration minus the part of its interval that its
child spans cover (children on worker threads may overlap).
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: int | None
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _path_attrs(tracer, args):
    pixels = tracer.mask_pixels.get(str(Path(args[0]).resolve()))
    return None if pixels is None else {"pixels": pixels}


def _dim_attrs(tracer, args):
    m = args[0]
    return {"dim": int(getattr(m, "entries", m).shape[0])}


def _paths_attrs(tracer, args):
    return {"paths": len(args[0])}


# (module, attribute, span name, attribute extractor): every public function
# one module of the package calls in another, plus the spectral internals of
# shape_space that its own extrinsic_mean calls through module globals
_PATCHES = (
    ("cli", "parse_manifest", "ingestion.parse_manifest", None),
    ("cli", "load_sample", "ingestion.load_sample", None),
    ("cli", "read_contour", "ingestion.read_contour", _path_attrs),
    ("cli", "write_contour", "ingestion.write_contour", None),
    ("cli", "canonicalize", "contour.canonicalize", None),
    ("cli", "evaluate", "contour.evaluate", None),
    ("cli", "select_stopping_times", "contour.select_stopping_times", None),
    ("cli", "relative_length_error", "contour.relative_length_error", None),
    ("cli", "preshape", "shape_space.preshape", None),
    ("cli", "chord_distance", "shape_space.chord_distance", None),
    ("cli", "extrinsic_mean", "shape_space.extrinsic_mean", None),
    ("cli", "extrinsic_covariance", "shape_space.extrinsic_covariance", None),
    ("cli", "neighborhood_test", "inference.neighborhood_test", None),
    ("cli", "critical_radius", "inference.critical_radius", None),
    ("cli", "squared_shape_distance", "inference.squared_shape_distance", None),
    ("cli", "tangent_offset", "inference.tangent_offset", None),
    ("cli", "studentizing_variance", "inference.studentizing_variance", None),
    ("cli", "bootstrap_region", "bootstrap.bootstrap_region", None),
    ("cli", "align_rotation", "bootstrap.align_rotation", None),
    ("cli", "svg_render", "svg.render", _paths_attrs),
    ("ingestion", "read_contour", "ingestion.read_contour", _path_attrs),
    ("ingestion", "canonicalize", "contour.canonicalize", None),
    ("ingestion", "build_correspondence", "contour.build_correspondence", None),
    ("ingestion", "evaluate", "contour.evaluate", None),
    ("ingestion", "preshape", "shape_space.preshape", None),
    ("inference", "extrinsic_mean", "shape_space.extrinsic_mean", None),
    ("inference", "extrinsic_covariance", "shape_space.extrinsic_covariance", None),
    ("inference", "chord_distance", "shape_space.chord_distance", None),
    ("bootstrap", "resample_mean", "bootstrap.resample", None),
    ("bootstrap", "extrinsic_mean", "shape_space.extrinsic_mean", None),
    ("bootstrap", "chord_distance", "shape_space.chord_distance", None),
    ("shape_space", "mean_matrix", "shape_space.mean_matrix", None),
    ("shape_space", "eigensystem", "shape_space.eigensystem", _dim_attrs),
)


class Tracer:
    """Collects spans from wrapped package functions, on any thread."""

    def __init__(self, mask_pixels: dict | None = None):
        self.spans: list[Span] = []
        self.mask_pixels = mask_pixels or {}
        self.command: int | None = None
        # itertools.count.__next__ is one C call, so it is atomic under the GIL
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's outermost span belongs to whatever the main
            # thread is blocked in (the pool is run from inside that call)
            source = stack or tracer._main_stack
            parent = source[-1] if source else None
            sid = next(tracer._ids)
            info = attrs(tracer, args) if attrs else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, tracer.command, info))

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Swap the wrappers into ``modules`` (name -> module) for the block."""
        saved = []
        try:
            for mod_name, attr, span_name, attrs in _PATCHES:
                module = modules[mod_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span_name, attrs))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(children[s.id], s.start, s.end) for s in spans}


def layer_metrics(spans: list[Span], commands: dict[int, str], B: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass of the command sequence.

    ``commands`` maps command id to step name; bootstrap figures come from
    the serial ``bootstrap`` step, extrinsic-mean counts from ``solve-delta``.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
    step = {name: cid for cid, name in commands.items()}

    def self_s(name: str) -> float:
        return float(sum(own[s.id] for s in named[name]))

    def under(span: Span, ancestor_ids: set[int]) -> bool:
        parent = span.parent
        while parent is not None:
            if parent in ancestor_ids:
                return True
            parent = by_id[parent].parent if parent in by_id else None
        return False

    reads = [s for s in named["ingestion.read_contour"] if s.attrs]
    read_time = sum(s.duration for s in reads)
    eig = named["shape_space.eigensystem"]
    max_dim = max((s.attrs["dim"] for s in eig), default=0)

    resamples = [s for s in named["bootstrap.resample"] if s.command == step["bootstrap"]]
    resample_ids = {s.id for s in resamples}
    resample_ms = np.array([s.duration for s in resamples]) * 1e3
    eig_in_resamples = sum(own[s.id] for s in eig if under(s, resample_ids))
    attempts = sum(1 for s in named["shape_space.extrinsic_mean"] if s.parent in resample_ids)

    return {
        "ingestion.read_contour.self_s": self_s("ingestion.read_contour"),
        "ingestion.mask_pixels_per_s": (
            sum(s.attrs["pixels"] for s in reads) / read_time if reads else 0.0
        ),
        "ingestion.parse_manifest.calls": len(named["ingestion.parse_manifest"]),
        "contour.canonicalize.self_s": self_s("contour.canonicalize"),
        "contour.evaluate.self_s": self_s("contour.evaluate"),
        "contour.evaluate.calls": len(named["contour.evaluate"]),
        "shape_space.eigensystem.self_s": self_s("shape_space.eigensystem"),
        "shape_space.eigensystem.calls": len(eig),
        "shape_space.eigensystem.p50_ms": (
            statistics.median(s.duration for s in eig) * 1e3 if eig else 0.0
        ),
        "shape_space.eigensystem.max_dim": max_dim,
        "shape_space.mean_matrix.self_s": self_s("shape_space.mean_matrix"),
        "shape_space.extrinsic_covariance.self_s": self_s("shape_space.extrinsic_covariance"),
        "shape_space.dense_matrix_bytes": 16 * max_dim**2,
        "inference.extrinsic_mean.calls_per_command": sum(
            1 for s in named["shape_space.extrinsic_mean"] if s.command == step["solve-delta"]
        ),
        "bootstrap.resample.p50_ms": float(np.percentile(resample_ms, 50)),
        "bootstrap.resample.p95_ms": float(np.percentile(resample_ms, 95)),
        "bootstrap.resample.python_share": 1.0 - eig_in_resamples / (resample_ms.sum() / 1e3),
        "bootstrap.useful_ratio": B / attempts,
        "svg.render.self_s": self_s("svg.render"),
        "svg.paths": sum(s.attrs["paths"] for s in named["svg.render"]),
        "cli.self_s": self_s("cli"),
    }
