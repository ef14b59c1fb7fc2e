"""Contour file I/O, binary-mask boundary extraction, and sample manifests.

Two input formats are supported, both read bit-exactly with numpy alone
(the connected components of a mask are counted over its row runs):

* CSV contours: one ``x,y`` decimal pair per line, vertices in order, closure
  implicit (a duplicated closing point is dropped).  The decimal separator is
  always ``.``.
* PGM masks (P5 binary or P2 ASCII): 0 is background, any nonzero value is
  foreground.  The mask must contain exactly one 8-connected foreground
  component; its boundary is traced with Moore-neighbor tracing (Jacob's
  stopping criterion, or the start pixel stepping to the second pixel again)
  from the top-most then left-most foreground pixel and reported
  counterclockwise.

A sample manifest is a plain text file, one directive per line::

    # lines starting with '#' are comments
    seed 42
    k 300
    correspondence shared-times
    contour ray01 data/ray01.csv
    contour ray02 data/ray02.pgm

Paths are resolved relative to the manifest file.  ``correspondence`` is
``shared-times`` (one set of k stopping times shared by every contour) or
``union-of-times`` (per-contour draws of k times, united).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contour import (
    Contour,
    ParamCurve,
    StoppingTimes,
    _signed_area,
    _substream,
    build_correspondence,
    canonicalize,
    evaluate,
)
from .errors import DegenerateContourError, ManifestError, MaskError, ParseError
from .shape_space import Preshape, preshape

__all__ = [
    "SampleManifest",
    "read_contour",
    "write_contour",
    "parse_manifest",
    "load_sample",
]

# ingestion-time point merging: closer than this fraction of the bounding-box
# diagonal counts as the same point
MERGE_TOL = 1e-12


def read_contour(path) -> Contour:
    """Read a contour from a PGM mask (a ``.pgm`` suffix, any case) or else a CSV point list."""
    p = Path(path)
    return _read_mask(p) if p.suffix.lower() == ".pgm" else _read_csv(p)


def write_contour(contour: Contour, path) -> None:
    """Write a contour as CSV with 17 significant digits (lossless round-trip)."""
    if not isinstance(contour, Contour):
        raise TypeError(f"expected a Contour, got {type(contour).__name__}")
    lines = [f"{z.real:.17g},{z.imag:.17g}" for z in contour.points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _read_csv(path: Path) -> Contour:
    try:
        text = path.read_text(encoding="ascii")
    except OSError as err:
        raise ParseError(path, None, f"cannot read file: {err}") from err
    except UnicodeDecodeError as err:
        raise ParseError(path, None, f"not an ASCII contour file: {err}") from err
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'x,y', got {raw!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as err:
            raise ParseError(path, lineno, f"bad coordinate in {raw!r}: {err}") from err
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(path, lineno, f"non-finite coordinate in {raw!r}")
        points.append(complex(x, y))
    if len(points) >= 2 and points[0] == points[-1]:
        points.pop()
    return _build_contour(np.asarray(points, dtype=np.complex128), path)


def _build_contour(points: np.ndarray, path: Path) -> Contour:
    merged = _merge_close_points(points)
    try:
        return Contour(merged)
    except DegenerateContourError as err:
        raise ParseError(path, None, str(err)) from err


def _merge_close_points(points: np.ndarray) -> np.ndarray:
    """Drop points closer than MERGE_TOL * bounding-box diagonal to their predecessor."""
    if len(points) == 0:
        return points
    span = math.hypot(
        float(points.real.max() - points.real.min()),
        float(points.imag.max() - points.imag.min()),
    )
    tol = MERGE_TOL * span
    kept = [points[0]]
    for z in points[1:]:
        if abs(z - kept[-1]) > tol:
            kept.append(z)
    while len(kept) > 1 and abs(kept[0] - kept[-1]) <= tol:
        kept.pop()
    return np.asarray(kept, dtype=np.complex128)


# ---------------------------------------------------------------------------
# PGM masks and Moore-neighbor boundary tracing


def _read_mask(path: Path) -> Contour:
    mask = _read_pgm(path)
    _require_single_component(mask, path)
    pixels = _trace_boundary(mask)
    if len(pixels) < 3:
        raise ParseError(path, None, f"mask boundary has only {len(pixels)} pixels")
    height = mask.shape[0]
    pts = np.array([complex(c, height - 1 - r) for r, c in pixels])
    # traversal direction depends on the tracer; normalize to counterclockwise,
    # keeping the scan-order start pixel first
    if _signed_area(pts) < 0:
        pts = np.concatenate((pts[:1], pts[1:][::-1]))
    return _build_contour(pts, path)


def _read_pgm(path: Path) -> np.ndarray:
    try:
        data = path.read_bytes()
    except OSError as err:
        raise ParseError(path, None, f"cannot read file: {err}") from err
    pos = 0

    def line_at(p: int) -> int:
        return data.count(b"\n", 0, p) + 1

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl + 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(path, line_at(start), "unexpected end of file in PGM header")
        return data[start:pos]

    magic = next_token()
    if magic not in (b"P2", b"P5"):
        raise ParseError(path, 1, f"not a PGM file (magic {magic!r}, expected P2 or P5)")
    dims = []
    for name in ("width", "height", "maxval"):
        tok = next_token()
        try:
            val = int(tok)
        except ValueError as err:
            raise ParseError(path, line_at(pos), f"bad PGM {name}: {tok!r}") from err
        if val <= 0:
            raise ParseError(path, line_at(pos), f"PGM {name} must be positive, got {val}")
        dims.append(val)
    width, height, maxval = dims
    if maxval > 65535:
        raise ParseError(path, line_at(pos), f"PGM maxval too large: {maxval}")
    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        bytes_per = 1 if maxval < 256 else 2
        need = width * height * bytes_per
        raster = data[pos : pos + need]
        if len(raster) != need:
            raise ParseError(
                path, None, f"P5 raster truncated: have {len(raster)} bytes, need {need}"
            )
        dtype = np.uint8 if bytes_per == 1 else np.dtype(">u2")
        values = np.frombuffer(raster, dtype=dtype)
        if np.any(values > maxval):
            raise ParseError(path, None, f"PGM sample exceeds maxval {maxval}")
    else:
        values = _p2_samples(data[pos:], width * height, maxval, path, line_at(pos))
    return values.reshape(height, width) != 0


# a '#' that starts a token runs to the end of its line; newlines stay, so
# line numbers in the stripped raster are those of the file
_P2_COMMENT = re.compile(rb"(?<!\S)#[^\n]*")


def _p2_samples(
    raster: bytes, need: int, maxval: int, path: Path, first_line: int
) -> np.ndarray:
    """The first ``need`` samples of a P2 raster, each checked to lie in 0..maxval."""
    text = _P2_COMMENT.sub(b"", raster) if b"#" in raster else raster
    tokens = text.split()[:need]
    if len(tokens) < need:
        raise ParseError(
            path, None, f"P2 raster truncated: have {len(tokens)} samples, need {need}"
        )
    try:
        values = np.array(tokens, dtype=np.int64)
        if values.min() >= 0 and values.max() <= maxval:
            return values
    except (ValueError, OverflowError):
        pass
    # error path only: name the first bad token and its line
    for tok, match in zip(tokens, re.finditer(rb"\S+", text)):
        try:
            value = int(tok)
        except ValueError:
            problem = f"bad P2 sample: {tok!r}"
        else:
            if 0 <= value <= maxval:
                continue
            problem = f"P2 sample {value} outside 0..{maxval}"
        line = first_line + text.count(b"\n", 0, match.start())
        raise ParseError(path, line, problem)
    raise AssertionError("unreachable: some P2 sample failed the vectorized check")


def _require_single_component(mask: np.ndarray, path: Path) -> None:
    count = _count_components(mask)
    if count == 0:
        raise MaskError(f"{path}: mask has no foreground pixels")
    if count > 1:
        raise MaskError(f"{path}: mask has {count} connected components; expected exactly 1")


def _count_components(mask: np.ndarray) -> int:
    """Number of 8-connected foreground components, by merging row runs.

    Runs of foreground pixels are found with one difference of the mask, each
    row followed by a background column.  A run [s, e) in row r touches the
    runs [s', e') of row r+1 with s' <= e and e' >= s; with the flat keys
    r * (cols + 1) + column those form one range, found by two searchsorted
    calls.  The run graph is merged by hooking the larger root of every edge
    to the smaller and then jumping pointers until every run points at its
    root, repeated until no edge joins two roots.
    """
    rows, cols = mask.shape
    width = cols + 1
    padded = np.zeros((rows, width), dtype=np.int8)
    padded[:, :cols] = mask
    step = np.diff(padded.ravel(), prepend=0)
    starts = np.flatnonzero(step == 1)
    ends = np.flatnonzero(step == -1)
    lo = np.searchsorted(ends, starts + width, side="left")
    hi = np.searchsorted(starts, ends + width, side="right")
    counts = np.maximum(hi - lo, 0)
    upper = np.repeat(np.arange(len(starts)), counts)
    first_edge = np.cumsum(counts) - counts
    lower = np.arange(len(upper)) + np.repeat(lo - first_edge, counts)
    parent = np.arange(len(starts))
    while True:
        a, b = parent[upper], parent[lower]
        apart = a != b
        if not apart.any():
            return int(np.count_nonzero(parent == np.arange(len(starts))))
        upper, lower, a, b = upper[apart], lower[apart], a[apart], b[apart]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


# Moore neighborhood in clockwise screen order (rows grow downward), from west
_MOORE = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))


def _trace_boundary(mask: np.ndarray) -> list[tuple[int, int]]:
    """Moore-neighbor boundary trace.

    Starts at the top-most then left-most foreground pixel, entered from the
    west (guaranteed background there).  Stops upon re-entering the start
    pixel from the same backtrack position (Jacob's criterion), or when the
    trace is at the start pixel and its next step goes to the trace's second
    pixel (the boundary-following stop of Gonzalez & Woods): the tip of a
    one-pixel-wide spur is never re-entered from the west.  Both stops close
    the same cycle where Jacob's criterion is met.  The mask is padded with
    one background pixel on every side and probed by flat index, so no probe
    needs a bounds check.
    """
    rows, cols = mask.shape
    width = cols + 2
    padded = np.zeros((rows + 2, width), dtype=np.uint8)
    padded[1:-1, 1:-1] = mask
    cells = padded.tobytes()
    offsets = [dr * width + dc for dr, dc in _MOORE]
    direction = {d: i for i, d in enumerate(offsets)}
    ring = offsets * 2  # ring[i] == offsets[i % 8] for i < 16
    fg_rows, fg_cols = np.nonzero(mask)
    r0 = int(fg_rows.min())
    start = (r0 + 1) * width + int(fg_cols[fg_rows == r0].min()) + 1
    start_back = start - 1

    boundary = [start]
    cur, back = start, start_back
    limit = 4 * len(fg_rows) + 8
    for _ in range(limit):
        bi = direction[back - cur]
        for i in range(bi + 1, bi + 9):
            nxt = cur + ring[i]
            if cells[nxt]:
                back = cur + ring[i - 1]
                break
        else:
            break  # isolated pixel
        if cur == start and len(boundary) > 1 and nxt == boundary[1]:
            boundary.pop()  # the start pixel, appended when the trace re-entered it
            break
        cur = nxt
        if cur == start and back == start_back:
            break
        boundary.append(cur)
    else:
        raise MaskError("boundary tracing did not terminate; mask is malformed")
    return [(i // width - 1, i % width - 1) for i in boundary]


# ---------------------------------------------------------------------------
# Manifests


@dataclass(frozen=True)
class SampleManifest:
    """Contour files plus the correspondence recipe used to preshape them."""

    entries: tuple[tuple[str, str], ...]  # (id, resolved path)
    strategy: str = "shared-times"
    k: int = 300
    seed: int = 0

    def __post_init__(self):
        if not self.entries:
            raise ManifestError("manifest lists no contours")
        ids = [e[0] for e in self.entries]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ManifestError(f"duplicate contour ids: {', '.join(dupes)}")
        if self.strategy not in ("shared-times", "union-of-times"):
            raise ManifestError(f"unknown correspondence strategy: {self.strategy!r}")
        if self.k < 3:
            raise ManifestError(f"k must be >= 3, got {self.k}")
        if self.seed < 0:
            raise ManifestError("seed must be a nonnegative integer")


def parse_manifest(path) -> SampleManifest:
    """Parse the plain-text manifest format described in the module docstring."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as err:
        raise ManifestError(f"cannot read manifest {p}: {err}") from err
    entries: list[tuple[str, str]] = []
    strategy = "shared-times"
    k = 300
    seed = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        directive = fields[0]
        if directive == "seed" and len(fields) == 2:
            try:
                seed = int(fields[1])
            except ValueError:
                raise ManifestError(f"{p}:{lineno}: bad seed {fields[1]!r}") from None
        elif directive == "k" and len(fields) == 2:
            try:
                k = int(fields[1])
            except ValueError:
                raise ManifestError(f"{p}:{lineno}: bad k {fields[1]!r}") from None
        elif directive == "correspondence" and len(fields) == 2:
            strategy = fields[1]
        elif directive == "contour" and len(fields) == 3:
            entries.append((fields[1], str((p.parent / fields[2]).resolve())))
        else:
            raise ManifestError(f"{p}:{lineno}: unrecognized directive {raw!r}")
    return SampleManifest(entries=tuple(entries), strategy=strategy, k=k, seed=seed)


def load_sample(manifest: SampleManifest) -> tuple[list[Preshape], StoppingTimes]:
    """Read, canonicalize, evaluate, and preshape every contour in the manifest.

    All contours are evaluated at one common set of stopping-time fractions
    chosen per the manifest's correspondence strategy and seed, so the
    returned preshapes share a dimension and a vertex correspondence.  Any
    per-file failure aborts with the offending entry id.
    """
    curves = _read_curves(manifest)
    times = build_correspondence(curves, manifest.strategy, manifest.k, _substream(manifest.seed))
    shapes = [preshape(evaluate(curve, times)) for curve in curves]
    return shapes, times


def _read_curves(manifest: SampleManifest) -> list[ParamCurve]:
    """Read and canonicalize every manifest contour; a failure names its entry id."""
    curves = []
    for cid, cpath in manifest.entries:
        try:
            curves.append(canonicalize(read_contour(cpath)))
        except (ParseError, MaskError, DegenerateContourError) as err:
            raise ManifestError(f"entry '{cid}': {err}") from err
    return curves
