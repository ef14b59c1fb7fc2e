"""Contour file I/O, binary-mask boundary extraction, and sample manifests.

Two input formats are supported, both read bit-exactly with numpy alone
(the connected components of a mask are counted over its row runs):

* CSV contours: one ``x,y`` decimal pair per line, vertices in order, closure
  implicit (a duplicated closing point is dropped).  The decimal separator is
  always ``.``.
* PGM masks (P5 binary or P2 ASCII): 0 is background, any nonzero value is
  foreground.  The mask must contain exactly one 8-connected foreground
  component; its boundary is traced with Moore-neighbor tracing (stopping
  when the start pixel steps to the second pixel again) from the top-most
  then left-most foreground pixel and reported counterclockwise.

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
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .contour import (
    Contour,
    ParamCurve,
    StoppingTimes,
    _require_finite,
    _signed_area,
    _substream,
    build_correspondence,
    canonicalize,
    evaluate,
)
from .errors import ContourStatError, DegenerateContourError, ManifestError, ParseError
from .shape_space import Preshape, preshape

__all__ = [
    "SampleManifest",
    "read_contour",
    "write_contour",
    "parse_manifest",
    "load_sample",
    "read_curves",
]

# ingestion-time point merging: closer than this fraction of the bounding-box
# diagonal counts as the same point
MERGE_TOL = 1e-12

# the largest k a manifest, --k or --k-grid may ask for: far beyond any useful
# resolution, and small enough that k points per contour can be allocated
MAX_K = 1_000_000


def read_contour(path) -> Contour:
    """Read a contour from a PGM mask (a ``.pgm`` suffix, any case) or else a CSV point list."""
    p = Path(path)
    return _read_mask(p) if p.suffix.lower() == ".pgm" else _read_csv(p)


def write_contour(contour: Contour, path) -> None:
    """Write a contour as CSV with 17 significant digits (lossless round-trip)."""
    if not isinstance(contour, Contour):
        raise TypeError(f"expected a Contour, got {type(contour).__name__}")
    with open(path, "w", encoding="ascii") as out:
        out.writelines(f"{z.real:.17g},{z.imag:.17g}\n" for z in contour.points)


# characters of input whose tokens exist as Python objects at once
_CHUNK = 1 << 20
_LINE_END = re.compile("\n")


def _chunks(data, start: int, cut: re.Pattern):
    """Spans (pos, end) that tile ``data[start:]``, each about ``_CHUNK`` long.

    A span ends at the first match of ``cut`` at least ``_CHUNK`` past its
    start, so a separator that ``cut`` matches never falls inside a token.
    """
    pos = start
    while pos < len(data):
        match = cut.search(data, pos + _CHUNK)
        end = len(data) if match is None else match.start()
        yield pos, end
        pos = end


def _read_csv(path: Path) -> Contour:
    try:
        text = path.read_text(encoding="ascii")
    except OSError as err:
        raise ParseError(path, None, f"cannot read file: {err}") from err
    except UnicodeDecodeError as err:
        raise ParseError(path, None, f"not an ASCII contour file: {err}") from err
    chunks = [np.empty(0)]
    for pos, end in _chunks(text, 0, _LINE_END):
        rows = list(filter(None, map(str.strip, text[pos:end].splitlines())))
        try:
            xy = np.array([*map(float, ",".join(rows).split(","))] if rows else [])
        except ValueError:
            break
        if not (set(map(str.count, rows, repeat(","))) <= {1} and np.isfinite(xy).all()):
            break
        chunks.append(xy)
    else:
        return _build_contour(np.concatenate(chunks).view(np.complex128), path)
    # error path only: name the first bad line
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
    raise AssertionError("unreachable: some CSV line failed the one-pass check")


def _build_contour(points: np.ndarray, path: Path) -> Contour:
    try:
        _require_finite(points)  # before the bounding box of the merge can overflow
        return Contour(_merge_close_points(points))
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
    # no loop when every gap, the closing one included, clears tol by more than np.abs rounds
    if (np.abs(np.diff(points, append=points[:1])) > 2.0 * tol).all():
        return points
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
    cells = _read_pgm(path)
    count = _count_components(cells)
    if count == 0:
        raise ParseError(path, None, "mask has no foreground pixels")
    if count > 1:
        raise ParseError(path, None, f"mask has {count} connected components; expected exactly 1")
    flat = np.array(_trace_boundary(cells))
    rows, width = cells.shape
    pts = (flat % width - 1) + 1j * (rows - 2 - flat // width)  # pixel (r, c) at (c, height-1-r)
    # to counterclockwise, the start pixel kept first: every trace of nonzero area of 35,049
    # random one-component 6 x 6 masks ran clockwise, and a zero-area one keeps its order
    if _signed_area(pts) < 0:
        pts = np.concatenate((pts[:1], pts[1:][::-1]))
    return _build_contour(pts, path)


# a header token, after the whitespace and '#' comments (each to the end of
# its line) before it; empty at the end of the file
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _read_pgm(path: Path) -> np.ndarray:
    """The mask as int8 cells: foreground 1, inside a one-cell background border.

    Pixel (r, c) is ``cells[r + 1, c + 1]``; the component count and the trace pad no copy.
    """
    try:
        data = path.read_bytes()
    except OSError as err:
        raise ParseError(path, None, f"cannot read file: {err}") from err
    pos = 0

    def line_at(p: int) -> int:
        return data.count(b"\n", 0, p) + 1

    def next_token() -> bytes:
        nonlocal pos
        match = _PGM_TOKEN.match(data, pos)
        pos = match.end()
        if not match[1]:
            raise ParseError(path, line_at(pos), "unexpected end of file in PGM header")
        return match[1]

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
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        need = width * height * dtype.itemsize
        have = max(len(data) - pos, 0)
        if have < need:
            raise ParseError(path, None, f"P5 raster truncated: have {have} bytes, need {need}")
        values = np.frombuffer(data, dtype, count=width * height, offset=pos)
        if values.max() > maxval:
            raise ParseError(path, None, f"PGM sample exceeds maxval {maxval}")
    else:
        values = _p2_samples(data, pos, width * height, maxval, path)
    cells = np.zeros((height + 2, width + 2), dtype=np.int8)
    np.not_equal(values.reshape(height, width), 0, out=cells[1:-1, 1:-1])
    return cells


# a '#' that starts a token runs to the end of its line; newlines stay, so
# line numbers in the stripped raster are those of the file
_P2_COMMENT = re.compile(rb"(?<!\S)#[^\n]*")
_P2_TOKEN = re.compile(rb"\S+")
_P2_SPACE = re.compile(rb"\s")
# the ASCII digits and the six whitespace bytes that bytes.split() splits at
_P2_PLAIN = b"0123456789 \t\n\r\x0b\x0c"


def _p2_samples(data: bytes, start: int, need: int, maxval: int, path: Path) -> np.ndarray:
    """The first ``need`` samples of the P2 raster at ``data[start:]``, each in 0..maxval.

    The raster is cut into :func:`_chunks` at whitespace, and the chunks are
    converted one at a time, so at most one chunk's tokens exist as Python
    objects at once.  A chunk of plain digits and whitespace is parsed by one
    C-level call, in which an over-long token saturates above maxval; any
    other chunk is converted token by token.  The samples are counted before
    any is judged: a truncated raster is reported as such, whatever it holds.
    """
    if data.find(b"#", start) >= 0:
        data = data[:start] + _P2_COMMENT.sub(b"", data[start:])
    # n samples take at least 2n - 1 bytes: a header that claims more than the
    # raster can hold gets no more room than that, and is reported truncated below
    room = min(need, (len(data) - start + 1) // 2)
    values = np.empty(room, dtype=np.uint8 if maxval < 256 else np.uint16)
    have = 0
    bad = None  # (chunk start, chunk end) of the first chunk with a bad sample
    for pos, end in _chunks(data, start, _P2_SPACE):
        if have == need:
            break
        text = data[pos:end]
        if text.translate(None, _P2_PLAIN):  # a sign, a letter or another byte
            tokens = text.split()[: need - have]
        else:  # a blank chunk holds no sample, where np.fromstring reads a 0
            tokens = () if text.isspace() else np.fromstring(text, np.int64, sep=" ")[: need - have]
        if bad is None and len(tokens):
            try:
                chunk = np.asarray(tokens, dtype=np.int64)
                if chunk.min() >= 0 and chunk.max() <= maxval:
                    values[have : have + len(tokens)] = chunk
                else:
                    bad = (pos, end)
            except (ValueError, OverflowError):
                bad = (pos, end)
        have += len(tokens)
    if have < need:
        raise ParseError(path, None, f"P2 raster truncated: have {have} samples, need {need}")
    if bad is None:
        return values
    # error path only: name the first bad token and its line
    for match in _P2_TOKEN.finditer(data, *bad):
        tok = match.group()
        try:
            value = int(tok)
        except ValueError:
            problem = f"bad P2 sample: {tok!r}"
        else:
            if 0 <= value <= maxval:
                continue
            problem = f"P2 sample {value} outside 0..{maxval}"
        raise ParseError(path, data.count(b"\n", 0, match.start()) + 1, problem)
    raise AssertionError("unreachable: some P2 sample failed the vectorized check")


def _count_components(cells: np.ndarray) -> int:
    """Number of 8-connected foreground components of :func:`_read_pgm`'s cells, by row runs.

    The border ends every foreground run in its row, so the runs [s, e) are
    where the flat cells differ from themselves shifted by one (each found one
    cell early, which the searches do not see).  A run in row r touches the
    runs [s', e') of row r+1 with s' <= e + width and e' >= s + width: one
    range, found by two searchsorted calls.  The run graph is merged by hooking
    the larger root of every edge to the smaller and then jumping pointers
    until every run points at its root, repeated until no edge joins two roots.
    """
    flat, width = cells.ravel(), cells.shape[1]
    starts = np.flatnonzero(flat[1:] > flat[:-1])
    ends = np.flatnonzero(flat[1:] < flat[:-1])
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


def _trace_boundary(cells: np.ndarray) -> list[int]:
    """Moore-neighbor boundary trace, as flat indices into :func:`_read_pgm`'s cells.

    The cells must hold a foreground pixel; their argmax, the top-most then
    left-most, starts, entered from the west.  The trace stops at the start
    pixel when its next step goes to the second pixel (Gonzalez & Woods), which always happens:
    1. After the first step, the backtrack is the ring cell scanned just before
       the pixel, so 4-adjacent to it: a state is a (foreground pixel,
       background 4-neighbour), at most 4 per pixel.
    2. A state fixes the pixel before it: of the two cells beside the edge
       (backtrack, pixel) on the scanned side, the one diagonal to the pixel
       if foreground, else the other.  Of that pixel's candidate backtracks,
       only the first of a run of background 4-neighbours has a foreground
       predecessor, so two states after the first never step to one state.
    3. So the states from the second on form one cycle, at most 4 per boundary
       pixel; the state before the second is at the start pixel and steps to
       the second pixel, where the stop fires.  The start state can lie off the
       cycle (a two-pixel mask), so Jacob's criterion, re-entering the start
       pixel from the west, can fail: it does at a one-pixel-wide spur's tip.
    """
    width = cells.shape[1]
    probe = cells.tobytes()  # probed by flat index: the border needs no bounds check
    offsets = [dr * width + dc for dr, dc in _MOORE]
    direction = {d: i for i, d in enumerate(offsets)}
    ring = offsets * 2  # ring[i] == offsets[i % 8] for i < 16
    start = int(cells.argmax())

    boundary = [start]
    cur, back = start, start - 1  # entered from the west
    while True:
        bi = direction[back - cur]
        for i in range(bi + 1, bi + 9):
            nxt = cur + ring[i]
            if probe[nxt]:
                back = cur + ring[i - 1]
                break
        else:
            break  # isolated pixel
        if cur == start and len(boundary) > 1 and nxt == boundary[1]:
            boundary.pop()  # the start pixel, appended when the trace re-entered it
            break
        cur = nxt
        boundary.append(cur)
    return boundary


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
        dupes = sorted(i for i, count in Counter(e[0] for e in self.entries).items() if count > 1)
        if dupes:
            raise ManifestError(f"duplicate contour ids: {', '.join(dupes)}")
        if self.strategy not in ("shared-times", "union-of-times"):
            raise ManifestError(f"unknown correspondence strategy: {self.strategy!r}")
        if self.k < 3:
            raise ManifestError(f"k must be >= 3, got {self.k}")
        if self.k > MAX_K:
            raise ManifestError(f"k must be <= {MAX_K}, got {self.k}")
        if self.seed < 0:
            raise ManifestError(f"seed must be a nonnegative integer, got {self.seed}")


def parse_manifest(path) -> SampleManifest:
    """Parse the plain-text manifest format described in the module docstring."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as err:
        raise ManifestError(f"cannot read manifest {p}: {err}") from err
    except UnicodeDecodeError as err:
        raise ManifestError(f"manifest {p} is not UTF-8 text: {err}") from err
    entries: list[tuple[str, str]] = []
    settings = {}  # the directives the file sets, each once; SampleManifest holds the defaults
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        directive = fields[0]
        if directive in settings:
            raise ManifestError(f"{p}:{lineno}: repeated {directive} directive {raw!r}")
        if directive in ("seed", "k") and len(fields) == 2:
            try:
                settings[directive] = int(fields[1])
            except ValueError:
                raise ManifestError(f"{p}:{lineno}: bad {directive} {fields[1]!r}") from None
        elif directive == "correspondence" and len(fields) == 2:
            settings[directive] = fields[1]
        elif directive == "contour" and len(fields) == 3:
            entries.append((fields[1], str((p.parent / fields[2]).resolve())))
        else:
            raise ManifestError(f"{p}:{lineno}: unrecognized directive {raw!r}")
    if "correspondence" in settings:
        settings["strategy"] = settings.pop("correspondence")
    return SampleManifest(entries=tuple(entries), **settings)


def load_sample(manifest: SampleManifest) -> tuple[list[Preshape], StoppingTimes]:
    """Read, canonicalize, evaluate, and preshape every contour in the manifest.

    The stopping-time fractions are drawn first, from the number of entries
    and the manifest's correspondence strategy and seed, so the returned
    preshapes share a dimension and a vertex correspondence.  Then each
    entry, in manifest order, goes from its file to its preshape before the
    next is read: the sample is held as preshapes plus one contour.  The
    first entry that cannot be read, canonicalized or evaluated at the times
    aborts the load, named by its id.
    """
    n = len(manifest.entries)
    times = build_correspondence(n, manifest.strategy, manifest.k, _substream(manifest.seed))
    return _each_entry(manifest, lambda c: preshape(evaluate(canonicalize(c), times))), times


def read_curves(manifest: SampleManifest) -> list[ParamCurve]:
    """Read and canonicalize every manifest contour; a failure names its entry id."""
    return _each_entry(manifest, canonicalize)


def _each_entry(manifest: SampleManifest, finish) -> list:
    """``finish`` of each entry's contour, in manifest order; a failure names its entry id."""
    done = []
    for cid, cpath in manifest.entries:
        try:
            done.append(finish(read_contour(cpath)))
        except ContourStatError as err:
            raise ManifestError(f"entry '{cid}': {err}") from err
    return done
