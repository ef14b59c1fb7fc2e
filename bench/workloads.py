"""Workload definitions and the seeded input generators that feed them.

Every input the program sees is written here, from a seed, into a directory:
contour files (CSV point lists or PGM masks), a held-out hypothesized contour
for ``test --m0``, and the sample manifest.  The same seed always gives the
same bytes, and the program receives only the files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage


# test --delta, and the level of every test and bootstrap region
DELTA = 0.05
ALPHA = 0.05


@dataclass(frozen=True)
class Workload:
    """One set of generated inputs plus the parameters of the command sequence."""

    name: str
    why: str
    fmt: str  # "csv" or "pgm"
    n: int  # contours in the manifest
    k: int
    strategy: str
    B: int
    k_grid: tuple[int, ...]  # approx --k-grid
    repeats: int  # approx --repeats
    vertices: tuple[int, int] = (400, 400)  # CSV vertex counts, spread evenly over the sample
    mask_size: int = 200  # PGM side length


WORKLOADS = {
    w.name: w
    for w in (
        # The k x k eigh per bootstrap resample blocks the result here, so this
        # is the workload a Gram-space core or a batched bootstrap must speed
        # up; rank n = 30 is far below dimension k = 300.  CSV input keeps
        # mask parsing out of the picture.  B = 50 keeps one bootstrap under a
        # command's share of the run, so each bootstrap is timed more than
        # once and the cheaper commands still get enough invocations for a
        # steady median.
        Workload(
            name="shared-k300",
            why="30 CSV contours at shared k=300 (rank 30), B=50: the dense k x k eigh per bootstrap resample blocks the result",
            fmt="csv",
            n=30,
            k=300,
            strategy="shared-times",
            B=50,
            k_grid=(50, 100, 200, 400),
            repeats=6,
        ),
        # Mask reading, component counting and boundary tracing dominate every
        # load, and at k=8 the per-resample Python overhead dominates the
        # bootstrap.  The spectral work is trivial and n > k, so a rank-n
        # spectral core should change nothing here.  128 x 128 masks and
        # B = 1000 keep each command near one second, so every command is
        # timed several times in a run.
        Workload(
            name="masks-k8",
            why="16 PGM masks of 128x128 (half P5, half P2) at k=8, B=1000: mask ingestion and per-resample Python overhead dominate, spectral work is trivial",
            fmt="pgm",
            n=16,
            k=8,
            strategy="shared-times",
            B=1000,
            k_grid=(8, 16, 32, 64),
            repeats=10,
            mask_size=128,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated input set."""

    directory: Path
    manifest: Path
    m0: Path
    contours: tuple[Path, ...]
    mask_pixels: dict  # path string -> width * height, for PGM inputs


def _radius(theta: np.ndarray, params: tuple[float, float, float]) -> np.ndarray:
    # a three-lobed curve with a seven-fold ripple that makes one lobe the
    # unique farthest point, so canonical start points correspond
    amp3, amp7, phase = params
    return 1.0 + amp3 * np.cos(3.0 * theta + phase) + amp7 * np.sin(7.0 * theta)


def _family_params(rng: np.random.Generator, shift: float = 0.0) -> tuple[float, float, float]:
    return (
        0.25 + shift + 0.02 * rng.standard_normal(),
        0.10 + 0.01 * rng.standard_normal(),
        0.05 * rng.standard_normal(),
    )


def _csv_points(rng: np.random.Generator, m: int, params) -> np.ndarray:
    """m vertices of a family member under a random similarity, start and direction."""
    theta = 2.0 * np.pi * (np.arange(m) + 0.3 * rng.uniform(size=m)) / m
    pts = _radius(theta, params) * np.exp(1j * theta)
    scale = np.exp(rng.uniform(-1.0, 1.0))
    rotation = np.exp(2j * np.pi * rng.uniform())
    shift = complex(*rng.normal(0.0, 5.0, size=2))
    pts = scale * rotation * pts + shift
    pts = np.roll(pts, int(rng.integers(m)))
    return pts[::-1] if rng.uniform() < 0.5 else pts


def _write_csv(path: Path, pts: np.ndarray) -> None:
    path.write_text("".join(f"{z.real:.17g},{z.imag:.17g}\n" for z in pts), encoding="ascii")


def _mask(rng: np.random.Generator, side: int, params) -> np.ndarray:
    """A filled family member in a side x side frame: one 8-connected blob.

    Frame and blob size are fixed, so the pixel work of a mask does not
    depend on the seed; position and rotation do.
    """
    cx, cy = side / 2 + side * rng.uniform(-0.04, 0.04, size=2)
    rotation = rng.uniform(0.0, 2.0 * np.pi)
    rows, cols = np.mgrid[0:side, 0:side]
    dz = (cols - cx) + 1j * (cy - rows)
    inside = np.abs(dz) < 0.27 * side * _radius(np.angle(dz) - rotation, params)
    _, count = ndimage.label(inside, np.ones((3, 3)))
    if count != 1:
        raise RuntimeError(f"generated mask has {count} components")
    return inside


def _write_pgm(path: Path, mask: np.ndarray, binary: bool) -> None:
    height, width = mask.shape
    values = np.where(mask, 255, 0).astype(np.uint8)
    if binary:
        path.write_bytes(b"P5\n%d %d\n255\n" % (width, height) + values.tobytes())
    else:
        rows = "\n".join(" ".join(map(str, row)) for row in values.tolist())
        path.write_text(
            f"P2\n# generated mask\n{width} {height}\n255\n{rows}\n", encoding="ascii"
        )


def generate(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's inputs for ``seed`` into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    contours = []
    pixels = {}
    # the seed shuffles the vertex counts but keeps their total, and so the work
    counts = rng.permutation(np.linspace(*workload.vertices, workload.n).round().astype(int))
    for i in range(workload.n):
        params = _family_params(rng)
        if workload.fmt == "csv":
            path = directory / f"c{i:02d}.csv"
            _write_csv(path, _csv_points(rng, int(counts[i]), params))
        else:
            path = directory / f"c{i:02d}.pgm"
            mask = _mask(rng, workload.mask_size, params)
            _write_pgm(path, mask, binary=i % 2 == 0)
            pixels[str(path.resolve())] = mask.size
        contours.append(path)
    # the hypothesized shape is held out: drawn after the sample, from a
    # shifted family, so it never coincides with the sample mean
    m0_params = _family_params(rng, shift=0.04)
    if workload.fmt == "csv":
        m0 = directory / "m0.csv"
        _write_csv(m0, _csv_points(rng, 400, m0_params))
    else:
        m0 = directory / "m0.pgm"
        mask = _mask(rng, workload.mask_size, m0_params)
        _write_pgm(m0, mask, binary=True)
        pixels[str(m0.resolve())] = mask.size
    manifest = directory / "manifest.txt"
    lines = [
        f"# {workload.name}, generated from benchmark seed {seed}",
        f"seed {seed}",
        f"k {workload.k}",
        f"correspondence {workload.strategy}",
    ]
    lines += [f"contour c{i:02d} {p.name}" for i, p in enumerate(contours)]
    manifest.write_text("\n".join(lines) + "\n", encoding="ascii")
    return Inputs(directory, manifest, m0, tuple(contours), pixels)
