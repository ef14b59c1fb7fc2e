"""Output checks for every command invocation.

Each check reads what one invocation wrote (files and captured stdout) and
raises :class:`CheckFailed` naming the first thing that is wrong.  The
checks recompute from the outputs, or from an explicit eigendecomposition
done here, never from the program's own summary of its result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

MEAN_TOL = 1e-9


class CheckFailed(Exception):
    """An invocation's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def stdout_fields(stdout: str) -> dict[str, str]:
    """The ``name value`` lines a command prints, as a dict of strings."""
    fields = {}
    for line in stdout.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            fields[parts[0]] = parts[1].strip()
    return fields


def _float_field(fields: dict[str, str], name: str) -> float:
    _require(name in fields, f"stdout has no {name!r} line")
    try:
        value = float(fields[name])
    except ValueError:
        raise CheckFailed(f"{name} is not a number: {fields[name]!r}") from None
    _require(math.isfinite(value), f"{name} is not finite: {value}")
    return value


def svg_paths(path: Path) -> int:
    _require(path.is_file(), f"{path.name} was not written")
    return path.read_text(encoding="utf-8").count("<path ")


def reference_mean(gammas: np.ndarray) -> np.ndarray:
    """Top eigenvector of the explicit VW mean matrix (1/n) sum gamma gamma^H."""
    n, k = gammas.shape
    m = np.zeros((k, k), dtype=np.complex128)
    for g in gammas:
        m += np.outer(g, g.conj())
    _, vecs = np.linalg.eigh(m / n)
    return vecs[:, -1]


def chord(a: np.ndarray, b: np.ndarray) -> float:
    """Chord distance of the shapes of two vectors, resolved to machine precision.

    Uses the projection-residual form sqrt(2) ||b - <a, b> a|| on unit
    vectors, which equals sqrt(2 (1 - |<a, b>|^2)) without its cancellation.
    """
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return float(math.sqrt(2.0) * np.linalg.norm(b - np.vdot(a, b) * a))


def check_approx(out: Path, k_grid: tuple[int, ...]) -> None:
    path = out / "approx_report.csv"
    _require(path.is_file(), "approx_report.csv was not written")
    lines = path.read_text(encoding="ascii").splitlines()
    _require(len(lines) == len(k_grid) + 1, f"expected {len(k_grid)} rows, got {len(lines) - 1}")
    for k, line in zip(k_grid, lines[1:]):
        cells = line.split(",")
        _require(len(cells) == 5, f"row {line!r} does not have 5 cells")
        _require(cells[0] == str(k), f"row for k={cells[0]} where k={k} was expected")
        _require(
            all(math.isfinite(float(c)) for c in cells[1:]), f"row for k={k} is not finite"
        )


def check_mean(out: Path, reference: np.ndarray) -> None:
    path = out / "mean_shape.csv"
    _require(path.is_file(), "mean_shape.csv was not written")
    rows = [line.split(",") for line in path.read_text(encoding="ascii").split()]
    coords = np.array([complex(float(x), float(y)) for x, y in rows])
    _require(len(coords) == len(reference), f"mean has {len(coords)} vertices, expected {len(reference)}")
    coords = coords - coords.mean()
    dist = chord(reference, coords)
    _require(dist <= MEAN_TOL, f"mean shape is {dist:.3e} from the explicit eigh mean")
    _require(svg_paths(out / "mean_shape.svg") == 1, "mean_shape.svg does not have 1 path")


def check_test(stdout: str, delta: float) -> None:
    """``test --delta``: the decision must be ``delta < critical_delta``."""
    fields = stdout_fields(stdout)
    for name in ("phi", "s_n", "T_n", "p_value"):
        _float_field(fields, name)
    _require(_float_field(fields, "delta") == float(f"{delta:.10g}"), "delta echoed wrongly")
    crit = _float_field(fields, "critical_delta")
    expected = "reject" if delta < crit else "fail-to-reject"
    _require(
        fields.get("decision") == expected,
        f"decision {fields.get('decision')!r} but delta={delta} vs critical_delta={crit}",
    )


def check_solve_delta(stdout: str, test_fields: dict[str, str]) -> None:
    """``test --solve-delta`` must agree digit for digit with ``test --delta``."""
    fields = stdout_fields(stdout)
    for name in ("phi", "s_n", "critical_delta"):
        _float_field(fields, name)
        _require(
            fields[name] == test_fields.get(name),
            f"{name} {fields[name]} differs from test --delta's {test_fields.get(name)}",
        )


def check_bootstrap(out: Path, stdout: str, B: int, alpha: float) -> None:
    """The radius is the ceil((1 - alpha) B) order statistic of the listed distances."""
    path = out / "bootstrap_summary.csv"
    _require(path.is_file(), "bootstrap_summary.csv was not written")
    lines = path.read_text(encoding="ascii").splitlines()
    header = dict(item.split("=", 1) for item in lines[0].lstrip("# ").split())
    radius = float(header["radius"])
    _require(int(header["B"]) == B, f"summary says B={header['B']}, expected {B}")
    _require(lines[1] == "resample,distance,included", "summary column header is wrong")
    rows = [line.split(",") for line in lines[2:]]
    _require(len(rows) == B, f"summary lists {len(rows)} resamples, expected {B}")
    _require([int(r[0]) for r in rows] == list(range(B)), "resample indices are not 0..B-1")
    dist = np.array([float(r[1]) for r in rows])
    included = np.array([r[2] == "1" for r in rows])
    _require(bool(np.all(np.isfinite(dist)) and np.all(dist >= 0)), "distances are not finite and >= 0")
    order = math.ceil((1 - Fraction(str(alpha))) * B)
    _require(
        radius == np.sort(dist)[order - 1],
        f"radius {radius!r} is not order statistic {order} of the distances",
    )
    _require(bool(np.array_equal(included, dist <= radius)), "included flags != distance <= radius")
    count = int(_float_field(stdout_fields(stdout), "included"))
    _require(count == int(included.sum()), f"stdout says {count} included, summary has {included.sum()}")
    _require(
        svg_paths(out / "bootstrap_region.svg") == count + 1,
        "bootstrap_region.svg does not have one path per included mean plus the mean",
    )


def check_same_bootstrap(serial: Path, parallel: Path) -> None:
    """Outputs of a threaded bootstrap are byte-identical to the serial ones."""
    for name in ("bootstrap_summary.csv", "bootstrap_region.svg"):
        a, b = serial / name, parallel / name
        _require(a.is_file() and b.is_file(), f"{name} missing")
        _require(a.read_bytes() == b.read_bytes(), f"{name} differs between 1 thread and many")


def check_plot(out: Path, n: int) -> None:
    paths = svg_paths(out / "contours.svg")
    _require(paths == n, f"contours.svg has {paths} paths, expected {n}")


def check_imported_from(stdout: str, expected: Path) -> None:
    """The interpreter imported the package from the checkout, not from elsewhere."""
    got = stdout.strip()
    _require(Path(got).resolve() == expected.resolve(), f"imported {got}, not {expected}")


# what bench/calibrate.py prints before its floating-point checksum
CALIBRATION_OUTPUT = "calibrate 150000 19087634 "


def check_calibration(stdout: str) -> None:
    """The reference job ran to the end and parsed every token."""
    got = stdout.strip()
    _require(got.startswith(CALIBRATION_OUTPUT), f"calibration printed {got!r}")
