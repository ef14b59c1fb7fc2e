"""Invariance through the command line: transformed input files give the same outputs.

Each case transforms every input file of a small sample, the hypothesized
contour included, runs ``mean``, ``test --delta``, ``test --solve-delta`` and
``bootstrap`` through ``cli.main``, and compares the mean CSV, the three
stdouts and ``bootstrap_summary.csv`` with the run on the untransformed files.
Outputs that stay byte-identical under a transform are compared as bytes;
the others must agree number by number within 1e-12.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest

import contourstat as cs
from contourstat.cli import main
from support import wobbly_points

K_CSV = 30
K_PGM = 12
OUTPUTS = ("mean_shape.csv", "mean stdout", "test stdout", "solve stdout", "bootstrap_summary.csv")


def csv_points(i):
    """Contour i of the CSV sample (i = 6 is the hypothesized one): a noisy wobbly curve."""
    rng = np.random.default_rng(i)
    K = 90 + 10 * i
    noise = 1 + 0.01 * rng.standard_normal(K)
    return wobbly_points(K, amp3=0.25 + 0.03 * (i == 6), phase=0.05 * i) * noise


def lobed_mask(i, side=48):
    """Mask i of the PGM sample (i = 5 is the hypothesized one): a filled three-lobed blob."""
    rng = np.random.default_rng(i)
    yy, xx = np.mgrid[0:side, 0:side]
    dz = (xx - side / 2 + rng.uniform(-2, 2)) + 1j * (side / 2 - yy)
    theta = np.angle(dz) - rng.uniform(0, 0.3)
    r = 1 + (0.25 + 0.03 * (i == 5)) * np.cos(3 * theta) + 0.1 * np.sin(7 * theta)
    return np.abs(dz) < 0.3 * side * r


def write_pgm(path, mask):
    height, width = mask.shape
    raster = (mask * 255).astype(np.uint8).tobytes()
    path.write_bytes(b"P5\n%d %d\n255\n" % (width, height) + raster)


def write_sample(directory, k, names, write):
    """Write every file with ``write(path, i)``; return the manifest and the hypothesized file."""
    directory.mkdir(parents=True)
    *sample, m0 = names
    for i, name in enumerate(names):
        write(directory / name, i)
    lines = ["seed 4", f"k {k}", *(f"contour c{i} {name}" for i, name in enumerate(sample))]
    (directory / "sample.manifest").write_text("\n".join(lines) + "\n")
    return directory / "sample.manifest", directory / m0


def csv_sample(directory, transform):
    def write(path, i):
        cs.write_contour(cs.Contour(transform(csv_points(i))), path)

    return write_sample(directory, K_CSV, [f"c{i}.csv" for i in range(7)], write)


def pgm_sample(directory, transform):
    def write(path, i):
        write_pgm(path, transform(lobed_mask(i)))

    return write_sample(directory, K_PGM, [f"m{i}.pgm" for i in range(6)], write)


def run(argv):
    """Stdout of one command, which must succeed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0, err.getvalue()
    return out.getvalue()


def outputs(manifest, m0, out):
    """The compared outputs of one sample, with the output directory written as <out>."""
    common = ["--manifest", str(manifest), "--out", str(out)]
    commands = {
        "mean": ["mean", *common],
        "test": ["test", *common, "--m0", str(m0), "--delta", "0.05"],
        "solve": ["test", *common, "--m0", str(m0), "--solve-delta"],
        "bootstrap": ["bootstrap", *common, "--B", "50"],
    }
    got = {f"{name} stdout": run(cmd).replace(str(out), "<out>") for name, cmd in commands.items()}
    for name in ("mean_shape.csv", "bootstrap_summary.csv"):
        got[name] = (out / name).read_text()
    return got


def assert_close(got, want, what):
    """Same text but for numbers, which agree within 1e-12 (relative above 1)."""
    got_tokens, want_tokens = re.split(r"[\s,=]+", got), re.split(r"[\s,=]+", want)
    assert len(got_tokens) == len(want_tokens), what
    for a, b in zip(got_tokens, want_tokens):
        try:
            x, y = float(a), float(b)
        except ValueError:
            assert a == b, what
        else:
            assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12), (what, a, b)


def assert_agree(got, want, exact):
    for name in OUTPUTS:
        if name in exact:
            assert got[name] == want[name], name
        else:
            assert_close(got[name], want[name], name)


@pytest.fixture(scope="module")
def csv_reference(tmp_path_factory):
    """The untransformed CSV sample: its manifest, its m0 and its outputs."""
    directory = tmp_path_factory.mktemp("csv")
    manifest, m0 = csv_sample(directory / "in", lambda z: z)
    return manifest, m0, outputs(manifest, m0, directory / "out")


@pytest.fixture(scope="module")
def pgm_reference(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pgm")
    manifest, m0 = pgm_sample(directory / "in", lambda mask: mask)
    return manifest, m0, outputs(manifest, m0, directory / "out")


SIMILARITY = 3.5 * np.exp(0.7j)
# where a transform moves the coordinates the arithmetic sees, the mean
# shape and the bootstrap distances move at roundoff, below the printed digits
STDOUTS = {"mean stdout", "test stdout", "solve stdout"}

CSV_CASES = {
    # name: (transform of every file's points, the outputs that keep their bytes)
    "similarity": (lambda z: SIMILARITY * z + (4.0 - 2.5j), STDOUTS),
    "roll": (lambda z: np.roll(z, 137), set(OUTPUTS)),
    "reverse": (lambda z: z[::-1], set(OUTPUTS)),
}

PGM_CASES = {
    "rotate-90": (lambda m: np.rot90(m, 1), STDOUTS),
    "rotate-180": (lambda m: np.rot90(m, 2), STDOUTS),
    "rotate-270": (lambda m: np.rot90(m, 3), STDOUTS),
    "pad": (lambda m: np.pad(m, ((3, 5), (7, 2))), STDOUTS),
}


@pytest.mark.parametrize("case", CSV_CASES)
def test_csv_transform(csv_reference, tmp_path, case):
    transform, exact = CSV_CASES[case]
    got = outputs(*csv_sample(tmp_path / "in", transform), tmp_path / "out")
    assert_agree(got, csv_reference[2], exact)


@pytest.mark.parametrize("case", PGM_CASES)
def test_pgm_transform(pgm_reference, tmp_path, case):
    transform, exact = PGM_CASES[case]
    got = outputs(*pgm_sample(tmp_path / "in", transform), tmp_path / "out")
    assert_agree(got, pgm_reference[2], exact)


def m0_stdouts(manifest, m0, out):
    common = ["test", "--manifest", str(manifest), "--out", str(out), "--m0", str(m0)]
    return [run([*common, *flags]) for flags in (["--delta", "0.05"], ["--solve-delta"])]


@pytest.mark.parametrize("roll", [0, 1, 7, K_CSV - 1])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_k_vertex_m0_any_start_and_direction(csv_reference, tmp_path, roll, reverse):
    # a k-vertex m0 keeps its vertices, registered to the sample mean
    manifest, m0, reference = csv_reference
    times = cs.load_sample(cs.parse_manifest(manifest))[1]
    kgon = cs.evaluate(cs.canonicalize(cs.read_contour(m0)), times).points
    cs.write_contour(cs.Contour(kgon), tmp_path / "kgon.csv")
    moved = np.roll(kgon, roll)
    cs.write_contour(cs.Contour(moved[::-1] if reverse else moved), tmp_path / "moved.csv")
    want = m0_stdouts(manifest, tmp_path / "kgon.csv", tmp_path / "out")
    # the k-gon of m0 in the sample's correspondence keeps shift 0
    assert want == [reference["test stdout"], reference["solve stdout"]]
    got = m0_stdouts(manifest, tmp_path / "moved.csv", tmp_path / "out")
    for stdout, reference in zip(got, want):
        assert_close(stdout, reference, "test stdout")
