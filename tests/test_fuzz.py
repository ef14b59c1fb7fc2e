"""Seeded mutation fuzz: a corrupted input file ends in exit 0 or 2, never in an exception.

A four-contour, k = 8 sample (two CSV point lists, a P5 and a P2 mask) and its
``shared-times`` manifest are written once, and with them a
``union-of-times`` manifest over the same contours and two hypothesized
contours, a CSV point list and a P2 mask.  Each fuzz input then corrupts one
file by a byte flip, an inserted byte, a deleted byte or a truncation, and
runs through ``cli.main`` each command under test that reads that file.  The
first test runs ``mean``, ``plot`` and ``bootstrap --B 50`` on the sample
alone; the second runs the other commands: ``approx``, ``test --delta`` with
the CSV hypothesis, ``test --solve-delta`` with the P2 one, and the tests,
``bootstrap`` and ``plot`` on the union manifest.  Every warning is raised as
an error, and every value the library builds unchecked is built by its
public constructor too.  Each command succeeds on the unmutated files; on a
mutated one, exit 0 leaves stderr empty, and exit 2 leaves exactly one line
on it, starting ``error: ``.

The same rule is checked by name on the bad inputs that the mutations do not
reliably make: masks with one or two pixels, P5 files with a maxval or a
sample out of range, a missing manifest, duplicate contour ids, and a
bootstrap whose resamples are all focal until it gives up.
"""

import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import contourstat as cs
from contourstat.cli import main
from support import public_constructors_agree, wobbly_points  # noqa: F401 (a fixture)


def ellipse_mask(a: float, b: float) -> np.ndarray:
    yy, xx = np.mgrid[0:24, 0:24]
    return (((xx - 12) / a) ** 2 + ((yy - 11) / b) ** 2 <= 1.0).astype(np.uint8) * 255


def p2_bytes(mask: np.ndarray) -> bytes:
    rows = "\n".join(" ".join(str(v) for v in row) for row in mask)
    return f"P2\n# a comment\n24 24\n255\n{rows}\n".encode("ascii")


def csv_bytes(points: np.ndarray) -> bytes:
    return "".join(f"{z.real:.17g},{z.imag:.17g}\n" for z in points).encode()


def pristine_files():
    """File name -> bytes of the unmutated sample."""
    mask = ellipse_mask(9, 6)
    files = {"m0.pgm": b"P5\n24 24\n255\n" + mask.tobytes(), "m1.pgm": p2_bytes(mask[:, ::-1])}
    for i in range(2):
        files[f"c{i}.csv"] = csv_bytes(wobbly_points(30, phase=0.4 * i))
    entries = "".join(f"contour {name.split('.')[0]} {name}\n" for name in sorted(files))
    files["sample.manifest"] = f"seed 3\nk 8\n{entries}".encode("ascii")
    return files


def every_file():
    """:func:`pristine_files`, a union-of-times manifest and two hypothesized contours."""
    files = pristine_files()
    union = files["sample.manifest"].replace(b"k 8\n", b"k 8\ncorrespondence union-of-times\n")
    files["union.manifest"] = union
    files["h.csv"] = csv_bytes(wobbly_points(40, amp3=0.25, phase=0.2))
    files["h.pgm"] = p2_bytes(ellipse_mask(8, 7))
    return files


# every command reads the four contours of either manifest
CONTOURS = {"c0.csv", "c1.csv", "m0.pgm", "m1.pgm"}
# (arguments, manifest, hypothesized contour or None)
SAMPLE_COMMANDS = [
    (["mean"], "sample.manifest", None),
    (["plot"], "sample.manifest", None),
    (["bootstrap", "--B", "50"], "sample.manifest", None),
]
OTHER_COMMANDS = [
    (["approx", "--k-grid", "5,8", "--repeats", "3"], "sample.manifest", None),
    (["test", "--delta", "0.05"], "sample.manifest", "h.csv"),
    (["test", "--solve-delta"], "sample.manifest", "h.pgm"),
    (["test", "--delta", "0.05"], "union.manifest", "h.csv"),
    (["test", "--solve-delta"], "union.manifest", "h.pgm"),
    (["bootstrap", "--B", "50"], "union.manifest", None),
    (["plot"], "union.manifest", None),
]


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    kind = int(rng.integers(4))
    pos = int(rng.integers(len(data)))
    if kind == 0:  # flip one bit
        return data[:pos] + bytes([data[pos] ^ (1 << int(rng.integers(8)))]) + data[pos + 1 :]
    if kind == 1:  # insert a byte
        return data[:pos] + bytes([int(rng.integers(256))]) + data[pos:]
    if kind == 2:  # delete a byte
        return data[:pos] + data[pos + 1 :]
    return data[:pos]  # truncate


def run(directory, args, manifest, m0, where) -> int:
    """Exit status of one command through ``cli.main``, failing the test on any exception."""
    argv = [*args, "--manifest", str(directory / manifest), "--out", str(directory / "out")]
    if m0 is not None:
        argv += ["--m0", str(directory / m0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return main(argv)
        except Exception as err:
            pytest.fail(f"{where}: {err!r}")


def fuzz(directory, capsys, files, commands, inputs, entropy) -> None:
    """Run ``inputs`` seeded mutations of ``files`` through the ``commands`` that read them."""
    names = sorted(files)
    for name, data in files.items():
        (directory / name).write_bytes(data)
    for args, manifest, m0 in commands:
        status = run(directory, args, manifest, m0, f"pristine files, {args[0]} on {manifest}")
        assert status == 0, capsys.readouterr().err
    capsys.readouterr()
    statuses = {0: 0, 2: 0}
    for i in range(inputs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,)))
        for name, data in files.items():
            (directory / name).write_bytes(data)
        target = names[int(rng.integers(len(names)))]
        mutated = mutate(files[target], rng)
        (directory / target).write_bytes(mutated)
        for args, manifest, m0 in commands:
            if target not in CONTOURS | {manifest, m0}:
                continue  # the run would repeat the pristine one
            where = f"input {i}, {target} as {mutated!r}, {' '.join(args)} on {manifest}"
            status = run(directory, args, manifest, m0, where)
            assert status in statuses, where
            stderr = capsys.readouterr().err
            if status == 0:
                assert stderr == "", f"{where}: {stderr!r}"
            else:
                one_line = stderr.count("\n") == 1 and stderr.endswith("\n")
                assert stderr.startswith("error: ") and one_line, f"{where}: {stderr!r}"
            statuses[status] += 1
    # the mutations both break inputs and leave some of them usable
    assert min(statuses.values()) > 0


@pytest.mark.usefixtures("public_constructors_agree")
def test_mutated_inputs_exit_zero_or_two(tmp_path, capsys):
    fuzz(tmp_path, capsys, pristine_files(), SAMPLE_COMMANDS, 300, 2024)


@pytest.mark.usefixtures("public_constructors_agree")
def test_mutated_inputs_of_the_other_commands_exit_zero_or_two(tmp_path, capsys):
    fuzz(tmp_path, capsys, every_file(), OTHER_COMMANDS, 150, 2025)


def pixels_pgm(*pixels) -> bytes:
    """A 5 x 5 P5 mask whose foreground is ``pixels``, (row, column) pairs."""
    mask = np.zeros((5, 5), dtype=np.uint8)
    for pixel in pixels:
        mask[pixel] = 255
    return b"P5\n5 5\n255\n" + mask.tobytes()


# (file bytes of the one contour, the problem that the error line names after its path)
BAD_CONTOURS = {
    "one-pixel-mask": (pixels_pgm((2, 2)), ": contour needs >= 3 points, got 1"),
    "two-pixel-mask": (pixels_pgm((2, 2), (2, 3)), ": contour needs >= 3 points, got 2"),
    "diagonal-pixels": (pixels_pgm((2, 2), (3, 3)), ": contour needs >= 3 points, got 2"),
    "p5-maxval-65536": (b"P5\n3 3\n65536\n" + bytes(18), ":3: PGM maxval too large: 65536"),
    "p5-sample-above-maxval": (
        b"P5\n3 3\n100\n" + bytes([0, 0, 0, 0, 200, 0, 0, 0, 0]),
        ": PGM sample exceeds maxval 100",
    ),
}


@pytest.mark.parametrize("name", list(BAD_CONTOURS))
def test_bad_mask_exits_two_naming_the_problem_on_one_line(tmp_path, capsys, name):
    data, problem = BAD_CONTOURS[name]
    mask = tmp_path / "m.pgm"
    mask.write_bytes(data)
    manifest = tmp_path / "m.manifest"
    manifest.write_text("contour a m.pgm\n")
    assert main(["mean", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: entry 'a': {mask.resolve()}{problem}\n"


def test_missing_manifest_exits_two_on_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.manifest"
    assert main(["mean", "--manifest", str(missing), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read manifest {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    )


def test_duplicate_ids_exit_two_on_one_line(tmp_path, capsys):
    manifest = tmp_path / "m.manifest"
    manifest.write_text("contour b c.csv\ncontour a c.csv\ncontour b c.csv\ncontour a c.csv\n")
    assert main(["mean", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: duplicate contour ids: a, b\n"


def test_duplicate_ids_among_many_found_in_linear_time():
    ids = [f"c{i}" for i in range(50_000)]
    ids[123], ids[40_000] = "c7", "c39999"
    entries = tuple((i, "c.csv") for i in ids)
    start = time.perf_counter()
    with pytest.raises(cs.ManifestError) as info:
        cs.SampleManifest(entries=entries)
    assert time.perf_counter() - start < 2.0
    assert str(info.value) == "duplicate contour ids: c39999, c7"


# the CLI with every resample focal: the full sample's mean is the real one,
# every later call of extrinsic_mean raises, so resample 0 gives up
GIVE_UP = """
import sys
from contourstat import bootstrap
from contourstat.cli import main
from contourstat.errors import FocalDistributionError

real = bootstrap.extrinsic_mean
calls = []

def extrinsic_mean(sample):
    calls.append(len(sample))
    if len(calls) > 1:
        raise FocalDistributionError("every resample is focal")
    return real(sample)

bootstrap.extrinsic_mean = extrinsic_mean
raise SystemExit(main(sys.argv[1:]))
"""


def test_bootstrap_that_gives_up_exits_two_on_one_line(tmp_path):
    for name, data in pristine_files().items():
        (tmp_path / name).write_bytes(data)
    env = dict(os.environ)
    src = str(Path(cs.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["bootstrap", "--B", "50", "--manifest", "sample.manifest", "--out", "out"]
    proc = subprocess.run(
        [sys.executable, "-c", GIVE_UP, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: every resample is focal\n")
