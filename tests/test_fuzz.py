"""Seeded mutation fuzz: a corrupted input file ends in exit 0 or 2, never in an exception.

A four-contour, k = 8 sample (two CSV point lists, a P5 and a P2 mask) and its
manifest are written once.  Each fuzz input then corrupts one of the five
files by a byte flip, an inserted byte, a deleted byte or a truncation, and
runs ``mean``, ``plot`` and ``bootstrap --B 50`` on it through ``cli.main``
with every warning raised as an error, and with every value the library
builds unchecked built by its public constructor too.  Exit 0 leaves stderr
empty, and exit 2 leaves exactly one line on it, starting ``error: ``.
"""

import warnings

import numpy as np
import pytest

from contourstat.cli import main
from support import public_constructors_agree, wobbly_points  # noqa: F401 (a fixture)

INPUTS = 300


def pristine_files():
    """File name -> bytes of the unmutated sample."""
    yy, xx = np.mgrid[0:24, 0:24]
    mask = (((xx - 12) / 9) ** 2 + ((yy - 11) / 6) ** 2 <= 1.0).astype(np.uint8) * 255
    p2_rows = "\n".join(" ".join(str(v) for v in row) for row in mask[:, ::-1])
    files = {
        "m0.pgm": b"P5\n24 24\n255\n" + mask.tobytes(),
        "m1.pgm": f"P2\n# a comment\n24 24\n255\n{p2_rows}\n".encode("ascii"),
    }
    for i in range(2):
        pts = wobbly_points(30, phase=0.4 * i)
        files[f"c{i}.csv"] = "".join(f"{z.real:.17g},{z.imag:.17g}\n" for z in pts).encode()
    entries = "".join(f"contour {name.split('.')[0]} {name}\n" for name in sorted(files))
    files["sample.manifest"] = f"seed 3\nk 8\n{entries}".encode("ascii")
    return files


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


@pytest.mark.usefixtures("public_constructors_agree")
def test_mutated_inputs_exit_zero_or_two(tmp_path, capsys):
    files = pristine_files()
    names = sorted(files)
    man, out = str(tmp_path / "sample.manifest"), str(tmp_path / "out")
    statuses = {0: 0, 2: 0}
    for i in range(INPUTS):
        rng = np.random.default_rng(np.random.SeedSequence(2024, spawn_key=(i,)))
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        target = names[int(rng.integers(len(names)))]
        mutated = mutate(files[target], rng)
        (tmp_path / target).write_bytes(mutated)
        for command in (["mean"], ["plot"], ["bootstrap", "--B", "50"]):
            where = f"input {i}, {target} as {mutated!r}, {command[0]}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    status = main([*command, "--manifest", man, "--out", out])
                except Exception as err:
                    pytest.fail(f"{where}: {err!r}")
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
