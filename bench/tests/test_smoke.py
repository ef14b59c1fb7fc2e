"""Tiny-scale runs of every workload, end to end and traced."""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

TINY = {
    "shared-k300": dict(n=5, k=12, B=50, k_grid=(6, 12), repeats=2, vertices=(60, 60)),
    "masks-k8": dict(n=4, B=50, k_grid=(8,), repeats=2, mask_size=48),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload(name, trace):
    w = replace(WORKLOADS[name], **TINY[name])
    result = run.run_workload(w, seed=3, seconds=0, trace=trace)
    assert result["tally"].failures == []
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    if trace:
        assert result["metrics"]["ingestion.parse_manifest.calls"] > 0
        assert result["metrics"]["bootstrap.useful_ratio"] == 1.0
        assert (result["metrics"]["ingestion.mask_pixels_per_s"] > 0) == (w.fmt == "pgm")
    else:
        assert result["metrics"]["success_rate"] == 1.0
        assert all(result["metrics"][m] > 0 for m in units)


def test_same_seed_same_inputs(tmp_path):
    from workloads import generate

    w = replace(WORKLOADS["masks-k8"], **TINY["masks-k8"])
    a = generate(w, 9, tmp_path / "a")
    b = generate(w, 9, tmp_path / "b")
    c = generate(w, 10, tmp_path / "c")
    files = [p.name for p in (*a.contours, a.m0, a.manifest)]
    assert all((a.directory / f).read_bytes() == (b.directory / f).read_bytes() for f in files)
    assert any((a.directory / f).read_bytes() != (c.directory / f).read_bytes() for f in files)


def test_refuses_to_run_without_the_package(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "masks-k8", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_the_code():
    import json

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
