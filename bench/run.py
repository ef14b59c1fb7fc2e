"""contourstat benchmark: the five CLI commands end to end, plus a traced per-layer run.

Usage (from the repository root)::

    python3 bench/run.py --workload shared-k300 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run generates the workload's inputs from ``--seed`` into a scratch
directory and runs the command sequence approx, mean, test (``--delta``),
solve-delta (``test --solve-delta``), bootstrap, bootstrap-par (the same
bootstrap with ``SHAPE_THREADS`` = nproc) and plot.  Every output is checked.

``--trace 0`` runs each command as a fresh ``python -m contourstat`` process:
one whole pass, then further invocations, least accumulated time first,
until ``--seconds`` is used up.  Between them it runs ``calibrate.py``, a
fixed reference job, and the import of a fresh interpreter.  It reports wall
times (median over each command's invocations) and the median import time
(``setup_s``), each calibrated: multiplied by ``CALIBRATION_S`` over the
reference job's median wall time in the same run.  The speed of a shared
machine drifts by tens of percent over minutes; the calibration takes part of
that drift out, while a change to the program moves the calibrated times as
it moves the wall times.  The raw medians and the reference job's median are
in the table and the run record.  It also reports the peak RSS of any
command process and the share of invocations that succeeded (the JSON line
gives ``failed`` of ``attempted``; the table also prints the error rate).
``--trace 1`` calls ``contourstat.cli.main`` in this process instead,
alternating untraced and traced passes, and reports per-layer metrics from the
spans of the traced passes together with the tracing overhead.

Every process runs with the BLAS/OpenMP thread variables pinned to 1, so the
only parallelism is the program's own.  The last stdout line is one JSON
object; a run record (machine, versions, thread settings, seed, commit) and
the raw samples are written to ``.bench_out/`` next to it.

The benchmark's own tests: ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# before numpy is imported, so this process is pinned as well as its children
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SHAPE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import ALPHA, DELTA, WORKLOADS, Inputs, Workload, generate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
CHILD_TIMEOUT_S = 150.0
# about the median wall time of calibrate.py inside a run on the 2-vCPU Xeon
# the benchmark was defined on; calibrated times are seconds on a machine that
# runs it this fast
CALIBRATION_S = 0.6
# time share of each scheduled probe relative to a command: many reference
# samples keep their median from adding noise of its own, and setup_s needs
# only a steady median
SHARE = {"calibrate": 2.0, "setup": 0.5}

# (step, end-to-end metric); the order is the command sequence of one pass
STEPS = (
    ("approx", "approx_s"),
    ("mean", "mean_s"),
    ("test", "test_s"),
    ("solve-delta", "solve_delta_s"),
    ("bootstrap", "bootstrap_s"),
    ("bootstrap-par", "bootstrap_par_s"),
    ("plot", "plot_s"),
)
END_TO_END_UNITS = {metric: "s" for _, metric in STEPS}
END_TO_END_UNITS.update(setup_s="s", peak_rss_mb="MB", success_rate="ratio")
PER_LAYER_UNITS = {
    "ingestion.read_contour.self_s": "s",
    "ingestion.mask_pixels_per_s": "1/s",
    "ingestion.parse_manifest.calls": "count",
    "contour.canonicalize.self_s": "s",
    "contour.evaluate.self_s": "s",
    "contour.evaluate.calls": "count",
    "shape_space.eigensystem.self_s": "s",
    "shape_space.eigensystem.calls": "count",
    "shape_space.eigensystem.p50_ms": "ms",
    "shape_space.eigensystem.max_dim": "count",
    "shape_space.mean_matrix.self_s": "s",
    "shape_space.extrinsic_covariance.self_s": "s",
    "shape_space.dense_matrix_bytes": "bytes",
    "inference.extrinsic_mean.calls_per_command": "count",
    "bootstrap.resample.p50_ms": "ms",
    "bootstrap.resample.p95_ms": "ms",
    "bootstrap.resample.python_share": "ratio",
    "bootstrap.useful_ratio": "ratio",
    "svg.render.self_s": "s",
    "svg.paths": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def step_argv(step: str, w: Workload, inputs: Inputs, out: Path) -> list[str]:
    """contourstat arguments of one step of the command sequence."""
    base = ["--manifest", str(inputs.manifest), "--out", str(out)]
    if step == "approx":
        grid = ",".join(map(str, w.k_grid))
        return ["approx", *base, "--k-grid", grid, "--repeats", str(w.repeats)]
    if step == "mean":
        return ["mean", *base]
    if step == "test":
        return ["test", *base, "--m0", str(inputs.m0), "--delta", repr(DELTA), "--alpha", repr(ALPHA)]
    if step == "solve-delta":
        return ["test", *base, "--m0", str(inputs.m0), "--solve-delta", "--alpha", repr(ALPHA)]
    if step in ("bootstrap", "bootstrap-par"):
        return ["bootstrap", *base, "--B", str(w.B), "--alpha", repr(ALPHA)]
    if step == "plot":
        return ["plot", *base]
    raise ValueError(step)


class Checker:
    """Checks step outputs; solve-delta and bootstrap-par compare with the last test and bootstrap."""

    def __init__(self, w: Workload, reference: np.ndarray):
        self.w = w
        self.reference = reference
        self.test_fields: dict[str, str] = {}
        self.serial_bootstrap: Path | None = None

    def check(self, step: str, out: Path, stdout: str) -> None:
        try:
            self._check(step, out, stdout)
        except (ValueError, KeyError, IndexError) as err:
            raise checks.CheckFailed(f"malformed {step} output: {err!r}") from err

    def _check(self, step: str, out: Path, stdout: str) -> None:
        w = self.w
        if step == "approx":
            checks.check_approx(out, w.k_grid)
        elif step == "mean":
            checks.check_mean(out, self.reference)
        elif step == "test":
            self.test_fields = checks.stdout_fields(stdout)
            checks.check_test(stdout, DELTA)
        elif step == "solve-delta":
            checks.check_solve_delta(stdout, self.test_fields)
        elif step == "bootstrap":
            checks.check_bootstrap(out, stdout, w.B, ALPHA)
            self.serial_bootstrap = out
        elif step == "bootstrap-par":
            checks.check_bootstrap(out, stdout, w.B, ALPHA)
            if self.serial_bootstrap is None:
                raise checks.CheckFailed("no serial bootstrap output to compare with")
            checks.check_same_bootstrap(self.serial_bootstrap, out)
        elif step == "plot":
            checks.check_plot(out, w.n)
        elif step == "setup":
            checks.check_imported_from(stdout, SRC / "contourstat" / "cli.py")
        elif step == "calibrate":
            checks.check_calibration(stdout)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures.append(f"{what}: {error}")
            log(f"FAILED {what}: {error}")


def reference_mean(inputs: Inputs) -> np.ndarray:
    """Explicit-eigh mean of the workload's sample, for the mean check."""
    import contourstat

    shapes, _ = contourstat.load_sample(contourstat.parse_manifest(inputs.manifest))
    return checks.reference_mean(np.stack([s.coords for s in shapes]))


# ---------------------------------------------------------------------------
# end to end: every command is a fresh process


def child_env(threads: int | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("SHAPE_THREADS", None)
    if threads is not None:
        env["SHAPE_THREADS"] = str(threads)
    return env


def run_child(argv: list[str], env: dict, logs: Path) -> tuple[float, int, float, str]:
    """Run one process to completion: (wall s, exit code, max RSS MB, stdout)."""
    out_path, err_path = logs.with_suffix(".stdout"), logs.with_suffix(".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        log(f"exit {proc.returncode}: {' '.join(argv[2:4])}: {' | '.join(tail)}")
    # ru_maxrss is in KiB on Linux
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_text(errors="replace")


def run_end_to_end(w: Workload, inputs: Inputs, seconds: float, work: Path) -> dict:
    tally = Tally()
    checker = Checker(w, reference_mean(inputs))
    # setup and the reference job are scheduled like commands, so their
    # samples spread over the run
    walls = {step: [] for step in (*(step for step, _ in STEPS), "setup", "calibrate")}
    rss = []
    open_steps = list(walls)
    start = time.perf_counter()
    while open_steps:
        # least time spent so far for its share first, ties in sequence order:
        # one whole pass, then each step gets about its share of the budget,
        # so the cheap commands are sampled many times and the long bootstraps
        # once
        step = min(open_steps, key=lambda s: sum(walls[s]) / SHARE.get(s, 1.0))
        done = walls[step]
        if done and time.perf_counter() - start + statistics.median(done) > seconds:
            open_steps.remove(step)
            continue
        out = work / f"{step}-{len(done)}"
        out.mkdir()
        if step == "setup":
            argv = [sys.executable, "-c", "import contourstat.cli as c; print(c.__file__)"]
        elif step == "calibrate":
            argv = [sys.executable, str(BENCH / "calibrate.py")]
        else:
            argv = [sys.executable, "-m", "contourstat", *step_argv(step, w, inputs, out)]
        env = child_env(NPROC if step == "bootstrap-par" else None)
        wall, code, max_rss, stdout = run_child(argv, env, out)
        error = None if code == 0 else f"exit code {code}"
        if error is None:
            try:
                checker.check(step, out, stdout)
            except checks.CheckFailed as err:
                error = str(err)
        tally.record(f"{step} #{len(done)}", error)
        done.append(wall)
        if step not in ("setup", "calibrate"):
            rss.append(max_rss)
    samples = {metric: walls[step] for step, metric in (*STEPS, ("setup", "setup_s"))}
    raw = {metric: statistics.median(values) for metric, values in samples.items()}
    reference_s = statistics.median(walls["calibrate"])
    metrics = {metric: value * CALIBRATION_S / reference_s for metric, value in raw.items()}
    metrics["peak_rss_mb"] = max(rss)
    metrics["success_rate"] = (tally.attempted - tally.failed) / tally.attempted
    counts = {metric: len(values) for metric, values in samples.items()}
    counts.update(peak_rss_mb=len(rss), success_rate=tally.attempted)
    samples["calibrate_s"] = walls["calibrate"]
    calibration = {"reference_s": reference_s, "samples": len(walls["calibrate"]), "raw": raw}
    return {
        "metrics": metrics,
        "samples": samples,
        "counts": counts,
        "tally": tally,
        "calibration": calibration,
    }


# ---------------------------------------------------------------------------
# traced: cli.main in this process, spans around the calls between modules


def run_traced(w: Workload, inputs: Inputs, seconds: float, work: Path) -> dict:
    from contourstat import bootstrap, cli, inference, ingestion, shape_space

    modules = {
        "cli": cli,
        "ingestion": ingestion,
        "inference": inference,
        "bootstrap": bootstrap,
        "shape_space": shape_space,
    }
    tally = Tally()
    reference = reference_mean(inputs)
    commands = dict(enumerate(step for step, _ in STEPS))

    def one_pass(index: int, tracer: tracing.Tracer | None, steps=commands) -> float:
        checker = Checker(w, reference)
        main = cli.main if tracer is None else tracer.wrap(cli.main, "cli")
        total = 0.0
        for cid, step in steps.items():
            out = work / f"p{index}" / step
            out.mkdir(parents=True)
            if tracer is not None:
                tracer.command = cid
            if step == "bootstrap-par":
                os.environ["SHAPE_THREADS"] = str(NPROC)
            buf = io.StringIO()
            error = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = main(step_argv(step, w, inputs, out))
            except Exception:  # a crash is a failed invocation, not the end of the run
                code = None
                error = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
            finally:
                total += time.perf_counter() - start
                os.environ.pop("SHAPE_THREADS", None)
            if error is None and code != 0:
                error = f"exit code {code}"
            if error is None:
                try:
                    checker.check(step, out, buf.getvalue())
                except checks.CheckFailed as err:
                    error = str(err)
            tally.record(f"pass {index} {step}", error)
        shutil.rmtree(work / f"p{index}")
        return total

    # warm-up: the first reads and the first eigh of a size cost more than later ones
    one_pass(0, None, {1: "mean", 2: "test"})
    plain, traced, layers, spans = [], [], [], []
    start = time.perf_counter()
    index = 1
    while True:
        pair_start = time.perf_counter()
        tracer = tracing.Tracer(inputs.mask_pixels)
        # alternate which pass of a pair goes first, so neither gets the warmer machine
        for traced_pass in (False, True) if len(plain) % 2 == 0 else (True, False):
            if traced_pass:
                with tracer.installed(modules):
                    traced.append(one_pass(index, tracer))
            else:
                plain.append(one_pass(index, None))
            index += 1
        layers.append(tracing.layer_metrics(tracer.spans, commands, w.B))
        spans.append(tracer.spans)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pair_start) > seconds:
            break
    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    samples = {"untraced_pass_s": plain, "traced_pass_s": traced}
    return {
        "metrics": metrics,
        "samples": samples,
        "counts": dict.fromkeys(metrics, len(traced)),
        "tally": tally,
        "spans": spans,
    }


# ---------------------------------------------------------------------------
# run record and reporting


def _git_commit() -> str | None:
    """Commit of the checkout, read from .git without starting git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": NPROC,
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{w.name}-") as tmp:
        tmp = Path(tmp)
        setup_start = time.perf_counter()
        inputs = generate(w, seed, tmp / "inputs")
        log(f"{w.name}: inputs for seed {seed} in {time.perf_counter() - setup_start:.2f} s")
        work = tmp / "work"
        work.mkdir()
        runner = run_traced if trace else run_end_to_end
        result = runner(w, inputs, seconds, work)
    result["record"] = run_record(w.name, seed, seconds, trace)
    return result


def print_table(w: Workload, result: dict, units: dict) -> None:
    tally = result["tally"]
    print(f"== {w.name}: {w.why}")
    raw = result.get("calibration", {}).get("raw", {})
    for name, unit in units.items():
        n = result["counts"][name]
        line = f"   {name:45s} {result['metrics'][name]:>14.6g} {unit:6s} (n={n})"
        if name in raw:
            line += f"  wall {raw[name]:.6g} s"
        print(line)
    if "calibration" in result:
        c = result["calibration"]
        print(f"   calibrate.py median {c['reference_s']:.6g} s (n={c['samples']}); times above are x {CALIBRATION_S} / that")
    rate = tally.failed / tally.attempted
    print(f"   error_rate {rate:.4g} = {tally.failed} failed of {tally.attempted} attempted")


def save(w: Workload, seed: int, trace: int, result: dict) -> Path:
    tag = f"{w.name}-seed{seed}-trace{trace}"
    path = OUT / f"{tag}.json"
    tally = result["tally"]
    path.write_text(
        json.dumps(
            {
                "record": result["record"],
                "metrics": result["metrics"],
                "samples": result["samples"],
                "counts": result["counts"],
                "calibration": result.get("calibration"),
                "attempted": tally.attempted,
                "failed": tally.failed,
                "failures": tally.failures,
            },
            indent=1,
        )
    )
    if trace:
        spans = [
            dict(vars(s), traced_pass=i) for i, pass_spans in enumerate(result["spans"]) for s in pass_spans
        ]
        (OUT / f"{tag}.spans.json").write_text(json.dumps(spans))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "contourstat" / "__init__.py").is_file():
        log(f"error: no contourstat package under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import contourstat

    if Path(contourstat.__file__).resolve().parent != (SRC / "contourstat").resolve():
        log(f"error: imported contourstat from {contourstat.__file__}, not {SRC}")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    attempted = failed = 0
    metrics = {}
    for name in names:
        w = WORKLOADS[name]
        result = run_workload(w, args.seed, args.seconds, args.trace)
        print_table(w, result, units)
        log(f"{w.name}: record in {save(w, args.seed, args.trace, result)}")
        attempted += result["tally"].attempted
        failed += result["tally"].failed
        prefix = "" if len(names) == 1 else f"{name}:"
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": result["metrics"][metric], "unit": unit}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
