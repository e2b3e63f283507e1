"""shufflevar benchmark: three workloads through the public entry points.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json for why each is there):

- ``estimate-batch``       ``shufflevar estimate`` on a 400-series paper-scale
                           dataset (m=120, n=15, T=1800), shuffle and MoM;
- ``simulate-timeseries``  ``shufflevar simulate`` of a time-series sweep,
                           3 signal variances x 300 replicates at T=1800;
- ``reml-fit``             ``reml_estimate`` per series on the criterion-3
                           design (m=36, n=6, T=216).

The run makes its inputs from the seed, measures the workload in a separate
process for S seconds, checks every output against a numpy recomputation,
and prints the metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace
0`` the metrics are the end-to-end ones (items per second, set-up time,
peak RSS, share of operations that succeeded); with ``--trace 1`` they are
the per-layer ones from spans around the calls into each module.  BLAS
threads are pinned to one through the environment, the program runs with
``--threads 1``, and the exit status is 0 only when every check passed.

Self-tests: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
from inputs import MAKERS, make_inputs  # noqa: E402
from spans import WRAP_POINTS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 0
# Fresh interpreters timed per run for setup_s: half before the workload and
# half after it, so that the median spans the run, and one untimed warm-up
# first that also compiles the bytecode cache.
SETUP_SPAWNS = 6
# Time allowed to the workload process beyond its measuring time.
CHILD_GRACE_S = 120

IMPORT_PROGRAM = "import shufflevar, shufflevar.cli; print(shufflevar.__file__)"

# Per-layer metrics read from the spans: (metric, unit, kind, span name).
# "s" is the median over traced passes of the span's total time, "self_s"
# the same for its self time, "calls" the count in the first traced pass.
SPAN_METRICS = (
    ("io.read_dataset_s", "s", "s", "io.read_dataset"),
    ("io.write_estimates_s", "s", "s", "io.write_estimates"),
    ("cli.self_s", "s", "self_s", "cli.main"),
    ("design.build_design_s", "s", "s", "design.build_design"),
    ("design.ms_between_s", "s", "s", "design.ms_between"),
    ("design.ms_between_calls", "count", "calls", "design.ms_between"),
    ("design.ms_within_s", "s", "s", "design.ms_within"),
    ("permutations.alpha_s", "s", "s", "permutations.alpha"),
    ("permutations.alpha_calls", "count", "calls", "permutations.alpha"),
    ("estimators.shuffle_estimate_s", "s", "s", "estimators.shuffle_estimate"),
    ("estimators.shuffle_estimate.self_s", "s", "self_s", "estimators.shuffle_estimate"),
    ("estimators.mom_estimate_s", "s", "s", "estimators.mom_estimate"),
    ("noise.materialize_s", "s", "s", "noise.materialize"),
    ("noise.psd_cholesky_s", "s", "s", "noise.psd_cholesky"),
    ("noise.substream_s", "s", "s", "noise.substream"),
    ("noise.substream_calls", "count", "calls", "noise.substream"),
    ("sweeps.self_s", "s", "self_s", "sweeps.run_timeseries_sweep"),
    ("sweeps.emit_sweep_table_s", "s", "s", "sweeps.emit_sweep_table"),
)


def provenance() -> dict:
    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads_env": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def time_imports(count: int) -> list:
    """Wall times of ``count`` fresh interpreters importing shufflevar and its CLI."""
    env = child_env()
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROGRAM],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"importing shufflevar failed:\n{proc.stderr}")
        if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported shufflevar from {proc.stdout.strip()}, not {SRC}")
        times.append(elapsed)
    return times


def run_workload(workload: str, seconds: int, trace: int, workdir: Path) -> dict:
    cmd = [
        sys.executable, str(BENCH / "workload.py"), "--workload", workload,
        "--workdir", str(workdir), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=seconds + CHILD_GRACE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads((workdir / "result.json").read_text())


def load_reml_reference(seed: int):
    if seed != DEFAULT_SEED:
        return None
    return json.loads((REFERENCE / f"reml-fit-seed{seed}.json").read_text())["loglik"]


def check_outputs(workload: str, seed: int, inputs: dict, result: dict) -> tuple:
    """Return (failures, operations attempted, operations failed)."""
    passes = result["passes"]
    files = inputs["files"]
    failures = []
    if workload == "reml-fit":
        fits = [f for p in passes for f in p["fits"]]
        failures = oracle.check_reml(fits, inputs, load_reml_reference(seed))
        by_index = {}
        for f in fits:
            key = (f["status"], f.get("evals"), f.get("loglik"))
            if by_index.setdefault(f["index"], key) != key:
                failures.append(f"reml: series {f['index']} fit differently on a repeat")
        failed = sum(f["status"] != "ok" or not f["converged"] for f in fits)
        return failures, len(fits), failed

    if len({p["sha256"] for p in passes}) != 1:
        failures.append(f"{workload}: output differs between passes")
    if workload == "estimate-batch":
        out = files["estimates"]
        failures += oracle.check_estimates(out, inputs)
        per_pass = 2 * len(inputs["ids"]), oracle.error_rows(out)
    else:
        out = files["sweep"]
        ref = REFERENCE / f"simulate-timeseries-seed{seed}.csv"
        failures += oracle.check_sweep(out, ref if seed == DEFAULT_SEED else None)
        per_pass = oracle.sweep_counts(out)
    return failures, per_pass[0] * len(passes), per_pass[1] * len(passes)


def end_to_end_metrics(result, setup_times, attempted, failed) -> dict:
    # Work over time summed over all passes.  The machine's speed drifts over
    # seconds; a mean over the run averages the drift, where a median would
    # pick whichever speed held for most of it.
    passes = result["passes"]
    rate = sum(p["items"] for p in passes) / sum(p["seconds"] for p in passes)
    return {
        "items_per_s": (rate, "items/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }


def per_layer_metrics(inputs, result) -> tuple:
    """Return (metrics, names of wrap points that no longer exist)."""
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    summaries = [result["spans"].get(str(p["k"]), {}) for p in traced]
    first = summaries[0]
    missing = result["missing_wrap_points"]
    present = {
        name for name, module, attr in WRAP_POINTS if f"{module}.{attr}" not in missing
    }

    def median_ns(field, name):
        return statistics.median(s.get(field, {}).get(name, 0) for s in summaries) / 1e9

    metrics = {}
    for metric, unit, kind, name in SPAN_METRICS:
        if name not in present:
            continue
        if kind == "calls":
            value = first.get("calls", {}).get(name, 0)
        else:
            value = median_ns("total_ns" if kind == "s" else "self_ns", name)
        metrics[metric] = (value, unit)

    if "io.read_dataset" in present:
        reads = first.get("calls", {}).get("io.read_dataset", 0)
        size = os.path.getsize(inputs["files"]["dataset"]) if reads else 0
        metrics["io.input_mb"] = (reads * size / 1e6, "MB")

    first_fits = traced[0].get("fits", [])
    all_fits = [f for p in traced for f in p.get("fits", [])]
    fit_s = [f["seconds"] for f in all_fits]
    evals = sum(f.get("evals", 0) for f in all_fits)
    first_gaps = [f["loglik_gap"] for f in first_fits if "loglik_gap" in f]
    metrics.update({
        "reml.fits": (len(first_fits), "count"),
        "reml.fit_s.p50": (statistics.median(fit_s) if fit_s else 0.0, "s"),
        "reml.fit_s.max": (max(fit_s, default=0.0), "s"),
        "reml.evals": (sum(f.get("evals", 0) for f in first_fits), "count"),
        "reml.s_per_eval": (sum(fit_s) / evals if evals else 0.0, "s"),
        "reml.non_converged": (
            sum(f["status"] == "ok" and not f["converged"] for f in first_fits), "count"),
        "reml.all_starts_failed": (
            sum(f["status"] == "all_starts_failed" for f in first_fits), "count"),
        "reml.loglik_gap_max": (max(first_gaps, default=0.0), "nats"),
        "trace.overhead_frac": (
            1.0 - sum(p["seconds"] for p in untraced) / sum(p["seconds"] for p in traced),
            "fraction"),
        "trace.missing_wrap_points": (len(missing), "count"),
    })
    return metrics, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MAKERS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "shufflevar" / "__init__.py").is_file():
        print(f"error: no shufflevar package under {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times = None
    if not args.trace:
        time_imports(1)
        setup_times = time_imports(SETUP_SPAWNS // 2)
    inputs = make_inputs(args.workload, args.seed, workdir)
    result = run_workload(args.workload, args.seconds, args.trace, workdir)
    if not args.trace:
        setup_times += time_imports(SETUP_SPAWNS - SETUP_SPAWNS // 2)
    failures, attempted, failed = check_outputs(args.workload, args.seed, inputs, result)

    missing = []
    if args.trace:
        metrics, missing = per_layer_metrics(inputs, result)
    else:
        metrics = end_to_end_metrics(result, setup_times, attempted, failed)

    for name in missing:
        print(f"trace: wrap point {name} no longer exists", file=sys.stderr)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(result["passes"]),
        "setup_times_s": setup_times,
        "provenance": dict(provenance(), blas_threads_workload=result["blas_threads"]),
        "failures": failures,
        "missing_wrap_points": missing,
    }
    (workdir / f"record-trace{args.trace}.json").write_text(
        json.dumps(dict(record, metrics=metrics), indent=1))
    print("provenance: " + json.dumps(record["provenance"]))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
