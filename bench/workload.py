"""Workload process: drives one workload through shufflevar's entry points.

run.py writes the inputs and ``manifest.json`` into a work directory, then
starts this process:

    python3 bench/workload.py --workload NAME --workdir DIR --seconds S --trace 0|1

It repeats passes until S seconds have gone and writes ``result.json`` (and,
when traced, ``spans.jsonl``) into DIR.  A pass is one ``estimate`` or
``simulate`` command through ``cli.main``, or one ``reml_estimate`` call
per series for one series of each signal variance.  With ``--trace 1`` each
pass runs twice on the same input, once untraced and once traced, so the
two timings give the tracing overhead.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import shufflevar  # noqa: E402
from shufflevar import cli, reml  # noqa: E402
from spans import Tracer, summarize  # noqa: E402


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cli_pass(argv, output, items):
    def run_pass(k):
        t0 = time.perf_counter()
        status = cli.main(argv)
        elapsed = time.perf_counter() - t0
        if status != 0:
            raise RuntimeError(f"shufflevar {argv[0]} exited with status {status}")
        return elapsed, {"items": items, "sha256": _digest(output)}

    return run_pass


def estimate_batch(manifest):
    files = manifest["files"]
    argv = [
        "estimate", "-i", files["dataset"], "--permutation", "reverse",
        "--estimators", "shuffle,mom", "--threads", "1", "-o", files["estimates"],
    ]
    return _cli_pass(argv, files["estimates"], manifest["items_per_pass"])


def simulate_timeseries(manifest):
    files = manifest["files"]
    argv = [
        "simulate", "--config", files["config"],
        "--seed", str(manifest["sim_seed"]), "-o", files["sweep"],
    ]
    return _cli_pass(argv, files["sweep"], manifest["items_per_pass"])


def reml_fit(manifest):
    data = np.load(manifest["files"]["series"])
    series = np.ascontiguousarray(data["values"].T)
    design = shufflevar.build_design(data["labels"].tolist())
    options = manifest["reml_options"]
    per_pass = manifest["items_per_pass"]

    def run_pass(k):
        fits, total = [], 0.0
        for j in range(per_pass):
            i = (k * per_pass + j) % len(series)
            t0 = time.perf_counter()
            try:
                fit, _ = reml.reml_estimate(series[i], design, seed=i, **options)
            except reml.AllStartsFailed:
                fit = None
            elapsed = time.perf_counter() - t0
            total += elapsed
            rec = {"index": i, "seconds": elapsed, "status": "all_starts_failed"}
            if fit is not None:
                rec.update(
                    status="ok",
                    converged=fit.converged,
                    evals=fit.iterations,
                    sigma2_A=fit.sigma2_A,
                    sigma2_eps=fit.sigma2_eps,
                    theta=list(fit.theta),
                    loglik=fit.log_restricted_likelihood,
                )
            fits.append(rec)
        return total, {"items": len(fits), "fits": fits}

    return run_pass


WORKLOADS = {
    "estimate-batch": estimate_batch,
    "simulate-timeseries": simulate_timeseries,
    "reml-fit": reml_fit,
}


def traced_pass(run_pass, k: int, tracer):
    tracer.run_id = k
    tracer.install()
    try:
        return run_pass(k)
    finally:
        tracer.uninstall()


def measure(run_pass, seconds: float, tracer=None) -> list:
    """Run passes until ``seconds`` have gone (at least one), after one
    untimed warm-up pass.  With a tracer, each pass index runs once untraced
    and once traced, the traced one first on odd indices."""
    run_pass(0)
    passes = []
    start = time.perf_counter()
    k = 0
    while True:
        order = (False,) if tracer is None else ((False, True), (True, False))[k % 2]
        for traced in order:
            elapsed, rec = traced_pass(run_pass, k, tracer) if traced else run_pass(k)
            passes.append(dict(rec, k=k, traced=traced, seconds=elapsed))
        k += 1
        if time.perf_counter() - start >= seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(shufflevar.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported shufflevar from {shufflevar.__file__}, not {SRC}")
    manifest = json.loads((args.workdir / "manifest.json").read_text())
    run_pass = WORKLOADS[args.workload](manifest)
    tracer = Tracer() if args.trace else None
    passes = measure(run_pass, args.seconds, tracer)

    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
    if tracer is not None:
        tracer.write(args.workdir / "spans.jsonl")
        result["spans"] = {str(k): v for k, v in summarize(tracer.spans).items()}
        result["missing_wrap_points"] = tracer.missing
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
