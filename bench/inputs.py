"""Workload inputs, made from the workload seed with numpy and csv only.

Nothing here imports shufflevar, so a change to the program's own writers
or samplers cannot change what the benchmark feeds it.  Every array the
output checks need is returned alongside the paths of the files written.
"""

from __future__ import annotations

import csv
import json

import numpy as np

GRID = (0.0, 0.2, 0.4, 0.6, 0.8)
LAM1, LAM2 = 0.7, 30.0

# estimate-batch: one paper-scale dataset file.
EST_M, EST_N, EST_SERIES = 120, 15, 400

# simulate-timeseries: the INI the simulate command reads.
SIM_M, SIM_N = 120, 15
SIM_GRID = (0.0, 0.4, 0.8)
SIM_REPLICATES = 300
SIM_ESTIMATORS = ("shuffle", "mom")

# reml-fit: criterion-3 design and noise, one series per fit.
REML_M, REML_N, REML_SERIES = 36, 6, 200
REML_OPTIONS = dict(family="exp_nugget", n_starts=2, max_evals=600, xatol=1e-5)


# Distinct streams per workload for the same seed.
_STREAM = {"estimate-batch": 1, "simulate-timeseries": 2, "reml-fit": 3}


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng((seed, _STREAM[workload]))


def exp_nugget_corr(T: int, lam1: float = LAM1, lam2: float = LAM2) -> np.ndarray:
    """Unit-diagonal correlation lam1 * exp(-|t-u| / lam2) off the diagonal."""
    lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
    corr = lam1 * np.exp(-lag / lam2)
    np.fill_diagonal(corr, 1.0)
    return corr


def _series(rng, h: np.ndarray, m: int, count: int):
    """``count`` series of signal plus exp-nugget noise; the signal variance
    cycles through GRID so every prefix of the list covers the grid."""
    T = len(h)
    chol = np.linalg.cholesky(exp_nugget_corr(T))
    s2A = np.array([GRID[j % len(GRID)] for j in range(count)])
    effects = rng.standard_normal((m, count)) * np.sqrt(s2A)
    values = effects[h] + chol @ rng.standard_normal((T, count))
    return values, s2A


def _write_dataset(path, h: np.ndarray, values: np.ndarray, ids, comment: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "stimulus", "block"] + list(ids))
        for t, row in enumerate(values.tolist()):
            writer.writerow([t + 1, f"s{h[t]:03d}", "b0"] + [repr(v) for v in row])


def make_estimate_batch(seed: int, workdir) -> dict:
    rng = _rng(seed, "estimate-batch")
    h = rng.permutation(np.repeat(np.arange(EST_M), EST_N))
    values, _ = _series(rng, h, EST_M, EST_SERIES)
    ids = [f"y{j:04d}" for j in range(EST_SERIES)]
    path = workdir / "dataset.csv"
    _write_dataset(path, h, values, ids, f"estimate-batch seed={seed}")
    return {
        "files": {"dataset": str(path), "estimates": str(workdir / "estimates.csv")},
        "items_per_pass": EST_SERIES,
        "h": h, "m": EST_M, "n": EST_N, "values": values, "ids": ids,
    }


def make_simulate_timeseries(seed: int, workdir) -> dict:
    path = workdir / "sweep.ini"
    lines = [
        "[sweep]",
        "kind = timeseries",
        f"m = {SIM_M}",
        f"n = {SIM_N}",
        f"lam1 = {LAM1}",
        f"lam2 = {LAM2}",
        "sigma2_eps = 1.0",
        "sigma2_A_grid = " + ",".join(str(g) for g in SIM_GRID),
        f"replicates = {SIM_REPLICATES}",
        "estimators = " + ",".join(SIM_ESTIMATORS),
        "threads = 1",
    ]
    path.write_text("\n".join(lines) + "\n")
    return {
        "files": {"config": str(path), "sweep": str(workdir / "sweep.csv")},
        "items_per_pass": len(SIM_GRID) * SIM_REPLICATES,
        "sim_seed": seed,
    }


def make_reml_fit(seed: int, workdir) -> dict:
    rng = _rng(seed, "reml-fit")
    h = rng.permutation(np.repeat(np.arange(REML_M), REML_N))
    values, s2A = _series(rng, h, REML_M, REML_SERIES)
    path = workdir / "series.npz"
    np.savez(path, values=values, labels=np.array([f"s{j:03d}" for j in h]))
    return {
        "files": {"series": str(path)},
        "items_per_pass": len(GRID),
        "reml_options": REML_OPTIONS,
        "h": h, "m": REML_M, "n": REML_N, "values": values, "sigma2_A": s2A,
    }


MAKERS = {
    "estimate-batch": make_estimate_batch,
    "simulate-timeseries": make_simulate_timeseries,
    "reml-fit": make_reml_fit,
}


def make_inputs(workload: str, seed: int, workdir) -> dict:
    """Write the workload's input files and a manifest the workload process
    reads; return the manifest plus the arrays the checks need."""
    inputs = MAKERS[workload](seed, workdir)
    manifest = {k: inputs[k] for k in ("files", "items_per_pass")}
    manifest.update({k: inputs[k] for k in ("sim_seed", "reml_options") if k in inputs})
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return inputs
