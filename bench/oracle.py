"""Output checks that recompute the program's answers with plain numpy.

Nothing here imports shufflevar.  Each ``check_*`` function returns a list
of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from inputs import LAM1, LAM2, SIM_ESTIMATORS, SIM_GRID, SIM_REPLICATES, exp_nugget_corr

# Relative tolerance for the per-series estimates.  The program and the
# oracle sum in different orders, so agreement is to rounding, not bitwise.
EST_RTOL, EST_ATOL = 1e-9, 1e-12
# Shuffle bias must lie within this many Monte Carlo standard errors.
SIM_BIAS_SE = 5.0
# Realized mixing coefficient range of criterion 2.
SIM_ALPHA_RANGE = (0.0, 0.15)
# Absolute tolerance against the stored sweep table for the default seed.
SIM_REF_ATOL = 1e-9
# Log-likelihood tolerances: the program's reported value against the dense
# recomputation, and a fit against the best known point.  Both widen by
# T * cond(V) * eps, how far rounding in V's entries can move the value; that
# term matters only near the degenerate boundary (lam1 -> 1, lam2 -> inf).
REML_REPORT_TOL = 1e-4
REML_OPT_TOL = 1e-3


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def ms_between(y: np.ndarray, h: np.ndarray, m: int, n: int) -> float:
    avgs = np.bincount(h, weights=y, minlength=m) / n
    return float(np.sum((avgs - avgs.mean()) ** 2) / (m - 1))


def ms_within(y: np.ndarray, h: np.ndarray, m: int, n: int) -> float:
    avgs = np.bincount(h, weights=y, minlength=m) / n
    return float(np.sum((y - avgs[h]) ** 2) / (m * (n - 1)))


def alpha_pair_count(h: np.ndarray, g: np.ndarray, m: int, n: int) -> float:
    """Mixing coefficient from counts of slot pairs sharing a stimulus before
    and after the shuffle ``y -> y[g]``."""
    counts = np.bincount(h * m + h[g], minlength=m * m).astype(float)
    return (float(np.sum(counts**2)) / n**2 - 1.0) / (m - 1)


def shuffle_and_mom(y: np.ndarray, h: np.ndarray, m: int, n: int) -> dict:
    """Raw shuffle (order reversal) and MoM estimates of one series."""
    g = np.arange(len(y))[::-1]
    a = alpha_pair_count(h, g, m, n)
    total = ms_between(y, h, m, n)
    return {
        "alpha": a,
        "total": total,
        "shuffle": (total - ms_between(y[g], h, m, n)) / (1.0 - a),
        "mom": total - ms_within(y, h, m, n) / n,
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EST_ATOL + EST_RTOL * max(abs(a), abs(b))


def check_estimates(path, inputs) -> list:
    """Every series has a shuffle and a MoM row that match the oracle."""
    rows = _read_rows(path)
    h, m, n, values = inputs["h"], inputs["m"], inputs["n"], inputs["values"]
    expected = [(sid, method) for sid in inputs["ids"] for method in ("shuffle", "mom")]
    got = [(r["series_id"], r["method"]) for r in rows]
    if got != expected:
        return [f"estimates: expected {len(expected)} (series, method) rows in order, got {len(got)}"]
    failures = []
    for j, sid in enumerate(inputs["ids"]):
        ref = shuffle_and_mom(values[:, j], h, m, n)
        for r in rows[2 * j : 2 * j + 2]:
            raw = ref[r["method"]]
            want = {
                "sigma2_A_raw": raw,
                "sigma2_A": max(raw, 0.0),
                "ms_between": ref["total"],
                "noise_level": ref["total"] - raw,
                "omega2": min(1.0, max(raw, 0.0) / ref["total"]),
            }
            if r["method"] == "shuffle":
                want["alpha"] = ref["alpha"]
            for col, value in want.items():
                if not _close(float(r[col]), value):
                    failures.append(f"estimates: {sid} {r['method']} {col}={r[col]} oracle={value!r}")
    return failures


def error_rows(path) -> int:
    return sum(1 for r in _read_rows(path) if r["sigma2_A_raw"] == "nan")


def sweep_counts(path) -> tuple:
    """(replicates attempted, replicates failed) over all cells of a sweep."""
    rows = _read_rows(path)
    return sum(int(r["n_reps"]) for r in rows), sum(int(r["n_fail"]) for r in rows)


def check_sweep(path, reference_path=None) -> list:
    """Sweep table: complete and failure-free, shuffle unbiased within
    SIM_BIAS_SE standard errors, alpha in the criterion-2 range, and equal to
    the stored table when one is given."""
    rows = _read_rows(path)
    cells = [(float(r["sigma2_A_true"]), r["estimator"]) for r in rows]
    expected = [(s, e) for s in SIM_GRID for e in SIM_ESTIMATORS]
    if cells != expected:
        return [f"sweep: cells {cells} != {expected}"]
    failures = []
    for r in rows:
        cell = f"sweep: s2A={r['sigma2_A_true']} {r['estimator']}"
        if int(r["n_reps"]) != SIM_REPLICATES:
            failures.append(f"{cell}: n_reps={r['n_reps']}")
        if int(r["n_fail"]) != 0:
            failures.append(f"{cell}: n_fail={r['n_fail']}")
        if r["estimator"] == "shuffle":
            se = float(r["sd"]) / math.sqrt(SIM_REPLICATES)
            if not abs(float(r["bias"])) <= SIM_BIAS_SE * se:
                failures.append(f"{cell}: |bias| {r['bias']} > {SIM_BIAS_SE} x SE {se:.3g}")
            lo, hi = SIM_ALPHA_RANGE
            if not lo <= float(r["alpha_realized"]) <= hi:
                failures.append(f"{cell}: alpha {r['alpha_realized']} outside [{lo}, {hi}]")
    if reference_path is not None:
        for r, ref in zip(rows, _read_rows(reference_path)):
            for col, want in ref.items():
                got = r[col]
                if col == "estimator" or want == "nan":
                    same = got == want
                else:
                    same = abs(float(got) - float(want)) <= SIM_REF_ATOL
                if not same:
                    failures.append(f"sweep: {col}={got} differs from reference {want}")
    return failures


def reml_cov(h, sigma2_A, sigma2_eps, lam1, lam2) -> np.ndarray:
    """V = sigma2_eps Sigma(lam1, lam2) + sigma2_A XX' for the schedule h."""
    return sigma2_eps * exp_nugget_corr(len(h), lam1, lam2) + sigma2_A * np.equal.outer(h, h)


def reml_loglik(y, h, sigma2_A, sigma2_eps, lam1, lam2) -> float:
    """Restricted log-likelihood of y ~ N(mu 1, V), V = reml_cov(...), with the
    constant 1/2 log T of the intercept left out as the program leaves it out."""
    T = len(y)
    L = np.linalg.cholesky(reml_cov(h, sigma2_A, sigma2_eps, lam1, lam2))
    W = np.linalg.solve(L, np.column_stack([y, np.ones(T)]))
    s_yy, s_y1, s_11 = W[:, 0] @ W[:, 0], W[:, 0] @ W[:, 1], W[:, 1] @ W[:, 1]
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return -0.5 * (
        (T - 1) * math.log(2.0 * math.pi) + logdet + math.log(s_11) + s_yy - s_y1**2 / s_11
    )


def reml_profiled_loglik(y, h, gamma, lam1, lam2) -> float:
    """reml_loglik at the noise scale that maximizes it for fixed
    gamma = sigma2_A / sigma2_eps and correlation parameters."""
    T = len(y)
    V = exp_nugget_corr(T, lam1, lam2) + gamma * np.equal.outer(h, h)
    W = np.linalg.solve(np.linalg.cholesky(V), np.column_stack([y, np.ones(T)]))
    quad = W[:, 0] @ W[:, 0] - (W[:, 0] @ W[:, 1]) ** 2 / (W[:, 1] @ W[:, 1])
    s2 = quad / (T - 1)
    return reml_loglik(y, h, gamma * s2, s2, lam1, lam2)


def check_reml(fits, inputs, reference=None) -> list:
    """Check each fit and set its ``loglik_gap`` to the best known point.

    The dense recomputation at the returned parameters must match the
    reported log-likelihood.  A converged fit must also be no worse than the
    generating parameters, nor than the stored reference optimum when one
    covers the series.  A better optimum passes.
    """
    h, values, s2A = inputs["h"], inputs["values"], inputs["sigma2_A"]
    failures = []
    for f in fits:
        if f["status"] != "ok":
            continue
        i = f["index"]
        tag = f"reml: series {i}"
        y = values[:, i]
        try:
            ll = reml_loglik(y, h, f["sigma2_A"], f["sigma2_eps"], *f["theta"])
        except np.linalg.LinAlgError:
            failures.append(f"{tag}: covariance at the returned parameters is not positive definite")
            continue
        known = [reml_profiled_loglik(y, h, s2A[i], LAM1, LAM2)]
        if reference is not None and str(i) in reference:
            known.append(reference[str(i)])
        cond = np.linalg.cond(reml_cov(h, f["sigma2_A"], f["sigma2_eps"], *f["theta"]))
        rounding = len(y) * cond * np.finfo(float).eps
        if not abs(ll - f["loglik"]) <= REML_REPORT_TOL + rounding:
            failures.append(f"{tag}: reported loglik {f['loglik']!r}, dense {ll!r}")
        if f["converged"] and not ll >= max(known) - REML_OPT_TOL - rounding:
            failures.append(f"{tag}: loglik {ll:.6f} below best known {max(known):.6f}")
        f["loglik_gap"] = float(max(known + [ll]) - ll)
    return failures

