"""Restricted maximum likelihood for the two-component model.

The model is ``cov(Y) = sigma2_A * XX' + sigma2_eps * Sigma(theta)`` with a
global intercept as the only fixed effect.  The restricted likelihood is
profiled over ``sigma2_eps`` and maximized with a derivative-free simplex
search over the variance ratio and the correlation parameters:

- ``iid``:         no correlation parameters;
- ``exp_nugget``:  (lam1, lam2) via logit / log transforms;
- ``ar``:          raw coefficients, non-stationary proposals rejected with
  an infinite objective.

Each evaluation is O(T m) plus an m x m Cholesky: the noise precision is
banded (:meth:`CovarianceModel.precision_solve`) and ``XX'`` has rank m, so
the Woodbury identity and the determinant lemma reduce ``V`` to an m x m
problem (the low-rank trick of FaST-LMM).  The reported noise level comes
from the fitted autocorrelations (:func:`stationary_noise_level`), so no
T x T matrix is formed at any point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import minimize

from .design import DesignSchedule, ms_between
from .estimators import REML_FAMILIES, VarianceEstimate, _finish
from .noise import CovarianceModel, NonStationary, stationary_noise_level

_BIG = 1e12


class AllStartsFailed(RuntimeError):
    """No optimizer start produced a finite restricted likelihood."""


@dataclass(frozen=True)
class RemlFit:
    """Fitted variance components and correlation parameters."""

    sigma2_A: float
    sigma2_eps: float
    theta: Tuple[float, ...]
    family: str
    log_restricted_likelihood: float
    converged: bool
    iterations: int
    n_starts: int


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _logit(p: float) -> float:
    p = min(max(p, 1e-6), 1.0 - 1e-6)
    return math.log(p / (1.0 - p))


class _RemlProblem:
    """Caches design quantities and evaluates the profiled REML objective.

    A point ``x`` is ``(log gamma, transformed correlation parameters)``
    with ``gamma = sigma2_A / sigma2_eps``.
    """

    def __init__(self, y: np.ndarray, design: DesignSchedule, family: str, ar_order: int):
        self.family = family
        self.ar_order = ar_order
        self.T, self.m, self.n = design.T, design.m, design.n
        # B = [X, y, 1] with X the T x m stimulus indicator.
        # Column-major, as the banded solvers take it.
        self.B = np.asfortranarray(
            np.column_stack([np.eye(self.m)[design.stimulus_index], y, np.ones(self.T)])
        )
        # Slots sorted by stimulus: X'Z is a sum over n consecutive rows.
        self.order = design.stimulus_groups().ravel()

    def model(self, theta: Sequence[float]) -> CovarianceModel:
        """Noise correlation at transformed parameters ``theta``."""
        if self.family == "exp_nugget":
            return CovarianceModel.exp_nugget(_sigmoid(theta[0]), math.exp(theta[1]))
        return CovarianceModel(self.family, tuple(float(v) for v in theta))

    def profile(self, x: np.ndarray):
        """Profile out sigma2_eps at V = Sigma(theta) + gamma XX'.

        With ``G = B' Sigma^-1 B`` split into ``C = X' Sigma^-1 X``,
        ``D = X' Sigma^-1 [y, 1]`` and ``E = [y, 1]' Sigma^-1 [y, 1]``, the
        Woodbury identity and the determinant lemma give
        ``[y, 1]' V^-1 [y, 1] = E - gamma D' H^-1 D`` and
        ``log det V = log det Sigma + log det H`` with the m x m
        ``H = I + gamma C``.

        Returns ``(gamma, model, quad, logdet, s_11)``, or None where the
        objective is infinite (non-stationary AR, a factor not positive
        definite, or a non-positive residual quadratic form).
        """
        gamma = math.exp(min(x[0], 40.0))
        model = self.model(x[1:])
        try:
            Z, logdet_sigma = model.precision_solve(self.B)
        except (NonStationary, np.linalg.LinAlgError):
            return None
        m = self.m
        XtZ = Z[self.order].reshape(m, self.n, m + 2).sum(axis=1)
        H = gamma * XtZ[:, :m]
        H.flat[:: m + 1] += 1.0
        L, info = lapack.dpotrf(H, lower=1)
        if info != 0:
            return None
        W, _ = lapack.dtrtrs(L, XtZ[:, m:], lower=1)
        s = self.B[:, m:].T @ Z[:, m:] - gamma * (W.T @ W)
        logdet = logdet_sigma + 2.0 * float(np.sum(np.log(np.diag(L))))
        s_yy, s_y1, s_11 = float(s[0, 0]), float(s[0, 1]), float(s[1, 1])
        if s_11 <= 0:
            return None
        quad = s_yy - s_y1**2 / s_11
        if not np.isfinite(quad) or quad <= 0:
            return None
        return gamma, model, quad, logdet, s_11

    def objective(self, x: np.ndarray) -> float:
        """-2 * profiled restricted log-likelihood, up to an additive constant."""
        parts = self.profile(x)
        if parts is None:
            return _BIG
        _, _, quad, logdet, s_11 = parts
        return (self.T - 1) * math.log(quad) + logdet + math.log(s_11)


def _initial_points(problem: _RemlProblem, msb: float, rng, n_starts):
    guess = max(msb / 2.0, 1e-3)
    base_gamma = math.log(guess)
    if problem.family == "iid":
        base = [base_gamma]
        jitter_scale = [1.0]
    elif problem.family == "exp_nugget":
        base = [base_gamma, _logit(0.5), math.log(10.0)]
        jitter_scale = [1.0, 1.5, 1.0]
    else:  # ar
        p = problem.ar_order
        base = [base_gamma] + [0.0] * p
        jitter_scale = [1.0] + [0.3] * p
    points = [np.asarray(base, dtype=float)]
    for _ in range(n_starts - 1):
        points.append(
            points[0] + rng.normal(0.0, 1.0, len(base)) * np.asarray(jitter_scale)
        )
    return points


def reml_estimate(
    y,
    design: DesignSchedule,
    family: str = "exp_nugget",
    n_starts: int = 5,
    max_evals: int = 2000,
    xatol: float = 1e-8,
    seed: int = 0,
    ar_order: int = 3,
) -> Tuple[RemlFit, VarianceEstimate]:
    """Fit the two-component model by REML and report the decomposition.

    Multi-start Nelder-Mead over transformed parameters; the best
    finite-objective vertex wins, ties broken by the lowest start index,
    unless it stopped on its evaluation budget and a converged start is
    within ``xatol`` of it (at a boundary optimum they can differ by one
    rounding).  A fit whose winning start exhausted its budget is returned
    with ``converged=False`` rather than raising.

    Raises
    ------
    AllStartsFailed
        If no start yields a finite restricted likelihood.
    """
    if family not in REML_FAMILIES:
        raise ValueError(f"unsupported REML family {family!r}")
    if family == "ar" and not 1 <= ar_order <= 3:
        raise ValueError(f"AR order must be in 1..3, got {ar_order}")

    vals = np.asarray(y, dtype=float)
    if vals.ndim != 1:
        raise ValueError("REML fits one series; run_estimator fits each column")
    problem = _RemlProblem(vals, design, family, ar_order)
    total = ms_between(vals, design)
    rng = np.random.default_rng(seed)
    starts = _initial_points(problem, total, rng, n_starts)

    finite = []
    total_evals = 0
    for x0 in starts:
        res = minimize(
            problem.objective,
            x0,
            method="Nelder-Mead",
            options={
                "xatol": xatol,
                "fatol": xatol,
                "maxfev": max_evals,
                "adaptive": len(x0) > 2,
            },
        )
        total_evals += res.nfev
        if np.isfinite(res.fun) and res.fun < _BIG:
            finite.append(res)
    if not finite:
        raise AllStartsFailed("no start produced a finite restricted likelihood")
    best = min(finite, key=lambda r: r.fun)  # the lowest start index among ties
    if not best.success:
        near = [r for r in finite if r.success and r.fun - best.fun <= xatol]
        best = min(near, key=lambda r: r.fun, default=best)

    # The winning vertex had a finite objective, so it profiles.
    gamma, model, quad, logdet, s_11 = problem.profile(best.x)
    sigma2_eps = quad / (problem.T - 1)
    sigma2_A = gamma * sigma2_eps
    loglik = -0.5 * (
        (problem.T - 1) * (math.log(2.0 * math.pi * sigma2_eps) + 1.0)
        + logdet
        + math.log(s_11)
    )
    fit = RemlFit(
        sigma2_A=sigma2_A,
        sigma2_eps=sigma2_eps,
        theta=model.params,
        family=family,
        log_restricted_likelihood=loglik,
        converged=bool(best.success),
        iterations=total_evals,
        n_starts=n_starts,
    )

    flags = () if fit.converged else ("non_converged",)
    estimate = _finish(
        f"reml:{family}", sigma2_A, total, extra_flags=flags
    )
    # Report the model-based noise level instead of the residual total - raw.
    level = stationary_noise_level(model, design, sigma2_eps)
    return fit, replace(estimate, noise_level=level)
