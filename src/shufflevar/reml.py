"""Restricted maximum likelihood for the two-component model.

The model is ``cov(Y) = sigma2_A * XX' + sigma2_eps * Sigma(theta)`` with a
global intercept as the only fixed effect.  The restricted likelihood is
profiled over ``sigma2_eps`` and maximized by L-BFGS (Liu & Nocedal 1989)
on its exact score, over the log variance ratio and the correlation
parameters:

- ``iid``:         no correlation parameters;
- ``exp_nugget``:  (lam1, lam2) via logit / log transforms;
- ``ar``:          raw coefficients, non-stationary points rejected with
  an infinite objective.

Each evaluation of the objective and its score is O(T m) plus m x m
factorizations: the noise precision is banded
(:meth:`CovarianceModel.precision_solve`), its derivatives are banded
solves too (:meth:`CovarianceModel.precision_derivatives`), and ``XX'`` has
rank m, so the Woodbury identity and the determinant lemma reduce ``V`` to
an m x m problem (the low-rank trick of FaST-LMM).  The score has the
structure of average-information REML (Gilmour, Thompson & Cullis 1995).
The reported noise level comes from the fitted autocorrelations through
the lag counts of :func:`~shufflevar.noise.noise_level`, so no T x T matrix
is formed at any point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .design import DesignSchedule, ms_between
from .estimators import REML_FAMILIES, VarianceEstimate, _finish
from .noise import CovarianceModel, NonStationary, noise_level

_BIG = 1e12
_MAX_STEP = 10.0
# A step predicted to lower the objective by less than this share of it is
# below the objective's rounding (about T ulps of its terms).
_FLAT = 1e-14


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
    """Caches design quantities and evaluates the profiled REML objective
    and its score.

    A point ``x`` is ``(log gamma, transformed correlation parameters)``
    with ``gamma = sigma2_A / sigma2_eps``.
    """

    def __init__(self, y: np.ndarray, design: DesignSchedule, family: str, ar_order: int):
        self.family = family
        self.ar_order = ar_order
        self.T, self.m, self.n = design.T, design.m, design.n
        self.h = design.stimulus_index
        # B = [X, y, 1] with X the T x m stimulus indicator.
        # Column-major, as the banded solvers take it.
        self.B = np.asfortranarray(
            np.column_stack([np.eye(self.m)[self.h], y, np.ones(self.T)])
        )
        # [X, Sigma u, Sigma a] for the score, refilled at each point.
        self.U = self.B.copy(order="F")
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

        Returns ``(gamma, model, quad, logdet, s_11)`` and the intermediates
        the score reuses, or None where the objective is infinite
        (parameters out of floating-point range, non-stationary AR, a factor
        not positive definite, or a non-positive residual quadratic form).
        """
        from scipy.linalg import lapack

        try:
            gamma = math.exp(min(x[0], 40.0))
            model = self.model(x[1:])
            Z, logdet_sigma, MB = model.precision_solve(self.B)
        except (ArithmeticError, NonStationary, np.linalg.LinAlgError):
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
        if not (math.isfinite(quad) and math.isfinite(logdet)) or quad <= 0:
            return None
        return gamma, model, quad, logdet, s_11, (Z, MB, XtZ, L, W, s_y1 / s_11)

    def objective(self, x: np.ndarray) -> float:
        """-2 * profiled restricted log-likelihood, up to an additive constant."""
        parts = self.profile(x)
        if parts is None:
            return _BIG
        _, _, quad, logdet, s_11, _ = parts
        return (self.T - 1) * math.log(quad) + logdet + math.log(s_11)

    def objective_and_score(self, x: np.ndarray):
        """``(objective, its gradient in x)`` from one profile; ``(_BIG, None)``
        where the objective or the score is not finite.

        With P the REML projection, ``u = P y`` and ``a = V^-1 1``, the
        derivative in x_j is ``tr(P dV_j) - (T - 1) u' dV_j u / y'P y`` with
        ``tr(P dV_j) = tr(V^-1 dV_j) - a' dV_j a / s_11``.
        ``X'V^-1 = H^-1 X'Sigma^-1`` and ``Sigma V^-1 = I - gamma X X'V^-1``
        keep every term O(T m) with no T x T matrix:

        - for log gamma, ``dV = gamma XX'``, ``tr(X'V^-1 X) = tr(H^-1 C)``,
          ``X'a = H^-1 d_1`` and ``X'u = H^-1 (d_y - beta d_1)``;
        - for a correlation parameter, ``tr(V^-1 dSigma) = d log det Sigma -
          gamma tr(H^-1 X'N X)`` and ``w' dSigma w = (Sigma w)' N (Sigma w)``
          for ``w = a, u``, where ``N = Sigma^-1 dSigma Sigma^-1`` and the
          three forms come from one :meth:`CovarianceModel.precision_derivatives`.
        """
        from scipy.linalg import lapack

        with np.errstate(all="ignore"):
            parts = self.profile(x)
            if parts is None:
                return _BIG, None
            gamma, model, quad, logdet, s_11, (Z, MB, XtZ, L, W, beta) = parts
            T, m, h = self.T, self.m, self.h
            f = (T - 1) * math.log(quad) + logdet + math.log(s_11)
            G, _ = lapack.dtrtrs(L, W, lower=1, trans=1)  # H^-1 D
            G_ua = np.column_stack([G[:, 0] - beta * G[:, 1], G[:, 1]])
            u_X, a_X = G_ua.T  # X'u, X'a
            # Not dpotri: its rounding depends on the BLAS thread count, which
            # flat fits amplify.  dpotrs on the identity rounds alike at any count.
            H_inv, _ = lapack.dpotrs(L, np.eye(m), lower=1)
            score = np.empty(len(x))
            score[0] = gamma * (
                float(np.sum(H_inv * XtZ[:, :m]))
                - float(a_X @ a_X) / s_11
                - (T - 1) * float(u_X @ u_X) / quad
            ) if x[0] < 40.0 else 0.0
            if len(x) > 1:
                # Sigma u = y - beta 1 - gamma X X'u and Sigma a = 1 - gamma X X'a
                # combine B's columns, so the same combinations, in place,
                # turn the solves of B into those of U = [X, Sigma u, Sigma a].
                U = self.U
                U[:, m] = self.B[:, m] - beta - gamma * u_X[h]
                U[:, m + 1] = 1.0 - gamma * a_X[h]
                for S in (Z, MB) if MB is not None else (Z,):
                    S_ua = gamma * (S[:, :m] @ G_ua)
                    S[:, m] -= beta * S[:, m + 1] + S_ua[:, 0]
                    S[:, m + 1] -= S_ua[:, 1]
                V = np.empty_like(U)
                V[:, :m] = (gamma * H_inv)[:, h].T  # gamma X H^-1
                V[:, m] = (T - 1) / quad * U[:, m]
                V[:, m + 1] = U[:, m + 1] / s_11
                dlogdet, forms = model.precision_derivatives(U, Z, MB, V)
                score[1:] = dlogdet - forms
        if not (math.isfinite(f) and np.all(np.isfinite(score))):
            return _BIG, None
        return f, score


class _Start(NamedTuple):
    """Where one optimizer start stopped."""

    x: np.ndarray
    fun: float
    success: bool
    nfev: int


def _lbfgs(fun, x0, max_evals: int, tol: float, memory: int = 10) -> _Start:
    """Minimize ``fun`` from ``x0`` by L-BFGS (Liu & Nocedal 1989).

    ``fun(x)`` returns ``(f, gradient)``, with ``f >= _BIG`` outside the
    domain.  Each step backtracks from the quasi-Newton step (the first
    from a unit step along the negative gradient), at most ``_MAX_STEP``
    long in every coordinate, until f falls by the Armijo fraction of the
    predicted decrease.  A start converges when the gradient's largest
    component is at most ``tol``, or where f is flat to rounding: when the
    step predicts a decrease below ``_FLAT * max(1, |f|)``, or when no
    step longer than ``tol`` in its largest coordinate lowers f.  It stops
    unconverged after ``max_evals`` calls of ``fun``.
    """
    x = np.asarray(x0, dtype=float)
    f, g = fun(x)
    nfev = 1
    if f >= _BIG:
        return _Start(x, f, False, nfev)
    pairs = []
    while np.max(np.abs(g)) > tol:
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d = d - alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            d = d * ((s @ y) / (y @ y))
        else:
            d = d / np.max(np.abs(d))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d = d + (alpha - rho * (y @ d)) * s
        slope = g @ d
        if not slope < 0:  # rounding spoiled the model: restart from the gradient
            pairs.clear()
            d = -g / np.max(np.abs(g))
            slope = g @ d
        if -slope <= _FLAT * max(1.0, abs(f)):
            return _Start(x, f, True, nfev)
        t = min(1.0, _MAX_STEP / np.max(np.abs(d)))
        while True:
            if nfev >= max_evals:
                return _Start(x, f, False, nfev)
            f_new, g_new = fun(x + t * d)
            nfev += 1
            if f_new < f and f_new <= f + 1e-4 * t * slope:
                break
            if t * np.max(np.abs(d)) <= tol:
                return _Start(x, f, True, nfev)
            # Minimum of the quadratic through f, slope and f_new, kept in [t/10, t/2].
            t = min(max(-slope * t * t / (2.0 * (f_new - f - slope * t)), 0.1 * t), 0.5 * t)
        s, y = t * d, g_new - g
        if s @ y > 0:
            pairs = (pairs + [(s, y, 1.0 / (s @ y))])[-memory:]
        x, f, g = x + s, f_new, g_new
    return _Start(x, f, True, nfev)


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

    Multi-start L-BFGS over transformed parameters (:func:`_lbfgs`); the
    start with the lowest finite objective wins, ties broken by the lowest
    start index, unless it stopped on its evaluation budget and a converged
    start is within ``xatol`` of it (at a boundary optimum they can differ
    by one rounding).  A fit whose winning start exhausted its budget is
    returned with ``converged=False`` rather than raising.

    ``max_evals`` caps each start's calls of the objective-and-score.
    ``xatol`` is the convergence tolerance: a start converges once every
    component of the score (the gradient of -2 log-likelihood in the
    transformed parameters) is at most ``xatol``, or once the objective is
    flat to rounding (no step longer than ``xatol`` lowers it, or the next
    step predicts less than its rounding).  ``RemlFit.iterations`` counts
    the objective-and-score calls of all starts.

    Raises
    ------
    AllStartsFailed
        If no start yields a finite restricted likelihood.
    """
    if family not in REML_FAMILIES:
        raise ValueError(f"unsupported REML family {family!r}")
    if family == "ar" and not 1 <= ar_order <= 3:
        raise ValueError(f"AR order must be in 1..3, got {ar_order}")
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")

    vals = np.asarray(y, dtype=float)
    if vals.ndim != 1:
        raise ValueError("REML fits one series; run_estimator fits each column")
    problem = _RemlProblem(vals, design, family, ar_order)
    total = ms_between(vals, design)
    rng = np.random.default_rng(seed)
    starts = _initial_points(problem, total, rng, n_starts)

    results = [_lbfgs(problem.objective_and_score, x0, max_evals, xatol) for x0 in starts]
    finite = [r for r in results if r.fun < _BIG]
    if not finite:
        raise AllStartsFailed("no start produced a finite restricted likelihood")
    best = min(finite, key=lambda r: r.fun)  # the lowest start index among ties
    if not best.success:
        near = [r for r in finite if r.success and r.fun - best.fun <= xatol]
        best = min(near, key=lambda r: r.fun, default=best)

    # The winning vertex had a finite objective, so it profiles.
    gamma, model, quad, logdet, s_11, _ = problem.profile(best.x)
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
        iterations=sum(r.nfev for r in results),
        n_starts=n_starts,
    )

    flags = () if fit.converged else ("non_converged",)
    estimate = _finish(
        f"reml:{family}", sigma2_A, total, extra_flags=flags
    )
    # Report the model-based noise level instead of the residual total - raw.
    level = noise_level(model, design, sigma2_eps)
    return fit, replace(estimate, noise_level=level)
