"""Restricted maximum likelihood for the two-component model.

The model is ``cov(Y) = sigma2_A * XX' + sigma2_eps * Sigma(theta)`` with a
global intercept as the only fixed effect.  The restricted likelihood is
profiled over ``sigma2_eps`` and maximized by L-BFGS (Liu & Nocedal 1989)
on its exact score, over the log variance ratio and the correlation
parameters, in the chart and from the start their precision object carries:

- ``iid``:         no correlation parameters;
- ``exp_nugget``:  (lam1, lam2) via logit / log transforms;
- ``ar``:          raw coefficients, non-stationary points rejected with
  an infinite objective.

Each evaluation of the objective and its score costs one banded solve of
the m + 2 columns ``[X, y, 1]`` and m x m factorizations: the noise
precision is banded, one precision object per fit solves with it and then
gives the derivatives from what the solve kept
(:class:`~shufflevar.noise._ExpNuggetPrecision` for exp_nugget,
:class:`~shufflevar.noise._ArPrecision` for ar, and for iid at order 0),
and ``XX'`` has rank m, so the Woodbury identity and the determinant lemma
reduce ``V`` to an m x m problem (the low-rank trick of FaST-LMM).  The
score's right-hand columns ``X gamma H^-1`` need no second solve of m
columns: their solve is the first one's times the m x m ``gamma H^-1``, one
matrix product.  The score has the structure of average-information REML
(Gilmour, Thompson & Cullis 1995).  The reported noise level comes from the fitted autocorrelations
through the lag counts of :func:`~shufflevar.noise.noise_level`, so no
T x T matrix is formed at any point.

The fixed cost of an evaluation matters as much as its O(T m) work at the
sizes fitted here, so it makes few, large numpy and LAPACK calls.  For
exp_nugget at T = 216, m = 36, one evaluation takes about 0.25 ms (2-vCPU
box, OpenBLAS on one thread).  The banded solve (``dpttrs``, bound by the
latency of its recurrence) is about 60 us of that.  Most of the rest is
about ten passes over T x (m + 2) arrays: Sigma^-1 B from M^-1 B, the
gather of X' Sigma^-1 B, the product ``(M^-1 U) K``, one row difference of
the three stacked arrays the derivative forms read, and one ``einsum`` for
their four sums of products.  The m x m work is a ``dpotrf``, two
triangular solves and two products.  An ar(3) evaluation takes about
0.31 ms, most of the difference being its p x p set-up.  Every array an evaluation writes
belongs to its :class:`_RemlProblem`.  LAPACK routines are looked up once
per fit, floating-point warnings are silenced once per fit, and the
optimizer's bookkeeping runs on Python floats.  Every long reduction runs in
an order that no BLAS thread count changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import fsum
from operator import mul
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .design import DesignSchedule, ms_between
from .estimators import REML_FAMILIES, VarianceEstimate, _finish
from .noise import CovarianceModel, NonStationary, _ArPrecision, _ExpNuggetPrecision
from .noise import _lapack, noise_level

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


class _RemlProblem:
    """Caches design quantities and evaluates the profiled REML objective
    and its score.

    A point ``x`` is ``(log gamma, the correlation parameters in the
    precision object's chart)`` with ``gamma = sigma2_A / sigma2_eps``.
    Every array an evaluation writes is kept from one point to the next.
    """

    def __init__(self, y: np.ndarray, design: DesignSchedule, family: str, ar_order: int):
        lapack = _lapack()
        self.dpotrf, self.dtrtrs = lapack.dpotrf, lapack.dtrtrs
        T, m = design.T, design.m
        self.T, self.m, self.n = T, m, design.n
        # B = [X, y, 1] with X the T x m stimulus indicator.
        # Column-major, as the banded solvers take it.
        self.B = B = np.asfortranarray(
            np.column_stack([np.eye(m)[design.stimulus_index], y, np.ones(T)])
        )
        p = ar_order if family == "ar" else 0  # iid is ar of order 0
        self.precision = _ExpNuggetPrecision(B) if family == "exp_nugget" else _ArPrecision(B, p)
        # R and K of the score, whose blocks are refilled at each point.
        self.R = np.zeros((m + 2, 2))
        self.R[m:] = np.eye(2)
        self.K = np.zeros((m + 2, m + 2))
        self.H = np.empty((m, m), order="F")
        self.H_diag = self.H.T.reshape(-1)[:: m + 1]  # a view
        self.eye = np.eye(m, order="F")
        # Slots by repeat, then stimulus: X'Z is a sum of n blocks of m rows.
        self.order = design.stimulus_groups().T.ravel()

    def profile(self, x: Sequence[float]):
        """Profile out sigma2_eps at V = Sigma(theta) + gamma XX'.

        With ``G = B' Sigma^-1 B`` split into ``C = X' Sigma^-1 X``,
        ``D = X' Sigma^-1 [y, 1]`` and ``E = [y, 1]' Sigma^-1 [y, 1]``, the
        Woodbury identity and the determinant lemma give
        ``[y, 1]' V^-1 [y, 1] = E - gamma D' H^-1 D`` and
        ``log det V = log det Sigma + log det H`` with the m x m
        ``H = I + gamma C``.

        Returns ``(gamma, theta, quad, logdet, s_11)``, theta the model's
        correlation parameters, and the intermediates the score reuses, or
        None where the objective is infinite (parameters out of
        floating-point range, non-stationary AR, a factor not positive
        definite, or a non-positive residual quadratic form).
        """
        try:
            gamma = math.exp(min(x[0], 40.0))
            theta = self.precision.params(x[1:])
            logdet_sigma = self.precision.solve(*theta)
        except (ArithmeticError, NonStationary, np.linalg.LinAlgError):
            return None
        Z, m = self.precision.SU, self.m
        XtZ = Z[self.order].reshape(self.n, m, m + 2).sum(axis=0)
        np.multiply(XtZ[:, :m], gamma, out=self.H)
        self.H_diag += 1.0
        L, info = self.dpotrf(self.H, lower=1, overwrite_a=1)
        if info != 0:
            return None
        W, _ = self.dtrtrs(L, XtZ[:, m:], lower=1)
        (s_yy, s_y1), (_, s_11) = (self.B[:, m:].T @ Z[:, m:] - gamma * (W.T @ W)).tolist()
        logdet = logdet_sigma + 2.0 * float(np.log(L.diagonal()).sum())
        if s_11 <= 0:
            return None
        quad = s_yy - s_y1**2 / s_11
        if not (math.isfinite(quad) and math.isfinite(logdet)) or quad <= 0:
            return None
        return gamma, theta, quad, logdet, s_11, (XtZ, L, W, s_y1 / s_11)

    def objective_and_score(self, x: Sequence[float]):
        """``(objective, its gradient in x as a list)`` from one profile, the
        objective -2 * the profiled restricted log-likelihood up to a constant;
        ``(_BIG, None)`` where the objective or the score is not finite.

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
          three forms come from one call of the precision object's
          ``derivatives`` over the columns of ``U = [X, Sigma u, Sigma a]``
          and ``U K`` for the block-diagonal
          ``K = diag(gamma H^-1, (T - 1) / quad, 1 / s_11)``.

        Floating-point warnings are not silenced here; :func:`reml_estimate`
        silences them once per fit.
        """
        parts = self.profile(x)
        if parts is None:
            return _BIG, None
        gamma, theta, quad, logdet, s_11, (XtZ, L, W, beta) = parts
        T, m = self.T, self.m
        f = (T - 1) * math.log(quad) + logdet + math.log(s_11)
        # Not dpotri: its rounding depends on the BLAS thread count, which
        # flat fits amplify.  A triangular solve and products whose inner
        # dimension is m round alike at any count.
        L_inv, _ = self.dtrtrs(L, self.eye, lower=1)
        H_inv, G = L_inv.T @ L_inv, L_inv.T @ W  # H^-1 and H^-1 D
        G[:, 0] -= beta * G[:, 1]
        uu, aa = np.einsum("ij,ij->j", G, G).tolist()  # |X'u|^2, |X'a|^2
        tr = float(np.einsum("ij,ij->", H_inv, XtZ[:, :m]))  # tr(H^-1 C)
        score = [
            gamma * (tr - aa / s_11 - (T - 1) * uu / quad) if x[0] < 40.0 else 0.0
        ]
        if len(x) > 1:
            # Sigma u = y - beta 1 - gamma X X'u and Sigma a = 1 - gamma X X'a
            # are B R for an (m + 2) x 2 R, so U = [X, B R].
            R, K = self.R, self.K
            np.multiply(G, -gamma, out=R[:m])
            R[m + 1, 0] = -beta
            np.multiply(H_inv, gamma, out=K[:m, :m])
            K[m, m] = (T - 1) / quad
            K[m + 1, m + 1] = 1.0 / s_11
            dlogdet, forms = self.precision.derivatives(R, K)
            score += [float(d - g) for d, g in zip(dlogdet, forms)]
        if not (math.isfinite(f) and all(map(math.isfinite, score))):
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

    ``fun(x)`` returns ``(f, gradient)``, the gradient a list, with
    ``f >= _BIG`` outside the domain.  Each step backtracks from the
    quasi-Newton step (the first from a unit step along the negative
    gradient), at most ``_MAX_STEP`` long in every coordinate, until f
    falls by the Armijo fraction of the predicted decrease.  A start
    converges when the gradient's largest component is at most ``tol``, or
    where f is flat to rounding: when the step predicts a decrease below
    ``_FLAT * max(1, |f|)``, or when no step longer than ``tol`` in its
    largest coordinate lowers f.  It stops unconverged after ``max_evals``
    calls of ``fun``.

    The vectors have a handful of entries, so the bookkeeping runs on
    Python floats, where numpy's per-call overhead would dominate.
    """
    x = [float(v) for v in x0]
    f, g = fun(x)
    nfev = 1
    if f >= _BIG:
        return _Start(np.array(x), f, False, nfev)
    pairs = []
    while max(map(abs, g)) > tol:
        # Two-loop recursion; inner products are correctly rounded (fsum),
        # as ``sum`` rounds differently from Python 3.12 on.
        d = [-v for v in g]
        alphas = []
        for s, y, rho in reversed(pairs):
            alpha = rho * fsum(map(mul, s, d))
            alphas.append(alpha)
            d = [p - alpha * q for p, q in zip(d, y)]
        if pairs:
            s, y, _ = pairs[-1]
            scale = fsum(map(mul, s, y)) / fsum(map(mul, y, y))
            d = [v * scale for v in d]
        else:
            longest = max(map(abs, d))
            d = [v / longest for v in d]
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            beta = alpha - rho * fsum(map(mul, y, d))
            d = [p + beta * q for p, q in zip(d, s)]
        slope = fsum(map(mul, g, d))
        if not slope < 0:  # rounding spoiled the model: restart from the gradient
            pairs.clear()
            longest = max(map(abs, g))
            d = [-v / longest for v in g]
            slope = fsum(map(mul, g, d))
        if -slope <= _FLAT * max(1.0, abs(f)):
            return _Start(np.array(x), f, True, nfev)
        longest = max(map(abs, d))
        t = min(1.0, _MAX_STEP / longest)
        while True:
            if nfev >= max_evals:
                return _Start(np.array(x), f, False, nfev)
            f_new, g_new = fun([p + t * q for p, q in zip(x, d)])
            nfev += 1
            if f_new < f and f_new <= f + 1e-4 * t * slope:
                break
            if t * longest <= tol:
                return _Start(np.array(x), f, True, nfev)
            # Minimum of the quadratic through f, slope and f_new, kept in [t/10, t/2].
            t = min(max(-slope * t * t / (2.0 * (f_new - f - slope * t)), 0.1 * t), 0.5 * t)
        s = [t * v for v in d]
        y = [a - b for a, b in zip(g_new, g)]
        sy = fsum(map(mul, s, y))
        if sy > 0:
            pairs = (pairs + [(s, y, 1.0 / sy)])[-memory:]
        x, f, g = [a + b for a, b in zip(x, s)], f_new, g_new
    return _Start(np.array(x), f, True, nfev)


def _initial_points(precision, msb: float, rng, n_starts: int):
    """The first start at ``gamma = max(msb / 2, 1e-3)`` and the precision
    object's ``start``; each other adds normal jitter scaled by ``(1, *jitter)``."""
    base = np.array([math.log(max(msb / 2.0, 1e-3)), *precision.start])
    scale = np.array([1.0, *precision.jitter])
    return [base] + [base + rng.normal(0.0, 1.0, len(base)) * scale for _ in range(n_starts - 1)]


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
    ValueError
        For an unknown family or AR order, an AR order above T,
        ``n_starts`` or ``max_evals`` below 1, or an ``xatol`` that is not
        finite and positive.
    AllStartsFailed
        If no start yields a finite restricted likelihood.
    """
    if family not in REML_FAMILIES:
        raise ValueError(f"unsupported REML family {family!r}")
    if family == "ar" and not 1 <= ar_order <= 3:
        raise ValueError(f"AR order must be in 1..3, got {ar_order}")
    if family == "ar" and design.T < ar_order:
        raise ValueError(f"AR order {ar_order} needs T >= {ar_order}, got T = {design.T}")
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    if max_evals < 1:
        raise ValueError(f"max_evals must be at least 1, got {max_evals}")
    if not 0 < xatol < math.inf:
        # max|g| > nan is False: every start would stop where it began.
        raise ValueError(f"xatol must be finite and positive, got {xatol}")

    vals = np.asarray(y, dtype=float)
    if vals.ndim != 1:
        raise ValueError("REML fits one series; run_estimators fits each column")
    problem = _RemlProblem(vals, design, family, ar_order)
    total = ms_between(vals, design)
    rng = np.random.default_rng(seed)
    starts = _initial_points(problem.precision, total, rng, n_starts)

    # Points far out overflow and are scored as outside the domain.
    with np.errstate(all="ignore"):
        results = [_lbfgs(problem.objective_and_score, x0, max_evals, xatol) for x0 in starts]
        finite = [r for r in results if r.fun < _BIG]
        if not finite:
            raise AllStartsFailed("no start produced a finite restricted likelihood")
        best = min(finite, key=lambda r: r.fun)  # the lowest start index among ties
        if not best.success:
            near = [r for r in finite if r.success and r.fun - best.fun <= xatol]
            best = min(near, key=lambda r: r.fun, default=best)
        # The winning vertex had a finite objective, so it profiles.
        gamma, theta, quad, logdet, s_11, _ = problem.profile(best.x)
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
        theta=theta,
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
    level = noise_level(CovarianceModel(family, theta), design, sigma2_eps)
    return fit, replace(estimate, noise_level=level)
