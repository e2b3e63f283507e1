"""Parametric noise covariance families and synthetic experiment sampling.

Supported families:

- ``iid``          -- white noise, identity correlation.
- ``exp_nugget``   -- exponentially decaying stationary correlation with a
  discontinuous-at-zero (nugget) component.
- ``block``        -- additive session effect: constant covariance within a
  block plus white noise on the diagonal.
- ``ar``           -- stationary autoregressive correlation (order <= a few).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .design import DesignSchedule, MissingBlocks
from .permutations import contrast_trace


class NonStationary(ValueError):
    """AR coefficients do not define a stationary process."""


class FactorizationFailure(RuntimeError):
    """Covariance is not positive semi-definite even after diagonal jitter."""


def _toeplitz(first: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix with first column ``first``.

    Copied from a strided view of ``[first[:0:-1], first]``, so no T x T index
    array is formed; the values are those of ``scipy.linalg.toeplitz``.
    """
    first = np.asarray(first, dtype=float)
    vals = np.concatenate([first[:0:-1], first])
    return np.lib.stride_tricks.sliding_window_view(vals, len(first))[::-1].copy()


def cov_exp_nugget(T: int, lam1: float, lam2: float) -> np.ndarray:
    """Stationary correlation with exponential decay and a nugget.

    Off-diagonal entries are ``lam1 * exp(-|t-u| / lam2)``; the diagonal is
    exactly 1.  ``lam1`` is the correlated share of the noise variance,
    ``lam2`` the decay length in time slots.
    """
    return _toeplitz(CovarianceModel.exp_nugget(lam1, lam2).autocorrelations(T))


def cov_block(
    design: DesignSchedule, sigma2_block: float, sigma2_unit: float
) -> np.ndarray:
    """Covariance of an additive session effect plus white noise.

    Entry (t, u) is ``sigma2_block`` when t and u share a block, plus
    ``sigma2_unit`` on the diagonal.  Note this is a covariance, not a
    unit-diagonal correlation.
    """
    if sigma2_block < 0 or sigma2_unit < 0:
        raise ValueError("variance components must be nonnegative")
    if sigma2_block == 0 and sigma2_unit == 0:
        raise ValueError("at least one variance component must be positive")
    if not design.has_blocks:
        raise MissingBlocks("block covariance requires explicit block labels")
    same = np.equal.outer(design.block_index, design.block_index)
    return sigma2_block * same.astype(float) + sigma2_unit * np.eye(design.T)


def ar_autocorrelations(coefficients: Sequence[float], n_lags: int) -> np.ndarray:
    """Autocorrelations rho_0..rho_{n_lags-1} of a stationary AR process."""
    a = np.asarray(coefficients, dtype=float)
    p = len(a)
    rho = np.zeros(max(n_lags, p + 1))
    rho[0] = 1.0
    if p == 0:
        return rho[:n_lags]

    companion = np.zeros((p, p))
    companion[0] = a
    if p > 1:
        companion[1:, :-1] = np.eye(p - 1)
    if np.abs(np.linalg.eigvals(companion)).max() >= 1.0:
        raise NonStationary(f"AR coefficients {a.tolist()} are not stationary")

    rho[1 : p + 1] = np.linalg.solve(_yule_walker(a), a)
    for k in range(p + 1, len(rho)):
        rho[k] = np.dot(a, rho[k - p : k][::-1])
    return rho[:n_lags]


def _yule_walker(a: np.ndarray) -> np.ndarray:
    """Matrix Y of the system ``Y rho = a`` for rho_1..rho_p, from
    ``rho_k = sum_j a_j rho_{|k-j|}`` with rho_0 = 1 moved to the right."""
    p = len(a)
    Y = np.eye(p)
    for k in range(1, p + 1):
        for j in range(1, p + 1):
            if k != j:
                Y[k - 1, abs(k - j) - 1] -= a[j - 1]
    return Y


def cov_ar(T: int, coefficients: Sequence[float]) -> np.ndarray:
    """Stationary AR correlation matrix (unit diagonal) of size T."""
    return _toeplitz(ar_autocorrelations(coefficients, T))


@dataclass(frozen=True)
class CovarianceModel:
    """A noise covariance family plus its parameters.

    Use the class methods to construct instances; :meth:`materialize`
    produces the dense matrix for a given design, and the stationary families
    give :meth:`autocorrelations` and :meth:`precision_solve` without one.
    """

    family: str
    params: tuple = ()

    @classmethod
    def iid(cls) -> "CovarianceModel":
        return cls("iid")

    @classmethod
    def exp_nugget(cls, lam1: float, lam2: float) -> "CovarianceModel":
        return cls("exp_nugget", (float(lam1), float(lam2)))

    @classmethod
    def block(cls, sigma2_block: float, sigma2_unit: float) -> "CovarianceModel":
        return cls("block", (float(sigma2_block), float(sigma2_unit)))

    @classmethod
    def ar(cls, coefficients: Sequence[float]) -> "CovarianceModel":
        return cls("ar", tuple(float(c) for c in coefficients))

    def materialize(self, design: DesignSchedule) -> np.ndarray:
        if self.family == "block":
            return cov_block(design, *self.params)
        return _toeplitz(self.autocorrelations(design.T))

    def autocorrelations(self, T: int) -> np.ndarray:
        """``rho_0..rho_{T-1}`` of a stationary family (iid, exp_nugget, ar).

        Raises :class:`NonStationary` for non-stationary AR coefficients and
        ``ValueError`` for ``block``, which is not stationary.
        """
        if self.family == "ar":
            return ar_autocorrelations(self.params, T)
        if self.family == "iid":
            rho = np.zeros(T)
        elif self.family == "exp_nugget":
            lam1, lam2 = self.params
            if not 0.0 <= lam1 <= 1.0:
                raise ValueError(f"lam1 must be in [0, 1], got {lam1}")
            if lam2 <= 0:
                raise ValueError(f"lam2 must be positive, got {lam2}")
            rho = lam1 * np.exp(-np.arange(T) / lam2)
        else:
            raise ValueError(f"unknown or non-stationary covariance family {self.family!r}")
        rho[0] = 1.0
        return rho

    def precision_solve(self, B: np.ndarray) -> Tuple[np.ndarray, float, Optional[np.ndarray]]:
        """``(Sigma^-1 B, log det Sigma, M^-1 B)`` for a T x k ``B``, in O(T k).

        Sigma is never formed: ``iid`` returns ``(B, 0, None)``, and
        ``exp_nugget`` and ``ar`` have banded precision matrices (see
        :func:`_exp_nugget_precision_solve` and :func:`_ar_precision_solve`).
        ``M^-1 B`` is the tridiagonal solve inside ``exp_nugget``'s, which its
        :meth:`precision_derivatives` reuse; it is None for the other families.

        Raises :class:`NonStationary` for non-stationary AR coefficients,
        ``np.linalg.LinAlgError`` where a factor is not positive definite,
        and ``ValueError`` for ``block``, whose covariance needs the design.
        """
        B = np.asarray(B, dtype=float)
        if self.family == "iid":
            return B, 0.0, None
        if self.family == "exp_nugget":
            return _exp_nugget_precision_solve(B, *self.params)
        if self.family == "ar":
            return _ar_precision_solve(B, self.params) + (None,)
        raise ValueError(f"no structured precision for covariance family {self.family!r}")

    def precision_derivatives(
        self, U: np.ndarray, SU: np.ndarray, MU: Optional[np.ndarray], V: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Derivatives in the free parameters p, in O(T k) for T x k U and V.

        The free parameters are ``(logit lam1, log lam2)`` for
        ``exp_nugget``, the coefficients for ``ar`` and none for ``iid``.
        Given ``SU = Sigma^-1 U`` and ``MU = M^-1 U`` (as
        :meth:`precision_solve` gives them), returns
        ``dlogdet[j] = d log det Sigma / dp_j`` and
        ``forms[j] = sum_i U_i' Sigma^-1 (dSigma/dp_j) Sigma^-1 V_i``, summed
        over the column pairs.
        """
        if self.family == "iid":
            return np.zeros(0), np.zeros(0)
        if self.family == "exp_nugget":
            return _exp_nugget_precision_derivatives(SU, MU, V, *self.params)
        if self.family == "ar":
            return _ar_precision_derivatives(U, V, self.params)
        raise ValueError(f"no structured precision for covariance family {self.family!r}")


def _tridiagonal_pivots(c: float, eps: float, b: float, T: int) -> np.ndarray:
    """LDL' pivots of ``c L + eps I + b (e_1 e_1' + e_T e_T')``, L the path
    Laplacian (diagonal ``[1, 2, ..., 2, 1]``, off-diagonal -1), c, eps, b >= 0.

    The pivots are ``c + r_k`` with ``r_1 = eps + b`` and the subtraction-free
    ``r_k = f(r_{k-1})``, ``f(r) = eps + c r / (c + r)``, and the last is
    ``b + f(r_{T-1})``.  They keep full relative accuracy when eps is far
    below c, where the rounded diagonal ``2c + eps`` has lost eps.  f is a
    Moebius map with fixed points ``r+ = (eps + s) / 2`` and
    ``r- = -eps c / r+``, ``s = sqrt(eps^2 + 4 eps c)``, so
    ``w_k = (r_k - r+) / (r_k - r-)`` is geometric with ratio
    ``(c + r-) / (c + r+)`` and the recurrence has a closed form.

    Returns the pivots and ``r_1..r_{T-1}``.
    """
    s = math.sqrt(eps * eps + 4.0 * eps * c)
    r_plus = 0.5 * (eps + s)
    r_minus = -eps * c / r_plus
    r1 = eps + b
    ratio = (c + r_minus) / (c + r_plus)
    w = (r1 - r_plus) / (r1 - r_minus) * ratio ** np.arange(T - 1)
    r = r_plus + w * s / (1.0 - w)
    pivots = c + np.append(r, 0.0)
    pivots[-1] = eps + b + c * r[-1] / (c + r[-1])
    return pivots, r


def _tridiagonal_inverse_bands(c: float, eps: float, b: float, pivots, r):
    """Diagonal and first off-diagonal of the inverse of the matrix of
    :func:`_tridiagonal_pivots`, in O(T).

    Eliminating from both ends gives ``(M^-1)_kk = 1 / (eps + b_k + l_k + l'_k)``
    with ``b_k = b`` at the two ends and 0 elsewhere, ``l_1 = 0``,
    ``l_k = c r_{k-1} / (c + r_{k-1})`` what elimination from the top adds
    to slot k, and ``l'`` the same from the bottom, which is l reversed (M is
    persymmetric).  Every term is nonnegative, so nothing cancels.  Above the
    diagonal, ``(M^-1)_{k,k+1} = c (M^-1)_{k+1,k+1} / p_k``.
    """
    left = np.concatenate([[0.0], c * r / (c + r)])
    rest = eps + left + left[::-1]
    rest[[0, -1]] += b
    diag = 1.0 / rest
    return diag, c * diag[1:] / pivots[:-1]


def _dot(P: np.ndarray, Q: np.ndarray) -> float:
    """``sum_ij P_ij Q_ij``."""
    return float(np.einsum("ij,ij->", P, Q))


def _d_form(P: np.ndarray, Q: np.ndarray) -> float:
    """``sum_i P_i' D Q_i`` for ``D = diag(1, 2, ..., 2, 1)``."""
    return 2.0 * _dot(P, Q) - float(P[0] @ Q[0] + P[-1] @ Q[-1])


def _exp_nugget_precision_solve(B: np.ndarray, lam1: float, lam2: float):
    """Structured solve for ``Sigma = (1 - lam1) I + lam1 K``.

    K is the AR(1) correlation at ``phi = exp(-1/lam2)``.  With ``u = 1 - phi``
    and ``delta = 1 - phi^2``, ``A = delta K^-1 = phi L + u^2 I + phi u
    (e_1 e_1' + e_T e_T')`` is tridiagonal, so with ``nu = 1 - lam1`` and
    ``M = nu A + lam1 delta I``:

        Sigma^-1 = M^-1 A = (I - lam1 delta M^-1) / nu,
        log det Sigma = log det M - log delta.

    Both forms are exact; the second is used when ``lam1 delta < nu``.  The
    first rounds A's smallest eigenvalue (about delta / T, along the
    constant vector) to absolute precision, which costs digits once
    ``lam2 >> T``; the second loses about ``lam1 delta / nu`` instead.
    ``M^-1 B`` is returned too: the second form solves for it, and the first
    gives it as ``(B - nu Sigma^-1 B) / (lam1 delta)``, which then loses at
    most a factor ``1 + 4 nu / (lam1 delta) <= 5``.
    """
    from scipy.linalg import lapack

    T = B.shape[0]
    u = -math.expm1(-1.0 / lam2)
    phi = 1.0 - u
    delta = -math.expm1(-2.0 / lam2)
    nu = 1.0 - lam1
    c = nu * phi
    pivots, _ = _tridiagonal_pivots(c, nu * u * u + lam1 * delta, c * u, T)
    logdet = float(np.sum(np.log(pivots))) - math.log(delta)
    if lam1 * delta < nu:
        MB, _ = lapack.dpttrs(pivots, -c / pivots[:-1], B)
        Y = MB * (-lam1 * delta)
        Y += B
        Y /= nu
        return Y, logdet, MB
    dB = np.diff(B, axis=0)
    AB = (u * u) * B
    AB[:-1] -= phi * dB
    AB[1:] += phi * dB
    AB[[0, -1]] += (phi * u) * B[[0, -1]]
    Y, _ = lapack.dpttrs(pivots, -c / pivots[:-1], AB)
    return Y, logdet, (B - nu * Y) / (lam1 * delta)


def _exp_nugget_precision_derivatives(SU, MU, V, lam1: float, lam2: float):
    """:meth:`CovarianceModel.precision_derivatives` for ``exp_nugget``.

    With A, M, u, phi, delta and nu of :func:`_exp_nugget_precision_solve`
    (``Sigma = A^-1 M``; A, M, K and Sigma commute), L the path Laplacian
    and ``D = diag(1, 2, ..., 2, 1)``:

    - ``dSigma/dlam1 = K - I`` and ``delta I - A = phi (u D - L)``, so
      ``Sigma^-1 (K - I) Sigma^-1 = phi Sigma^-1 (u D - L) M^-1`` and
      ``tr(Sigma^-1 (K - I)) = (delta tr M^-1 - T) / nu``;
    - ``dSigma/dphi = -lam1 K d(K^-1)/dphi K`` with
      ``delta^2 d(K^-1)/dphi = J = (1 + phi^2) L - u^2 D``, so
      ``Sigma^-1 (dSigma/dphi) Sigma^-1 = -lam1 M^-1 J M^-1``, and
      ``d log det Sigma/dphi = tr(M^-1 dM/dphi) + 2 phi / delta`` with
      ``dM/dphi = nu dA/dphi - 2 phi lam1 I``.

    Forms in L are sums over differences of neighbouring rows, which lose
    nothing to cancellation on slowly varying columns, and the traces of
    M^-1 come from its bands (:func:`_tridiagonal_inverse_bands`).  One
    banded solve gives ``M^-1 V``.  The chain rule uses
    ``dlam1/dlogit lam1 = lam1 nu`` and ``dphi/dlog lam2 = phi / lam2``.
    """
    from scipy.linalg import lapack

    T = V.shape[0]
    u = -math.expm1(-1.0 / lam2)
    phi = 1.0 - u
    delta = -math.expm1(-2.0 / lam2)
    nu = 1.0 - lam1
    c = nu * phi
    eps, b = nu * u * u + lam1 * delta, c * u
    pivots, r = _tridiagonal_pivots(c, eps, b, T)
    MV, _ = lapack.dpttrs(pivots, -c / pivots[:-1], V)
    dMV = np.diff(MV, axis=0)
    dphi = phi / lam2
    # The L forms summed by parts: P'L Q = sum of products of row differences.
    forms = np.array([
        lam1 * nu * phi * (u * _d_form(SU, MV) - _dot(np.diff(SU, axis=0), dMV)),
        -lam1 * dphi * ((1.0 + phi * phi) * _dot(np.diff(MU, axis=0), dMV) - (u * u) * _d_form(MU, MV)),
    ])
    inv_diag, inv_off = _tridiagonal_inverse_bands(c, eps, b, pivots, r)
    tr_inv = float(inv_diag.sum())
    tr_dA = 2.0 * phi * float(inv_diag[1:-1].sum()) - 2.0 * float(inv_off.sum())
    dlogdet = np.array([
        lam1 * (delta * tr_inv - T),
        dphi * (nu * tr_dA - 2.0 * phi * lam1 * tr_inv + 2.0 * phi / delta),
    ])
    return dlogdet, forms


def _ar_precision_solve(B: np.ndarray, coefficients: Sequence[float]):
    """Structured solve for the stationary AR(p) correlation.

    The density factors into the first p slots (correlation R, selected by
    E) and one innovation per later slot (rows ``(-a_p, ..., -a_1, 1)`` of
    the filter F, variance ``s2 = 1 - sum_k a_k rho_k``), so

        Sigma^-1 = E' R^-1 E + F'F / s2,
        log det Sigma = log det R + (T - p) log s2.
    """
    from scipy.linalg import cho_factor, cho_solve

    T = B.shape[0]
    a = np.asarray(coefficients, dtype=float)
    p = len(a)
    rho = ar_autocorrelations(a, p + 1)
    s2 = 1.0 - float(a @ rho[1:])
    if not s2 > 0:
        raise NonStationary(f"AR coefficients {a.tolist()} are not stationary")
    head = min(p, T)
    factor = cho_factor(_toeplitz(rho[:head]), lower=True, check_finite=False)
    out = np.zeros_like(B)
    out[:head] = cho_solve(factor, B[:head], check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    if T > p:
        FB = B[p:].copy()
        for k in range(1, p + 1):
            FB -= a[k - 1] * B[p - k : T - k]
        FB /= s2
        out[p:] += FB
        for k in range(1, p + 1):
            out[p - k : T - k] -= a[k - 1] * FB
        logdet += (T - p) * math.log(s2)
    return out, logdet


def _ar_precision_derivatives(U: np.ndarray, V: np.ndarray, coefficients: Sequence[float]):
    """:meth:`CovarianceModel.precision_derivatives` for ``ar``, T > p.

    In ``Sigma^-1 = E' R^-1 E + F'F / s2`` (:func:`_ar_precision_solve`) the
    coefficient a_i enters R and s2 through the autocorrelations, which solve
    ``Y rho = a`` (:func:`_yule_walker`), so ``Y drho/da = R``; and it enters
    F as -a_i at lag i.  Hence, banded,

        -dSigma^-1 = E' R^-1 dR R^-1 E - (dF'F + F'dF) / s2 + F'F ds2 / s2^2,
        d log det Sigma = tr(R^-1 dR) + (T - p) ds2 / s2,

    with ``ds2 = -rho_i - sum_k a_k drho_k``.
    """
    T = V.shape[0]
    a = np.asarray(coefficients, dtype=float)
    p = len(a)
    rho = ar_autocorrelations(a, p + 1)
    s2 = 1.0 - float(a @ rho[1:])
    R = _toeplitz(rho[:p])
    drho = np.linalg.solve(_yule_walker(a), R)  # [k - 1, i - 1] = drho_k / da_i
    ds2 = -rho[1:] - a @ drho
    R_inv = np.linalg.inv(R)
    FV = V[p:].copy()
    for k in range(1, p + 1):
        FV -= a[k - 1] * V[p - k : T - k]
    dlogdet, forms = np.empty(p), np.empty(p)
    for i in range(1, p + 1):
        dR = R_inv @ _toeplitz(np.concatenate([[0.0], drho[: p - 1, i - 1]]))
        dlogdet[i - 1] = np.trace(dR) + (T - p) * ds2[i - 1] / s2
        NV = np.zeros_like(V)
        NV[:p] = dR @ (R_inv @ V[:p])
        G = V[p - i : T - i] / s2 + FV * (ds2[i - 1] / s2**2)
        NV[p:] += G
        for k in range(1, p + 1):
            NV[p - k : T - k] -= a[k - 1] * G
        NV[p - i : T - i] += FV / s2
        forms[i - 1] = _dot(U, NV)
    return dlogdet, forms


@dataclass(frozen=True)
class ExperimentTruth:
    """Analytic variance decomposition of a synthetic experiment."""

    sigma2_A: float
    noise_level: float
    total: float
    omega2: float
    degenerate: bool = False


def noise_level(Sigma: np.ndarray, design: DesignSchedule, sigma2_eps: float = 1.0) -> float:
    """Exact expected noise contribution to the between-treatment contrast.

    ``tr((B - G) Sigma) * sigma2_eps / ((m - 1) n)``; reduces to
    ``sigma2_eps / n`` for white noise.
    """
    return (
        sigma2_eps
        * contrast_trace(Sigma, design)
        / ((design.m - 1) * design.n)
    )


def stationary_noise_level(
    model: CovarianceModel, design: DesignSchedule, sigma2_eps: float = 1.0
) -> float:
    """:func:`noise_level` of a stationary ``model`` in O(m n^2 + T), no T x T matrix.

    With autocorrelations rho, ``tr((B - G) Sigma) = sum_k w_k rho_k`` with
    ``w_k = W_k / n - c_k / T``: W_k counts ordered same-stimulus slot pairs
    at lag k, and ``c_0 = T``, ``c_k = 2 (T - k)`` count all ordered pairs at
    lag k.  The contrast removes constants, so ``sum_k w_k = 0`` and for
    ``exp_nugget`` (``rho_k = lam1 exp(-k / lam2)``, k >= 1) the trace is
    ``w_0 (1 - lam1) + lam1 sum_{k>=1} w_k expm1(-k / lam2)``, which keeps
    its digits as lam1 -> 1 and lam2 -> inf, where the plain sum cancels.
    """
    T, m, n = design.T, design.m, design.n
    slots = design.stimulus_groups()
    W = np.zeros(T, dtype=np.int64)
    W[0] = T
    for j in range(1, n):
        W += 2 * np.bincount((slots[:, j:] - slots[:, :-j]).ravel(), minlength=T)
    c = 2 * np.arange(T, 0, -1)
    c[0] = T
    rho = model.autocorrelations(T)  # also checks the parameters
    if model.family == "exp_nugget":
        lam1, lam2 = model.params
        w = (T * W - n * c) / (n * T)  # exact integers over n T
        trace = w[0] * (1.0 - lam1) + lam1 * float(w[1:] @ np.expm1(-np.arange(1, T) / lam2))
    else:
        trace = float(W @ rho) / n - float(c @ rho) / T
    return sigma2_eps * trace / ((m - 1) * n)


def psd_cholesky(Sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, retrying with growing diagonal jitter.

    Jitter starts at 1e-10 and escalates tenfold up to 1e-6 before raising
    :class:`FactorizationFailure`.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    try:
        return np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-10
    eye = np.eye(Sigma.shape[0])
    while jitter <= 1e-6:
        try:
            return np.linalg.cholesky(Sigma + jitter * eye)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise FactorizationFailure("covariance is not positive semi-definite")


def make_truth(sigma2_A: float, noise: float) -> ExperimentTruth:
    total = sigma2_A + noise
    if total > 0:
        return ExperimentTruth(sigma2_A, noise, total, sigma2_A / total)
    return ExperimentTruth(sigma2_A, noise, total, 0.0, degenerate=True)


def substream(seed, *key) -> np.random.Generator:
    """Deterministic RNG substream for (seed, key...).

    Each replicate draws from its own substream, so its draws do not depend
    on how many replicates ran before it.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))


def sample_experiment(
    design: DesignSchedule,
    sigma2_A: float,
    noise: CovarianceModel,
    sigma2_eps: float,
    seed,
    chol: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ExperimentTruth]:
    """Draw one synthetic experiment Y = signal + correlated noise.

    Treatment effects are i.i.d. centered Gaussians with variance
    ``sigma2_A``; the noise is Gaussian with covariance ``sigma2_eps *
    Sigma``.  Returns the length-T series and its analytic truth.  Pass a precomputed ``chol``
    factor of the covariance to amortize the factorization across draws.
    """
    if sigma2_A < 0 or sigma2_eps < 0:
        raise ValueError("variances must be nonnegative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    Sigma = noise.materialize(design)
    if chol is None:
        chol = psd_cholesky(Sigma)
    effects = rng.normal(0.0, np.sqrt(sigma2_A), design.m)
    eps = np.sqrt(sigma2_eps) * (chol @ rng.standard_normal(design.T))
    values = effects[design.stimulus_index] + eps
    truth = make_truth(sigma2_A, noise_level(Sigma, design, sigma2_eps))
    return values, truth
