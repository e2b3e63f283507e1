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

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .design import DesignSchedule, MissingBlocks


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


def _check_block(design: DesignSchedule, sigma2_block: float, sigma2_unit: float) -> None:
    """The block family's parameter checks, for :meth:`CovarianceModel.materialize`
    and :func:`noise_level`."""
    got = f"sigma2_block={sigma2_block}, sigma2_unit={sigma2_unit}"
    if not (0 <= sigma2_block < math.inf and 0 <= sigma2_unit < math.inf):
        raise ValueError(f"block variances must be finite and nonnegative, got {got}")
    if sigma2_block == 0 and sigma2_unit == 0:
        raise ValueError(f"at least one block variance must be positive, got {got}")
    if not design.has_blocks:
        raise MissingBlocks("block covariance requires explicit block labels")


def ar_autocorrelations(coefficients: Sequence[float], n_lags: int) -> np.ndarray:
    """Autocorrelations rho_0..rho_{n_lags-1} of a stationary AR process."""
    return _ar_autocorrelations(np.asarray(coefficients, dtype=float), n_lags)[0]


def _ar_autocorrelations(a: np.ndarray, n_lags: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`ar_autocorrelations` and the :func:`_yule_walker` matrix its
    rho_1..rho_p solve."""
    p = len(a)
    rho = np.zeros(max(n_lags, p + 1))
    rho[0] = 1.0
    if p == 0:
        return rho[:n_lags], np.eye(0)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"AR coefficients must be finite, got {a.tolist()}")

    companion = np.zeros((p, p))
    companion[0] = a
    if p > 1:
        companion[1:, :-1] = np.eye(p - 1)
    if np.abs(np.linalg.eigvals(companion)).max() >= 1.0:
        raise NonStationary(f"AR coefficients {a.tolist()} are not stationary")

    Y = _yule_walker(a)
    rho[1 : p + 1] = np.linalg.solve(Y, a)
    for k in range(p + 1, len(rho)):
        rho[k] = np.dot(a, rho[k - p : k][::-1])
    return rho[:n_lags], Y


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


@dataclass(frozen=True)
class CovarianceModel:
    """A noise covariance family plus its parameters.

    Use the class methods to construct instances.  The stationary families
    give :meth:`autocorrelations` and :meth:`color`, both without a T x T
    matrix; every synthetic experiment is drawn through :meth:`color`, or
    for ``block`` through its block effects.  REML's structured solves are
    :class:`_ExpNuggetPrecision` and :class:`_ArPrecision` (``iid`` and
    ``ar``).  :meth:`materialize` forms the dense T x T covariance, for
    ``diagnose``'s eigenvalues and as a test oracle.
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
        """The dense T x T covariance: a unit-diagonal correlation, or for
        ``block`` sigma2_block within a block plus sigma2_unit I."""
        if self.family == "block":
            sigma2_block, sigma2_unit = self.params
            _check_block(design, sigma2_block, sigma2_unit)
            same = np.equal.outer(design.block_index, design.block_index)
            return sigma2_block * same.astype(float) + sigma2_unit * np.eye(design.T)
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
            if not lam2 > 0:
                raise ValueError(f"lam2 must be positive, got {lam2}")
            rho = lam1 * np.exp(-np.arange(T) / lam2)
        else:
            raise ValueError(f"unknown or non-stationary covariance family {self.family!r}")
        rho[0] = 1.0
        return rho

    def color(self, X: np.ndarray) -> None:
        """``X <- L X`` in place for a T x R ``X``, L the lower Cholesky factor
        of Sigma, in O(T R).

        Neither Sigma nor L is formed, and no second T x R array: each column
        of X becomes ``L z`` for the column z it held, so columns of standard
        normals come out with covariance Sigma.  A length-T ``X`` is one
        column.  ``iid`` leaves X as it is (L = I); ``exp_nugget`` and ``ar``
        run the innovations form of :func:`_exp_nugget_color` and
        :func:`_ar_color` down the rows, vectorised across columns, which is
        fastest on a C-ordered X.

        Raises :class:`NonStationary` for non-stationary AR coefficients and
        ``ValueError`` for ``block``, whose covariance needs the design.
        """
        self.autocorrelations(1)  # checks the parameters, and rejects block
        if not (isinstance(X, np.ndarray) and X.dtype == np.float64 and X.ndim in (1, 2)):
            raise TypeError("color works in place on a float64 array of shape (T,) or (T, R)")
        X = X.reshape(len(X), -1)  # a view: a series is one column
        if self.family == "exp_nugget":
            _exp_nugget_color(X, *self.params)
        elif self.family == "ar":
            _ar_color(X, self.params)


@functools.cache
def _lapack():
    """``scipy.linalg.lapack``, imported at first use: scipy is slow to import."""
    from scipy.linalg import lapack

    return lapack


def _dot(P: np.ndarray, Q: np.ndarray) -> float:
    """``sum_ij P_ij Q_ij``, in an order that no BLAS thread count changes."""
    return float(np.einsum("ij,ij->", P, Q))


class _ExpNuggetPrecision:
    """``exp_nugget``'s structured precision for one T x k right-hand side B.

    A REML precision object (this or :class:`_ArPrecision`) is built once
    per fit on the column-major ``B = [X, y, 1]``.  ``solve(*theta)``
    returns log det Sigma and leaves ``SU = Sigma^-1 B``.  Then
    ``derivatives(R, K)`` returns ``(dlogdet, forms)`` at ``U = [X, B R]``
    for a k x 2 R and a symmetric k x k K: ``dlogdet[j] = d log det Sigma
    / dx_j`` and ``forms[j] = sum_i U_i' Sigma^-1 (dSigma/dx_j) Sigma^-1
    W_i`` over the columns of ``W = U K``, x the free parameters in the
    optimizer's chart: theta is ``params(x)``, and ``start`` and ``jitter``
    are the first start's x and the scale of the others' normal jitter.

    ``Sigma = (1 - lam1) I + lam1 K``, K the AR(1) correlation at
    ``phi = exp(-1/lam2)``.  With ``u = 1 - phi`` and ``delta = 1 - phi^2``,
    ``A = delta K^-1 = phi L + u^2 I + phi u (e_1 e_1' + e_T e_T')`` is
    tridiagonal, L the path Laplacian (diagonal ``[1, 2, ..., 2, 1]``,
    off-diagonal -1).  So with ``nu = 1 - lam1`` and the tridiagonal
    ``M = nu A + lam1 delta I = c L + eps I + b (e_1 e_1' + e_T e_T')``:

        Sigma^-1 = M^-1 A = (I - lam1 delta M^-1) / nu,
        log det Sigma = log det M - log delta.

    :meth:`solve` factors M once per point and sets ``SU = Sigma^-1 B`` and
    ``MU = M^-1 B``; :meth:`derivatives` turns them into the solves of U in
    place, and it and the bands of M^-1 reuse the factor.  The constants and
    every T x k array are kept from one point to the next, so a point
    allocates nothing that size.
    """

    start = (0.0, math.log(10.0))
    jitter = (1.5, 1.0)

    @staticmethod
    def params(x: Sequence[float]) -> Tuple[float, float]:
        """``(lam1, lam2)`` at ``x = (logit lam1, log lam2)``."""
        return (1.0 / (1.0 + math.exp(-x[0])), math.exp(x[1]))

    def __init__(self, B: np.ndarray):
        T, k = B.shape
        self.B = B  # column-major, as dpttrs takes it
        self.steps = np.arange(T - 1.0)
        self.pivots, self.r, self.w = np.empty(T), np.empty(T - 1), np.empty(T - 1)
        # Weights whose products with diag(M^-1) give tr M^-1, its inner
        # part and, through ``off = -c / p`` (M's factor, row 2), the sum of
        # M^-1's off-diagonal.
        self.weights = np.zeros((3, T))
        self.weights[0] = 1.0
        self.weights[1, 1:-1] = 1.0
        self.off = self.weights[2, 1:]
        self.left, self.diag = np.zeros(T), np.empty(T)
        # [values, row differences] of [Sigma^-1 U, M^-1 U, M^-1 U K]: the
        # values are three column-major T x k arrays, the differences those
        # of their column-major ravel.
        self.work = np.empty((2, 3, k, T))
        self.SU, self.MU, self.MV = (P.T for P in self.work[0])
        self.solves = self.work[0, :2].transpose(0, 2, 1)  # SU, MU
        self.flat = self.work.reshape(2, -1)
        self.pairs = (self.work[:, :2].reshape(2, 2, -1), self.work[:, 2].reshape(2, -1))
        ends = slice(None, None, T - 1)  # the first and last rows
        self.ends = (self.work[0, :2, :, ends], self.work[0, 2, :, ends])
        self.dpttrs = _lapack().dpttrs

    def solve(self, lam1: float, lam2: float) -> float:
        """Factor M at ``(lam1, lam2)``, set SU and MU, return log det Sigma.

        Both forms of Sigma^-1 are exact; the second is used when
        ``lam1 delta < nu``.  The first rounds A's smallest eigenvalue (about
        delta / T, along the constant vector) to absolute precision, which
        costs digits once ``lam2 >> T``; the second loses about
        ``lam1 delta / nu`` instead.  The first gives ``M^-1 B`` as
        ``(B - nu Sigma^-1 B) / (lam1 delta)``, which then loses at most a
        factor ``1 + 4 nu / (lam1 delta) <= 5``.
        """
        u = -math.expm1(-1.0 / lam2)
        phi = 1.0 - u
        delta = -math.expm1(-2.0 / lam2)
        nu = 1.0 - lam1
        c = nu * phi
        eps, b = nu * u * u + lam1 * delta, c * u
        self.lam1, self.lam2, self.u, self.phi, self.delta = lam1, lam2, u, phi, delta
        self.c, self.eps, self.b = c, eps, b
        self._pivots()
        pivots, off = self.pivots, self.off
        np.divide(-c, pivots[:-1], out=off)
        logdet = float(np.log(pivots).sum()) - math.log(delta)
        B, SU, MU = self.B, self.SU, self.MU
        if lam1 * delta < nu:
            np.copyto(MU, B)
            self._solve_in_place(MU)
            np.multiply(MU, -lam1 * delta, out=SU)
            SU += B
            SU /= nu
        else:  # SU = M^-1 (A B)
            dB = self.work[1, 0].T[:-1]  # scratch: derivatives overwrite it
            np.subtract(B[1:], B[:-1], out=dB)
            dB *= phi
            np.multiply(B, u * u, out=SU)
            SU[:-1] -= dB
            SU[1:] += dB
            SU[[0, -1]] += (phi * u) * B[[0, -1]]
            self._solve_in_place(SU)
            np.multiply(SU, nu, out=MU)
            np.subtract(B, MU, out=MU)
            MU /= lam1 * delta
        return logdet

    def _solve_in_place(self, P: np.ndarray) -> None:
        """``P <- M^-1 P`` with M as last factored, for one of SU and MU."""
        X, _ = self.dpttrs(self.pivots, self.off, P, overwrite_b=1)
        if X is not P:  # f2py solved into a copy; the other arrays view P
            P[...] = X

    def _pivots(self) -> None:
        """M's LDL' pivots into ``pivots`` and ``r_1..r_{T-1}`` into ``r``.

        The pivots are ``c + r_k`` with ``r_1 = eps + b`` and the
        subtraction-free ``r_k = f(r_{k-1})``, ``f(r) = eps + c r / (c + r)``,
        and the last is ``b + f(r_{T-1})``.  They keep full relative accuracy
        when eps is far below c, where the rounded diagonal ``2c + eps`` has
        lost eps.  f is a Moebius map with fixed points ``r+ = (eps + s) / 2``
        and ``r- = -eps c / r+``, ``s = sqrt(eps^2 + 4 eps c)``, so
        ``w_k = (r_k - r+) / (r_k - r-)`` is geometric with ratio
        ``(c + r-) / (c + r+)`` and the recurrence has a closed form.
        """
        c, eps, b = self.c, self.eps, self.b
        s = math.sqrt(eps * eps + 4.0 * eps * c)
        r_plus = 0.5 * (eps + s)
        r_minus = -eps * c / r_plus
        r1 = eps + b
        ratio = (c + r_minus) / (c + r_plus)
        w, r = self.w, self.r
        np.power(ratio, self.steps, out=w)
        w *= (r1 - r_plus) / (r1 - r_minus)
        np.multiply(w, s, out=r)
        np.subtract(1.0, w, out=w)
        r /= w
        r += r_plus
        np.add(c, r, out=self.pivots[:-1])
        r_last = float(r[-1])
        self.pivots[-1] = eps + b + c * r_last / (c + r_last)

    def _inverse_traces(self) -> Tuple[float, float, float]:
        """``tr M^-1``, the sum of its diagonal without the two ends, and the
        sum of its first off-diagonal, in O(T) from the pivots and r.

        Eliminating from both ends gives ``(M^-1)_kk = 1 / (eps + b_k + l_k + l'_k)``
        with ``b_k = b`` at the two ends and 0 elsewhere, ``l_1 = 0``,
        ``l_k = c r_{k-1} / (c + r_{k-1})`` what elimination from the top adds
        to slot k, and ``l'`` the same from the bottom, which is l reversed (M is
        persymmetric).  Every term is nonnegative, so nothing cancels.  Above the
        diagonal, ``(M^-1)_{k,k+1} = c (M^-1)_{k+1,k+1} / p_k``.
        """
        T = len(self.diag)
        # -l from off = -c / (c + r); left[0] stays 0.
        left, diag = self.left, self.diag
        np.multiply(self.r, self.off, out=left[1:])
        np.subtract(self.eps, left, out=diag)
        diag -= left[::-1]
        diag[:: T - 1] += self.b
        np.divide(1.0, diag, out=diag)
        tr_inv, inner, off_sum = np.einsum("ji,i->j", self.weights, diag).tolist()
        return tr_inv, inner, -off_sum

    def derivatives(self, R: np.ndarray, K: np.ndarray):
        """``(dlogdet, forms)`` at the point last solved, in ``(logit lam1,
        log lam2)``.

        ``U = [X, B R]`` gives ``Sigma^-1 U = [Sigma^-1 X, (Sigma^-1 B) R]``,
        and the same for M^-1, so one product turns SU and MU into the solves
        of U.  With A, M, u, phi, delta and nu as above (``Sigma = A^-1 M``;
        A, M, K and Sigma commute) and ``D = diag(1, 2, ..., 2, 1)``:

        - ``dSigma/dlam1 = K - I`` and ``delta I - A = phi (u D - L)``, so
          ``Sigma^-1 (K - I) Sigma^-1 = phi Sigma^-1 (u D - L) M^-1`` and
          ``tr(Sigma^-1 (K - I)) = (delta tr M^-1 - T) / nu``;
        - ``dSigma/dphi = -lam1 K d(K^-1)/dphi K`` with
          ``delta^2 d(K^-1)/dphi = J = (1 + phi^2) L - u^2 D``, so
          ``Sigma^-1 (dSigma/dphi) Sigma^-1 = -lam1 M^-1 J M^-1``, and
          ``d log det Sigma/dphi = tr(M^-1 dM/dphi) + 2 phi / delta`` with
          ``dM/dphi = nu dA/dphi - 2 phi lam1 I``.

        Forms in L are sums over differences of neighbouring rows, which lose
        nothing to cancellation on slowly varying columns: one difference of
        the stacked ravel of SU, MU and MV gives all three, and one
        ``einsum`` all four sums of products.  The traces of M^-1 come from
        its bands (:meth:`_inverse_traces`).  The right-hand columns ``U K`` need no second banded
        solve: ``M^-1 U K = (M^-1 U) K``, one matrix product.  The chain
        rule uses ``dlam1/dlogit lam1 = lam1 nu`` and
        ``dphi/dlog lam2 = phi / lam2``.
        """
        lam1, lam2, u, phi, delta = self.lam1, self.lam2, self.u, self.phi, self.delta
        nu = 1.0 - lam1
        T = len(self.pivots)
        solves, m = self.solves, len(R) - 2
        solves[:, :, m:] = solves @ R
        np.matmul(self.MU, K, out=self.MV)
        flat = self.flat
        np.subtract(flat[0, 1:], flat[0, :-1], out=flat[1, :-1])
        flat[1, T - 1 :: T] = 0.0  # where a column ends
        # P'Q and P'L Q for P = SU, MU and Q = MV (L by parts), and the two
        # end rows of P'D Q = 2 P'Q - (the end rows' part).
        (su_mv, mu_mv), (dsu_dmv, dmu_dmv) = np.einsum("spi,si->sp", *self.pairs).tolist()
        su_ends, mu_ends = np.einsum("pkt,kt->p", *self.ends).tolist()
        dphi = phi / lam2
        forms = (
            lam1 * nu * phi * (u * (2.0 * su_mv - su_ends) - dsu_dmv),
            -lam1 * dphi * ((1.0 + phi * phi) * dmu_dmv - (u * u) * (2.0 * mu_mv - mu_ends)),
        )
        tr_inv, tr_inner, off_sum = self._inverse_traces()
        tr_dA = 2.0 * phi * tr_inner - 2.0 * off_sum
        dlogdet = (
            lam1 * (delta * tr_inv - T),
            dphi * (nu * tr_dA - 2.0 * phi * lam1 * tr_inv + 2.0 * phi / delta),
        )
        return dlogdet, forms


def _ar_innovations(a: np.ndarray) -> Tuple[np.ndarray, float, np.ndarray]:
    """``rho_0..rho_p``, the innovation variance ``s2 = 1 - sum_k a_k rho_k``
    and the :func:`_yule_walker` matrix of stationary AR coefficients a;
    :class:`NonStationary` unless s2 > 0."""
    rho, Y = _ar_autocorrelations(a, len(a) + 1)
    s2 = 1.0 - float(a @ rho[1:])
    if not s2 > 0:
        raise NonStationary(f"AR coefficients {a.tolist()} are not stationary")
    return rho, s2, Y


class _ArPrecision:
    """``ar``'s structured precision of order p for one T x k right-hand side
    B, T > p, with :class:`_ExpNuggetPrecision`'s interface; p = 0 is
    ``iid`` (Sigma = I: SU is B to the bit, and there are no derivatives).

    The density factors into the first p slots (their correlation R_p,
    selected by E) and one innovation per later slot (rows ``(-a_p, ...,
    -a_1, 1)`` of the filter F, variance ``s2 = 1 - sum_k a_k rho_k``), so

        Sigma^-1 = E' R_p^-1 E + F'F / s2,
        log det Sigma = log det R_p + (T - p) log s2.

    :meth:`solve` works out the p x p quantities once per point and keeps
    them, and ``G = F B / s2``, for :meth:`derivatives`.  F and F' are one
    ``np.correlate`` each down the column-major ravel of all k columns: G's
    ravel keeps each column's first p rows at 0, which also pads F' where it
    reaches into the next column, and p zeros pad its end.  Apart from the
    two correlations' results, every T x k array is kept from one point to
    the next.  The optimizer's chart is the coefficients themselves.
    """

    def __init__(self, B: np.ndarray, p: int):
        T, k = B.shape
        self.B, self.p = B, p
        self.start, self.jitter = (0.0,) * p, (0.3,) * p
        self.lags = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))  # R_p = rho[lags]
        # Column-major, as B: Sigma^-1 B, U = [X, B R] (X the first k - 2
        # columns of B) and the T - p rows of G and of G K.
        self.SU, self.XBR = B.copy(order="F"), B.copy(order="F")
        self.g = np.zeros(k * T + p)  # G's ravel, with its zero rows and end
        self.G = self.g[: k * T].reshape(k, T)[:, p:].T
        self.GK = np.empty((k, T - p)).T
        # The p + 1 row windows U[j : j + T - p], as [column, j, row].
        self.windows = np.lib.stride_tricks.sliding_window_view(self.XBR.T, T - p, axis=1)

    @staticmethod
    def params(x: Sequence[float]) -> Tuple[float, ...]:
        """The coefficients at x, as floats."""
        return tuple(float(v) for v in x)

    def solve(self, *a: float) -> float:
        """Set SU at coefficients a and return log det Sigma.

        The coefficients enter R_p and s2 through the autocorrelations, which
        solve ``Y rho = a`` (:func:`_yule_walker`), so ``Y drho/da = R_p``
        and ``ds2 = -rho_i - sum_k a_k drho_k``.  Raises
        :class:`NonStationary` for non-stationary coefficients and
        ``np.linalg.LinAlgError`` where R_p is not positive definite.
        """
        B, p, g = self.B, self.p, self.g
        if not p:  # Sigma = I, and SU holds B from the start
            return 0.0
        T, n = len(B), B.size
        a = np.array(a, dtype=float)
        rho, s2, Y = _ar_innovations(a)  # the one stationarity check
        R_p = rho[self.lags]
        L = np.linalg.cholesky(R_p)
        R_inv = np.linalg.inv(R_p)
        drho = np.linalg.solve(Y, R_p)  # [k - 1, i - 1] = drho_k / da_i
        dR = np.vstack([np.zeros(p), drho]).T[:, self.lags]  # [i, r, c] = d(R_p)_rc / da_i
        self.ds2 = -rho[1:] - a @ drho
        self.N = (R_inv @ dR @ R_inv).reshape(p, -1)  # R_p^-1 dR_p R_p^-1, raveled
        self.dlogdet = dR.reshape(p, -1) @ R_inv.ravel() + (T - p) * self.ds2 / s2
        f = np.append(-a[::-1], 1.0)  # F's rows
        np.copyto(g[p:n], np.correlate(B.T.reshape(-1), f / s2, "valid"))
        g[:n].reshape(-1, T)[:, :p] = 0.0
        np.copyto(self.SU.T.reshape(-1), np.correlate(g, f[::-1], "valid"))
        self.SU[:p] += R_inv @ B[:p]
        return 2.0 * float(np.log(L.diagonal()).sum()) + (T - p) * math.log(s2)

    def derivatives(self, R: np.ndarray, K: np.ndarray):
        """``(dlogdet, forms)`` at the point last solved, in the coefficients.

        F has -a_i at lag i, so ``(dF x)_t = -x_{t-i}`` and, banded,

            -dSigma^-1 = E' R_p^-1 dR_p R_p^-1 E - (dF'F + F'dF) / s2
                         + F'F ds2 / s2^2.

        K is symmetric, so the two middle terms give the same
        ``<U_{p-i}, F U K> / s2`` for the row window ``U_j = U[j : j + T -
        p]``.  With ``F U / s2 = [G_X, G R]``, G = F B / s2 from the solve,

            forms_i = <N_i, U_p K U_p'> + 2 <U_{p-i}, F U K / s2>
                      + <F U / s2, F U K / s2> ds2_i,

        N_i = R_p^-1 dR_p R_p^-1 and U_p the first p rows of U.  One einsum
        over the windows gives all p + 1 lagged products.
        """
        p, m = self.p, len(R) - 2
        U, G, GK = self.XBR, self.G, self.GK
        U[:, m:] = self.B @ R
        G[:, m:] = G @ R
        np.matmul(G, K, out=GK)
        lagged = np.einsum("cjt,ct->j", self.windows, GK.T)  # <U_j, F U K / s2>
        head = self.N @ (U[:p] @ K @ U[:p].T).ravel()
        forms = head + 2.0 * lagged[p - 1 :: -1] + self.ds2 * _dot(G, GK)
        return self.dlogdet, forms


_COLOR_CHUNK = 64  # rows of X that :func:`_exp_nugget_color` scales at once


def _exp_nugget_color(X: np.ndarray, lam1: float, lam2: float) -> None:
    """``X <- L X`` in place for T x R ``X``, L the Cholesky factor of
    ``Sigma = (1 - lam1) I + lam1 K``, K the AR(1) correlation at
    ``phi = exp(-1/lam2)``.

    With Phi the AR(1) filter (``(Phi x)_1 = x_1``, ``(Phi x)_t = x_t -
    phi x_{t-1}``), ``Phi K Phi' = diag(1, delta, ..., delta)`` for
    ``delta = 1 - phi^2``, so with ``nu = 1 - lam1`` the matrix
    ``Omega = Phi Sigma Phi' = nu Phi Phi' + lam1 diag(1, delta, ..., delta)``
    is tridiagonal: diagonal ``1, nu (1 + phi^2) + lam1 delta, ...`` and
    off-diagonal ``-nu phi``.  Phi^-1 is unit lower triangular, so
    ``L = Phi^-1 chol(Omega)`` exactly: the innovations form of an ARMA(1,1)
    process (Brockwell & Davis, *Time Series: Theory and Methods*, 5.3).
    Omega's LDL' pivots are ``d_t = nu + e_t`` with ``e_1 = lam1`` and the
    subtraction-free ``e_t = lam1 delta + nu phi^2 e_{t-1} / (nu + e_{t-1})``,
    and column by column

        x_t = sqrt(d_t) z_t + phi (x_{t-1} - nu z_{t-1} / sqrt(d_{t-1})).

    At nu = 0 the bracket's second term is 0, its limit, so ``Sigma = 11'``
    (lam1 = 1, lam2 = inf) gives the exact ``x = z_1 1``; at lam1 = 0 the
    bracket is exactly 0 and ``x = z``.

    X is overwritten a chunk of rows at a time: ``g_t = nu z_t / sqrt(d_t)``
    is taken from each chunk before it is scaled, and the last row of g
    carries into the next chunk, so nothing of X's size is allocated.  The
    pivots come from :func:`_exp_nugget_pivots`, worked out once per
    ``(T, lam1, lam2)``, and the rows are walked as lists of row views.
    """
    T, R = X.shape
    phi = math.exp(-1.0 / lam2)
    root, scale = _exp_nugget_pivots(T, lam1, lam2)
    G = np.zeros((min(_COLOR_CHUNK, T) + 1, R))  # G[j] = g of the row above chunk row j
    step = np.empty(R)
    g_rows = list(G)
    for t0 in range(0, T, _COLOR_CHUNK):
        rows = X[t0 : t0 + _COLOR_CHUNK]
        k = len(rows)
        if scale is not None:
            np.multiply(rows, scale[t0 : t0 + k, None], out=G[1 : k + 1])
        rows *= root[t0 : t0 + k, None]
        j0 = 1 if t0 == 0 else 0
        x_rows = list(X[t0 + j0 - 1 : t0 + k])  # from the row above the first updated
        for above, g, x in zip(x_rows, g_rows[j0:k], x_rows[1:]):
            np.subtract(above, g, out=step)
            step *= phi
            x += step
        G[0] = G[k]


@functools.lru_cache(maxsize=8)
def _exp_nugget_pivots(T: int, lam1: float, lam2: float):
    """``(sqrt(d), nu / sqrt(d))`` of :func:`_exp_nugget_color`'s pivots d,
    read-only; the second is None at nu = 0."""
    phi = math.exp(-1.0 / lam2)
    nu = 1.0 - lam1
    lam1_delta = -lam1 * math.expm1(-2.0 / lam2)
    d = np.empty(T)
    e = lam1
    for t in range(T):
        d[t] = nu + e
        e = lam1_delta + (nu * phi * phi * e / (nu + e) if nu > 0 else 0.0)
    root = np.sqrt(d, out=d)
    root.setflags(write=False)
    if not nu > 0:
        return root, None
    scale = nu / root
    scale.setflags(write=False)
    return root, scale


def _ar_color(X: np.ndarray, coefficients: Sequence[float]) -> None:
    """``X <- L X`` in place for T x R ``X``, L the Cholesky factor of the
    stationary AR(p) correlation.

    In the filter F of :class:`_ArPrecision` (the first p slots kept,
    then one innovation per slot), ``F Sigma F' = diag(R, s2 I)``, and F^-1
    is unit lower triangular, so ``L = F^-1 diag(chol(R), sqrt(s2) I)``:
    the first p slots get chol(R), the rest ``sqrt(s2) z_t`` plus the AR
    recursion ``x_t += sum_k a_k x_{t-k}``.
    """
    T = X.shape[0]
    a = np.asarray(coefficients, dtype=float)
    p = len(a)
    rho, s2, _ = _ar_innovations(a)
    head = min(p, T)
    X[:head] = np.linalg.cholesky(_toeplitz(rho[:head])) @ X[:head]
    X[p:] *= math.sqrt(s2)
    for t in range(p, T):
        for k in range(1, p + 1):
            X[t] += a[k - 1] * X[t - k]


@dataclass(frozen=True)
class ExperimentTruth:
    """Analytic variance decomposition of a synthetic experiment."""

    sigma2_A: float
    noise_level: float
    total: float
    omega2: float
    degenerate: bool = False


def _pair_counts(model: CovarianceModel, design: DesignSchedule, perm):
    """Exact slot-pair counts that ``tr((B - G) P Sigma P')`` depends on, in O(m n^2 + T).

    Under the shuffle g of ``perm`` (None for the identity) a stimulus's
    slot pair (t, u) meets ``Sigma[g(t), g(u)]``.  For ``block`` that is
    ``sum_ib N_ib^2``, N_ib the slots of stimulus i drawn from block b.  A
    stationary Sigma sees only the lag ``|g(t) - g(u)|``: the counts are
    ``w_k = T W_k - n c_k``, W_k the ordered same-stimulus pairs and c_k all
    ordered pairs at lag k, and the trace is ``sum_k w_k rho_k / (n T)``.
    """
    slots = design.stimulus_groups()
    if perm is not None:
        if perm.T != design.T:
            raise ValueError("permutation size does not match design")
        slots = perm.mapping[slots]
    if model.family == "block":
        _check_block(design, *model.params)
        blocks = design.block_index[slots] + design.n_blocks * np.arange(design.m)[:, None]
        return int(np.sum(np.bincount(blocks.ravel()) ** 2))
    T, n = design.T, design.n
    W = np.zeros(T, dtype=np.int64)
    W[0] = T
    for j in range(1, n):
        W += 2 * np.bincount(np.abs(slots[:, j:] - slots[:, :-j]).ravel(), minlength=T)
    c = 2 * np.arange(T, 0, -1)
    c[0] = T
    return T * W - n * c


def _lag_trace(model: CovarianceModel, counts: np.ndarray, n: int) -> float:
    """``sum_k w_k rho_k``, ``w = counts / (n T)``, for a stationary ``model``.

    As ``sum_k w_k = 0``, for ``exp_nugget`` that is ``w_0 (1 - lam1) + lam1
    sum_{k>=1} w_k expm1(-k / lam2)``, which keeps its digits as lam1 -> 1
    and lam2 -> inf, where the plain sum cancels.
    """
    T = len(counts)
    rho = model.autocorrelations(T)  # also checks the parameters
    w = counts / (n * T)
    if model.family == "exp_nugget":
        lam1, lam2 = model.params
        return float(w[0] * (1.0 - lam1) + lam1 * (w[1:] @ np.expm1(-np.arange(1, T) / lam2)))
    return float(w @ rho)


def noise_level(
    model: CovarianceModel, design: DesignSchedule, sigma2_eps: float = 1.0, perm=None
) -> float:
    """Exact expected noise contribution to the between-treatment contrast.

    ``sigma2_eps tr((B - G) P Sigma P') / ((m - 1) n)`` for the covariance
    Sigma of ``model`` and the shuffle P of ``perm`` (the identity by
    default), from :func:`_pair_counts`; ``sigma2_eps / n`` for white noise.
    For ``block`` it is written ``m (var_avg - var_global) / (m - 1)``, the
    variances of a treatment average (on average) and of the global one.
    """
    T, m, n = design.T, design.m, design.n
    counts = _pair_counts(model, design, perm)
    if model.family != "block":
        return sigma2_eps * _lag_trace(model, counts, n) / ((m - 1) * n)
    s2b, s2u = model.params
    var_global = s2b * float(np.sum(np.bincount(design.block_index) ** 2)) / T**2 + s2u / T
    var_avg = s2b * (counts / (m * n * n)) + s2u / n
    return sigma2_eps * ((m * (var_avg - var_global)) / (m - 1))


def noise_conservation_gap(model: CovarianceModel, design: DesignSchedule, perm) -> float:
    """``tr((B - G) P Sigma P') - tr((B - G) Sigma)``, from the difference of
    the exact :func:`_pair_counts`: zero iff the shuffle P of ``perm``
    conserves the noise contribution of ``model`` for this design.
    """
    diff = _pair_counts(model, design, perm) - _pair_counts(model, design, None)
    if model.family == "block":
        return model.params[0] * diff / design.n
    return _lag_trace(model, diff, design.n)


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
    on how many replicates ran before it.  A key of parts in [0, 2^32) is
    handed over as one uint32 array: the same entropy words as the tuple,
    which ``SeedSequence`` would convert one part at a time.
    """
    parts = (seed, *key)
    if _uint32_parts(parts):
        parts = np.array(parts, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(parts))


def _uint32_parts(parts) -> bool:
    return all(isinstance(p, (int, np.integer)) and 0 <= p < 2**32 for p in parts)


def _hash_steps(init: int, mult: int, count: int) -> tuple:
    """``(xor, mul)`` of ``count`` successive steps of a SeedSequence hash
    whose constant starts at ``init`` and is multiplied by ``mult`` each step."""
    steps, h = [], init
    for _ in range(count):
        nxt = h * mult & 0xFFFFFFFF
        steps.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return tuple(steps)


# numpy's SeedSequence on a pool of 4 words: the 16 hash steps of
# mix_entropy, the 8 of generate_state(4, uint64), and its mixing
# multipliers; then PCG64's 128-bit multiplier.
_MIX_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_STATE_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash(v: np.ndarray, step) -> np.ndarray:
    xor, mul = step
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _seed_state(words: Sequence[np.ndarray]) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for each column
    of 4 uint32 entropy words, as a 4 x n uint64 array.

    An entropy of fewer than 4 words hashes as if padded with zeros, so any
    key of at most 4 words fits.
    """
    mixer = [_hash(w, step) for w, step in zip(words, _MIX_STEPS)]
    steps = iter(_MIX_STEPS[4:])
    for src in range(4):
        for dst in range(4):
            if src != dst:
                x = _MIX_L * mixer[dst] - _MIX_R * _hash(mixer[src], next(steps))
                mixer[dst] = x ^ (x >> 16)
    state = np.array([_hash(mixer[i % 4], step) for i, step in enumerate(_STATE_STEPS)])
    # Little-endian word pairs, as generate_state assembles uint64 words.
    return state[0::2].astype(np.uint64) | (state[1::2].astype(np.uint64) << np.uint64(32))


def substreams(seed, *key, count: int):
    """The substreams ``substream(seed, *key, r)`` for r < ``count``, in order.

    The generator yielded for r draws what ``substream(seed, *key, r)``
    draws, bit for bit, but all of them are seeded as a batch: numpy's
    SeedSequence hash runs on arrays of r, and PCG64's seeding (``inc =
    2 initseq + 1``, ``state = (inc + initstate) M + inc`` mod 2^128) on
    Python ints.  One Generator is yielded each time, with its state reset,
    so each one is valid only until the next is drawn.  A part of 2^32 or
    more, or a key that with r exceeds 4 words, falls back to
    :func:`substream` for every r.
    """
    parts = (seed, *key)
    if len(parts) > 3 or not _uint32_parts(parts) or count > 2**32:
        for r in range(count):
            yield substream(seed, *key, r)
        return
    r = np.arange(count, dtype=np.uint32)
    words = [np.full(count, p, dtype=np.uint32) for p in parts] + [r]
    words += [np.zeros_like(r)] * (4 - len(words))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for s0, s1, i0, i1 in zip(*_seed_state(words).tolist()):
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


# Experiments drawn as one block of rows, and rows that the effects are
# added to at once, in :func:`_draw_experiments`.
_BLOCK = 64


def _draw_experiments(
    design: DesignSchedule,
    sigma2_A: float,
    model: CovarianceModel,
    sigma2_eps: float,
    rngs,
    R: int,
) -> np.ndarray:
    """R synthetic experiments as the columns of a C-ordered T x R matrix.

    ``rngs`` yields R generators, each drawn from before the next is taken
    (as :func:`substreams` needs).  Column r takes standard normals from the
    r-th: the m treatment effects, then for ``block`` one effect per block,
    then T for the noise.
    ``block`` noise is block effects plus white noise; every other family
    colours its normals in place with :meth:`CovarianceModel.color`.  The
    normals are drawn a block of experiments at a time as rows and
    transposed into place, so they are the only array of their size.  The
    caller checks the parameters (``block`` needs block labels).
    """
    m, T = design.m, design.T
    block = model.family == "block"
    k = m + design.n_blocks if block else m
    W = np.empty((k + T, R))
    rows = np.empty((min(_BLOCK, R), k + T))
    rngs = iter(rngs)
    for r0 in range(0, R, _BLOCK):
        part = rows[: min(_BLOCK, R - r0)]
        for row, rng in zip(part, rngs):
            rng.standard_normal(out=row)
        W[:, r0 : r0 + len(part)] = part.T
    E, B, X = W[:m], W[m:k], W[k:]
    E *= math.sqrt(sigma2_A)
    if block:
        sigma2_block, sigma2_unit = model.params
        B *= math.sqrt(sigma2_eps * sigma2_block)
        X *= math.sqrt(sigma2_eps * sigma2_unit)
    else:
        X *= math.sqrt(sigma2_eps)
        model.color(X)
    for t0 in range(0, T, _BLOCK):
        span = slice(t0, t0 + _BLOCK)
        effects = E[design.stimulus_index[span]]
        if block:
            effects += B[design.block_index[span]]
        X[span] += effects
    return X


def sample_experiment(
    design: DesignSchedule,
    sigma2_A: float,
    noise: CovarianceModel,
    sigma2_eps: float,
    seed,
) -> Tuple[np.ndarray, ExperimentTruth]:
    """Draw one synthetic experiment Y = signal + correlated noise.

    Treatment effects are i.i.d. centered Gaussians with variance
    ``sigma2_A``; the noise is Gaussian with covariance ``sigma2_eps *
    Sigma``.  Returns the length-T series and its analytic truth.  The
    series is one draw of the sweeps' sampler, :func:`_draw_experiments`.
    """
    for name, value in (("sigma2_A", sigma2_A), ("sigma2_eps", sigma2_eps)):
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    truth = make_truth(sigma2_A, noise_level(noise, design, sigma2_eps))
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    values = _draw_experiments(design, sigma2_A, noise, sigma2_eps, [rng], 1)[:, 0]
    return values, truth
