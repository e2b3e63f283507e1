"""Signal-variance and explainable-variance estimators.

The shuffle and MoM estimators take a series, giving one
:class:`VarianceEstimate`, or a T x S matrix of series, giving a tuple of S.

Three routes to the signal variance:

- :func:`shuffle_estimate` -- compares the between-treatment contrast of
  the data with the same contrast after a noise-conserving shuffle.
- :func:`mom_estimate` -- classical method of moments, valid only for
  uncorrelated noise.
- REML under a parametric noise family lives in :mod:`shufflevar.reml`.

All estimators report both the raw (possibly negative) signal variance and
its nonnegative clamp; the explainable-variance plug-in uses the clamp
while the noise level uses the raw value so the decomposition stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import permutations as perms
from .design import DesignSchedule, NoReplication, _columns, check_replicated, mean_squares
from .design import ms_between, ms_within  # noqa: F401  (unused; bench/spans.py wraps them here)
from .permutations import PermutationSpec

# Noise families REML can fit, and the names :func:`run_estimator` accepts.
REML_FAMILIES = ("iid", "exp_nugget", "ar")
ESTIMATOR_NAMES = ("shuffle", "mom", "reml") + tuple(f"reml:{f}" for f in REML_FAMILIES)


class TrivialPermutation(ValueError):
    """The permutation carries no information (mixing coefficient = 1)."""


@dataclass(frozen=True)
class VarianceEstimate:
    """One estimator's variance decomposition for one series.

    ``sigma2_A_raw`` may be negative; ``sigma2_A`` is its clamp at zero.
    ``noise_level = total - sigma2_A_raw`` so raw estimates always sum to
    the observed total (the between-treatment contrast of the data).
    """

    method: str
    sigma2_A_raw: float
    sigma2_A: float
    noise_level: float
    total: float
    omega2: float
    alpha: Optional[float] = None
    f_stat: Optional[float] = None
    flags: Tuple[str, ...] = ()


def _finish(
    method: str,
    raw: float,
    total: float,
    alpha: Optional[float] = None,
    f_stat: Optional[float] = None,
    extra_flags: Tuple[str, ...] = (),
) -> VarianceEstimate:
    flags = list(extra_flags)
    clamped = max(0.0, raw)
    if raw < 0.0:
        flags.append("clamped")
    if total > 0.0:
        omega2 = min(1.0, clamped / total)
    else:
        omega2 = 0.0
        flags.append("degenerate")
    return VarianceEstimate(
        method=method,
        sigma2_A_raw=raw,
        sigma2_A=clamped,
        noise_level=total - raw,
        total=total,
        omega2=omega2,
        alpha=alpha,
        f_stat=f_stat,
        flags=tuple(flags),
    )


def _clamp(raw: np.ndarray, total: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(sigma2_A, omega2)`` arrays that :func:`_finish` gives one value at
    a time: ``max(0.0, raw)`` and ``min(1.0, sigma2_A / total)``, 0 where
    ``total > 0.0`` fails.  ``np.where`` on the same comparisons keeps
    Python's choices on +-0 and nan."""
    clamped = np.where(raw > 0.0, raw, 0.0)
    q = np.zeros(np.shape(clamped))
    with np.errstate(invalid="ignore", over="ignore"):  # as Python's float division
        np.divide(clamped, total, out=q, where=total > 0.0)
    return clamped, np.where(q < 1.0, q, 1.0)


class Contrasts(NamedTuple):
    """Per-series arrays from :func:`contrast_pass`; an estimator not asked
    for leaves its fields None."""

    total: np.ndarray
    shuffle_raw: Optional[np.ndarray]
    alpha: Optional[float]
    mom_noise: Optional[np.ndarray]


def _check(name: str, design: DesignSchedule, perm) -> Optional[float]:
    """Raise what ``name`` raises on ``design`` and ``perm`` (see
    :func:`contrast_pass`); shuffle's mixing coefficient, else None."""
    if name == "shuffle":
        a = perms.alpha(design, perm)
        # alpha is 1.0 exactly when is_trivial's integer identity holds: the
        # pair count over n^2 is then exactly m, else short of m by >= 1/n^2.
        if a == 1.0:
            raise TrivialPermutation(
                f"permutation {perm.family!r} only relabels treatments (alpha=1)"
            )
        return a
    if name == "mom":
        check_replicated(design)
    return None


def contrast_pass(Y, design: DesignSchedule, perm, names) -> Contrasts:
    """Those of shuffle (under ``perm``) and MoM that ``names`` lists, on each
    column of ``Y`` (a series or a T x S matrix), from one
    :func:`~shufflevar.design.mean_squares` pass; other names are ignored.

    ``total`` is the between contrast, ``shuffle_raw`` the shuffle's raw
    signal variance ``(total - MS_bet(PY)) / (1 - alpha)`` and ``mom_noise``
    MoM's noise level ``MS_wit / n``, whose raw signal variance is ``total -
    mom_noise``.  Each estimator's check runs in the order ``names`` gives.

    Raises
    ------
    TrivialPermutation
        For shuffle, if ``perm`` is trivial (:func:`~shufflevar.permutations.is_trivial`).
    NoReplication
        For MoM, if every stimulus appears once.
    """
    checked = {name: _check(name, design, perm) for name in names}
    shuffle, mom = "shuffle" in checked, "mom" in checked
    a = checked.get("shuffle")
    total, shuffled, within = mean_squares(
        Y, design, perm.mapping if shuffle else None, within=mom
    )
    return Contrasts(
        total,
        (total - shuffled) / (1.0 - a) if shuffle else None,
        a,
        within / design.n if mom else None,
    )


class Fits(NamedTuple):
    """Shuffle's or MoM's fits of each series as arrays: the fields that
    :func:`_finish` gives one series at a time, and its flags."""

    method: str
    alpha: Optional[float]
    sigma2_A_raw: np.ndarray
    sigma2_A: np.ndarray
    noise_level: np.ndarray
    total: np.ndarray
    omega2: np.ndarray

    def flags(self) -> list:
        """Each series' flags, joined by ``;``."""
        code = (self.sigma2_A_raw < 0.0) + 2 * ~(self.total > 0.0)
        return [("", "clamped", "degenerate", "clamped;degenerate")[i] for i in code.tolist()]


def contrast_fits(c: Contrasts, name: str) -> Fits:
    """The fits of shuffle or MoM (``name``) from a contrast pass that ran it."""
    raw = c.shuffle_raw if name == "shuffle" else c.total - c.mom_noise
    clamped, omega2 = _clamp(raw, c.total)
    alpha = c.alpha if name == "shuffle" else None
    return Fits(name, alpha, raw, clamped, c.total - raw, c.total, omega2)


def batch_fits(Y, design: DesignSchedule, perm, names) -> dict:
    """The :class:`Fits` of each of shuffle and MoM that ``names`` lists, on
    the columns of the T x S matrix ``Y``, from one contrast pass; an
    estimator whose check fails maps to its ``TrivialPermutation`` or
    ``NoReplication`` instead, and the other still runs."""
    passed, out = [], {}
    for name in dict.fromkeys(names):
        if name in ("shuffle", "mom"):
            try:
                _check(name, design, perm)
                passed.append(name)
            except (TrivialPermutation, NoReplication) as exc:
                out[name] = exc
    if passed:
        c = contrast_pass(Y, design, perm, passed)
        out.update((name, contrast_fits(c, name)) for name in passed)
    return out


def shuffle_estimate(y, design: DesignSchedule, perm: PermutationSpec):
    """Signal variance from the contrast drop under a noise-conserving shuffle.

    ``(MS_bet(y) - MS_bet(Py)) / (1 - alpha)``: unbiased whenever the
    shuffle conserves the noise contribution and mixes treatments
    (``alpha < 1``).  ``y`` is a series or a T x S matrix of series.

    Raises
    ------
    TrivialPermutation
        If the permutation is trivial (:func:`~shufflevar.permutations.is_trivial`).
    """
    c = contrast_pass(y, design, perm, ("shuffle",))  # alpha is checked before y's shape
    fits = [
        _finish("shuffle", r, t, alpha=c.alpha)
        for r, t in zip(c.shuffle_raw.tolist(), c.total.tolist())
    ]
    return fits[0] if np.ndim(y) == 1 else tuple(fits)


def mom_estimate(y, design: DesignSchedule):
    """Method-of-moments estimate assuming uncorrelated noise.

    Subtracts ``MS_wit / n`` from the between contrast; records the F
    statistic.  Overstates the signal when noise is positively correlated
    within treatments.  ``y`` is a series or a T x S matrix of series.
    """
    c = contrast_pass(_columns(y, design), design, None, ("mom",))  # NoReplication if n == 1
    fits = [
        _finish("mom", t - nh, t, f_stat=t / nh if nh > 0 else math.inf)
        for t, nh in zip(c.total.tolist(), c.mom_noise.tolist())
    ]
    return fits[0] if np.ndim(y) == 1 else tuple(fits)


def check_estimator(name: str) -> None:
    """Raise ValueError unless ``name`` is one of :data:`ESTIMATOR_NAMES`."""
    if name not in ESTIMATOR_NAMES:
        raise ValueError(f"unknown estimator {name!r}")


def run_estimator(
    name: str, Y, design: DesignSchedule, perm: PermutationSpec, seeds, **reml_options
) -> tuple:
    """Run the estimator called ``name`` (see :func:`check_estimator`) on
    each column of the T x S matrix ``Y``: a tuple of S results.

    Shuffle and MoM run once on the matrix.  REML fits column j with seed
    ``seeds[j]`` (an int seeds every column) and ``reml_options``, where
    ``reml:<family>`` overrides ``family``; a column with no finite start
    holds its :class:`~shufflevar.reml.AllStartsFailed` instead.
    """
    check_estimator(name)
    Y = _columns(Y, design)
    if name == "shuffle":
        return shuffle_estimate(Y, design, perm)
    if name == "mom":
        return mom_estimate(Y, design)
    from . import reml  # at call time: reml imports this module

    family = name.partition(":")[2]
    if family:
        reml_options["family"] = family
    out = []
    for y, seed in zip(Y.T, np.broadcast_to(seeds, Y.shape[1]).tolist()):
        try:
            out.append(reml.reml_estimate(y, design, seed=seed, **reml_options)[1])
        except reml.AllStartsFailed as exc:
            out.append(exc)
    return tuple(out)


def consistency_diagnostic(Sigma: np.ndarray, m: int, n: int) -> float:
    """Decay diagnostic for shuffle-estimator consistency.

    Sum of the squared top ``m - 1`` eigenvalues of the noise correlation,
    scaled by ``1 / (n^2 (m - 1)^2)``.  Small values indicate the variance
    of the between contrast is under control.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if m < 2 or m - 1 > Sigma.shape[0]:
        raise ValueError(f"need 2 <= m <= T + 1, got m={m}, T={Sigma.shape[0]}")
    eigs = np.linalg.eigvalsh(Sigma)
    top = eigs[-(m - 1):]
    return float(np.sum(top**2) / (n**2 * (m - 1) ** 2))
