"""Signal-variance and explainable-variance estimators.

The shuffle and MoM estimators take a series, giving one
:class:`VarianceEstimate`, or a T x S matrix of series, giving a tuple of S.

Three routes to the signal variance:

- :func:`shuffle_estimate` -- compares the between-treatment contrast of
  the data with the same contrast after a noise-conserving shuffle.
- :func:`mom_estimate` -- classical method of moments, valid only for
  uncorrelated noise.
- REML under a parametric noise family lives in :mod:`shufflevar.reml`.

:func:`run_estimators` runs any of them by name on every column of a T x S
matrix and gives each one's :class:`Fits`, arrays of one entry per series;
the ``estimate`` command and the sweeps run their estimators through it.
Shuffle and MoM share one :func:`contrast_pass`, and REML fits one column
at a time.

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

# Noise families REML can fit, and the names :func:`run_estimators` accepts.
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


def check_estimator(
    name: str, design: Optional[DesignSchedule] = None, perm=None
) -> Optional[float]:
    """Raise ValueError unless ``name`` is one of :data:`ESTIMATOR_NAMES`;
    given a design, also raise what the estimator raises on it and ``perm``.
    Shuffle's mixing coefficient under ``perm``, else None.

    Raises
    ------
    TrivialPermutation
        For shuffle, if ``perm`` is trivial (:func:`~shufflevar.permutations.is_trivial`).
    NoReplication
        For MoM, if every stimulus appears once.
    """
    if name not in ESTIMATOR_NAMES:
        raise ValueError(f"unknown estimator {name!r}")
    if design is None:
        return None
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
    """Those of shuffle (under ``perm``) and MoM that the estimator names
    ``names`` list, on each column of ``Y`` (a series or a T x S matrix),
    from one :func:`~shufflevar.design.mean_squares` pass.

    ``total`` is the between contrast, ``shuffle_raw`` the shuffle's raw
    signal variance ``(total - MS_bet(PY)) / (1 - alpha)`` and ``mom_noise``
    MoM's noise level ``MS_wit / n``, whose raw signal variance is ``total -
    mom_noise``.  Each estimator's check (:func:`check_estimator`) runs in
    the order ``names`` gives.
    """
    checked = {name: check_estimator(name, design, perm) for name in names}
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
    """One estimator's fits of each series as arrays: the fields that a
    :class:`VarianceEstimate` gives one series at a time, each series' flags
    joined by ``;``, and ``usable``, True where a summary may use the fit
    (False for a REML fit that failed or did not converge)."""

    method: str
    alpha: Optional[float]
    sigma2_A_raw: np.ndarray
    sigma2_A: np.ndarray
    noise_level: np.ndarray
    total: np.ndarray
    omega2: np.ndarray
    flags: list
    usable: np.ndarray


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


def _reml_fits(name: str, Y: np.ndarray, design: DesignSchedule, seeds, options) -> Fits:
    """REML's :class:`Fits` of the columns of ``Y`` (see :func:`run_estimators`)."""
    from . import reml  # at call time: reml imports this module

    family = name.partition(":")[2] or "exp_nugget"
    S = Y.shape[1]
    values = np.full((5, S), np.nan)  # the value fields of Fits, by column
    flags, usable = ["AllStartsFailed"] * S, np.zeros(S, dtype=bool)
    for j, seed in enumerate(np.broadcast_to(seeds, S).tolist()):
        try:
            e = reml.reml_estimate(Y[:, j], design, family=family, seed=seed, **options)[1]
        except reml.AllStartsFailed:
            continue
        values[:, j] = e.sigma2_A_raw, e.sigma2_A, e.noise_level, e.total, e.omega2
        flags[j] = ";".join(e.flags)
        usable[j] = "non_converged" not in e.flags
    return Fits(f"reml:{family}", None, *values, flags, usable)


def run_estimators(
    names, Y, design: DesignSchedule, perm: PermutationSpec, seeds, **reml_options
) -> dict:
    """Run each estimator that ``names`` lists on every column of ``Y`` (a
    series or a T x S matrix): its :class:`Fits`, by name.

    Every name's check (:func:`check_estimator`) runs first, in the order
    ``names`` gives.  An unknown name raises; an estimator whose check fails
    maps to its ``TrivialPermutation`` or ``NoReplication`` instead, and the
    others still run.  Shuffle and MoM share one :func:`contrast_pass`.
    REML fits column j with seed ``seeds[j]`` (an int seeds every column)
    and ``reml_options``, the keywords of
    :func:`~shufflevar.reml.reml_estimate` but ``family``, which the name
    gives (``reml:<family>``; plain ``reml`` fits exp_nugget).  A column
    with no finite start gets nan values and the flag ``AllStartsFailed``.
    """
    Y = _columns(Y, design)
    out, passed = {}, []
    for name in dict.fromkeys(names):
        try:
            check_estimator(name, design, perm)
            passed.append(name)
        except (TrivialPermutation, NoReplication) as exc:
            out[name] = exc
    contrasts = [name for name in passed if name in ("shuffle", "mom")]
    if contrasts:
        c = contrast_pass(Y, design, perm, contrasts)
    for name in passed:
        if name not in contrasts:
            out[name] = _reml_fits(name, Y, design, seeds, reml_options)
            continue
        raw = c.shuffle_raw if name == "shuffle" else c.total - c.mom_noise
        clamped, omega2 = _clamp(raw, c.total)
        code = (raw < 0.0) + 2 * ~(c.total > 0.0)
        flags = [("", "clamped", "degenerate", "clamped;degenerate")[i] for i in code.tolist()]
        out[name] = Fits(
            name, c.alpha if name == "shuffle" else None, raw, clamped, c.total - raw,
            c.total, omega2, flags, np.ones(len(raw), dtype=bool),
        )
    return out


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
