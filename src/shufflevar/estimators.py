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
from typing import Optional, Sequence, Tuple

import numpy as np

from . import permutations as perms
from .design import DesignSchedule, _columns, ms_between, ms_within
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
    a = perms.alpha(design, perm)
    # alpha is 1.0 exactly when is_trivial's integer identity holds: the pair
    # count over n^2 is then exactly m, else short of m by >= 1/n^2.
    if a == 1.0:
        raise TrivialPermutation(
            f"permutation {perm.family!r} only relabels treatments (alpha=1)"
        )
    Y = _columns(y, design)
    total = ms_between(Y, design)
    raw = (total - ms_between(Y, design, perm.mapping)) / (1.0 - a)
    fits = [_finish("shuffle", r, t, alpha=a) for r, t in zip(raw.tolist(), total.tolist())]
    return fits[0] if np.ndim(y) == 1 else tuple(fits)


def mom_estimate(y, design: DesignSchedule):
    """Method-of-moments estimate assuming uncorrelated noise.

    Subtracts ``MS_wit / n`` from the between contrast; records the F
    statistic.  Overstates the signal when noise is positively correlated
    within treatments.  ``y`` is a series or a T x S matrix of series.
    """
    Y = _columns(y, design)
    total = ms_between(Y, design).tolist()
    noise_hat = (ms_within(Y, design) / design.n).tolist()  # NoReplication if n == 1
    fits = [
        _finish("mom", t - nh, t, f_stat=t / nh if nh > 0 else math.inf)
        for t, nh in zip(total, noise_hat)
    ]
    return fits[0] if np.ndim(y) == 1 else tuple(fits)


def average_shuffle(y, design: DesignSchedule, perm_list: Sequence[PermutationSpec]):
    """Plain average of the raw shuffle estimates over several permutations.

    ``y`` is a series or a T x S matrix of series; each series' raw
    estimates are averaged as one 1-D ``np.mean``.  Clamping and the
    explainable-variance plug-in are applied once, to the averaged raw
    estimate.
    """
    if not perm_list:
        raise ValueError("need at least one permutation")
    Y = _columns(y, design)
    parts = [shuffle_estimate(Y, design, p) for p in perm_list]
    raw = np.array([[e.sigma2_A_raw for e in part] for part in parts]).T.copy()
    mean_alpha = float(np.mean([part[0].alpha for part in parts]))
    fits = [
        _finish("shuffle_avg", float(np.mean(r)), e.total, alpha=mean_alpha)
        for r, e in zip(raw, parts[0])
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
