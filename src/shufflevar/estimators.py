"""Signal-variance and explainable-variance estimators for one series.

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
from .design import DesignSchedule, ms_between, ms_within
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


def shuffle_estimate(y, design: DesignSchedule, perm: PermutationSpec) -> VarianceEstimate:
    """Signal variance from the contrast drop under a noise-conserving shuffle.

    ``(MS_bet(y) - MS_bet(Py)) / (1 - alpha)``: unbiased whenever the
    shuffle conserves the noise contribution and mixes treatments
    (``alpha < 1``).

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
    total = ms_between(y, design)
    shuffled = ms_between(perms.apply(perm, y), design)
    raw = (total - shuffled) / (1.0 - a)
    return _finish("shuffle", raw, total, alpha=a)


def mom_estimate(y, design: DesignSchedule) -> VarianceEstimate:
    """Method-of-moments estimate assuming uncorrelated noise.

    Subtracts ``MS_wit / n`` from the between contrast; records the F
    statistic.  Overstates the signal when noise is positively correlated
    within treatments.
    """
    total = ms_between(y, design)
    within = ms_within(y, design)  # raises NoReplication when n == 1
    noise_hat = within / design.n
    raw = total - noise_hat
    f_stat = total / noise_hat if noise_hat > 0 else math.inf
    return _finish("mom", raw, total, f_stat=f_stat)


def average_shuffle(
    y, design: DesignSchedule, perm_list: Sequence[PermutationSpec]
) -> VarianceEstimate:
    """Plain average of the raw shuffle estimates over several permutations.

    Clamping and the explainable-variance plug-in are applied once, to the
    averaged raw estimate.
    """
    if not perm_list:
        raise ValueError("need at least one permutation")
    parts = [shuffle_estimate(y, design, p) for p in perm_list]
    raw = float(np.mean([e.sigma2_A_raw for e in parts]))
    mean_alpha = float(np.mean([e.alpha for e in parts]))
    return _finish("shuffle_avg", raw, parts[0].total, alpha=mean_alpha)


def check_estimator(name: str) -> None:
    """Raise ValueError unless ``name`` is one of :data:`ESTIMATOR_NAMES`."""
    if name not in ESTIMATOR_NAMES:
        raise ValueError(f"unknown estimator {name!r}")


def run_estimator(
    name: str, y, design: DesignSchedule, perm: PermutationSpec, **reml_options
) -> VarianceEstimate:
    """Run the estimator called ``name`` (see :func:`check_estimator`) on one series.

    ``reml_options`` are passed to :func:`shufflevar.reml.reml_estimate`;
    ``reml:<family>`` overrides their ``family``, and plain ``reml`` fits
    ``reml_options["family"]`` or REML's default family.
    """
    check_estimator(name)
    if name == "shuffle":
        return shuffle_estimate(y, design, perm)
    if name == "mom":
        return mom_estimate(y, design)
    from . import reml  # at call time: reml imports this module

    family = name.partition(":")[2]
    if family:
        reml_options["family"] = family
    return reml.reml_estimate(y, design, **reml_options)[1]


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
