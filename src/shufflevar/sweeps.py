"""Monte Carlo sweep harness: grids of signal variance x replicates.

Each sweep draws synthetic experiments for every signal-variance grid
point, runs the requested estimators per replicate, and aggregates per
(grid point, estimator) summaries.

Replicate r of grid point gi draws from its own RNG substream keyed by
(seed, 2, gi, r): the signal effects first, then the noise.  A grid point's
replicates are the columns of one C-ordered T x R matrix X, filled a block
of replicates at a time.  The time-series noise is the Cholesky factor of
the noise covariance times X's standard normals, applied in place by
:meth:`~shufflevar.noise.CovarianceModel.color` in O(T R) with neither the
T x T covariance nor its factor formed; the effects are then added to X a
block of rows at a time.  Each estimator runs once on X, one column per
replicate; REML fits replicate r with seed r.  X is the only array of its
size: the contrasts work in blocks too, and a grid point's X is freed
before the next is drawn, so a paper-scale sweep (m = 120, n = 15,
R = 1000) peaks at about 1.25 X under tracemalloc.  The truth of either
sweep comes from :func:`~shufflevar.noise.noise_level`.  Everything runs
on the calling thread; ``SweepConfig.threads`` is accepted but no longer
changes how work runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence, Tuple
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import estimators as est
from .design import DesignSchedule, build_design, treatment_averages
from .noise import CovarianceModel, make_truth, noise_level, substream
from .noise import psd_cholesky  # noqa: F401  (unused; bench/spans.py wraps it here)
from .permutations import PermutationSpec, alpha, block_random_perm, reverse_perm
from .reml import AllStartsFailed

DEFAULT_GRID = tuple(round(0.1 * i, 1) for i in range(10))


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one Monte Carlo sweep."""

    m: int = 120
    n: int = 15
    n_blocks: int = 20
    sigma2_A_grid: Tuple[float, ...] = DEFAULT_GRID
    replicates: int = 1000
    seed: int = 0
    threads: int = 1  # accepted for compatibility; work runs on the calling thread
    estimators: Tuple[str, ...] = ("shuffle",)
    # block noise
    sigma2_block: float = 0.5
    sigma2_unit: float = 0.7
    # time-series noise
    lam1: float = 0.7
    lam2: float = 30.0
    sigma2_eps: float = 1.0
    # REML options (see reml_estimate): the optimizer starts, each start's
    # cap on objective-and-score calls, and the convergence tolerance on
    # the score's largest component
    reml_family: str = "exp_nugget"
    reml_starts: int = 5
    reml_max_evals: int = 2000
    reml_xatol: float = 1e-8

    def __post_init__(self):
        for name in ("m", "n", "n_blocks", "replicates", "reml_starts", "reml_max_evals"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        # max|g| > nan is False, so a nan tolerance would end every REML
        # start where it began and report it converged.
        if not 0 < self.reml_xatol < math.inf:
            raise ValueError(f"reml_xatol must be finite and positive, got {self.reml_xatol}")
        if not self.sigma2_A_grid:
            raise ValueError("signal-variance grid must be nonempty")
        for name in ("sigma2_A_grid", "sigma2_eps", "sigma2_block", "sigma2_unit"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value) & (value >= 0)):
                raise ValueError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")


@dataclass(frozen=True)
class SweepRow:
    """Summary of one (grid point, estimator) cell."""

    sigma2_A_true: float
    estimator: str
    mean_sigma2_A: float
    bias: float
    sd: float
    q25: float
    q75: float
    mean_omega2: float
    omega2_true: float
    n_fail: int
    n_reps: int
    alpha_realized: float


@dataclass(frozen=True)
class SweepResult:
    rows: Tuple[SweepRow, ...]
    config: SweepConfig


def make_block_schedule(m: int, n: int, n_blocks: int, rng) -> DesignSchedule:
    """Blocked schedule: stimuli partitioned across blocks, order random
    within each block, all repeats of a stimulus inside one block."""
    if m % n_blocks:
        raise ValueError(f"m={m} not divisible by n_blocks={n_blocks}")
    per_block = m // n_blocks
    labels = []
    blocks = []
    for b in range(n_blocks):
        stims = np.repeat(np.arange(b * per_block, (b + 1) * per_block), n)
        stims = rng.permutation(stims)
        labels.extend(f"s{j:04d}" for j in stims)
        blocks.extend([f"b{b:03d}"] * len(stims))
    return build_design(labels, blocks)


def make_random_schedule(m: int, n: int, rng) -> DesignSchedule:
    """Fully randomized single-block schedule."""
    stims = rng.permutation(np.repeat(np.arange(m), n))
    return build_design([f"s{j:04d}" for j in stims])


def _summarize(
    sigma2_A_true: float,
    estimator: str,
    raws: Sequence[float],
    omegas: Sequence[float],
    omega2_true: float,
    n_fail: int,
    alpha_realized: float,
) -> SweepRow:
    """One row from the replicates that produced a usable fit; ``n_reps``
    is their count."""
    raws = np.asarray(raws, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    mean = float(raws.mean()) if raws.size else float("nan")
    sd = float(raws.std(ddof=1)) if raws.size > 1 else float("nan")
    if raws.size:
        q25, q75 = (float(q) for q in np.quantile(raws, [0.25, 0.75]))
    else:
        q25 = q75 = float("nan")
    return SweepRow(
        sigma2_A_true=sigma2_A_true,
        estimator=estimator,
        mean_sigma2_A=mean,
        bias=mean - sigma2_A_true,
        sd=sd,
        q25=q25,
        q75=q75,
        mean_omega2=float(omegas.mean()) if omegas.size else float("nan"),
        omega2_true=omega2_true,
        n_fail=n_fail,
        n_reps=int(raws.size),
        alpha_realized=alpha_realized,
    )


def _run_grid(
    cfg: SweepConfig,
    design: DesignSchedule,
    perm: PermutationSpec,
    level: float,
    sampler: Callable,
) -> SweepResult:
    """Shared grid loop: each estimator runs once on a grid point's replicates.

    ``sampler(gi, s2A)`` returns grid point ``gi``'s replicates as the
    columns of a ``(design.T, cfg.replicates)`` matrix.  A fit that fails or does
    not converge counts in ``n_fail`` and is left out of the row's summary.
    """
    names = tuple(cfg.estimators)
    for name in names:
        est.check_estimator(name)
    a = alpha(design, perm)
    reml_options = dict(
        family=cfg.reml_family,
        n_starts=cfg.reml_starts,
        max_evals=cfg.reml_max_evals,
        xatol=cfg.reml_xatol,
    )

    seeds = range(cfg.replicates)
    rows = []
    for gi, s2A in enumerate(cfg.sigma2_A_grid):
        Y = sampler(gi, s2A)
        truth = make_truth(s2A, level)
        for name in names:
            fits = [
                e
                for e in est.run_estimator(name, Y, design, perm, seeds, **reml_options)
                if not isinstance(e, AllStartsFailed) and "non_converged" not in e.flags
            ]
            rows.append(
                _summarize(
                    s2A, name, [e.sigma2_A_raw for e in fits], [e.omega2 for e in fits],
                    truth.omega2, cfg.replicates - len(fits),
                    a if name.startswith("shuffle") else float("nan"),
                )
            )
        del Y  # so the next grid point's draw is the only matrix alive
    return SweepResult(rows=tuple(rows), config=cfg)


# Replicates drawn as one block of rows, and rows of X that
# :func:`_add_effects` adds to at once.
_BLOCK = 64


def _draw_normals(cfg: SweepConfig, gi: int, width: int) -> np.ndarray:
    """``width x R`` standard normals of grid point ``gi``, C-ordered:
    column r is the draw of replicate r's substream (seed, 2, gi, r).

    A block of replicates is drawn as rows and transposed into place, so
    the result is the only array of its size.
    """
    R = cfg.replicates
    W = np.empty((width, R))
    block = np.empty((min(_BLOCK, R), width))
    for r0 in range(0, R, _BLOCK):
        rows = block[: min(_BLOCK, R - r0)]
        for r, row in enumerate(rows, start=r0):
            substream(cfg.seed, 2, gi, r).standard_normal(out=row)
        W[:, r0 : r0 + len(rows)] = rows.T
    return W


def _add_effects(X: np.ndarray, *terms) -> None:
    """``X[t] += E_1[i_1[t]] + E_2[i_2[t]] + ...`` for the ``(E, i)`` pairs
    in ``terms``, summed left to right, a block of rows at a time."""
    (first, index), *rest = terms
    for t0 in range(0, len(X), _BLOCK):
        rows = slice(t0, t0 + _BLOCK)
        effects = first[index[rows]]
        for E, i in rest:
            effects += E[i[rows]]
        X[rows] += effects


def run_block_sweep(cfg: SweepConfig) -> SweepResult:
    """Sweep with additive block-effect noise and a within-block random shuffle."""
    setup_rng = substream(cfg.seed, 0)
    design = make_block_schedule(cfg.m, cfg.n, cfg.n_blocks, setup_rng)
    perm = block_random_perm(design, substream(cfg.seed, 1))
    level = noise_level(CovarianceModel.block(cfg.sigma2_block, cfg.sigma2_unit), design)
    m, k = design.m, design.m + design.n_blocks

    def sampler(gi, s2A):
        # Each replicate draws its effects, its block effects, then its noise.
        W = _draw_normals(cfg, gi, k + design.T)
        E, B, X = W[:m], W[m:k], W[k:]
        E *= np.sqrt(s2A)
        B *= np.sqrt(cfg.sigma2_block)
        X *= np.sqrt(cfg.sigma2_unit)
        _add_effects(X, (E, design.stimulus_index), (B, design.block_index))
        return X

    return _run_grid(cfg, design, perm, level, sampler)


def run_timeseries_sweep(cfg: SweepConfig) -> SweepResult:
    """Sweep with stationary decaying noise and the order-reversing shuffle."""
    setup_rng = substream(cfg.seed, 0)
    design = make_random_schedule(cfg.m, cfg.n, setup_rng)
    perm = reverse_perm(design.T)
    model = CovarianceModel.exp_nugget(cfg.lam1, cfg.lam2)
    level = noise_level(model, design, cfg.sigma2_eps)

    def sampler(gi, s2A):
        # Each replicate draws its effects, then its noise.
        W = _draw_normals(cfg, gi, design.m + design.T)
        E, X = W[: design.m], W[design.m :]
        # Column r is the noise of replicate r: sqrt(sigma2_eps) L z_r.
        X *= np.sqrt(cfg.sigma2_eps)
        model.color(X)
        E *= np.sqrt(s2A)
        _add_effects(X, (E, design.stimulus_index))
        return X

    return _run_grid(cfg, design, perm, level, sampler)


def run_reml_comparison(cfg: SweepConfig) -> SweepResult:
    """Shuffle vs. REML on time-series noise, both per replicate."""
    cfg = replace(cfg, estimators=tuple(cfg.estimators) or ("shuffle", "reml"))
    if not any(n.startswith("reml") for n in cfg.estimators):
        cfg = replace(cfg, estimators=cfg.estimators + ("reml",))
    return run_timeseries_sweep(cfg)


@dataclass(frozen=True)
class PredictionConfig:
    """Monte Carlo check that the noise level and explainable variance
    bound the accuracy of the oracle prediction rule."""

    population_size: int = 2000
    m: int = 120
    n: int = 4
    sigma2_A: float = 0.4
    sigma2_eps: float = 1.0
    noise: CovarianceModel = field(default_factory=CovarianceModel.iid)
    replicates: int = 2000
    seed: int = 0
    perturbation_sd: float = 0.3


@dataclass(frozen=True)
class PredictionSummary:
    mean_mspe: float
    se_mspe: float
    mean_corr2: float
    se_corr2: float
    mean_mspe_perturbed: float
    se_mspe_perturbed: float
    noise_level_true: float
    omega2_true: float
    m: int
    replicates: int


def run_prediction_check(cfg: PredictionConfig) -> PredictionSummary:
    """Sample population effects, draw a validation sample without
    replacement, and score the oracle predictor and a perturbed variant."""
    if cfg.m > cfg.population_size:
        raise ValueError("sample size exceeds population size")
    design = make_random_schedule(cfg.m, cfg.n, substream(cfg.seed, 0))
    truth = make_truth(cfg.sigma2_A, noise_level(cfg.noise, design, cfg.sigma2_eps))
    M = cfg.population_size

    effects = np.empty((cfg.replicates, cfg.m))
    X = np.empty((design.T, cfg.replicates))
    perturbed = np.empty((cfg.replicates, cfg.m))
    for r in range(cfg.replicates):
        rng = substream(cfg.seed, 1, r)
        mu = rng.standard_normal(M)
        mu -= mu.mean()
        if cfg.sigma2_A > 0:
            mu *= np.sqrt(cfg.sigma2_A * (M - 1) / np.sum(mu**2))
        else:
            mu[:] = 0.0
        sample = rng.choice(M, size=cfg.m, replace=False)
        effects[r] = mu[sample]
        X[:, r] = rng.standard_normal(design.T)
        perturbed[r] = effects[r] + rng.normal(0.0, cfg.perturbation_sd, cfg.m)
    X *= np.sqrt(cfg.sigma2_eps)
    cfg.noise.color(X)
    X += effects.T[design.stimulus_index]
    averages = treatment_averages(X, design).T

    mspe = np.empty(cfg.replicates)
    corr2 = np.empty(cfg.replicates)
    mspe_pert = np.empty(cfg.replicates)
    for r, (eff, pert, avgs) in enumerate(zip(effects, perturbed, averages)):
        resid = eff - avgs
        mspe[r] = np.sum(resid**2) / (cfg.m - 1)
        if np.std(eff) > 0 and np.std(avgs) > 0:
            corr2[r] = np.corrcoef(eff, avgs)[0, 1] ** 2
        else:
            corr2[r] = 0.0
        mspe_pert[r] = np.sum((pert - avgs) ** 2) / (cfg.m - 1)

    def mean_se(x):
        return float(x.mean()), float(x.std(ddof=1) / np.sqrt(len(x)))

    m_mspe, se_mspe = mean_se(mspe)
    m_c2, se_c2 = mean_se(corr2)
    m_p, se_p = mean_se(mspe_pert)
    return PredictionSummary(
        mean_mspe=m_mspe,
        se_mspe=se_mspe,
        mean_corr2=m_c2,
        se_corr2=se_c2,
        mean_mspe_perturbed=m_p,
        se_mspe_perturbed=se_p,
        noise_level_true=truth.noise_level,
        omega2_true=truth.omega2,
        m=cfg.m,
        replicates=cfg.replicates,
    )


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


def parse_fields(cls, record) -> dict:
    """Parse the text values in ``record`` that name fields of dataclass ``cls``.

    Each value is converted to its field's annotated type; a
    ``Tuple[X, ...]`` field is a comma-separated list of ``X``.
    """
    types = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if f.name not in record:
            continue
        tp, text = types[f.name], record[f.name]
        if get_origin(tp) is tuple:
            out[f.name] = tuple(get_args(tp)[0](v.strip()) for v in text.split(","))
        else:
            out[f.name] = tp(text)
    return out


def emit_sweep_table(result: SweepResult, path) -> None:
    """Write one CSV row per (grid point, estimator)."""
    types = get_type_hints(SweepRow)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in result.rows:
            writer.writerow(
                f"{getattr(row, c):.17g}" if types[c] is float else getattr(row, c)
                for c in SWEEP_COLUMNS
            )


def read_sweep_table(path) -> Tuple[SweepRow, ...]:
    """Parse a sweep CSV back into rows (round-trip check)."""
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    return tuple(SweepRow(**parse_fields(SweepRow, rec)) for rec in records)
