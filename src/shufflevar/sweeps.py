"""Monte Carlo sweep harness: grids of signal variance x replicates.

Each sweep draws synthetic experiments for every signal-variance grid
point, runs the requested estimators per replicate, and aggregates per
(grid point, estimator) summaries.

Both sweeps run one grid loop, and it draws through the same sampler as
:func:`~shufflevar.noise.sample_experiment`.  Replicate r of grid point gi
draws from its own RNG substream keyed by (seed, 2, gi, r): the signal
effects first, then (block noise only) the block effects, then the noise.
A grid point's substreams are seeded as a batch by
:func:`~shufflevar.noise.substreams`, with the draws of
:func:`~shufflevar.noise.substream`.  Its replicates are the columns of one
C-ordered T x R matrix X, filled a block of replicates at a time.  The
time-series noise is coloured in place by
:meth:`~shufflevar.noise.CovarianceModel.color` in O(T R), with neither the
T x T covariance nor its factor formed.  Shuffle and MoM share one
:func:`~shufflevar.estimators.contrast_pass` over X and are summarised as
arrays; REML runs through :func:`~shufflevar.estimators.run_estimator` and
fits replicate r with seed r.  X is the only array of its size: the
contrasts work in blocks too, and a grid point's X is freed before the next
is drawn, so a paper-scale sweep (m = 120, n = 15, R = 1000) peaks at about
1.25 X under tracemalloc once warm.  The truth of either sweep comes from
:func:`~shufflevar.noise.noise_level`.  The prediction check draws through
the same sampler: its design from substream (seed, 0), replicate r's
population and perturbation from (seed, 1, r), and replicate r's noise,
with no signal, from (seed, 2, r), each family of substreams seeded as a
batch.  Everything runs on the calling thread; ``SweepConfig.threads`` is
accepted but no longer changes how work runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from typing import Sequence, Tuple
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import estimators as est
from .design import DesignSchedule, build_design, treatment_averages
from .noise import CovarianceModel, _draw_experiments, make_truth, noise_level
from .noise import substream, substreams
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
    # the score's largest component.  Plain ``reml`` fits exp_nugget;
    # ``reml:<family>`` names another family.
    reml_starts: int = 5
    reml_max_evals: int = 2000
    reml_xatol: float = 1e-8

    def __post_init__(self):
        for name in ("m", "n", "n_blocks", "replicates", "threads", "reml_starts", "reml_max_evals"):
            least = 2 if name == "m" else 1  # a design needs two stimuli
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
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
    model: CovarianceModel,
    sigma2_eps: float,
) -> SweepResult:
    """Shared grid loop: each estimator runs once on a grid point's replicates.

    Grid point ``gi``'s replicates are the columns of one T x R matrix from
    :func:`~shufflevar.noise._draw_experiments`, replicate r drawn from its
    substream (seed, 2, gi, r), with noise ``sigma2_eps`` times ``model``'s
    covariance.  Shuffle and MoM share one
    :func:`~shufflevar.estimators.contrast_pass` and are summarised as
    arrays; REML runs through :func:`~shufflevar.estimators.run_estimator`.
    A fit that fails or does not converge counts in ``n_fail`` and is left
    out of the row's summary.
    """
    names = tuple(cfg.estimators)
    for name in names:
        est.check_estimator(name)
    a = alpha(design, perm)
    level = noise_level(model, design, sigma2_eps)
    reml_options = dict(
        n_starts=cfg.reml_starts, max_evals=cfg.reml_max_evals, xatol=cfg.reml_xatol
    )

    R = cfg.replicates
    shuffle, mom = "shuffle" in names, "mom" in names
    rows = []
    for gi, s2A in enumerate(cfg.sigma2_A_grid):
        Y = _draw_experiments(
            design, s2A, model, sigma2_eps, substreams(cfg.seed, 2, gi, count=R), R
        )
        truth = make_truth(s2A, level)
        if shuffle or mom:
            c = est.contrast_pass(Y, design, perm, names)
        for name in names:
            if name in ("shuffle", "mom"):
                f = est.contrast_fits(c, name)
                raws, omegas = f.sigma2_A_raw, f.omega2
            else:
                fits = [
                    e
                    for e in est.run_estimator(name, Y, design, perm, range(R), **reml_options)
                    if not isinstance(e, AllStartsFailed) and "non_converged" not in e.flags
                ]
                raws, omegas = [e.sigma2_A_raw for e in fits], [e.omega2 for e in fits]
            rows.append(
                _summarize(
                    s2A, name, raws, omegas, truth.omega2, R - len(raws),
                    a if name.startswith("shuffle") else float("nan"),
                )
            )
        del Y  # so the next grid point's draw is the only matrix alive
    return SweepResult(rows=tuple(rows), config=cfg)


def run_block_sweep(cfg: SweepConfig) -> SweepResult:
    """Sweep with additive block-effect noise and a within-block random shuffle."""
    design = make_block_schedule(cfg.m, cfg.n, cfg.n_blocks, substream(cfg.seed, 0))
    perm = block_random_perm(design, substream(cfg.seed, 1))
    model = CovarianceModel.block(cfg.sigma2_block, cfg.sigma2_unit)
    return _run_grid(cfg, design, perm, model, 1.0)


def run_timeseries_sweep(cfg: SweepConfig) -> SweepResult:
    """Sweep with stationary decaying noise and the order-reversing shuffle."""
    design = make_random_schedule(cfg.m, cfg.n, substream(cfg.seed, 0))
    model = CovarianceModel.exp_nugget(cfg.lam1, cfg.lam2)
    return _run_grid(cfg, design, reverse_perm(design.T), model, cfg.sigma2_eps)


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

    def __post_init__(self):
        # Two stimuli, as every design, and two replicates, for the standard errors.
        for name, least in (("population_size", 1), ("m", 2), ("n", 1), ("replicates", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        for name in ("sigma2_A", "sigma2_eps", "perturbation_sd"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")


@dataclass(frozen=True)
class PredictionSummary:
    """Means and standard errors over replicates of the oracle predictor's
    MSPE and squared correlation against the treatment averages, and of the
    perturbed predictor's MSPE, beside the design's analytic truths.

    ``noise_level_true`` is the noise level, not the centre of
    ``mean_mspe``.  The MSPE is not centred, so its mean is
    ``sum_j Var(noise average j) / (m - 1)``, which equals
    ``noise_level_true * m / (m - 1)`` under white noise only: correlated
    noise adds the variance of the global noise average.  At
    exp_nugget(0.7, 30) with m = 10 and n = 3, that mean is 0.727 and
    ``noise_level_true`` 0.144.
    """

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
    """Score the oracle predictor, and a perturbed one, on treatment averages.

    The design comes from substream (seed, 0).  Replicate r draws its
    population, then its perturbation, from (seed, 1, r), and its noise, as
    column r of :func:`~shufflevar.noise._draw_experiments` at no signal,
    from (seed, 2, r).
    """
    if cfg.m > cfg.population_size:
        raise ValueError("sample size exceeds population size")
    design = make_random_schedule(cfg.m, cfg.n, substream(cfg.seed, 0))
    truth = make_truth(cfg.sigma2_A, noise_level(cfg.noise, design, cfg.sigma2_eps))
    M, m, R = cfg.population_size, cfg.m, cfg.replicates

    effects = np.empty((m, R))
    perturbed = np.empty((m, R))
    for r, rng in enumerate(substreams(cfg.seed, 1, count=R)):
        mu = rng.standard_normal(M)
        mu -= mu.mean()
        if cfg.sigma2_A > 0:
            mu *= np.sqrt(cfg.sigma2_A * (M - 1) / np.sum(mu**2))
        else:
            mu[:] = 0.0
        # Centring and scaling see the i.i.d. normals only through their mean
        # and sum of squares, so the population stays exchangeable and its
        # first m values have the law of a sample drawn without replacement.
        effects[:, r] = mu[:m]
        perturbed[:, r] = mu[:m] + rng.normal(0.0, cfg.perturbation_sd, m)
    noise = _draw_experiments(
        design, 0.0, cfg.noise, cfg.sigma2_eps, substreams(cfg.seed, 2, count=R), R
    )
    averages = effects + treatment_averages(noise, design)
    del noise  # T x R, freed before the scores' m x R temporaries

    mspe = np.sum((effects - averages) ** 2, axis=0) / (m - 1)
    mspe_pert = np.sum((perturbed - averages) ** 2, axis=0) / (m - 1)
    effects -= effects.mean(axis=0)
    averages -= averages.mean(axis=0)
    s_ee, s_aa = np.sum(effects**2, axis=0), np.sum(averages**2, axis=0)
    corr2 = np.divide(
        np.sum(effects * averages, axis=0) ** 2, s_ee * s_aa,
        out=np.zeros(R), where=(s_ee > 0) & (s_aa > 0),
    )

    def mean_se(x):
        return float(x.mean()), float(x.std(ddof=1) / np.sqrt(len(x)))

    return PredictionSummary(
        *mean_se(mspe), *mean_se(corr2), *mean_se(mspe_pert),
        noise_level_true=truth.noise_level, omega2_true=truth.omega2, m=m, replicates=R,
    )


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


def parse_fields(cls, record) -> dict:
    """Parse the text values in ``record`` that name fields of dataclass ``cls``.

    Each value is converted to its field's annotated type; a
    ``Tuple[X, ...]`` field is a comma-separated list of ``X``.  A value
    that does not convert is an error naming its key.
    """
    types = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if f.name not in record:
            continue
        tp, text = types[f.name], record[f.name]
        try:
            if get_origin(tp) is tuple:
                out[f.name] = tuple(get_args(tp)[0](v.strip()) for v in text.split(","))
            else:
                out[f.name] = tp(text)
        except ValueError as exc:
            raise ValueError(f"{exc} for key {f.name!r}") from None
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
