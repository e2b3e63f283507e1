import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from shufflevar import NoReplication, TrivialPermutation, sweeps
from shufflevar.noise import CovarianceModel, psd_cholesky, sample_experiment, substream
from shufflevar.permutations import alpha, block_random_perm, reverse_perm
from shufflevar.sweeps import (
    PredictionConfig,
    SweepConfig,
    emit_sweep_table,
    make_block_schedule,
    make_random_schedule,
    read_sweep_table,
    run_block_sweep,
    run_prediction_check,
    run_reml_comparison,
    run_timeseries_sweep,
)

from dense_oracles import dense_noise_level, per_series_estimates

SMALL_BLOCK = SweepConfig(
    m=8, n=3, n_blocks=2, sigma2_A_grid=(0.0, 0.4), replicates=30, seed=5
)
SMALL_TS = SweepConfig(m=8, n=3, sigma2_A_grid=(0.0, 0.4), replicates=30, seed=5)
SUMMARY_FIELDS = ("mean_sigma2_A", "sd", "q25", "q75", "mean_omega2")


def per_replicate_summaries(cfg, design, perm, draw):
    """Each (grid point, estimator) row's summary statistics, from series
    built one replicate at a time: ``draw(rng, s2A)`` makes replicate r's
    series from its substream (seed, 2, gi, r)."""
    out = []
    for gi, s2A in enumerate(cfg.sigma2_A_grid):
        series = [
            draw(substream(cfg.seed, 2, gi, r), s2A) for r in range(cfg.replicates)
        ]
        for name in cfg.estimators:
            fits = [per_series_estimates(name, y, design, perm)[0] for y in series]
            raws = np.array([e.sigma2_A_raw for e in fits])
            q25, q75 = np.quantile(raws, [0.25, 0.75])
            out.append(
                (raws.mean(), raws.std(ddof=1), q25, q75,
                 np.mean([e.omega2 for e in fits]))
            )
    return out


def summaries(result):
    return [tuple(getattr(r, f) for f in SUMMARY_FIELDS) for r in result.rows]


class TestConfig:
    def test_invalid_replicates(self):
        with pytest.raises(ValueError):
            SweepConfig(replicates=0)

    @pytest.mark.parametrize(
        "field", ["m", "n", "n_blocks", "replicates", "threads", "reml_starts", "reml_max_evals"]
    )
    @pytest.mark.parametrize("value", [0, -3])
    def test_counts_below_one_rejected(self, field, value):
        least = 2 if field == "m" else 1  # a design needs two stimuli
        with pytest.raises(ValueError, match=f"{field} must be at least {least}, got {value}"):
            SweepConfig(**{field: value})

    def test_one_stimulus_rejected(self):
        with pytest.raises(ValueError, match="m must be at least 2, got 1"):
            SweepConfig(m=1)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            SweepConfig(sigma2_A_grid=())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma2_A_grid", (0.2, -1.0)),
            ("sigma2_A_grid", (float("nan"),)),
            ("sigma2_eps", -1.0),
            ("sigma2_block", -0.5),
            ("sigma2_unit", -1e-9),
        ],
    )
    def test_negative_variance(self, field, value):
        with pytest.raises(ValueError, match="nonnegative"):
            SweepConfig(**{field: value})

    @pytest.mark.parametrize("field", ["sigma2_A_grid", "sigma2_eps", "sigma2_block", "sigma2_unit"])
    def test_infinite_variance(self, field):
        value = (0.0, float("inf")) if field == "sigma2_A_grid" else float("inf")
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SweepConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_reml_xatol_rejected(self, value):
        # with nan every REML start stopped where it began, reported converged
        with pytest.raises(ValueError, match="reml_xatol must be finite and positive"):
            SweepConfig(reml_xatol=value)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            SweepConfig(seed=-1)

    def test_nan_lam2_rejected(self):
        with pytest.raises(ValueError, match="lam2"):
            run_timeseries_sweep(replace(SMALL_TS, lam2=float("nan")))

    def test_infinite_lam2_is_constant_correlation(self):
        res = run_timeseries_sweep(replace(SMALL_TS, lam2=float("inf"), estimators=("shuffle", "mom")))
        for row in res.rows:
            assert (row.n_fail, row.n_reps) == (0, SMALL_TS.replicates)
            assert np.isfinite([row.mean_sigma2_A, row.sd, row.omega2_true]).all()

    def test_block_divisibility(self):
        with pytest.raises(ValueError):
            make_block_schedule(10, 3, 4, np.random.default_rng(0))


class TestBlockSweep:
    def test_row_layout(self):
        res = run_block_sweep(SMALL_BLOCK)
        assert len(res.rows) == 2  # grid points x estimators
        assert [r.sigma2_A_true for r in res.rows] == [0.0, 0.4]
        assert all(r.estimator == "shuffle" for r in res.rows)
        assert all(r.n_reps == 30 for r in res.rows)
        assert all(r.n_fail == 0 for r in res.rows)

    def test_alpha_realized_below_one(self):
        res = run_block_sweep(SMALL_BLOCK)
        assert all(0.0 <= r.alpha_realized < 1.0 for r in res.rows)

    def test_omega2_true_consistent(self):
        res = run_block_sweep(SMALL_BLOCK)
        assert res.rows[0].omega2_true == 0.0
        assert 0.0 < res.rows[1].omega2_true < 1.0

    def test_deterministic_across_thread_counts(self):
        from dataclasses import replace

        serial = run_block_sweep(SMALL_BLOCK)
        threaded = run_block_sweep(replace(SMALL_BLOCK, threads=4))
        for a, b in zip(serial.rows, threaded.rows):
            assert a == b

    def test_matches_per_replicate_oracle(self):
        # The stacked rows use the per-replicate arithmetic, so exactly equal.
        cfg = replace(SMALL_BLOCK, estimators=("shuffle", "mom"))
        design = make_block_schedule(cfg.m, cfg.n, cfg.n_blocks, substream(cfg.seed, 0))
        perm = block_random_perm(design, substream(cfg.seed, 1))
        h, blk = design.stimulus_index, design.block_index

        def draw(rng, s2A):
            effects = rng.normal(0.0, np.sqrt(s2A), design.m)
            block_fx = rng.normal(0.0, np.sqrt(cfg.sigma2_block), design.n_blocks)
            unit = rng.normal(0.0, np.sqrt(cfg.sigma2_unit), design.T)
            return effects[h] + block_fx[blk] + unit

        expected = per_replicate_summaries(cfg, design, perm, draw)
        assert summaries(run_block_sweep(cfg)) == expected

    def test_single_replicate_sd_nan(self):
        from dataclasses import replace

        res = run_block_sweep(replace(SMALL_BLOCK, replicates=1))
        assert all(np.isnan(r.sd) for r in res.rows)


class TestTimeseriesSweep:
    def test_row_layout_and_alpha(self):
        res = run_timeseries_sweep(SMALL_TS)
        assert len(res.rows) == 2
        assert all(0.0 <= r.alpha_realized < 0.5 for r in res.rows)

    def test_mom_estimator_included(self):
        from dataclasses import replace

        res = run_timeseries_sweep(replace(SMALL_TS, estimators=("shuffle", "mom")))
        assert [r.estimator for r in res.rows] == ["shuffle", "mom", "shuffle", "mom"]
        # mom rows carry no mixing coefficient
        assert all(
            np.isnan(r.alpha_realized) for r in res.rows if r.estimator == "mom"
        )

    def test_unknown_estimator(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            run_timeseries_sweep(replace(SMALL_TS, estimators=("bogus",)))

    def test_deterministic_across_thread_counts(self):
        threaded = run_timeseries_sweep(replace(SMALL_TS, threads=4))
        assert run_timeseries_sweep(SMALL_TS).rows == threaded.rows

    def test_matches_per_replicate_oracle(self):
        # The sweep colours all of a grid point's noise at once through the
        # O(T) factor; the oracle multiplies each replicate's normals by the
        # dense Cholesky factor.
        cfg = replace(SMALL_TS, estimators=("shuffle", "mom"), sigma2_eps=1.7)
        design = make_random_schedule(cfg.m, cfg.n, substream(cfg.seed, 0))
        Sigma = CovarianceModel.exp_nugget(cfg.lam1, cfg.lam2).materialize(design)
        chol = psd_cholesky(Sigma) * np.sqrt(cfg.sigma2_eps)
        h = design.stimulus_index

        def draw(rng, s2A):
            effects = rng.normal(0.0, np.sqrt(s2A), design.m)
            return effects[h] + chol @ rng.standard_normal(design.T)

        expected = per_replicate_summaries(cfg, design, reverse_perm(design.T), draw)
        np.testing.assert_allclose(
            summaries(run_timeseries_sweep(cfg)), expected, rtol=1e-12, atol=0
        )


    def test_no_t_by_t_matrix(self):
        # T = 4200: one T x T float matrix is 141 MB; the sweep must peak at a
        # tenth of that.
        cfg = SweepConfig(m=280, n=15, sigma2_A_grid=(0.0,), replicates=2, seed=1,
                          estimators=("shuffle", "mom"))
        tracemalloc.start()
        try:
            run_timeseries_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4200**2 * 8 / 10


@pytest.mark.parametrize("sweep", [run_timeseries_sweep, run_block_sweep])
def test_one_t_by_r_matrix_per_grid_point(sweep):
    # Paper scale, two grid points: a grid point's T x R matrix is the only
    # array of its size alive, and the previous one is freed before the
    # next is drawn, so the sweep peaks well below two of them.
    cfg = SweepConfig(m=120, n=15, n_blocks=20, sigma2_A_grid=(0.0, 0.5),
                      replicates=1000, seed=2, estimators=("shuffle", "mom"))
    sweep(replace(cfg, replicates=2))  # so first-call imports are not counted
    tracemalloc.start()
    try:
        sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 1800 * 1000 * 8


@pytest.mark.parametrize("kind", ["block", "timeseries"])
def test_replicates_are_sample_experiment_draws(kind, monkeypatch):
    # One sampler: column r of grid point gi's matrix is the series that
    # sample_experiment draws from the same substream, bit for bit.  70
    # replicates span two blocks of drawn rows.
    cfg = replace(SMALL_BLOCK if kind == "block" else SMALL_TS, replicates=70, sigma2_eps=1.7)
    if kind == "block":  # the block sweep's noise ignores sigma2_eps
        sweep = run_block_sweep
        design = make_block_schedule(cfg.m, cfg.n, cfg.n_blocks, substream(cfg.seed, 0))
        model, sigma2_eps = CovarianceModel.block(cfg.sigma2_block, cfg.sigma2_unit), 1.0
    else:
        sweep = run_timeseries_sweep
        design = make_random_schedule(cfg.m, cfg.n, substream(cfg.seed, 0))
        model, sigma2_eps = CovarianceModel.exp_nugget(cfg.lam1, cfg.lam2), cfg.sigma2_eps
    seen = []
    draw = sweeps._draw_experiments

    def spy(*args, **kwargs):
        Y = draw(*args, **kwargs)
        seen.append(Y.copy())
        return Y

    monkeypatch.setattr(sweeps, "_draw_experiments", spy)
    sweep(cfg)
    assert len(seen) == len(cfg.sigma2_A_grid)
    for gi, (s2A, Y) in enumerate(zip(cfg.sigma2_A_grid, seen)):
        for r in range(cfg.replicates):
            rng = substream(cfg.seed, 2, gi, r)
            assert np.array_equal(Y[:, r], sample_experiment(design, s2A, model, sigma2_eps, rng)[0])


@pytest.mark.parametrize("kind", ["timeseries", "block"])
def test_contrast_rows_are_per_series_rows(kind, monkeypatch):
    # Shuffle and MoM are summarised from one contrast pass as arrays; each
    # row has the repr of the row summarised from the per-series oracle's
    # VarianceEstimate objects on the same drawn matrix.
    base = SMALL_BLOCK if kind == "block" else SMALL_TS
    cfg = replace(base, estimators=("shuffle", "mom"), replicates=70)
    sweep = run_block_sweep if kind == "block" else run_timeseries_sweep
    seen = []
    draw = sweeps._draw_experiments

    def spy(design, *args, **kwargs):
        Y = draw(design, *args, **kwargs)
        seen.append((design, Y.copy()))
        return Y

    monkeypatch.setattr(sweeps, "_draw_experiments", spy)
    rows = iter(sweep(cfg).rows)
    for s2A, (design, Y) in zip(cfg.sigma2_A_grid, seen):
        if kind == "block":
            perm = block_random_perm(design, substream(cfg.seed, 1))
        else:
            perm = reverse_perm(design.T)
        for name in cfg.estimators:
            got = next(rows)
            fits = per_series_estimates(name, Y, design, perm)
            want = sweeps._summarize(
                s2A, name, np.array([e.sigma2_A_raw for e in fits]),
                np.array([e.omega2 for e in fits]),
                got.omega2_true, cfg.replicates - len(fits),
                alpha(design, perm) if name == "shuffle" else float("nan"),
            )
            assert repr(got) == repr(want)
    assert next(rows, None) is None


@pytest.mark.parametrize(
    "estimators, error",
    [(("reml", "mom"), NoReplication), (("shuffle", "mom"), TrivialPermutation)],
)
def test_a_failed_check_raises_before_any_reml_fit(estimators, error, monkeypatch):
    # At n = 1 MoM has no repeats and every shuffle only relabels.
    from shufflevar import reml

    calls = []
    fit = reml.reml_estimate

    def counted(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(reml, "reml_estimate", counted)
    with pytest.raises(error):
        run_timeseries_sweep(replace(SMALL_TS, n=1, estimators=estimators))
    assert calls == []


def test_prediction_noise_is_sample_experiment_draws(monkeypatch):
    # The prediction check draws its noise through the sweeps' sampler:
    # column r is the no-signal series that sample_experiment draws from
    # substream (seed, 2, r), bit for bit.  70 replicates span two blocks
    # of drawn rows.
    cfg = PredictionConfig(population_size=30, m=6, n=3, sigma2_eps=1.7,
                           noise=CovarianceModel.exp_nugget(0.7, 4.0), replicates=70, seed=4)
    design = make_random_schedule(cfg.m, cfg.n, substream(cfg.seed, 0))
    seen = []
    averages = sweeps.treatment_averages

    def spy(Y, *args, **kwargs):
        seen.append(Y.copy())
        return averages(Y, *args, **kwargs)

    monkeypatch.setattr(sweeps, "treatment_averages", spy)
    run_prediction_check(cfg)
    [noise] = seen
    assert noise.shape == (design.T, cfg.replicates)
    for r in range(cfg.replicates):
        rng = substream(cfg.seed, 2, r)
        want = sample_experiment(design, 0.0, cfg.noise, cfg.sigma2_eps, rng)[0]
        assert np.array_equal(noise[:, r], want)


class TestRemlComparison:
    def test_appends_reml(self):
        from dataclasses import replace

        cfg = replace(
            SMALL_TS,
            replicates=3,
            sigma2_A_grid=(0.4,),
            reml_starts=1,
            reml_max_evals=300,
            reml_xatol=1e-4,
        )
        res = run_reml_comparison(cfg)
        assert [r.estimator for r in res.rows] == ["shuffle", "reml"]
        # every replicate is either summarized or counted as failed
        assert all(r.n_reps + r.n_fail == 3 for r in res.rows)

    def test_named_family_is_fitted(self):
        from dataclasses import astuple, replace

        cfg = replace(SMALL_TS, replicates=3, reml_starts=1, reml_max_evals=300)
        iid = run_timeseries_sweep(replace(cfg, estimators=("reml:iid",)))
        assert [r.estimator for r in iid.rows] == ["reml:iid"] * 2
        # Plain reml fits exp_nugget, as estimate does: equal apart from the
        # estimator name (NaN cells compare equal here), and not iid.
        named = run_timeseries_sweep(replace(cfg, estimators=("reml:exp_nugget",)))
        plain = run_timeseries_sweep(replace(cfg, estimators=("reml",)))
        np.testing.assert_equal(
            [astuple(replace(r, estimator="reml")) for r in named.rows],
            [astuple(r) for r in plain.rows],
        )
        assert [r.mean_sigma2_A for r in iid.rows] != [r.mean_sigma2_A for r in plain.rows]

    def test_non_converged_fits_left_out_of_summary(self):
        # Five objective-and-score calls cannot finish an exp-nugget L-BFGS
        # start, so every fit stops on its budget and none may enter the summary.
        cfg = replace(SMALL_TS, replicates=4, reml_starts=1, reml_max_evals=5)
        res = run_reml_comparison(cfg)
        reml_rows = [r for r in res.rows if r.estimator == "reml"]
        assert len(reml_rows) == len(cfg.sigma2_A_grid)
        for r in reml_rows:
            assert (r.n_fail, r.n_reps) == (cfg.replicates, 0)
            assert np.isnan(r.bias) and np.isnan(r.mean_omega2)
        shuffle_only = run_timeseries_sweep(replace(cfg, estimators=("shuffle",)))
        assert [r for r in res.rows if r.estimator == "shuffle"] == list(
            shuffle_only.rows
        )


class TestTableRoundTrip:
    def test_emit_and_read(self, tmp_path):
        res = run_block_sweep(SMALL_BLOCK)
        path = tmp_path / "sweep.csv"
        emit_sweep_table(res, path)
        back = read_sweep_table(path)
        assert back == res.rows

    def test_nan_round_trip(self, tmp_path):
        from dataclasses import replace

        res = run_block_sweep(replace(SMALL_BLOCK, replicates=1))
        path = tmp_path / "sweep.csv"
        emit_sweep_table(res, path)
        back = read_sweep_table(path)
        assert np.isnan(back[0].sd)


class TestPredictionCheck:
    def test_small_run_bounds(self):
        cfg = PredictionConfig(
            population_size=200, m=40, n=4, sigma2_A=0.4, replicates=300, seed=3
        )
        out = run_prediction_check(cfg)
        assert out.noise_level_true == pytest.approx(0.25, rel=1e-12)
        # oracle MSPE concentrates near the noise level
        assert out.mean_mspe == pytest.approx(
            out.noise_level_true, abs=6 * out.se_mspe + 0.05
        )
        # a perturbed predictor does strictly worse
        assert out.mean_mspe_perturbed > out.mean_mspe

    def test_correlated_noise_mspe(self):
        # E[mspe] = sum_j Var(noise average of stimulus j) / (m - 1), from the
        # dense covariance (0.366 here).  The SE of the mean is about 1% of
        # it; white noise would sit 9% low and unscaled noise 23% low.
        cfg = PredictionConfig(
            population_size=200, m=40, n=4, sigma2_A=0.4, sigma2_eps=1.3,
            noise=CovarianceModel.exp_nugget(0.7, 5.0), replicates=800, seed=3,
        )
        out = run_prediction_check(cfg)
        design = make_random_schedule(cfg.m, cfg.n, substream(cfg.seed, 0))
        Sigma = cfg.sigma2_eps * cfg.noise.materialize(design)
        slots = design.stimulus_groups()
        want = sum(Sigma[np.ix_(g, g)].sum() for g in slots) / cfg.n**2 / (cfg.m - 1)
        assert abs(out.mean_mspe - want) <= 4 * out.se_mspe
        assert out.noise_level_true == pytest.approx(
            dense_noise_level(cfg.noise, design, cfg.sigma2_eps), rel=1e-12
        )

    @pytest.mark.parametrize("sigma2_A", [0.4, 0.0])
    def test_scores_match_a_per_replicate_loop(self, sigma2_A, monkeypatch):
        # The column reductions against per-replicate scoring with
        # np.corrcoef, from effects redrawn off substream (seed, 1, r) (the
        # population's first m values, then the perturbation) and the noise
        # averages the check computed.  Tolerance 1e-12 relative, fixed
        # before the run; sigma2_A = 0 takes the zero-variance corr2 branch.
        cfg = PredictionConfig(population_size=30, m=6, n=3, sigma2_A=sigma2_A,
                               replicates=40, seed=2)
        noise_averages = []
        averages = sweeps.treatment_averages

        def spy(*args):
            noise_averages.append(averages(*args))
            return noise_averages[-1]

        monkeypatch.setattr(sweeps, "treatment_averages", spy)
        out = run_prediction_check(cfg)
        M, m = cfg.population_size, cfg.m
        mspe, corr2, mspe_pert = [], [], []
        for r in range(cfg.replicates):
            rng = substream(cfg.seed, 1, r)
            mu = rng.standard_normal(M)
            mu -= mu.mean()
            mu *= np.sqrt(sigma2_A * (M - 1) / np.sum(mu**2))
            eff = mu[:m]
            pert = eff + rng.normal(0.0, cfg.perturbation_sd, m)
            avgs = eff + noise_averages[0][:, r]
            mspe.append(np.sum((eff - avgs) ** 2) / (m - 1))
            corr2.append(np.corrcoef(eff, avgs)[0, 1] ** 2 if np.std(eff) > 0 else 0.0)
            mspe_pert.append(np.sum((pert - avgs) ** 2) / (m - 1))
        for got, want in ((out.mean_mspe, mspe), (out.mean_corr2, corr2),
                          (out.mean_mspe_perturbed, mspe_pert)):
            assert got == pytest.approx(np.mean(want), rel=1e-12, abs=0.0)
        assert out.se_corr2 == pytest.approx(np.std(corr2, ddof=1) / np.sqrt(cfg.replicates), rel=1e-12)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("population_size", 0, "population_size must be at least 1, got 0"),
            ("m", 0, "m must be at least 2, got 0"),
            ("m", 1, "m must be at least 2, got 1"),
            ("n", -2, "n must be at least 1, got -2"),
            ("replicates", 1, "replicates must be at least 2, got 1"),
            ("sigma2_A", -0.1, "sigma2_A must be finite and nonnegative, got -0.1"),
            ("sigma2_A", float("nan"), "sigma2_A must be finite and nonnegative, got nan"),
            ("sigma2_eps", float("inf"), "sigma2_eps must be finite and nonnegative, got inf"),
            ("perturbation_sd", -1.0, "perturbation_sd must be finite and nonnegative"),
            ("perturbation_sd", float("nan"), "perturbation_sd must be finite and nonnegative"),
        ],
    )
    def test_bad_config_rejected(self, field, value, message):
        # sigma2_A = -0.1 quietly drew zero effects and reported a negative
        # omega2; replicates = 1 gave nan standard errors.
        with pytest.raises(ValueError, match=message):
            PredictionConfig(**{"population_size": 50, "m": 10, "n": 2, "replicates": 20,
                                field: value})

    def test_smallest_valid_config_runs(self):
        out = run_prediction_check(
            PredictionConfig(population_size=2, m=2, n=1, sigma2_A=0.0, sigma2_eps=0.0,
                             replicates=2, perturbation_sd=0.0)
        )
        assert out.replicates == 2 and out.omega2_true == 0.0

    def test_sample_larger_than_population(self):
        with pytest.raises(ValueError):
            run_prediction_check(PredictionConfig(population_size=10, m=20))
