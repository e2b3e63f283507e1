import numpy as np
import pytest

from shufflevar import (
    CovarianceModel,
    NoReplication,
    TrivialPermutation,
    build_design,
    consistency_diagnostic,
    identity_perm,
    mom_estimate,
    ms_between,
    reverse_perm,
    sample_experiment,
    shuffle_estimate,
)
from shufflevar.estimators import run_estimators
from shufflevar.io import fit_rows
from shufflevar.noise import substream
from shufflevar.permutations import block_random_perm
from shufflevar.sweeps import make_random_schedule

from dense_oracles import covariance, estimate_record, per_series_estimates

# Reversal is non-trivial here (alpha = 1/9) and the numbers stay rational.
SCHED6 = ["a", "a", "b", "b", "a", "b"]


class TestShuffleEstimate:
    def test_hand_example(self):
        d = build_design(SCHED6)
        y = np.array([1.0, 2.0, 4.0, 0.0, 3.0, 2.0])
        # group means: a=(1+2+3)/3=2, b=(4+0+2)/3=2 -> ms_between(y)=0
        e = shuffle_estimate(y, d, reverse_perm(6))
        assert e.total == pytest.approx(0.0, abs=1e-14)
        rev = y[::-1]
        expected_raw = (0.0 - ms_between(rev, d)) / (1.0 - 1.0 / 9.0)
        assert e.sigma2_A_raw == pytest.approx(expected_raw, rel=1e-12)
        assert e.sigma2_A == 0.0
        assert "clamped" in e.flags and "degenerate" in e.flags
        assert e.omega2 == 0.0
        assert e.alpha == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(3)
        d = make_random_schedule(5, 4, rng)
        y = rng.standard_normal(d.T)
        e = shuffle_estimate(y, d, reverse_perm(d.T))
        assert e.sigma2_A_raw + e.noise_level == pytest.approx(e.total, rel=1e-12)
        assert e.total == pytest.approx(ms_between(y, d), rel=1e-14)

    def test_trivial_permutation_raises(self):
        d = build_design(["a", "a", "b", "b"])
        with pytest.raises(TrivialPermutation):
            shuffle_estimate([1.0, 2.0, 3.0, 4.0], d, identity_perm(4))
        with pytest.raises(TrivialPermutation):
            shuffle_estimate([1.0, 2.0, 3.0, 4.0], d, reverse_perm(4))

    def test_omega2_clamped_to_unit_interval(self):
        rng = np.random.default_rng(9)
        d = make_random_schedule(6, 3, rng)
        for _ in range(50):
            y = rng.standard_normal(d.T)
            e = shuffle_estimate(y, d, reverse_perm(d.T))
            assert 0.0 <= e.omega2 <= 1.0

    def test_unbiased_under_conserving_shuffle(self):
        # stationary noise + order reversal: mean raw estimate ~ true signal
        rng = np.random.default_rng(14)
        d = make_random_schedule(12, 5, rng)
        model = CovarianceModel.exp_nugget(0.6, 8.0)
        P = reverse_perm(d.T)
        raws = []
        for r in range(2000):
            y, _ = sample_experiment(d, 0.5, model, 1.0, seed=substream(31, r))
            raws.append(shuffle_estimate(y, d, P).sigma2_A_raw)
        raws = np.array(raws)
        se = raws.std(ddof=1) / np.sqrt(raws.size)
        assert abs(raws.mean() - 0.5) <= 3.5 * se

    def test_scale_equivariance(self):
        d = build_design(SCHED6)
        y = np.array([0.7, -0.2, 1.4, 0.3, -1.0, 0.8])
        P = reverse_perm(6)
        e1 = shuffle_estimate(y, d, P)
        e2 = shuffle_estimate(3.0 * y, d, P)
        assert e2.sigma2_A_raw == pytest.approx(9.0 * e1.sigma2_A_raw, rel=1e-12)


class TestMomEstimate:
    def test_hand_example(self):
        d = build_design(["a", "a", "b", "b"])
        e = mom_estimate([1.0, 2.0, 3.0, 4.0], d)
        # ms_between = 2, ms_within = 0.5, raw = 2 - 0.5/2 = 1.75
        assert e.sigma2_A_raw == pytest.approx(1.75)
        assert e.noise_level == pytest.approx(0.25)
        assert e.f_stat == pytest.approx(2.0 / 0.25)
        assert e.omega2 == pytest.approx(1.75 / 2.0)

    def test_no_replication_raises(self):
        d = build_design(["a", "b", "c"])
        with pytest.raises(NoReplication):
            mom_estimate([1.0, 2.0, 3.0], d)

    def test_zero_within_noise_infinite_f(self):
        d = build_design(["a", "a", "b", "b"])
        e = mom_estimate([1.0, 1.0, 4.0, 4.0], d)
        assert e.f_stat == np.inf
        assert e.sigma2_A_raw == pytest.approx(e.total)

    def test_unbiased_under_iid(self):
        rng = np.random.default_rng(21)
        d = make_random_schedule(10, 6, rng)
        raws = []
        for r in range(2000):
            y, _ = sample_experiment(d, 0.3, CovarianceModel.iid(), 1.0, seed=substream(77, r))
            raws.append(mom_estimate(y, d).sigma2_A_raw)
        raws = np.array(raws)
        se = raws.std(ddof=1) / np.sqrt(raws.size)
        assert abs(raws.mean() - 0.3) <= 3.5 * se

    def test_overstates_signal_under_block_noise(self):
        # repeats share a block effect -> within-treatment spread underrates noise
        from shufflevar.sweeps import make_block_schedule

        d = make_block_schedule(12, 5, 4, np.random.default_rng(2))
        model = CovarianceModel.block(0.5, 0.7)
        raws = [
            mom_estimate(
                sample_experiment(d, 0.0, model, 1.0, seed=substream(15, r))[0], d
            ).sigma2_A_raw
            for r in range(300)
        ]
        assert np.mean(raws) > 0.3  # true signal variance is 0


class TestSeriesMatrix:
    """A T x S matrix gives one estimate per column, equal to the column's own."""

    def setup_method(self):
        rng = np.random.default_rng(21)
        self.d = make_random_schedule(6, 4, rng)
        self.Y = rng.standard_normal((self.d.T, 5)) + rng.standard_normal((6, 5))[
            self.d.stimulus_index
        ]

    def test_shuffle_and_mom_per_column(self):
        P = reverse_perm(self.d.T)
        for estimate, args in ((shuffle_estimate, (P,)), (mom_estimate, ())):
            out = estimate(self.Y, self.d, *args)
            assert isinstance(out, tuple) and len(out) == 5
            assert out == tuple(estimate(y, self.d, *args) for y in self.Y.T)

    def records(self, name, estimates, columns):
        """The per-series oracle's records of ``columns``."""
        return [estimate_record(f"v{j}", name, estimates[j]) for j in columns]

    def test_run_estimators_seeds_each_reml_column(self):
        # Column j is the fit reml_estimate gives it alone with seed seeds[j].
        fits = run_estimators(["reml:iid"], self.Y[:, :2], self.d, None, [3, 8], n_starts=2)
        f = fits["reml:iid"]
        want = [
            per_series_estimates("reml:iid", self.Y[:, j], self.d, None, s, n_starts=2)[0]
            for j, s in ((0, 3), (1, 8))
        ]
        assert fit_rows(["v0", "v1"], "reml:iid", f) == self.records("reml:iid", want, (0, 1))
        assert f.alpha is None and f.usable.tolist() == [True, True]

    def test_run_estimators_keeps_a_failed_column(self, monkeypatch):
        import shufflevar.reml as reml

        want = per_series_estimates("reml:iid", self.Y[:, :3], self.d, None, n_starts=1)
        fit = reml.reml_estimate

        def fail_on_second(y, design, **options):
            if y[0] == self.Y[0, 1]:
                raise reml.AllStartsFailed("no finite start")
            return fit(y, design, **options)

        monkeypatch.setattr(reml, "reml_estimate", fail_on_second)
        f = run_estimators(["reml:iid"], self.Y[:, :3], self.d, None, 0, n_starts=1)["reml:iid"]
        assert f.method == "reml:iid"
        assert f.flags[1] == "AllStartsFailed" and f.usable.tolist() == [True, False, True]
        values = (f.sigma2_A_raw, f.sigma2_A, f.noise_level, f.total, f.omega2)
        assert np.isnan([v[1] for v in values]).all()
        rows = fit_rows(["v0", "v1", "v2"], "reml:iid", f)
        assert [rows[0], rows[2]] == self.records("reml:iid", want, (0, 2))

    def test_run_estimators_leaves_non_converged_fits_unused(self):
        # One evaluation per start: every fit stops on its budget.
        fits = run_estimators(["reml"], self.Y[:, :2], self.d, None, 0, n_starts=1, max_evals=1)
        f = fits["reml"]
        assert f.method == "reml:exp_nugget"
        assert all("non_converged" in flags.split(";") for flags in f.flags)
        assert not f.usable.any() and np.isfinite(f.sigma2_A_raw).all()

    def test_run_estimators_maps_a_failed_check_and_runs_the_rest(self):
        identity = identity_perm(self.d.T)  # shuffle's check fails
        fits = run_estimators(["shuffle", "mom", "shuffle"], self.Y, self.d, identity, 0)
        assert list(fits) == ["shuffle", "mom"]
        assert isinstance(fits["shuffle"], TrivialPermutation)
        names = [f"v{j}" for j in range(5)]
        want = self.records("mom", mom_estimate(self.Y, self.d), range(5))
        assert fit_rows(names, "mom", fits["mom"]) == want
        with pytest.raises(ValueError, match="unknown estimator 'bogus'"):
            run_estimators(["mom", "bogus"], self.Y, self.d, identity, 0)


class TestConsistencyDiagnostic:
    def test_identity_covariance(self):
        m, n = 4, 3
        T = m * n
        # eigenvalues all 1 -> sum of top m-1 squares = m-1
        expected = (m - 1) / (n**2 * (m - 1) ** 2)
        assert consistency_diagnostic(np.eye(T), m, n) == pytest.approx(expected, rel=1e-12)

    def test_rank_one_covariance(self):
        m, n = 5, 2
        T = m * n
        # single eigenvalue T, rest zero
        expected = T**2 / (n**2 * (m - 1) ** 2)
        assert consistency_diagnostic(np.ones((T, T)), m, n) == pytest.approx(
            expected, rel=1e-12
        )

    def test_decays_for_short_range_noise(self):
        # short-range correlation should diagnose far smaller than rank-one
        T = 60
        short = consistency_diagnostic(covariance(CovarianceModel.exp_nugget(0.5, 2.0), T), 20, 3)
        flat = consistency_diagnostic(np.ones((T, T)) * 0.999 + 0.001 * np.eye(T), 20, 3)
        assert short < flat / 10

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            consistency_diagnostic(np.eye(4), 1, 2)
        with pytest.raises(ValueError):
            consistency_diagnostic(np.eye(3), 10, 1)
        with pytest.raises(ValueError):
            consistency_diagnostic(np.ones((2, 3)), 2, 1)


class TestBlockShuffleUnbiased:
    def test_block_noise_recovered(self):
        # the within-block shuffle conserves additive block noise
        from shufflevar.sweeps import make_block_schedule

        d = make_block_schedule(12, 5, 4, np.random.default_rng(8))
        model = CovarianceModel.block(0.5, 0.7)
        P = block_random_perm(d, seed=3)
        raws = [
            shuffle_estimate(
                sample_experiment(d, 0.4, model, 1.0, seed=substream(55, r))[0],
                d,
                P,
            ).sigma2_A_raw
            for r in range(1500)
        ]
        raws = np.array(raws)
        se = raws.std(ddof=1) / np.sqrt(raws.size)
        assert abs(raws.mean() - 0.4) <= 3.5 * se
