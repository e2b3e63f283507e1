import tracemalloc

import numpy as np
import pytest

from shufflevar import (
    CovarianceModel,
    MissingBlocks,
    NonStationary,
    build_design,
    noise_conservation_gap,
    noise_level,
    sample_experiment,
)
from shufflevar.noise import (
    _ArPrecision,
    _ExpNuggetPrecision,
    _draw_experiments,
    _exp_nugget_pivots,
    _lapack,
    _toeplitz,
    ar_autocorrelations,
    make_truth,
    psd_cholesky,
    substream,
    substreams,
)
from shufflevar.permutations import (
    block_random_perm,
    cyclic_shift,
    identity_perm,
    odd_even_swap,
    reverse_perm,
)
from shufflevar.sweeps import make_block_schedule, make_random_schedule

from dense_oracles import covariance, dense_gap, dense_noise_level


class TestExpNugget:
    def test_zero_lam1_identity(self):
        assert np.array_equal(covariance(CovarianceModel.exp_nugget(0.0, 10.0), 6), np.eye(6))

    def test_unit_diagonal(self):
        S = covariance(CovarianceModel.exp_nugget(0.9, 3.0), 8)
        assert np.allclose(np.diag(S), 1.0)

    def test_reference_long_range_value(self):
        S = covariance(CovarianceModel.exp_nugget(0.7, 30.0), 200)
        assert S[0, 125] == pytest.approx(0.0109, abs=1e-3)

    def test_toeplitz_structure(self):
        S = covariance(CovarianceModel.exp_nugget(0.5, 4.0), 10)
        for k in range(1, 10):
            diag = np.diag(S, k)
            assert np.allclose(diag, diag[0])

    def test_symmetric(self):
        S = covariance(CovarianceModel.exp_nugget(0.8, 7.0), 15)
        assert np.allclose(S, S.T)

    def test_param_range(self):
        with pytest.raises(ValueError):
            covariance(CovarianceModel.exp_nugget(1.2, 3.0), 5)
        with pytest.raises(ValueError):
            covariance(CovarianceModel.exp_nugget(0.5, 0.0), 5)
        with pytest.raises(ValueError, match="lam2"):
            covariance(CovarianceModel.exp_nugget(0.5, float("nan")), 5)

    @pytest.mark.parametrize("in_place", [True, False])
    def test_structured_solve_fills_its_arrays_at_each_point(self, in_place):
        # The derivatives read SU = Sigma^-1 B and MU = M^-1 B from the
        # arrays they view, so each solve must land there, in both forms of
        # Sigma^-1 (lam1 delta below nu, then above it) and also where the
        # LAPACK wrapper hands back a copy instead of solving in place.
        T = 30
        B = np.asfortranarray(np.random.default_rng(0).standard_normal((T, 4)))
        precision = _ExpNuggetPrecision(B)
        if not in_place:
            dpttrs = _lapack().dpttrs
            precision.dpttrs = lambda d, e, b, overwrite_b: dpttrs(d, e, b.copy())
        for lam1, lam2 in [(0.3, 5.0), (0.95, 2.0), (0.6, 12.0)]:
            logdet = precision.solve(lam1, lam2)
            Sigma = covariance(CovarianceModel.exp_nugget(lam1, lam2), T)
            # M = delta K^-1 Sigma for K the AR(1) correlation (lam1 = 1).
            K = covariance(CovarianceModel.exp_nugget(1.0, lam2), T)
            M = -np.expm1(-2.0 / lam2) * np.linalg.solve(K, Sigma)
            np.testing.assert_allclose(precision.SU, np.linalg.solve(Sigma, B), rtol=1e-9)
            np.testing.assert_allclose(precision.MU, np.linalg.solve(M, B), rtol=1e-9)
            assert logdet == pytest.approx(np.linalg.slogdet(Sigma)[1], rel=1e-12)


@pytest.mark.parametrize(
    "family, points",
    [
        ("iid", [(), ()]),
        ("exp_nugget", [(0.3, 5.0), (0.95, 2.0), (0.6, 12.0)]),
        ("ar", [(0.5,), (1.01,), (-0.7,), (0.2,)]),
        ("ar", [(0.5, 0.2), (1.2, -0.5), (0.5, 0.6), (-0.3, 0.4)]),
        ("ar", [(0.5, -0.2, 0.1), (0.1, 0.3, 0.4), (0.9, 0.3, -0.1), (-0.6, -0.2, 0.2)]),
    ],
    ids=["iid", "exp_nugget", "ar1", "ar2", "ar3"],
)
def test_precision_object_holds_nothing_from_the_last_point(family, points):
    # REML's precision objects keep arrays and p x p quantities from one
    # point to the next.  At each point of one object, the solve must match
    # the dense Sigma, and the derivatives those of a fresh object solved at
    # that point alone, also after a non-stationary point was rejected.
    T, k = 30, 6
    rng = np.random.default_rng(1)
    B = np.asfortranarray(rng.standard_normal((T, k)))
    R, K = rng.standard_normal((k, 2)), rng.standard_normal((k, k))
    K += K.T

    def fresh():
        if family == "exp_nugget":
            return _ExpNuggetPrecision(B)
        return _ArPrecision(B, len(points[0]))

    precision = fresh()
    for theta in points:
        try:
            Sigma = covariance(CovarianceModel(family, theta), T)
        except NonStationary:
            with pytest.raises(NonStationary):
                precision.solve(*theta)
            continue
        logdet = precision.solve(*theta)
        np.testing.assert_allclose(precision.SU, np.linalg.solve(Sigma, B), rtol=1e-9)
        assert logdet == pytest.approx(np.linalg.slogdet(Sigma)[1], rel=1e-12)
        if not theta:  # iid: Sigma = I exactly, and no derivatives
            assert np.array_equal(precision.SU, B) and logdet == 0.0
            continue
        other = fresh()
        other.solve(*theta)
        got, want = precision.derivatives(R, K), other.derivatives(R, K)
        np.testing.assert_array_equal(np.array(got), np.array(want))


class TestBlockCovariance:
    def _design(self):
        return build_design(
            ["a", "a", "b", "b", "c", "c", "d", "d"],
            [0, 0, 0, 0, 1, 1, 1, 1],
        )

    def test_zero_block_effect(self):
        S = CovarianceModel.block(0.0, 0.7).materialize(self._design())
        assert np.allclose(S, 0.7 * np.eye(8))

    def test_structure(self):
        S = CovarianceModel.block(0.5, 0.7).materialize(self._design())
        assert S[0, 0] == pytest.approx(1.2)
        assert S[0, 1] == pytest.approx(0.5)  # within block
        assert S[0, 4] == pytest.approx(0.0)  # across blocks

    def test_missing_blocks(self):
        d = build_design(["a", "a", "b", "b"])
        with pytest.raises(MissingBlocks):
            CovarianceModel.block(0.5, 0.7).materialize(d)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            CovarianceModel.block(0.0, 0.0).materialize(self._design())

    @pytest.mark.parametrize("params", [(np.nan, 1.0), (0.5, np.inf), (-np.inf, 1.0), (0.5, -0.1)])
    def test_bad_variances_rejected_by_matrix_and_level(self, params):
        # materialize and noise_level go through the same checks
        d, model = self._design(), CovarianceModel.block(*params)
        named = r"sigma2_block=.*, sigma2_unit="
        with pytest.raises(ValueError, match=named):
            model.materialize(d)
        with pytest.raises(ValueError, match=named):
            noise_level(model, d)


class TestArCovariance:
    def test_empty_identity(self):
        assert np.array_equal(covariance(CovarianceModel.ar([]), 5), np.eye(5))

    def test_ar1_closed_form(self):
        S = covariance(CovarianceModel.ar([0.5]), 10)
        for k in range(10):
            assert S[0, k] == pytest.approx(0.5**k, rel=1e-12)

    def test_nonstationary_rejected(self):
        with pytest.raises(NonStationary):
            covariance(CovarianceModel.ar([1.01]), 5)
        with pytest.raises(NonStationary):
            covariance(CovarianceModel.ar([0.5, 0.6]), 5)

    def test_ar3_against_simulation(self):
        # long-run sample autocorrelation of a simulated path
        a = (0.5, -0.2, 0.1)
        rho = ar_autocorrelations(a, 6)
        rng = np.random.default_rng(42)
        N = 1_000_000
        x = np.zeros(N)
        innov = rng.standard_normal(N)
        for t in range(3, N):
            x[t] = a[0] * x[t - 1] + a[1] * x[t - 2] + a[2] * x[t - 3] + innov[t]
        x = x[1000:]
        x -= x.mean()
        denom = np.dot(x, x)
        for k in range(1, 6):
            sample = np.dot(x[:-k], x[k:]) / denom
            assert sample == pytest.approx(rho[k], abs=5e-3)

    def test_unit_diagonal_psd(self):
        S = covariance(CovarianceModel.ar([0.5, -0.2, 0.1]), 30)
        assert np.allclose(np.diag(S), 1.0)
        assert np.linalg.eigvalsh(S).min() > -1e-8


class TestCovarianceModel:
    def test_families_materialize(self):
        d = make_block_schedule(4, 3, 2, np.random.default_rng(0))
        for model in [
            CovarianceModel.iid(),
            CovarianceModel.exp_nugget(0.7, 30.0),
            CovarianceModel.block(0.5, 0.7),
            CovarianceModel.ar([0.3]),
        ]:
            S = model.materialize(d)
            assert S.shape == (d.T, d.T)
            assert np.allclose(S, S.T)
            assert np.linalg.eigvalsh(S).min() > -1e-8

    def test_unknown_family(self):
        d = build_design(["a", "a", "b", "b"])
        with pytest.raises(ValueError):
            CovarianceModel("bogus").materialize(d)


class TestNoiseLevel:
    def test_iid_is_sigma_over_n(self):
        rng = np.random.default_rng(1)
        d = make_random_schedule(6, 13, rng)
        assert noise_level(CovarianceModel.iid(), d, 1.0) == pytest.approx(1.0 / 13.0, rel=1e-12)

    def test_zero_variance(self):
        d = build_design(["a", "a", "b", "b"])
        assert noise_level(CovarianceModel.iid(), d, 0.0) == 0.0

    def test_block_noise_exceeds_iid_rate(self):
        # repeats confined to one block: averaging cannot cancel the block effect
        d = make_block_schedule(4, 5, 2, np.random.default_rng(3))
        assert noise_level(CovarianceModel.block(0.5, 0.5), d, 1.0) > 1.0 / d.n

    def test_dimension_mismatch(self):
        d = build_design(["a", "a", "b", "b"])
        with pytest.raises(ValueError):
            noise_level(CovarianceModel.iid(), d, 1.0, perm=reverse_perm(5))

    @pytest.mark.parametrize(
        "model",
        [CovarianceModel.iid(), CovarianceModel.exp_nugget(0.7, 30.0),
         CovarianceModel.ar([0.5, -0.2]), CovarianceModel.block(0.5, 0.7)],
        ids=["iid", "exp_nugget", "ar", "block"],
    )
    def test_returns_python_float(self, model):
        # np.float64 is a float subclass, so only the exact type tells;
        # exp_nugget's used to leak into summaries and REML estimates.
        d = make_block_schedule(6, 3, 2, np.random.default_rng(2))
        perm = block_random_perm(d, np.random.default_rng(3))
        assert type(noise_level(model, d, 1.0)) is float
        assert type(noise_level(model, d, 1.0, perm)) is float
        assert type(noise_conservation_gap(model, d, perm)) is float


class TestStationaryNoiseLevel:
    """The structured noise level and conservation gap of every family,
    under every shuffle, against the dense trace."""

    def _models(self, family, rng, count=25):
        while count:
            if family == "iid":
                model = CovarianceModel.iid()
            elif family == "exp_nugget":
                lam1 = rng.uniform(1e-6, 1 - 1e-6)
                model = CovarianceModel.exp_nugget(lam1, 10.0 ** rng.uniform(-1.0, 10.0))
            elif family == "block":
                model = CovarianceModel.block(*rng.uniform(0.0, 2.0, 2))
            else:
                model = CovarianceModel.ar(rng.uniform(-1.2, 1.2, int(family[-1])))
                try:
                    model.autocorrelations(1)
                except NonStationary:
                    continue
            count -= 1
            yield model

    @staticmethod
    def _shuffles(d, rng):
        yield identity_perm(d.T)
        yield reverse_perm(d.T)
        yield cyclic_shift(d.T, int(rng.integers(d.T)))
        if d.T % 2 == 0:
            yield odd_even_swap(d.T)
        yield block_random_perm(d, rng)

    @pytest.mark.parametrize("schedule", ["random", "blocked"])
    @pytest.mark.parametrize("family", ["iid", "exp_nugget", "ar1", "ar2", "ar3", "block"])
    def test_matches_dense(self, family, schedule):
        # "random" cuts the time axis into blocks that stimuli span;
        # "blocked" keeps each stimulus inside one block.  Tolerance 1e-12
        # relative to the unshuffled trace, fixed before the run.
        rng = np.random.default_rng(len(family) + len(schedule))
        for model in self._models(family, rng):
            m, n = int(rng.integers(2, 25)), int(rng.integers(1, 9))
            if schedule == "random":
                h = make_random_schedule(m, n, rng).labels
                cuts = np.sort(rng.integers(0, m * n, int(rng.integers(1, 5))))
                d = build_design(h, np.searchsorted(cuts, np.arange(m * n), side="right"))
            else:
                n_blocks = int(rng.choice([b for b in range(1, m + 1) if m % b == 0]))
                d = make_block_schedule(m, n, n_blocks, rng)
            scale = dense_noise_level(model, d) * (m - 1) * n
            for perm in self._shuffles(d, rng):
                case = (model, m, n, perm.family)
                want = dense_noise_level(model, d, 1.7, perm)
                assert noise_level(model, d, 1.7, perm) == pytest.approx(
                    want, rel=1e-12, abs=0
                ), case
                gap = noise_conservation_gap(model, d, perm)
                assert abs(gap - dense_gap(model, d, perm)) <= 1e-12 * scale, case

    @pytest.mark.parametrize(
        "lam1, lam2",
        [
            # the degenerate REML fit of series 28 of the reml-fit benchmark at seed 6
            (1.0 - 1.65e-8, 1.45e10),
            (0.7, 30.0),
        ],
    )
    def test_exp_nugget_against_high_precision(self, lam1, lam2):
        # The reml-fit benchmark's seed-6 schedule (m=36, n=6).  The trace
        # sum_k w_k rho_k is summed at 60 digits from lag counts taken from
        # the dense same-stimulus matrix.  Tolerance 1e-12 relative, fixed
        # before the run: the plain lag sum cancels about 8 digits here.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng((6, 3))
        h = rng.permutation(np.repeat(np.arange(36), 6))
        d = build_design([f"s{j:03d}" for j in h])
        T, m, n = d.T, d.m, d.n
        lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
        W = np.bincount(lag[np.equal.outer(h, h)], minlength=T)
        counts = np.bincount(lag.ravel(), minlength=T)
        with mpmath.workdps(60):
            l1, l2 = mpmath.mpf(lam1), mpmath.mpf(lam2)
            trace = sum(
                (mpmath.mpf(int(W[k])) / n - mpmath.mpf(int(counts[k])) / T)
                * (1 if k == 0 else l1 * mpmath.exp(-k / l2))
                for k in range(T)
            )
            want = float(trace / ((m - 1) * n))
        got = noise_level(CovarianceModel.exp_nugget(lam1, lam2), d)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "model",
        [
            CovarianceModel.exp_nugget(0.7, 30.0),
            CovarianceModel.ar([0.5, -0.2]),
            CovarianceModel.block(0.5, 0.7),
        ],
        ids=lambda model: model.family,
    )
    def test_gap_needs_no_dense_matrix(self, model):
        # Paper scale, T = 1800: the T x T covariance alone would take 26 MB.
        d = make_block_schedule(120, 15, 20, np.random.default_rng(0))
        perm = block_random_perm(d, 1)
        tracemalloc.start()
        try:
            noise_conservation_gap(model, d, perm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_materialize_is_toeplitz_of_autocorrelations(self):
        model = CovarianceModel.ar([0.5, -0.2])
        d = build_design(["a", "b"] * 5)
        assert np.array_equal(model.materialize(d)[0], model.autocorrelations(d.T))
        assert np.array_equal(CovarianceModel.iid().materialize(d), np.eye(d.T))

    def test_block_has_no_autocorrelations(self):
        with pytest.raises(ValueError):
            CovarianceModel.block(0.5, 0.7).autocorrelations(8)


class TestColor:
    """``CovarianceModel.color`` against the dense Cholesky factor.

    Bounds fixed before the first run, for a unit-diagonal Sigma and EPS the
    unit roundoff of float64:
    - backward: ``max |L L' - Sigma| <= (T + 1) EPS``, the Cholesky backward
      bound ``gamma_{T+1} |L| |L'|`` with ``|L| |L'| <= 1`` entrywise;
    - forward: ``max |Z L' - Z L_dense'| <= (T + 1) EPS kappa max |Z|``, the
      first-order perturbation of the factor by both backward errors, with
      kappa an upper bound on Sigma's condition number from the spectral
      density (Toeplitz eigenvalues lie within its range).
    L itself is I coloured in place, so it must be exactly lower triangular.
    """

    EPS = np.finfo(float).eps

    def _models(self, family, rng, count):
        """(model, kappa bound): lam1 uniform on (0, 1) and lam2 log-uniform
        on [0.1, 1e4]; AR coefficients with sum |a_k| < 1, so stationary."""
        for _ in range(count):
            if family == "iid":
                yield CovarianceModel.iid(), 1.0
            elif family == "exp_nugget":
                lam1, lam2 = rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-1.0, 4.0)
                phi, nu = np.exp(-1.0 / lam2), 1.0 - lam1
                spread = (1.0 + phi) / (1.0 - phi)
                yield CovarianceModel.exp_nugget(lam1, lam2), (nu + lam1 * spread) / (nu + lam1 / spread)
            else:
                p = int(family[-1])
                a = rng.choice([-1.0, 1.0], p) * rng.dirichlet(np.ones(p)) * rng.uniform(0.0, 0.95)
                s = np.abs(a).sum()
                yield CovarianceModel.ar(a), ((1.0 + s) / (1.0 - s)) ** 2

    @pytest.mark.parametrize("T", [1, 2, 3, 24, 1800])
    @pytest.mark.parametrize("family", ["iid", "exp_nugget", "ar1", "ar2", "ar3"])
    def test_matches_dense_factor(self, family, T):
        rng = np.random.default_rng((T, len(family), int(family[-1]) if family[-1].isdigit() else 0))
        for model, kappa in self._models(family, rng, 2 if T == 1800 else 25):
            Sigma = _toeplitz(model.autocorrelations(T))
            L = np.eye(T)
            model.color(L)
            assert np.array_equal(L, np.tril(L)), model
            assert np.all(np.diag(L) > 0), model
            assert np.abs(L @ L.T - Sigma).max() <= (T + 1) * self.EPS, model
            Z = rng.standard_normal((5, T))
            want = Z @ psd_cholesky(Sigma).T
            X = Z.T.copy()
            model.color(X)
            assert np.abs(X.T - want).max() <= (
                (T + 1) * self.EPS * kappa * np.abs(Z).max()
            ), model

    @pytest.mark.parametrize("T", [1, 2, 3, 24])
    @pytest.mark.parametrize("lam1", [0.0, 1.0])
    @pytest.mark.parametrize("lam2", [1e-300, np.inf])
    def test_degenerate_exp_nugget_is_exact(self, lam1, lam2, T):
        model = CovarianceModel.exp_nugget(lam1, lam2)
        L = np.eye(T)
        model.color(L)
        assert np.array_equal(L @ L.T, _toeplitz(model.autocorrelations(T)))
        want = np.eye(T)  # Sigma = I ...
        if lam1 == 1.0 and lam2 == np.inf:  # ... or Sigma = 11', and x = z_1 1
            want = np.zeros((T, T))
            want[:, 0] = 1.0
        assert np.array_equal(L, want)

    def test_columns_are_independent_of_each_other(self):
        # T = 150 spans three chunks of the recursion's rows, the last one
        # partial, so the carry from chunk to chunk is exercised.
        model = CovarianceModel.exp_nugget(0.7, 30.0)
        Z = np.random.default_rng(0).standard_normal((150, 7))
        together = Z.copy()
        assert model.color(together) is None
        alone = Z[:, 3].copy()
        model.color(alone)
        assert np.array_equal(together[:, 3], alone)
        fortran = np.asfortranarray(Z)
        model.color(fortran)
        assert np.array_equal(fortran, together)

    def test_sample_covariance(self):
        # 20,000 rows at T = 6: each entry of the sample covariance has SE
        # below sqrt(2 / 20000) = 0.01, so 0.05 is 5 SE.
        model = CovarianceModel.ar([0.5, -0.3])
        X = np.random.default_rng(1).standard_normal((20000, 6)).T.copy()
        model.color(X)
        assert np.abs(X @ X.T / X.shape[1] - _toeplitz(model.autocorrelations(6))).max() < 0.05

    def test_errors(self):
        Z = np.zeros((2, 4))
        with pytest.raises(ValueError, match="block"):
            CovarianceModel.block(0.5, 0.7).color(Z)
        with pytest.raises(NonStationary):
            CovarianceModel.ar([1.2]).color(Z)
        with pytest.raises(ValueError, match="lam1"):
            CovarianceModel.exp_nugget(1.5, 3.0).color(Z)


class TestPsdCholesky:
    def test_near_psd_jitter(self):
        S = np.ones((4, 4))  # rank one, eigenvalues {4, 0, 0, 0}
        L = psd_cholesky(S)
        assert np.allclose(L @ L.T, S, atol=1e-4)

    def test_exact_factor(self):
        S = covariance(CovarianceModel.exp_nugget(0.7, 5.0), 12)
        L = psd_cholesky(S)
        assert np.allclose(L @ L.T, S, atol=1e-10)


class TestSampleExperiment:
    def test_deterministic_given_seed(self):
        d = make_random_schedule(5, 4, np.random.default_rng(0))
        y1, t1 = sample_experiment(d, 0.4, CovarianceModel.exp_nugget(0.5, 3.0), 1.0, seed=7)
        y2, t2 = sample_experiment(d, 0.4, CovarianceModel.exp_nugget(0.5, 3.0), 1.0, seed=7)
        assert np.array_equal(y1, y2)
        assert t1 == t2

    def test_zero_everything(self):
        d = build_design(["a", "a", "b", "b"])
        y, truth = sample_experiment(d, 0.0, CovarianceModel.iid(), 0.0, seed=0)
        assert np.allclose(y, 0.0)
        assert truth.omega2 == 0.0
        assert truth.degenerate

    def test_no_noise_repeats_identical(self):
        d = build_design(["a", "b", "a", "b", "c", "c"])
        y, truth = sample_experiment(d, 1.0, CovarianceModel.iid(), 0.0, seed=3)
        avgs = y[:2]
        assert y[2] == avgs[0] and y[3] == avgs[1]
        assert truth.omega2 == 1.0

    def test_truth_decomposition_exact(self):
        d = make_block_schedule(6, 4, 2, np.random.default_rng(5))
        _, truth = sample_experiment(d, 0.3, CovarianceModel.block(0.5, 0.7), 1.0, seed=1)
        assert truth.total == pytest.approx(truth.sigma2_A + truth.noise_level, rel=1e-14)

    def test_mean_total_matches_analytic(self):
        # Monte Carlo: variance of averages across replicates vs analytic truth
        from shufflevar import ms_between

        d = make_block_schedule(6, 5, 3, np.random.default_rng(8))
        model = CovarianceModel.block(0.5, 0.7)
        totals = []
        for r in range(1000):
            y, truth = sample_experiment(d, 0.4, model, 1.0, seed=substream(99, r))
            totals.append(ms_between(y, d))
        totals = np.array(totals)
        se = totals.std(ddof=1) / np.sqrt(len(totals))
        assert abs(totals.mean() - truth.total) <= 3 * se

    @pytest.mark.parametrize(
        "model",
        [CovarianceModel.exp_nugget(0.6, 4.0), CovarianceModel.block(0.5, 0.7)],
        ids=lambda model: model.family,
    )
    def test_noise_covariance_converges(self, model):
        # T = 20, cut into four blocks of five slots for the block noise.
        labels = make_random_schedule(4, 5, np.random.default_rng(2)).labels
        d = build_design(labels, np.arange(20) // 5)
        Sigma = model.materialize(d)
        draws = np.empty((10_000, d.T))
        for r in range(draws.shape[0]):
            y, _ = sample_experiment(d, 0.0, model, 1.0, seed=substream(7, r))
            draws[r] = y
        emp = np.cov(draws.T)
        # entrywise 5 standard errors; SE of a covariance entry is
        # sqrt((Sigma_tt Sigma_uu + Sigma_tu^2) / R), ~ sqrt((1+rho^2)/R) for a
        # unit diagonal
        var = np.diag(Sigma)
        se = np.sqrt((np.outer(var, var) + Sigma**2) / draws.shape[0])
        assert np.all(np.abs(emp - Sigma) <= 5 * se)

    def test_block_noise_needs_block_labels(self):
        d = make_random_schedule(4, 5, np.random.default_rng(2))
        with pytest.raises(MissingBlocks):
            sample_experiment(d, 0.3, CovarianceModel.block(0.5, 0.7), 1.0, seed=0)

    @pytest.mark.parametrize("name", ["sigma2_A", "sigma2_eps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1])
    def test_bad_variance_rejected(self, name, value):
        # nan gave an all-nan series and inf a series of +-inf before
        d = make_random_schedule(4, 5, np.random.default_rng(2))
        args = {"sigma2_A": 0.4, "sigma2_eps": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
            sample_experiment(d, args["sigma2_A"], CovarianceModel.iid(), args["sigma2_eps"], 0)

    @pytest.mark.parametrize(
        "model", [CovarianceModel.exp_nugget(0.7, 30.0), CovarianceModel.block(0.5, 0.7)],
        ids=lambda model: model.family,
    )
    def test_needs_no_dense_matrix(self, model):
        # Paper scale, T = 1800: the T x T covariance alone would take 26 MB.
        d = make_block_schedule(120, 15, 20, np.random.default_rng(0))
        sample_experiment(d, 0.4, model, 1.0, seed=0)  # first-call set-up is not counted
        tracemalloc.start()
        try:
            sample_experiment(d, 0.4, model, 1.0, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize(
        "model",
        [CovarianceModel.iid(), CovarianceModel.exp_nugget(0.6, 4.0), CovarianceModel.ar([0.5])],
        ids=lambda model: model.family,
    )
    def test_draws_effects_then_coloured_normals(self, model):
        # The effects are the generator's first m standard normals and the
        # noise its next T, coloured in place by the model's factor; the
        # dense Cholesky factor gives the same series to rounding.
        d = make_random_schedule(4, 5, np.random.default_rng(2))
        y, _ = sample_experiment(d, 0.4, model, 1.7, seed=3)
        z = np.random.default_rng(3).standard_normal(d.m + d.T)
        effects = np.sqrt(0.4) * z[: d.m][d.stimulus_index]
        noise = np.sqrt(1.7) * z[d.m :]
        model.color(noise)
        assert np.array_equal(y, effects + noise)
        dense = effects + np.sqrt(1.7) * (psd_cholesky(covariance(model, d.T)) @ z[d.m :])
        assert np.abs(y - dense).max() <= 1e-12


class TestTruth:
    def test_make_truth_interior(self):
        t = make_truth(0.3, 0.6)
        assert t.omega2 == pytest.approx(1 / 3)
        assert not t.degenerate

    def test_make_truth_degenerate(self):
        t = make_truth(0.0, 0.0)
        assert t.omega2 == 0.0 and t.degenerate


class TestSubstreams:
    TOP = 2**32 - 1

    @pytest.mark.parametrize(
        "parts", [(0,), (TOP,), (5, 2), (0, TOP), (TOP, 2, 7), (0, 0, 0), (TOP, TOP, TOP)]
    )
    @pytest.mark.parametrize("count", [0, 1, 64, 65, 300])
    def test_states_are_substream_states(self, parts, count):
        got = [rng.bit_generator.state for rng in substreams(*parts, count=count)]
        want = [substream(*parts, r).bit_generator.state for r in range(count)]
        assert got == want

    @pytest.mark.parametrize("parts", [(0,), (4, 2, 1), (TOP, 0, TOP)])
    @pytest.mark.parametrize("count", [1, 64, 65, 300])
    def test_draws_are_substream_draws(self, parts, count):
        # Through the sampler, whose blocks of 64 drawn rows the counts span.
        d = make_random_schedule(3, 2, np.random.default_rng(0))
        model = CovarianceModel.exp_nugget(0.7, 4.0)
        got = _draw_experiments(d, 0.4, model, 1.3, substreams(*parts, count=count), count)
        want = _draw_experiments(
            d, 0.4, model, 1.3, [substream(*parts, r) for r in range(count)], count
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("parts", [(2**32, 2), (TOP + 1,), (1, 2, 3, 4), (0, 0, 0, 0, 0)])
    def test_falls_back_to_substream(self, parts):
        # A part of 2^32 or more, or a key that with r is longer than 4 words.
        for r, rng in enumerate(substreams(*parts, count=5)):
            want = substream(*parts, r)
            assert rng.bit_generator.state == want.bit_generator.state
            assert np.array_equal(rng.standard_normal(3), want.standard_normal(3))

    def test_yields_one_generator_reseeded(self):
        first, second = (id(rng) for rng in substreams(3, 1, count=2))
        assert first == second


def test_exp_nugget_pivots_are_cached_read_only():
    root, scale = _exp_nugget_pivots(50, 0.7, 30.0)
    assert _exp_nugget_pivots(50, 0.7, 30.0)[0] is root
    assert not root.flags.writeable and not scale.flags.writeable
    assert _exp_nugget_pivots(50, 1.0, 30.0)[1] is None  # nu = 0
