import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import shufflevar
from scipy.linalg import solve_triangular

from shufflevar import (
    CovarianceModel,
    build_design,
    mom_estimate,
    reml_estimate,
    sample_experiment,
)
from shufflevar import reml as reml_module
from shufflevar.noise import NonStationary, _ExpNuggetPrecision, substream
from shufflevar.reml import _BIG, _RemlProblem
from shufflevar.sweeps import make_random_schedule

from dense_oracles import averaging_matrix


@pytest.fixture(scope="module")
def small_design():
    return make_random_schedule(12, 4, np.random.default_rng(0))


def dense_gram(V, y):
    """(logdet V, s) with s = [y, 1]' V^-1 [y, 1], from a dense Cholesky of V."""
    L = np.linalg.cholesky(V)
    W = solve_triangular(L, np.column_stack([y, np.ones(len(y))]), lower=True)
    return 2.0 * float(np.sum(np.log(np.diag(L)))), W.T @ W


def dense_objective(problem, family, design, y, x):
    """The profiled REML objective from a dense T x T V = Sigma + gamma XX'.

    The oracle for the objective of ``_RemlProblem.objective_and_score``
    (``family`` that of ``problem``): inf where Sigma is
    non-stationary, V is not positive definite or the quadratic form is not
    positive.
    """
    gamma = math.exp(min(x[0], 40.0))
    try:
        Sigma = CovarianceModel(family, problem.precision.params(x[1:])).materialize(design)
    except NonStationary:
        return math.inf
    try:
        logdet, s = dense_gram(Sigma + gamma * design.n * averaging_matrix(design), y)
    except np.linalg.LinAlgError:
        return math.inf
    quad = s[0, 0] - s[0, 1] ** 2 / s[1, 1]
    if not (s[1, 1] > 0 and quad > 0):
        return math.inf
    return (len(y) - 1) * math.log(quad) + logdet + math.log(s[1, 1])


def dense_restricted_loglik(y, design, fit):
    """Restricted log-likelihood of y ~ N(mu 1, V) at a fit's parameters,
    without the constant 1/2 log T of the intercept."""
    Sigma = CovarianceModel(fit.family, fit.theta).materialize(design)
    V = fit.sigma2_eps * Sigma + fit.sigma2_A * design.n * averaging_matrix(design)
    logdet, s = dense_gram(V, y)
    quad = s[0, 0] - s[0, 1] ** 2 / s[1, 1]
    T = len(y)
    return -0.5 * ((T - 1) * math.log(2 * math.pi) + logdet + math.log(s[1, 1]) + quad)


class TestStructuredObjective:
    """The banded / Woodbury objective against the dense oracle."""

    RTOL = 1e-10

    @pytest.fixture(scope="class")
    def data(self):
        d = make_random_schedule(24, 4, np.random.default_rng(3))
        y, _ = sample_experiment(
            d, 0.4, CovarianceModel.exp_nugget(0.6, 8.0), 1.0, seed=substream(50, 0)
        )
        return d, y

    def _points(self, family, order, rng, count=200):
        for _ in range(count):
            x = [rng.uniform(-6.0, 4.0)]
            if family == "exp_nugget":
                lam1 = rng.uniform(1e-6, 1 - 1e-6)
                lam2 = 10.0 ** rng.uniform(-1.0, 10.0)
                x += [math.log(lam1 / (1 - lam1)), math.log(lam2)]
            elif family == "ar":
                x += list(rng.uniform(-1.2, 1.2, order))
            yield np.array(x)

    @pytest.mark.parametrize(
        "family, order",
        [("iid", 1), ("exp_nugget", 1), ("ar", 1), ("ar", 2), ("ar", 3)],
    )
    def test_matches_dense(self, data, family, order):
        d, y = data
        problem = _RemlProblem(y, d, family, order)
        rng = np.random.default_rng(order)
        n_inf = 0
        for x in self._points(family, order, rng):
            want = dense_objective(problem, family, d, y, x)
            got = problem.objective_and_score(x)[0]
            if math.isinf(want):
                assert got == _BIG, x
                n_inf += 1
            else:
                assert got == pytest.approx(want, rel=self.RTOL, abs=0), x
        if family == "ar":
            assert n_inf > 0  # the draws reach non-stationary points

    @pytest.mark.parametrize(
        "family, order", [("iid", 1), ("exp_nugget", 1), ("ar", 2)]
    )
    def test_fit_loglik_matches_dense(self, data, family, order):
        d, y = data
        fit, _ = reml_estimate(
            y, d, family, n_starts=2, max_evals=400, xatol=1e-5, seed=0, ar_order=order
        )
        assert fit.log_restricted_likelihood == pytest.approx(
            dense_restricted_loglik(y, d, fit), rel=self.RTOL
        )


class TestScore:
    """The analytic score against central differences of the dense objective.

    100 seeded points per family where the objective is finite, drawn
    as in :class:`TestStructuredObjective` (exp_nugget: lam1 uniform
    in (1e-6, 1 - 1e-6), lam2 log-uniform in [0.1, 1e10]; ar: stationary
    points only).  Step h = 1e-5; each component must agree to
    ``1e-4 * (1 + |central difference|)``, a bound fixed before this test
    first ran from the difference's own error (truncation h^2 f^(3) / 6,
    large near a unit root, and rounding about 1e-16 |f| cond(V) / h).
    """

    H = 1e-5
    TOL = 1e-4
    COUNT = 100

    @pytest.fixture(scope="class")
    def data(self):
        d = make_random_schedule(24, 4, np.random.default_rng(3))
        y, _ = sample_experiment(
            d, 0.4, CovarianceModel.exp_nugget(0.6, 8.0), 1.0, seed=substream(50, 0)
        )
        return d, y

    @pytest.mark.parametrize(
        "family, order",
        [("iid", 1), ("exp_nugget", 1), ("ar", 1), ("ar", 2), ("ar", 3)],
    )
    def test_matches_central_differences(self, data, family, order):
        d, y = data
        problem = _RemlProblem(y, d, family, order)
        rng = np.random.default_rng(10 + order)
        checked = 0
        for x in TestStructuredObjective()._points(family, order, rng, 10**4):
            f, score = problem.objective_and_score(x)
            if f >= _BIG:
                continue
            fd = np.empty(len(x))
            for j in range(len(x)):
                step = np.zeros(len(x))
                step[j] = self.H
                ends = [
                    dense_objective(problem, family, d, y, x + sign * step) for sign in (1, -1)
                ]
                fd[j] = (ends[0] - ends[1]) / (2 * self.H)
            if not np.all(np.isfinite(fd)):
                continue  # a step left the stationary region
            assert np.all(np.abs(score - fd) <= self.TOL * (1 + np.abs(fd))), (x, score, fd)
            checked += 1
            if checked == self.COUNT:
                break
        assert checked == self.COUNT

    @pytest.mark.parametrize(
        "x", [[0.0, 0.0, 800.0], [0.0, -800.0, 1.0], [0.0, 1.0, -800.0]]
    )
    def test_out_of_range_point_is_infinite(self, data, x):
        # exp overflows (lam2 = e^800, lam1 = 1 / (1 + e^800)) or underflows
        # (lam2 = 0); a line search can reach such points.
        d, y = data
        problem = _RemlProblem(y, d, "exp_nugget", 1)
        assert problem.objective_and_score(np.array(x)) == (_BIG, None)
        assert problem.objective_and_score(np.array(x))[0] == _BIG


# Evaluates the objective and score at paper scale (T = 1800, m = 120) and
# prints their bits.  Long T x k reductions are where a BLAS would split
# the work across threads and round differently.
_THREADED_EVALUATIONS = """
import math
import numpy as np
from shufflevar.noise import CovarianceModel
from shufflevar.reml import _RemlProblem
from shufflevar.sweeps import make_random_schedule

rng = np.random.default_rng(5)
d = make_random_schedule(120, 15, rng)
noise = rng.standard_normal(d.T)
CovarianceModel.exp_nugget(0.7, 30.0).color(noise)
y = rng.normal(0.0, 0.6, d.m)[d.stimulus_index] + noise
points = {
    "iid": [[math.log(0.3)]],
    # both of exp_nugget's solves: lam1 delta below nu, and above it
    "exp_nugget": [[math.log(0.3), 0.8, math.log(25.0)], [math.log(0.1), 6.0, math.log(30.0)]],
    "ar": [[math.log(0.3), 0.5, -0.2, 0.1]],
}
for family, xs in points.items():
    problem = _RemlProblem(y, d, family, 3)
    for x in xs:
        f, score = problem.objective_and_score(np.array(x))
        print(family, f.hex(), *(float(v).hex() for v in score))
"""


def test_objective_and_score_bits_do_not_depend_on_blas_threads():
    src = str(Path(shufflevar.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _THREADED_EVALUATIONS],
            env=env, check=True, capture_output=True, text=True,
        )
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]


def test_fit_bits_do_not_depend_on_earlier_fits():
    # Each fit's problem holds its own work arrays: nothing of one fit
    # reaches the next.
    src = str(Path(shufflevar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FITS_IN_ORDER], env=env, check=True,
        capture_output=True, text=True,
    )
    first, *later = (part.strip() for part in proc.stdout.split("\n\n"))
    assert len(first.splitlines()) == 2 and len(later) == 2
    assert later == [first, first]


# Fits two series on one design (T = 48) first in a fresh process, then
# again after fits on two other designs (one also T = 48), with the same
# design object and with a rebuilt one; prints each fit's numbers in hex, a
# blank line between the rounds.
_FITS_IN_ORDER = """
import numpy as np
from shufflevar import CovarianceModel, build_design, reml_estimate, sample_experiment
from shufflevar.noise import substream
from shufflevar.sweeps import make_random_schedule

def fits(d, show=True):
    for family in ("exp_nugget", "ar"):
        y, _ = sample_experiment(
            d, 0.3, CovarianceModel.exp_nugget(0.6, 8.0), 1.0, seed=substream(45, d.T)
        )
        fit, est = reml_estimate(
            y, d, family, n_starts=2, max_evals=400, xatol=1e-6, seed=0, ar_order=2
        )
        values = (fit.sigma2_A, fit.sigma2_eps, *fit.theta, fit.log_restricted_likelihood,
                  est.noise_level, fit.iterations)
        if show:
            print(family, *(float(v).hex() for v in values))

d = make_random_schedule(12, 4, np.random.default_rng(0))
fits(d)
print()
for m, n in ((16, 3), (6, 9)):
    fits(make_random_schedule(m, n, np.random.default_rng(m)), show=False)
fits(d)
print()
fits(build_design(list(d.labels)))
"""


class TestIidEquivalence:
    def test_matches_mom_on_balanced_designs(self, small_design):
        # balanced one-way layout: REML under iid noise has the classical
        # moment solution in closed form
        d = small_design
        for r in range(5):
            y, _ = sample_experiment(
                d, 0.4, CovarianceModel.iid(), 1.0, seed=substream(10, r)
            )
            mom = mom_estimate(y, d)
            fit, est = reml_estimate(y, d, family="iid", n_starts=3, seed=0)
            if mom.sigma2_A_raw > 0:
                assert fit.sigma2_A == pytest.approx(mom.sigma2_A_raw, abs=1e-6)
            else:
                assert fit.sigma2_A == pytest.approx(0.0, abs=1e-6)

    def test_sigma2_eps_matches_ms_within(self, small_design):
        from shufflevar import ms_within

        d = small_design
        y, _ = sample_experiment(d, 0.4, CovarianceModel.iid(), 1.0, seed=substream(11, 0))
        mom = mom_estimate(y, d)
        fit, _ = reml_estimate(y, d, family="iid", n_starts=3, seed=0)
        if mom.sigma2_A_raw > 0:
            assert fit.sigma2_eps == pytest.approx(ms_within(y, d), rel=1e-5)


class TestExpNuggetRecovery:
    def test_median_recovery(self):
        d = make_random_schedule(36, 6, np.random.default_rng(1))
        model = CovarianceModel.exp_nugget(0.7, 30.0)
        fits = []
        for r in range(30):
            y, _ = sample_experiment(d, 0.4, model, 1.0, seed=substream(20, r))
            _, est = reml_estimate(
                y, d, family="exp_nugget", n_starts=2,
                max_evals=600, xatol=1e-5, seed=0,
            )
            fits.append(est.sigma2_A_raw)
        assert abs(np.median(fits) - 0.4) <= 0.05

    def test_noise_level_is_model_based(self, small_design):
        from dense_oracles import dense_noise_level

        d = small_design
        y, _ = sample_experiment(
            d, 0.3, CovarianceModel.exp_nugget(0.5, 5.0), 1.0, seed=substream(22, 0)
        )
        fit, est = reml_estimate(
            y, d, family="exp_nugget", n_starts=2,
            max_evals=400, xatol=1e-4, seed=0,
        )
        assert fit.family == "exp_nugget" and est.method == "reml:exp_nugget"
        assert 0.0 < fit.theta[0] < 1.0 and fit.theta[1] > 0.0
        fitted = CovarianceModel(fit.family, fit.theta)
        assert est.noise_level == pytest.approx(
            dense_noise_level(fitted, d, fit.sigma2_eps), rel=1e-10
        )


class TestArFamily:
    def test_ar1_fit_runs(self, small_design):
        d = small_design
        y, _ = sample_experiment(
            d, 0.3, CovarianceModel.ar([0.5]), 1.0, seed=substream(30, 0)
        )
        fit, est = reml_estimate(
            y, d, family="ar", ar_order=1, n_starts=2,
            max_evals=400, xatol=1e-4, seed=0,
        )
        assert fit.family == "ar"
        assert len(fit.theta) == 1
        assert abs(fit.theta[0]) < 1.0  # stationary

    def test_invalid_order(self, small_design):
        with pytest.raises(ValueError):
            reml_estimate(np.zeros(small_design.T), small_design, family="ar", ar_order=4)


class TestGuards:
    @pytest.mark.parametrize("n_starts", [0, -1])
    def test_n_starts_below_one_rejected(self, small_design, n_starts):
        # one start would run, but the fit would report n_starts of them
        with pytest.raises(ValueError, match="n_starts must be at least 1"):
            reml_estimate(np.zeros(small_design.T), small_design, n_starts=n_starts)

    @pytest.mark.parametrize("xatol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_xatol_rejected(self, small_design, xatol):
        # max|g| > nan is False: every start used to stop where it began,
        # reported converged
        with pytest.raises(ValueError, match="xatol must be finite and positive"):
            reml_estimate(np.zeros(small_design.T), small_design, xatol=xatol)

    @pytest.mark.parametrize("max_evals", [0, -1])
    def test_max_evals_below_one_rejected(self, small_design, max_evals):
        with pytest.raises(ValueError, match="max_evals must be at least 1"):
            reml_estimate(np.zeros(small_design.T), small_design, max_evals=max_evals)

    def test_unknown_family(self, small_design):
        with pytest.raises(ValueError):
            reml_estimate(np.zeros(small_design.T), small_design, family="bogus")

    def test_covariance_model_family_rejected(self, small_design):
        # ``family`` is a family name; a CovarianceModel is not accepted.
        with pytest.raises(ValueError):
            reml_estimate(
                np.zeros(small_design.T), small_design,
                family=CovarianceModel.exp_nugget(0.5, 5.0),
            )

    def test_long_series_needs_no_dense_matrix(self):
        # T = 4200: neither the likelihood nor the noise level forms a T x T
        # matrix, which alone would take T^2 * 8 bytes (141 MB).
        m, n = 2, 2100
        d = build_design(np.tile(np.arange(m), n).tolist())
        rng = np.random.default_rng(42)
        y = rng.normal(0.0, 0.5, m)[d.stimulus_index] + rng.standard_normal(d.T)
        tracemalloc.start()
        try:
            fit, est = reml_estimate(
                y, d, "exp_nugget", n_starts=1, max_evals=200, xatol=1e-4, seed=0
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(est.sigma2_A_raw) and np.isfinite(est.noise_level)
        assert np.isfinite(fit.log_restricted_likelihood)
        assert peak < d.T**2 * 8 / 20

    def test_deterministic_given_seed(self, small_design):
        d = small_design
        y, _ = sample_experiment(
            d, 0.3, CovarianceModel.exp_nugget(0.5, 5.0), 1.0, seed=substream(40, 0)
        )
        f1, e1 = reml_estimate(y, d, "exp_nugget", n_starts=3,
                               max_evals=400, xatol=1e-4, seed=7)
        f2, e2 = reml_estimate(y, d, "exp_nugget", n_starts=3,
                               max_evals=400, xatol=1e-4, seed=7)
        assert f1.sigma2_A == f2.sigma2_A
        assert e1 == e2

    def test_budget_exhaustion_flags_non_converged(self, small_design):
        d = small_design
        y, _ = sample_experiment(
            d, 0.3, CovarianceModel.exp_nugget(0.5, 5.0), 1.0, seed=substream(41, 0)
        )
        fit, est = reml_estimate(
            y, d, "exp_nugget", n_starts=1, max_evals=5, xatol=1e-12, seed=0
        )
        assert not fit.converged
        assert "non_converged" in est.flags


class TestConvergedTie:
    """A start that stopped on its budget one rounding below a converged
    start does not make the fit non-converged."""

    X_CONVERGED = np.array([math.log(0.3), 0.0, math.log(5.0)])
    X_BUDGET = np.array([math.log(0.2), 0.5, math.log(4.0)])

    def _fit(self, monkeypatch, design, gap):
        f = 966.7316669777941
        results = iter([
            reml_module._Start(x=self.X_CONVERGED, fun=f, success=True, nfev=40),
            reml_module._Start(x=self.X_BUDGET, fun=f - gap, success=False, nfev=600),
        ])
        monkeypatch.setattr(reml_module, "_lbfgs", lambda *a, **k: next(results))
        y, _ = sample_experiment(
            design, 0.3, CovarianceModel.exp_nugget(0.5, 5.0), 1.0, seed=substream(43, 0)
        )
        return reml_estimate(
            y, design, "exp_nugget", n_starts=2, max_evals=600, xatol=1e-5, seed=0
        )

    def _theta_at(self, x):
        return _ExpNuggetPrecision.params(x[1:])

    def test_one_ulp_tie_reports_the_converged_start(self, monkeypatch, small_design):
        fit, est = self._fit(monkeypatch, small_design, gap=1.1368683772161603e-13)
        assert fit.converged and "non_converged" not in est.flags
        assert fit.theta == self._theta_at(self.X_CONVERGED)
        assert fit.iterations == 640

    def test_gap_beyond_tolerance_stays_non_converged(self, monkeypatch, small_design):
        fit, est = self._fit(monkeypatch, small_design, gap=1e-3)
        assert not fit.converged and "non_converged" in est.flags
        assert fit.theta == self._theta_at(self.X_BUDGET)
