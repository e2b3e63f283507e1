"""Self-tests of the benchmark: python3 -m pytest bench"""

import os

# The REML fits below depend on rounding, so pin BLAS as the workload does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracle  # noqa: E402
from spans import Span, Tracer, self_times, summarize  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def test_self_time_subtracts_children_once():
    s = [
        Span("a", 0, 100, -1, 0),
        Span("b", 10, 30, 0, 0),
        Span("c", 20, 50, 0, 0),  # overlaps b: 10..50 is covered once
        Span("d", 25, 28, 2, 0),  # grandchild: counts against c only
        Span("e", 90, 120, 0, 0),  # runs past the parent: clipped at 100
    ]
    assert self_times(s) == [100 - 40 - 10, 20, 27, 3, 30]


def test_summarize_groups_by_pass():
    s = [Span("x.f", 0, 10, -1, 0), Span("y.g", 2, 5, 0, 0), Span("x.f", 0, 4, -1, 1)]
    out = summarize(s)
    assert out[0] == {
        "calls": {"x.f": 1, "y.g": 1},
        "total_ns": {"x.f": 10, "y.g": 3},
        "self_ns": {"x.f": 7, "y.g": 3},
    }
    assert out[1]["calls"] == {"x.f": 1}


def test_tracer_wraps_restores_and_names_missing(monkeypatch):
    mod = types.ModuleType("bench_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "bench_fake", mod)
    tracer = Tracer([
        ("fake.outer", "bench_fake", "outer"),
        ("fake.inner", "bench_fake", "inner"),
        ("fake.gone", "bench_fake", "gone"),
    ])
    tracer.run_id = 3
    tracer.install()
    try:
        assert mod.outer(1) == 4
    finally:
        tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer
    assert tracer.missing == ["bench_fake.gone"]
    assert [(s.name, s.parent, s.run_id) for s in tracer.spans] == [
        ("fake.outer", -1, 3),
        ("fake.inner", 0, 3),
    ]


def test_wrap_points_exist_in_the_program():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []


def test_oracle_agrees_with_program_on_tiny_design():
    from shufflevar import build_design, mom_estimate, reverse_perm, shuffle_estimate

    rng = np.random.default_rng(7)
    m, n = 4, 3
    h = rng.permutation(np.repeat(np.arange(m), n))
    design = build_design([f"s{j}" for j in h])
    perm = reverse_perm(design.T)
    for _ in range(5):
        y = rng.standard_normal(m)[h] + rng.standard_normal(len(h))
        ref = oracle.shuffle_and_mom(y, h, m, n)
        sh = shuffle_estimate(y, design, perm)
        mom = mom_estimate(y, design)
        assert sh.alpha == pytest.approx(ref["alpha"], rel=1e-12)
        assert sh.total == pytest.approx(ref["total"], rel=1e-12)
        assert sh.sigma2_A_raw == pytest.approx(ref["shuffle"], rel=1e-10, abs=1e-12)
        assert mom.sigma2_A_raw == pytest.approx(ref["mom"], rel=1e-10, abs=1e-12)


def test_reml_oracle_matches_reported_loglik():
    from shufflevar import build_design, reml_estimate

    rng = np.random.default_rng(11)
    m, n = 6, 4
    h = rng.permutation(np.repeat(np.arange(m), n))
    design = build_design([f"s{j}" for j in h])
    y = 0.5 * rng.standard_normal(m)[h] + rng.standard_normal(len(h))
    fit, _ = reml_estimate(y, design, family="exp_nugget", n_starts=2, seed=0)
    ll = oracle.reml_loglik(y, h, fit.sigma2_A, fit.sigma2_eps, *fit.theta)
    assert ll == pytest.approx(fit.log_restricted_likelihood, abs=1e-8)
    # The profiled form at the fitted ratio gives the same point.
    gamma = fit.sigma2_A / fit.sigma2_eps
    assert oracle.reml_profiled_loglik(y, h, gamma, *fit.theta) == pytest.approx(ll, abs=1e-8)


def test_reml_check_allows_rounding_at_a_degenerate_fit_only(tmp_path):
    from inputs import REML_OPTIONS, make_reml_fit
    from shufflevar import build_design, reml_estimate

    # Seed 4, series 60 fits at lam1 -> 1, lam2 -> 6e12, where V has a
    # condition number near 4e13 and the dense log-likelihood moves by ~0.02.
    inputs = make_reml_fit(4, tmp_path)
    design = build_design([f"s{j:03d}" for j in inputs["h"]])
    records = []
    for i in (0, 60):
        y = np.ascontiguousarray(inputs["values"][:, i])  # as the workload passes it
        fit, _ = reml_estimate(y, design, seed=i, **REML_OPTIONS)
        records.append({
            "index": i, "status": "ok", "converged": fit.converged,
            "sigma2_A": fit.sigma2_A, "sigma2_eps": fit.sigma2_eps,
            "theta": list(fit.theta), "loglik": fit.log_restricted_likelihood,
        })
    assert records[1]["theta"][0] > 1 - 1e-9
    assert oracle.check_reml(records, inputs) == []
    records[0]["loglik"] += 0.01
    assert len(oracle.check_reml(records, inputs)) == 1


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["estimate-batch", "simulate-timeseries", "reml-fit"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
    for m in spec[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "estimate-batch", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
