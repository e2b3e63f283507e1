import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shufflevar
from shufflevar import build_design, mom_estimate, shuffle_estimate
from shufflevar.cli import _sweep_config_from_ini, main
from shufflevar.io import write_dataset
from shufflevar.permutations import reverse_perm
from shufflevar.sweeps import SweepConfig, read_sweep_table

SCHED = ["a", "a", "b", "b", "a", "b"]
GOLDEN_DATASET = Path(__file__).parent / "data" / "golden_dataset.csv"


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    design = build_design(SCHED, ["x"] * 3 + ["y"] * 3)
    names, Y = ["v0", "v1"], rng.standard_normal((6, 2))
    path = tmp_path / "data.csv"
    write_dataset(path, design, names, Y)
    return path, design, (names, Y)


def read_csv_rows(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, r)) for r in body]


class TestEstimate:
    def test_matches_direct_api(self, dataset, tmp_path):
        path, design, (names, Y) = dataset
        out = tmp_path / "est.csv"
        rc = main(
            ["estimate", "-i", str(path), "--permutation", "reverse",
             "--estimators", "shuffle,mom", "-o", str(out)]
        )
        assert rc == 0
        header, rows = read_csv_rows(out)
        assert header == [
            "series_id", "method", "alpha", "sigma2_A_raw", "sigma2_A",
            "noise_level", "ms_between", "omega2", "flags",
        ]
        assert len(rows) == 4  # 2 series x 2 methods
        P = reverse_perm(design.T)
        for rec in rows:
            y = Y[:, names.index(rec["series_id"])]
            if rec["method"] == "shuffle":
                e = shuffle_estimate(y, design, P)
                assert float(rec["alpha"]) == pytest.approx(e.alpha, rel=1e-15)
            else:
                e = mom_estimate(y, design)
                assert rec["alpha"] == ""
            assert float(rec["sigma2_A_raw"]) == pytest.approx(e.sigma2_A_raw, rel=1e-15)
            assert float(rec["omega2"]) == pytest.approx(e.omega2, rel=1e-15)

    def test_config_comment_header(self, dataset, tmp_path):
        path, _, _ = dataset
        out = tmp_path / "est.csv"
        main(["estimate", "-i", str(path), "-o", str(out)])
        head = out.read_text().splitlines()[:6]
        assert all(line.startswith("#") for line in head)
        assert any("permutation = reverse" in line for line in head)

    def test_trivial_permutation_soft_failure(self, tmp_path):
        # reversal only relabels this schedule, so shuffle rows become
        # error records while mom rows still succeed
        design = build_design(["a", "a", "b", "b"])
        data = tmp_path / "d.csv"
        write_dataset(data, design, ["v0"], [[1.0], [2.0], [3.0], [4.0]])
        out = tmp_path / "est.csv"
        rc = main(
            ["estimate", "-i", str(data), "--permutation", "reverse",
             "--estimators", "shuffle,mom", "-o", str(out)]
        )
        assert rc == 0
        _, rows = read_csv_rows(out)
        shuffle_row = next(r for r in rows if r["method"] == "shuffle")
        assert shuffle_row["flags"] == "TrivialPermutation"
        assert shuffle_row["sigma2_A_raw"] == "nan"
        mom_row = next(r for r in rows if r["method"] == "mom")
        assert float(mom_row["sigma2_A_raw"]) == pytest.approx(1.75)

    def test_threads_identical_output(self, dataset, tmp_path):
        path, _, _ = dataset
        out1, out4 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["estimate", "-i", str(path), "-o", str(out1)])
        main(["estimate", "-i", str(path), "--threads", "4", "-o", str(out4)])
        strip = lambda p: [l for l in p.read_text().splitlines() if "threads" not in l]
        assert strip(out1) == strip(out4)

    def test_missing_input_exit_code(self, tmp_path, capsys):
        rc = main(["estimate", "-i", str(tmp_path / "missing.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_estimator_exits_before_any_work(self, dataset, tmp_path, capsys):
        path, _, _ = dataset
        out = tmp_path / "est.csv"
        rc = main(
            ["estimate", "-i", str(path), "--estimators", "shuffle,bogus",
             "-o", str(out)]
        )
        assert rc == 1
        assert "error: unknown estimator 'bogus'" in capsys.readouterr().err
        assert not out.exists()


class TestAlpha:
    def test_schedule_report(self, tmp_path):
        out = tmp_path / "alpha.txt"
        rc = main(
            ["alpha", "--schedule", ",".join(SCHED), "--permutation", "reverse",
             "-o", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert "alpha = 0.111111111111" in text
        assert "trivial = no" in text

    def test_gap_with_noise(self, tmp_path):
        out = tmp_path / "alpha.txt"
        rc = main(
            ["alpha", "--schedule", ",".join(SCHED), "--permutation", "reverse",
             "--noise", "exp-nugget:0.7,30", "-o", str(out)]
        )
        assert rc == 0
        # reversal conserves stationary noise exactly
        gap_line = next(
            l for l in out.read_text().splitlines() if "noise_conservation_gap" in l
        )
        assert abs(float(gap_line.split("=")[1])) < 1e-12

    def test_requires_schedule_or_input(self):
        with pytest.raises(SystemExit):
            main(["alpha", "--permutation", "reverse"])

    @pytest.mark.parametrize("command", ["alpha", "diagnose"])
    @pytest.mark.parametrize("spec", ["block:nan,1", "block:0.5,inf", "block:-1,1"])
    def test_bad_block_variances_exit_1_naming_them(self, tmp_path, capsys, command, spec):
        out = tmp_path / "out.txt"
        rc = main([command, "-i", str(GOLDEN_DATASET), "--noise", spec, "-o", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: block variances must be finite and nonnegative")
        assert "sigma2_block=" in err and "sigma2_unit=" in err
        assert not out.exists()


class TestDiagnose:
    def test_candidates_listed(self, tmp_path):
        out = tmp_path / "diag.txt"
        rc = main(
            ["diagnose", "--schedule", ",".join(SCHED), "--noise",
             "exp-nugget:0.7,30", "-o", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert "consistency_diagnostic" in text
        for spec in ("reverse:", "shift:1:", "block-random:", "odd-even:"):
            assert spec in text
        assert "gap =" in text


class TestSimulate:
    def test_preset_block_small(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["simulate", "--preset", "block", "--replicates", "3",
             "--seed", "1", "-o", str(out)]
        )
        assert rc == 0
        rows = read_sweep_table(out)
        assert len(rows) == 10  # default grid
        assert all(r.n_reps == 3 for r in rows)

    def test_config_file(self, tmp_path):
        ini = tmp_path / "sweep.ini"
        ini.write_text(
            "[sweep]\n"
            "kind = timeseries\n"
            "m = 8\nn = 3\n"
            "sigma2_A_grid = 0.0, 0.4\n"
            "replicates = 5\nseed = 2\n"
            "estimators = shuffle, mom\n"
        )
        out = tmp_path / "sweep.csv"
        rc = main(["simulate", "--config", str(ini), "-o", str(out)])
        assert rc == 0
        rows = read_sweep_table(out)
        assert [r.estimator for r in rows] == ["shuffle", "mom"] * 2

    def test_requires_preset_or_config(self):
        with pytest.raises(SystemExit):
            main(["simulate"])

    def test_every_config_key(self, tmp_path):
        ini = tmp_path / "sweep.ini"
        ini.write_text(
            "[sweep]\n"
            "kind = reml\n"
            "m = 12\nn = 4\nn_blocks = 3\n"
            "sigma2_A_grid = 0.1, 0.3\n"
            "replicates = 7\nseed = 11\nthreads = 2\n"
            "estimators = shuffle, reml:ar\n"
            "sigma2_block = 0.25\nsigma2_unit = 0.5\n"
            "lam1 = 0.3\nlam2 = 12.5\nsigma2_eps = 2\n"
            "reml_family = iid\nreml_starts = 2\n"
            "reml_max_evals = 150\nreml_xatol = 1e-5\n"
        )
        expected = SweepConfig(
            m=12, n=4, n_blocks=3, sigma2_A_grid=(0.1, 0.3), replicates=7,
            seed=11, threads=2, estimators=("shuffle", "reml:ar"),
            sigma2_block=0.25, sigma2_unit=0.5, lam1=0.3, lam2=12.5,
            sigma2_eps=2.0, reml_family="iid", reml_starts=2,
            reml_max_evals=150, reml_xatol=1e-5,
        )
        default = SweepConfig()
        assert len(fields(SweepConfig)) == 17
        assert all(
            getattr(expected, f.name) != getattr(default, f.name)
            for f in fields(SweepConfig)
        )
        kind, kwargs = _sweep_config_from_ini(ini)
        assert kind == "reml"
        assert SweepConfig(**kwargs) == expected

        def types(value):
            if isinstance(value, tuple):
                return tuple(type(v) for v in value)
            return type(value)

        assert {k: types(v) for k, v in kwargs.items()} == {
            f.name: types(getattr(expected, f.name)) for f in fields(SweepConfig)
        }

    @pytest.mark.parametrize(
        "body, message",
        [
            ("kind = timeseries\nreplicate = 2\n", "error: unknown key 'replicate' in [sweep]"),
            ("kind = timeserie\nreplicates = 2\n", "error: unknown sweep kind 'timeserie'"),
            ("kind = timeseries\nsigma2_eps = inf\n", "error: sigma2_eps must be finite"),
            ("kind = block\nsigma2_block = inf\n", "error: sigma2_block must be finite"),
            ("kind = reml\nsigma2_A_grid = 0.0, inf\n", "error: sigma2_A_grid must be finite"),
            ("kind = block\nn_blocks = 0\n", "error: n_blocks must be at least 1, got 0"),
            ("kind = block\nm = -4\n", "error: m must be at least 1, got -4"),
            ("kind = timeseries\nn = 0\n", "error: n must be at least 1, got 0"),
            ("kind = reml\nreml_starts = 0\n", "error: reml_starts must be at least 1, got 0"),
        ],
    )
    def test_bad_config_exits_before_any_sampling(
        self, tmp_path, capsys, monkeypatch, body, message
    ):
        import shufflevar.cli as cli

        def never(cfg):
            raise AssertionError("a sweep ran")

        for name in ("run_block_sweep", "run_timeseries_sweep", "run_reml_comparison"):
            monkeypatch.setattr(cli, name, never)
        ini = tmp_path / "sweep.ini"
        ini.write_text("[sweep]\n" + body)
        out = tmp_path / "sweep.csv"
        assert main(["simulate", "--config", str(ini), "-o", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[other]\nkind = block\n",
            "kind = block\nm = 6\n",
            "[sweep]\nm = 6\nm = 8\n",
            "[sweep]\nm = %(x)s\n",
        ],
        ids=["no-sweep-section", "no-section-header", "duplicate-key", "interpolation"],
    )
    def test_malformed_ini_exits_1_naming_the_file(self, tmp_path, capsys, text):
        ini = tmp_path / "sweep.ini"
        ini.write_text(text)
        out = tmp_path / "sweep.csv"
        assert main(["simulate", "--config", str(ini), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ini}: ")
        assert not out.exists()

    def test_matches_library_result(self, tmp_path):
        from shufflevar.sweeps import SweepConfig, run_timeseries_sweep

        ini = tmp_path / "sweep.ini"
        ini.write_text(
            "[sweep]\nkind = timeseries\nm = 8\nn = 3\n"
            "sigma2_A_grid = 0.4\nreplicates = 6\nseed = 9\n"
        )
        out = tmp_path / "sweep.csv"
        main(["simulate", "--config", str(ini), "-o", str(out)])
        rows = read_sweep_table(out)
        direct = run_timeseries_sweep(
            SweepConfig(m=8, n=3, sigma2_A_grid=(0.4,), replicates=6, seed=9)
        )
        assert rows == direct.rows


def _run_main(argv):
    """``main(argv)`` with warnings silenced: its exit status and stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        rc = main(argv)
    return rc, err.getvalue()


COUNT_FIELDS = ("m", "n", "n_blocks", "replicates", "reml_starts", "reml_max_evals")
NOISE_VALUES = ("0", "0.5", "1", "-1", "3", "1e3", "nan", "inf", "-inf")


@st.composite
def noise_spec(draw):
    """A ``--noise`` value of any family: its parameter count is off by at
    most one, and each parameter is one of NOISE_VALUES."""
    family, count = draw(st.sampled_from([("iid", 0), ("exp-nugget", 2), ("block", 2), ("ar", 2)]))
    count = max(0, count + draw(st.integers(-1, 1)))
    params = [draw(st.sampled_from(NOISE_VALUES)) for _ in range(count)]
    if family == "iid" and not params:
        return "iid"
    return f"{family}:{','.join(params)}"


class TestFuzzFailureContract:
    """Every run ends in exit 0, or exit 1 with ``error:`` on stderr; no
    traceback escapes ``main``."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["block", "timeseries", "reml"]),
        counts=st.fixed_dictionaries({
            "m": st.integers(1, 6), "n": st.integers(1, 3), "n_blocks": st.integers(1, 3),
            "replicates": st.integers(1, 3), "reml_starts": st.integers(1, 2),
            "reml_max_evals": st.integers(1, 40),
        }),
        broken=st.dictionaries(st.sampled_from(COUNT_FIELDS), st.integers(-2, 0), max_size=2),
    )
    def test_simulate_config_counts(self, kind, counts, broken):
        counts = {**counts, **broken}
        body = "".join(f"{k} = {v}\n" for k, v in counts.items())
        with tempfile.TemporaryDirectory() as tmp:
            ini, out = Path(tmp) / "sweep.ini", Path(tmp) / "sweep.csv"
            ini.write_text(
                f"[sweep]\nkind = {kind}\n{body}sigma2_A_grid = 0.5\nreml_xatol = 1e-4\n"
            )
            rc, err = _run_main(["simulate", "--config", str(ini), "-o", str(out)])
        assert rc == 0 or (rc == 1 and err.startswith("error: ")), (rc, err)
        # a count below 1 is rejected before any sampling
        assert rc == 1 or min(counts.values()) >= 1

    @settings(max_examples=150, deadline=None)
    @given(spec=noise_spec())
    def test_noise_specs(self, spec):
        for command in ("alpha", "diagnose"):
            for source in (["-i", str(GOLDEN_DATASET)], ["--schedule", "a,b,a,b,c,c"]):
                with tempfile.TemporaryDirectory() as tmp:
                    out = Path(tmp) / "out.txt"
                    rc, err = _run_main([command, *source, "--noise", spec, "-o", str(out)])
                    text = out.read_text() if rc == 0 else ""
                assert rc == 0 or (rc == 1 and err.startswith("error: ")), (command, rc, err)
                # a report that exits 0 holds only finite numbers
                assert "nan" not in text and "inf" not in text, (command, text)


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


def test_import_leaves_scipy_out():
    # scipy is imported where REML's banded solves run, not by the package:
    # estimate and simulate without REML never load it.
    src = str(Path(shufflevar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, shufflevar, shufflevar.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
