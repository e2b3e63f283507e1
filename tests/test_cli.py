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
from shufflevar.cli import _sweep_config_from_ini, build_parser, main
from shufflevar.design import MissingBlocks, NoReplication
from shufflevar.estimators import ESTIMATOR_NAMES, TrivialPermutation
from shufflevar.io import parse_permutation, read_dataset, write_dataset, write_estimates
from shufflevar.permutations import reverse_perm
from shufflevar.sweeps import SweepConfig, read_sweep_table

from dense_oracles import estimate_record, per_series_estimates, written_method

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


def per_series_records(path, permutation, methods, seed=0):
    """The record lines ``estimate`` writes, built one series at a time:
    ``estimate_record`` over ``per_series_estimates``, written by
    ``write_estimates``."""
    design, names, Y = read_dataset(path)
    perm = parse_permutation(permutation, design, seed=seed)
    results = []
    for method in methods:
        try:
            results.append(per_series_estimates(method, Y, design, perm, seed))
        except (TrivialPermutation, NoReplication) as exc:
            results.append((exc,) * len(names))
    rows = [
        estimate_record(name, written_method(method), e)
        for name, per_method in zip(names, zip(*results))
        for method, e in zip(methods, per_method)
    ]
    out = Path(path).with_name("oracle.csv")
    write_estimates(out, rows)
    return out.read_text()


ESTIMATE_CASES = {
    # (schedule, blocks, permutation, estimators)
    "clamped-and-degenerate": (["a", "b", "c"] * 4, ["x"] * 6 + ["y"] * 6, "odd-even", "shuffle,mom"),
    "identity": (["a", "b", "c"] * 4, ["x"] * 6 + ["y"] * 6, "identity", "shuffle,mom"),
    "unreplicated": (["a", "b", "c", "d"], ["x"] * 4, "shift:1", "mom,shuffle"),
    "mixed-order": (["a", "b", "c"] * 4, ["x"] * 6 + ["y"] * 6, "block-random", "shuffle,reml:iid,mom"),
}

# (method, flags) pairs each case must write: the row kinds it is there for.
CASE_FLAGS = {
    "clamped-and-degenerate": {("shuffle", ""), ("shuffle", "clamped"), ("shuffle", "degenerate"),
                               ("mom", "clamped"), ("mom", "degenerate")},
    "identity": {("shuffle", "TrivialPermutation"), ("mom", ""), ("mom", "degenerate")},
    "unreplicated": {("mom", "NoReplication"), ("shuffle", "TrivialPermutation")},
    "mixed-order": {("shuffle", "degenerate"), ("reml:iid", "degenerate"), ("mom", "degenerate")},
}


class TestEstimate:
    @pytest.mark.parametrize("case", ESTIMATE_CASES)
    def test_rows_equal_the_per_series_records(self, case, tmp_path):
        # Shuffle and MoM rows come from arrays; they must be the bytes that
        # one VarianceEstimate per series gives, flags and exceptions included.
        schedule, blocks, permutation, estimators = ESTIMATE_CASES[case]
        design = build_design(schedule, blocks)
        Y = np.random.default_rng(5).standard_normal((design.T, 8))
        Y[:, 3] = 2.5  # a constant series: degenerate
        path, out = tmp_path / "d.csv", tmp_path / "est.csv"
        write_dataset(path, design, [f"v{j}" for j in range(8)], Y)
        argv = ["estimate", "-i", str(path), "--permutation", permutation,
                "--estimators", estimators, "-o", str(out)]
        assert main(argv) == 0
        records = "".join(line for line in out.read_text().splitlines(True) if line[0] != "#")
        assert records == per_series_records(path, permutation, estimators.split(","))
        flags = {(row["method"], row["flags"]) for row in read_csv_rows(out)[1]}
        assert CASE_FLAGS[case] <= flags, flags

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
        with pytest.warns(UserWarning, match="no block column"):
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

    def test_plain_reml_rows_spell_one_method(self, tmp_path, monkeypatch):
        # A series with no finite REML start is one nan row in its place,
        # spelled as its fitted neighbours are.
        import shufflevar.reml as reml

        design = build_design(SCHED, ["x"] * 3 + ["y"] * 3)
        Y = np.random.default_rng(1).standard_normal((6, 3))
        path, out = tmp_path / "d.csv", tmp_path / "est.csv"
        write_dataset(path, design, ["v0", "v1", "v2"], Y)
        fit = reml.reml_estimate

        def fail_on_v1(y, design, **options):
            if y[0] == Y[0, 1]:
                raise reml.AllStartsFailed("no finite start")
            return fit(y, design, **options)

        monkeypatch.setattr(reml, "reml_estimate", fail_on_v1)
        assert main(["estimate", "-i", str(path), "--estimators", "reml", "-o", str(out)]) == 0
        _, rows = read_csv_rows(out)
        assert [(r["series_id"], r["method"]) for r in rows] == [
            ("v0", "reml:exp_nugget"), ("v1", "reml:exp_nugget"), ("v2", "reml:exp_nugget")
        ]
        assert rows[1]["flags"] == "AllStartsFailed"
        values = ("sigma2_A_raw", "sigma2_A", "noise_level", "ms_between", "omega2")
        assert {rows[1][c] for c in values} == {"nan"}
        assert all(r["sigma2_A_raw"] != "nan" for r in (rows[0], rows[2]))

    def test_ar_order_above_T_exits_1_naming_both(self, tmp_path, capsys):
        path, out = tmp_path / "d.csv", tmp_path / "est.csv"
        write_dataset(path, build_design(["a", "b"]), ["v0"], [[0.5], [1.5]])
        with pytest.warns(UserWarning, match="no block column"):
            rc = main(["estimate", "-i", str(path), "--estimators", "reml:ar", "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: AR order 3 needs T >= 3, got T = 2\n"
        assert not out.exists()

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

    def test_empty_estimator_list_exits_1(self, dataset, tmp_path, capsys):
        # "," used to write a header-only file and exit 0
        path, _, _ = dataset
        out = tmp_path / "est.csv"
        rc = main(["estimate", "-i", str(path), "--estimators", ",", "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: --estimators names no estimator\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "entries, reason",
        [
            ("0 1 2 3 4 5", ":1: index 0 is outside 1..6 (indices are 1-based)"),
            ("1 2 3 4 5 7", ":6: index 7 is outside 1..6 (indices are 1-based)"),
            ("1 2 2 4 5 6", ":3: index 2 repeats line 2; each of 1..6 must appear once"),
            ("1 2 1.5 4 5 6", ":3: '1.5' is not an integer index"),
        ],
    )
    def test_bad_permutation_file_names_spec_path_and_line(
        self, dataset, tmp_path, capsys, entries, reason
    ):
        path, _, _ = dataset
        perm = tmp_path / "perm.txt"
        perm.write_text("\n".join(entries.split()) + "\n")
        rc = main(["estimate", "-i", str(path), "--permutation", f"file:{perm}",
                   "-o", str(tmp_path / "est.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: permutation 'file:{perm}': {perm}{reason}\n"

    def test_unreadable_permutation_file_names_the_spec(self, dataset, tmp_path, capsys):
        path, _, _ = dataset
        perm = tmp_path / "missing.txt"
        rc = main(["estimate", "-i", str(path), "--permutation", f"file:{perm}",
                   "-o", str(tmp_path / "est.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: permutation 'file:{perm}': [Errno 2] No such file or directory: '{perm}'\n"
        )

    @pytest.mark.parametrize("spec, shift", [("shift:", "''"), ("shift:x", "'x'")])
    def test_bad_shift_names_the_spec(self, dataset, tmp_path, capsys, spec, shift):
        path, _, _ = dataset
        rc = main(["estimate", "-i", str(path), "--permutation", spec,
                   "-o", str(tmp_path / "est.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: permutation {spec!r}: shift {shift} is not an integer\n"
        )


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

    @pytest.mark.parametrize("source", ["input", "schedule"])
    def test_block_noise_without_blocks_raises_missing_blocks(self, tmp_path, capsys, source):
        # A file written from a design without blocks has no block column, so
        # it reads back without blocks, as the same schedule given inline.
        path = tmp_path / "d.csv"
        write_dataset(path, build_design(SCHED), ["v0"], np.zeros((6, 1)))
        argv = ["alpha", "--noise", "block:0.5,0.5", "-o", str(tmp_path / "out.txt")]
        argv += ["-i", str(path)] if source == "input" else ["--schedule", ",".join(SCHED)]
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(MissingBlocks):
                args.func(args)
        no_block_column = pytest.warns(UserWarning, match="no block column")
        with no_block_column if source == "input" else contextlib.nullcontext():
            assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: block covariance requires explicit block labels\n"
        )

    @pytest.mark.parametrize("command", ["alpha", "diagnose"])
    def test_bad_noise_parameter_names_the_spec(self, tmp_path, capsys, command):
        out = tmp_path / "out.txt"
        rc = main([command, "--schedule", "a,b,a,b", "--noise", "exp-nugget:x,1", "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: noise 'exp-nugget:x,1': could not convert string to float: 'x'\n"
        )
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
            "reml_starts = 2\n"
            "reml_max_evals = 150\nreml_xatol = 1e-5\n"
        )
        expected = SweepConfig(
            m=12, n=4, n_blocks=3, sigma2_A_grid=(0.1, 0.3), replicates=7,
            seed=11, threads=2, estimators=("shuffle", "reml:ar"),
            sigma2_block=0.25, sigma2_unit=0.5, lam1=0.3, lam2=12.5,
            sigma2_eps=2.0, reml_starts=2,
            reml_max_evals=150, reml_xatol=1e-5,
        )
        default = SweepConfig()
        assert len(fields(SweepConfig)) == 16
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
            ("kind = block\nm = -4\n", "error: m must be at least 2, got -4"),
            ("kind = timeseries\nm = 1\n", "error: m must be at least 2, got 1"),
            ("kind = reml\nreml_family = iid\n", "error: unknown key 'reml_family' in [sweep]"),
            ("kind = timeseries\nn = 0\n", "error: n must be at least 1, got 0"),
            ("kind = reml\nreml_starts = 0\n", "error: reml_starts must be at least 1, got 0"),
            ("kind = reml\nreml_xatol = nan\n", "error: reml_xatol must be finite and positive, got nan"),
            ("kind = reml\nreml_xatol = -1\n", "error: reml_xatol must be finite and positive, got -1.0"),
            ("kind = timeseries\nseed = -1\n", "error: seed must be nonnegative, got -1"),
            ("kind = block\nm = six\n", "error: invalid literal for int() with base 10: 'six'"),
            (
                "kind = timeseries\nlam1 = abc\n",
                "error: could not convert string to float: 'abc' for key 'lam1'",
            ),
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
        # the message names the file, as a malformed file's does
        assert message.replace("error: ", f"error: {ini}: ", 1) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("kind = timeseries\nlam1 = 2.0\n", "lam1 must be in [0, 1], got 2.0"),
            ("kind = reml\nlam2 = 0\n", "lam2 must be positive"),
            ("kind = block\nm = 4\nn_blocks = 3\n", "m=4 not divisible by n_blocks=3"),
        ],
    )
    def test_error_found_by_the_sweep_names_the_file(self, tmp_path, capsys, body, message):
        ini = tmp_path / "sweep.ini"
        ini.write_text("[sweep]\nreplicates = 2\n" + body)
        out = tmp_path / "sweep.csv"
        assert main(["simulate", "--config", str(ini), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ini}: ") and message in err
        assert not out.exists()

    def test_negative_seed_option_exits_1_naming_seed(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["simulate", "--preset", "block", "--seed", "-1", "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
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


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "-i", str(GOLDEN_DATASET)],
        ["estimate", "-i", str(GOLDEN_DATASET), "--permutation", "block-random",
         "--estimators", "shuffle,reml:iid"],
        ["alpha", "-i", str(GOLDEN_DATASET), "--permutation", "block-random"],
        ["diagnose", "-i", str(GOLDEN_DATASET)],
    ],
    ids=["estimate", "estimate-seeded", "alpha", "diagnose"],
)
def test_negative_seed_exits_1_naming_the_flag(tmp_path, capsys, argv):
    # A negative seed used to be echoed unused, or to fail inside numpy with
    # a message that named neither the flag nor the value.
    out = tmp_path / "out.txt"
    assert main([*argv, "--seed", "-1", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "-i", str(GOLDEN_DATASET)], "--threads must be at least 1, got -1"),
        (["alpha", "-i", str(GOLDEN_DATASET)], "--threads must be at least 1, got -1"),
        (["diagnose", "-i", str(GOLDEN_DATASET)], "--threads must be at least 1, got -1"),
        (["simulate", "--preset", "block", "--replicates", "2"],
         "threads must be at least 1, got -1"),
        # an override's error names the value, not the config file
        (["simulate", "--config", str(GOLDEN_DATASET.with_name("golden_block.ini"))],
         "threads must be at least 1, got -1"),
    ],
    ids=["estimate", "alpha", "diagnose", "simulate", "simulate-config"],
)
def test_threads_below_one_exits_1_naming_it(tmp_path, capsys, argv, message):
    # A negative thread count used to run and be echoed into the output's
    # provenance.
    out = tmp_path / "out.txt"
    assert main([*argv, "--threads", "-1", "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


# --estimators items: every name, unknown names, and empty or padded items.
ESTIMATOR_ITEMS = ESTIMATOR_NAMES + ("bogus", "reml:", "Shuffle", "", " ", " mom ")


@st.composite
def permutation_spec(draw):
    """A ``--permutation`` value: a valid one, ``shift:K`` with any K, a
    ``file:`` spec that fails, or any word.  ``file:@`` names a valid file."""
    return draw(st.one_of(
        st.sampled_from(["identity", "reverse", "block-random", "odd-even", "file:@"]),
        st.sampled_from(["file:", "file:missing.txt", "shift:", "shift:x", "Reverse"]),
        (st.integers(-8, 8) | st.integers()).map(lambda k: f"shift:{k}"),
        st.text(max_size=8),
    ))


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    """Two series on the blocked six-slot schedule, and a reversal file for it."""
    tmp = tmp_path_factory.mktemp("fuzz")
    path, perm = tmp / "d.csv", tmp / "perm.txt"
    Y = np.random.default_rng(2).standard_normal((6, 2))
    write_dataset(path, build_design(SCHED, ["x"] * 3 + ["y"] * 3), ["v0", "v1"], Y)
    perm.write_text("6\n5\n4\n3\n2\n1\n")
    return path, perm


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


    @settings(max_examples=100, deadline=None)
    @given(
        items=st.lists(
            st.sampled_from(ESTIMATOR_NAMES) | st.sampled_from(ESTIMATOR_ITEMS), max_size=4
        ),
        spec=permutation_spec(),
    )
    def test_estimate_flags(self, fuzz_dataset, items, spec):
        path, perm = fuzz_dataset
        if spec == "file:@":
            spec = f"file:{perm}"
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "est.csv"
            rc, err = _run_main(["estimate", "-i", str(path), f"--estimators={','.join(items)}",
                                 f"--permutation={spec}", "-o", str(out)])
            rows = read_csv_rows(out)[1] if rc == 0 else []
        names = [item.strip() for item in items if item.strip()]
        if rc == 0:
            # S x (names listed) rows, series by series; a repeated name as often as listed
            assert err == "" and all(name in ESTIMATOR_NAMES for name in names)
            assert [(r["series_id"], r["method"]) for r in rows] == [
                (series, written_method(name)) for series in ("v0", "v1") for name in names
            ]
        else:
            assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, (rc, err)
            assert err.endswith("\n") and "Traceback" not in err
        assert rc == 1 or names


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
