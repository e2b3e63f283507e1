"""Stability of the CLI outputs against committed goldens.

The files in ``tests/data`` were written by the CLI before series became
columns of one T x S matrix:

    shufflevar estimate -i golden_dataset.csv --permutation reverse \
        --estimators shuffle,mom,reml:iid -o golden_estimates.csv
    shufflevar simulate --config golden_<kind>.ini -o golden_<kind>.csv

Every non-comment line must still come out the same: byte for byte, except
the REML lines (``reml:*``), whose numbers are compared within
``REML_RTOL``/``REML_ATOL`` (their text fields still byte for byte).  The
REML lines were rewritten by the same commands when the Nelder-Mead search
gave way to L-BFGS on the analytic score.  ``golden_timeseries.csv`` and
``golden_reml.csv`` were rewritten whole when the time-series sweep began
drawing its noise through the O(T) Cholesky factor of
``CovarianceModel.color`` and its truth from ``stationary_noise_level``, and
REML began inverting its m x m matrix with ``dpotrs``: shuffle and MoM
numbers moved by at most 6.3e-15 relative, REML numbers by at most 6.1e-5
relative (1.1e-5 above 1e-12 in magnitude), and no ``n_fail`` or ``n_reps``
changed.  Every other file is as first written.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shufflevar
from shufflevar.cli import main

DATA = Path(__file__).parent / "data"

# A REML fit is defined only to its optimizer tolerance: a start stops once
# every score component is at most xatol (1e-8 in both goldens), so any
# reordering of the floating-point work in the score moves the estimate.
# One such reordering moved an iid estimate by 3.7e-8 at 0.51, 7.3e-8
# relative.  REML_RTOL is 100 x xatol and 14 x that move, and a 1e-4
# relative change is still 100 x beyond it.  Fits at the sigma2_A = 0
# boundary stop wherever the score falls under xatol, at 1e-8 or below;
# REML_ATOL is 10 x that.
REML_RTOL = 1e-6
REML_ATOL = 1e-7
RECORDED_MOVE = (0.51021874149, 0.51021877879)


def data_lines(path):
    return [line for line in Path(path).read_bytes().splitlines() if not line.startswith(b"#")]


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


def reml_fields_match(got: str, want: str) -> bool:
    """Text fields equal; numbers equal within the REML tolerance."""
    got, want = got.split(","), want.split(",")
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        a, b = _number(g), _number(w)
        if a is None or b is None:
            if g != w:
                return False
        elif not (
            (math.isnan(a) and math.isnan(b))
            or math.isclose(a, b, rel_tol=REML_RTOL, abs_tol=REML_ATOL)
        ):
            return False
    return True


def assert_matches_golden(out, golden):
    got, want = data_lines(out), data_lines(golden)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w.split(b",")[1].startswith(b"reml:"):
            assert reml_fields_match(g.decode(), w.decode()), (g, w)
        else:
            assert g == w


def test_estimate_matches_golden(tmp_path):
    out = tmp_path / "estimates.csv"
    rc = main(
        ["estimate", "-i", str(DATA / "golden_dataset.csv"), "--permutation", "reverse",
         "--estimators", "shuffle,mom,reml:iid", "-o", str(out)]
    )
    assert rc == 0
    assert_matches_golden(out, DATA / "golden_estimates.csv")


@pytest.mark.parametrize("kind", ["block", "timeseries", "reml"])
def test_simulate_matches_golden(kind, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", str(DATA / f"golden_{kind}.ini"), "-o", str(out)]) == 0
    assert_matches_golden(out, DATA / f"golden_{kind}.csv")


@pytest.mark.parametrize("name", ["golden_estimates.csv", "golden_reml.csv"])
def test_reml_tolerance_takes_the_recorded_move_not_1e4(name):
    reml_lines = [
        line.decode() for line in data_lines(DATA / name) if line.split(b",")[1].startswith(b"reml:")
    ]
    assert reml_lines
    before, after = RECORDED_MOVE
    assert reml_fields_match(f"v0,reml:iid,{after!r}", f"v0,reml:iid,{before!r}")
    checked = 0
    for line in reml_lines:
        assert reml_fields_match(line, line)
        fields = line.split(",")
        for i, field in enumerate(fields):
            x = _number(field)
            # Above 1e-3 a 1e-4 relative change exceeds REML_ATOL too.
            if x is None or not abs(x) > 1e-3:
                continue
            changed = fields[:i] + [repr(x * (1 + 1e-4))] + fields[i + 1:]
            assert not reml_fields_match(",".join(changed), line)
            checked += 1
        # A changed text field fails (the flags, or alpha_realized in a sweep).
        flagged = fields[:-1] + [fields[-1] + "x"]
        assert not reml_fields_match(",".join(flagged), line)
    assert checked >= 4 * len(reml_lines)


@pytest.mark.parametrize("kind", ["timeseries", "reml"])
def test_simulate_is_byte_identical_across_blas_threads(kind, tmp_path):
    src = str(Path(shufflevar.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"sweep-{threads}.csv"
        subprocess.run(
            [sys.executable, "-m", "shufflevar.cli", "simulate", "--config",
             str(DATA / f"golden_{kind}.ini"), "-o", str(out)],
            env=env, check=True,
        )
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1
