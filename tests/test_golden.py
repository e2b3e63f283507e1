"""Byte-stability of the CLI outputs against committed goldens.

The files in ``tests/data`` were written by the CLI before series became
columns of one T x S matrix:

    shufflevar estimate -i golden_dataset.csv --permutation reverse \
        --estimators shuffle,mom,reml:iid -o golden_estimates.csv
    shufflevar simulate --config golden_<kind>.ini -o golden_<kind>.csv

Every non-comment line must still come out byte for byte the same.  The
REML lines (``reml:*``) were rewritten by the same commands when the
Nelder-Mead search gave way to L-BFGS on the analytic score; every other
line is as first written.
"""

from pathlib import Path

import pytest

from shufflevar.cli import main

DATA = Path(__file__).parent / "data"


def data_lines(path):
    return [line for line in Path(path).read_bytes().splitlines() if not line.startswith(b"#")]


def test_estimate_matches_golden(tmp_path):
    out = tmp_path / "estimates.csv"
    rc = main(
        ["estimate", "-i", str(DATA / "golden_dataset.csv"), "--permutation", "reverse",
         "--estimators", "shuffle,mom,reml:iid", "-o", str(out)]
    )
    assert rc == 0
    assert data_lines(out) == data_lines(DATA / "golden_estimates.csv")


@pytest.mark.parametrize("kind", ["block", "timeseries", "reml"])
def test_simulate_matches_golden(kind, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", str(DATA / f"golden_{kind}.ini"), "-o", str(out)]) == 0
    assert data_lines(out) == data_lines(DATA / f"golden_{kind}.csv")
