"""Regenerate the stored references the output checks use at the default seed.

    python3 bench/make_reference.py [simulate|reml ...]

- ``reference/simulate-timeseries-seed0.csv``: the sweep table the simulate
  command writes for the default-seed inputs.  It pins the program's output
  so that a later change that moves it shows.
- ``reference/reml-fit-seed0.json``: for the first REML_REFERENCE_SERIES
  default-seed REML series, the best restricted log-likelihood found by a
  multi-start Nelder-Mead over the benchmark's own dense objective, with
  tighter tolerances and more evaluations than the workload gives the
  program.  It does not use shufflevar.  A run fits about 30 series today;
  series past the covered ones are checked against the generating
  parameters only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.optimize import minimize  # noqa: E402

from inputs import make_inputs  # noqa: E402
from oracle import reml_profiled_loglik  # noqa: E402
from run import DEFAULT_SEED, REFERENCE, ROOT, child_env  # noqa: E402

REML_REFERENCE_SERIES = 60
# (log gamma, logit lam1, log lam2) starting points of the reference search.
REFERENCE_STARTS = (
    (math.log(0.3), 0.85, math.log(30.0)),
    (math.log(0.05), 0.0, math.log(10.0)),
    (0.0, 2.0, math.log(100.0)),
)


def best_loglik(y, h) -> float:
    def objective(x):
        if x[0] > 20.0:
            return 1e12
        lam1 = 1.0 / (1.0 + math.exp(-x[1]))
        try:
            return -reml_profiled_loglik(y, h, math.exp(x[0]), lam1, math.exp(x[2]))
        except np.linalg.LinAlgError:
            return 1e12

    options = dict(xatol=1e-8, fatol=1e-8, maxfev=3000, adaptive=True)
    return max(-minimize(objective, x0, method="Nelder-Mead", options=options).fun
               for x0 in REFERENCE_STARTS)


def make_simulate(workdir: Path) -> None:
    inputs = make_inputs("simulate-timeseries", DEFAULT_SEED, workdir)
    out = REFERENCE / f"simulate-timeseries-seed{DEFAULT_SEED}.csv"
    subprocess.run(
        [sys.executable, "-m", "shufflevar.cli", "simulate",
         "--config", inputs["files"]["config"], "--seed", str(DEFAULT_SEED), "-o", str(out)],
        check=True, env=child_env(), cwd=ROOT,
    )


def make_reml(workdir: Path) -> None:
    inputs = make_inputs("reml-fit", DEFAULT_SEED, workdir)
    values, h = inputs["values"], inputs["h"]
    loglik = {}
    for i in range(REML_REFERENCE_SERIES):
        loglik[str(i)] = best_loglik(values[:, i], h)
        print(f"series {i}: {loglik[str(i)]!r}", flush=True)
    out = REFERENCE / f"reml-fit-seed{DEFAULT_SEED}.json"
    out.write_text(json.dumps({"seed": DEFAULT_SEED, "starts": REFERENCE_STARTS,
                               "loglik": loglik}, indent=1) + "\n")


def main(argv) -> int:
    which = argv or ["simulate", "reml"]
    REFERENCE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=Path(__file__).parent))
    try:
        if "simulate" in which:
            make_simulate(workdir)
        if "reml" in which:
            make_reml(workdir)
    finally:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
