"""Dataset file parsing and estimate serialization.

Dataset layout: plain CSV with a header.  The first columns are ``t``
(1-based slot), ``stimulus`` and optionally ``block``; every remaining
column is one measurement series.  Lines starting with ``#`` are
provenance comments and are skipped.  In memory a dataset is its design,
the series names and a T x S matrix with one column per series.
"""

from __future__ import annotations

import csv
import warnings
from typing import List, Sequence, Tuple

import numpy as np

from .design import DesignSchedule, build_design
from .noise import CovarianceModel
from .permutations import (
    PermutationSpec,
    block_random_perm,
    cyclic_shift,
    identity_perm,
    odd_even_swap,
    perm_from_indices,
    reverse_perm,
)


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


def _float17(x: float) -> str:
    return f"{x:.17g}"


def read_dataset(path) -> Tuple[DesignSchedule, List[str], np.ndarray]:
    """Parse a dataset CSV into its design, series names and T x S values."""
    with open(path, newline="") as fh:
        lines = [
            (i + 1, line)
            for i, line in enumerate(fh)
            if line.strip() and not line.lstrip().startswith("#")
        ]
    if not lines:
        raise DatasetFormatError(f"{path}: no data rows")
    reader = csv.reader(line for _, line in lines)
    header = [h.strip() for h in next(reader)]
    if len(header) < 3 or header[0] != "t" or header[1] != "stimulus":
        raise DatasetFormatError(
            f"{path}:{lines[0][0]}: header must start with t,stimulus[,block]"
        )
    has_block = header[2] == "block"
    first_series = 3 if has_block else 2
    if not has_block:
        warnings.warn(
            f"{path}: no block column; assuming a single block", stacklevel=2
        )
    series_names = header[first_series:]
    if not series_names:
        raise DatasetFormatError(f"{path}: no series columns after the schedule")

    records = []
    for (lineno, _), row in zip(lines[1:], reader):
        if len(row) != len(header):
            raise DatasetFormatError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            t = int(row[0])
            vals = [float(v) for v in row[first_series:]]
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
        block = row[2] if has_block else None
        records.append((t, row[1], block, vals, lineno))

    T = len(records)
    seen = sorted(r[0] for r in records)
    if seen != list(range(1, T + 1)):
        raise DatasetFormatError(
            f"{path}: t column must be a permutation of 1..{T}"
        )
    records.sort(key=lambda r: r[0])
    schedule = [r[1] for r in records]
    blocks = [r[2] for r in records] if has_block else None
    design = build_design(schedule, blocks)
    values = np.array([r[3] for r in records], dtype=float)
    for lineno, col in zip((r[4] for r in records), values):
        if not np.all(np.isfinite(col)):
            raise DatasetFormatError(f"{path}:{lineno}: non-finite value")
    return design, series_names, values


def write_dataset(
    path,
    design: DesignSchedule,
    names: Sequence[str],
    Y,
    comments: Sequence[str] = (),
) -> None:
    """Write a dataset CSV of T x S values; floats keep 17 significant digits."""
    Y = np.asarray(Y, dtype=float).reshape(design.T, len(names))
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "stimulus", "block", *names])
        for t in range(design.T):
            writer.writerow(
                [t + 1, design.labels[t], design.block_labels[t]]
                + [_float17(v) for v in Y[t]]
            )


def parse_permutation(
    spec: str, design: DesignSchedule, seed: int = 0
) -> PermutationSpec:
    """Build a permutation from a CLI flag value.

    Accepted forms: ``identity``, ``reverse``, ``shift:K``,
    ``block-random``, ``odd-even``, ``file:PATH``.
    """
    if spec == "identity":
        return identity_perm(design.T)
    if spec == "reverse":
        return reverse_perm(design.T)
    if spec == "block-random":
        return block_random_perm(design, seed)
    if spec == "odd-even":
        return odd_even_swap(design.T)
    if spec.startswith("shift:"):
        return cyclic_shift(design.T, int(spec.split(":", 1)[1]))
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            indices = [int(line) for line in fh if line.strip()]
        if len(indices) != design.T:
            raise ValueError(
                f"permutation file has {len(indices)} entries, design has T={design.T}"
            )
        return perm_from_indices(indices, family="custom")
    raise ValueError(f"unknown permutation spec {spec!r}")


def parse_noise(spec: str) -> CovarianceModel:
    """Build a covariance model from a CLI flag value.

    Accepted forms: ``iid``, ``exp-nugget:L1,L2``, ``block:S2B,S2E``,
    ``ar:A1[,A2[,A3]]``.
    """
    if spec == "iid":
        return CovarianceModel.iid()
    name, _, rest = spec.partition(":")
    params = [float(v) for v in rest.split(",")] if rest else []
    if name in ("exp-nugget", "exp_nugget"):
        if len(params) != 2:
            raise ValueError("exp-nugget takes exactly two parameters")
        return CovarianceModel.exp_nugget(*params)
    if name == "block":
        if len(params) != 2:
            raise ValueError("block takes exactly two parameters")
        return CovarianceModel.block(*params)
    if name == "ar":
        if not 1 <= len(params) <= 3:
            raise ValueError("ar takes one to three coefficients")
        return CovarianceModel.ar(params)
    raise ValueError(f"unknown noise spec {spec!r}")


ESTIMATE_COLUMNS = (
    "series_id",
    "method",
    "alpha",
    "sigma2_A_raw",
    "sigma2_A",
    "noise_level",
    "ms_between",
    "omega2",
    "flags",
)


def write_estimates(path, rows, config_lines: Sequence[str] = ()) -> None:
    """Write per-series estimate rows with a provenance comment header."""
    with open(path, "w", newline="") as fh:
        for line in config_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(ESTIMATE_COLUMNS)
        for row in rows:
            writer.writerow(row)


def estimate_row(series_id: str, method: str, e) -> list:
    """One output record: a VarianceEstimate flattened, or, for the
    exception ``method`` raised, a nan record flagged with its kind."""
    if isinstance(e, Exception):
        return [series_id, method, "", "nan", "nan", "nan", "nan", "nan", type(e).__name__]
    alpha = "" if e.alpha is None else _float17(e.alpha)
    values = (e.sigma2_A_raw, e.sigma2_A, e.noise_level, e.total, e.omega2)
    return [series_id, e.method, alpha, *map(_float17, values), ";".join(e.flags)]
