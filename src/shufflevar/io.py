"""Dataset file parsing and estimate serialization.

Dataset layout: plain CSV with a header.  The first columns are ``t``
(1-based slot), ``stimulus`` and optionally ``block``; every remaining
column is one measurement series.  Lines starting with ``#`` are
provenance comments and are skipped, as are blank lines.  In memory a
dataset is its design, the series names and a T x S matrix with one column
per series.

Grammar (numpy's C tokenizer, ``np.loadtxt``): one record per line, fields
separated by ``,``.  A field may be quoted with ``"``, a quote inside it
doubled (``""``), as the csv module writes it; a quoted field must close on
its line.  Labels are kept as written, spaces included; header names are
stripped.  Numbers are ASCII: whitespace around them is allowed,
underscores (``1_0``) and non-ASCII digits are rejected.
``nan`` and ``inf`` parse but are rejected as non-finite.  Every row error
names its file line as ``path:line: reason``.

``np.loadtxt`` reads ``t`` and the labels.  orjson, whose decimal-to-double
conversion is correctly rounded like Python's, reads the numbers of each
line it can read exactly as ``np.loadtxt`` would; every other line, and
every error, goes through ``np.loadtxt``.
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


def _loadtxt(lines, dtype) -> np.ndarray:
    """The file grammar, in numpy's C tokenizer: one record per line,
    comma-separated, ``"``-quoted fields with doubled quotes."""
    return np.loadtxt(
        lines, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
    )


def _fields(path, lineno: int, line: str) -> List[str]:
    """The fields of one line, as strings; a quoted field must close on it."""
    if not line.endswith(("\n", "\r")):
        line += "\n"  # a file's last line: an open quote runs over, as on any other
    try:
        fields = _loadtxt([line], object).tolist()
    except ValueError as exc:
        raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
    if any("\n" in f or "\r" in f for f in fields):
        raise DatasetFormatError(f"{path}:{lineno}: quoted field not closed on its line")
    return fields


def _check_rows(path, rows, row: np.dtype, n_fields: int) -> None:
    """Raise the error of the first data line that is not one row on its own.

    Runs only once the whole-file parse has failed: it locates the fault and
    never produces values."""
    for lineno, line in rows:
        fields = _fields(path, lineno, line)
        if len(fields) != n_fields:
            raise DatasetFormatError(
                f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        try:
            _loadtxt([line], row)
        except ValueError as exc:
            # numpy's message ends in its own row and column count.
            reason = str(exc).partition(" at row ")[0]
            raise DatasetFormatError(f"{path}:{lineno}: {reason}") from None


# What orjson may read in a line's numbers: the bytes of JSON numbers, the
# commas between them and the whitespace both parsers skip around a number.
_NUMBER_BYTES = b"0123456789.eE+-, \t\r\n"


def _table(lines, dtype: np.dtype) -> np.ndarray:
    """One record per line; ValueError if a quoted field runs over a line break."""
    table = _loadtxt(lines, dtype) if lines else np.empty(0, dtype)
    if len(table) != len(lines):
        raise ValueError("a quoted field runs over a line break")
    return table


def _closing_line(row: np.dtype, n_fields: int) -> str:
    """A record of ``row`` to parse after the data lines: a quote left open on
    the last of them runs into it, as it would run into the next line of
    the file, instead of closing at the end of the input."""
    k = n_fields - row["y"].shape[0]  # t and the labels
    return ",".join(["1"] + [""] * (k - 1) + ["0"] * (n_fields - k))


def _whole_file_table(path, rows, row: np.dtype, n_fields: int) -> np.ndarray:
    """All data lines in one ``np.loadtxt`` call; if that fails, the error of
    the first faulty line."""
    try:
        return _table([line for _, line in rows] + [_closing_line(row, n_fields)], row)[:-1]
    except ValueError as exc:
        _check_rows(path, rows, row, n_fields)
        raise DatasetFormatError(f"{path}: {exc}") from None


def _parse_rows(path, rows, row: np.dtype, n_fields: int):
    """``t``, the labels and the T x S values of the data lines, in file order.

    orjson reads the numbers of a line straight into its row of the values
    when the line has no quote and its numbers are plain JSON numbers.  Any
    other line keeps to ``np.loadtxt``: orjson rejects ``.5``, ``+1``, an
    empty field and an overflow, and reads an integer ``-0`` as ``0``.
    ``t`` and the labels come from one ``np.loadtxt`` call over the first
    fields of the lines orjson read, and one over the other lines whole.  If
    either fails, the whole-file parse runs and raises its error.
    """
    import orjson  # not at module level: it adds about 9 ms to start-up

    T, S = len(rows), row["y"].shape[0]
    k = n_fields - S  # t and the labels
    y = np.zeros((T, S))  # zeros, not empty: the -0 check compares every row
    heads = [None] * T  # the first k fields of each line orjson read
    for i, (_, line) in enumerate(rows):
        if '"' in line:
            continue
        fields = line.split(",", k)
        if len(fields) <= k:
            continue
        numbers = fields[k]
        text = numbers.encode()
        if text.translate(None, _NUMBER_BYTES):
            continue
        try:
            values = orjson.loads(b"[" + text + b"]")
        except orjson.JSONDecodeError:
            continue
        if len(values) == S:
            y[i] = values
            heads[i] = line[: len(line) - len(numbers) - 1]
    fast = np.array([head is not None for head in heads], dtype=bool)
    # orjson reads an integer -0 as 0; such a line is left to np.loadtxt.
    for i in np.flatnonzero(fast & (y == 0).any(axis=1)):
        if any(f.strip() == "-0" for f in rows[i][1].split(",")[k:]):
            fast[i] = False
    fast_rows, slow_rows = np.flatnonzero(fast), np.flatnonzero(~fast)
    closing = _closing_line(row, n_fields)
    try:
        head = _table(
            [heads[i] for i in fast_rows],
            np.dtype([("t", np.int64), ("labels", object, (k - 1,))]),
        )
        whole = _table([rows[i][1] for i in slow_rows] + [closing], row)[:-1]
    except ValueError:
        table = _whole_file_table(path, rows, row, n_fields)
        return table["t"], table["labels"], table["y"]
    t = np.empty(T, np.int64)
    labels = np.empty((T, k - 1), object)
    t[fast_rows], labels[fast_rows] = head["t"], head["labels"]
    t[slow_rows], labels[slow_rows], y[slow_rows] = whole["t"], whole["labels"], whole["y"]
    return t, labels, y


def read_dataset(path) -> Tuple[DesignSchedule, List[str], np.ndarray]:
    """Parse a dataset CSV into its design, series names and T x S values."""
    try:
        with open(path, newline="") as fh:
            lines = [
                (i + 1, line)
                for i, line in enumerate(fh)
                if line.strip() and not line.lstrip().startswith("#")
            ]
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not {exc.encoding} text: {exc.reason}") from None
    if not lines:
        raise DatasetFormatError(f"{path}: no data rows")
    (head_lineno, head), *rows = lines
    header = [h.strip() for h in _fields(path, head_lineno, head)]
    if len(header) < 3 or header[0] != "t" or header[1] != "stimulus":
        raise DatasetFormatError(
            f"{path}:{head_lineno}: header must start with t,stimulus[,block]"
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
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")

    # Labels are Python strings (object), so none is truncated.
    row = np.dtype([
        ("t", np.int64),
        ("labels", object, (first_series - 1,)),
        ("y", np.float64, (len(series_names),)),
    ])
    t, labels, y = _parse_rows(path, rows, row, len(header))
    T = len(t)
    order = np.argsort(t, kind="stable")
    if not np.array_equal(t[order], np.arange(1, T + 1)):
        # Name the first line whose t is out of range or repeats an earlier one.
        seen = set()
        for (lineno, _), ti in zip(rows, t.tolist()):
            if not 1 <= ti <= T or ti in seen:
                raise DatasetFormatError(
                    f"{path}:{lineno}: t column must be a permutation of 1..{T}, got t={ti}"
                )
            seen.add(ti)
    labels = labels[order]
    design = build_design(
        labels[:, 0].tolist(), labels[:, 1].tolist() if has_block else None
    )
    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        raise DatasetFormatError(
            f"{path}:{rows[int(np.argmin(finite))][0]}: non-finite value"
        )
    return design, series_names, y[order]


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
    ``block-random``, ``odd-even``, ``file:PATH``.  A file lists the 1-based
    source slot of each slot, one a line (:func:`perm_from_indices`); blank
    lines are skipped.  Errors name the spec, and for a file the path and
    the line.
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
        text = spec.split(":", 1)[1]
        try:
            k = int(text)
        except ValueError:
            raise ValueError(f"permutation {spec!r}: shift {text!r} is not an integer") from None
        try:
            return cyclic_shift(design.T, k)
        except ValueError as exc:
            raise ValueError(f"permutation {spec!r}: {exc}") from None
    if spec.startswith("file:"):
        return _read_permutation_file(spec, spec.split(":", 1)[1], design.T)
    raise ValueError(f"unknown permutation spec {spec!r}")


def _read_permutation_file(spec: str, path: str, T: int) -> PermutationSpec:
    """The permutation a ``file:PATH`` spec names, checked line by line."""
    entries = []  # (line number, index)
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"permutation {spec!r}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    entries.append((lineno, int(line)))
                except ValueError:
                    raise ValueError(
                        f"permutation {spec!r}: {path}:{lineno}: "
                        f"{line.strip()!r} is not an integer index"
                    ) from None
    if len(entries) != T:
        raise ValueError(
            f"permutation {spec!r}: {path} has {len(entries)} entries, design has T={T}"
        )
    first = {}  # index -> the line it first appears on
    for lineno, index in entries:
        if 1 <= index <= T and index not in first:
            first[index] = lineno
            continue
        reason = (
            f"repeats line {first[index]}; each of 1..{T} must appear once"
            if index in first
            else f"is outside 1..{T} (indices are 1-based)"
        )
        raise ValueError(f"permutation {spec!r}: {path}:{lineno}: index {index} {reason}")
    return perm_from_indices([index for _, index in entries], family="custom")


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
