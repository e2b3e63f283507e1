"""Dataset file parsing and estimate serialization.

Dataset layout: plain CSV with a header.  The first columns are ``t``
(1-based slot), ``stimulus`` and optionally ``block``; every remaining
column is one measurement series.  Lines starting with ``#`` are
provenance comments and are skipped, as are blank lines.  In memory a
dataset is its design, the series names and a T x S matrix with one column
per series.

Grammar (numpy's C tokenizer, ``np.loadtxt``): UTF-8 text whatever the
locale, one record per line, lines ending in ``\n``, ``\r\n`` or a lone
``\r``, fields separated by ``,``.  A field may be quoted with ``"``, a
quote inside it doubled (``""``), as the csv module writes it; a quoted
field must close on its line.  Labels are kept as written, spaces included;
header names are stripped.  Numbers are ASCII: whitespace around them is
allowed, underscores (``1_0``) and non-ASCII digits are rejected.  ``nan``
and ``inf`` parse but are rejected as non-finite.  Every row error names
its file line as ``path:line: reason``.

One binary pass reads the file with ``readinto`` into one small buffer,
sized from the line length (16 KiB for lines under 5 KiB), and finds its
lines in place.  orjson, whose decimal-to-double conversion is correctly
rounded like Python's, reads the numbers of each plain line from a
``memoryview`` of the buffer, with ``[`` and ``]`` written over the comma
before them and the line break, and packs them exactly as ``np.loadtxt``
would straight into the values; ``np.loadtxt`` reads the rest of the file
and every error.  So a plain line's text is copied once, into the buffer,
whatever its line break and whether or not its labels are ASCII.  On a
2-vCPU box the benchmark's 14 MB estimate-batch file reads in about 52 ms
against 66 ms for the line-by-line reader this replaced (best of 15).
"""

from __future__ import annotations

import csv
import struct
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


def _record(path, lineno: int, line: str, row: np.dtype, n_fields: int) -> np.ndarray:
    """The one-record table of a line read on its own, or the line's error."""
    fields = _fields(path, lineno, line)
    if len(fields) != n_fields:
        raise DatasetFormatError(f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}")
    try:
        return _loadtxt([line], row)
    except ValueError as exc:  # numpy's message ends in its own row and column count
        raise DatasetFormatError(f"{path}:{lineno}: {str(exc).partition(' at row ')[0]}") from None


# The reader's buffer starts at _BUFFER_BYTES and one spare byte, and doubles
# whenever the partial line it moves to its front fills 1 / _BUFFER_LINES of
# it, so that its size follows the line length: 16 KiB for lines under 5 KiB.
_BUFFER_BYTES, _BUFFER_LINES = 16384, 3

# What str.strip() strips from an ASCII line; bytes.strip() keeps \x1c-\x1f.
_ASCII_SPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _lines(path, fh):
    """The number and bytes of each record line of a binary file: lines end
    as in text mode with ``newline=""``, blank and ``#`` lines are skipped,
    and a byte that is not UTF-8 is an error.

    A line is ``buf[start:end]``, line break included, yielded as ``(lineno,
    buf, start, end)``.  ``buf`` is the reader's buffer, which the next line
    overwrites, with a spare byte after the line.
    """
    buf = bytearray(_BUFFER_BYTES + 1)
    lineno, n = 0, 0  # n: the bytes of a partial line moved to the front
    while True:
        got = fh.readinto(memoryview(buf)[n:-1])
        stop = n + got
        ascii = buf.isascii()  # what lies past stop only costs a check per line
        start, cr = 0, buf.find(b"\r", 0, stop)  # cr: the next "\r", or -1
        while start < stop:
            if 0 <= cr < start:
                cr = buf.find(b"\r", start, stop)
            end = buf.find(b"\n", start, cr if cr >= 0 else stop) + 1
            if not end and cr >= 0:  # the line ends in a "\r" or a "\r\n"
                if cr + 1 == stop and got:  # a "\n" may follow
                    break
                end = cr + 2 if cr + 1 < stop and buf[cr + 1] == 10 else cr + 1
            elif not end:  # a partial line, or the last one
                if got:
                    break
                end = stop
            lineno += 1
            if ascii or buf[start:end].isascii():
                lead = buf[start]
                if lead <= 32:  # blank, or led by spaces
                    lead = (buf[start:end].lstrip(_ASCII_SPACE) or b"#")[0]
                keep = lead != 35  # "#"
            else:
                try:
                    text = buf[start:end].decode()
                except UnicodeDecodeError as exc:
                    raise DatasetFormatError(f"{path}: not {exc.encoding} text: {exc.reason}") from None
                keep = text.lstrip()[:1] not in ("", "#")
            if keep:
                yield lineno, buf, start, end
            start = end
        if not got:
            return
        n = stop - start
        memoryview(buf)[:n] = memoryview(buf)[start:stop]  # memmove: no temporary
        if _BUFFER_LINES * n >= len(buf):
            buf *= 2


def _header(path, lineno: int, line: str) -> Tuple[int, List[str]]:
    """The header's count of schedule columns (``t,stimulus[,block]``) and its series."""
    header = [h.strip() for h in _fields(path, lineno, line)]
    if len(header) < 3 or header[0] != "t" or header[1] != "stimulus":
        raise DatasetFormatError(f"{path}:{lineno}: header must start with t,stimulus[,block]")
    k = 3 if header[2] == "block" else 2
    if k == 2:
        warnings.warn(f"{path}: no block column; assuming a single block", stacklevel=3)
    if len(header) == k:
        raise DatasetFormatError(f"{path}: no series columns after the schedule")
    return k, header[k:]


def _pack(buf, start: int, end: int, k: int, loads, packer: struct.Struct):
    """The head (``t`` and the labels) of the line ``buf[start:end]`` and its
    values packed as doubles, or None if ``np.loadtxt`` must read the line.

    The numbers are read in place: the comma before them becomes ``[`` and
    the line break (or the spare byte after the last line) ``]``, and both
    get their bytes back if the line goes to ``np.loadtxt``.  A quote may
    sit in the head only.  orjson rejects ``.5``, ``+1``, an empty field and
    an overflow, and reads an integer ``-0`` as ``0``; of the other JSON
    values, ``pack`` takes ``true`` and ``false`` only: a line with a ``t`` or
    an ``f`` among its numbers is not read.
    """
    comma, n = start - 1, 0  # the comma after the first n fields
    quote = buf.rfind(b'"', start, end)
    if quote >= 0:  # np.loadtxt reads the fields up to the comma after the last quote
        comma = buf.find(b",", quote, end)
        try:
            n = len(_fields(None, 0, buf[start:comma].decode())) if comma >= 0 else k + 1
        except DatasetFormatError:
            return None
    for _ in range(k - n):
        comma = buf.find(b",", comma + 1, end)
        if comma < 0:
            return None
    close = end - 1 if buf[end - 1] in (10, 13) else end  # the line break, or the spare byte
    if n > k or buf.find(b"t", comma, close) >= 0 or buf.find(b"f", comma, close) >= 0:
        return None  # true or false, or bytes orjson rejects
    kept, buf[comma], buf[close] = buf[close], 91, 93  # "[" and "]"
    try:
        packed = packer.pack(*loads(memoryview(buf)[comma:close + 1]))
    except (ValueError, struct.error):  # not JSON, or not one number per series
        packed = None
    # A +0.0 may be an integer -0, which np.loadtxt reads as -0.0.
    if packed is not None and (
        bytes(8) not in packed
        or b"-0" not in [f.strip() for f in buf[comma + 1:close].split(b",")]
    ):
        return buf[start:comma].decode(), packed
    buf[comma], buf[close] = 44, kept  # the line as written, for np.loadtxt
    return None


def _rows(path, lines, k: int, S: int):
    """The line numbers, ``t``, labels and T x S values of the data lines, in
    file order.  The packed lines' heads and the other lines go to one
    ``np.loadtxt`` call each; if either fails, each line is read on its own
    in file order, so the error is the first faulty line's."""
    import orjson  # not at module level: it adds about 9 ms to start-up

    # Labels are Python strings (object), so none is truncated.
    head_row = np.dtype([("t", np.int64), ("labels", object, (k - 1,))])
    row = np.dtype(head_row.descr + [("y", np.float64, (S,))])
    packer, values, linenos = struct.Struct(f"{S}d"), bytearray(), []
    heads, others = [], []  # (row, line number, head or whole line)
    for lineno, buf, start, end in lines:
        plain = _pack(buf, start, end, k, orjson.loads, packer)
        if plain:
            heads.append((len(linenos), lineno, plain[0]))
            values += plain[1]
        else:
            others.append((len(linenos), lineno, buf[start:end].decode()))
            values += bytes(packer.size)  # filled from the table below
        linenos.append(lineno)
    closing = "1" + "," * (k - 1)  # a quote left open on the last line runs into it
    try:
        head = _loadtxt([text for _, _, text in heads] + [closing], head_row)[:-1]
        whole = _loadtxt([text for _, _, text in others] + [closing + ",0" * S], row)[:-1]
        if len(head) != len(heads) or len(whole) != len(others):
            raise ValueError("a quoted field runs over a line break")
    except ValueError as exc:
        whole_lines = {i for i, _, _ in others}
        for i, lineno, text in sorted(heads + others):
            _record(path, lineno, text, *((row, k + S) if i in whole_lines else (head_row, k)))
        raise DatasetFormatError(f"{path}: {exc}") from None
    i, j = [i for i, _, _ in heads], [j for j, _, _ in others]
    t, labels = np.empty(len(linenos), np.int64), np.empty((len(linenos), k - 1), object)
    y = np.frombuffer(values).reshape(-1, S)
    t[i], labels[i] = head["t"], head["labels"]
    t[j], labels[j], y[j] = whole["t"], whole["labels"], whole["y"]
    return linenos, t, labels, y


def _dataset(path, names, linenos, t, labels, y):
    """The design, series names and values of the rows, in ``t`` order."""
    T = len(t)
    if not T:
        raise DatasetFormatError(f"{path}: no data rows")
    order = np.argsort(t, kind="stable")
    if not np.array_equal(t[order], np.arange(1, T + 1)):
        # Name the first line whose t is out of range or repeats an earlier one.
        seen = set()
        for lineno, ti in zip(linenos, t.tolist()):
            if not 1 <= ti <= T or ti in seen:
                raise DatasetFormatError(
                    f"{path}:{lineno}: t column must be a permutation of 1..{T}, got t={ti}"
                )
            seen.add(ti)
    if np.array_equal(order, np.arange(T)):
        order = slice(None)  # rows already in t order: no copy of the values
    labels = labels[order]
    blocks = labels[:, 1].tolist() if labels.shape[1] == 2 else None
    design = build_design(labels[:, 0].tolist(), blocks)
    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        raise DatasetFormatError(f"{path}:{linenos[int(np.argmin(finite))]}: non-finite value")
    return design, names, y[order]


def read_dataset(path) -> Tuple[DesignSchedule, List[str], np.ndarray]:
    """Parse a dataset CSV into its design, series names and T x S values."""
    with open(path, "rb") as fh:
        lines = _lines(path, fh)
        try:
            lineno, buf, start, end = next(lines, (0, None, 0, 0))
            if buf is None:
                raise DatasetFormatError(f"{path}: no data rows")
            k, names = _header(path, lineno, buf[start:end].decode())
            rows = _rows(path, lines, k, len(names))
        except DatasetFormatError:
            for _ in lines:  # a byte that is not UTF-8 is the file's first fault
                pass
            raise
    return _dataset(path, names, *rows)


def write_dataset(
    path,
    design: DesignSchedule,
    names: Sequence[str],
    Y,
    comments: Sequence[str] = (),
) -> None:
    """Write a dataset CSV of T x S values; floats keep 17 significant digits.
    The ``block`` column is written only for a design with blocks."""
    Y = np.asarray(Y, dtype=float).reshape(design.T, len(names))
    labels = (design.labels, design.block_labels) if design.has_blocks else (design.labels,)
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "stimulus", "block"][: 1 + len(labels)] + list(names))
        for t in range(design.T):
            writer.writerow([t + 1, *(c[t] for c in labels)] + [_float17(v) for v in Y[t]])


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
    try:
        params = [float(v) for v in rest.split(",")] if rest else []
    except ValueError as exc:
        raise ValueError(f"noise {spec!r}: {exc}") from None
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


# The value columns of an output record, as fields of a Fits.
_VALUE_FIELDS = ("sigma2_A_raw", "sigma2_A", "noise_level", "total", "omega2")


def fit_rows(names: Sequence[str], method: str, f) -> list:
    """The output records of the series ``names`` for the estimator
    ``method``: from its :class:`~shufflevar.estimators.Fits`, or, for the
    exception its check raised, one nan record per series flagged with the
    exception's kind."""
    if isinstance(f, Exception):
        return [[name, method, "", *("nan",) * 5, type(f).__name__] for name in names]
    alpha = "" if f.alpha is None else _float17(f.alpha)
    values = zip(*(map(_float17, getattr(f, name).tolist()) for name in _VALUE_FIELDS))
    return [[name, f.method, alpha, *v, flags] for name, v, flags in zip(names, values, f.flags)]
