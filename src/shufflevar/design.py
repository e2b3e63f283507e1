"""Balanced experimental designs and the ANOVA mean-square contrasts.

A design assigns one stimulus label (and optionally one block label) to each
of ``T`` time slots.  Every stimulus must appear the same number of times;
the two quadratic contrasts computed here, :func:`ms_between` and
:func:`ms_within`, are the raw ingredients of every variance estimator in
this package.

Each function here takes a length-T series, giving a float (or length-m
array), or a T x S matrix of series, giving one result per column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Optional, Sequence

import numpy as np


class DesignError(ValueError):
    """Base class for invalid design input."""


class UnbalancedDesign(DesignError):
    """Stimulus repeat counts are not all equal."""


class DegenerateDesign(DesignError):
    """Fewer than two distinct stimuli."""


class NoReplication(DesignError):
    """Within-stimulus contrast requested but each stimulus appears once."""


class MissingBlocks(DesignError):
    """Operation requires an explicit block structure."""


@dataclass(frozen=True)
class DesignSchedule:
    """A validated, balanced stimulus schedule.

    Attributes
    ----------
    labels :
        Stimulus label shown at each time slot, length ``T``.
    block_labels :
        Block (session) label of each time slot, length ``T``.
    stimulus_index :
        0-based stimulus index per slot (first-appearance order).
    block_index :
        0-based block index per slot.
    has_blocks :
        True iff block labels were supplied explicitly (rather than the
        single-block default).
    """

    labels: tuple
    block_labels: tuple
    stimulus_index: np.ndarray = field(repr=False)
    block_index: np.ndarray = field(repr=False)
    has_blocks: bool

    @property
    def T(self) -> int:
        return len(self.labels)

    # Counted once per design: the sweeps read them thousands of times.
    @cached_property
    def m(self) -> int:
        """Number of distinct stimuli."""
        return int(self.stimulus_index.max()) + 1

    @cached_property
    def n(self) -> int:
        """Repeats per stimulus."""
        return self.T // self.m

    @cached_property
    def n_blocks(self) -> int:
        return int(self.block_index.max()) + 1

    def stimulus_groups(self) -> np.ndarray:
        """m x n array whose row i holds stimulus i's slots in time order."""
        return np.argsort(self.stimulus_index, kind="stable").reshape(self.m, self.n)

    def block_groups(self) -> list:
        """Index arrays of the slots assigned to each block."""
        idx = self.block_index
        return [np.flatnonzero(idx == b) for b in range(self.n_blocks)]


def build_design(
    schedule: Sequence[Hashable],
    block_ids: Optional[Sequence[Hashable]] = None,
) -> DesignSchedule:
    """Validate a stimulus schedule and return a :class:`DesignSchedule`.

    Parameters
    ----------
    schedule :
        Stimulus label per time slot.
    block_ids :
        Optional block label per time slot.  Defaults to a single block.

    Raises
    ------
    UnbalancedDesign
        If stimuli have unequal repeat counts.
    DegenerateDesign
        If fewer than two distinct stimuli appear.
    """
    labels = tuple(schedule)
    T = len(labels)
    if T == 0:
        raise DegenerateDesign("empty schedule")

    stim_order: dict = {}
    for lab in labels:
        if lab not in stim_order:
            stim_order[lab] = len(stim_order)
    h = np.array([stim_order[lab] for lab in labels], dtype=np.intp)

    m = len(stim_order)
    if m < 2:
        raise DegenerateDesign(f"need at least 2 distinct stimuli, got {m}")
    counts = np.bincount(h, minlength=m)
    if counts.min() != counts.max():
        raise UnbalancedDesign(
            f"repeat counts range from {counts.min()} to {counts.max()}"
        )

    has_blocks = block_ids is not None
    if block_ids is None:
        blocks = tuple(0 for _ in labels)
    else:
        blocks = tuple(block_ids)
        if len(blocks) != T:
            raise DesignError(
                f"block_ids length {len(blocks)} != schedule length {T}"
            )
    blk_order: dict = {}
    for lab in blocks:
        if lab not in blk_order:
            blk_order[lab] = len(blk_order)
    beta = np.array([blk_order[lab] for lab in blocks], dtype=np.intp)

    h.setflags(write=False)
    beta.setflags(write=False)
    return DesignSchedule(
        labels=labels,
        block_labels=blocks,
        stimulus_index=h,
        block_index=beta,
        has_blocks=has_blocks,
    )


def _columns(y, design: DesignSchedule) -> np.ndarray:
    """``y`` as a T x S matrix; a series is S = 1."""
    Y = np.asarray(y, dtype=float)
    if Y.ndim not in (1, 2) or len(Y) != design.T:
        raise ValueError(f"series shape {Y.shape} does not match design T={design.T}")
    return Y.reshape(design.T, -1)


def treatment_averages(y, design: DesignSchedule, shuffle=None) -> np.ndarray:
    """Mean response per stimulus, in first-appearance order (m, or m x S).

    With a slot index ``shuffle`` these are the averages of ``y[shuffle]``,
    read from ``y`` through the composed index without forming the copy.
    """
    Y = _columns(y, design)
    # Adding the repeats one at a time sums each group in time order, as
    # np.bincount does, and holds nothing larger than m x S.
    slots = design.stimulus_groups()
    if shuffle is not None:
        slots = np.asarray(shuffle)[slots]
    sums = Y[slots[:, 0]]
    for j in range(1, design.n):
        sums += Y[slots[:, j]]
    sums /= design.n
    return sums[:, 0] if np.ndim(y) == 1 else sums


def ms_between(y, design: DesignSchedule, shuffle=None):
    """Between-treatment mean square: sample variance of the treatment averages.

    Equal to ``||(B - G) y||^2 / ((m - 1) n)`` where ``B`` averages within
    treatments and ``G`` averages globally.  With a slot index ``shuffle``
    (a permutation's mapping) it is the contrast of ``y[shuffle]``, bit for
    bit, with no shuffled copy of ``y``.
    """
    out = _between(_row_averages(_columns(y, design), design, shuffle), design)
    return float(out[0]) if np.ndim(y) == 1 else out


def ms_within(y, design: DesignSchedule):
    """Within-treatment mean square, normalized by ``m (n - 1)``.

    Unbiased for the per-measurement noise variance when the noise is
    uncorrelated within treatments.
    """
    out = mean_squares(y, design, within=True)[2]
    return float(out[0]) if np.ndim(y) == 1 else out


def mean_squares(y, design: DesignSchedule, shuffle=None, within: bool = False):
    """``(ms_between(y), ms_between(y, shuffle), ms_within(y))`` from one pass
    over the columns of ``y``, as arrays; the second is None without a
    ``shuffle`` and the third None unless ``within``.

    The treatment averages are formed once for the first and third, and
    once under the shuffle for the second.  Each value is that of the
    function named, bit for bit.
    """
    if within:
        check_replicated(design)
    Y = _columns(y, design)
    A = _row_averages(Y, design)
    mw = _within(Y, A, design) if within else None
    total = _between(A, design)
    del A
    shuffled = None if shuffle is None else _between(_row_averages(Y, design, shuffle), design)
    return total, shuffled, mw


def check_replicated(design: DesignSchedule) -> None:
    """Raise :class:`NoReplication` unless each stimulus repeats."""
    if design.n < 2:
        raise NoReplication("within-treatment contrast needs n >= 2")


def _row_averages(Y: np.ndarray, design: DesignSchedule, shuffle=None) -> np.ndarray:
    """The S x m treatment averages of T x S ``Y``, one contiguous row per
    series, so each reduces as a 1-D series would."""
    return np.ascontiguousarray(treatment_averages(Y, design, shuffle).T)


def _between(A: np.ndarray, design: DesignSchedule) -> np.ndarray:
    """ms_between of each row of averages ``A``, which it overwrites."""
    A -= A.mean(axis=1, keepdims=True)
    np.square(A, out=A)
    return np.sum(A, axis=1) / (design.m - 1)


# Series whose within-treatment residuals :func:`_within` holds at once.
_RESIDUAL_BLOCK = 64


def _within(Y: np.ndarray, A: np.ndarray, design: DesignSchedule) -> np.ndarray:
    """ms_within of each column of ``Y``, from its row of averages ``A``."""
    # Residuals of a block of series at a time, one contiguous row per series.
    sums = np.empty(len(A))
    resid = np.empty((min(_RESIDUAL_BLOCK, len(A)), design.T))
    for j in range(0, len(A), _RESIDUAL_BLOCK):
        part = resid[: min(_RESIDUAL_BLOCK, len(A) - j)]
        cols = slice(j, j + len(part))
        # mode="clip" (the indices are valid) writes to out without a buffer.
        np.take(A[cols], design.stimulus_index, axis=1, out=part, mode="clip")
        np.subtract(Y[:, cols].T, part, out=part)
        np.square(part, out=part)
        np.sum(part, axis=1, out=sums[cols])
    return sums / (design.m * (design.n - 1))
