"""Permutations of the measurement axis and their mixing diagnostics.

A permutation is stored as a 0-based index array ``g`` with the convention
that shuffling a series ``y`` produces ``y[g]``; one permutation shuffles
the rows of a T x S matrix, every series alike.  The mixing coefficient
:func:`alpha` measures how much of the between-treatment signal survives a
shuffle.  Whether a shuffle conserves the noise contribution is a question
about the noise covariance, answered by
:func:`~shufflevar.noise.noise_conservation_gap`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignSchedule


class OddLength(ValueError):
    """Pairwise odd/even swap requires an even number of slots."""


@dataclass(frozen=True)
class PermutationSpec:
    """A bijection on the time slots.

    ``mapping[t]`` is the (0-based) source slot whose value lands at slot
    ``t`` after shuffling.
    """

    mapping: np.ndarray
    family: str = "custom"

    def __post_init__(self):
        g = np.asarray(self.mapping, dtype=np.intp)
        if g.ndim != 1:
            raise ValueError("permutation mapping must be one-dimensional")
        if g.size:
            if g.min() < 0 or g.max() >= len(g):
                raise ValueError("mapping indices outside {0..T-1}")
            if np.bincount(g, minlength=len(g)).max() > 1:
                raise ValueError("mapping is not a bijection on {0..T-1}")
        g.setflags(write=False)
        object.__setattr__(self, "mapping", g)

    @property
    def T(self) -> int:
        return len(self.mapping)

    def inverse(self) -> "PermutationSpec":
        inv = np.empty(self.T, dtype=np.intp)
        inv[self.mapping] = np.arange(self.T)
        return PermutationSpec(inv, family=self.family)


def identity_perm(T: int) -> PermutationSpec:
    return PermutationSpec(np.arange(T), family="identity")


def reverse_perm(T: int) -> PermutationSpec:
    """Order-reversing permutation, (P y)_t = y_{T+1-t} in 1-based terms."""
    return PermutationSpec(np.arange(T)[::-1].copy(), family="reverse")


def cyclic_shift(T: int, k: int) -> PermutationSpec:
    """Cyclic left shift by ``k``: slot t receives the value from slot t+k."""
    if not 0 <= k < T:
        raise ValueError(f"shift must satisfy 0 <= k < T, got k={k}, T={T}")
    return PermutationSpec((np.arange(T) + k) % T, family=f"cyclic_shift({k})")


def odd_even_swap(T: int) -> PermutationSpec:
    """Swap each consecutive (odd, even) pair of slots."""
    if T % 2:
        raise OddLength(f"odd/even swap needs even length, got T={T}")
    g = np.arange(T).reshape(-1, 2)[:, ::-1].ravel()
    return PermutationSpec(g, family="odd_even")


def block_random_perm(design: DesignSchedule, seed) -> PermutationSpec:
    """Uniformly random permutation within each block of the design.

    Blocks never mix.  With the default single-block design this is an
    unrestricted random permutation.  Deterministic given ``seed``.
    """
    rng = np.random.default_rng(seed)
    g = np.empty(design.T, dtype=np.intp)
    for slots in design.block_groups():
        g[slots] = rng.permutation(slots)
    return PermutationSpec(g, family="block_random")


def perm_from_indices(indices_1based, family: str = "custom") -> PermutationSpec:
    """Build a permutation from 1-based target indices (file format)."""
    g = np.asarray(indices_1based, dtype=np.intp) - 1
    return PermutationSpec(g, family=family)


def apply(perm: PermutationSpec, y) -> np.ndarray:
    """Shuffle the time slots of a series, or the rows of a T x S matrix."""
    vals = np.asarray(y, dtype=float)
    if vals.ndim not in (1, 2) or len(vals) != perm.T:
        raise ValueError(f"series of shape {vals.shape} != permutation size {perm.T}")
    return vals[perm.mapping]


def _joint_counts(design: DesignSchedule, perm: PermutationSpec) -> np.ndarray:
    """Slot counts of each (stimulus, stimulus after the shuffle) pair."""
    if perm.T != design.T:
        raise ValueError("permutation size does not match design")
    h = design.stimulus_index
    return np.bincount(h * design.m + h[perm.mapping], minlength=design.m**2)


def is_trivial(perm: PermutationSpec, design: DesignSchedule) -> bool:
    """True iff the shuffle merely relabels treatments.

    A trivial permutation sends all repeats of each stimulus onto repeats
    of a single (possibly different) stimulus, so the between-treatment
    contrast is unchanged.  A stimulus's n slots, counted by shuffled
    stimulus, have squares summing to n^2 exactly when all land on one;
    so the test is the integer identity sum(counts^2) == m n^2.
    """
    counts = _joint_counts(design, perm)
    return int(np.sum(counts**2)) == design.m * design.n**2


def alpha(design: DesignSchedule, perm: PermutationSpec) -> float:
    """Mixing coefficient of a permutation for a design.

    Always <= 1, with equality exactly for trivial permutations.  Computed
    in O(T) by counting slot pairs that share a stimulus both before and
    after the shuffle; :func:`alpha_dense` is the dense-trace cross-check.
    """
    counts = _joint_counts(design, perm)
    n_joint = float(np.sum(counts.astype(float) ** 2))
    return (n_joint / design.n**2 - 1.0) / (design.m - 1)


def alpha_dense(design: DesignSchedule, perm: PermutationSpec) -> float:
    """Mixing coefficient via dense trace algebra (test oracle)."""
    B = design.averaging_matrix()
    G = design.global_matrix()
    g = perm.mapping
    PBPt = B[np.ix_(g, g)]
    return float(np.trace((B - G) @ PBPt) / (design.m - 1))
