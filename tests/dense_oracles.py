"""Dense T x T oracles for the structured paths of ``shufflevar``.

They form the averaging matrices and the covariance (with
:meth:`CovarianceModel.materialize`) and take traces of their blocks, so
they cost O(T^2) memory; tests keep T small.
"""

import numpy as np

from shufflevar.noise import _toeplitz


def covariance(model, T) -> np.ndarray:
    """The T x T correlation of a stationary ``model``: what
    :meth:`CovarianceModel.materialize` gives for any design of length T."""
    return _toeplitz(model.autocorrelations(T))


def averaging_matrix(design) -> np.ndarray:
    """B: the T x T matrix replacing each entry by its treatment average."""
    ind = np.equal.outer(design.stimulus_index, design.stimulus_index)
    return ind.astype(float) / design.n


def global_matrix(design) -> np.ndarray:
    """G: the T x T global-averaging matrix (all entries 1/T)."""
    return np.full((design.T, design.T), 1.0 / design.T)


def alpha_dense(design, perm) -> float:
    """Mixing coefficient ``tr((B - G) P B P') / (m - 1)``."""
    B = averaging_matrix(design)
    g = perm.mapping
    return float(np.trace((B - global_matrix(design)) @ B[np.ix_(g, g)]) / (design.m - 1))


def contrast_trace(M, design) -> float:
    """tr((B - G) M) without materializing B or G."""
    M = np.asarray(M, dtype=float)
    if M.shape != (design.T, design.T):
        raise ValueError(f"matrix shape {M.shape} does not match design T={design.T}")
    tr_b = 0.0
    for slots in design.stimulus_groups():
        tr_b += M[np.ix_(slots, slots)].sum() / design.n
    return tr_b - M.sum() / design.T


def shuffled_covariance(model, design, perm=None) -> np.ndarray:
    """``P Sigma P'``: entry (t, u) is ``Sigma[g(t), g(u)]``."""
    Sigma = model.materialize(design)
    if perm is None:
        return Sigma
    g = perm.mapping
    return Sigma[np.ix_(g, g)]


def dense_noise_level(model, design, sigma2_eps=1.0, perm=None) -> float:
    """``sigma2_eps tr((B - G) P Sigma P') / ((m - 1) n)``."""
    trace = contrast_trace(shuffled_covariance(model, design, perm), design)
    return sigma2_eps * trace / ((design.m - 1) * design.n)


def dense_gap(model, design, perm) -> float:
    """``tr((B - G) P Sigma P') - tr((B - G) Sigma)``."""
    return contrast_trace(shuffled_covariance(model, design, perm), design) - contrast_trace(
        model.materialize(design), design
    )
