"""Density matrices: mixedness, coherence, decoherence, and coherification.

Coherence is measured with respect to the computational basis. All entropies
are in bits (logarithms base 2).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .matcore import HERMITIAN_ATOL, _positive_part, as_complex_matrix, dag, eigvals_hermitian

_EIG_CLAMP = 1e-10


def assert_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, positivity and unit trace; return the Hermitian
    part (rho + rho^dag) / 2, rho itself when rho is exactly Hermitian."""
    rho = _positive_part(rho, HERMITIAN_ATOL, stack=False, name="rho")
    tr_err = abs(rho.trace() - 1.0)
    if tr_err > HERMITIAN_ATOL:
        raise ValueError(f"trace differs from 1 by {tr_err:.3e}")
    return rho


def assert_prob_vector(p) -> np.ndarray:
    """Validate a probability vector; tiny negatives are clamped to zero."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    if not p.size:
        raise DimensionMismatch("probability vector is empty")
    if p.min() < -1e-12:
        raise ValueError(f"negative probability {p.min():.3e}")
    p = np.maximum(p, 0.0)
    s = p.sum()
    if abs(s - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {s}, not 1")
    return p


def shannon_entropy(p) -> float:
    """Shannon entropy in bits, with 0 log 0 := 0.

    Round-off negatives down to -1e-10 are treated as exact zeros.
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    if p.min() < -_EIG_CLAMP:
        raise ValueError(f"negative weight {p.min():.3e} in entropy input")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def _clamp_round_off(w: np.ndarray) -> np.ndarray:
    """w with its round-off negatives, those above -1e-10, set to 0."""
    return np.where((w < 0) & (w > -_EIG_CLAMP), 0.0, w)


def spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted non-increasingly, round-off negatives clamped to 0;
    for a stack (..., n, n) of matrices, one spectrum per matrix."""
    return _clamp_round_off(eigvals_hermitian(rho))


def decohere_state(rho: np.ndarray) -> np.ndarray:
    """Project onto the diagonal: keep populations, kill coherences."""
    rho = as_complex_matrix(rho, "rho")
    return np.diag(np.diag(rho))


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits."""
    return shannon_entropy(spectrum(rho))


def purity(rho: np.ndarray) -> float:
    """Tr rho^2 = sum |rho_ij|^2."""
    rho = as_complex_matrix(rho, "rho")
    return float((np.abs(rho) ** 2).sum())


def coherence_entropic(rho: np.ndarray) -> float:
    """Relative entropy of coherence: S(diag rho) - S(rho), in bits."""
    rho = as_complex_matrix(rho, "rho")
    p = np.clip(np.diag(rho).real, 0.0, None)
    return max(shannon_entropy(p) - entropy(rho), 0.0)


def coherence_2norm(rho: np.ndarray) -> float:
    """2-norm coherence: purity(rho) - purity(diag rho)."""
    rho = as_complex_matrix(rho, "rho")
    return max(purity(rho) - float((np.diag(rho).real ** 2).sum()), 0.0)


def coherify_state(p, phases=None) -> np.ndarray:
    """Pure state with diagonal p: rho_ij = sqrt(p_i p_j) exp(i(phi_i - phi_j))."""
    p = assert_prob_vector(p)
    if phases is None:
        phases = np.zeros_like(p)
    phases = np.asarray(phases, dtype=np.float64).reshape(-1)
    if phases.shape != p.shape:
        raise DimensionMismatch("phases must have the same length as p")
    psi = np.sqrt(p) * np.exp(1j * phases)
    return np.outer(psi, psi.conj())


def fourier_matrix(d: int) -> np.ndarray:
    """Unitary Fourier matrix F_jk = exp(2 pi i j k / d) / sqrt(d)."""
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def contradiagonal_state(rho: np.ndarray) -> np.ndarray:
    """Same spectrum as rho, maximal coherence: all diagonal entries 1/d.

    Obtained by writing rho in its eigenbasis and rotating by the Fourier
    matrix, so the populations flatten to 1/d while the spectrum is untouched.
    """
    rho = as_complex_matrix(rho, "rho")
    h = fourier_matrix(rho.shape[0])
    lam = np.diag(eigvals_hermitian(rho).astype(np.complex128))
    return h @ lam @ dag(h)
