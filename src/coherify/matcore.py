"""Dense complex linear algebra primitives for small matrices.

Everything here operates on plain numpy arrays of complex128. Matrices are
kept small by design (dimension at most 64, i.e. channels on systems of
dimension at most 8), so no attention is paid to sparsity or scaling.

Index conventions used throughout the package: a matrix on a d*d-dimensional
composite space carries row index (i, k) = i*d + k and column index
(j, l) = j*d + l, with the first tensor factor the *output* slot and the
second the *input* slot of a channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

MAX_DIM = 64


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., m, n)."""
    return a.swapaxes(-1, -2).conj()


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dag) / 2."""
    return (a + dag(a)) / 2


def as_complex_matrix(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce to a finite complex128 2-d array, or with stack=True to a stack
    (..., m, n) of them."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        expected = "at least 2" if stack else "2"
        raise DimensionMismatch(f"{name} must be {expected}-dimensional, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigensystem of a Hermitian matrix.

    eigenvalues are real and sorted non-increasingly; eigenvectors is the
    unitary whose columns match the eigenvalue ordering.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _hermitian_part(h, atol: float, stack: bool) -> np.ndarray:
    """Checked (h + h^dag) / 2 of a square matrix, or with stack=True of each
    matrix in a stack (..., n, n); rejected when h - h^dag exceeds atol."""
    h = as_complex_matrix(h, "H", stack=stack)
    n, m = h.shape[-2:]
    if n != m:
        raise DimensionMismatch(f"expected a square matrix, got {h.shape}")
    if n > MAX_DIM:
        raise DimensionMismatch(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    asym = np.abs(h - dag(h)).max(initial=0.0)
    if asym > atol:
        raise NotHermitian(f"matrix is not Hermitian: max|H - H^dag| = {asym:.3e}")
    return hermitize(h)


def _eigh(h: np.ndarray):
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc


def eig_hermitian(h: np.ndarray, atol: float = 1e-10) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    The input is symmetrized when its anti-Hermitian part is below ``atol``
    (absorbing round-off) and rejected otherwise.
    """
    w, v = _eigh(_hermitian_part(h, atol, stack=False))
    order = np.argsort(-w, kind="stable")
    return EigenDecomposition(eigenvalues=w[order], eigenvectors=v[:, order])


def eigvals_hermitian(h: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """The eigenvalues of :func:`eig_hermitian`, sorted descending, of a
    Hermitian matrix or of each matrix in a stack (..., n, n); a stack is
    rejected when any of its matrices is not Hermitian."""
    return _eigh(_hermitian_part(h, atol, stack=True))[0][..., ::-1]


def partial_trace(x: np.ndarray, d: int | None = None, subsystem: str = "first") -> np.ndarray:
    """Partial trace of a d^2 x d^2 matrix over the named tensor factor."""
    x = as_complex_matrix(x, "X")
    n, m = x.shape
    if n != m:
        raise DimensionMismatch(f"expected a square matrix, got shape {x.shape}")
    if d is None:
        d = int(round(np.sqrt(n)))
    if d * d != n:
        raise DimensionMismatch(f"dimension {n} is not a perfect square matching d={d}")
    x4 = x.reshape(d, d, d, d)
    if subsystem == "first":
        return np.einsum("akal->kl", x4)
    if subsystem == "second":
        return np.einsum("akbk->ab", x4)
    raise ValueError(f"subsystem must be 'first' or 'second', got {subsystem!r}")
