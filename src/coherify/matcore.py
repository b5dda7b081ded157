"""Dense complex linear algebra primitives for small matrices.

Everything here operates on plain numpy arrays of complex128. Matrices are
kept small by design (dimension at most 64, i.e. channels on systems of
dimension at most 8), so no attention is paid to sparsity or scaling.

This module alone decides what a valid Hermitian or positive semi-definite
matrix is and computes the partial trace: a channel's Jamiolkowski state J
and a density matrix rho go through the same checks.

Index conventions used throughout the package: a matrix on a d*d-dimensional
composite space carries row index (i, k) = i*d + k and column index
(j, l) = j*d + l, with the first tensor factor the *output* slot and the
second the *input* slot of a channel.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

MAX_DIM = 64
# tolerance of the eigen helpers' Hermiticity check and of a density matrix's checks
HERMITIAN_ATOL = 1e-10
# a matrix is positive when its least eigenvalue is at least -max(PSD_FLOOR, atol)
PSD_FLOOR = 1e-10


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
    if not np.isfinite(m).all():
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return m


def _hermitian_part(h, atol: float, stack: bool, name: str) -> np.ndarray:
    """Checked (h + h^dag) / 2 of a square matrix, or with stack=True of each
    matrix in a stack (..., n, n); rejected when h - h^dag exceeds atol in
    any matrix, the message giving the first failing matrix's deviation."""
    h = as_complex_matrix(h, name, stack=stack)
    n, m = h.shape[-2:]
    if n != m:
        raise DimensionMismatch(f"expected a square matrix, got {h.shape}")
    if n > MAX_DIM:
        raise DimensionMismatch(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    asym = np.abs(h - dag(h)).max(axis=(-2, -1), initial=0.0).reshape(-1)
    bad = asym > atol
    if bad.any():
        raise NotHermitian(f"{name} is not Hermitian: max|{name} - {name}^dag| = {asym[bad][0]:.3e}")
    return hermitize(h)


def _reject_negative(w: np.ndarray, atol: float, name: str) -> None:
    """Raise when a matrix's eigenvalues, w's last axis, go below
    -max(PSD_FLOOR, atol); the message gives the first failing matrix's."""
    wmin = w.min(axis=-1, initial=np.inf).reshape(-1)
    bad = wmin < -max(PSD_FLOOR, atol)
    if bad.any():
        raise ValueError(f"{name} is not positive semi-definite: min eigenvalue {wmin[bad][0]:.3e}")


def _positive_spectrum(h, atol: float, stack: bool, name: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_hermitian_part`, also rejected when a matrix has an eigenvalue
    below -max(PSD_FLOOR, atol); one batched eigvalsh checks a whole stack.
    Returns the Hermitian part and its eigenvalues, bit for bit those
    :func:`eigvals_hermitian` returns for it."""
    h = _hermitian_part(h, atol, stack, name)
    w = _lapack(np.linalg.eigvalsh, h)[..., ::-1]
    _reject_negative(w, atol, name)
    return h, w


def _lapack(solver, h: np.ndarray):
    """solver(h), a LAPACK failure raised as ConvergenceFailure."""
    try:
        return solver(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of a Hermitian matrix, as np.linalg.eigh
    returns it but with the eigenvalues w sorted descending and the columns
    of the unitary v in the same order.

    The input is symmetrized when its anti-Hermitian part is below
    ``HERMITIAN_ATOL`` (absorbing round-off) and rejected otherwise.
    """
    w, v = _lapack(np.linalg.eigh, _hermitian_part(h, HERMITIAN_ATOL, stack=False, name="H"))
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def eigvals_hermitian(h: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """The eigenvalues, sorted descending, of a Hermitian matrix or of each
    matrix in a stack (..., n, n), by np.linalg.eigvalsh, which skips the
    eigenvectors; they may differ from :func:`eig_hermitian`'s eigenvalues
    in the last digits. A stack is rejected when any of its matrices is not
    Hermitian."""
    return _lapack(np.linalg.eigvalsh, _hermitian_part(h, atol, stack=True, name="H"))[..., ::-1]


def partial_trace(x: np.ndarray, subsystem: str = "first") -> np.ndarray:
    """Partial trace of a d^2 x d^2 matrix, or of each matrix in a stack
    (..., d^2, d^2), over the output slot ("first"; Tr_1 J = 1/d for a
    channel) or the input slot ("second"); d is read from the shape."""
    x = as_complex_matrix(x, "X", stack=True)
    n, m = x.shape[-2:]
    d = int(round(np.sqrt(n)))
    if n != m or d * d != n:
        raise DimensionMismatch(f"expected a d^2 x d^2 matrix, got shape {x.shape}")
    x = x.reshape(x.shape[:-2] + (d, d, d, d))
    if subsystem == "first":
        return np.einsum("...akal->...kl", x)
    if subsystem == "second":
        return np.einsum("...akbk->...ab", x)
    raise ValueError(f"subsystem must be 'first' or 'second', got {subsystem!r}")
