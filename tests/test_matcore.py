import numpy as np
import pytest

from coherify.errors import DimensionMismatch, NotHermitian
from coherify.matcore import (
    dag,
    eig_hermitian,
    eigvals_hermitian,
    partial_trace,
)


def rand_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def quadratic_eigs(h):
    # independent oracle for 2x2 real symmetric matrices
    a, b, c = h[0, 0].real, h[1, 1].real, h[0, 1]
    tr, det = a + b, a * b - abs(c) ** 2
    disc = np.sqrt(tr ** 2 - 4 * det)
    return np.array([(tr + disc) / 2, (tr - disc) / 2])


def test_eig_identity():
    w, _ = eig_hermitian(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])


def test_eig_involution():
    w, _ = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [1.0, -1.0])


def test_eig_2x2_quadratic_oracle():
    h = np.array([[0.7, 0.1], [0.1, 0.3]])
    expected = quadratic_eigs(h)
    assert np.abs(expected - [(1 + np.sqrt(0.2)) / 2, (1 - np.sqrt(0.2)) / 2]).max() < 1e-15
    w, _ = eig_hermitian(h)
    assert np.abs(w - expected).max() < 1e-12


def test_eig_invariants_random():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4, 9):
        h = rand_hermitian(d, rng)
        w, v = eig_hermitian(h)
        assert abs(w.sum() - np.trace(h).real) < 1e-9
        assert abs((w ** 2).sum() - (np.abs(h) ** 2).sum()) < 1e-9
        recon = (v * w) @ v.conj().T
        norm = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm(recon - h) <= 1e-10 * norm
        assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-10
        assert np.all(np.diff(w) <= 1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_partial_trace_examples():
    # maximally entangled state: trace over the first factor gives 1/2 identity
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1.0
    j = np.outer(omega, omega.conj()) / 2
    assert np.abs(partial_trace(j, "first") - np.eye(2) / 2).max() < 1e-15

    rng = np.random.default_rng(2)
    a = rand_hermitian(2, rng)
    a = a / np.trace(a)
    b = rand_hermitian(2, rng)
    assert np.abs(partial_trace(np.kron(a, b), "first") - b).max() < 1e-12
    sigma = rand_hermitian(3, rng)
    x = np.kron(sigma, np.eye(3) / 3)
    assert np.abs(partial_trace(x, "second") - sigma).max() < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        x = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        for sub in ("first", "second"):
            assert abs(np.trace(partial_trace(x, sub)) - np.trace(x)) < 1e-12


def test_partial_trace_of_a_stack_equals_each_matrix():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        x = rng.standard_normal((2, 5, d * d, d * d)) + 1j * rng.standard_normal((2, 5, d * d, d * d))
        for sub in ("first", "second"):
            out = partial_trace(x, sub)
            assert out.shape == (2, 5, d, d)
            for idx in np.ndindex(2, 5):
                assert np.array_equal(out[idx], partial_trace(x[idx], sub))
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(5))


def test_dag_of_stack():
    rng = np.random.default_rng(77)
    a = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    out = dag(a)
    assert out.shape == (3, 4, 2)
    for i in range(3):
        assert np.array_equal(out[i], a[i].conj().T)


def test_eigvals_hermitian_of_a_stack_equals_each_matrix():
    rng = np.random.default_rng(3)
    stack = np.stack([rand_hermitian(5, rng) for _ in range(6)] + [np.eye(5)])
    stack = np.stack([stack, stack[::-1]])           # (2, 7, 5, 5)
    w = eigvals_hermitian(stack)
    assert w.shape == (2, 7, 5)
    for idx in np.ndindex(2, 7):
        assert np.array_equal(w[idx], np.sort(np.linalg.eigvalsh(stack[idx]))[::-1])
        assert np.array_equal(w[idx], eigvals_hermitian(stack[idx]))
    # one non-Hermitian matrix rejects the stack
    stack[1, 3, 0, 1] += 1e-6
    with pytest.raises(NotHermitian):
        eigvals_hermitian(stack)
    with pytest.raises(DimensionMismatch):
        eigvals_hermitian(np.ones(3))
    with pytest.raises(DimensionMismatch):
        eig_hermitian(stack)
