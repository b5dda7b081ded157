import numpy as np
import pytest

from coherify.errors import DimensionMismatch
from coherify.matcore import dag
from coherify.states import (
    assert_prob_vector,
    coherence_2norm,
    coherence_entropic,
    coherify_state,
    contradiagonal_state,
    decohere_state,
    entropy,
    fourier_matrix,
    purity,
    shannon_entropy,
    spectrum,
)
from coherify.stochastic import majorizes


def rand_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


PLUS = np.full((2, 2), 0.5, dtype=complex)


def test_decohere():
    assert np.abs(decohere_state(PLUS) - np.diag([0.5, 0.5])).max() < 1e-15
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert np.abs(decohere_state(rho) - rho).max() == 0
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    assert np.abs(decohere_state(rho) - np.diag([0.7, 0.3])).max() < 1e-15
    # idempotent
    assert np.abs(decohere_state(decohere_state(rho)) - decohere_state(rho)).max() == 0


def test_entropy_purity_values():
    mixed = np.eye(2) / 2
    assert abs(entropy(mixed) - 1.0) < 1e-12
    assert abs(purity(mixed) - 0.5) < 1e-12
    assert abs(entropy(PLUS)) < 1e-10
    assert abs(purity(PLUS) - 1.0) < 1e-12
    rho = np.diag([0.75, 0.25])
    expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
    assert abs(entropy(rho) - expected) < 1e-12
    assert abs(expected - 0.8112781244591328) < 1e-12
    assert abs(purity(rho) - 0.625) < 1e-15


def test_coherence_measures():
    rho = np.diag([0.6, 0.4]).astype(complex)
    assert coherence_entropic(rho) < 1e-10
    assert coherence_2norm(rho) < 1e-14
    assert abs(coherence_entropic(PLUS) - 1.0) < 1e-10
    assert abs(coherence_2norm(PLUS) - 0.5) < 1e-12


def test_coherence_consistency_random():
    rng = np.random.default_rng(10)
    for d in (2, 3, 4):
        rho = rand_density(d, rng)
        p = np.diag(rho).real
        ce = shannon_entropy(p) - shannon_entropy(spectrum(rho))
        assert abs(coherence_entropic(rho) - ce) < 1e-9
        # the two routes of the 2-norm agree
        off = sum(
            abs(rho[i, j]) ** 2 for i in range(d) for j in range(d) if i != j
        )
        assert abs(coherence_2norm(rho) - off) < 1e-12


def test_entropy_unitary_invariant():
    rng = np.random.default_rng(11)
    rho = rand_density(3, rng)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, _ = np.linalg.qr(g)
    assert abs(entropy(u @ rho @ dag(u)) - entropy(rho)) < 1e-9


def test_coherify_state():
    assert np.abs(coherify_state([0.5, 0.5]) - PLUS).max() < 1e-12
    rho = coherify_state([1.0, 0.0, 0.0], phases=[0.3, 1.0, 2.0])
    assert np.abs(rho - np.diag([1.0, 0, 0])).max() < 1e-12
    rho = coherify_state([0.7, 0.3], phases=[0.0, np.pi])
    assert abs(rho[0, 1] - (-np.sqrt(0.21))) < 1e-12
    # pure, diagonal preserved, decoherence inverts it
    rng = np.random.default_rng(12)
    p = rng.dirichlet(np.ones(4))
    rho = coherify_state(p, phases=rng.uniform(0, 2 * np.pi, 4))
    assert abs(purity(rho) - 1.0) < 1e-10
    assert np.abs(np.diag(decohere_state(rho)).real - p).max() < 1e-12
    with pytest.raises(DimensionMismatch, match="probability vector is empty"):
        coherify_state([])


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 0.0], [1.0, 0.5, -np.inf]])
@pytest.mark.parametrize("check", [
    assert_prob_vector, coherify_state, shannon_entropy,
    lambda p: majorizes(p, [0.5, 0.5]), lambda q: majorizes([1.0], q),
], ids=["assert_prob_vector", "coherify_state", "shannon_entropy", "majorizes_p", "majorizes_q"])
def test_non_finite_probability_vectors_raise(check, bad):
    with pytest.raises(ValueError):
        check(bad)


def test_contradiagonal():
    d = 3
    mixed = np.eye(d) / d
    assert np.abs(contradiagonal_state(mixed) - mixed).max() < 1e-12
    pure = np.diag([1.0, 0.0]).astype(complex)
    cont = contradiagonal_state(pure)
    assert np.abs(np.diag(cont).real - 0.5).max() < 1e-10
    assert abs(purity(cont) - 1.0) < 1e-10
    rng = np.random.default_rng(13)
    for d in (2, 3, 4):
        rho = rand_density(d, rng)
        cont = contradiagonal_state(rho)
        assert np.abs(np.diag(cont).real - 1.0 / d).max() < 1e-10
        assert np.abs(spectrum(cont) - spectrum(rho)).max() < 1e-10
        assert abs(coherence_2norm(cont) - (purity(rho) - 1.0 / d)) < 1e-10
        assert abs(coherence_entropic(cont) - (np.log2(d) - entropy(rho))) < 1e-9


def test_fourier_unitary():
    for d in (2, 3, 5):
        f = fourier_matrix(d)
        assert np.abs(f @ dag(f) - np.eye(d)).max() < 1e-12
        assert np.abs(np.abs(f) ** 2 - 1.0 / d).max() < 1e-12


def test_spectrum_of_a_stack_equals_each_matrix():
    rng = np.random.default_rng(14)
    # a pure state clamps round-off negatives
    pure = np.outer([0.6, 0.8j, 0.0], [0.6, -0.8j, 0.0])
    stack = np.stack([rand_density(3, rng) for _ in range(5)] + [pure])
    lam = spectrum(stack)
    assert lam.shape == (6, 3)
    for rho, row in zip(stack, lam):
        assert np.array_equal(spectrum(rho), row)
    assert lam[-1].min() >= 0.0
