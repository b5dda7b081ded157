import numpy as np
import pytest

from coherify.bounds import mu_lower, mu_upper, polygon_report
from coherify.channels import channel_purity, classical_action
from coherify.diagnostics import path_distribution
from coherify.oracle import (
    OracleConfig,
    haar_unitarity_mc,
    haar_unitary,
    maximize_purity,
    rand_channel,
    sample_fixed_action,
    search_unistochastic_witness,
)
from coherify.stochastic import majorizes

T_EXAMPLE = np.array([[0.7, 0.2, 0.6], [0.1, 0.6, 0.4], [0.2, 0.2, 0.0]])
T_FLAT_OFFDIAG = 0.5 * np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(restarts=0)
    with pytest.raises(ValueError):
        OracleConfig(step_size=-1)


def test_samples_satisfy_constraints():
    cfg = OracleConfig(seed=42)
    samples = sample_fixed_action(np.eye(2), 50, cfg)
    for smp in samples:
        assert np.abs(classical_action(smp) - np.eye(2)).max() < 1e-6
        assert np.linalg.eigvalsh(smp.jam).min() > -1e-8


def test_samples_respect_bounds():
    cfg = OracleConfig(seed=42)
    samples = sample_fixed_action(T_EXAMPLE, 200, cfg)
    up = mu_upper(T_EXAMPLE)
    for smp in samples:
        lam = path_distribution(smp)
        assert majorizes(up, lam, slack=1e-6, sum_atol=1e-5)
    poly = polygon_report(T_FLAT_OFFDIAG)
    for smp in sample_fixed_action(T_FLAT_OFFDIAG, 200, cfg):
        assert channel_purity(smp) <= poly.purity_upper + 1e-6
        assert majorizes(
            poly.majorization_upper, path_distribution(smp), slack=1e-6, sum_atol=1e-5
        )


def test_sampling_reproducible():
    cfg = OracleConfig(seed=7)
    a = sample_fixed_action(T_EXAMPLE, 5, cfg)
    b = sample_fixed_action(T_EXAMPLE, 5, cfg)
    for x, y in zip(a, b):
        assert np.array_equal(x.jam, y.jam)
    c = sample_fixed_action(T_EXAMPLE, 5, OracleConfig(seed=8))
    assert not np.array_equal(a[0].jam, c[0].jam)


def test_maximize_purity_qubit_exact():
    t = np.array([[1 / 3, 1 / 6], [2 / 3, 5 / 6]])
    _, pur = maximize_purity(t, OracleConfig(seed=42, restarts=4))
    assert abs(pur - 0.625) < 1e-4


def test_maximize_purity_brackets():
    cfg = OracleConfig(seed=42, restarts=8)
    ch, pur = maximize_purity(T_EXAMPLE, cfg)
    lo, up = mu_lower(T_EXAMPLE), mu_upper(T_EXAMPLE)
    assert float(lo @ lo) - 1e-6 <= pur <= float(up @ up) + 1e-6
    assert np.abs(classical_action(ch) - T_EXAMPLE).max() < 1e-6


def test_maximize_purity_flat_offdiagonal():
    _, pur = maximize_purity(T_FLAT_OFFDIAG, OracleConfig(seed=42, restarts=6))
    assert abs(pur - 0.5) < 1e-3


def test_maximize_purity_unistochastic_reaches_one():
    t = np.array([[0.3, 0.3, 0.4], [0.4, 0.3, 0.3], [0.3, 0.4, 0.3]])
    _, pur = maximize_purity(t, OracleConfig(seed=42, restarts=6))
    assert abs(pur - 1.0) < 1e-4


def test_haar_mc_cross_validates():
    from coherify.diagnostics import unitarity

    rng = np.random.default_rng(70)
    ch = rand_channel(2, rng)
    est, se = haar_unitarity_mc(ch, 100_000, seed=3)
    assert abs(est - unitarity(ch)) <= 3 * se


def test_witness_search():
    w4 = np.full((4, 4), 0.25)
    u = search_unistochastic_witness(w4, OracleConfig(seed=42, restarts=8))
    assert u is not None
    assert np.abs(np.abs(u) ** 2 - w4).max() < 1e-6
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-8
    # provably non-unistochastic: nothing found
    assert search_unistochastic_witness(T_FLAT_OFFDIAG, OracleConfig(seed=42, restarts=6)) is None
    # permutations come out of the zero-phase restart immediately
    p = np.eye(5)[:, [3, 0, 4, 1, 2]]
    u = search_unistochastic_witness(p, OracleConfig(seed=42, restarts=2))
    assert u is not None and np.abs(np.abs(u) ** 2 - p).max() < 1e-10


def _flat_block(d, perm_rows, perm_cols):
    t = np.eye(d)
    t[:3, :3] = T_FLAT_OFFDIAG
    return t[perm_rows][:, perm_cols]


def _kron_input(a, b):
    """Permuted kron of two 2x2 bistochastic matrices: unistochastic."""
    ta = np.array([[a, 1 - a], [1 - a, a]])
    tb = np.array([[b, 1 - b], [1 - b, b]])
    return np.kron(ta, tb)[[2, 0, 3, 1]][:, [1, 3, 0, 2]]


def _sequential_search(t, cfg):
    """Reference: one restart at a time, each to convergence or the cap."""
    from coherify.oracle import _rng
    from coherify.stochastic import _moduli_polish, _verify_witness

    d = t.shape[0]
    m = np.sqrt(t)
    j = np.arange(d)
    for r in range(cfg.restarts):
        if r == 0:
            phi = np.zeros((d, d))
        elif r == 1:
            phi = 2 * np.pi * np.outer(j, j) / d
        else:
            phi = _rng(cfg.seed, 20_000 + r).uniform(0, 2 * np.pi, size=(d, d))
        step, f_prev = 0.1, np.inf
        for _ in range(cfg.max_iterations):
            u = m * np.exp(1j * phi)
            g = u.conj().T @ u - np.eye(d)
            f = float((np.abs(g) ** 2).sum())
            if f < 1e-20:
                break
            if f > f_prev:
                step *= 0.5
            f_prev = f
            phi = phi - step * (-4.0 * np.imag((g @ u.conj().T).T * u))
        u = _moduli_polish(m * np.exp(1j * phi), t)
        if _verify_witness(u, t):
            return u
    return None


def test_witness_search_none_on_flat_blocks():
    rng = np.random.default_rng(74)
    for d in (4, 5):
        t = _flat_block(d, rng.permutation(d), rng.permutation(d))
        assert search_unistochastic_witness(t, OracleConfig(seed=42)) is None


def test_witness_search_reproducible():
    late = np.abs(haar_unitary(4, np.random.default_rng(103))) ** 2
    for t in (_kron_input(0.3, 0.8), late):
        cfg = OracleConfig(seed=42)
        u1 = search_unistochastic_witness(t, cfg)
        u2 = search_unistochastic_witness(t, cfg)
        assert u1 is not None and np.array_equal(u1, u2)
        assert np.abs(np.abs(u1) ** 2 - t).max() < 1e-8
        assert np.abs(u1.conj().T @ u1 - np.eye(4)).max() < 1e-8


def test_witness_search_agrees_with_sequential_reference():
    rng = np.random.default_rng(75)
    late = np.abs(haar_unitary(4, np.random.default_rng(103))) ** 2
    cases = [
        np.full((4, 4), 0.25),
        T_FLAT_OFFDIAG,
        np.eye(5)[:, [3, 0, 4, 1, 2]],
        _kron_input(0.2, 0.6),
        _flat_block(4, rng.permutation(4), rng.permutation(4)),
        late,
    ]
    cfg = OracleConfig(seed=42, restarts=8)
    for t in cases:
        u = search_unistochastic_witness(t, cfg)
        assert (u is None) == (_sequential_search(t, cfg) is None)
        if u is not None:
            assert np.abs(np.abs(u) ** 2 - t).max() < 1e-8


def test_rand_channel_valid():
    rng = np.random.default_rng(71)
    for d in (2, 3):
        ch = rand_channel(d, rng)
        assert ch.dim == d
        assert np.abs(classical_action(ch).sum(axis=0) - 1).max() < 1e-9


def test_thread_env_consistency(monkeypatch):
    cfg = OracleConfig(seed=11)
    base = sample_fixed_action(T_EXAMPLE, 6, cfg)
    monkeypatch.setenv("COHERIFY_THREADS", "3")
    threaded = sample_fixed_action(T_EXAMPLE, 6, cfg)
    for x, y in zip(base, threaded):
        assert np.array_equal(x.jam, y.jam)


def test_maximize_purity_deterministic():
    cfg = OracleConfig(seed=9, restarts=3)
    ch1, p1 = maximize_purity(T_EXAMPLE, cfg)
    ch2, p2 = maximize_purity(T_EXAMPLE, cfg)
    assert p1 == p2
    assert np.array_equal(ch1.jam, ch2.jam)


def test_kraus_cache_thread_safe():
    import threading

    rng = np.random.default_rng(72)
    ch = rand_channel(3, rng)
    results = []

    def grab():
        results.append(ch.kraus)

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    first = results[0]
    for r in results[1:]:
        assert r is first


def test_maximize_purity_inside_bounds_random():
    rng = np.random.default_rng(73)
    for d in (2, 3):
        for i in range(10):
            t = rng.uniform(0, 1, (d, d))
            t /= t.sum(axis=0, keepdims=True)
            lo, up = mu_lower(t), mu_upper(t)
            _, pur = maximize_purity(t, OracleConfig(seed=200 + i, restarts=4))
            assert pur >= float(lo @ lo) - 1e-6
            assert pur <= float(up @ up) + 1e-6
