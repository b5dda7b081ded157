import numpy as np
import pytest

from coherify.bounds import (
    coherence_bounds,
    compute_bounds,
    mu_lower,
    mu_upper,
    polygon_report,
    theorem1_bound,
)
from coherify.errors import NotBistochastic
from coherify.states import shannon_entropy, spectrum
from coherify.stochastic import majorizes

T_EXAMPLE = np.array([[0.7, 0.2, 0.6], [0.1, 0.6, 0.4], [0.2, 0.2, 0.0]])
T_FLAT_OFFDIAG = 0.5 * np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])


def rand_stochastic(d, rng):
    t = rng.uniform(0, 1, (d, d))
    return t / t.sum(axis=0, keepdims=True)


def test_mu_upper_worked_example():
    up = mu_upper(T_EXAMPLE)
    assert up.shape == (9,)
    assert np.abs(up[:3] - [0.8, 0.2, 0.0]).max() < 1e-12
    assert np.abs(up[3:]).max() == 0


def test_mu_upper_bistochastic_trivial():
    up = mu_upper(T_FLAT_OFFDIAG)
    assert abs(up[0] - 1.0) < 1e-12
    assert np.abs(up[1:]).max() < 1e-12


def test_mu_upper_all_to_row():
    d = 3
    t = np.zeros((d, d))
    t[0] = 1.0
    up = mu_upper(t)
    assert np.abs(up[:d] - 1.0 / d).max() < 1e-12
    assert np.abs(up[d:]).max() == 0


def test_mu_lower_values():
    lo = mu_lower(T_EXAMPLE)
    assert np.abs(lo[:3] - [0.5, 0.4, 0.1]).max() < 1e-12
    assert abs(mu_lower(np.eye(4))[0] - 1.0) < 1e-12
    d = 4
    lo = mu_lower(np.full((d, d), 1.0 / d))
    assert np.abs(lo[:d] - 1.0 / d).max() < 1e-12


def test_bound_pair_majorization_random():
    rng = np.random.default_rng(50)
    for d in (2, 3, 4):
        for _ in range(200):
            t = rand_stochastic(d, rng)
            assert majorizes(mu_upper(t), mu_lower(t))


def test_coherence_bounds_worked_example():
    (ce_lo, ce_hi), (c2_lo, c2_hi) = coherence_bounds(T_EXAMPLE)
    # independent oracle: entrywise square sum of the example matrix
    tt = float((T_EXAMPLE ** 2).sum())
    assert abs(tt - 1.50) < 1e-12
    assert abs(c2_hi - (0.68 - tt / 9)) < 1e-12
    assert abs(c2_lo - (0.42 - tt / 9)) < 1e-12
    s_t = shannon_entropy(T_EXAMPLE.reshape(-1) / 3)
    assert abs(ce_hi - (s_t - shannon_entropy([0.8, 0.2]))) < 1e-12
    assert abs(ce_lo - (s_t - shannon_entropy([0.5, 0.4, 0.1]))) < 1e-12
    assert ce_lo <= ce_hi and c2_lo <= c2_hi


def test_coherence_bounds_unistochastic_and_permutation():
    w = np.full((3, 3), 1 / 3)
    (ce_lo, ce_hi), _ = coherence_bounds(w)
    assert abs(ce_hi - shannon_entropy(w.reshape(-1) / 3)) < 1e-12
    p = np.eye(3)[:, [1, 2, 0]]
    (ce_lo, ce_hi), _ = coherence_bounds(p)
    assert abs(ce_lo - np.log2(3)) < 1e-12
    assert abs(ce_hi - np.log2(3)) < 1e-12


def test_polygon_flat_offdiagonal():
    rep = polygon_report(T_FLAT_OFFDIAG)
    assert np.abs(rep.majorization_upper[:2] - [0.5, 0.5]).max() < 1e-12
    assert abs(rep.purity_upper - 13 / 18) < 1e-12
    for trip, a in rep.alphas.items():
        assert a == 0.0


def test_polygon_trivial_for_unistochastic():
    rep = polygon_report(np.full((3, 3), 1 / 3))
    assert rep.purity_upper == 1.0
    assert abs(rep.majorization_upper[0] - 1.0) < 1e-12
    assert all(a == 1.0 for a in rep.alphas.values())


def sinkhorn(m):
    """Bistochastic by alternate scaling; zeros stay zero."""
    for _ in range(20000):
        m = m / m.sum(axis=0, keepdims=True)
        m = m / m.sum(axis=1, keepdims=True)
        if np.abs(m.sum(axis=0) - 1.0).max() < 1e-13:
            break
    return m / m.sum(axis=0, keepdims=True)


def polygon_loop(t, alphas):
    """purity_upper and majorization_upper by the defining loops over the
    triples, from the given coefficients {(i, k, l): alpha}."""
    d = t.shape[0]

    def beta(i, k, l, a):
        return float(np.sqrt((t[i, k] - t[i, l]) ** 2 + 4 * a * t[i, k] * t[i, l]))

    deficits = []
    for (i, k, l), a in alphas.items():
        if a < 1.0:
            b = beta(i, k, l, a)
            d1 = 2.0 * t[i, k] * t[i, l] * (1.0 - a) / d ** 2
            d2 = (d - t[i, k] - t[i, l]) * (t[i, k] + t[i, l] - b) / d ** 2
            deficits.append(d1 + d2)
    if not deficits:
        return 1.0, np.eye(d * d)[0]
    mu_sum = 0.0
    for i in range(d):
        row = [(a, trip) for trip, a in alphas.items() if trip[0] == i]
        if row:
            a, (i, k, l) = min(row)
            mu_sum += max(0.5 * (t[i, k] + t[i, l] - beta(i, k, l, a)), 0.0)
    major = np.zeros(d * d)
    major[:2] = 1.0 - mu_sum / d, mu_sum / d
    return 1.0 - max(deficits), major


def alpha_loop(t, i, k, l):
    """The polygon coefficient by its defining loop over j != i."""
    others = sum(np.sqrt(t[j, k] * t[j, l]) for j in range(t.shape[0]) if j != i)
    return float(min(others / np.sqrt(t[i, k] * t[i, l]), 1.0)) ** 2


def test_polygon_report_matches_the_loops():
    rng = np.random.default_rng(55)
    for d in range(3, 9):
        for _ in range(12):
            # a support made of a few permutations has total support, so
            # the scaling converges with its zeros kept
            support = sum(np.eye(d)[rng.permutation(d)] for _ in range(rng.integers(2, d + 1)))
            t = sinkhorn((support > 0) * rng.uniform(0.02, 1.0, (d, d)) ** rng.uniform(1.0, 3.0))
            rep = polygon_report(t)
            triples = [(i, k, l) for i in range(d) for k in range(d) for l in range(k + 1, d)
                       if t[i, k] * t[i, l] > 0.0]
            assert list(rep.alphas) == triples
            for trip, a in rep.alphas.items():
                ref = alpha_loop(t, *trip)
                assert abs(a - ref) <= np.spacing(ref)
            purity, major = polygon_loop(t, rep.alphas)
            assert rep.purity_upper == purity
            assert np.array_equal(rep.majorization_upper, major)


def test_polygon_requires_bistochastic():
    with pytest.raises(NotBistochastic):
        polygon_report(T_EXAMPLE)


def test_theorem1_block_diagonal():
    # with vanishing off-diagonal blocks the spectrum is the union of the
    # block spectra and the rankwise-summed bound still dominates it; the
    # bound value itself is exactly the average of the sorted block spectra
    rng = np.random.default_rng(51)
    d = 3
    blocks = []
    for i in range(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(g @ g.conj().T)
    total = sum(np.trace(b).real for b in blocks)
    jam = np.zeros((d * d, d * d), dtype=complex)
    for i, b in enumerate(blocks):
        jam[i * d:(i + 1) * d, i * d:(i + 1) * d] = b / total
    bound = theorem1_bound(jam)
    lam = spectrum(jam)
    assert majorizes(bound, lam, slack=1e-10)
    expected = np.zeros(d * d)
    for b in blocks:
        expected[:d] += np.sort(np.linalg.eigvalsh(b))[::-1] * d / total
    assert np.abs(bound - expected / d).max() < 1e-10


def test_theorem1_identity_channel():
    from coherify.channels import identity_channel

    jam = identity_channel(3).jam
    bound = theorem1_bound(jam)
    assert abs(bound.sum() - 1.0) < 1e-12
    assert majorizes(bound, spectrum(jam))


def test_theorem1_random_channels():
    from coherify.oracle import rand_channel

    rng = np.random.default_rng(52)
    for _ in range(100):
        ch = rand_channel(3, rng)
        assert majorizes(theorem1_bound(ch.jam), spectrum(ch.jam), slack=1e-9)


def rand_bistochastic(d, rng):
    return sinkhorn(rng.uniform(0.02, 1.0, (d, d)))


def test_compute_bounds_bundle():
    rep = compute_bounds(T_FLAT_OFFDIAG)
    assert rep.polygon is not None
    rep = compute_bounds(T_EXAMPLE)
    assert rep.polygon is None
    assert majorizes(rep.mu_upper, rep.mu_lower)
    # each field is bitwise the standalone function's
    rng = np.random.default_rng(54)
    for d in range(2, 7):
        for t in [rand_stochastic(d, rng) for _ in range(5)] + [
                rand_bistochastic(d, rng) for _ in range(5)]:
            rep = compute_bounds(t)
            assert np.array_equal(rep.mu_upper, mu_upper(t))
            assert np.array_equal(rep.mu_lower, mu_lower(t))
            assert (rep.c_e_range, rep.c_2_range) == coherence_bounds(t)
            if np.abs(t.sum(axis=1) - 1.0).max() > 1e-9:
                assert rep.polygon is None
                continue
            poly = polygon_report(t)
            assert rep.polygon.alphas == poly.alphas
            assert rep.polygon.purity_upper == poly.purity_upper
            assert np.array_equal(rep.polygon.majorization_upper, poly.majorization_upper)


def test_theorem1_bound_of_a_stack_equals_each_matrix():
    from coherify.errors import NotHermitian
    from coherify.oracle import rand_channel

    rng = np.random.default_rng(53)
    for d in (2, 3):
        jams = np.stack([rand_channel(d, rng).jam for _ in range(5)])
        bounds = theorem1_bound(jams)
        assert bounds.shape == (5, d * d)
        for jam, bound in zip(jams, bounds):
            assert np.array_equal(theorem1_bound(jam), bound)
    # a non-Hermitian diagonal block in one member rejects the stack
    jams[2, 0, 1] += 1e-6
    with pytest.raises(NotHermitian):
        theorem1_bound(jams)
