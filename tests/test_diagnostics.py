import numpy as np
import pytest

from coherify.channels import (
    channel_from_kraus,
    channel_purity,
    classical_channel,
    unitary_channel,
)
from coherify.constructions import coherify_contracting, coherify_qubit
from coherify.diagnostics import (
    avg_output_purity,
    diagnostics_report,
    maxmixed_output_purity,
    path_distribution,
    purity_relations,
    unitarity,
)
from coherify.errors import DimensionMismatch
from coherify.oracle import haar_unitarity_mc, haar_unitary, rand_channel
from coherify.states import fourier_matrix, spectrum


def test_path_distribution():
    uni = unitary_channel(fourier_matrix(3))
    assert np.abs(path_distribution(uni) - np.eye(9)[0]).max() < 1e-10
    dep = classical_channel(np.full((2, 2), 0.5))
    assert np.abs(path_distribution(dep) - 0.25).max() < 1e-10
    from coherify.constructions import coherify_c0

    t = np.array([[0.7, 0.2, 0.6], [0.1, 0.6, 0.4], [0.2, 0.2, 0.0]])
    res = coherify_c0(t)
    assert np.abs(path_distribution(res.channel)[:3] - [0.5, 0.4, 0.1]).max() < 1e-10


def test_unitarity_extremes():
    assert abs(unitarity(unitary_channel(fourier_matrix(2))) - 1.0) < 1e-12
    assert abs(unitarity(unitary_channel(fourier_matrix(3))) - 1.0) < 1e-12
    const = coherify_contracting(np.eye(2) / 2).channel
    assert abs(unitarity(const)) < 1e-12
    dep = classical_channel(np.full((2, 2), 0.5))
    assert abs(unitarity(dep)) < 1e-12


def test_avg_output_purity_values():
    assert abs(avg_output_purity(unitary_channel(fourier_matrix(2))) - 1.0) < 1e-12
    const = coherify_contracting(np.diag([0.3, 0.7]).astype(complex)).channel
    assert abs(avg_output_purity(const) - 1.0) < 1e-12
    dep = classical_channel(np.full((2, 2), 0.5))
    assert abs(avg_output_purity(dep) - 0.5) < 1e-12


def test_purity_relations_hold_on_random_channels():
    rng = np.random.default_rng(60)
    for d in (2, 3):
        for _ in range(30):
            ch = rand_channel(d, rng)
            u_upper, out_lower, mm_lower = purity_relations(ch)
            assert unitarity(ch) <= u_upper + 1e-9
            assert avg_output_purity(ch) >= out_lower - 1e-9
            assert maxmixed_output_purity(ch) >= mm_lower - 1e-9
            assert -1e-9 <= unitarity(ch) <= 1 + 1e-9


def test_unital_equalities():
    rng = np.random.default_rng(61)
    for d in (2, 3):
        for _ in range(10):
            us = [haar_unitary(d, rng) for _ in range(3)]
            p = rng.dirichlet(np.ones(3))
            ch = channel_from_kraus([np.sqrt(w) * u for w, u in zip(p, us)])
            u_upper, out_lower, _ = purity_relations(ch)
            assert abs(unitarity(ch) - u_upper) < 1e-9
            assert abs(avg_output_purity(ch) - out_lower) < 1e-9


def test_qubit_optimum_saturates_maxmixed_bound():
    rng = np.random.default_rng(62)
    for _ in range(30):
        a, b = rng.uniform(0, 1, 2)
        t = np.array([[a, 1 - b], [1 - a, b]])
        ch = coherify_qubit(t).channel
        _, _, mm_lower = purity_relations(ch)
        assert abs(maxmixed_output_purity(ch) - mm_lower) < 1e-9


def test_depolarizing_maxmixed_bound_achieved():
    d = 2
    dep = classical_channel(np.full((d, d), 1.0 / d))
    _, _, mm_lower = purity_relations(dep)
    assert abs(mm_lower - 1.0 / d) < 1e-12
    assert abs(maxmixed_output_purity(dep) - 1.0 / d) < 1e-12


def test_variance_identity():
    # unitarity equals the trace of the output variance over Haar inputs,
    # estimated by Monte Carlo through the definition route
    rng = np.random.default_rng(63)
    ch = rand_channel(2, rng)
    est, se = haar_unitarity_mc(ch, 40000, seed=7)
    assert abs(est - unitarity(ch)) <= 4 * se + 1e-3


def test_mc_trivial_cases():
    uni = unitary_channel(fourier_matrix(2))
    est, se = haar_unitarity_mc(uni, 2000, seed=1)
    assert abs(est - 1.0) < 1e-10 and se < 1e-10
    const = coherify_contracting(np.eye(2) / 2).channel
    est, se = haar_unitarity_mc(const, 2000, seed=2)
    assert abs(est) < 1e-10 and se < 1e-10
    with pytest.raises(ValueError, match="samples must be at least 1"):
        haar_unitarity_mc(uni, 0)


def test_report_invariants():
    rng = np.random.default_rng(64)
    ch = rand_channel(3, rng)
    rep = diagnostics_report(ch)
    assert abs(rep.path_distribution.sum() - 1.0) < 1e-9
    assert rep.unitarity <= rep.unitarity_upper_from_purity + 1e-9
    assert rep.avg_output_purity >= rep.output_purity_lower_from_purity - 1e-9
    assert rep.maxmixed_purity_lower == purity_relations(ch)[2]
    assert np.abs(rep.path_distribution - spectrum(ch.jam)).max() < 1e-10
    assert abs(channel_purity(ch) - (np.abs(ch.jam) ** 2).sum()) < 1e-12


def test_qubit_optimum_maximizes_unitarity():
    from coherify.oracle import OracleConfig, sample_fixed_action

    rng = np.random.default_rng(65)
    for trial in range(3):
        a, b = rng.uniform(0.1, 0.9, 2)
        t = np.array([[a, 1 - b], [1 - a, b]])
        u_opt = unitarity(coherify_qubit(t).channel)
        cfg = OracleConfig(seed=300 + trial)
        for smp in sample_fixed_action(t, 300, cfg):
            assert unitarity(smp) <= u_opt + 1e-6


def test_unitarity_needs_d_at_least_2():
    ch = unitary_channel(np.eye(1))
    for f in (unitarity, purity_relations, diagnostics_report,
              lambda c: haar_unitarity_mc(c, 10)):
        with pytest.raises(DimensionMismatch, match="d = 1"):
            f(ch)
