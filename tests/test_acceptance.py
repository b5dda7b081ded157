"""Acceptance criteria, one test per criterion.

Each test enforces its tolerances and runtime budget and prints one
pass line (visible with pytest -s or in the captured output summary).
"""

import itertools
import json
import time

import numpy as np

from coherify.bounds import mu_lower, mu_upper, polygon_report, theorem1_bound
from coherify.channels import (
    apply,
    channel_coherence_entropic,
    channel_from_kraus,
    channel_purity,
    classical_action,
)
from coherify.cli import main
from coherify.constructions import (
    coherify_c0,
    coherify_qubit,
    coherify_qutrit,
    coherify_unistochastic,
    cohering_power_maximizer,
    qubit_extremality_witness,
    qutrit_family_spectrum,
)
from coherify.diagnostics import (
    avg_output_purity,
    maxmixed_output_purity,
    path_distribution,
    purity_relations,
    unitarity,
)
from coherify.oracle import (
    OracleConfig,
    haar_unitarity_mc,
    haar_unitary,
    maximize_purity,
    maximize_purity_many,
    rand_channel,
    sample_fixed_action,
)
from coherify.states import purity, spectrum
from coherify.stochastic import classify, majorizes

T_EXAMPLE = np.array([[0.7, 0.2, 0.6], [0.1, 0.6, 0.4], [0.2, 0.2, 0.0]])
T_FLAT_OFFDIAG = 0.5 * np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: {elapsed:.1f}s"
                f" >= {self.seconds}s"
            )
            print(f"{self.name} PASS ({elapsed:.2f} s)")
        return False


def test_criterion_1_bound_pair():
    with Budget("criterion 1 (bound pair for the worked 3x3 example)", 1.0):
        up, lo = mu_upper(T_EXAMPLE), mu_lower(T_EXAMPLE)
        expected_up = np.array([0.8, 0.2, 0, 0, 0, 0, 0, 0, 0])
        expected_lo = np.array([0.5, 0.4, 0.1, 0, 0, 0, 0, 0, 0])
        assert np.abs(up - expected_up).max() <= 1e-12
        assert np.abs(lo - expected_lo).max() <= 1e-12
        res = coherify_c0(T_EXAMPLE)
        assert np.abs(res.achieved_spectrum - expected_lo).max() <= 1e-9
        assert np.abs(classical_action(res.channel) - T_EXAMPLE).max() <= 1e-12


def test_criterion_2_unistochastic_completeness():
    with Budget("criterion 2 (complete coherification, d <= 5)", 1.0):
        for d in range(2, 6):
            for perm in itertools.permutations(range(d)):
                t = np.eye(d)[:, list(perm)]
                res = coherify_unistochastic(t)
                assert abs(channel_purity(res.channel) - 1.0) <= 1e-9
                ce = channel_coherence_entropic(res.channel)
                assert abs(ce - np.log2(d)) <= 1e-9
            w = np.full((d, d), 1.0 / d)
            res = coherify_unistochastic(w)
            assert abs(channel_purity(res.channel) - 1.0) <= 1e-9
            ce = channel_coherence_entropic(res.channel)
            assert abs(ce - 2 * np.log2(d)) <= 1e-9


def test_criterion_3_qubit_saturation():
    with Budget("criterion 3 (qubit saturation, 10^3 draws)", 120.0):
        rng = np.random.default_rng(2026)
        ts = []
        for _ in range(1000):
            a, b = rng.uniform(0, 1, 2)
            ts.append(np.array([[a, 1 - b], [1 - a, b]]))
        for t in ts:
            res = coherify_qubit(t)
            assert np.abs(res.achieved_spectrum - mu_upper(t)).max() <= 1e-9
            if abs(t[0, 0] - t[1, 1]) > 1e-12:
                assert qubit_extremality_witness(res)
        results = maximize_purity_many(ts, OracleConfig(seed=42, restarts=3))
        for t, (_, pur) in zip(ts, results):
            target = float(mu_upper(t) @ mu_upper(t))
            assert pur >= target - 1e-4
            assert pur <= target + 1e-6


def _draw_qutrit(rng, family, case):
    while True:
        a, b, c = rng.uniform(0, 1, 3)
        if family == "cyclic":
            return np.array([[0, a, b], [c, 0, 1 - b], [1 - c, 1 - a, 0]])
        if family == "single_row":
            if case == "le" and a + b > 1:
                continue
            if case == "ge_big" and (a + b < 1 or (1 - c) < (2 - a - b)):
                continue
            if case == "ge_small" and (a + b < 1 or (1 - c) >= (2 - a - b)):
                continue
            return np.array([[a, b, 0], [0, 0, c], [1 - a, 1 - b, 1 - c]])
        s = a + b + c
        if case == "low" and s > 1:
            continue
        if case == "mid" and not (1 < s < 2):
            continue
        if case == "high" and s < 2:
            continue
        return np.array([[a, b, c], [1 - a, 1 - b, 1 - c], [0, 0, 0]])


def test_criterion_4_qutrit_families():
    cases = [
        ("cyclic", None),
        ("single_row", "le"),
        ("single_row", "ge_big"),
        ("single_row", "ge_small"),
        ("double_row", "low"),
        ("double_row", "mid"),
        ("double_row", "high"),
    ]
    with Budget("criterion 4 (qutrit families, 200 draws per case)", 60.0):
        rng = np.random.default_rng(7)
        for family, case in cases:
            for _ in range(200):
                t = _draw_qutrit(rng, family, case)
                res = coherify_qutrit(t, family)
                assert np.abs(classical_action(res.channel) - t).max() <= 1e-8
                expected = qutrit_family_spectrum(t, family)
                assert np.abs(res.achieved_spectrum - expected).max() <= 1e-8


def test_criterion_5_theorem1_property():
    with Budget("criterion 5 (block-majorization on 10^4 sampled states)", 300.0):
        rng = np.random.default_rng(11)
        violations = 0
        for batch in range(100):
            t = rng.uniform(0, 1, (3, 3))
            t /= t.sum(axis=0, keepdims=True)
            cfg = OracleConfig(seed=1000 + batch)
            for smp in sample_fixed_action(t, 100, cfg):
                lam = spectrum(smp.jam)
                if not majorizes(theorem1_bound(smp.jam), lam, slack=1e-9, sum_atol=1e-5):
                    violations += 1
        assert violations == 0


def _sinkhorn_draws(rng, chunk=4096):
    """3x3 matrices with entries from [0.02, 1), balanced by 200 Sinkhorn
    rounds and then column-normalized, one after another. Drawn and balanced
    a stack at a time, which gives the same bits as one draw at a time."""
    while True:
        m = rng.uniform(0.02, 1.0, (chunk, 3, 3))
        for _ in range(200):
            m /= m.sum(axis=-2, keepdims=True)
            m /= m.sum(axis=-1, keepdims=True)
        yield from m / m.sum(axis=-2, keepdims=True)


def test_sinkhorn_draws_equal_one_draw_at_a_time():
    rng = np.random.default_rng(13)
    draws = _sinkhorn_draws(np.random.default_rng(13), chunk=16)
    for _ in range(40):
        m = rng.uniform(0.02, 1.0, (3, 3))
        for _ in range(200):
            m /= m.sum(axis=0, keepdims=True)
            m /= m.sum(axis=1, keepdims=True)
        assert np.array_equal(next(draws), m / m.sum(axis=0, keepdims=True))


def test_criterion_6_polygon_constraints():
    with Budget("criterion 6 (polygon constraints for bistochastic actions)", 600.0):
        poly = polygon_report(T_FLAT_OFFDIAG)
        expected = np.zeros(9)
        expected[:2] = 0.5
        assert np.abs(poly.majorization_upper - expected).max() <= 1e-12
        _, pur = maximize_purity(T_FLAT_OFFDIAG, OracleConfig(seed=42, restarts=6))
        assert abs(pur - 0.5) <= 1e-3

        draws = _sinkhorn_draws(np.random.default_rng(13))
        checked = 0
        violations = 0
        while checked < 1000:
            t = next(draws)
            cls = classify(t)
            if cls.unistochastic != "no":
                continue
            poly = polygon_report(t)
            cfg = OracleConfig(seed=5000 + checked)
            for smp in sample_fixed_action(t, 2, cfg):
                lam = path_distribution(smp)
                if channel_purity(smp) > poly.purity_upper + 1e-6:
                    violations += 1
                if not majorizes(poly.majorization_upper, lam, slack=1e-6, sum_atol=1e-5):
                    violations += 1
            checked += 1
        assert violations == 0


def test_criterion_7_unitarity_relations():
    with Budget("criterion 7 (unitarity and output-purity relations)", 600.0):
        rng = np.random.default_rng(17)
        for i in range(20):
            d = 2 if i % 2 == 0 else 3
            ch = rand_channel(d, rng, rank=int(rng.integers(1, d * d + 1)))
            est, se = haar_unitarity_mc(ch, 100_000, seed=100 + i)
            assert abs(est - unitarity(ch)) <= 3 * se + 1e-12
            u_upper, out_lower, mm_lower = purity_relations(ch)
            assert unitarity(ch) <= u_upper + 1e-9
            assert avg_output_purity(ch) >= out_lower - 1e-9
            assert maxmixed_output_purity(ch) >= mm_lower - 1e-9
        for i in range(50):
            d = 2 if i % 2 == 0 else 3
            us = [haar_unitary(d, rng) for _ in range(3)]
            p = rng.dirichlet(np.ones(3))
            ch = channel_from_kraus([np.sqrt(w) * u for w, u in zip(p, us)])
            u_upper, out_lower, _ = purity_relations(ch)
            assert abs(unitarity(ch) - u_upper) <= 1e-9
        for _ in range(50):
            a, b = rng.uniform(0, 1, 2)
            ch = coherify_qubit(np.array([[a, 1 - b], [1 - a, b]])).channel
            _, _, mm_lower = purity_relations(ch)
            assert abs(maxmixed_output_purity(ch) - mm_lower) <= 1e-9


def test_criterion_8_cohering_power_maximizer():
    with Budget("criterion 8 (cohering-power maximizer)", 10.0):
        rng = np.random.default_rng(19)
        for i in range(100):
            d = 2 if i % 2 == 0 else 3
            t = rng.uniform(0, 1, (d, d))
            t /= t.sum(axis=0, keepdims=True)
            ch = cohering_power_maximizer(t)
            assert np.abs(classical_action(ch) - t).max() <= 1e-10
            for j in range(d):
                rho = np.zeros((d, d), dtype=complex)
                rho[j, j] = 1.0
                out = apply(ch, rho)
                assert abs(purity(out) - 1.0) <= 1e-10


def test_criterion_9_reproducibility(tmp_path, capsys):
    with Budget("criterion 9 (byte-identical validation reports)", 120.0):
        path = tmp_path / "t.json"
        path.write_text(
            json.dumps(
                {
                    "dim": 3,
                    "kind": "real",
                    "entries": [x for row in T_EXAMPLE for x in row],
                }
            )
        )
        outputs = []
        for _ in range(2):
            code = main(["validate", str(path), "--samples", "50", "--seed", "42"])
            assert code == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]


def test_d4_purity_maximizer():
    with Budget("d = 4 purity maximizer (dense and zero-pattern inputs)", 60.0):
        rng = np.random.default_rng(404)
        dense = rng.uniform(0.02, 1.0, (4, 4))
        sparse = rng.uniform(0.02, 1.0, (4, 4))
        sparse[0, 1] = sparse[2, 3] = 0.0
        for t in (dense, sparse):
            t = t / t.sum(axis=0, keepdims=True)
            ch, pur = maximize_purity(t, OracleConfig(seed=42, restarts=4))
            lo, up = mu_lower(t), mu_upper(t)
            assert float(lo @ lo) - 1e-6 <= pur <= float(up @ up) + 1e-6
            assert np.abs(classical_action(ch) - t).max() <= 1e-6


def test_d5_purity_maximizer():
    with Budget("d = 5 purity maximizer (dense input)", 60.0):
        m = np.random.default_rng(505).uniform(0.02, 1.0, (5, 5))
        t = m / m.sum(axis=0, keepdims=True)
        ch, pur = maximize_purity(t, OracleConfig(seed=42, restarts=4))
        lo, up = mu_lower(t), mu_upper(t)
        assert float(lo @ lo) - 1e-6 <= pur <= float(up @ up) + 1e-6
        assert np.abs(classical_action(ch) - t).max() <= 1e-6


def _check_dense_maximizer(d, seed):
    m = np.random.default_rng(seed).uniform(0.02, 1.0, (d, d))
    t = m / m.sum(axis=0, keepdims=True)
    ch, pur = maximize_purity(t, OracleConfig(seed=42, restarts=4))
    lo, up = mu_lower(t), mu_upper(t)
    assert float(lo @ lo) - 1e-6 <= pur <= float(up @ up) + 1e-6
    assert np.abs(classical_action(ch) - t).max() <= 1e-6


def test_d6_purity_maximizer():
    with Budget("d = 6 purity maximizer (dense input)", 60.0):
        _check_dense_maximizer(6, 406)


def test_d8_purity_maximizer():
    with Budget("d = 8 purity maximizer (dense input)", 60.0):
        _check_dense_maximizer(8, 408)
