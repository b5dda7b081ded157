"""The purity maximizer against constructions with a proven optimum.

A construction that claims optimality and an oracle that searches the whole
feasible set must agree: the oracle returns the purity of a channel it
built, feasible to about 1e-13, so a value above the claimed optimum would
refute the claim, and one far below it would show the oracle weak. The
qubit closed form is checked on 1000 inputs by acceptance criterion 3.
"""

import numpy as np

from coherify.bounds import mu_upper
from coherify.channels import channel_purity
from coherify.constructions import coherify_qutrit
from coherify.oracle import OracleConfig, maximize_purity, maximize_purity_many
from test_acceptance import Budget, _draw_qutrit
from test_oracle import _kron_input

QUTRIT_CASES = [
    ("cyclic", None),
    ("single_row", "le"),
    ("single_row", "ge_big"),
    ("single_row", "ge_small"),
    ("double_row", "low"),
    ("double_row", "mid"),
    ("double_row", "high"),
]


def test_oracle_agrees_with_optimal_constructions():
    with Budget("optimality corpus (qutrit families, complete coherification)", 30.0):
        rng = np.random.default_rng(2024)
        drawn = [
            (_draw_qutrit(rng, family, case), family)
            for family, case in QUTRIT_CASES
            for _ in range(10)
        ]
        results = maximize_purity_many([t for t, _ in drawn], OracleConfig(seed=42, restarts=16))
        for (t, family), (_, pur) in zip(drawn, results):
            assert abs(pur - channel_purity(coherify_qutrit(t, family).channel)) <= 1e-8

        # unistochastic T has a unitary coherification: purity 1
        unistochastic = [
            np.array([[0.3, 0.3, 0.4], [0.4, 0.3, 0.3], [0.3, 0.4, 0.3]]),
            _kron_input(0.3, 0.8),
        ]
        for (_, pur) in maximize_purity_many(unistochastic, OracleConfig(seed=42, restarts=16)):
            assert abs(pur - 1.0) <= 1e-6


def test_oracle_values_are_attained_and_below_the_ceiling():
    # the returned channel meets the affine constraints to 1e-12 and its
    # purity is the value returned, so some channel attains the value; no
    # value passes the proven ceiling |mu_upper|^2 (the 8x8 input did by
    # 2.4e-9 when the last projection stopped at the residual 1e-9)
    with Budget("attained maximizer values, dense d = 2..8", 30.0):
        for d in range(2, 9):
            m = np.random.default_rng(400 + d).uniform(0.02, 1.0, (d, d))
            t = m / m.sum(axis=0, keepdims=True)
            ch, pur = maximize_purity(t, OracleConfig(seed=42, restarts=4))
            j4 = ch.jam.reshape(d, d, d, d)
            assert np.abs(np.einsum("ikik->ik", j4) - t / d).max() <= 1e-12
            assert np.abs(np.einsum("ikil->kl", j4) - np.eye(d) / d).max() <= 1e-12
            assert abs(channel_purity(ch) - pur) <= 1e-12
            assert pur <= float(mu_upper(t) @ mu_upper(t)) + 1e-12, d
