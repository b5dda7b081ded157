"""Property tests: every classify verdict carries a certificate that verifies.

A "yes" carries a unitary U with |U|^2 = T and U^dag U = 1; a "no" on a
bistochastic input carries a triple whose polygon coefficient is below 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coherify.oracle import OracleConfig, haar_unitary
from coherify.stochastic import alpha, classify

T_FLAT_OFFDIAG = 0.5 * np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])
# eight restarts keep the "unknown" outcomes cheap; verdicts must be sound
# whatever the number of restarts
SEARCH = OracleConfig(seed=42, restarts=8)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def sinkhorn(d, seed, skew):
    """Bistochastic by alternate scaling; larger skew spreads the entries."""
    m = np.random.default_rng(seed).uniform(0.02, 1.0, (d, d)) ** skew
    for _ in range(5000):
        m /= m.sum(axis=0, keepdims=True)
        m /= m.sum(axis=1, keepdims=True)
        if np.abs(m.sum(axis=0) - 1.0).max() < 1e-13:
            break
    return m / m.sum(axis=0, keepdims=True)


def bistochastic_2x2(a):
    return np.array([[a, 1 - a], [1 - a, a]])


@st.composite
def sinkhorn_inputs(draw):
    d, seed = draw(st.integers(2, 5)), draw(st.integers(0, 2**32 - 1))
    return sinkhorn(d, seed, draw(st.floats(1.0, 4.0)))


@st.composite
def kron_inputs(draw):
    """Permuted kron of two 2x2 bistochastic matrices: unistochastic."""
    a, b = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    rows, cols = draw(st.permutations(range(4))), draw(st.permutations(range(4)))
    return np.kron(bistochastic_2x2(a), bistochastic_2x2(b))[rows][:, cols]


@st.composite
def haar_inputs(draw):
    """|U|^2 of a Haar unitary: unistochastic."""
    d, seed = draw(st.integers(4, 6)), draw(st.integers(0, 2**32 - 1))
    return np.abs(haar_unitary(d, np.random.default_rng(seed))) ** 2


@st.composite
def flat_block_inputs(draw):
    """Permuted blockdiag(flat off-diagonal 3x3, B): not unistochastic."""
    d = draw(st.integers(3, 5))
    t = np.zeros((d, d))
    t[:3, :3] = T_FLAT_OFFDIAG
    if d == 4:
        t[3, 3] = 1.0
    elif d == 5:
        t[3:, 3:] = draw(st.sampled_from([np.eye(2), bistochastic_2x2(draw(st.floats(0.0, 1.0)))]))
    rows, cols = draw(st.permutations(range(d))), draw(st.permutations(range(d)))
    return t[rows][:, cols]


def assert_certified(t):
    cls = classify(t, search_cfg=SEARCH)
    assert cls.is_bistochastic
    d = t.shape[0]
    if cls.unistochastic == "yes":
        u = cls.witness_unitary
        assert np.abs(np.abs(u) ** 2 - t).max() <= 1e-8
        assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-8
    elif cls.unistochastic == "no":
        assert alpha(t, *cls.witness_triple) < 1.0
    else:
        assert cls.unistochastic == "unknown" and d >= 4
    return cls.unistochastic


@PROPERTY
@given(sinkhorn_inputs())
def test_sinkhorn_verdicts_certified(t):
    assert_certified(t)


@PROPERTY
@given(kron_inputs())
def test_kron_verdicts_certified_and_never_no(t):
    assert assert_certified(t) != "no"


@PROPERTY
@given(haar_inputs())
def test_haar_verdicts_certified_and_never_no(t):
    assert assert_certified(t) != "no"


@PROPERTY
@given(flat_block_inputs())
def test_flat_block_verdicts_are_certified_no(t):
    assert assert_certified(t) == "no"
