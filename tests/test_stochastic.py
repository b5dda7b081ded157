import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherify.errors import NotUnistochastic, UndefinedAlpha
from coherify.states import fourier_matrix
from coherify.stochastic import (
    alpha,
    assert_transition_matrix,
    classify,
    is_bistochastic,
    majorizes,
    unitary_from_unistochastic,
)

T_FLAT_OFFDIAG = 0.5 * np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])


def rand_bistochastic(d, rng, iters=200):
    m = rng.uniform(0.05, 1.0, (d, d))
    for _ in range(iters):
        m /= m.sum(axis=0, keepdims=True)
        m /= m.sum(axis=1, keepdims=True)
    return m / m.sum(axis=0, keepdims=True)


def witness_ok(u, t, atol=1e-8):
    d = t.shape[0]
    return (
        np.abs(u.conj().T @ u - np.eye(d)).max() <= atol
        and np.abs(np.abs(u) ** 2 - t).max() <= atol
    )


def test_validation():
    with pytest.raises(ValueError):
        assert_transition_matrix(np.array([[0.5, 0.2], [0.4, 0.8]]))
    t = assert_transition_matrix(np.array([[0.3, 0.6], [0.7, 0.4]]))
    assert t.min() >= 0


def test_classify_2x2_bistochastic_is_unistochastic():
    for a in (0.0, 0.3, 0.5, 1.0):
        t = np.array([[a, 1 - a], [1 - a, a]])
        cls = classify(t)
        assert cls.is_bistochastic
        assert cls.unistochastic == "yes"
        assert witness_ok(cls.witness_unitary, t)


def test_classify_flat_offdiagonal_not_unistochastic():
    cls = classify(T_FLAT_OFFDIAG)
    assert cls.is_bistochastic
    assert cls.unistochastic == "no"
    i, k, l = cls.witness_triple
    assert alpha(T_FLAT_OFFDIAG, i, k, l) < 1.0 - 1e-9


def test_classify_van_der_waerden():
    w = np.full((3, 3), 1.0 / 3)
    cls = classify(w)
    assert cls.unistochastic == "yes"
    assert witness_ok(cls.witness_unitary, w)


def test_classify_non_stochastic_and_non_bistochastic():
    cls = classify(np.array([[2.0, 0.0], [-1.0, 1.0]]))
    assert not cls.is_stochastic
    t = np.array([[0.9, 0.9], [0.1, 0.1]])
    cls = classify(t)
    assert cls.is_stochastic and not cls.is_bistochastic
    assert cls.unistochastic == "no"


def test_alpha_values():
    assert alpha(T_FLAT_OFFDIAG, 0, 1, 2) == 0.0
    assert alpha(T_FLAT_OFFDIAG, 1, 0, 2) == 0.0
    assert alpha(T_FLAT_OFFDIAG, 2, 0, 1) == 0.0
    w = np.full((3, 3), 1.0 / 3)
    assert alpha(w, 0, 1, 2) == 1.0  # ratio 2, clamped
    with pytest.raises(UndefinedAlpha):
        alpha(np.eye(3), 0, 0, 1)
    # permutations have no defined triple at all
    p = np.eye(3)[:, [1, 2, 0]]
    for i in range(3):
        for k in range(3):
            for l in range(k + 1, 3):
                with pytest.raises(UndefinedAlpha):
                    alpha(p, i, k, l)


def alpha_loop(t, i, k, l):
    """The polygon coefficient by its defining loop over j != i."""
    others = sum(np.sqrt(t[j, k] * t[j, l]) for j in range(t.shape[0]) if j != i)
    return float(min(others / np.sqrt(t[i, k] * t[i, l]), 1.0)) ** 2


@st.composite
def transition_with_zeros(draw):
    """A d x d transition matrix, d = 2..8, some entries 0 (a column with
    none left gets a 1 on the diagonal)."""
    d = draw(st.integers(2, 8))
    entries = st.one_of(st.just(0.0), st.floats(1e-3, 1e-2), st.floats(1e-2, 1.0))
    t = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
    t += np.diag(t.sum(axis=0) == 0)
    return t / t.sum(axis=0, keepdims=True)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(transition_with_zeros())
def test_alpha_matches_loop_within_one_ulp(t):
    d = t.shape[0]
    for i in range(d):
        for k in range(d):
            for l in range(d):
                if k == l or t[i, k] * t[i, l] == 0.0:
                    with pytest.raises(UndefinedAlpha):
                        alpha(t, i, k, l)
                    continue
                ref, a = alpha_loop(t, i, k, l), alpha(t, i, k, l)
                assert abs(a - ref) <= np.spacing(ref)


def test_classify_returns_the_first_tied_triple():
    # 1 (+) flat off-diagonal 3x3: row 0 has no defined triple, and
    # (1, 2, 3), (2, 1, 3), (3, 1, 2) all have alpha 0
    t = np.eye(4)
    t[1:, 1:] = T_FLAT_OFFDIAG
    triples = [(i, k, l) for i in range(4) for k in range(4) for l in range(k + 1, 4)
               if t[i, k] * t[i, l] > 0.0]
    ref = min((alpha_loop(t, *trip), trip) for trip in triples)
    assert ref == (0.0, (1, 2, 3))
    assert [trip for trip in triples if alpha_loop(t, *trip) == 0.0] == [
        (1, 2, 3), (2, 1, 3), (3, 1, 2)]
    cls = classify(t)
    assert cls.unistochastic == "no"
    assert cls.witness_triple == (1, 2, 3)
    assert all(type(x) is int for x in cls.witness_triple)


def test_witness_permutation_and_fourier():
    p = np.eye(4)[:, [2, 0, 3, 1]]
    u = unitary_from_unistochastic(p)
    assert np.abs(u - p).max() < 1e-12
    for d in (2, 3, 4, 5):
        w = np.full((d, d), 1.0 / d)
        u = unitary_from_unistochastic(w)
        assert witness_ok(u, w)
        assert np.abs(u - fourier_matrix(d)).max() < 1e-12


def test_witness_circulant():
    t = np.array([[0.3, 0.3, 0.4], [0.4, 0.3, 0.3], [0.3, 0.4, 0.3]])
    u = unitary_from_unistochastic(t)
    assert witness_ok(u, t)


def test_witness_rejects_non_unistochastic():
    with pytest.raises(NotUnistochastic):
        unitary_from_unistochastic(T_FLAT_OFFDIAG)
    with pytest.raises(NotUnistochastic):
        unitary_from_unistochastic(np.array([[0.9, 0.9], [0.1, 0.1]]))


def test_witness_polygon_no_runs_no_search(monkeypatch):
    import coherify.oracle

    def fail(*args, **kwargs):
        raise AssertionError("the witness search ran on a polygon 'no'")

    monkeypatch.setattr(coherify.oracle, "search_unistochastic_witness", fail)
    with pytest.raises(NotUnistochastic, match=r"classify says 'no' \(polygon triple \(0, 1, 2\)\)"):
        unitary_from_unistochastic(T_FLAT_OFFDIAG)


def test_classification_soundness_random_d3():
    rng = np.random.default_rng(30)
    n_yes = n_no = 0
    for _ in range(300):
        t = rand_bistochastic(3, rng)
        cls = classify(t)
        if cls.unistochastic == "yes":
            n_yes += 1
            assert witness_ok(cls.witness_unitary, t)
        else:
            n_no += 1
            i, k, l = cls.witness_triple
            # the polygon inequality is strictly violated
            own = np.sqrt(t[i, k] * t[i, l])
            others = sum(np.sqrt(t[j, k] * t[j, l]) for j in range(3) if j != i)
            assert own > others
    assert n_yes > 0 and n_no > 0


def test_majorizes():
    assert majorizes([1, 0, 0], [0.2, 0.5, 0.3])
    assert majorizes([0.8, 0.2, 0], [0.5, 0.4, 0.1])
    assert not majorizes([0.5, 0.5], [0.6, 0.4])
    # zero padding
    assert majorizes([1.0], [0.25, 0.25, 0.25, 0.25])
    with pytest.raises(ValueError):
        majorizes([0.5, 0.2], [1.0, 0.0])


def test_majorizes_reflexive_transitive():
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        r = rng.dirichlet(np.ones(4))
        assert majorizes(p, p)
        if majorizes(p, q) and majorizes(q, r):
            assert majorizes(p, r, slack=1e-9)


def test_is_bistochastic():
    assert is_bistochastic(np.full((3, 3), 1 / 3))
    assert not is_bistochastic(np.array([[0.9, 0.9], [0.1, 0.1]]))


def flat_block(d, perm_rows, perm_cols):
    """Permuted blockdiag(flat off-diagonal 3x3, I_{d-3}): not unistochastic."""
    t = np.eye(d)
    t[:3, :3] = T_FLAT_OFFDIAG
    return t[perm_rows][:, perm_cols]


def test_classify_certifies_no_at_d4_and_d5():
    rng = np.random.default_rng(32)
    for d in (4, 5):
        t = flat_block(d, rng.permutation(d), rng.permutation(d))
        cls = classify(t)
        assert cls.is_bistochastic
        assert cls.unistochastic == "no"
        assert cls.witness_unitary is None
        assert alpha(t, *cls.witness_triple) < 1.0 - 1e-9


def test_classify_d3_degenerate_pattern_falls_back_to_search():
    # 1 (+) a 2x2 block: the triangle construction keeps the block real and
    # fails, so the witness comes from the oracle's witness search
    for a in (0.3, 0.5, 0.9):
        for perm in ([0, 1, 2], [1, 0, 2], [2, 1, 0]):
            t = np.array([[1.0, 0, 0], [0, a, 1 - a], [0, 1 - a, a]])[perm]
            cls = classify(t)
            assert cls.unistochastic == "yes"
            assert witness_ok(cls.witness_unitary, t)


def test_majorizes_on_stacks_equals_each_pair():
    rng = np.random.default_rng(32)
    p = rng.dirichlet(np.ones(3), size=40)
    q = rng.dirichlet(np.ones(4), size=40)
    verdicts = majorizes(p, q)
    assert verdicts.shape == (40,) and verdicts.any() and not verdicts.all()
    for pi, qi, v in zip(p, q, verdicts):
        assert majorizes(pi, qi) == v
    # one vector against a stack, each side zero-padded
    one = majorizes(np.array([0.7, 0.3]), q, slack=1e-3)
    assert np.array_equal(one, [majorizes([0.7, 0.3], qi, slack=1e-3) for qi in q])
    assert type(majorizes(p[0], q[0])) is bool
    # one vector off the simplex rejects the stack
    q[5, 0] += 1e-3
    with pytest.raises(ValueError):
        majorizes(p, q)
