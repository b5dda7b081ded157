
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherify.channels import (
    apply,
    channel_coherence_2norm,
    channel_coherence_entropic,
    channel_entropy,
    channel_from_kraus,
    channel_purity,
    classical_action,
)
from coherify.constructions import (
    coherify_auto,
    coherify_c0,
    coherify_contracting,
    coherify_qubit,
    coherify_qutrit,
    coherify_unistochastic,
    cohering_power_maximizer,
    qubit_extremality_witness,
    qutrit_family_spectrum,
)
from coherify.bounds import mu_lower, mu_upper
from coherify.errors import FamilyMismatch, NotUnistochastic
from coherify.oracle import haar_unitary
from coherify.states import coherify_state, purity, spectrum
from coherify.stochastic import classify, majorizes, unitary_from_unistochastic

T_EXAMPLE = np.array([[0.7, 0.2, 0.6], [0.1, 0.6, 0.4], [0.2, 0.2, 0.0]])
T_FLAT_OFFDIAG = 0.5 * np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])


def qubit_t(a, b):
    return np.array([[a, 1 - b], [1 - a, b]])


# ---------------------------------------------------------------------------
# complete coherification of unistochastic matrices
# ---------------------------------------------------------------------------


def test_unistochastic_identity():
    for d in (2, 3, 4):
        res = coherify_unistochastic(np.eye(d))
        assert res.optimal
        assert abs(channel_purity(res.channel) - 1.0) < 1e-9
        assert abs(channel_coherence_entropic(res.channel) - np.log2(d)) < 1e-9


def test_unistochastic_permutations_c2():
    for d in (2, 3, 4):
        rng = np.random.default_rng(d)
        perm = rng.permutation(d)
        t = np.eye(d)[:, perm]
        res = coherify_unistochastic(t)
        assert abs(channel_coherence_2norm(res.channel) - (d - 1) / d) < 1e-12
        assert np.abs(classical_action(res.channel) - t).max() < 1e-12


def test_unistochastic_flat():
    for d in (2, 3, 5):
        w = np.full((d, d), 1.0 / d)
        res = coherify_unistochastic(w)
        assert abs(channel_purity(res.channel) - 1.0) < 1e-9
        assert abs(channel_coherence_entropic(res.channel) - 2 * np.log2(d)) < 1e-9
        assert np.abs(res.achieved_spectrum[1:]).max() < 1e-9


def test_unistochastic_succeeds_exactly_when_classify_says_yes():
    kron = np.kron([[0.7, 0.3], [0.3, 0.7]], [[0.4, 0.6], [0.6, 0.4]])[[2, 0, 3, 1]]
    haar4 = np.abs(haar_unitary(4, np.random.default_rng(4000))) ** 2
    inputs = [np.eye(1), qubit_t(0.3, 0.3), T_FLAT_OFFDIAG, T_EXAMPLE, kron, haar4]
    verdicts = []
    for t in inputs:
        cls = classify(t)
        verdict = cls.unistochastic
        verdicts.append(verdict)
        if verdict == "yes":
            u = unitary_from_unistochastic(t)
            assert u.tobytes() == cls.witness_unitary.tobytes()
            res = coherify_unistochastic(t)
            assert np.abs(classical_action(res.channel) - t).max() < 1e-9
            assert abs(channel_purity(res.channel) - 1.0) < 1e-9
        else:
            for build in (unitary_from_unistochastic, coherify_unistochastic):
                with pytest.raises(NotUnistochastic, match=f"classify says '{verdict}'"):
                    build(t)
    assert verdicts == ["yes", "yes", "no", "no", "yes", "yes"]


# ---------------------------------------------------------------------------
# the general row-grouping construction
# ---------------------------------------------------------------------------


def test_c0_worked_example():
    res = coherify_c0(T_EXAMPLE)
    assert np.abs(res.achieved_spectrum[:3] - [0.5, 0.4, 0.1]).max() < 1e-9
    assert np.abs(classical_action(res.channel) - T_EXAMPLE).max() < 1e-12
    kraus = res.channel.kraus
    assert len(kraus) == 3
    k1 = np.zeros((3, 3))
    k1[0, 0], k1[1, 1], k1[2, 0] = np.sqrt(0.7), np.sqrt(0.6), np.sqrt(0.2)
    k2 = np.zeros((3, 3))
    k2[0, 2], k2[1, 2], k2[2, 1] = np.sqrt(0.6), np.sqrt(0.4), np.sqrt(0.2)
    k3 = np.zeros((3, 3))
    k3[0, 1], k3[1, 0] = np.sqrt(0.2), np.sqrt(0.1)
    for built, expected in zip(kraus, (k1, k2, k3)):
        assert np.abs(built - expected).max() < 1e-12


def test_c0_identity_and_all_to_row():
    res = coherify_c0(np.eye(3))
    assert len(res.channel.kraus) == 1
    assert np.abs(res.achieved_spectrum[0] - 1.0) < 1e-12
    assert res.optimal
    d = 3
    t = np.zeros((d, d))
    t[0] = 1.0
    res = coherify_c0(t)
    assert len(res.channel.kraus) == d
    assert np.abs(res.achieved_spectrum[:d] - 1.0 / d).max() < 1e-12
    assert res.optimal  # flat spectrum meets the upper bound here


def test_c0_spectrum_is_sorted_row_average():
    rng = np.random.default_rng(40)
    for d in (2, 3, 4):
        for _ in range(20):
            t = rng.uniform(0, 1, (d, d))
            t /= t.sum(axis=0, keepdims=True)
            res = coherify_c0(t)
            # independent oracle: average of descending-sorted rows
            expected = np.sort(t, axis=1)[:, ::-1].sum(axis=0) / d
            assert np.abs(res.achieved_spectrum[:d] - expected).max() < 1e-9
            assert np.abs(res.achieved_spectrum - mu_lower(t)).max() < 1e-9


def _c0_kraus_reference(t):
    """C0's Kraus list one operator and one row at a time: operator n keeps
    the square root of each row's n-th largest entry, ties to the smaller
    column, and all-zero operators are dropped."""
    d = t.shape[0]
    kraus = []
    for n in range(d):
        k = np.zeros((d, d), dtype=np.complex128)
        for i in range(d):
            c = sorted(range(d), key=lambda col: (-t[i, col], col))[n]
            if t[i, c] > 0:
                k[i, c] = np.sqrt(t[i, c])
        if np.any(k != 0):
            kraus.append(k)
    return kraus


def test_c0_kraus_equal_the_loop_reference():
    # entries from a few values, so rows tie often, and zeros
    rng = np.random.default_rng(41)
    for i in range(140):
        d = 2 + i % 7
        t = rng.choice([0.0, 0.1, 0.25, 0.5], size=(d, d)) if i % 2 else rng.uniform(0, 1, (d, d))
        t += np.diag(t.sum(axis=0) == 0)
        t /= t.sum(axis=0, keepdims=True)
        kraus, ref = coherify_c0(t).channel.kraus, _c0_kraus_reference(t)
        assert len(kraus) == len(ref)
        assert all(np.array_equal(k, r) for k, r in zip(kraus, ref))


# ---------------------------------------------------------------------------
# qubit optimum
# ---------------------------------------------------------------------------


def test_qubit_bistochastic_gives_unitary():
    res = coherify_qubit(qubit_t(0.3, 0.3))
    assert abs(channel_purity(res.channel) - 1.0) < 1e-9
    assert np.abs(res.achieved_spectrum - [1, 0, 0, 0]).max() < 1e-9


def test_qubit_worked_example():
    res = coherify_qubit(qubit_t(1 / 3, 5 / 6))
    assert np.abs(res.achieved_spectrum - [0.75, 0.25, 0, 0]).max() < 1e-9
    assert res.optimal


def test_qubit_degenerate_all_to_state():
    res = coherify_qubit(qubit_t(0.0, 1.0))
    assert np.abs(res.achieved_spectrum - [0.5, 0.5, 0, 0]).max() < 1e-9
    rho = apply(res.channel, np.diag([0.5, 0.5]).astype(complex))
    assert abs(rho[1, 1].real - 1.0) < 1e-9
    # mirrored matrix: everything lands on the first state
    res = coherify_qubit(qubit_t(1.0, 0.0))
    assert np.abs(res.achieved_spectrum - [0.5, 0.5, 0, 0]).max() < 1e-9


def test_qubit_saturates_upper_bound_random():
    rng = np.random.default_rng(41)
    for _ in range(200):
        a, b = rng.uniform(0, 1, 2)
        t = qubit_t(a, b)
        res = coherify_qubit(t)
        assert np.abs(res.achieved_spectrum - mu_upper(t)).max() < 1e-9
        assert np.abs(classical_action(res.channel) - t).max() < 1e-9


def test_qubit_sends_a_pure_state_to_a_pure_state():
    a, b = 1 / 3, 5 / 6
    res = coherify_qubit(qubit_t(a, b))
    s = a + 1 - b
    u = np.array([[np.sqrt(a), -np.sqrt(1 - b)], [np.sqrt(1 - b), np.sqrt(a)]]) / np.sqrt(s)
    psi = u[:, 1]
    out = apply(res.channel, np.outer(psi, psi.conj()))
    assert abs(purity(out) - 1.0) < 1e-9


def test_extremality_witness():
    res = coherify_qubit(qubit_t(0.4, 0.4))
    assert qubit_extremality_witness(res)
    res = coherify_qubit(qubit_t(1 / 3, 5 / 6))
    assert qubit_extremality_witness(res)
    rng = np.random.default_rng(42)
    for _ in range(50):
        a, b = rng.uniform(0, 1, 2)
        assert qubit_extremality_witness(coherify_qubit(qubit_t(a, b)))
    # a mixture of two unitaries with the same classical action is not extremal
    mix = channel_from_kraus(
        [np.eye(2) / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)]
    )
    assert not qubit_extremality_witness(mix)


# ---------------------------------------------------------------------------
# qutrit families
# ---------------------------------------------------------------------------


def draw_cyclic(rng):
    a, b, c = rng.uniform(0, 1, 3)
    return np.array([[0, a, b], [c, 0, 1 - b], [1 - c, 1 - a, 0]])


def draw_single(rng, branch):
    while True:
        a, b, c = rng.uniform(0, 1, 3)
        if branch == "le" and a + b > 1:
            continue
        if branch == "ge_big" and (a + b < 1 or (1 - c) < (2 - a - b)):
            continue
        if branch == "ge_small" and (a + b < 1 or (1 - c) >= (2 - a - b)):
            continue
        return np.array([[a, b, 0], [0, 0, c], [1 - a, 1 - b, 1 - c]])


def draw_double(rng, srange):
    while True:
        a, b, c = rng.uniform(0, 1, 3)
        s = a + b + c
        if srange == "low" and s <= 1:
            break
        if srange == "mid" and 1 < s < 2:
            break
        if srange == "high" and s >= 2:
            break
    return np.array([[a, b, c], [1 - a, 1 - b, 1 - c], [0, 0, 0]])


@pytest.mark.parametrize(
    "family,draw",
    [
        ("cyclic", draw_cyclic),
        ("single_row", lambda rng: draw_single(rng, "le")),
        ("single_row", lambda rng: draw_single(rng, "ge_big")),
        ("single_row", lambda rng: draw_single(rng, "ge_small")),
        ("double_row", lambda rng: draw_double(rng, "low")),
        ("double_row", lambda rng: draw_double(rng, "mid")),
        ("double_row", lambda rng: draw_double(rng, "high")),
    ],
)
def test_qutrit_families_random(family, draw):
    rng = np.random.default_rng(43)
    for _ in range(30):
        t = draw(rng)
        res = coherify_qutrit(t, family)
        assert np.abs(classical_action(res.channel) - t).max() < 1e-8
        expected = qutrit_family_spectrum(t, family)
        assert np.abs(res.achieved_spectrum - expected).max() < 1e-8
        assert res.optimal


def test_qutrit_known_values():
    res = coherify_qutrit(T_FLAT_OFFDIAG, "cyclic")
    assert np.abs(res.achieved_spectrum[:2] - [0.5, 0.5]).max() < 1e-9
    # constant optimal spectrum for a + b >= 1 + c with 1-c >= 2-a-b
    rng = np.random.default_rng(44)
    for _ in range(20):
        t = draw_single(rng, "ge_big")
        a, b, c = t[0, 0], t[0, 1], t[1, 2]
        if a + b >= 1 + c:
            res = coherify_qutrit(t, "single_row")
            assert np.abs(res.achieved_spectrum[:2] - [2 / 3, 1 / 3]).max() < 1e-9
    t = draw_double(rng, "mid")
    res = coherify_qutrit(t, "double_row")
    assert np.abs(res.achieved_spectrum[:2] - [2 / 3, 1 / 3]).max() < 1e-9


def test_qutrit_family_mismatch():
    with pytest.raises(FamilyMismatch):
        coherify_qutrit(T_EXAMPLE, "cyclic")
    with pytest.raises(FamilyMismatch):
        coherify_qutrit(T_FLAT_OFFDIAG, "double_row")


# ---------------------------------------------------------------------------
# contracting channels and the cohering-power maximizer
# ---------------------------------------------------------------------------


def test_contracting_pure_and_mixed():
    # a pure sigma is reproduced up to phases: zero entropy gain
    pure = coherify_state([0.3, 0.7], phases=[0.2, 1.3])
    res = coherify_contracting(pure)
    assert abs(channel_entropy(res.channel) - np.log2(2)) < 1e-9
    assert np.abs(apply(res.channel, np.eye(2) / 2) - coherify_state([0.3, 0.7])).max() < 1e-9
    # entropic gain over the uncoherified contraction equals S(sigma)
    sigma = np.diag([0.75, 0.25]).astype(complex)
    res = coherify_contracting(sigma)
    uncoh = channel_from_kraus(
        [
            np.sqrt(0.75) * np.array([[1, 0], [0, 0]]),
            np.sqrt(0.75) * np.array([[0, 1], [0, 0]]),
            np.sqrt(0.25) * np.array([[0, 0], [1, 0]]),
            np.sqrt(0.25) * np.array([[0, 0], [0, 1]]),
        ]
    )
    gain = channel_coherence_entropic(res.channel) - channel_coherence_entropic(uncoh)
    s_sigma = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
    assert abs(gain - s_sigma) < 1e-9
    assert not res.optimal
    # every input collapses to the coherified pure state
    rho_out = apply(res.channel, np.eye(2) / 2)
    assert np.abs(rho_out - coherify_state([0.75, 0.25])).max() < 1e-9


def test_contracting_maximally_mixed_not_optimal():
    d = 3
    res = coherify_contracting(np.eye(d) / d)
    gain_reference = np.log2(d)
    assert abs(channel_entropy(res.channel) - np.log2(d)) < 1e-9
    assert not res.optimal
    uni = coherify_unistochastic(np.full((d, d), 1.0 / d))
    assert channel_coherence_entropic(uni.channel) > channel_coherence_entropic(
        res.channel
    ) + gain_reference - 1e-9


def test_contracting_basis_pure_is_optimal():
    res = coherify_contracting(np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert res.optimal
    assert np.abs(res.achieved_spectrum[:3] - 1 / 3).max() < 1e-9


def test_cohering_power_maximizer():
    # flat action, d=2: constant output |+><+|
    ch = cohering_power_maximizer(np.full((2, 2), 0.5))
    plus = coherify_state([0.5, 0.5])
    for basis_state in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        assert np.abs(apply(ch, basis_state.astype(complex)) - plus).max() < 1e-10
    # identity action: basis states fixed
    ch = cohering_power_maximizer(np.eye(3))
    rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
    assert np.abs(apply(ch, rho) - rho).max() < 1e-10
    # worked example: columns become amplitudes of pure outputs
    ch = cohering_power_maximizer(T_EXAMPLE)
    assert np.abs(classical_action(ch) - T_EXAMPLE).max() < 1e-10
    for j in range(3):
        rho = np.zeros((3, 3), dtype=complex)
        rho[j, j] = 1.0
        out = apply(ch, rho)
        assert abs(purity(out) - 1.0) < 1e-10
        assert np.abs(np.diag(out).real - T_EXAMPLE[:, j]).max() < 1e-10
    # only population-to-coherence entries appear off the diagonal of J
    d = 3
    j4 = ch.jam.reshape(d, d, d, d)
    for i in range(d):
        for jj in range(d):
            for k in range(d):
                for l in range(d):
                    if k != l:
                        assert abs(j4[i, k, jj, l]) < 1e-12


def test_auto_dispatch():
    assert coherify_auto(np.full((3, 3), 1 / 3)).method == "unistochastic"
    assert coherify_auto(qubit_t(0.2, 0.7)).method == "qubit_optimal"
    assert coherify_auto(draw_cyclic(np.random.default_rng(5))).method == "qutrit_cyclic"
    assert coherify_auto(T_EXAMPLE).method == "c0"


# ---------------------------------------------------------------------------
# properties every construction has
# ---------------------------------------------------------------------------

_unit = st.floats(0.0, 1.0)


@st.composite
def _stochastic(draw):
    """A column-stochastic d x d matrix, d = 2..4, some entries possibly 0."""
    d = draw(st.integers(2, 4))
    entries = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    t = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
    t += np.diag(t.sum(axis=0) == 0)
    return t / t.sum(axis=0, keepdims=True)


@st.composite
def _qutrit_family(draw):
    """A family name and a 3x3 matrix with that family's zero pattern."""
    family = draw(st.sampled_from(["cyclic", "single_row", "double_row"]))
    a, b, c = (draw(_unit) for _ in range(3))
    if family == "cyclic":
        t = np.array([[0, b, c], [a, 0, 1 - c], [1 - a, 1 - b, 0]])
    elif family == "single_row":
        t = np.array([[a, b, 0], [0, 0, c], [1 - a, 1 - b, 1 - c]])
    else:
        t = np.array([[a, b, c], [1 - a, 1 - b, 1 - c], [0, 0, 0]])
    return family, t


def _check_construction(res, t):
    """CPTP, T's classical action to 1e-10, and a spectrum mu_upper(T) majorizes."""
    ch = res.channel
    d = t.shape[0]
    jam = ch.jam
    assert np.abs(jam - jam.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(jam).min() >= -1e-10
    tr_out = jam.reshape(d, d, d, d).trace(axis1=0, axis2=2)
    assert np.abs(tr_out - np.eye(d) / d).max() <= 1e-10
    tp = sum(k.conj().T @ k for k in ch.kraus)
    assert np.abs(tp - np.eye(d)).max() <= 1e-10
    assert np.abs(classical_action(ch) - t).max() <= 1e-10
    assert majorizes(mu_upper(t), spectrum(jam), slack=1e-10)


_PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@_PROPERTY_SETTINGS
@given(_stochastic())
def test_c0_and_auto_properties(t):
    _check_construction(coherify_c0(t), t)
    _check_construction(coherify_auto(t), t)


@_PROPERTY_SETTINGS
@given(_unit, _unit)
def test_qubit_properties(a, b):
    t = qubit_t(a, b)
    _check_construction(coherify_qubit(t), t)
    _check_construction(coherify_auto(t), t)


@_PROPERTY_SETTINGS
@given(_qutrit_family())
def test_qutrit_family_properties(case):
    family, t = case
    _check_construction(coherify_qutrit(t, family), t)
    _check_construction(coherify_auto(t), t)


# the permuted kron of two 2x2 bistochastic matrices that the d = 4 witness
# search has to find (kron_d4 of bench/bench_witness.py)
KRON_D4 = np.array([
    [0.20032168253710653, 0.2628781365145263, 0.12919370427821605, 0.40760647667015126],
    [0.2628781365145263, 0.2003216825371065, 0.40760647667015126, 0.12919370427821603],
    [0.12919370427821605, 0.40760647667015126, 0.20032168253710653, 0.2628781365145263],
    [0.40760647667015126, 0.12919370427821603, 0.2628781365145263, 0.2003216825371065],
])


def test_coherify_auto_reuses_the_verdict_of_classify(monkeypatch):
    import coherify.oracle as oracle
    import coherify.stochastic as stochastic

    search, calls = oracle.search_unistochastic_witness, []

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    stochastic._classify.cache_clear()
    monkeypatch.setattr(oracle, "search_unistochastic_witness", counted)
    cls = classify(KRON_D4)
    res = coherify_auto(KRON_D4)
    assert len(calls) == 1
    assert cls.unistochastic == "yes" and res.method == "unistochastic" and res.optimal
    assert [k.tobytes() for k in res.channel.kraus] == [cls.witness_unitary.tobytes()]
    assert np.abs(classical_action(res.channel) - KRON_D4).max() < 1e-9
    unitary_from_unistochastic(KRON_D4)
    assert len(calls) == 1
