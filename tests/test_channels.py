import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherify.channels import (
    Channel,
    apply,
    c2_split,
    channel_coherence_2norm,
    channel_coherence_entropic,
    channel_entropy,
    channel_from_kraus,
    channel_purity,
    classical_action,
    classical_action_kraus,
    classical_channel,
    decohere_channel,
    identity_channel,
    kraus_from_channel,
    unitary_channel,
)
from coherify.errors import DimensionMismatch, NotHermitian, NotTracePreserving
from coherify.matcore import eig_hermitian, eigvals_hermitian
from coherify.states import assert_density_matrix, fourier_matrix, spectrum


# the worked 3x3 example and its row-grouped Kraus operators
T_EXAMPLE = np.array([[0.7, 0.2, 0.6], [0.1, 0.6, 0.4], [0.2, 0.2, 0.0]])
K_EXAMPLE = [
    np.array([[np.sqrt(0.7), 0, 0], [0, np.sqrt(0.6), 0], [np.sqrt(0.2), 0, 0]]),
    np.array([[0, 0, np.sqrt(0.6)], [0, 0, np.sqrt(0.4)], [0, np.sqrt(0.2), 0]]),
    np.array([[0, np.sqrt(0.2), 0], [np.sqrt(0.1), 0, 0], [0, 0, 0]]),
]


def rand_channel(d, rng, rank=None):
    from coherify.oracle import rand_channel as rc

    return rc(d, rng, rank)


def test_identity_channel():
    ch = identity_channel(2)
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1.0
    assert np.abs(ch.jam - np.outer(omega, omega.conj()) / 2).max() < 1e-12
    assert abs(channel_purity(ch) - 1.0) < 1e-12


def test_kraus_example_spectrum():
    ch = channel_from_kraus(K_EXAMPLE)
    assert np.abs(spectrum(ch.jam)[:3] - [0.5, 0.4, 0.1]).max() < 1e-12
    assert np.abs(classical_action(ch) - T_EXAMPLE).max() < 1e-12


def test_contract_channel_jam():
    # both basis states sent to the first one
    kraus = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    ch = channel_from_kraus(kraus)
    expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
    assert np.abs(ch.jam - expected).max() < 1e-12


def test_not_trace_preserving():
    with pytest.raises(NotTracePreserving):
        channel_from_kraus([np.eye(2) * 0.5])


def test_kraus_from_channel_identity():
    ops = kraus_from_channel(identity_channel(3))
    assert len(ops) == 1
    assert np.abs(ops[0] - np.eye(3)).max() < 1e-10


def test_kraus_from_channel_depolarizing():
    d = 2
    ch = classical_channel(np.full((d, d), 1.0 / d))
    ops = kraus_from_channel(ch)
    assert len(ops) == 4
    for k in ops:
        assert abs(np.trace(k @ k.conj().T).real - d * 0.25) < 1e-10


def test_kraus_count_capped():
    rng = np.random.default_rng(20)
    kraus = []
    for _ in range(5):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        kraus.append(g)
    # normalize to trace preserving
    s = sum(k.conj().T @ k for k in kraus)
    w, v = np.linalg.eigh(s)
    s_isqrt = (v / np.sqrt(w)) @ v.conj().T
    kraus = [k @ s_isqrt for k in kraus]
    ch = channel_from_kraus(kraus)
    assert len(kraus_from_channel(ch)) <= 4


def test_kraus_orthogonality_and_weights():
    rng = np.random.default_rng(21)
    ch = rand_channel(3, rng)
    ops = kraus_from_channel(ch)
    lam = spectrum(ch.jam)
    for i, ki in enumerate(ops):
        assert abs(np.trace(ki @ ki.conj().T).real - 3 * lam[i]) < 1e-9
        for j, kj in enumerate(ops):
            if i != j:
                assert abs(np.trace(ki.conj().T @ kj)) < 1e-9


def test_roundtrip_random():
    rng = np.random.default_rng(22)
    for d in (2, 3):
        ch = rand_channel(d, rng)
        ch2 = channel_from_kraus(kraus_from_channel(ch))
        assert np.abs(ch2.jam - ch.jam).max() < 1e-8


def test_apply():
    rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    assert np.abs(apply(identity_channel(2), rho) - rho).max() < 1e-12
    dep = classical_channel(np.full((2, 2), 0.5))
    assert np.abs(apply(dep, rho) - np.eye(2) / 2).max() < 1e-12


def test_classical_action_routes():
    rng = np.random.default_rng(23)
    for d in (2, 3):
        ch = rand_channel(d, rng)
        t1 = classical_action(ch)
        t2 = classical_action_kraus(ch.kraus)
        assert np.abs(t1 - t2).max() < 1e-9
        assert np.abs(t1.sum(axis=0) - 1.0).max() < 1e-9
        # diagonal encodes T entrywise
        for i in range(d):
            for j in range(d):
                assert abs(d * ch.jam[i * d + j, i * d + j].real - t1[i, j]) < 1e-10


def test_unitary_classical_action_is_hadamard_square():
    rng = np.random.default_rng(24)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, _ = np.linalg.qr(g)
    ch = unitary_channel(u)
    assert np.abs(classical_action(ch) - np.abs(u) ** 2).max() < 1e-10


def test_decohere_channel():
    rng = np.random.default_rng(25)
    ch = rand_channel(2, rng)
    dec = decohere_channel(ch)
    assert np.abs(dec.jam - np.diag(np.diag(dec.jam))).max() == 0
    assert np.abs(classical_action(dec) - classical_action(ch)).max() < 1e-10
    dec2 = decohere_channel(dec)
    assert np.abs(dec2.jam - dec.jam).max() == 0
    # a unitary decoheres to the classical channel of its transition matrix
    u = fourier_matrix(2)
    dec = decohere_channel(unitary_channel(u))
    expected = classical_channel(np.abs(u) ** 2)
    assert np.abs(dec.jam - expected.jam).max() < 1e-12


def test_entropy_purity_extremes():
    d = 2
    uni = unitary_channel(fourier_matrix(d))
    assert abs(channel_entropy(uni)) < 1e-9
    assert abs(channel_purity(uni) - 1.0) < 1e-12
    dep = classical_channel(np.full((d, d), 1.0 / d))
    assert abs(channel_entropy(dep) - 2 * np.log2(d)) < 1e-10
    assert abs(channel_purity(dep) - 1.0 / d ** 2) < 1e-12
    # contraction to a pure state: gamma = 1/d
    contract = channel_from_kraus(
        [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    )
    assert abs(channel_purity(contract) - 1.0 / d) < 1e-12


def test_coherence_values():
    # identity channel, d=2: C_e = 1 bit, C_2 = 1 - 2/4
    ch = identity_channel(2)
    assert abs(channel_coherence_entropic(ch) - 1.0) < 1e-9
    assert abs(channel_coherence_2norm(ch) - 0.5) < 1e-12
    # Fourier channel, d=2: C_e = 2 bits, C_2 = 3/4
    ch = unitary_channel(fourier_matrix(2))
    assert abs(channel_coherence_entropic(ch) - 2.0) < 1e-9
    assert abs(channel_coherence_2norm(ch) - 0.75) < 1e-12
    # classical channels carry no coherence
    ch = classical_channel(T_EXAMPLE)
    assert channel_coherence_entropic(ch) < 1e-9
    assert channel_coherence_2norm(ch) < 1e-12


def test_c2_split():
    rng = np.random.default_rng(26)
    for d in (2, 3):
        ch = rand_channel(d, rng)
        dpart, cpart = c2_split(ch)
        assert dpart >= 0 and cpart >= 0
        assert abs(dpart + cpart - channel_coherence_2norm(ch)) < 1e-12


def test_single_kraus_iff_unit_purity():
    rng = np.random.default_rng(27)
    for _ in range(5):
        ch = rand_channel(2, rng)
        single = len(kraus_from_channel(ch)) == 1
        assert single == (abs(channel_purity(ch) - 1.0) < 1e-9)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(g)
    assert len(kraus_from_channel(unitary_channel(u))) == 1


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(np.eye(4))  # trace d, not 1
    bad = np.diag([1.0, 0.0, 0.0, 0.0])  # wrong partial trace
    with pytest.raises(ValueError):
        Channel(bad)
    # a valid d = 9 channel, above the 64 x 64 that the eigen helpers accept
    with pytest.raises(DimensionMismatch, match="exceeds supported maximum 64"):
        Channel(np.eye(81) / 81)


def test_channel_from_no_kraus_operators():
    with pytest.raises(DimensionMismatch, match="at least one Kraus operator"):
        channel_from_kraus([])
    with pytest.raises(DimensionMismatch, match="classical action needs at least one Kraus"):
        classical_action_kraus([])


def test_unitary_channel_of_a_non_square_matrix():
    for u in (np.ones((2, 3)), np.zeros((0, 0))):
        with pytest.raises(DimensionMismatch, match="U must be square and non-empty"):
            unitary_channel(u)


def test_classical_channel_checks_t():
    # a non-square T is no longer cut to its first d columns, and a NaN T is
    # named as such, not as a channel without Kraus operators
    with pytest.raises(DimensionMismatch, match="must be square"):
        classical_channel(np.ones((2, 3)) / 2)
    with pytest.raises(ValueError, match="non-finite"):
        classical_channel(np.full((2, 2), np.nan))


def test_positivity_floor_below_a_small_atol():
    # the identity channel's J plus eps (|11><11| - |01><01|): trace
    # preserving, with least eigenvalue -eps on |01>. At atol = 1e-12 the
    # positivity check still allows round-off down to -1e-10.
    omega = np.array([1.0, 0.0, 0.0, 1.0])
    for eps, accepted in ((5e-11, True), (2e-10, False)):
        jam = np.outer(omega, omega) / 2 + eps * np.diag([0.0, -1.0, 0.0, 1.0])
        assert np.linalg.eigvalsh(jam).min() == pytest.approx(-eps, rel=1e-6)
        if accepted:
            assert np.array_equal(Channel(jam, atol=1e-12).jam, jam)
            assert np.array_equal(Channel.from_stack([jam], atol=1e-12)[0].jam, jam)
        else:
            for build in (Channel, lambda j, **kw: Channel.from_stack([j], **kw)):
                with pytest.raises(ValueError, match="not positive semi-definite"):
                    build(jam, atol=1e-12)


def _check_cases():
    """(builder, error type, message) of the shared matrix check."""
    jam = np.eye(4, dtype=complex) / 4
    jam[0, 1] = 0.1   # J[1, 0] stays 0
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = 0.1
    # Hermitian matrices, then deviations 0.1 and 0.3: the first is reported
    stack = np.stack([np.eye(2), rho, rho * 3]).astype(complex)
    # trace preserving, eigenvalue -1/4 on (|00> - |11>) / sqrt(2)
    negative = np.eye(4, dtype=complex) / 4
    negative[0, 3] = negative[3, 0] = 0.5
    herm_j = "J is not Hermitian: max|J - J^dag| = 1.000e-01"
    herm_rho = "rho is not Hermitian: max|rho - rho^dag| = 1.000e-01"
    herm_h = "H is not Hermitian: max|H - H^dag| = 1.000e-01"
    return [
        pytest.param(lambda: Channel(jam), NotHermitian, herm_j, id="Channel"),
        pytest.param(lambda: Channel.from_stack([np.eye(4) / 4, jam]), NotHermitian, herm_j,
                     id="from_stack"),
        pytest.param(lambda: assert_density_matrix(rho), NotHermitian, herm_rho, id="rho"),
        pytest.param(lambda: eig_hermitian(rho), NotHermitian, herm_h, id="eig_hermitian"),
        pytest.param(lambda: eigvals_hermitian(stack), NotHermitian, herm_h,
                     id="eigvals_hermitian"),
        pytest.param(lambda: Channel(negative), ValueError,
                     "J is not positive semi-definite: min eigenvalue -2.500e-01", id="Channel_psd"),
        pytest.param(lambda: assert_density_matrix(np.diag([1.5, -0.5])), ValueError,
                     "rho is not positive semi-definite: min eigenvalue -5.000e-01", id="rho_psd"),
    ]


@pytest.mark.parametrize("build, exc, message", _check_cases())
def test_shared_check_names_the_matrix(build, exc, message):
    # NotHermitian is also a ValueError
    for expected in (exc, ValueError):
        with pytest.raises(expected) as err:
            build()
        assert str(err.value) == message


def test_density_matrix_check_rejects_a_stack():
    with pytest.raises(DimensionMismatch, match=r"rho must be 2-dimensional, got shape \(2, 2, 2\)"):
        assert_density_matrix(np.stack([np.eye(2) / 2] * 2))


def test_from_stack_equals_channel_per_member():
    rng = np.random.default_rng(31)
    for d in (2, 3):
        jams = np.stack([rand_channel(d, rng).jam for _ in range(5)])
        # an anti-Hermitian part below atol, which both routes symmetrize away
        noise = rng.standard_normal(jams.shape) * 1e-9
        jams = jams + 1j * (noise + np.swapaxes(noise, -1, -2))
        channels = Channel.from_stack(jams, atol=1e-6)
        assert len(channels) == len(jams)
        for jam, ch in zip(jams, channels):
            ref = Channel(jam, atol=1e-6)
            assert np.array_equal(ch.jam, ref.jam)
            assert not np.array_equal(ch.jam, jam)
            assert (ch.dim, ch.atol) == (ref.dim, ref.atol)
            assert not ch.jam.flags.writeable
            assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, ref.kraus))
    assert Channel.from_stack(np.zeros((0, 4, 4))) == []


def _bad_members(d):
    """(name, matrix) pairs, each failing one of Channel's checks."""
    n = d * d
    non_hermitian = np.eye(n, dtype=complex) / n
    non_hermitian[0, 1] = 0.1
    # an off-diagonal-block entry: Hermitian and trace preserving, not PSD
    negative = np.eye(n, dtype=complex) / n
    negative[0, d + 1] = negative[d + 1, 0] = 0.5
    wrong_trace = np.zeros((n, n), dtype=complex)
    wrong_trace[0, 0] = 1.0
    return [("non_hermitian", non_hermitian), ("negative_eigenvalue", negative),
            ("wrong_partial_trace", wrong_trace), ("wrong_shape", np.eye(n + 1) / (n + 1))]


@pytest.mark.parametrize("name, bad", _bad_members(3))
def test_from_stack_raises_what_channel_raises_on_the_bad_member(name, bad):
    rng = np.random.default_rng(32)
    members = [rand_channel(3, rng).jam for _ in range(4)]
    with pytest.raises(Exception) as alone:
        Channel(bad)
    if bad.shape == members[0].shape:
        stacks = [np.stack(members[:2] + [bad] + members[2:])]
    else:
        # a ragged list, and a stack whose every member has the wrong shape
        stacks = [members[:2] + [bad] + members[2:], np.stack([bad] * 3)]
    for stack in stacks:
        with pytest.raises(Exception) as stacked:
            Channel.from_stack(stack)
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)


def test_from_stack_rejects_a_single_matrix():
    with pytest.raises(DimensionMismatch):
        Channel.from_stack(np.eye(4) / 4)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.data())
def test_spectrum_is_the_checks_eigenvalues(d, data):
    """Every route to a channel keeps lambda(J) bit for bit as
    states.spectrum(J) computes it, rank-deficient J (clamped round-off
    negatives) included, and the kept spectrum is read-only."""
    rank = data.draw(st.integers(1, d * d), label="rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    jams = np.stack([rand_channel(d, rng, rank).jam for _ in range(3)])
    built = [Channel(jams[0]), channel_from_kraus(rand_channel(d, rng, rank).kraus)]
    built += Channel.from_stack(jams)
    for ch in built:
        assert ch.spectrum.tobytes() == spectrum(ch.jam).tobytes()
        assert ch.spectrum.shape == (d * d,)
        with pytest.raises(ValueError, match="read-only"):
            ch.spectrum[0] = 1.0
