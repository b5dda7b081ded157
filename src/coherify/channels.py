"""Quantum channels as trace-1 Jamiolkowski states.

A channel on d-dimensional states is stored as its Jamiolkowski state
J = (1/d) (Phi x Id)|Omega><Omega| with |Omega> = sum_i |ii>, a d^2 x d^2
density matrix. Composite indices follow (output, input) ordering, so d*J
splits into d x d blocks: diagonal blocks D^i carry the i-th row of the
classical transition matrix T on their diagonal, and block (i, j) holds
<i|Phi(|k><l|)|j> at inner position (k, l).

T is column stochastic (columns sum to one): T_ij = d * <ij|J|ij> is the
probability of the classical transition j -> i.

A Channel keeps the spectrum lambda(J) that its positivity check computes,
so its entropy, its path distribution and a construction's achieved
spectrum read it instead of decomposing J again.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import DimensionMismatch, NotTracePreserving
from .matcore import _positive_spectrum, as_complex_matrix, dag, eig_hermitian, hermitize, partial_trace
from .states import _clamp_round_off, assert_density_matrix, shannon_entropy
from .stochastic import assert_transition_matrix

KRAUS_RANK_TOL = 1e-10


def _checked_jams(jams: np.ndarray, atol: float) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian parts of a (B, d^2, d^2) stack of Jamiolkowski states, and
    their spectra as :func:`states.spectrum` returns them, read-only.

    The checks run in :class:`Channel`'s order, each once on the whole
    stack: shape, matcore's Hermiticity and positivity check (one batched
    eigh, whose eigenvalues become the spectra), and trace preservation. A
    stack with one bad member raises what Channel raises on that member
    alone; the message names the first failing member's value.
    """
    n = jams.shape[-1]
    d = int(round(np.sqrt(n)))
    if jams.shape[1] != n or d * d != n or not n:
        raise DimensionMismatch(f"J must be d^2 x d^2, got {jams.shape[1:]}")
    jams, w = _positive_spectrum(jams, atol, name="J")
    pt_err = np.abs(partial_trace(jams) - np.eye(d) / d).max(axis=(-2, -1), initial=0.0)
    if (pt_err > atol).any():
        raise ValueError(
            f"J violates trace preservation: |Tr_1 J - 1/d| = {pt_err[pt_err > atol][0]:.3e}")
    spectra = _clamp_round_off(w)
    spectra.setflags(write=False)
    return jams, spectra


class Channel:
    """Immutable CPTP map, canonically a trace-1 Jamiolkowski state.

    ``spectrum`` is lambda(J), non-increasing with round-off negatives
    clamped to 0: the eigenvalues the positivity check computed when the
    channel was built, bit for bit ``states.spectrum(ch.jam)``, read-only
    like ``jam``. The Kraus list is cached: either the one a channel was
    built from (:func:`channel_from_kraus`) or extracted lazily from the
    eigenvectors of J on first use.
    """

    def __init__(self, jam, *, atol: float = 1e-9):
        jams, spectra = _checked_jams(as_complex_matrix(jam, "J")[None], atol)
        self._set_jam(jams[0], spectra[0], atol)
        self._kraus = None

    @classmethod
    def from_stack(cls, jams, *, atol: float = 1e-9) -> list["Channel"]:
        """One channel per matrix of a (B, d^2, d^2) stack, each equal to
        ``Channel(jams[i], atol=atol)``, with the checks run once on the
        whole stack."""
        try:
            jams = as_complex_matrix(jams, "J", stack=True)
        except ValueError:
            # members of different shapes: each is checked alone
            return [cls(jam, atol=atol) for jam in jams]
        if jams.ndim != 3:
            raise DimensionMismatch(f"J must be a stack of d^2 x d^2 matrices, got {jams.shape}")
        jams, spectra = _checked_jams(jams, atol)
        channels = []
        for jam, lam in zip(jams, spectra):
            ch = cls.__new__(cls)
            ch._set_jam(jam, lam, atol)
            ch._kraus = None
            channels.append(ch)
        return channels

    def _set_jam(self, jam: np.ndarray, spectrum: np.ndarray, atol: float) -> None:
        self._jam = jam
        self._jam.setflags(write=False)
        self._spectrum = spectrum
        self.dim = int(round(np.sqrt(jam.shape[0])))
        self.atol = atol
        self._kraus_lock = threading.Lock()

    @property
    def jam(self) -> np.ndarray:
        return self._jam

    @property
    def spectrum(self) -> np.ndarray:
        return self._spectrum

    @property
    def kraus(self) -> list[np.ndarray]:
        if self._kraus is None:
            with self._kraus_lock:
                if self._kraus is None:
                    self._kraus = kraus_from_channel(self)
        return self._kraus


def _tp_deviation(kraus) -> float:
    d = kraus[0].shape[0]
    acc = np.zeros((d, d), dtype=np.complex128)
    for k in kraus:
        acc += dag(k) @ k
    return float(np.abs(acc - np.eye(d)).max())


def jam_from_kraus(kraus) -> np.ndarray:
    """J = (1/d) sum_i vec(K_i) vec(K_i)^dag with row-major vec."""
    d = kraus[0].shape[0]
    v = np.stack([np.asarray(k, dtype=np.complex128).reshape(-1) for k in kraus])
    return np.einsum("ia,ib->ab", v, v.conj()) / d


def channel_from_kraus(kraus, *, atol: float = 1e-9) -> Channel:
    """Build a channel from a Kraus list, checking trace preservation."""
    kraus = [as_complex_matrix(k, "K") for k in kraus]
    if not kraus:
        raise DimensionMismatch("a channel needs at least one Kraus operator")
    d = kraus[0].shape[0]
    for k in kraus:
        if k.shape != (d, d):
            raise DimensionMismatch("all Kraus operators must be square with equal dims")
    tp_err = _tp_deviation(kraus)
    if tp_err > atol:
        raise NotTracePreserving(tp_err)
    ch = Channel(jam_from_kraus(kraus), atol=atol)
    ch._kraus = kraus
    return ch


def kraus_from_channel(ch: Channel) -> list[np.ndarray]:
    """Canonical Kraus operators, reshaped from eigenvectors of J.

    Mutually orthogonal, with Tr K_i K_i^dag = d * lambda_i(J); eigenvalues
    at most ``KRAUS_RANK_TOL`` are dropped. Each operator's phase is fixed
    by making its largest-modulus entry real positive.
    """
    d = ch.dim
    w, v = eig_hermitian(ch.jam)
    ops = []
    for lam, vec in zip(w, v.T):
        if lam <= KRAUS_RANK_TOL:
            break
        pivot = vec[np.argmax(np.abs(vec))]
        vec = vec * (abs(pivot) / pivot)
        ops.append(np.sqrt(d * lam) * vec.reshape(d, d))
    return ops


def identity_channel(d: int) -> Channel:
    return channel_from_kraus([np.eye(d, dtype=np.complex128)])


def unitary_channel(u) -> Channel:
    u = as_complex_matrix(u, "U")
    if u.shape[0] != u.shape[1] or not u.size:
        raise DimensionMismatch(f"U must be square and non-empty, got shape {u.shape}")
    err = np.abs(dag(u) @ u - np.eye(u.shape[0])).max()
    if err > 1e-8:
        raise ValueError(f"matrix is not unitary: |U^dag U - 1| = {err:.3e}")
    return channel_from_kraus([u])


def classical_channel(t) -> Channel:
    """Channel with diagonal J: decohere, then act with T on populations."""
    t = assert_transition_matrix(t)
    d = t.shape[0]
    kraus = []
    for i in range(d):
        for j in range(d):
            if t[i, j] > 0:
                k = np.zeros((d, d), dtype=np.complex128)
                k[i, j] = np.sqrt(t[i, j])
                kraus.append(k)
    return channel_from_kraus(kraus)


def apply(ch: Channel, rho) -> np.ndarray:
    """Phi(rho) = sum_i K_i rho K_i^dag."""
    rho = assert_density_matrix(rho)
    if rho.shape[0] != ch.dim:
        raise DimensionMismatch(f"state dim {rho.shape[0]} != channel dim {ch.dim}")
    out = np.zeros_like(rho)
    for k in ch.kraus:
        out += k @ rho @ dag(k)
    return hermitize(out)


def classical_action(ch: Channel) -> np.ndarray:
    """Column-stochastic T with T_ij = d * <ij|J|ij>."""
    d = ch.dim
    t = (ch.dim * np.diag(ch.jam).real).reshape(d, d)
    t = np.maximum(t, 0.0)
    col_err = np.abs(t.sum(axis=0) - 1.0).max()
    if col_err > 10 * max(ch.atol, 1e-9) * d:
        raise ValueError(f"extracted action is not column stochastic: {col_err:.3e}")
    return t


def classical_action_kraus(kraus) -> np.ndarray:
    """Second extraction route: T = sum_i K_i o conj(K_i) (Hadamard products)."""
    kraus = [as_complex_matrix(k, "K") for k in kraus]
    if not kraus:
        raise DimensionMismatch("the classical action needs at least one Kraus operator")
    return sum(np.abs(k) ** 2 for k in kraus)


def decohere_channel(ch: Channel) -> Channel:
    """Zero all off-diagonal entries of J; the classical action is unchanged."""
    return Channel(np.diag(np.diag(ch.jam)), atol=ch.atol)


def channel_entropy(ch: Channel) -> float:
    """S(J) in bits, between 0 (unitary) and 2 log2 d (depolarizing)."""
    return shannon_entropy(ch.spectrum)


def channel_purity(ch: Channel) -> float:
    """gamma(J) = Tr J^2, between 1/d^2 and 1."""
    return float((np.abs(ch.jam) ** 2).sum())


def channel_coherence_entropic(ch: Channel) -> float:
    """C_e = S(vec(T)/d) - S(J), in bits."""
    t = classical_action(ch)
    return max(shannon_entropy(t.reshape(-1) / ch.dim) - channel_entropy(ch), 0.0)


def channel_coherence_2norm(ch: Channel) -> float:
    """C_2 = gamma(J) - Tr(T T^dag)/d^2."""
    t = classical_action(ch)
    return max(channel_purity(ch) - float((t ** 2).sum()) / ch.dim ** 2, 0.0)


def c2_split(ch: Channel) -> tuple[float, float]:
    """Split C_2 into diagonal-block and off-diagonal-block contributions.

    The D part sums |J|^2 over positions ((i,k),(i,l)) with k != l (initial
    coherences feeding final populations); the C part over ((i,k),(j,l)) with
    i != j (anything feeding final coherences). They add up to C_2 exactly.
    """
    d = ch.dim
    j4 = np.abs(ch.jam.reshape(d, d, d, d)) ** 2
    i_idx, k_idx, jj_idx, l_idx = np.indices((d, d, d, d))
    d_mask = (i_idx == jj_idx) & (k_idx != l_idx)
    c_mask = i_idx != jj_idx
    return float(j4[d_mask].sum()), float(j4[c_mask].sum())
