"""Transition matrices: stochastic / bistochastic / unistochastic classification.

Transition matrices are column stochastic: T_ij >= 0 and each column sums
to one. A bistochastic T also has unit row sums; it is unistochastic when
T = U o conj(U) entrywise for some unitary U. The boundary between
bistochastic and unistochastic matrices is known in closed form only for
d <= 3, where T is unistochastic exactly when every polygon coefficient
alpha^i_kl equals one. At every d an alpha below one certifies that T is
not unistochastic, since columns k and l of a unitary must be orthogonal;
for d >= 4 with every alpha equal to one only a best-effort numerical
search for a witness is available (see the oracle module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotUnistochastic, UndefinedAlpha
from .matcore import dag
from .states import fourier_matrix

CLASSIFY_ATOL = 1e-9
WITNESS_ATOL = 1e-8


def assert_transition_matrix(t, atol: float = CLASSIFY_ATOL) -> np.ndarray:
    """Validate a column-stochastic matrix; tiny negatives are clamped."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("transition matrix contains non-finite entries")
    if t.min() < -1e-12:
        raise ValueError(f"negative entry {t.min():.3e}")
    t = np.maximum(t, 0.0)
    col_err = np.abs(t.sum(axis=0) - 1.0).max()
    if col_err > atol:
        raise ValueError(f"columns must sum to 1, worst deviation {col_err:.3e}")
    return t


def is_bistochastic(t: np.ndarray, atol: float = CLASSIFY_ATOL) -> bool:
    return bool(np.abs(np.asarray(t).sum(axis=1) - 1.0).max() <= atol)


def alpha(t: np.ndarray, i: int, k: int, l: int) -> float:
    """Polygon coefficient alpha^i_kl in [0, 1] (indices 0-based).

    sqrt(alpha) = min( sum_{j != i} sqrt(T_jk T_jl) / sqrt(T_ik T_il), 1 );
    it caps the fraction of the maximal coherence between columns k and l of
    the diagonal block D^i that trace preservation still allows.
    """
    t = np.asarray(t, dtype=np.float64)
    if k == l:
        raise UndefinedAlpha("alpha requires two distinct column indices")
    own = t[i, k] * t[i, l]
    if own <= 0.0:
        raise UndefinedAlpha(f"T[{i},{k}] * T[{i},{l}] = 0")
    others = sum(np.sqrt(t[j, k] * t[j, l]) for j in range(t.shape[0]) if j != i)
    return float(min(others / np.sqrt(own), 1.0)) ** 2


def defined_triples(t: np.ndarray):
    """All (i, k, l) with k < l and T_ik T_il > 0, in lexicographic order."""
    d = t.shape[0]
    return [
        (i, k, l)
        for i in range(d)
        for k in range(d)
        for l in range(k + 1, d)
        if t[i, k] * t[i, l] > 0.0
    ]


def _sorted_padded(x: np.ndarray, n: int) -> np.ndarray:
    """Each vector of x sorted non-increasingly, zero-padded to length n."""
    out = np.zeros(x.shape[:-1] + (n,))
    out[..., :x.shape[-1]] = np.sort(x, axis=-1)[..., ::-1]
    return out


def majorizes(p, q, slack: float = 1e-10, sum_atol: float = 1e-9):
    """True when sorted partial sums of p dominate those of q.

    Vectors are zero-padded to a common length and must sum to 1 within
    ``sum_atol`` (loosen it when comparing spectra of numerically sampled
    states that are only feasible to a larger tolerance). p and q may also be
    stacks (..., n) of vectors, broadcast against each other; the result is
    then an array of one verdict per pair, and a ValueError is raised when
    any vector fails the sum check.
    """
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    q = np.atleast_1d(np.asarray(q, dtype=np.float64))
    n = max(p.shape[-1], q.shape[-1])
    p, q = _sorted_padded(p, n), _sorted_padded(q, n)
    if (np.abs(p.sum(axis=-1) - 1.0) > sum_atol).any() or (
            np.abs(q.sum(axis=-1) - 1.0) > sum_atol).any():
        raise ValueError("majorization inputs must be probability vectors")
    verdict = np.all(np.cumsum(p, axis=-1) >= np.cumsum(q, axis=-1) - slack, axis=-1)
    return bool(verdict) if verdict.ndim == 0 else verdict


@dataclass(frozen=True)
class StochasticClass:
    """Classification verdict with certificate.

    unistochastic is "yes" (witness_unitary satisfies T = U o conj(U)),
    "no" (not bistochastic, or witness_triple violates the polygon
    inequality; possible at every d), or "unknown" (d >= 4, every polygon
    inequality holds and the witness search came back empty).
    """

    is_stochastic: bool
    is_bistochastic: bool
    unistochastic: str
    witness_unitary: np.ndarray | None = None
    witness_triple: tuple[int, int, int] | None = None


def _verify_witness(u: np.ndarray, t: np.ndarray, atol: float = WITNESS_ATOL) -> bool:
    d = t.shape[0]
    return (
        np.abs(dag(u) @ u - np.eye(d)).max() <= atol
        and np.abs(np.abs(u) ** 2 - t).max() <= atol
    )


def _polar_unitary(a: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def _moduli_polish(u: np.ndarray, t: np.ndarray, rounds: int = 50) -> np.ndarray:
    """Alternate between fixing moduli to sqrt(T) and polar-projecting to U(d)."""
    m = np.sqrt(t)
    for _ in range(rounds):
        absu = np.abs(u)
        phases = np.where(absu > 1e-14, u / np.maximum(absu, 1e-300), 1.0)
        u_new = _polar_unitary(m * phases)
        if np.abs(u_new - u).max() < 1e-13:
            u = u_new
            break
        u = u_new
    return u


def _triangle_phases(l1: float, l2: float, l3: float, sign: int) -> tuple[float, float] | None:
    """Angles (theta2, theta3) with l1 + l2 e^{i theta2} + l3 e^{i theta3} = 0."""
    sides = np.array([l1, l2, l3])
    if np.all(sides < 1e-15):
        return 0.0, 0.0
    # triangle inequality: no side may exceed the sum of the others
    if 2 * sides.max() > sides.sum() + 1e-12:
        return None
    if l3 < 1e-15:
        return np.pi, 0.0
    if l2 < 1e-15:
        return 0.0, np.pi
    if l1 < 1e-15:
        return 0.0, np.pi
    cos2 = np.clip((l3 ** 2 - l1 ** 2 - l2 ** 2) / (2 * l1 * l2), -1.0, 1.0)
    th2 = sign * np.arccos(cos2)
    z3 = -(l1 + l2 * np.exp(1j * th2))
    return float(th2), float(np.angle(z3))


def _witness_d3(t: np.ndarray) -> np.ndarray | None:
    """Phase a sqrt(T)-modulus matrix into a unitary for d = 3.

    The first row and column are kept real non-negative; the remaining 2x2
    block of phases closes the column-orthogonality triangles for column
    pairs (0,1) and (0,2), trying both mirror orientations per pair, and the
    (1,2) pair selects the consistent combination. A short alternating
    moduli/polar polish absorbs round-off.
    """
    m = np.sqrt(t)
    pairs = [(0, 1), (0, 2)]
    options = []
    for (c1, c2) in pairs:
        sides = [m[j, c1] * m[j, c2] for j in range(3)]
        opts = []
        for sign in (+1, -1):
            angles = _triangle_phases(*sides, sign)
            if angles is not None:
                opts.append(angles)
        if not opts:
            return None
        options.append(opts)
    best = None
    for th_b in options[0]:
        for th_c in options[1]:
            phases = np.zeros((3, 3))
            phases[1, 1], phases[2, 1] = th_b
            phases[1, 2], phases[2, 2] = th_c
            u = m * np.exp(1j * phases)
            err = np.abs(dag(u) @ u - np.eye(3)).max()
            if best is None or err < best[0]:
                best = (err, u)
    u = _moduli_polish(best[1], t)
    if _verify_witness(u, t):
        return u
    return None


def unitary_from_unistochastic(t, witness: np.ndarray | None = None) -> np.ndarray:
    """Unitary U with |U_ij|^2 = T_ij, for bistochastic T.

    Closed-form for d <= 2, triangle construction for d = 3 (with the oracle's
    witness search as fallback for degenerate zero patterns). For d >= 4
    a couple of structured candidates (real sqrt(T), Fourier phases) are
    tried; anything beyond that needs a numerically found witness, which can
    be passed in.
    """
    t = assert_transition_matrix(t)
    d = t.shape[0]
    if witness is not None:
        if _verify_witness(np.asarray(witness, dtype=np.complex128), t):
            return np.asarray(witness, dtype=np.complex128)
        raise NotUnistochastic("supplied witness does not realize T")
    if not is_bistochastic(t):
        raise NotUnistochastic("T is not bistochastic")
    # structured candidates first: real orthogonal and Fourier-phased moduli
    m = np.sqrt(t).astype(np.complex128)
    for cand in (m, m * fourier_matrix(d) * np.sqrt(d)):
        if _verify_witness(cand, t):
            return cand
    if d == 1:
        return np.ones((1, 1), dtype=np.complex128)
    if d == 2:
        a = t[0, 0]
        u = np.array([[np.sqrt(a), -np.sqrt(1 - a)], [np.sqrt(1 - a), np.sqrt(a)]], dtype=np.complex128)
        if _verify_witness(u, t):
            return u
        raise NotUnistochastic("2x2 closed form failed verification")
    if d == 3:
        u = _witness_d3(t)
        if u is None:
            from .oracle import search_unistochastic_witness

            u = search_unistochastic_witness(t)
        if u is not None:
            return u
        raise NotUnistochastic("no unitary realizes T (triangle construction failed)")
    raise NotUnistochastic(
        "no closed-form witness for d >= 4; supply one found by the oracle search"
    )


def classify(t, search_cfg=None) -> StochasticClass:
    """Sort a real square matrix into the stochastic / bistochastic / unistochastic taxonomy.

    d = 2 bistochastic matrices are always unistochastic. For d >= 3 one pass
    over the polygon coefficients comes first: a violated polygon inequality
    (some alpha < 1 - 1e-9) is returned as "no" with that triple at every d.
    At d = 3 that decides the question, and a "yes" carries a constructed
    witness. For d >= 4 with every alpha = 1 the structured candidates and
    then the numerical witness search run (search_cfg, an OracleConfig,
    configures it); the verdict is "unknown" when nothing verifies. That
    happens when T is not unistochastic although it meets every polygon
    inequality (the inequalities are necessary, not sufficient, at d >= 4),
    and on unistochastic T where every restart stalls away from a witness:
    with the default config that was the case for none of 100 Haar |U|^2
    inputs at d = 4 and 5, and for 1 of 20 at d = 6; a smaller restarts or
    max_iterations misses more.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {t.shape}")
    stoch = t.min() >= -1e-12 and np.abs(t.sum(axis=0) - 1.0).max() <= CLASSIFY_ATOL
    if not stoch:
        return StochasticClass(False, False, "no")
    t = np.maximum(t, 0.0)
    if not is_bistochastic(t):
        return StochasticClass(True, False, "no")
    d = t.shape[0]
    if d <= 2:
        return StochasticClass(True, True, "yes", witness_unitary=unitary_from_unistochastic(t))
    worst = min(((alpha(t, *trip), trip) for trip in defined_triples(t)), default=None)
    if worst is not None and worst[0] < 1.0 - 1e-9:
        return StochasticClass(True, True, "no", witness_triple=worst[1])
    if d == 3:
        return StochasticClass(True, True, "yes", witness_unitary=unitary_from_unistochastic(t))
    try:
        u = unitary_from_unistochastic(t)
        return StochasticClass(True, True, "yes", witness_unitary=u)
    except NotUnistochastic:
        pass
    from .oracle import OracleConfig, search_unistochastic_witness

    u = search_unistochastic_witness(t, search_cfg or OracleConfig())
    if u is not None:
        return StochasticClass(True, True, "yes", witness_unitary=u)
    return StochasticClass(True, True, "unknown")
