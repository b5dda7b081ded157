"""Transition matrices: stochastic / bistochastic / unistochastic classification.

Transition matrices are column stochastic: T_ij >= 0 and each column sums
to one. A bistochastic T also has unit row sums; it is unistochastic when
T = U o conj(U) entrywise for some unitary U. The boundary between
bistochastic and unistochastic matrices is known in closed form only for
d <= 3, where T is unistochastic exactly when every polygon coefficient
alpha^i_kl equals one. At every d an alpha below one certifies that T is
not unistochastic, since columns k and l of a unitary must be orthogonal;
for d >= 4 with every alpha equal to one only a best-effort numerical
search for a witness is available (see the oracle module). The alphas are
computed in one array pass, _alpha_table, for every reader.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, NotUnistochastic, UndefinedAlpha
from .matcore import dag
from .states import fourier_matrix

CLASSIFY_ATOL = 1e-9
WITNESS_ATOL = 1e-8
# classify remembers this many verdicts, the most recent ones; kept well
# below the 37 distinct inputs of a classify-construct round, so that a
# repeated round computes every verdict afresh
CLASSIFY_MEMO = 8


def assert_transition_matrix(t) -> np.ndarray:
    """Validate a column-stochastic matrix; tiny negatives are clamped."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got shape {t.shape}")
    if t.size == 0:
        raise DimensionMismatch("transition matrix is empty")
    if not np.all(np.isfinite(t)):
        raise ValueError("transition matrix contains non-finite entries")
    if t.min() < -1e-12:
        raise ValueError(f"negative entry {t.min():.3e}")
    t = np.maximum(t, 0.0)
    col_err = np.abs(t.sum(axis=0) - 1.0).max()
    if col_err > CLASSIFY_ATOL:
        raise ValueError(f"columns must sum to 1, worst deviation {col_err:.3e}")
    return t


def is_bistochastic(t: np.ndarray) -> bool:
    return bool(np.abs(np.asarray(t).sum(axis=1) - 1.0).max() <= CLASSIFY_ATOL)


def _alpha_table(t: np.ndarray) -> np.ndarray:
    """alpha^i_kl at [i, k, l] for k < l with T_ik T_il > 0; NaN elsewhere.

    The sum over j != i zeroes the j = i term and adds in the order j = 0, 1, ...
    """
    d = t.shape[0]
    prod = t[:, :, None] * t[:, None, :]  # prod[j, k, l] = T_jk T_jl
    root = np.sqrt(prod)
    others = np.broadcast_to(root, (d, d, d, d)).copy()  # [i, j, k, l]
    others[np.arange(d), np.arange(d)] = 0.0
    defined = np.triu(np.ones((d, d), dtype=bool), 1) & (prod > 0.0)
    ratio = np.divide(others.sum(axis=1), root, out=np.full(prod.shape, np.nan), where=defined)
    return np.minimum(ratio, 1.0) ** 2


def alpha(t: np.ndarray, i: int, k: int, l: int) -> float:
    """Polygon coefficient alpha^i_kl in [0, 1] (indices 0-based).

    sqrt(alpha) = min( sum_{j != i} sqrt(T_jk T_jl) / sqrt(T_ik T_il), 1 );
    it caps the fraction of the maximal coherence between columns k and l of
    the diagonal block D^i that trace preservation still allows. Read from
    _alpha_table; UndefinedAlpha when k == l or T_ik T_il = 0.
    """
    t = np.asarray(t, dtype=np.float64)
    if k == l:
        raise UndefinedAlpha("alpha requires two distinct column indices")
    if t[i, k] * t[i, l] <= 0.0:
        raise UndefinedAlpha(f"T[{i},{k}] * T[{i},{l}] = 0")
    return float(_alpha_table(t)[i, min(k, l), max(k, l)])


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
    inequality; possible at every d), or "unknown" (every polygon
    inequality holds and no rung of the witness ladder verified; at d = 3,
    where the polygon test is exact, this has not been observed).
    """

    is_stochastic: bool
    is_bistochastic: bool
    unistochastic: str
    witness_unitary: np.ndarray | None = None
    witness_triple: tuple[int, int, int] | None = None


def _verify_witness(u: np.ndarray, t: np.ndarray) -> bool:
    d = t.shape[0]
    return (
        np.abs(dag(u) @ u - np.eye(d)).max() <= WITNESS_ATOL
        and np.abs(np.abs(u) ** 2 - t).max() <= WITNESS_ATOL
    )


def _polar_unitary(a: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def _moduli_polish(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Up to 50 rounds of fixing the moduli to sqrt(T), then polar-projecting to U(d)."""
    m = np.sqrt(t)
    for _ in range(50):
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


def _find_witness(t: np.ndarray, search_cfg=None) -> np.ndarray | None:
    """A verified unitary witness for bistochastic T, or None.

    The one ladder, cheapest rung first: the real sqrt(T) and
    Fourier-phased moduli, the 2x2 closed form, the 3x3 triangle
    construction, then for d >= 3 the oracle's numerical search
    (search_cfg, an OracleConfig, configures it).
    """
    d = t.shape[0]
    m = np.sqrt(t).astype(np.complex128)
    for cand in (m, m * fourier_matrix(d) * np.sqrt(d)):
        if _verify_witness(cand, t):
            return cand
    if d == 2:
        a = t[0, 0]
        u = np.array([[np.sqrt(a), -np.sqrt(1 - a)], [np.sqrt(1 - a), np.sqrt(a)]], dtype=np.complex128)
        return u if _verify_witness(u, t) else None
    if d == 3:
        u = _witness_d3(t)
        if u is not None:
            return u
    if d >= 3:
        from .oracle import search_unistochastic_witness

        return search_unistochastic_witness(t, search_cfg)
    return None


def classify(t, search_cfg=None) -> StochasticClass:
    """Sort a real square matrix into the stochastic / bistochastic / unistochastic taxonomy.

    This is the one place that decides whether T is unistochastic. A matrix
    that is not column stochastic, or not bistochastic, is "no". For d >= 3
    one pass over the polygon coefficients comes next: a violated polygon
    inequality (some alpha < 1 - 1e-9) is returned as "no" with that triple
    at every d. Otherwise the witness ladder runs (see _find_witness;
    search_cfg configures its numerical search), and the verdict is "yes"
    with a verified witness, or "unknown" when nothing verifies.

    At d <= 3 the polygon test is exact, so there "unknown" means only that
    the triangle construction and the search both missed a witness that
    exists; that was seen on none of 5,500 3x3 inputs (3,000 Sinkhorn or
    Haar |U|^2 inputs and 2,500 on the polygon boundary: |O|^2 of real
    orthogonal O, and permuted 1 + 2x2 blocks).
    At d >= 4 the inequalities are necessary, not sufficient, so "unknown"
    covers both a T that is not unistochastic and a unistochastic T on
    which every restart stalls away from a witness: with the default
    config the latter was the case for none of 100 Haar |U|^2 inputs at
    d = 4 and 5, and for 1 of 20 at d = 6; fewer restarts miss more.

    The last ``CLASSIFY_MEMO`` (8) verdicts are remembered, keyed by T's
    float64 entries, its shape and memory order, and search_cfg, so that
    coherify_auto or unitary_from_unistochastic right after a classify of
    the same T reuse its verdict instead of searching again. Each call
    returns its own copy of the witness: mutating it, or T, never changes
    a later verdict. A call that raises remembers nothing.
    """
    t = np.asarray(t, dtype=np.float64)  # malformed input raises here, not "no"
    # the checks' sums follow T's memory order, so the memo keeps it
    order = "F" if t.ndim == 2 and abs(t.strides[0]) < abs(t.strides[1]) else "C"
    cls = _classify(t.tobytes(order), t.shape, order, search_cfg)
    if cls.witness_unitary is None:
        return cls
    return replace(cls, witness_unitary=cls.witness_unitary.copy())


@functools.lru_cache(maxsize=CLASSIFY_MEMO)
def _classify(data: bytes, shape: tuple, order: str, search_cfg) -> StochasticClass:
    """classify on the T whose entries, in the given memory order, are data."""
    t = np.frombuffer(data).reshape(shape, order=order)
    try:
        t = assert_transition_matrix(t)
    except ValueError:
        return StochasticClass(False, False, "no")
    if not is_bistochastic(t):
        return StochasticClass(True, False, "no")
    if t.shape[0] >= 3:
        table = _alpha_table(t)
        if (table < 1.0 - 1e-9).any():
            # the least alpha, ties to the first triple in (i, k, l) order
            worst = np.unravel_index(np.nanargmin(table), table.shape)
            return StochasticClass(True, True, "no", witness_triple=tuple(map(int, worst)))
    u = _find_witness(t, search_cfg)
    if u is None:
        return StochasticClass(True, True, "unknown")
    return StochasticClass(True, True, "yes", witness_unitary=u)


def unitary_from_unistochastic(t, witness: np.ndarray | None = None) -> np.ndarray:
    """Unitary U with |U_ij|^2 = T_ij, for unistochastic T.

    A given witness is verified and returned. Otherwise this returns the
    witness of :func:`classify`, so it succeeds exactly when classify says
    "yes"; on "no" or "unknown" it raises NotUnistochastic naming the
    verdict and its reason.
    """
    t = assert_transition_matrix(t)
    if witness is not None:
        if _verify_witness(np.asarray(witness, dtype=np.complex128), t):
            return np.asarray(witness, dtype=np.complex128)
        raise NotUnistochastic("supplied witness does not realize T")
    cls = classify(t)
    if cls.unistochastic == "yes":
        return cls.witness_unitary
    why = "not bistochastic" if not cls.is_bistochastic else (
        f"polygon triple {cls.witness_triple}" if cls.witness_triple is not None
        else "no witness found")
    raise NotUnistochastic(f"classify says {cls.unistochastic!r} ({why})")
