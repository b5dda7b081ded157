"""Constructive coherifications: channels with a prescribed classical action
and provably large (often maximal) coherence.

Every constructor returns a CoherificationResult whose channel reproduces the
input transition matrix (up to round-off) and whose achieved spectrum is the
eigenvalue vector of the Jamiolkowski state. The ``optimal`` flag is set only
where optimality is proven for the input class: unistochastic matrices
(complete coherification to a unitary), all 2x2 matrices, and the three
solved 3x3 zero-pattern families.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bounds import _mu_lower, _mu_upper, mu_upper
from .channels import Channel, channel_from_kraus, unitary_channel
from .errors import DimensionMismatch, FamilyMismatch
from .states import assert_density_matrix
from .stochastic import CLASSIFY_ATOL, assert_transition_matrix, classify, unitary_from_unistochastic

QUTRIT_FAMILIES = ("cyclic", "single_row", "double_row")

_FAMILY_ZEROS = {
    "cyclic": [(0, 0), (1, 1), (2, 2)],
    "single_row": [(0, 2), (1, 0), (1, 1)],
    "double_row": [(2, 0), (2, 1), (2, 2)],
}


@dataclass(frozen=True)
class CoherificationResult:
    channel: Channel
    achieved_spectrum: np.ndarray
    method: str
    optimal: bool


def _result(channel: Channel, method: str, optimal: bool) -> CoherificationResult:
    return CoherificationResult(
        channel=channel,
        achieved_spectrum=channel.spectrum,
        method=method,
        optimal=optimal,
    )


def _sqrt(x: float) -> float:
    """Square root forgiving of round-off negatives."""
    return float(np.sqrt(max(x, 0.0)))


def coherify_unistochastic(t, witness=None) -> CoherificationResult:
    """Complete coherification: a unitary channel realizing a unistochastic T.

    A given witness is verified; otherwise :func:`classify` supplies one, so
    this succeeds exactly when classify says "yes".
    """
    return _result(unitary_channel(unitary_from_unistochastic(t, witness)), "unistochastic",
                   optimal=True)


def coherify_c0(t) -> CoherificationResult:
    """Rank-reducing coherification that works for every transition matrix.

    The n-th Kraus operator keeps, in every row of T, only the n-th largest
    entry (ties resolved toward smaller column index), replaced by its square
    root. At most d operators survive and the spectrum is the average of the
    sorted rows of T. Flagged optimal only when that meets the upper bound or
    when T is a cyclic 3x3 matrix.
    """
    t = assert_transition_matrix(t)
    d = t.shape[0]
    # cols[i, n]: the column of row i's n-th largest entry, ties to the smaller
    cols = np.argsort(-t, axis=1, kind="stable")
    rows = np.arange(d)[:, None]
    kraus = np.zeros((d, d, d), dtype=np.complex128)
    kraus[np.arange(d), rows, cols] = np.sqrt(t[rows, cols])
    ch = channel_from_kraus([k for k in kraus if np.any(k != 0)])
    optimal = bool(np.abs(_mu_lower(t) - _mu_upper(t)).max() <= 1e-9) or _matches_family(
        t, "cyclic"
    )
    return _result(ch, "c0", optimal=optimal)


def coherify_qubit(t) -> CoherificationResult:
    """Optimal coherification of any one-qubit classical action.

    For T = [[a, 1-b], [1-a, b]] with a <= b the channel factors as a decay
    after a basis rotation; its spectrum (1/2)[1 + a + (1-b), b - a] saturates
    the majorization upper bound. The a > b case is handled by relabelling
    both basis states (conjugation with the swap).
    """
    t = assert_transition_matrix(t)
    if t.shape[0] != 2:
        raise DimensionMismatch(f"qubit construction needs d = 2, got {t.shape[0]}")
    a, b = t[0, 0], t[1, 1]
    flip = a > b
    if flip:
        a, b = b, a
    bt = 1.0 - b
    s = a + bt
    c = max(b - a, 0.0)
    if s < 1e-14:
        # all-to-second-state limit, where the rotation degenerates to the identity
        kraus = [
            np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128),
            np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128),
        ]
    else:
        u = np.array([[_sqrt(a), -_sqrt(bt)], [_sqrt(bt), _sqrt(a)]]) / np.sqrt(s)
        l1 = np.array([[np.sqrt(s), 0.0], [0.0, 1.0]])
        kraus = [(l1 @ u.T).astype(np.complex128)]
        if c > 0:
            l2 = np.array([[0.0, 0.0], [np.sqrt(c), 0.0]])
            kraus.append((l2 @ u.T).astype(np.complex128))
    if flip:
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        kraus = [p @ k @ p for k in kraus]
    return _result(channel_from_kraus(kraus), "qubit_optimal", optimal=True)


def qubit_extremality_witness(result) -> bool:
    """Choi extremality check: {K_i^dag K_j} linearly independent.

    Works on the channel's (minimal) Kraus list; the rank of the Gram matrix
    of the flattened products is compared against its size at threshold 1e-9.
    """
    ch = getattr(result, "channel", result)
    kraus = ch.kraus
    prods = [k1.conj().T @ k2 for k1 in kraus for k2 in kraus]
    flat = np.stack([p.reshape(-1) for p in prods])
    gram = flat @ flat.conj().T
    rank = int((np.linalg.eigvalsh(gram) > 1e-9).sum())
    return rank == len(prods)


def _matches_family(t: np.ndarray, family: str) -> bool:
    if t.shape[0] != 3:
        return False
    return all(abs(t[i, j]) <= CLASSIFY_ATOL for (i, j) in _FAMILY_ZEROS[family])


def _check_pattern(t: np.ndarray, family: str) -> None:
    for (i, j) in _FAMILY_ZEROS[family]:
        if abs(t[i, j]) > CLASSIFY_ATOL:
            raise FamilyMismatch(f"{family} family requires T[{i},{j}] = 0, got {t[i, j]:.3e}")


def _complete_columns(cols: dict[int, np.ndarray]) -> np.ndarray:
    """Real orthogonal 3x3 matrix with the given columns, Gram-Schmidt for the rest."""
    u = np.zeros((3, 3))
    for idx, v in cols.items():
        u[:, idx] = v
    for idx in range(3):
        if idx in cols:
            continue
        for cand in np.eye(3):
            v = cand.copy()
            for j in range(3):
                if np.any(u[:, j] != 0):
                    v -= (u[:, j] @ v) * u[:, j]
            n = np.linalg.norm(v)
            if n > 1e-7:
                u[:, idx] = v / n
                break
    return u


def _qutrit_single_row(t: np.ndarray) -> list[np.ndarray]:
    _check_pattern(t, "single_row")
    a, b = t[0, 0], t[0, 1]
    c = t[1, 2]
    at, bt, ct = t[2, 0], t[2, 1], t[2, 2]  # complements 1-a, 1-b, 1-c
    if a + b <= 1.0:
        s = a + b
        if s > 1e-14:
            cols = {
                0: np.array([np.sqrt(a / s), np.sqrt(b / s), 0.0]),
                1: np.array([np.sqrt(b / s), -np.sqrt(a / s), 0.0]),
                2: np.array([0.0, 0.0, 1.0]),
            }
        else:
            cols = {2: np.array([0.0, 0.0, 1.0])}
        u = _complete_columns(cols)
        m1 = np.array([[np.sqrt(s), 0, 0], [0, 0, np.sqrt(c)], [0, 1.0, 0]])
        m2 = np.zeros((3, 3))
        m2[2, 0] = _sqrt(at - b)
        m3 = np.zeros((3, 3))
        m3[2, 2] = np.sqrt(ct)
        mats = [m1, m2, m3]
    else:
        s = at + bt  # 2 - a - b
        if s > 1e-14:
            cols = {
                0: np.array([np.sqrt(bt / s), np.sqrt(at / s), 0.0]),
                1: np.array([np.sqrt(at / s), -np.sqrt(bt / s), 0.0]),
                2: np.array([0.0, 0.0, 1.0]),
            }
        else:
            cols = {2: np.array([0.0, 0.0, 1.0])}
        u = _complete_columns(cols)
        m1 = np.array([[1.0, 0, 0], [0, 0, np.sqrt(c)], [0, 0, np.sqrt(ct)]])
        m2 = np.zeros((3, 3))
        m2[0, 1] = _sqrt(a - bt)
        m2[2, 1] = _sqrt(s)
        if ct < s:
            # grouping switch: the last rows of the two operators are exchanged
            m1[2], m2[2] = m2[2].copy(), m1[2].copy()
        mats = [m1, m2]
    return [m @ u.T for m in mats if np.any(np.abs(m) > 1e-15)]


def _qutrit_double_row(t: np.ndarray) -> list[np.ndarray]:
    _check_pattern(t, "double_row")
    a, b, c = t[0]
    at, bt, ct = t[1]  # complements
    s = a + b + c
    if s <= 1.0:
        cols = {}
        if s > 1e-14:
            cols[0] = np.array([np.sqrt(a / s), np.sqrt(b / s), np.sqrt(c / s)])
        u = _complete_columns(cols)
        m1 = np.array([[np.sqrt(s), 0, 0], [0, 1.0, 0], [0, 0, 0]])
        m2 = np.zeros((3, 3))
        m2[1, 2] = 1.0
        m3 = np.zeros((3, 3))
        m3[1, 0] = _sqrt(1.0 - s)
        mats = [m1, m2, m3]
    elif s >= 2.0:
        r = 3.0 - s
        cols = {}
        if r > 1e-14:
            cols[2] = np.array([np.sqrt(at / r), np.sqrt(bt / r), np.sqrt(ct / r)])
        u = _complete_columns(cols)
        m1 = np.array([[1.0, 0, 0], [0, 0, _sqrt(r)], [0, 0, 0]])
        m2 = np.zeros((3, 3))
        m2[0, 1] = 1.0
        m3 = np.zeros((3, 3))
        m3[0, 2] = _sqrt(s - 2.0)
        mats = [m1, m2, m3]
    else:
        if a + b >= 1.0:
            q = at + bt  # > 0 since s < 2
            cols = {
                0: np.array([np.sqrt(bt / q), -np.sqrt(at / q), 0.0]),
                1: np.array(
                    [
                        _sqrt(at * (a - bt) / (q * (s - 1.0))),
                        _sqrt(bt * (a - bt) / (q * (s - 1.0))),
                        _sqrt(c / (s - 1.0)),
                    ]
                ),
                2: np.array(
                    [
                        _sqrt(at * c / (q * (s - 1.0))),
                        _sqrt(bt * c / (q * (s - 1.0))),
                        -_sqrt((a - bt) / (s - 1.0)),
                    ]
                ),
            }
        else:
            q = a + b  # > 0 since s > 1
            cols = {
                0: np.array(
                    [
                        _sqrt(a * ct / (q * (2.0 - s))),
                        _sqrt(b * ct / (q * (2.0 - s))),
                        -_sqrt((at - b) / (2.0 - s)),
                    ]
                ),
                1: np.array(
                    [
                        _sqrt(a * (at - b) / (q * (2.0 - s))),
                        _sqrt(b * (at - b) / (q * (2.0 - s))),
                        _sqrt(ct / (2.0 - s)),
                    ]
                ),
                2: np.array([np.sqrt(b / q), -np.sqrt(a / q), 0.0]),
            }
        u = _complete_columns(cols)
        m1 = np.zeros((3, 3))
        m1[0, 0] = 1.0
        m1[1, 2] = 1.0
        m2 = np.zeros((3, 3))
        m2[0, 1] = np.sqrt(s - 1.0)
        m2[1, 1] = np.sqrt(2.0 - s)
        mats = [m1, m2]
    return [m @ u.T for m in mats if np.any(np.abs(m) > 1e-15)]


def qutrit_family_spectrum(t, family: str) -> np.ndarray:
    """Closed-form optimal spectrum for the three solved 3x3 families."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(9)
    if family == "cyclic":
        mu = max(t[0, 1], t[0, 2]) + max(t[1, 0], t[1, 2]) + max(t[2, 0], t[2, 1])
        out[0], out[1] = mu / 3.0, 1.0 - mu / 3.0
    elif family == "single_row":
        a, b, c = t[0, 0], t[0, 1], t[1, 2]
        if a + b <= 1.0:
            out[:3] = [
                (1.0 + a + b + c) / 3.0,
                max(1.0 - a - b, 1.0 - c) / 3.0,
                min(1.0 - a - b, 1.0 - c) / 3.0,
            ]
        else:
            mu = 1.0 + max(2.0 - a - b, 1.0 - c) + c
            out[0], out[1] = mu / 3.0, 1.0 - mu / 3.0
    elif family == "double_row":
        s = t[0].sum()
        if s <= 1.0:
            out[:3] = [(1.0 + s) / 3.0, 1.0 / 3.0, (1.0 - s) / 3.0]
        elif s >= 2.0:
            out[:3] = [(4.0 - s) / 3.0, 1.0 / 3.0, (s - 2.0) / 3.0]
        else:
            out[:2] = [2.0 / 3.0, 1.0 / 3.0]
    else:
        raise ValueError(f"unknown family {family!r}")
    return out


def coherify_qutrit(t, family: str) -> CoherificationResult:
    """Optimal coherification for the three solved 3x3 zero-pattern families.

    cyclic: zero diagonal, optimum given by the row-grouping construction;
    single_row: second row supported on the last column, cases split on
    a + b vs 1 (and within a + b >= 1 on 1-c vs 2-a-b); double_row: zero last
    row, cases split on s = a + b + c in [0,1], (1,2), [2,3].
    """
    t = assert_transition_matrix(t)
    if t.shape[0] != 3:
        raise DimensionMismatch(f"qutrit construction needs d = 3, got {t.shape[0]}")
    if family == "cyclic":
        _check_pattern(t, "cyclic")
        return replace(coherify_c0(t), method="qutrit_cyclic", optimal=True)
    if family == "single_row":
        kraus = _qutrit_single_row(t)
    elif family == "double_row":
        kraus = _qutrit_double_row(t)
    else:
        raise ValueError(f"family must be one of {QUTRIT_FAMILIES}, got {family!r}")
    return _result(channel_from_kraus(kraus), f"qutrit_{family}", optimal=True)


def coherify_contracting(sigma) -> CoherificationResult:
    """Coherify a completely contracting channel rho -> sigma.

    The output point sigma is replaced by the pure state with the same
    diagonal (zero phases), raising the channel's entropic coherence by
    S(sigma) bits. For mixed sigma this is generally not optimal; the flag is
    set only when the achieved spectrum meets the majorization upper bound.
    """
    sigma = assert_density_matrix(sigma)
    p = np.clip(np.diag(sigma).real, 0.0, None)
    p = p / p.sum()
    # the classical action T = p 1^T has every column p, so the cohering-power
    # maximizer of T sends every |j> to sum_i sqrt(p_i)|i>
    t = np.outer(p, np.ones(sigma.shape[0]))
    res = _result(cohering_power_maximizer(t), "contracting", optimal=False)
    if np.abs(res.achieved_spectrum - mu_upper(t)).max() <= 1e-9:
        return replace(res, optimal=True)
    return res


def cohering_power_maximizer(t) -> Channel:
    """Channel maximizing cohering power among all with classical action T.

    Sends each basis state |j> to the pure state sum_i sqrt(T_ij)|i>; the
    Jamiolkowski state carries the full column coherences sqrt(T_ik T_jk) on
    the diagonals of its off-diagonal blocks and nothing else.
    """
    t = assert_transition_matrix(t)
    d = t.shape[0]
    kraus = []
    for j in range(d):
        psi = np.sqrt(t[:, j]).astype(np.complex128)
        kraus.append(np.outer(psi, np.eye(d)[j]))
    return channel_from_kraus(kraus)


def coherify_auto(t) -> CoherificationResult:
    """Strongest applicable solved construction for this T.

    Order: complete coherification when T is certified unistochastic, then
    the qubit optimum, then a matching qutrit zero-pattern family, then the
    general rank-reducing construction. The verdict is :func:`classify`'s,
    read from its memo of recent verdicts when the caller has just
    classified the same T, so the witness search runs once; its witness,
    verified there, becomes the unitary channel without a second check.
    """
    t = assert_transition_matrix(t)
    d = t.shape[0]
    cls = classify(t)
    if cls.unistochastic == "yes":
        return _result(channel_from_kraus([cls.witness_unitary]), "unistochastic", optimal=True)
    if d == 2:
        return coherify_qubit(t)
    if d == 3:
        for family in QUTRIT_FAMILIES:
            if _matches_family(t, family):
                return coherify_qutrit(t, family)
    return coherify_c0(t)
