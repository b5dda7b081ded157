"""Brute-force validators: feasible-set sampling, purity maximization,
Haar Monte-Carlo averages, and the unitary-witness search for unistochastic
matrices.

The feasible set explored here is the spectrahedron of Jamiolkowski states
with a fixed diagonal (equivalently a fixed classical action) and the
trace-preservation partial-trace constraint. Every constraint lies in J's
d diagonal blocks, so the work happens on them (:class:`_FeasibleSet`),
and J is built only at the end by coupling them (:func:`_couple`). Block
points are produced by the exact Frobenius projection (:func:`_project`):
semismooth Newton steps on the dual of the projection problem, whose
variables are the m affine constraints' multipliers (Malick, SIAM J.
Matrix Anal. Appl. 26(1), 2004; Qi & Sun, SIAM J. Matrix Anal. Appl.
28(2), 2006). Newton converges quadratically on that dual, also where some
entries of T are tiny. The projection returns its multipliers. A
projection without earlier ones (the sampler's, and the first of each
purity ascent) starts from the affine projection's multipliers; every later
one evaluates the dual at both those and the given ones, and each member
takes the lower.

The sampler couples random projected blocks through a random coupling,
from the least pure one (J block diagonal) through a random Wishart one,
whitened block row by block row by a QR factorization, to the purest. It
runs its samples in chunks, each drawn, projected, coupled and checked as
one stack of Jamiolkowski states. The purity maximizer ascends a convex function f of the blocks'
spectra, the largest purity of a state with those blocks (the
block-majorization theorem of :mod:`coherify.bounds`), from random starts
and from the diagonal point diag(T_i.)/d, the blocks of the row-grouping
coherification C0, where f = |mu_lower|^2. mu_upper(T)
majorizes every feasible spectrum, so no point has purity above
|mu_upper|^2; once an input's best point reaches that ceiling (to 1e-10)
it is optimal, and all of its starts stop. Short of the ceiling, the starts
run in waves of 8, and an input launches another wave only while a
Bayesian stopping rule (Boender & Rinnooy Kan, Math. Programming 37, 1987)
expects maxima its stopped starts have not found. The purity returned is
that of a coupled channel feasible to about 1e-13, so some channel attains
it.

The witness search is Levenberg-Marquardt on the (d - 1)^2 free phases of
the dephased U = sqrt(T) o e^{i phi}, with the strict upper triangle of
U^dag U as its residual: a zero-residual least-squares problem, on which
it converges quadratically near a regular solution. Its restarts run
batched in lockstep, and it stops at the first witness that verifies.

Randomness comes from the counter-based Philox generator, keyed by
[seed, stream] across its two key words (one Philox, re-keyed per stream by
:func:`_streams`; see there which streams each search draws), so runs are
bit-reproducible, and a member's projection does not depend on the batch
it is projected in. The sampler keys one stream per chunk of 128 samples
and draws each quantity of the whole chunk in one call, so its samples too
depend only on the seed and their index.

Inside ``with recording() as stats:`` the sampler and the maximizer count
their work (:class:`OracleStats`): time per phase, the Newton work of each
projection, and each maximized input's ascent steps, certified step,
final gap to |mu_upper|^2, starts launched and distinct maxima found.
Results do not depend on whether they record.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .bounds import _mu_upper
from .channels import Channel, _checked_jams, channel_purity
from .diagnostics import _check_unitarity_dim, maxmixed_output_purity
from .errors import ConvergenceFailure
from .matcore import dag, partial_trace
from .stochastic import _moduli_polish, _verify_witness, assert_transition_matrix, is_bistochastic

__all__ = [
    "OracleConfig",
    "OracleStats",
    "recording",
    "sample_fixed_action",
    "maximize_purity",
    "maximize_purity_many",
    "haar_unitarity_mc",
    "search_unistochastic_witness",
    "rand_channel",
    "haar_unitary",
]


# the cap on the Newton steps of each projection onto the feasible set, on
# the steps of each purity ascent and on the Levenberg-Marquardt steps,
# accepted or rejected, of each restart of the witness search
_MAX_STEPS = 2000
# the feasibility residual of the sampler's projection and of each ascent
# step's (the ascent's final step projects to 1e-13)
_SAMPLE_TOL = 1e-7
_ASCENT_TOL = 1e-9
# the purity maximizer launches an input's starts in waves of this many
# (see _next_wave)
_WAVE = 8
# the sampler runs its samples in chunks of this many (see sample_fixed_action)
_CHUNK = 128


@dataclass(frozen=True)
class OracleConfig:
    """Settings of the numerical validators.

    seed keys every random draw (see :func:`_streams`); restarts is the
    number of restarts of the witness search, and the most starts per input
    of the purity maximizer, which launches them in waves of 8 and stops
    early once its starts agree (see :func:`maximize_purity`).
    """

    seed: int = 42
    restarts: int = 64

    def __post_init__(self):
        if self.restarts <= 0:
            raise ValueError("restarts must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in 0..2**64 - 1, got {self.seed}")


@dataclass
class OracleStats:
    """What the oracle did inside :func:`recording`: the seconds of each
    phase ("final": the maximizer's final step and coupling); per
    :func:`_project` call its phase (None outside the sampler and the
    maximizer), members, newton_iterations (batched steps), member_steps
    (one per member and iteration), step_halvings (a member's dual
    evaluations after a halved step) and capped members (stopped by the step
    cap short of the tolerance); per maximized input, in the order a
    :func:`maximize_purity_many` call ascends them (by zero pattern, in
    order of first appearance), its ascent_steps (summed over its waves, the
    final step not counted), certified_step (after which its best f reached
    |mu_upper|^2 - 1e-10, or None), gap (|mu_upper|^2 minus the purity
    returned), starts (launched) and maxima (the distinct maxima among its
    random starts stopped by the gain rule, at the last wave's end)."""

    seconds: dict[str, float] = field(default_factory=lambda: dict.fromkeys(
        ("sampler_projection", "sampler_checks", "sampler_other", "ascent", "final"), 0.0))
    projections: list[dict] = field(default_factory=list)
    inputs: list[dict] = field(default_factory=list)
    _phase: str | None = field(default=None, repr=False, compare=False)
    _since: float = field(default=0.0, repr=False, compare=False)


_RECORD: ContextVar[OracleStats | None] = ContextVar("coherify_oracle_record", default=None)


@contextmanager
def recording():
    """Yield a fresh :class:`OracleStats` that this thread's (or task's)
    oracle calls fill until the block ends."""
    token = _RECORD.set(OracleStats())
    try:
        yield _RECORD.get()
    finally:
        _RECORD.reset(token)


def _enter(rec: OracleStats | None, phase: str | None, start: bool = False) -> None:
    """Charge the time since the last call to the phase running (unless a
    recorded call starts here), then run phase (None: none)."""
    if rec is not None:
        now = time.perf_counter()
        if not start:
            rec.seconds[rec._phase] += now - rec._since
        rec._phase, rec._since = phase, now


# the first of each purpose's 2^32 streams (see _streams); purpose 1 is
# unused, since renumbering the others would move every draw they key
_SAMPLE_STARTS, _ASCENT_STARTS, _PHASES, _HAAR_STATES = (p << 32 for p in (0, 2, 3, 4))


def _streams(seed: int, streams):
    """One generator per stream, each drawing what
    ``Generator(Philox(key=[seed, stream]))`` draws.

    Each purpose draws from its own 2^32 streams: _SAMPLE_STARTS + c the
    starts and couplings of the sampler's chunk c, samples 128c .. 128c +
    127 (:func:`sample_fixed_action`); _ASCENT_STARTS + k * restarts + r the
    random ascent start r >= 1 of input k (:func:`maximize_purity_many`);
    _PHASES + r the random phases of witness-search restart r >= 2;
    _HAAR_STATES the states of :func:`haar_unitarity_mc`.

    All of them are one Philox, re-keyed through its state setter before each
    is yielded, so a generator must be used up before the next is taken; a
    new Philox would cost a SeedSequence built from OS entropy and then
    discarded.
    """
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    # the state of a fresh Philox(key=k): counter and buffer zero, buffer empty
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": np.zeros(2, np.uint64)},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = state["state"]["key"]
    for stream in streams:
        key[:] = seed, stream
        bitgen.state = state
        yield rng


def _rng(seed: int, stream: int) -> np.random.Generator:
    return next(_streams(seed, [stream]))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_channel(d: int, rng: np.random.Generator, rank: int | None = None) -> Channel:
    """Random CPTP map: a Wishart Choi matrix normalized to the right partial trace."""
    rank = d * d if rank is None else rank
    if not 1 <= rank <= d * d:
        raise ValueError(f"rank must lie in 1..{d * d}, got {rank}")
    g = (rng.standard_normal((d * d, rank)) + 1j * rng.standard_normal((d * d, rank))) / np.sqrt(2)
    w = g @ dag(g)
    ev, vec = np.linalg.eigh(partial_trace(w))
    s_isqrt = (vec * (1.0 / np.sqrt(np.maximum(ev, 1e-300)))) @ dag(vec)
    a = np.kron(np.eye(d), s_isqrt)
    jam = a @ w @ dag(a) / d
    return Channel(jam, atol=1e-9)


# ---------------------------------------------------------------------------
# feasible-set geometry (batched over a leading axis)
# ---------------------------------------------------------------------------


class _FeasibleSet:
    """The spectrahedron {J >= 0, diag J = vec(T)/d, off-diagonal Tr_1 J = 0},
    held as J's diagonal blocks.

    Zero entries of vec(T)/d force the corresponding rows and columns of J to
    vanish (|J_mn|^2 <= J_mm J_nn), so only the rows over the support of
    vec(T) carry constraints. The object holds only the support structure;
    per-member diagonal targets are passed to the projections, which lets
    one batch many transition matrices with a common zero pattern.

    Every constraint lies in J's diagonal blocks, so points are stacks
    (..., d, d, d) of them: block i holds the rows (i, k), k = 0..d-1, of J;
    rows outside the support are zero padding, in no constraint (a point's
    padding stays zero under the projection). Coupled (:func:`_couple`),
    feasible blocks give a feasible J, so no projection needs all of J.

    The affine constraints are A(J) = b with m = n + 2 * n_groups real rows:
    the n diagonal entries, then the real and the imaginary part of each
    group's sum of entries. There is one group per pair k < l of output
    indices, with one member, the entry ((i, k), (i, l)) in block i, per i
    whose rows (i, k) and (i, l) both lie in the support.
    """

    def __init__(self, d: int, support: np.ndarray):
        self.d = d
        self.support = support
        self.n = support.size
        # (block, row) of each support index
        self.blk, self.row = support // d, support % d
        live = np.zeros((d, d), dtype=bool)
        live[self.blk, self.row] = True
        # 1 on the entries whose row and column lie in the support, 0 on the padding
        self.mask = (live[:, :, None] & live[:, None, :]).astype(np.float64)
        pos, group_id = [], []
        gid = 0
        for k in range(d):
            for l in range(k + 1, d):
                members = np.flatnonzero(live[:, k] & live[:, l])
                if not members.size:
                    continue
                pos += [(i, k, l) for i in members]
                group_id += [gid] * members.size
                gid += 1
        # each member's (block, row, col) position, listed group by group
        self.pos_b, self.pos_r, self.pos_c = np.asarray(pos, dtype=np.intp).reshape(-1, 3).T
        self.group_id = np.asarray(group_id, dtype=np.intp)
        self.n_groups = gid
        self.m = self.n + 2 * gid
        sizes = np.bincount(self.group_id, minlength=gid)
        self.group_start = np.cumsum(sizes) - sizes
        # A A^* is diagonal: the constraint matrices have disjoint supports
        self.gram = np.concatenate([np.ones(self.n), sizes / 2, sizes / 2])

    @classmethod
    def for_action(cls, t: np.ndarray) -> "_FeasibleSet":
        d = t.shape[0]
        return cls(d, np.flatnonzero(t.reshape(-1) > 0))

    def target(self, t: np.ndarray) -> np.ndarray:
        return (t.reshape(-1) / self.d)[self.support]

    def _points(self, batch: tuple) -> np.ndarray:
        return np.zeros(batch + (self.d, self.d, self.d), dtype=np.complex128)

    def constraints(self, x: np.ndarray) -> np.ndarray:
        """A(x), shape (..., m)."""
        parts = [x[..., self.blk, self.row, self.row].real]
        if self.n_groups:
            # reduceat adds each row in order, so a member's sums do not depend
            # on how many rows the batch has (a matrix product's kernel might)
            members = x[..., self.pos_b, self.pos_r, self.pos_c]
            sums = np.add.reduceat(members, self.group_start, axis=-1)
            parts += [sums.real, sums.imag]
        return np.concatenate(parts, axis=-1)

    def shift(self, s: np.ndarray, y: np.ndarray) -> np.ndarray:
        """s + A^*(y) for duals y of shape (..., m)."""
        z = s.copy()
        z[..., self.blk, self.row, self.row] += y[..., :self.n]
        if self.n_groups:
            n, g = self.n, self.n_groups
            vals = (0.5 * (y[..., n:n + g] + 1j * y[..., n + g:]))[..., self.group_id]
            z[..., self.pos_b, self.pos_r, self.pos_c] += vals
            z[..., self.pos_b, self.pos_c, self.pos_r] += vals.conj()
        return z

    def rotated_constraints(self, v: np.ndarray) -> np.ndarray:
        """V^dag G_k V for the m constraint matrices G_k and the eigenvectors
        V of each block, as (B, m, d * d * d).

        G_k = e_r e_r^T in block i for the diagonal entry (i, r); a group's
        rows are the Hermitian and anti-Hermitian parts of E = sum of its
        members' e_k e_l^T, at most one per block i, so with P = V^dag E V
        there they are (P + P^dag) / 2 and i (P - P^dag) / 2.
        """
        n, groups = self.n, self.n_groups
        out = np.zeros((len(v), self.m, self.d, self.d, self.d), dtype=np.complex128)
        rows = v[:, self.blk, self.row]          # row (i, r) of V, for each diagonal entry
        out[:, np.arange(n), self.blk] = rows[..., :, None].conj() * rows[..., None, :]
        if groups:
            # a matmul's rounding, not a product's: slow ascents stop where it
            # leads them (the bench's dense 4x4 input 511 moves by 6e-9)
            p = v[:, self.pos_b, self.pos_r, :, None].conj() @ v[:, self.pos_b, self.pos_c, None, :]
            ph = dag(p)
            out[:, n + self.group_id, self.pos_b] = (p + ph) * 0.5
            out[:, n + groups + self.group_id, self.pos_b] = (p - ph) * 0.5j
        return out.reshape(len(v), self.m, -1)

    def random_starts(self, target: np.ndarray, rngs) -> np.ndarray:
        """Random Hermitian starts near the feasible set, one block point per
        generator, as a (B, d, d, d) stack for B generators.

        rngs is any iterable of generators, consumed lazily: each generator
        draws the start's scale, then the real and the imaginary part of its
        noise on the d blocks, before the next is taken (so :func:`_streams`
        can re-key one Philox between them); the arithmetic then runs once on
        the stack. target is one diagonal target for every start or one per
        start. Noise is enveloped by sqrt(t_m) sqrt(t_n), the largest modulus
        the PSD cone allows at that position, so starts stay well conditioned
        even when some diagonal targets are tiny; on the padding, where t is
        0, so is the envelope.
        """
        d = self.d
        draws = [_draw_start(rng, d) for rng in rngs]
        scale = np.array([s for s, _ in draws])
        noise = np.array([z for _, z in draws]).reshape(len(draws), 2, d, d, d)
        return self._starts(target, scale, noise)

    def _starts(self, target: np.ndarray, scale: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """The starts of :meth:`random_starts` from their draws: scale (B,)
        and noise (B, 2, d, d, d), its real and imaginary parts."""
        g = noise[:, 0] + 1j * noise[:, 1]
        x = self._points((len(scale),))
        x[:, self.blk, self.row, self.row] = target
        root = np.sqrt(x.real.diagonal(axis1=-2, axis2=-1))
        env = root[..., :, None] * root[..., None, :]
        return x + scale[:, None, None, None] * (g + dag(g)) / 2 * env


def _draw_start(rng: np.random.Generator, d: int) -> tuple[float, np.ndarray]:
    """One random start's draws from rng: its scale, then the real and the
    imaginary part of its noise on the d blocks (see
    :meth:`_FeasibleSet.random_starts`)."""
    return rng.uniform(0.1, 0.9), rng.standard_normal((2, d, d, d))


# Newton on the dual: Armijo's sufficient-decrease fraction, the least ridge
# added to the generalized Hessian (singular where Y is rank deficient), and
# the step halvings allowed before a step is taken as it stands
_ARMIJO = 1e-4
_RIDGE = 1e-10
_MAX_HALVINGS = 40


def _dual_point(feas: _FeasibleSet, s, y, b):
    """Eigendecomposition of S + A^*(y), block by block, the dual objective
    theta(y) and the size of theta's rounding error."""
    w, v = np.linalg.eigh(feas.shift(s, y))
    wp = np.maximum(w, 0.0).reshape(len(w), -1)
    half = 0.5 * (wp * wp).sum(axis=-1)
    linear = (b * y).sum(axis=-1)
    return w, v, half - linear, 1e-14 * (half + np.abs(linear))


def _psd_part(w, v) -> np.ndarray:
    y = (v * np.maximum(w, 0.0)[..., None, :]) @ dag(v)
    return (y + dag(y)) / 2


def _newton_step(feas: _FeasibleSet, w, v, grad) -> np.ndarray:
    """Solve (H + ridge) dy = -grad with H the generalized Hessian of theta.

    H_kl = Re sum_ab conj(G~_k)_ab Omega_ab (G~_l)_ab, summed over the
    blocks, where G~_k = V^dag G_k V and Omega_ab = (w_a^+ - w_b^+) / (w_a -
    w_b), 1 or 0 where w_a = w_b. The ridge scales with the gradient,
    max(_RIDGE, min(1, |grad|_inf^2)), the Levenberg-Marquardt choice of
    Yamashita & Fukushima (Computing Suppl. 15, 2001), which keeps quadratic
    convergence under a local error bound: far from the solution it keeps a
    near-singular H from taking huge steps that the line search then halves
    dozens of times, and near it the step is Newton's.
    """
    wp = np.maximum(w, 0.0)
    num = wp[..., :, None] - wp[..., None, :]
    den = w[..., :, None] - w[..., None, :]
    tie = den == 0
    omega = np.where(tie, (wp[..., :, None] > 0).astype(np.float64), num / np.where(tie, 1.0, den))
    g = feas.rotated_constraints(v).view(np.float64)   # real and imaginary parts interleaved
    weights = np.repeat(omega.reshape(len(w), 1, -1), 2, axis=-1)
    h = (g * weights) @ np.swapaxes(g, -1, -2)
    idx = np.arange(feas.m)
    h[:, idx, idx] += np.clip(np.abs(grad).max(axis=-1) ** 2, _RIDGE, 1.0)[:, None]
    return np.linalg.solve(h, -grad[..., None])[..., 0]


def _project(feas: _FeasibleSet, x0: np.ndarray, target: np.ndarray, tol: float, max_iter: int,
             y0: np.ndarray | None = None):
    """Batched Frobenius projection of Herm(x0) onto the feasible set.

    x0 is a stack (B, d, d, d) of block points, each block projected with
    the others (the group constraints couple them); entries in the padding
    are dropped. Minimizes the dual theta(y) = |Pi_+(S + A^*
    y)|^2 / 2 - b.y, whose minimizer gives the projection Y = Pi_+(S + A^* y)
    and whose gradient is A(Y) - b, by semismooth Newton with Armijo
    backtracking. It starts from the affine projection's multipliers (b -
    A(S)) / gram; given y0, one row per member, it evaluates theta at both
    in one batched eigendecomposition, and each member starts from the one
    with the lower theta, the affine one on a tie. Returns (Y, converged,
    y, w, v): Y is exactly PSD and C-ordered, y holds each member's final
    multipliers, so that Y = Pi_+(S + A^* y), and (w, v) the eigenpairs of
    each member's final S + A^* y, eigenvalues ascending and clipped at 0,
    from which Y was built (Y = V diag(w) V^dag, made Hermitian); a member
    is converged, and leaves the batch, once its residual, the largest
    |A(Y) - b| of a diagonal entry or a group's complex sum, is at most
    tol; max_iter caps its Newton steps (a member that starts converged
    takes none). target is one diagonal target for every member or one per
    member. Each member's arithmetic does not depend on the rest of the
    batch, so projecting a batch equals projecting its members one by one.
    """
    rec = _RECORD.get()
    # C order whatever x0's memory layout: callers reduce over Y's last axes,
    # and the rounding of those sums follows the memory order
    x0 = np.ascontiguousarray(x0, dtype=np.complex128)
    s = np.ascontiguousarray((x0 + dag(x0)) / 2 * feas.mask)
    size = s.shape[0]
    target = np.broadcast_to(target, (size, feas.n))
    b = np.zeros((size, feas.m))
    b[:, :feas.n] = target
    y = (b - feas.constraints(s)) / feas.gram
    if y0 is None:
        w, v, theta, slack = _dual_point(feas, s, y, b)
    else:
        # both starts in one eigh call; each member keeps the lower theta,
        # the affine one on a tie
        y = np.concatenate([y, np.asarray(y0, dtype=np.float64)])
        both = _dual_point(feas, np.concatenate([s, s]), y, np.concatenate([b, b]))
        pick = np.arange(size) + size * (both[2][size:] < both[2][:size])
        y = y[pick]
        w, v, theta, slack = (part[pick] for part in both)
    n, g = feas.n, feas.n_groups
    out, y_out = np.empty_like(s), np.empty_like(y)
    w_out, v_out = np.empty(s.shape[:-1]), np.empty_like(s)
    converged = np.zeros(size, dtype=bool)
    live = np.arange(size)
    member_steps = halvings = 0
    for step in range(max_iter + 1):
        point = _psd_part(w, v)
        grad = feas.constraints(point) - b
        # the residual: a group sum is its two rows as one complex number
        # (whose modulus numpy does not round as np.hypot does)
        err = np.maximum(np.abs(grad[:, :n]).max(axis=-1),
                         np.abs(grad[:, n:n + g] + 1j * grad[:, n + g:]).max(axis=-1, initial=0.0))
        converged[live] = err <= tol
        done = converged[live] | (step == max_iter)
        out[live[done]] = point[done]
        y_out[live[done]] = y[done]
        w_out[live[done]] = np.maximum(w[done], 0.0)
        v_out[live[done]] = v[done]
        if done.all():
            break
        if done.any():
            keep = ~done
            live, s, b, y, grad = live[keep], s[keep], b[keep], y[keep], grad[keep]
            w, v, theta, slack = w[keep], v[keep], theta[keep], slack[keep]
        dy = _newton_step(feas, w, v, grad)
        member_steps += len(live)
        slope = _ARMIJO * (grad * dy).sum(axis=-1)
        t = np.ones(len(live))
        y_new = y + dy
        w_new, v_new, th_new, sl_new = _dual_point(feas, s, y_new, b)
        back = np.flatnonzero(th_new > theta + slope + slack)
        for _ in range(_MAX_HALVINGS):
            if not back.size:
                break
            halvings += back.size
            t[back] *= 0.5
            y_new[back] = y[back] + t[back, None] * dy[back]
            w_new[back], v_new[back], th_new[back], sl_new[back] = _dual_point(
                feas, s[back], y_new[back], b[back])
            back = back[th_new[back] > theta[back] + t[back] * slope[back] + slack[back]]
        y, w, v, theta, slack = y_new, w_new, v_new, th_new, sl_new
    if rec is not None:
        rec.projections.append({"phase": rec._phase, "members": size, "newton_iterations": step,
                                "member_steps": member_steps, "step_halvings": halvings,
                                "capped": int(size - converged.sum())})
    return out, converged, y_out, w_out, v_out


def _couple(feas: _FeasibleSet, w: np.ndarray, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """J_ij = B_i^{1/2} Q_i Q_j^dag B_j^{1/2} as a (B, d^2, d^2) stack, for
    PSD blocks B_i of eigenvalues w (B, d, d) and eigenvectors v (B, d, d, d)
    and co-isometries Q_i (B, d, d, r): J = K K^dag, K_i = B_i^{1/2} Q_i, is
    PSD, its diagonal blocks are the B_i and its padding rows zero."""
    root = _psd_part(np.sqrt(np.maximum(w, 0.0)), v) * feas.mask
    k = (root @ q).reshape(len(w), feas.d * feas.d, -1)
    return k @ dag(k)


def _whiten(g: np.ndarray) -> np.ndarray:
    """L_i^{-1} G_i for each block row G_i (d x r) of a stack (..., d, d, r),
    L_i the Cholesky factor of W_ii = G_i G_i^dag: Q^dag for the QR
    factorization G_i^dag = Q R whose R has a positive diagonal (R = L_i^dag).
    Each whitened row is a co-isometry, zero in the columns where G_i is.
    It is U_i P_i, P_i = W_ii^{-1/2} G_i the polar factor of G_i and U_i =
    L_i^{-1} W_ii^{1/2} a unitary that depends on W_ii alone."""
    q, r = np.linalg.qr(dag(g))
    diag = r.diagonal(axis1=-2, axis2=-1)
    return dag(q * (diag / np.abs(diag))[..., None, :])


def _sample_stacks(t, n: int, cfg: OracleConfig):
    """The samples of :func:`sample_fixed_action`, chunk by chunk: yields each
    chunk's checked (B, d^2, d^2) stack of Jamiolkowski states and their
    spectra, as :func:`channels._checked_jams` returns them. Time spent
    between yields is charged to no phase of the record."""
    rec = _RECORD.get()
    _enter(rec, "sampler_other", start=True)
    t = assert_transition_matrix(t)
    if n < 0:
        raise ValueError(f"the number of samples must be non-negative, got {n}")
    d = t.shape[0]
    feas = _FeasibleSet.for_action(t)
    target = feas.target(t)
    chunks = range(0, n, _CHUNK)
    rngs = _streams(cfg.seed, range(_SAMPLE_STARTS, _SAMPLE_STARTS + len(chunks)))
    for first, rng in zip(chunks, rngs):
        size = min(_CHUNK, n - first)
        # a full chunk's rows whatever its size, so that sample i's draws are
        # row i mod _CHUNK of its chunk's: the start's scale and noise, the
        # coupling's factor G (real and imaginary parts, d^2 x d^2 whatever
        # its rank), then one uniform for the rank and one for u
        scale = rng.uniform(0.1, 0.9, _CHUNK)[:size]
        noise = rng.standard_normal((_CHUNK, 2, d, d, d))[:size]
        factor = rng.standard_normal((_CHUNK, 2, d * d, d * d))[:size]
        uniform = rng.uniform(size=(_CHUNK, 2))[:size]
        starts = feas._starts(target, scale, noise)
        _enter(rec, "sampler_projection")
        _, ok, _, w, v = _project(feas, starts, target, _SAMPLE_TOL, _MAX_STEPS)
        _enter(rec, "sampler_other")
        if not ok.all():
            raise ConvergenceFailure(
                f"{int((~ok).sum())} of {size} samples ({first}..{first + size - 1}) did not "
                f"reach tolerance {_SAMPLE_TOL} within {_MAX_STEPS} Newton steps"
            )
        rank = d + np.floor(uniform[:, 0] * (d * d - d + 1))
        g = factor[:, 0] + 1j * factor[:, 1]
        g *= np.arange(d * d) < rank[:, None, None]    # zero past rank r
        u = uniform[:, 1]
        # Q_i = [a E_i, b Q^W_i, c V_i], E_i the rows (i, .) of the identity and
        # a^2 + b^2 + c^2 = 1, gives Q_i Q_j^dag = a^2 I_ij + b^2 C_W,ij + c^2 C_A,ij
        a, c = (np.sqrt(np.maximum(x, 0.0))[:, None, None, None] for x in (1 - 2 * u, 2 * u - 1))
        q = np.concatenate([a * np.eye(d * d).reshape(d, d, d * d),
                            np.sqrt(1 - a * a - c * c) * _whiten(g.reshape(size, d, d, d * d)),
                            c * v], axis=-1)
        jams = _couple(feas, w, v, q)
        del factor, g, q    # freed before the next chunk's Newton system
        _enter(rec, "sampler_checks")
        checked = _checked_jams(jams, 1e-6)
        del jams
        _enter(rec, None)
        yield checked
        _enter(rec, "sampler_other", start=True)
    _enter(rec, None)


def sample_fixed_action(t, n: int, cfg: OracleConfig | None = None) -> list[Channel]:
    """n random channels whose classical action is T.

    Each sample projects random diagonal blocks, vec(T)/d plus a random
    Hermitian perturbation of random magnitude, onto the feasible set
    (non-converged samples raise), and couples them, J_ij = B_i^{1/2} C_ij
    B_j^{1/2}, C PSD with identity diagonal blocks (every feasible J with
    invertible blocks has this form). For u uniform in [0, 1), C is
    (1 - 2u) I + 2u C_W below u = 1/2 and (2 - 2u) C_W + (2u - 1) C_A above:
    from J block diagonal, the least pure coupling of the blocks, to C_A =
    V_i V_j^dag, their ordered eigenvectors, the purest (purity f(B), see
    :func:`maximize_purity`). C_W = L^{-1} W L^{-dag}, W = G G^dag complex
    Wishart, G a d^2 x r Gaussian whose rank r, uniform in d..d^2, sets how
    pure C_W is, and L = blockdiag(L_i), L_i the Cholesky factor of W_ii;
    L_i^{-1} G_i is the Q^dag of a QR factorization of each block row G_i
    (:func:`_whiten`). L_i^{-1} G_i = U_i P_i, P_i the polar factor of G_i,
    Haar distributed and independent of W_ii, and U_i a unitary fixed by
    W_ii, so C_W has the law of D^{-1/2} W D^{-1/2}, D = blockdiag(W_ii).
    The samples run in chunks of 128, each in one pass from its starts to
    its checked channels, so no array spans all n samples (a chunk's
    largest is its Newton system, 128 * m * d^3 entries), and a chunk that
    does not converge raises at once. Chunk c draws from one stream,
    _SAMPLE_STARTS + c (see :func:`_streams`), in four calls of 128 rows
    each, whatever the chunk's size: the starts' scales, their noise, the
    G's (d^2 x d^2 draws, zero past r), and the pairs that set r and u.
    Sample i takes row i mod 128 of its chunk's draws, and its projection
    does not depend on the rest of its chunk, so sample i depends only on
    the seed and i: the samples of n are the first n of any larger call's.
    The coupling reads each block's eigenpairs off the projection (see
    :func:`_project`). A negative n raises ValueError.
    """
    samples = []
    for jams, spectra in _sample_stacks(t, n, cfg or OracleConfig()):
        samples += Channel._from_checked(jams, spectra, atol=1e-6)
    return samples


def maximize_purity_many(ts, cfg: OracleConfig | None = None) -> list[tuple[Channel, float]]:
    """Batched :func:`maximize_purity`; one (channel, purity) pair per input.

    Inputs are grouped by the zero pattern of vec(T) so each group shares one
    feasible-set structure, and each wave of the group's inputs ascends in a
    single batch.
    """
    cfg = cfg or OracleConfig()
    ts = [assert_transition_matrix(t) for t in ts]
    results: list[tuple[Channel, float] | None] = [None] * len(ts)
    by_pattern: dict[tuple, list[int]] = {}
    for i, t in enumerate(ts):
        by_pattern.setdefault(tuple((t.reshape(-1) > 0).tolist()), []).append(i)
    for idxs in by_pattern.values():
        group = [ts[i] for i in idxs]
        for i, res in zip(idxs, _maximize_group(group, idxs, cfg)):
            results[i] = res
    return results  # type: ignore[return-value]


def _distinct_maxima(values) -> int:
    """The number of distinct maxima among the f values of stopped starts:
    in decreasing order, a value more than 1e-7 f below the current
    maximum's f starts the next one."""
    w, top = 0, None
    for v in sorted(values, reverse=True):
        if top is None or top - v > 1e-7 * top:
            w, top = w + 1, v
    return w


def _next_wave(values, launched: int, budget: int) -> int:
    """The number of starts of an input's next wave, 0 to stop: the
    Bayesian stopping rule of :func:`maximize_purity` on values, the f of
    the input's random starts stopped by the gain rule (w (n - 1) / (n - w -
    2) is the posterior expected number of maxima after n starts found w),
    and never past budget starts."""
    n, w = len(values), _distinct_maxima(values)
    if n >= w + 3 and w * (n - 1) / (n - w - 2) <= w + 0.5:
        return 0
    return min(_WAVE, budget - launched)


def _maximize_group(group, global_idx, cfg: OracleConfig):
    """Block-space ascent for inputs sharing one zero pattern (see
    :func:`maximize_purity`)."""
    rec = _RECORD.get()
    _enter(rec, "ascent", start=True)
    feas = _FeasibleSet.for_action(group[0])
    per = cfg.restarts
    targets = np.repeat([feas.target(t) for t in group], per, axis=0)
    # the ceiling |mu_upper|^2: no feasible block point has a larger f
    ceilings = np.array([float(up @ up) for up in map(_mu_upper, group)])
    x = feas._points((len(group) * per,))
    # start 0: the blocks diag(T_i.)/d, those of the row-grouping
    # coherification C0 (whose coherence lies off J's diagonal blocks)
    x[::per, feas.blk, feas.row, feas.row] = targets[::per]

    def f_and_grad(x):
        w, v = np.linalg.eigh(x)
        w, v = w[..., ::-1], v[..., ::-1]        # each block's eigenvalues in descending order
        s_n = w.sum(axis=-2)                     # coupled sums per rank
        g = np.einsum("bikn,bn,biln->bikl", v, 2.0 * s_n, v.conj())
        return (s_n ** 2).sum(axis=-1), g

    g = np.zeros_like(x)
    f = np.full(len(x), -np.inf)
    duals = np.zeros((len(x), feas.m))        # each start's last multipliers
    settled = np.zeros(len(x), dtype=bool)    # stopped by the gain rule
    steps = np.zeros(len(group), dtype=np.intp)      # each input's ascent steps
    launched = np.zeros(len(group), dtype=np.intp)
    sizes = np.full(len(group), min(_WAVE, per))
    while sizes.any():
        wave = np.concatenate([k * per + np.arange(launched[k], launched[k] + n)
                               for k, n in enumerate(sizes)])
        launched += sizes
        random = wave[wave % per > 0]
        x[random] = feas.random_starts(targets[random], _streams(
            cfg.seed, (_ASCENT_STARTS + global_idx[i // per] * per + i % per for i in random)))
        # the ascent (see maximize_purity) needs no step rule. The starts are
        # not projected (nor counted as feasible): each takes its first step
        # from where it is; the projection drops the gradient's padding entries
        g[wave] = f_and_grad(x[wave])[1]
        live = wave
        last = np.zeros(len(group), dtype=np.intp)   # each input's last step of this wave
        for step in range(_MAX_STEPS):
            if not live.size:
                break
            last[live // per] = step + 1
            z, ok, y, *_ = _project(feas, x[live] + g[live], targets[live], _ASCENT_TOL,
                                    _MAX_STEPS, duals[live] if step else None)
            fz, gz = f_and_grad(z[ok])
            moved = live[ok]
            gain = fz - f[moved]
            x[moved], f[moved], g[moved], duals[moved] = z[ok], fz, gz, y[ok]
            certified = f.reshape(len(group), per).max(axis=1) >= ceilings - 1e-10
            climbing = gain > 1e-12 * fz
            settled[moved[~climbing]] = True
            live = moved[climbing & ~certified[moved // per]]
        steps += last
        # only random starts stopped by the gain rule vote: the diagonal start
        # is a fixed point, and a start frozen by a certificate holds a snapshot
        found = [fk[1:][sk[1:]] for fk, sk in zip(f.reshape(len(group), per),
                                                  settled.reshape(len(group), per))]
        sizes = np.array([0 if c else _next_wave(v, n, per)
                          for c, v, n in zip(certified, found, launched)])

    _enter(rec, "final")
    f = f.reshape(len(group), per)
    if np.isneginf(f.max(axis=1)).any():
        raise ConvergenceFailure("no restart reached a feasible point")
    # one more ascent step from each input's best start, projected to 1e-13,
    # so that the blocks coupled below are feasible to that residual
    best = np.arange(len(group)) * per + f.argmax(axis=1)
    z, ok, *_ = _project(feas, x[best] + g[best], targets[best], 1e-13, _MAX_STEPS, duals[best])
    if not ok.all():
        raise ConvergenceFailure(f"{int((~ok).sum())} of {len(group)} final projections did "
                                 f"not reach 1e-13 within {_MAX_STEPS} Newton steps")
    # couple each input's blocks by their eigenvectors, C_ij = V_i V_j^dag,
    # eigenvalues in the same order in every block: J's purity is then f(z)
    w, v = np.linalg.eigh(z)
    channels = Channel.from_stack(_couple(feas, w, v, v), atol=1e-6)
    results = [(ch, channel_purity(ch)) for ch in channels]
    if rec is not None:
        # a certified input's starts stop at once, so it certified at its last step
        rec.inputs += [{"ascent_steps": int(n), "certified_step": int(n) if c else None,
                        "gap": float(top - p), "starts": int(s), "maxima": _distinct_maxima(v)}
                       for n, c, top, (_, p), s, v in zip(steps, certified, ceilings, results,
                                                          launched, found)]
    _enter(rec, None)
    return results


def maximize_purity(t, cfg: OracleConfig | None = None) -> tuple[Channel, float]:
    """Heuristic maximum of gamma(J) over channels with classical action T.

    The search runs in block space. Every constraint on J lies in its
    diagonal blocks B^i, and by the block-majorization theorem the largest
    purity of a J with given blocks is f(B) = sum_n (sum_i lambda_n(B^i))^2,
    eigenvalues in decreasing order, reached by coupling the blocks' ordered
    eigenvectors. So each start ascends f over feasible block points by
    x <- Pi(x + grad f(x)), beginning at the start itself. f is convex, so from a
    feasible point every step gains at least its own squared length; a start
    stops once its gain is at most 1e-12 f, when its projection fails, or
    after 2000 steps. All starts of an input stop once its best f reaches
    |mu_upper(T)|^2 - 1e-10: mu_upper majorizes every feasible spectrum, so
    no point is purer, and the input is optimal to within 1e-10 (each input
    of a batch stops on its own ceiling). The starts of each input are the
    diagonal point, diag(T_i.)/d in block i, and up to cfg.restarts - 1
    random block-diagonal points. The diagonal point is feasible and holds
    the blocks of the row-grouping coherification C0, with f =
    |mu_lower(T)|^2, so the result is never below C0's purity, the known
    lower bound.

    The starts run in waves of 8: the first holds start 0, the diagonal
    point, and random starts 1-7; wave j holds starts 8j .. 8j + 7. Each
    wave ascends until all of its starts stop, and its certificate counts
    the input's best f over all waves. An input launches another wave only
    if it has not certified, fewer than cfg.restarts starts have launched,
    and the Bayesian stopping rule of Boender & Rinnooy Kan (Math.
    Programming 37, 1987) expects unseen maxima: of its n random starts
    stopped by the gain rule, whose f hold w distinct values (one maximum
    where they differ by at most 1e-7 f), it stops once n >= w + 3 and w (n
    - 1) / (n - w - 2) <= w + 1/2, so after the first wave when its 7 random
    starts agree. The diagonal start, a fixed point, and starts frozen by a
    certificate or never feasible do not vote. Maxima are told apart by
    value: conjugating every block by one diagonal unitary keeps every
    constraint and f, so a maximum is a continuum of points. cfg.restarts
    <= 8 runs one wave. Start r of input k draws from stream _ASCENT_STARTS
    + k * cfg.restarts + r (see :func:`_streams`) whatever its wave, so a
    single input's starts are nested across budgets.

    The best point of each input then takes one more ascent step, projected
    to the residual 1e-13 (the ascent's to 1e-9), and its blocks are coupled
    by their ordered eigenvectors, C_ij = V_i V_j^dag.

    The value returned is the purity of the returned channel, feasible to
    about 1e-13: some channel attains it, so it is a lower bound on the
    optimum, above |mu_upper(T)|^2 by no more than rounding; short of the
    ceiling it is no optimality certificate. Raises ConvergenceFailure when
    no start of an input reaches a feasible point, or when an input's final
    projection does not reach 1e-13 within 2000 Newton steps.
    """
    return maximize_purity_many([t], cfg)[0]


def haar_unitarity_mc(ch: Channel, samples: int, seed: int = 42) -> tuple[float, float]:
    """Monte-Carlo unitarity: d/(d-1) [ <gamma(Phi(psi))>_Haar - gamma(Phi(1/d)) ].

    Haar pure states are normalized complex Gaussian vectors. Returns the
    estimate and its standard error.
    """
    d = ch.dim
    _check_unitarity_dim(d)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = _rng(seed, _HAAR_STATES)
    psi = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    kr = np.stack(ch.kraus)                      # (r, d, d)
    out = np.einsum("rab,nb->rna", kr, psi)      # K_r |psi>
    gram = np.einsum("rna,sna->nrs", out.conj(), out)
    gammas = (np.abs(gram) ** 2).sum(axis=(1, 2)).real
    mean = float(gammas.mean())
    se = float(gammas.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    scale = d / (d - 1)
    return scale * (mean - maxmixed_output_purity(ch)), scale * se


def _phase_waves(d: int, cfg: OracleConfig):
    """Initial phases of restarts 1..restarts-1: Fourier alone, then the
    random ones (Philox streams _PHASES + r). _phase_lm dephases them."""
    j = np.arange(d)
    if cfg.restarts > 1:
        yield (2 * np.pi * np.outer(j, j) / d)[None]
    if cfg.restarts > 2:
        yield np.stack([
            rng.uniform(0, 2 * np.pi, size=(d, d))
            for rng in _streams(cfg.seed, range(_PHASES + 2, _PHASES + cfg.restarts))
        ])


# Levenberg-Marquardt on the phases: a fresh restart's damping, the factors
# that divide it after an accepted step and multiply it after a rejected
# one, the damping past which a restart has stalled, the objective below
# which it is solved, and the objective below which a leaving restart is
# near enough a witness to be polished
_LM_DAMPING = 1e-3
_LM_DOWN, _LM_UP = 3.0, 2.0
_LM_STALL = 1e12
_LM_SOLVED = 1e-24
_LM_NEAR = 1e-10


def _phase_residual(m: np.ndarray, phi: np.ndarray, jk, dirs: np.ndarray):
    """Residual, Jacobian and objective of phases (B, d, d), batched.

    The residual R holds the real, then the imaginary parts of the strict
    upper triangle of G = U^dag U, U = m o e^{i phi}; G's diagonal holds T's
    column sums whatever the phases. The Jacobian is taken in the (d - 1)^2
    free phases phi_ab, a, b >= 1: dG_jk/dphi_ab = i conj(U_aj) U_ak
    (delta_bk - delta_bj), with dirs[p, b - 1] = delta_bk - delta_bj for the
    pair p = (j, k). Returns R (B, 2P), J (B, 2P, (d - 1)^2) and |R|^2.
    """
    j, k = jk
    u = m * np.exp(1j * phi)
    terms = u[:, :, j].conj() * u[:, :, k]         # conj(U_aj) U_ak, (B, d, P)
    g = terms.sum(axis=1)
    dg = np.einsum("nap,pb->npab", terms[:, 1:], dirs).reshape(len(u), len(j), -1)
    # dG = i dg: Re dG = -Im dg, Im dG = Re dg
    r = np.concatenate([g.real, g.imag], axis=-1)
    jac = np.concatenate([-dg.imag, dg.real], axis=1)
    return r, jac, (r * r).sum(axis=-1)


def _phase_lm(t: np.ndarray, waves) -> np.ndarray | None:
    """Lockstep Levenberg-Marquardt of batched restarts; the first verified
    witness or None.

    waves yields (R_i, d, d) arrays of initial phases; wave i joins the
    batch at iteration i, so a restart of the first wave that succeeds at
    once never pays for the others. Each start is dephased, phi_ab - phi_a0
    - phi_0b + phi_00: that multiplies U by diagonal phases on both sides,
    which leaves every |(U^dag U - 1)_jk| unchanged, and zeroes the phases
    of the first row and column. The unknowns are the (d - 1)^2 free
    phases, and the residual is the strict upper triangle of U^dag U (see
    _phase_residual). Each restart keeps its own damping lambda and steps
    by (J^T J + lambda) delta = -J^T R, one batched solve for all; an
    accepted step (the objective falls) divides lambda by 3, a rejected one
    multiplies it by 2. A restart leaves the batch when its objective drops
    below 1e-24, after _MAX_STEPS steps, or once lambda passes 1e12 (it
    has stalled); if its objective is below 1e-10 it is then polished and
    verified at once, and otherwise dropped: a restart stalled far from a
    witness costs up to 50 SVDs of polish for nothing. Restarts leaving
    together are verified in restart order.
    """
    d = t.shape[0]
    m = np.sqrt(t)
    jk = np.triu_indices(d, 1)
    free = np.arange(1, d)
    dirs = (free == jk[1][:, None]).astype(np.float64) - (free == jk[0][:, None])
    eye = np.eye((d - 1) ** 2)
    phi = np.empty((0, d, d))
    r = np.empty((0, d * (d - 1)))
    jac = np.empty((0, d * (d - 1), (d - 1) ** 2))
    f = np.empty(0)
    lam = np.empty(0)
    left = np.empty(0, dtype=np.intp)
    waves = iter(waves)
    while True:
        wave = next(waves, None)
        if wave is not None:
            wave = wave - wave[:, :, :1] - wave[:, :1, :] + wave[:, :1, :1]
            rw, jw, fw = _phase_residual(m, wave, jk, dirs)
            phi = np.concatenate([phi, wave])
            r, jac, f = np.concatenate([r, rw]), np.concatenate([jac, jw]), np.concatenate([f, fw])
            lam = np.concatenate([lam, np.full(len(wave), _LM_DAMPING)])
            left = np.concatenate([left, np.full(len(wave), _MAX_STEPS)])
        elif not len(phi):
            return None
        out = (f < _LM_SOLVED) | (left == 0) | (lam > _LM_STALL)
        if out.any():
            for phases in phi[out & (f < _LM_NEAR)]:
                w = _moduli_polish(m * np.exp(1j * phases), t)
                if _verify_witness(w, t):
                    return w
            keep = ~out
            phi, r, jac, f, lam, left = phi[keep], r[keep], jac[keep], f[keep], lam[keep], left[keep]
            if not len(phi):
                continue
        jac_t = np.swapaxes(jac, -1, -2)
        step = np.linalg.solve(jac_t @ jac + lam[:, None, None] * eye, -(jac_t @ r[..., None]))
        trial = phi.copy()
        trial[:, 1:, 1:] += step.reshape(-1, d - 1, d - 1)
        r_new, jac_new, f_new = _phase_residual(m, trial, jk, dirs)
        ok = f_new < f
        phi[ok], r[ok], jac[ok], f[ok] = trial[ok], r_new[ok], jac_new[ok], f_new[ok]
        lam = np.where(ok, lam / _LM_DOWN, lam * _LM_UP)
        left = left - 1


def search_unistochastic_witness(t, cfg: OracleConfig | None = None) -> np.ndarray | None:
    """Best-effort unitary witness search for bistochastic T of any size.

    Parametrizes U as sqrt(T) entrywise times phases, in the dephased form
    (zero phases on the first row and column; Tadej & Zyczkowski, Open Syst.
    Inf. Dyn. 13, 2006), and drives the strict upper triangle of U^dag U to
    zero by Levenberg-Marquardt on the (d - 1)^2 free phases, a
    zero-residual least-squares problem on which it converges quadratically
    near a regular solution; each candidate whose squared residual is below
    1e-10 is finished by an alternating moduli/polar polish. Restart 0 uses
    zero phases (catching permutations and real-orthogonal cases), restart
    1 Fourier phases, the rest random.
    Restart 0 makes U real, where J^T R vanishes, so only its polish runs.
    The others run batched in lockstep (see _phase_lm): restart 1 takes its
    first step alone, the random ones join from the second, and the search
    stops at the first witness that verifies. The result is reproducible
    for a given cfg. Returns None when nothing verifies; absence of a
    witness is an "unknown", not a "no".
    """
    cfg = cfg or OracleConfig()
    t = assert_transition_matrix(t)
    if not is_bistochastic(t):
        return None
    u = _moduli_polish(np.sqrt(t).astype(np.complex128), t)
    if _verify_witness(u, t):
        return u
    return _phase_lm(t, _phase_waves(t.shape[0], cfg))
