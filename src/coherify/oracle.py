"""Brute-force validators: feasible-set sampling, purity maximization,
Haar Monte-Carlo averages, and the unitary-witness search for unistochastic
matrices.

The feasible set explored here is the spectrahedron of Jamiolkowski states
with a fixed diagonal (equivalently a fixed classical action) and the
trace-preservation partial-trace constraint. Points are produced by the
exact Frobenius projection onto it (:func:`_project`): semismooth Newton
steps on the dual of the projection problem, whose variables are the m
affine constraints' multipliers (Malick, SIAM J. Matrix Anal. Appl. 26(1),
2004; Qi & Sun, SIAM J. Matrix Anal. Appl. 28(2), 2006). Newton converges
quadratically on that dual, also where some entries of T are tiny. The
projection returns its multipliers, and the purity ascent starts each
projection from the previous one's.

The purity maximizer works in block space: every constraint lies in the
diagonal blocks of J, and the largest purity over the states with given
blocks is a convex function of the blocks' spectra (the block-majorization
theorem of :mod:`coherify.bounds`), so it ascends that function over
block-diagonal points, projecting them block by block, and couples the best
blocks into one state.

The witness search is Levenberg-Marquardt on the (d - 1)^2 free phases of
the dephased U = sqrt(T) o e^{i phi}, with the strict upper triangle of
U^dag U as its residual: a zero-residual least-squares problem, on which
it converges quadratically near a regular solution. Its restarts run
batched in lockstep, and it stops at the first witness that verifies.

Randomness comes from the counter-based Philox generator, keyed by
``seed + stream index``, so runs are bit-reproducible, and a member's
projection does not depend on the batch it is projected in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .constructions import coherify_c0
from .errors import ConvergenceFailure
from .matcore import dag
from .stochastic import assert_transition_matrix

__all__ = [
    "OracleConfig",
    "sample_fixed_action",
    "maximize_purity",
    "maximize_purity_many",
    "haar_unitarity_mc",
    "search_unistochastic_witness",
    "rand_channel",
    "haar_unitary",
]


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the numerical validators.

    restarts is the number of starts per input of the purity maximizer and
    of the witness search;
    max_iterations caps the Newton steps of each projection onto the
    feasible set, the steps of each purity ascent and the
    Levenberg-Marquardt steps, accepted or rejected, of each restart of the
    witness search; tolerance is the feasibility residual of the sampled
    channels (the maximizer works at min(tolerance, 1e-9)).
    """

    seed: int = 42
    restarts: int = 64
    max_iterations: int = 2000
    tolerance: float = 1e-7

    def __post_init__(self):
        if self.restarts <= 0 or self.max_iterations <= 0:
            raise ValueError("restarts and max_iterations must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) + np.uint64(stream)))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_channel(d: int, rng: np.random.Generator, rank: int | None = None) -> Channel:
    """Random CPTP map: a Wishart Choi matrix normalized to the right partial trace."""
    rank = rank or d * d
    g = (rng.standard_normal((d * d, rank)) + 1j * rng.standard_normal((d * d, rank))) / np.sqrt(2)
    w = g @ dag(g)
    s = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        s += w[i * d:(i + 1) * d, i * d:(i + 1) * d]
    ev, vec = np.linalg.eigh(s)
    s_isqrt = (vec * (1.0 / np.sqrt(np.maximum(ev, 1e-300)))) @ dag(vec)
    a = np.kron(np.eye(d), s_isqrt)
    jam = a @ w @ dag(a) / d
    return Channel(jam, atol=1e-9)


# ---------------------------------------------------------------------------
# feasible-set geometry (batched over a leading axis)
# ---------------------------------------------------------------------------


class _FeasibleSet:
    """The spectrahedron {J >= 0, diag J = vec(T)/d, off-diagonal Tr_1 J = 0}.

    Zero entries of vec(T)/d force the corresponding rows and columns of J to
    vanish (|J_mn|^2 <= J_mm J_nn), so all work happens on the rows over the
    support of vec(T). The object holds only the support structure and the
    layout; per-member diagonal targets are passed to the projections, which
    lets one batch many transition matrices with a common zero pattern.

    Points are stacks (..., nb, s, s) of nb blocks of size s. In the full
    layout nb = 1 and s = n, the size of the support: the submatrix of J over
    the support. In the block layout nb = s = d: J's diagonal blocks, block i
    holding the rows (i, k), k = 0..d-1, of J; rows outside the support are
    zero padding, in no constraint (a point's padding stays zero under the
    projection). The block layout holds only block-diagonal points, and the
    projection of a block-diagonal point is block diagonal, since every
    constraint lies in J's diagonal blocks.

    The affine constraints are A(J) = b with m = n + 2 * n_groups real rows:
    the n diagonal entries, then the real and the imaginary part of each
    group's sum of entries (one group per pair k < l of output indices). Both
    layouts order them alike, so targets and multipliers carry over.
    """

    def __init__(self, d: int, support: np.ndarray, blocks: bool = False):
        self.d = d
        self.full_dim = d * d
        self.support = support
        self.n = support.size
        # (block, row) of each support index
        if blocks:
            self.nb, self.s = d, d
            self.blk, self.row = support // d, support % d
        else:
            self.nb, self.s = 1, self.n
            self.blk, self.row = np.zeros(self.n, dtype=np.intp), np.arange(self.n)
        # the support is sorted, so each block's diagonal entries are a slice
        edges = np.searchsorted(self.blk, np.arange(self.nb + 1))
        self.block_entries = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
        live = np.zeros((self.nb, self.s), dtype=bool)
        live[self.blk, self.row] = True
        # 1 on the entries whose row and column lie in the support, 0 on the padding
        self.mask = (live[:, :, None] & live[:, None, :]).astype(np.float64)
        compressed = {m: i for i, m in enumerate(support)}
        pos, group_id, slots = [], [], []
        gid = 0
        for k in range(d):
            for l in range(k + 1, d):
                # a member's row and column share a block, the i of J's rows
                # (i, k) and (i, l)
                members = [
                    (self.blk[compressed[i * d + k]], self.row[compressed[i * d + k]],
                     self.row[compressed[i * d + l]])
                    for i in range(d)
                    if i * d + k in compressed and i * d + l in compressed
                ]
                if not members:
                    continue
                pos += members
                group_id += [gid] * len(members)
                # a group's members in one block form a slot: the whole group
                # in the full layout, each member alone in the block layout
                by_block = {}
                for b, r, c in members:
                    by_block.setdefault(b, []).append((r, c))
                slots += [(gid, b, pairs) for b, pairs in by_block.items()]
                gid += 1
        # each member's (block, row, col) position, listed group by group
        self.pos_b, self.pos_r, self.pos_c = np.asarray(pos, dtype=np.intp).reshape(-1, 3).T
        self.group_id = np.asarray(group_id, dtype=np.intp)
        self.n_groups = gid
        self.m = self.n + 2 * gid
        sizes = np.bincount(self.group_id, minlength=gid)
        self.group_start = np.cumsum(sizes) - sizes
        # per slot its group, its block and its members' rows and columns,
        # padded with the index s of a zero row
        width = max((len(pairs) for _, _, pairs in slots), default=0)
        pad = [(self.s, self.s)]
        table = np.asarray([pairs + pad * (width - len(pairs)) for _, _, pairs in slots],
                           dtype=np.intp).reshape(len(slots), width, 2)
        self.slot_group = np.asarray([g for g, _, _ in slots], dtype=np.intp)
        self.slot_block = np.asarray([b for _, b, _ in slots], dtype=np.intp)
        self.slot_rows, self.slot_cols = table[..., 0], table[..., 1]
        # A A^* is diagonal: the constraint matrices have disjoint supports
        self.gram = np.concatenate([np.ones(self.n), sizes / 2, sizes / 2])
        # (block, row, col) positions moving points between layouts: the
        # support pairs (p, q) in a common block, and their places in J
        p, q = np.nonzero(self.blk[:, None] == self.blk[None, :])
        self._in_layout = (self.blk[p], self.row[p], self.row[q])
        self._in_support = (p, q)
        self._in_full = (support[p], support[q])

    @classmethod
    def for_action(cls, t: np.ndarray, blocks: bool = False) -> "_FeasibleSet":
        d = t.shape[0]
        return cls(d, np.flatnonzero(t.reshape(-1) > 0), blocks)

    def target(self, t: np.ndarray) -> np.ndarray:
        return (t.reshape(-1) / self.d)[self.support]

    def _points(self, batch: tuple) -> np.ndarray:
        return np.zeros(batch + (self.nb, self.s, self.s), dtype=np.complex128)

    def compress(self, x_full: np.ndarray) -> np.ndarray:
        """Layout points of (..., d^2, d^2) matrices (in the block layout, of
        their diagonal blocks)."""
        out = self._points(x_full.shape[:-2])
        out[(...,) + self._in_layout] = x_full[(...,) + self._in_full]
        return out

    def embed(self, x: np.ndarray) -> np.ndarray:
        """The (..., d^2, d^2) matrices of layout points x."""
        out = np.zeros(x.shape[:-3] + (self.full_dim, self.full_dim), dtype=np.complex128)
        out[(...,) + self._in_full] = x[(...,) + self._in_layout]
        return out

    def group_sums(self, x: np.ndarray) -> np.ndarray:
        # reduceat adds each row in order, so a member's sums do not depend on
        # how many rows the batch has (a matrix product's kernel might)
        members = x[..., self.pos_b, self.pos_r, self.pos_c]
        return np.add.reduceat(members, self.group_start, axis=-1)

    def constraints(self, x: np.ndarray) -> np.ndarray:
        """A(x), shape (..., m)."""
        parts = [x[..., self.blk, self.row, self.row].real]
        if self.n_groups:
            sums = self.group_sums(x)
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
        V of each block, as (B, m, nb * s * s).

        G_k = e_i e_i^T for a diagonal row, in the block of row i; a group's
        rows are the Hermitian and anti-Hermitian parts of E = sum of its
        e_r e_c^T, so with P = V^dag E V, block by block, they are
        (P + P^dag) / 2 and i (P - P^dag) / 2.
        """
        n, groups = self.n, self.n_groups
        out = np.zeros((len(v), self.m, self.nb, self.s, self.s), dtype=np.complex128)
        rows = v[:, self.blk, self.row]          # row i of V, for each diagonal entry i
        for b, entries in enumerate(self.block_entries):
            np.multiply(rows[:, entries, :, None].conj(), rows[:, entries, None, :],
                        out=out[:, entries, b])
        if groups:
            vz = np.concatenate([v, np.zeros(v.shape[:2] + (1, self.s))], axis=2)
            blk = self.slot_block[:, None]
            p = np.swapaxes(vz[:, blk, self.slot_rows].conj(), -1, -2) @ vz[:, blk, self.slot_cols]
            ph = dag(p)
            out[:, n + self.slot_group, self.slot_block] = (p + ph) * 0.5
            out[:, n + groups + self.slot_group, self.slot_block] = (p - ph) * 0.5j
        return out.reshape(len(v), self.m, -1)

    def residual(self, x: np.ndarray, target: np.ndarray) -> np.ndarray:
        err = np.abs(x[..., self.blk, self.row, self.row].real - target).max(axis=-1)
        if self.n_groups:
            err = np.maximum(err, np.abs(self.group_sums(x)).max(axis=-1))
        return err

    def random_start(self, target: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Random Hermitian start near the feasible set, as a layout point.

        Off-diagonal noise is enveloped by sqrt(t_m t_n), the largest modulus
        the PSD cone allows at that position, so starts stay well conditioned
        even when some diagonal targets are tiny. The block layout keeps the
        noise inside the blocks.
        """
        env = np.sqrt(np.outer(target, target))
        scale = rng.uniform(0.1, 0.9)
        g = rng.standard_normal((self.n, self.n)) + 1j * rng.standard_normal((self.n, self.n))
        x = np.diag(target) + scale * (g + dag(g)) / 2 * env
        out = self._points(())
        out[self._in_layout] = x[self._in_support]
        return out


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

    x0 is a stack (B, nb, s, s) of points in feas's layout; entries outside
    the support are dropped. Minimizes the dual theta(y) = |Pi_+(S + A^*
    y)|^2 / 2 - b.y, whose minimizer gives the projection Y = Pi_+(S + A^* y)
    and whose gradient is A(Y) - b, by semismooth Newton with Armijo
    backtracking. It starts from the multipliers y0, one row per member, or
    from the affine projection's multipliers when y0 is None. Returns (Y,
    converged, y): Y is exactly PSD and C-ordered, y holds each member's
    final multipliers, so that Y = Pi_+(S + A^* y); a member is converged,
    and leaves the batch, once feas.residual(Y) <= tol, and max_iter caps its
    Newton steps (a member that starts converged takes none). target is one
    diagonal target for every member or one per member. Each member's
    arithmetic does not depend on the rest of the batch, so projecting a
    batch equals projecting its members one by one.
    """
    # C order whatever x0's memory layout: callers reduce over Y's last axes,
    # and the rounding of those sums follows the memory order
    x0 = np.ascontiguousarray(x0, dtype=np.complex128)
    s = np.ascontiguousarray((x0 + dag(x0)) / 2 * feas.mask)
    size = s.shape[0]
    target = np.broadcast_to(target, (size, feas.n))
    b = np.zeros((size, feas.m))
    b[:, :feas.n] = target
    if y0 is None:
        y = (b - feas.constraints(s)) / feas.gram
    else:
        y = np.asarray(y0, dtype=np.float64)
    w, v, theta, slack = _dual_point(feas, s, y, b)
    out = np.empty_like(s)
    y_out = np.empty_like(y)
    converged = np.zeros(size, dtype=bool)
    live = np.arange(size)
    for step in range(max_iter + 1):
        point = _psd_part(w, v)
        done = feas.residual(point, target) <= tol
        out[live[done]] = point[done]
        y_out[live[done]] = y[done]
        converged[live[done]] = True
        if step == max_iter or done.all():
            out[live[~done]] = point[~done]
            y_out[live[~done]] = y[~done]
            break
        if done.any():
            keep = ~done
            live, s, b, target, y = live[keep], s[keep], b[keep], target[keep], y[keep]
            w, v, theta, slack, point = w[keep], v[keep], theta[keep], slack[keep], point[keep]
        grad = feas.constraints(point) - b
        dy = _newton_step(feas, w, v, grad)
        slope = _ARMIJO * (grad * dy).sum(axis=-1)
        t = np.ones(len(live))
        y_new = y + dy
        w_new, v_new, th_new, sl_new = _dual_point(feas, s, y_new, b)
        back = np.flatnonzero(th_new > theta + slope + slack)
        for _ in range(_MAX_HALVINGS):
            if not back.size:
                break
            t[back] *= 0.5
            y_new[back] = y[back] + t[back, None] * dy[back]
            w_new[back], v_new[back], th_new[back], sl_new[back] = _dual_point(
                feas, s[back], y_new[back], b[back])
            back = back[th_new[back] > theta[back] + t[back] * slope[back] + slack[back]]
        y, w, v, theta, slack = y_new, w_new, v_new, th_new, sl_new
    return out, converged, y_out


def sample_fixed_action(t, n: int, cfg: OracleConfig | None = None) -> list[Channel]:
    """n random channels whose classical action is T.

    Each sample starts from the classical (diagonal) Jamiolkowski state plus
    a random Hermitian perturbation of random magnitude and is projected
    onto the feasible set; non-converged samples raise.
    """
    cfg = cfg or OracleConfig()
    t = assert_transition_matrix(t)
    feas = _FeasibleSet.for_action(t)
    target = feas.target(t)
    starts = np.empty((n, feas.nb, feas.s, feas.s), dtype=np.complex128)
    for i in range(n):
        starts[i] = feas.random_start(target, _rng(cfg.seed, i))
    y, ok, _ = _project(feas, starts, target, cfg.tolerance, cfg.max_iterations)
    if not ok.all():
        raise ConvergenceFailure(
            f"{int((~ok).sum())} of {n} samples did not reach tolerance "
            f"{cfg.tolerance} within {cfg.max_iterations} Newton steps"
        )
    return [Channel(feas.embed(y[i]), atol=1e-6) for i in range(n)]


def _purity(x: np.ndarray) -> np.ndarray:
    return (np.abs(x) ** 2).sum(axis=(-3, -2, -1)).real


def maximize_purity_many(ts, cfg: OracleConfig | None = None) -> list[tuple[Channel, float]]:
    """Batched :func:`maximize_purity`; one (channel, purity) pair per input.

    Inputs are grouped by the zero pattern of vec(T) so each group shares one
    feasible-set structure and the whole group ascends in a single batch.
    """
    cfg = cfg or OracleConfig()
    ts = [assert_transition_matrix(t) for t in ts]
    results: list[tuple[Channel, float] | None] = [None] * len(ts)
    by_pattern: dict[tuple, list[int]] = {}
    for i, t in enumerate(ts):
        key = tuple((t.reshape(-1) > 0).tolist())
        by_pattern.setdefault(key, []).append(i)
    for idxs in by_pattern.values():
        group = [ts[i] for i in idxs]
        for i, res in zip(idxs, _maximize_group(group, idxs, cfg)):
            results[i] = res
    return results  # type: ignore[return-value]


def _maximize_group(group, global_idx, cfg: OracleConfig):
    """Block-space ascent for inputs sharing one zero pattern (see
    :func:`maximize_purity`)."""
    feas = _FeasibleSet.for_action(group[0])
    blocks = _FeasibleSet.for_action(group[0], blocks=True)
    per = cfg.restarts
    tol = min(cfg.tolerance, 1e-9)
    targets = np.empty((len(group) * per, feas.n))
    x = np.empty((len(group) * per, blocks.nb, blocks.s, blocks.s), dtype=np.complex128)
    for gi, t in enumerate(group):
        tg = feas.target(t)
        base = gi * per
        targets[base:base + per] = tg
        x[base] = blocks.compress(coherify_c0(t).channel.jam)
        for k in range(1, per):
            rng = _rng(cfg.seed, 10_000 + global_idx[gi] * per + k)
            x[base + k] = blocks.random_start(tg, rng)

    def f_and_grad(x):
        w, v = np.linalg.eigh(x)
        w, v = w[..., ::-1], v[..., ::-1]        # each block's eigenvalues in descending order
        s_n = w.sum(axis=-2)                     # coupled sums per rank
        g = np.einsum("bikn,bn,biln->bikl", v, 2.0 * s_n, v.conj())
        return (s_n ** 2).sum(axis=-1), g

    # f is convex, so from a feasible point each projected unit step gains at
    # least its squared length: the ascent is monotone without a step rule.
    # The starts themselves are not projected (nor counted as feasible): each
    # takes its first step from where it is. The gradient has entries in the
    # padding rows; the projection drops them
    _, g = f_and_grad(x)
    f = np.full(len(x), -np.inf)
    duals = np.zeros((len(x), feas.m))
    live = np.arange(len(x))
    for _ in range(cfg.max_iterations):
        if not live.size:
            break
        z, ok, y = _project(blocks, x[live] + g[live], targets[live], tol, cfg.max_iterations,
                            duals[live])
        fz, gz = f_and_grad(z[ok])
        moved = live[ok]
        gain = fz - f[moved]
        x[moved], duals[moved], f[moved], g[moved] = z[ok], y[ok], fz, gz
        live = moved[gain > 1e-12 * fz]

    f = f.reshape(len(group), per)
    if np.isneginf(f.max(axis=1)).any():
        raise ConvergenceFailure("no restart reached a feasible point")
    # couple each input's best blocks: psi_n = sum_i sqrt(lambda_n^i) e_i (x) v_n^i
    # has J's blocks and purity f
    w, v = np.linalg.eigh(x[np.arange(len(group)) * per + f.argmax(axis=1)])
    w, v = w[..., ::-1], v[..., ::-1]
    psi = np.sqrt(np.maximum(w, 0.0)[..., blocks.blk, :]) * v[..., blocks.blk, blocks.row, :]
    couplers = np.einsum("bpn,bqn->bpq", psi, psi.conj())
    # the full layout's one block is the matrix over the support
    y, _, _ = _project(feas, couplers[:, None], targets[::per], tol, cfg.max_iterations)
    purities = _purity(y)
    return [
        (Channel(feas.embed(y[gi]), atol=1e-6), float(purities[gi])) for gi in range(len(group))
    ]


def maximize_purity(t, cfg: OracleConfig | None = None) -> tuple[Channel, float]:
    """Heuristic maximum of gamma(J) over channels with classical action T.

    The search runs in block space. Every constraint on J lies in its
    diagonal blocks B^i, and by the block-majorization theorem the largest
    purity of a J with given blocks is f(B) = sum_n (sum_i lambda_n(B^i))^2,
    eigenvalues in decreasing order, reached by coupling the blocks' ordered
    eigenvectors. So each start ascends f over feasible block-diagonal
    points by x <- Pi(x + grad f(x)), beginning at the start itself. The
    projection of a block-diagonal point is block diagonal, so it runs on
    the d diagonal blocks alone (the block layout of _FeasibleSet), and each
    one is warm-started from the multipliers of the step before. f is
    convex, so from a feasible point every step gains at least its own
    squared length; a start stops once its gain is at most 1e-12 f, when
    its projection fails, or after cfg.max_iterations steps. The starts of
    each input are the diagonal blocks of the row-grouping coherification
    (feasible, so the result is never below its purity, the known lower
    bound) and cfg.restarts - 1 random block-diagonal points. The best point
    of each input is coupled and projected once more.

    Every projection works to the residual min(cfg.tolerance, 1e-9). The
    value returned is the purity of a point feasible to that residual, at a
    local maximum of f: it is no optimality certificate, and it can exceed
    the true optimum by a few 1e-9. Raises ConvergenceFailure when no start
    of an input reaches a feasible point.
    """
    return maximize_purity_many([t], cfg)[0]


def haar_unitarity_mc(ch: Channel, samples: int, seed: int = 42) -> tuple[float, float]:
    """Monte-Carlo unitarity: d/(d-1) [ <gamma(Phi(psi))>_Haar - gamma(Phi(1/d)) ].

    Haar pure states are normalized complex Gaussian vectors. Returns the
    estimate and its standard error.
    """
    from .diagnostics import maxmixed_output_purity

    d = ch.dim
    rng = _rng(seed)
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
    random ones (Philox streams 20_000 + r). _phase_lm dephases them."""
    j = np.arange(d)
    if cfg.restarts > 1:
        yield (2 * np.pi * np.outer(j, j) / d)[None]
    if cfg.restarts > 2:
        yield np.stack([
            _rng(cfg.seed, 20_000 + r).uniform(0, 2 * np.pi, size=(d, d))
            for r in range(2, cfg.restarts)
        ])


# Levenberg-Marquardt on the phases: a fresh restart's damping, the factors
# that divide it after an accepted step and multiply it after a rejected
# one, the damping past which a restart has stalled, and the objective below
# which it is solved
_LM_DAMPING = 1e-3
_LM_DOWN, _LM_UP = 3.0, 2.0
_LM_STALL = 1e12
_LM_SOLVED = 1e-24


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


def _phase_lm(t: np.ndarray, waves, max_iterations: int) -> np.ndarray | None:
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
    below 1e-24, after max_iterations steps, or once lambda passes 1e12 (it
    has stalled); it is then polished and verified at once. Restarts
    leaving together are verified in restart order.
    """
    from .stochastic import _moduli_polish, _verify_witness

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
            left = np.concatenate([left, np.full(len(wave), max_iterations)])
        elif not len(phi):
            return None
        out = (f < _LM_SOLVED) | (left == 0) | (lam > _LM_STALL)
        if out.any():
            for phases in phi[out]:
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
    near a regular solution; each candidate is finished by an alternating
    moduli/polar polish. Restart 0 uses zero phases (catching permutations
    and real-orthogonal cases), restart 1 Fourier phases, the rest random.
    Restart 0 makes U real, where J^T R vanishes, so only its polish runs.
    The others run batched in lockstep (see _phase_lm): restart 1 takes its
    first step alone, the random ones join from the second, and the search
    stops at the first witness that verifies. The result is reproducible
    for a given cfg. Returns None when nothing verifies; absence of a
    witness is an "unknown", not a "no".
    """
    from .stochastic import _moduli_polish, _verify_witness, is_bistochastic

    cfg = cfg or OracleConfig()
    t = assert_transition_matrix(t)
    if not is_bistochastic(t):
        return None
    u = _moduli_polish(np.sqrt(t).astype(np.complex128), t)
    if _verify_witness(u, t):
        return u
    return _phase_lm(t, _phase_waves(t.shape[0], cfg), cfg.max_iterations)
