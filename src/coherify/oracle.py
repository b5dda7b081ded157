"""Brute-force validators: feasible-set sampling, purity maximization,
Haar Monte-Carlo averages, and the unitary-witness search for unistochastic
matrices.

The feasible set explored here is the spectrahedron of Jamiolkowski states
with a fixed diagonal (equivalently a fixed classical action) and the
trace-preservation partial-trace constraint. Points are produced by Dykstra
alternating projections between the PSD cone and that affine subspace; plain
alternation would converge to a point violating one of the two constraints,
Dykstra's correction term restores convergence to the true projection.

Randomness comes from the counter-based Philox generator, keyed by
``seed + stream index``, so runs are bit-reproducible and independent of how
work is chunked across threads. The COHERIFY_THREADS environment variable
caps the number of worker threads (default: single-threaded).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
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

    max_iterations caps each Dykstra projection and each restart of the
    witness search; step_size is the constant gradient step of the purity
    ascent; tolerance is the feasibility residual accepted during search
    (final answers are polished tighter).
    """

    seed: int = 42
    restarts: int = 64
    max_iterations: int = 2000
    step_size: float = 0.05
    tolerance: float = 1e-7

    def __post_init__(self):
        if self.restarts <= 0 or self.max_iterations <= 0:
            raise ValueError("restarts and max_iterations must be positive")
        if self.step_size <= 0 or self.tolerance <= 0:
            raise ValueError("step_size and tolerance must be positive")


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) + np.uint64(stream)))


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("COHERIFY_THREADS", "1")))
    except ValueError:
        return 1


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
    vanish (|J_mn|^2 <= J_mm J_nn), so all work happens on the submatrix over
    the support of vec(T). The object holds only the support structure;
    per-member diagonal targets are passed to the projections, which lets one
    batch many transition matrices with a common zero pattern.
    """

    def __init__(self, d: int, support: np.ndarray):
        self.d = d
        self.full_dim = d * d
        self.support = support
        self.n = support.size
        compressed = {m: i for i, m in enumerate(support)}
        pos_r, pos_c, group_id = [], [], []
        gid = 0
        for k in range(d):
            for l in range(k + 1, d):
                members = [
                    (compressed[i * d + k], compressed[i * d + l])
                    for i in range(d)
                    if i * d + k in compressed and i * d + l in compressed
                ]
                if not members:
                    continue
                for (r, c) in members:
                    pos_r.append(r)
                    pos_c.append(c)
                    group_id.append(gid)
                gid += 1
        self.pos_r = np.asarray(pos_r, dtype=np.intp)
        self.pos_c = np.asarray(pos_c, dtype=np.intp)
        self.group_id = np.asarray(group_id, dtype=np.intp)
        self.n_groups = gid
        if gid:
            sizes = np.bincount(self.group_id, minlength=gid).astype(np.float64)
            self.inv_size = 1.0 / sizes[self.group_id]
            self.onehot = np.zeros((len(pos_r), gid))
            self.onehot[np.arange(len(pos_r)), self.group_id] = 1.0

    @classmethod
    def for_action(cls, t: np.ndarray) -> "_FeasibleSet":
        d = t.shape[0]
        return cls(d, np.flatnonzero(t.reshape(-1) > 0))

    def target(self, t: np.ndarray) -> np.ndarray:
        return (t.reshape(-1) / self.d)[self.support]

    def compress(self, x_full: np.ndarray) -> np.ndarray:
        return x_full[..., self.support[:, None], self.support[None, :]]

    def embed(self, x_sub: np.ndarray) -> np.ndarray:
        out = np.zeros(x_sub.shape[:-2] + (self.full_dim, self.full_dim), dtype=np.complex128)
        out[..., self.support[:, None], self.support[None, :]] = x_sub
        return out

    def affine_project(self, x: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Exact Frobenius projection onto the affine constraints (in place)."""
        x = (x + np.conj(np.swapaxes(x, -1, -2))) / 2
        idx = np.arange(self.n)
        x[..., idx, idx] = target
        if self.n_groups:
            vals = x[..., self.pos_r, self.pos_c]
            sums = vals @ self.onehot
            vals = vals - sums[..., self.group_id] * self.inv_size
            x[..., self.pos_r, self.pos_c] = vals
            x[..., self.pos_c, self.pos_r] = np.conj(vals)
        return x

    def residual(self, x: np.ndarray, target: np.ndarray) -> np.ndarray:
        idx = np.arange(self.n)
        err = np.abs(x[..., idx, idx].real - target).max(axis=-1)
        if self.n_groups:
            sums = x[..., self.pos_r, self.pos_c] @ self.onehot
            err = np.maximum(err, np.abs(sums).max(axis=-1))
        return err

    def random_start(self, target: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Random Hermitian start near the feasible set.

        Off-diagonal noise is enveloped by sqrt(t_m t_n), the largest modulus
        the PSD cone allows at that position, so starts stay well conditioned
        even when some diagonal targets are tiny.
        """
        env = np.sqrt(np.outer(target, target))
        scale = rng.uniform(0.1, 0.9)
        g = rng.standard_normal((self.n, self.n)) + 1j * rng.standard_normal((self.n, self.n))
        return np.diag(target) + scale * (g + dag(g)) / 2 * env


def _psd_project(x: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(x)
    w = np.maximum(w, 0.0)
    y = (v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return (y + np.conj(np.swapaxes(y, -1, -2))) / 2


def _sub_target(target: np.ndarray, mask) -> np.ndarray:
    return target[mask] if target.ndim > 1 else target


def _dykstra(feas: _FeasibleSet, x0: np.ndarray, target: np.ndarray, tol: float, max_iter: int):
    """Batched Dykstra projection onto {PSD} cap {affine}.

    Returns (Y, converged): Y is exactly PSD with affine residual below tol
    for converged members. The correction term is kept for the cone only;
    an affine set needs none.
    """
    x = feas.affine_project(x0.copy(), target)
    p = np.zeros_like(x)
    y = x.copy()
    converged = np.zeros(x.shape[0], dtype=bool)
    for _ in range(max_iter):
        active = ~converged
        if not active.any():
            break
        t_act = _sub_target(target, active)
        y_act = _psd_project(x[active] + p[active])
        p[active] = x[active] + p[active] - y_act
        y[active] = y_act
        x[active] = feas.affine_project(y_act.copy(), t_act)
        newly = np.zeros_like(converged)
        newly[np.flatnonzero(active)] = feas.residual(y_act, t_act) <= tol
        converged |= newly
    return y, converged


def _chunks(n: int, parts: int):
    sizes = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
    out, start = [], 0
    for s in sizes:
        if s:
            out.append((start, start + s))
        start += s
    return out


def sample_fixed_action(t, n: int, cfg: OracleConfig | None = None) -> list[Channel]:
    """n random channels whose classical action is T.

    Each sample starts from the classical (diagonal) Jamiolkowski state plus
    a random Hermitian perturbation of random magnitude and is Dykstra
    projected to the feasible set; non-converged samples raise.
    """
    cfg = cfg or OracleConfig()
    t = assert_transition_matrix(t)
    feas = _FeasibleSet.for_action(t)
    target = feas.target(t)
    ns = feas.n

    def build(span):
        lo, hi = span
        starts = np.empty((hi - lo, ns, ns), dtype=np.complex128)
        for i in range(lo, hi):
            starts[i - lo] = feas.random_start(target, _rng(cfg.seed, i))
        y, ok = _dykstra(feas, starts, target, cfg.tolerance, cfg.max_iterations)
        if not ok.all():
            raise ConvergenceFailure(
                f"{int((~ok).sum())} of {hi - lo} samples did not reach tolerance "
                f"{cfg.tolerance} within {cfg.max_iterations} iterations"
            )
        return [Channel(feas.embed(y[i]), atol=1e-6) for i in range(hi - lo)]

    workers = _worker_count()
    spans = _chunks(n, min(workers, n) or 1)
    if workers == 1 or len(spans) == 1:
        parts = [build(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(build, spans))
    return [ch for part in parts for ch in part]


def _purity(x: np.ndarray) -> np.ndarray:
    return (np.abs(x) ** 2).sum(axis=(-2, -1)).real


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


def _herm_basis(r: int) -> np.ndarray:
    """Orthonormal real basis of r x r Hermitian matrices."""
    out = []
    for i in range(r):
        e = np.zeros((r, r), dtype=np.complex128)
        e[i, i] = 1.0
        out.append(e)
    for i in range(r):
        for j in range(i + 1, r):
            e = np.zeros((r, r), dtype=np.complex128)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2)
            out.append(e)
            e = np.zeros((r, r), dtype=np.complex128)
            e[i, j] = 1j / np.sqrt(2)
            e[j, i] = -1j / np.sqrt(2)
            out.append(e)
    return np.stack(out)


def _face_solve(feas: _FeasibleSet, w_top, targets, basis, iters: int = 6):
    """Feasible point on the face spanned by the frames w_top (B, ns, r).

    On a fixed face the affine constraints are linear in the r x r Hermitian
    factor, solved by pseudo-inverse; PSD-clipping the factor and re-taking
    the top eigenvectors lets the face rotate a little between solves. Only
    useful when r^2 does not exceed the number of constraints, so that the
    solve pins the face's unique feasible candidate.
    """
    idx = np.arange(feas.n)
    rank = w_top.shape[-1]
    x = None
    for it in range(iters):
        we = np.einsum("bnr,qrs->bqns", w_top, basis)
        wew = np.einsum("bqns,bms->bqnm", we, w_top.conj())
        rows = [np.swapaxes(wew[..., idx, idx].real, 1, 2)]
        rhs = [targets]
        if feas.n_groups:
            sums = wew[..., feas.pos_r, feas.pos_c] @ feas.onehot
            rows.append(np.swapaxes(sums.real, 1, 2))
            rows.append(np.swapaxes(sums.imag, 1, 2))
            zeros = np.zeros((w_top.shape[0], feas.n_groups))
            rhs.extend([zeros, zeros])
        a_mat = np.concatenate(rows, axis=1)
        b_vec = np.concatenate(rhs, axis=1)
        sol = np.einsum("bqm,bm->bq", np.linalg.pinv(a_mat), b_vec)
        m_mat = np.einsum("bq,qrs->brs", sol, basis)
        mw, mv = np.linalg.eigh(m_mat)
        mw = np.maximum(mw, 0.0)
        m_mat = (mv * mw[..., None, :]) @ np.conj(np.swapaxes(mv, -1, -2))
        x = np.einsum("bnr,brs,bms->bnm", w_top, m_mat, w_top.conj())
        x = (x + np.conj(np.swapaxes(x, -1, -2))) / 2
        if it < iters - 1:
            _, vv = np.linalg.eigh(x)
            w_top = vv[..., :, feas.n - rank:]
    return x


def _block_scatter(feas: _FeasibleSet):
    """Index arrays mapping compressed block-diagonal entries to (i, k, l)."""
    blk = feas.support // feas.d
    inner = feas.support % feas.d
    p_idx, q_idx, i_idx, k_idx, l_idx = [], [], [], [], []
    for p in range(feas.n):
        for q in range(feas.n):
            if blk[p] == blk[q]:
                p_idx.append(p)
                q_idx.append(q)
                i_idx.append(blk[p])
                k_idx.append(inner[p])
                l_idx.append(inner[q])
    return tuple(np.asarray(a, dtype=np.intp) for a in (p_idx, q_idx, i_idx, k_idx, l_idx))


def _coupling_refinement(feas: _FeasibleSet, targets, seeds, cfg: OracleConfig):
    """Exact reduction of the purity maximum to diagonal-block families.

    The block-majorization theorem bounds gamma(J) by the coupled value
    f = sum_n (sum_i lambda_n(B^i))^2 of J's own diagonal blocks, and the
    bound is attained by the rank-n coupler vectors across blocks. Maximizing
    f over feasible block-diagonal points and coupling the winner therefore
    reproduces the true purity maximum; the search ascends f with analytic
    eigenvalue gradients, seeded with the diagonal family, cap-saturated
    blocks, and the block parts of the ascent's best points.
    """
    d = feas.d
    ns = feas.n
    p_idx, q_idx, i_idx, k_idx, l_idx = _block_scatter(feas)
    cross_mask = np.ones((ns, ns), dtype=bool)
    cross_mask[p_idx, q_idx] = False

    def to_blocks(x):
        out = np.zeros(x.shape[:-2] + (d, d, d), dtype=np.complex128)
        out[..., i_idx, k_idx, l_idx] = x[..., p_idx, q_idx]
        return out

    def block_diag_part(x):
        y = x.copy()
        y[..., cross_mask] = 0.0
        return y

    x = block_diag_part(np.asarray(seeds))
    x, _ = _dykstra(feas, x, targets, cfg.tolerance, cfg.max_iterations)

    def f_and_grad(x):
        blocks = to_blocks(x)
        w, v = np.linalg.eigh(blocks)          # ascending, (B, d, d), (B, d, d, d)
        w = w[..., ::-1]
        v = v[..., ::-1]
        s_n = w.sum(axis=-2)                   # (B, d) coupled sums per rank
        f = (s_n ** 2).sum(axis=-1)
        gw = 2.0 * s_n[..., None, :]           # df/dlambda_n^i
        gblocks = np.einsum("bikn,bin,biln->bikl", v, gw, v.conj())
        g = np.zeros_like(x)
        g[..., p_idx, q_idx] = gblocks[..., i_idx, k_idx, l_idx]
        return f, g

    best = x.copy()
    best_f, _ = f_and_grad(x)
    step = 0.08
    for _ in range(40):
        _, g = f_and_grad(x)
        gn = np.sqrt((np.abs(g) ** 2).sum(axis=(-2, -1)))[:, None, None] + 1e-300
        x = x + step * g / gn
        x, okk = _dykstra(feas, x, targets, cfg.tolerance, 250)
        f, _ = f_and_grad(x)
        improved = okk & (f > best_f)
        best[improved] = x[improved]
        best_f[improved] = f[improved]
        step *= 0.97

    # couple the best family: psi_n = sum_i sqrt(lambda_n^i) e_i (x) v_n^i
    y, ok = _dykstra(feas, best, targets, cfg.tolerance, cfg.max_iterations)
    blocks = to_blocks(y)
    w, v = np.linalg.eigh(blocks)
    w = np.maximum(w[..., ::-1], 0.0)
    v = v[..., ::-1]
    blk = feas.support // d
    inner = feas.support % d
    # psi[b, p, n] = sqrt(w[b, blk[p], n]) * v[b, blk[p], inner[p], n]
    psi = np.sqrt(w[..., blk, :]) * v[..., blk, inner, :]
    couplers = np.einsum("bpn,bqn->bpq", psi, psi.conj())
    return np.where(ok[:, None, None], couplers, y)


def _capped_family_seed(feas: _FeasibleSet, t: np.ndarray, sign: float) -> np.ndarray:
    """Block-diagonal point with every block coherence pushed to the largest
    magnitude compatible with the positivity caps and the zero group sums."""
    d = feas.d
    full = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for k in range(d):
            full[i * d + k, i * d + k] = t[i, k] / d
    for k in range(d):
        for l in range(k + 1, d):
            caps = np.sqrt(t[:, k] * t[:, l]) / d
            if caps.sum() <= 0:
                continue
            top = int(np.argmax(caps))
            rest = caps.sum() - caps[top]
            m = min(caps[top], rest)
            if m <= 0:
                continue
            vals = np.where(
                np.arange(d) == top, m, -m * caps / max(rest, 1e-300)
            )
            vals[top] = m
            for i in range(d):
                full[i * d + k, i * d + l] = sign * vals[i]
                full[i * d + l, i * d + k] = sign * vals[i]
    return feas.compress(full)


def _maximize_group(group, global_idx, cfg: OracleConfig):
    from itertools import combinations

    feas = _FeasibleSet.for_action(group[0])
    ns = feas.n
    r0 = cfg.restarts
    nt = len(group)
    b = nt * r0
    targets = np.empty((b, ns))
    starts = np.empty((b, ns, ns), dtype=np.complex128)
    tilts = np.zeros((b, ns, ns), dtype=np.complex128)
    for gi, t in enumerate(group):
        tg = feas.target(t)
        base = gi * r0
        targets[base:base + r0] = tg
        starts[base] = feas.compress(coherify_c0(t).channel.jam)
        env = np.sqrt(np.outer(tg, tg))
        for k in range(1, r0):
            rng = _rng(cfg.seed, 10_000 + global_idx[gi] * r0 + k)
            starts[base + k] = feas.random_start(tg, rng)
            g = rng.standard_normal((ns, ns)) + 1j * rng.standard_normal((ns, ns))
            tilts[base + k] = (g + dag(g)) / 2 * env

    x, ok0 = _dykstra(feas, starts, targets, cfg.tolerance, cfg.max_iterations)
    best = x.copy()
    best_purity = np.where(ok0, _purity(x), -1e300)

    def checkpoint(z, member_idx):
        y, ok = _dykstra(feas, z, targets[member_idx], cfg.tolerance, cfg.max_iterations)
        pur = np.where(ok, _purity(y), -1e300)
        for row, bi in enumerate(member_idx):
            if pur[row] > best_purity[bi]:
                best_purity[bi] = pur[row]
                best[bi] = y[row]

    # phase 1: ascent with loosely projected steps. The purity gradient 2J is
    # radial, blind to directions where J vanishes, so each restart carries a
    # random linear tilt (annealed away) that gives the flow a drift into
    # every coordinate of the feasible set.
    all_members = np.arange(b)
    inner = 20
    eps = 2.0
    # for d = 2 the coupling stage below is provably exact, so the wander
    # only needs to provide decent face candidates
    steps = 30 if feas.d == 2 else 60
    for step in range(steps):
        x = (1.0 + 2.0 * cfg.step_size) * x + (eps * cfg.step_size) * tilts
        x, _ = _dykstra(feas, x, targets, cfg.tolerance, inner)
        eps *= 0.9
        if (step + 1) % 15 == 0 or step == steps - 1:
            checkpoint(x, all_members)

    # phase 2: face refinement. Extreme points have rank r with r^2 bounded
    # by the number of affine constraints; for each candidate face spanned by
    # subsets of a member's top eigenvectors the unique feasible point is one
    # linear solve away.
    m_con = ns + 2 * feas.n_groups
    r_max = max(1, min(ns, int(np.floor(np.sqrt(m_con)))))
    k_top = min(ns, r_max + 2)
    _, vv = np.linalg.eigh(best)
    top = vv[..., :, ::-1][..., :, :k_top]
    for rank in range(1, r_max + 1):
        basis = _herm_basis(rank)
        w_stack, idx_stack = [], []
        for sub in combinations(range(k_top), rank):
            w_stack.append(top[..., list(sub)])
            idx_stack.append(all_members)
        z = _face_solve(
            feas, np.concatenate(w_stack, axis=0),
            targets[np.concatenate(idx_stack)], basis,
        )
        checkpoint(z, np.concatenate(idx_stack))

    # phase 3: exact reduction to diagonal-block families (see
    # _coupling_refinement); seeded per input with the classical family, both
    # cap-saturated families, and the winner's own blocks
    seeds, seed_targets, seed_members = [], [], []
    for gi, t in enumerate(group):
        sl = slice(gi * r0, (gi + 1) * r0)
        win = gi * r0 + int(best_purity[sl].argmax())
        tg = targets[gi * r0]
        seeds.extend(
            [
                np.diag(tg).astype(np.complex128),
                _capped_family_seed(feas, t, +1.0),
                _capped_family_seed(feas, t, -1.0),
                best[win],
            ]
        )
        seed_targets.extend([tg] * 4)
        seed_members.extend([gi * r0] * 4)
    couplers = _coupling_refinement(
        feas, np.asarray(seed_targets), np.asarray(seeds), cfg
    )
    checkpoint(couplers, np.asarray(seed_members))

    out = []
    for gi in range(nt):
        sl = slice(gi * r0, (gi + 1) * r0)
        if best_purity[sl].max() <= -1e299:
            raise ConvergenceFailure("no restart reached a feasible point")
        win = gi * r0 + int(best_purity[sl].argmax())
        y, _ = _dykstra(
            feas,
            best[win][None],
            targets[win][None],
            min(cfg.tolerance, 1e-9),
            cfg.max_iterations,
        )
        jam = feas.embed(y[0])
        out.append((Channel(jam, atol=1e-6), float(_purity(y[0][None])[0])))
    return out


def maximize_purity(t, cfg: OracleConfig | None = None) -> tuple[Channel, float]:
    """Heuristic maximum of gamma(J) over channels with classical action T.

    Projected gradient ascent: the purity gradient at J is 2J, so each step
    scales the iterate by the constant factor 1 + 2 * cfg.step_size (plus an
    annealed random tilt) and Dykstra projects it back. One restart starts
    from the explicit row-grouping coherification, the rest from random
    feasible points, so the result is never worse than the known lower
    bound. The value returned is a feasible lower bound on the true
    optimum, not an optimality certificate.
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
    """Initial phases of restarts 1..restarts-1: Fourier alone, then the random ones."""
    j = np.arange(d)
    if cfg.restarts > 1:
        yield (2 * np.pi * np.outer(j, j) / d)[None]
    if cfg.restarts > 2:
        yield np.stack([
            _rng(cfg.seed, 20_000 + r).uniform(0, 2 * np.pi, size=(d, d))
            for r in range(2, cfg.restarts)
        ])


def _phase_descent(t: np.ndarray, waves, max_iterations: int) -> np.ndarray | None:
    """Lockstep phase descent of batched restarts; the first verified witness or None.

    waves yields (R_i, d, d) arrays of initial phases; wave i joins the batch
    at iteration i, so a restart of the first wave that succeeds at once
    never pays for the others. Each restart keeps its own step, halved
    whenever its objective rises, and its own iteration count. A restart
    leaves the batch when its objective drops below 1e-20, when its phases
    stop changing (a fixed point: further steps would change nothing) or
    after max_iterations steps; it is then polished and verified at once.
    Restarts leaving together are verified in restart order.
    """
    from .stochastic import _moduli_polish, _verify_witness

    d = t.shape[0]
    m = np.sqrt(t)
    eye = np.eye(d)
    phi = np.empty((0, d, d))
    step = np.empty(0)
    f_prev = np.empty(0)
    left = np.empty(0, dtype=np.intp)
    waves = iter(waves)
    while True:
        wave = next(waves, None)
        if wave is not None:
            phi = np.concatenate([phi, wave])
            step = np.concatenate([step, np.full(len(wave), 0.1)])
            f_prev = np.concatenate([f_prev, np.full(len(wave), np.inf)])
            left = np.concatenate([left, np.full(len(wave), max_iterations)])
        elif not len(phi):
            return None
        u = m * np.exp(1j * phi)
        u_dag = np.conj(np.swapaxes(u, -1, -2))
        g = u_dag @ u - eye
        f = (np.abs(g) ** 2).sum(axis=(-2, -1))
        converged = f < 1e-20
        step = np.where(f > f_prev, 0.5 * step, step)
        f_prev = f
        grad = -4.0 * np.imag(np.swapaxes(g @ u_dag, -1, -2) * u)
        new = np.where(converged[:, None, None], phi, phi - step[:, None, None] * grad)
        left = left - 1
        out = converged | (left == 0) | (new == phi).all(axis=(-2, -1))
        if out.any():
            for phases in new[out]:
                w = _moduli_polish(m * np.exp(1j * phases), t)
                if _verify_witness(w, t):
                    return w
            keep = ~out
            new, step, f_prev, left = new[keep], step[keep], f_prev[keep], left[keep]
        phi = new


def search_unistochastic_witness(t, cfg: OracleConfig | None = None) -> np.ndarray | None:
    """Best-effort unitary witness search for bistochastic T of any size.

    Parametrizes U as sqrt(T) entrywise times free phases and minimizes
    |U^dag U - 1|_F^2 by gradient descent on the phases, finishing with an
    alternating moduli/polar polish. Restart 0 uses zero phases (catching
    permutations and real-orthogonal cases), restart 1 Fourier phases, the
    rest random. Restart 0 makes U real, where the phase gradient vanishes,
    so only its polish runs. The others run batched in lockstep (see
    _phase_descent): restart 1 takes its first step alone, the random ones
    join from the second, and the search stops at the first witness that
    verifies. The result is reproducible for a given cfg. Returns None when
    nothing verifies; absence of a witness is an "unknown", not a "no".
    """
    from .stochastic import _moduli_polish, _verify_witness, is_bistochastic

    cfg = cfg or OracleConfig()
    t = assert_transition_matrix(t)
    if not is_bistochastic(t):
        return None
    u = _moduli_polish(np.sqrt(t).astype(np.complex128), t)
    if _verify_witness(u, t):
        return u
    return _phase_descent(t, _phase_waves(t.shape[0], cfg), cfg.max_iterations)
