import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coherify
from coherify.bounds import mu_lower, mu_upper, polygon_report
from coherify.channels import channel_purity, classical_action
from coherify.diagnostics import path_distribution
from coherify.matcore import eig_hermitian
from coherify.oracle import (
    OracleConfig,
    _FeasibleSet,
    _project,
    _rng,
    haar_unitarity_mc,
    haar_unitary,
    maximize_purity,
    rand_channel,
    sample_fixed_action,
    search_unistochastic_witness,
)
from coherify.stochastic import classify, majorizes
from test_acceptance import Budget

T_EXAMPLE = np.array([[0.7, 0.2, 0.6], [0.1, 0.6, 0.4], [0.2, 0.2, 0.0]])
T_FLAT_OFFDIAG = 0.5 * np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(restarts=0)
    with pytest.raises(ValueError):
        OracleConfig(tolerance=-1)


def test_samples_satisfy_constraints():
    cfg = OracleConfig(seed=42)
    samples = sample_fixed_action(np.eye(2), 50, cfg)
    for smp in samples:
        assert np.abs(classical_action(smp) - np.eye(2)).max() < 1e-6
        assert np.linalg.eigvalsh(smp.jam).min() > -1e-8


def test_samples_respect_bounds():
    cfg = OracleConfig(seed=42)
    samples = sample_fixed_action(T_EXAMPLE, 200, cfg)
    up = mu_upper(T_EXAMPLE)
    for smp in samples:
        lam = path_distribution(smp)
        assert majorizes(up, lam, slack=1e-6, sum_atol=1e-5)
    poly = polygon_report(T_FLAT_OFFDIAG)
    for smp in sample_fixed_action(T_FLAT_OFFDIAG, 200, cfg):
        assert channel_purity(smp) <= poly.purity_upper + 1e-6
        assert majorizes(
            poly.majorization_upper, path_distribution(smp), slack=1e-6, sum_atol=1e-5
        )


def test_sampling_reproducible():
    cfg = OracleConfig(seed=7)
    a = sample_fixed_action(T_EXAMPLE, 5, cfg)
    b = sample_fixed_action(T_EXAMPLE, 5, cfg)
    for x, y in zip(a, b):
        assert np.array_equal(x.jam, y.jam)
    c = sample_fixed_action(T_EXAMPLE, 5, OracleConfig(seed=8))
    assert not np.array_equal(a[0].jam, c[0].jam)


def test_maximize_purity_qubit_exact():
    t = np.array([[1 / 3, 1 / 6], [2 / 3, 5 / 6]])
    _, pur = maximize_purity(t, OracleConfig(seed=42, restarts=4))
    assert abs(pur - 0.625) < 1e-4


def test_maximize_purity_brackets():
    cfg = OracleConfig(seed=42, restarts=8)
    ch, pur = maximize_purity(T_EXAMPLE, cfg)
    lo, up = mu_lower(T_EXAMPLE), mu_upper(T_EXAMPLE)
    assert float(lo @ lo) - 1e-6 <= pur <= float(up @ up) + 1e-6
    assert np.abs(classical_action(ch) - T_EXAMPLE).max() < 1e-6


def test_maximize_purity_flat_offdiagonal():
    _, pur = maximize_purity(T_FLAT_OFFDIAG, OracleConfig(seed=42, restarts=6))
    assert abs(pur - 0.5) < 1e-3


def test_maximize_purity_unistochastic_reaches_one():
    t = np.array([[0.3, 0.3, 0.4], [0.4, 0.3, 0.3], [0.3, 0.4, 0.3]])
    _, pur = maximize_purity(t, OracleConfig(seed=42, restarts=6))
    assert abs(pur - 1.0) < 1e-4


def test_haar_mc_cross_validates():
    from coherify.diagnostics import unitarity

    rng = np.random.default_rng(70)
    ch = rand_channel(2, rng)
    est, se = haar_unitarity_mc(ch, 100_000, seed=3)
    assert abs(est - unitarity(ch)) <= 3 * se


def test_witness_search():
    w4 = np.full((4, 4), 0.25)
    u = search_unistochastic_witness(w4, OracleConfig(seed=42, restarts=8))
    assert u is not None
    assert np.abs(np.abs(u) ** 2 - w4).max() < 1e-6
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-8
    # provably non-unistochastic: nothing found
    assert search_unistochastic_witness(T_FLAT_OFFDIAG, OracleConfig(seed=42, restarts=6)) is None
    # permutations come out of the zero-phase restart immediately
    p = np.eye(5)[:, [3, 0, 4, 1, 2]]
    u = search_unistochastic_witness(p, OracleConfig(seed=42, restarts=2))
    assert u is not None and np.abs(np.abs(u) ** 2 - p).max() < 1e-10


def _flat_block(d, perm_rows, perm_cols):
    t = np.eye(d)
    t[:3, :3] = T_FLAT_OFFDIAG
    return t[perm_rows][:, perm_cols]


def _kron_input(a, b):
    """Permuted kron of two 2x2 bistochastic matrices: unistochastic."""
    ta = np.array([[a, 1 - a], [1 - a, a]])
    tb = np.array([[b, 1 - b], [1 - b, b]])
    return np.kron(ta, tb)[[2, 0, 3, 1]][:, [1, 3, 0, 2]]


def _sequential_search(t, cfg):
    """Reference: Levenberg-Marquardt one restart at a time, each to its exit,
    with the Jacobian built entry by entry."""
    from coherify.oracle import _rng
    from coherify.stochastic import _moduli_polish, _verify_witness

    d = t.shape[0]
    m = np.sqrt(t)
    j = np.arange(d)
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]

    def residual(phi):
        u = m * np.exp(1j * phi)
        g = u.conj().T @ u
        r = np.array([g[a, b].real for a, b in pairs] + [g[a, b].imag for a, b in pairs])
        jac = np.zeros((len(r), (d - 1) ** 2))
        for p, (a, b) in enumerate(pairs):
            for col, (x, y) in enumerate((x, y) for x in range(1, d) for y in range(1, d)):
                dg = 1j * u[x, a].conj() * u[x, b] * ((y == b) - (y == a))
                jac[p, col], jac[len(pairs) + p, col] = dg.real, dg.imag
        return r, jac, float(r @ r)

    for r in range(cfg.restarts):
        if r == 0:
            phi = np.zeros((d, d))
        elif r == 1:
            phi = 2 * np.pi * np.outer(j, j) / d
        else:
            phi = _rng(cfg.seed, 20_000 + r).uniform(0, 2 * np.pi, size=(d, d))
        if r > 0:
            phi = phi - phi[:, :1] - phi[:1, :] + phi[0, 0]
            res, jac, f = residual(phi)
            lam = 1e-3
            for _ in range(cfg.max_iterations):
                if f < 1e-24 or lam > 1e12:
                    break
                step = np.linalg.solve(jac.T @ jac + lam * np.eye((d - 1) ** 2), -jac.T @ res)
                trial = phi.copy()
                trial[1:, 1:] += step.reshape(d - 1, d - 1)
                res_new, jac_new, f_new = residual(trial)
                if f_new < f:
                    phi, res, jac, f, lam = trial, res_new, jac_new, f_new, lam / 3
                else:
                    lam *= 2
        u = _moduli_polish(m * np.exp(1j * phi), t)
        if _verify_witness(u, t):
            return u
    return None


def test_witness_search_none_on_flat_blocks():
    rng = np.random.default_rng(74)
    for d in (4, 5):
        t = _flat_block(d, rng.permutation(d), rng.permutation(d))
        assert search_unistochastic_witness(t, OracleConfig(seed=42)) is None


def test_witness_search_reproducible():
    late = np.abs(haar_unitary(4, np.random.default_rng(103))) ** 2
    for t in (_kron_input(0.3, 0.8), late):
        cfg = OracleConfig(seed=42)
        u1 = search_unistochastic_witness(t, cfg)
        u2 = search_unistochastic_witness(t, cfg)
        assert u1 is not None and np.array_equal(u1, u2)
        assert np.abs(np.abs(u1) ** 2 - t).max() < 1e-8
        assert np.abs(u1.conj().T @ u1 - np.eye(4)).max() < 1e-8


def test_witness_search_agrees_with_sequential_reference():
    rng = np.random.default_rng(75)
    late = np.abs(haar_unitary(4, np.random.default_rng(103))) ** 2
    cases = [
        np.full((4, 4), 0.25),
        T_FLAT_OFFDIAG,
        np.eye(5)[:, [3, 0, 4, 1, 2]],
        _kron_input(0.2, 0.6),
        _flat_block(4, rng.permutation(4), rng.permutation(4)),
        late,
    ]
    cfg = OracleConfig(seed=42, restarts=8)
    for t in cases:
        u = search_unistochastic_witness(t, cfg)
        assert (u is None) == (_sequential_search(t, cfg) is None)
        if u is not None:
            assert np.abs(np.abs(u) ** 2 - t).max() < 1e-8


def test_witness_search_finds_haar_inputs():
    """T = |U|^2 of a Haar unitary is unistochastic by construction; the
    default search must find a witness for each of these 12 inputs."""
    with Budget("witness search on 12 Haar inputs, d = 4 and 5", 30.0):
        for d in (4, 5):
            for s in range(100, 106):
                t = np.abs(haar_unitary(d, np.random.default_rng(s))) ** 2
                cls = classify(t)
                assert cls.unistochastic == "yes", (d, s)
                u = cls.witness_unitary
                assert np.abs(np.abs(u) ** 2 - t).max() <= 1e-8
                assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-8


def test_rand_channel_valid():
    rng = np.random.default_rng(71)
    for d in (2, 3):
        ch = rand_channel(d, rng)
        assert ch.dim == d
        assert np.abs(classical_action(ch).sum(axis=0) - 1).max() < 1e-9


def test_maximize_purity_deterministic():
    cfg = OracleConfig(seed=9, restarts=3)
    ch1, p1 = maximize_purity(T_EXAMPLE, cfg)
    ch2, p2 = maximize_purity(T_EXAMPLE, cfg)
    assert p1 == p2
    assert np.array_equal(ch1.jam, ch2.jam)


def test_kraus_cache_thread_safe():
    import threading

    rng = np.random.default_rng(72)
    ch = rand_channel(3, rng)
    results = []

    def grab():
        results.append(ch.kraus)

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    first = results[0]
    for r in results[1:]:
        assert r is first


def test_maximize_purity_inside_bounds_random():
    rng = np.random.default_rng(73)
    for d in (2, 3):
        for i in range(10):
            t = rng.uniform(0, 1, (d, d))
            t /= t.sum(axis=0, keepdims=True)
            lo, up = mu_lower(t), mu_upper(t)
            _, pur = maximize_purity(t, OracleConfig(seed=200 + i, restarts=4))
            assert pur >= float(lo @ lo) - 1e-6
            assert pur <= float(up @ up) + 1e-6


# _project's two layouts: the full one (one block, the matrix over the
# support), then the block one (J's d diagonal blocks)
LAYOUTS = (False, True)


def test_project_batch_equals_members_alone():
    t2 = np.array([[0.5, 0.3, 0.6], [0.2, 0.5, 0.4], [0.3, 0.2, 0.0]])
    for blocks in LAYOUTS:
        feas = _FeasibleSet.for_action(T_EXAMPLE, blocks)
        per_member = np.stack([feas.target(T_EXAMPLE if i % 2 else t2) for i in range(6)])
        shared = feas.target(T_EXAMPLE)
        # growing perturbations need more Newton steps
        x0 = np.stack([feas.random_start(per_member[i], _rng(5, i)) * (1 + 2 * i)
                       for i in range(6)])
        early = _project(feas, x0, per_member, 1e-9, 4)[1]
        late = _project(feas, x0, per_member, 1e-9, 6)[1]
        # members leave at different iterations, and some hit the cap
        assert early.any() and (late & ~early).any() and not late.all()
        # per-member warm starts: the multipliers of other points
        warm = _project(feas, 0.5 * x0, per_member, 1e-9, 50)[2]
        for y0 in (None, warm):
            for target in (per_member, shared):
                for cap in (4, 6):
                    y, ok, dual = _project(feas, x0, target, 1e-9, cap, y0)
                    assert y.flags.c_contiguous
                    for i in range(len(x0)):
                        tg = target[i:i + 1] if target.ndim == 2 else target
                        y0_i = None if y0 is None else y0[i:i + 1]
                        y1, ok1, dual1 = _project(feas, x0[i:i + 1], tg, 1e-9, cap, y0_i)
                        assert np.array_equal(y[i], y1[0])
                        assert ok[i] == ok1[0]
                        assert np.array_equal(dual[i], dual1[0])


def test_project_ignores_input_layout():
    for blocks in LAYOUTS:
        feas = _FeasibleSet.for_action(T_EXAMPLE, blocks)
        target = feas.target(T_EXAMPLE)
        x = np.stack([feas.random_start(target, _rng(6, i)) for i in range(5)])
        f_ordered = np.swapaxes(np.swapaxes(x, -1, -2).copy(), -1, -2)   # equal values
        assert np.array_equal(f_ordered, x) and not f_ordered.flags.c_contiguous
        y, ok, _ = _project(feas, x, target, 1e-9, 50)
        y_f, ok_f, _ = _project(feas, f_ordered, target, 1e-9, 50)
        assert ok.all() and np.array_equal(ok, ok_f)
        assert np.array_equal(y, y_f) and y_f.flags.c_contiguous


def _affine_reference(feas, x, target):
    """Frobenius projection onto the affine constraints, one group at a time."""
    x = (x + x.conj().T) / 2
    idx = np.arange(feas.n)
    x[idx, idx] = target
    for g in range(feas.n_groups):
        r, c = feas.pos_r[feas.group_id == g], feas.pos_c[feas.group_id == g]
        vals = x[r, c] - x[r, c].sum() / len(r)
        x[r, c] = vals
        x[c, r] = vals.conj()
    return x


def _dykstra_reference(feas, x0, target, tol):
    """Dykstra's alternating projections (PSD cone with its correction term,
    then the affine set), to tol in both the residual and the step."""
    x = _affine_reference(feas, x0, target)
    p = np.zeros_like(x)
    for _ in range(500_000):
        s = x + p
        w, v = np.linalg.eigh(s)
        y = (v * np.maximum(w, 0.0)) @ v.conj().T
        y = (y + y.conj().T) / 2
        p = s - y
        x = _affine_reference(feas, y, target)
        if feas.residual(y[None], target) <= tol and np.abs(x - y).max() <= tol:
            return y
    pytest.fail("reference Dykstra did not converge")


def test_project_matches_dykstra_reference():
    rng = np.random.default_rng(77)
    dense = [rng.uniform(0, 1, (d, d)) for d in (2, 3)]
    # a zero entry, and a support with no group constraint at all
    for t in dense + [T_EXAMPLE, np.eye(3)[[2, 0, 1]]]:
        t = t / t.sum(axis=0, keepdims=True)
        feas = _FeasibleSet.for_action(t)
        target = feas.target(t)
        # scaled away from the set, so that the cone clips eigenvalues
        x0 = np.stack([(1.5 + i) * feas.random_start(target, _rng(8, i)) for i in range(3)])
        y, ok, _ = _project(feas, x0, target, 1e-11, 100)
        assert ok.all()
        for i in range(len(x0)):
            # the full layout's one block is the matrix over the support
            ref = _dykstra_reference(feas, x0[i, 0], target, 1e-11)
            assert np.abs(y[i, 0] - ref).max() <= 1e-9


@st.composite
def _actions(draw, zeros=False):
    """A d x d transition matrix, d = 2..4, entries down to 1e-3, and with
    zeros=True some entries 0 (a column with none left gets a 1 on the
    diagonal); and a seed."""
    d = draw(st.integers(2, 4))
    entries = st.one_of(st.floats(1e-3, 1e-2), st.floats(1e-2, 1.0))
    if zeros:
        entries = st.one_of(st.just(0.0), entries)
    t = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
    t += np.diag(t.sum(axis=0) == 0)
    return t / t.sum(axis=0, keepdims=True), draw(st.integers(0, 2**16))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_actions())
def test_project_properties(case):
    t, seed = case
    for blocks in LAYOUTS:
        feas = _FeasibleSet.for_action(t, blocks)
        target = feas.target(t)
        x0 = np.stack([2.0 * feas.random_start(target, _rng(seed, i)) for i in range(4)])
        tol = 1e-9
        y, ok, _ = _project(feas, x0, target, tol, 100)
        assert ok.all()
        assert (np.linalg.eigvalsh(y).min(axis=(-2, -1)) >= -1e-12).all()
        assert (feas.residual(y, target) <= tol).all()
        # variational inequality of the projection against the feasible c0
        # point (in the block layout its diagonal blocks, also feasible)
        z = feas.compress(coherify.coherify_c0(t).channel.jam)
        s = (x0 + np.swapaxes(x0, -1, -2).conj()) / 2
        inner = np.einsum("bkij,bkij->b", (s - y).conj(), z[None] - y).real
        assert (inner <= 1e-8).all()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_actions(zeros=True))
def test_project_keeps_block_diagonal_points_block_diagonal(case):
    # the purity maximizer ascends in block space on this property: the full
    # projection of a block-diagonal point stays block diagonal, and the
    # block layout, whose rows outside the support are zero padding, finds
    # the same point
    t, seed = case
    feas = _FeasibleSet.for_action(t)
    blocks = _FeasibleSet.for_action(t, blocks=True)
    target = feas.target(t)
    blk = feas.support // feas.d
    cross = blk[:, None] != blk[None, :]
    x0 = np.stack([2.0 * feas.random_start(target, _rng(seed, i)) for i in range(4)])
    x0[:, 0, cross] = 0.0
    x0_blocks = blocks.compress(feas.embed(x0))
    assert np.array_equal(blocks.embed(x0_blocks), feas.embed(x0))
    # entries in the padding, as the ascent's gradient has them, are dropped
    x0_blocks += (1.0 - blocks.mask) * _rng(seed, 98).standard_normal(x0_blocks.shape)
    tol = 1e-11
    y, ok, _ = _project(feas, x0, target, tol, 100)
    y_blocks, ok_blocks, _ = _project(blocks, x0_blocks, target, tol, 100)
    assert ok.all() and ok_blocks.all()
    assert np.abs(y[:, 0, cross]).max(initial=0.0) <= 1e-12
    assert np.abs(y_blocks * (1.0 - blocks.mask)).max() <= 1e-12
    assert np.abs(blocks.embed(y_blocks) - feas.embed(y)).max() <= 1e-9


def test_project_from_its_own_multipliers_takes_no_step():
    for blocks in LAYOUTS:
        feas = _FeasibleSet.for_action(T_EXAMPLE, blocks)
        target = feas.target(T_EXAMPLE)
        x0 = np.stack([3.0 * feas.random_start(target, _rng(9, i)) for i in range(5)])
        y, ok, dual = _project(feas, x0, target, 1e-9, 50)
        assert ok.all()
        # a cap of 0 allows no Newton step, so every member converges at its start
        y2, ok2, dual2 = _project(feas, x0, target, 1e-9, 0, dual)
        assert np.array_equal(y2, y) and np.array_equal(ok2, ok)
        assert np.array_equal(dual2, dual)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_actions(), st.floats(0.01, 10.0))
def test_project_warm_start_reaches_the_same_point(case, scale):
    t, seed = case
    for blocks in LAYOUTS:
        feas = _FeasibleSet.for_action(t, blocks)
        target = feas.target(t)
        x0 = np.stack([2.0 * feas.random_start(target, _rng(seed, i)) for i in range(3)])
        y0 = scale * _rng(seed, 99).standard_normal((len(x0), feas.m))
        tol = 1e-11
        cold, ok_cold, _ = _project(feas, x0, target, tol, 100)
        warm, ok_warm, _ = _project(feas, x0, target, tol, 100, y0)
        assert ok_cold.all() and ok_warm.all()
        assert (feas.residual(warm, target) <= tol).all()
        # the projection is unique, so the start only changes the path to it
        assert np.abs(warm - cold).max() <= 1e-9


def test_sampler_small_entries_of_t():
    t = np.array([[0.4043, 0.4914, 0.2938],
                  [0.4544, 0.2575, 0.7058],
                  [0.1413, 0.2511, 0.0004]])
    samples = sample_fixed_action(t, 100, OracleConfig(seed=0, max_iterations=30000))
    assert len(samples) == 100
    for smp in samples:
        assert np.abs(classical_action(smp) - t).max() < 1e-6
        assert np.linalg.eigvalsh(smp.jam).min() > -1e-8


def test_convergence_error_names_catch_both_failures(monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    for name in ("NoConvergence", "ConvergenceFailure"):
        exc = getattr(coherify, name)
        with pytest.raises(exc):
            sample_fixed_action(T_EXAMPLE, 2, OracleConfig(max_iterations=1))
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", failing_eigh)
            with pytest.raises(exc):
                eig_hermitian(np.eye(2))
