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
    _streams,
    haar_unitarity_mc,
    haar_unitary,
    maximize_purity,
    maximize_purity_many,
    rand_channel,
    recording,
    sample_fixed_action,
    search_unistochastic_witness,
)
from coherify.states import spectrum
from coherify.stochastic import classify, majorizes
from test_acceptance import Budget

T_EXAMPLE = np.array([[0.7, 0.2, 0.6], [0.1, 0.6, 0.4], [0.2, 0.2, 0.0]])
T_FLAT_OFFDIAG = 0.5 * np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(restarts=0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed must lie in 0..2"):
            OracleConfig(seed=seed)
    assert OracleConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1


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
    positions = []
    for smp in samples:
        lam = path_distribution(smp)
        assert majorizes(up, lam, slack=1e-6, sum_atol=1e-5)
        # the purity of a J with blocks B_i lies between sum_i |B_i|^2 (J
        # block diagonal) and f(B) (the blocks' ordered eigenvectors coupled)
        blocks = np.stack([smp.jam[3 * i:3 * i + 3, 3 * i:3 * i + 3] for i in range(3)])
        floor = float((np.abs(blocks) ** 2).sum())
        top = float((np.linalg.eigvalsh(blocks).sum(axis=0) ** 2).sum())
        positions.append((channel_purity(smp) - floor) / (top - floor))
    # and the samples come near both ends
    assert -1e-9 < min(positions) < 0.1 and 0.9 < max(positions) < 1 + 1e-9
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
    with the Jacobian built entry by entry; a restart is polished only if it
    exits with |R|^2 below 1e-10 (restart 0, the zero phases, always)."""
    from coherify.oracle import _MAX_STEPS, _rng
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
            for _ in range(_MAX_STEPS):
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
        if r > 0 and f >= 1e-10:
            continue
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


def test_rand_channel_matches_the_block_sum_reference():
    def reference(d, rng, rank):
        # Tr_1 W as a sum of W's diagonal blocks
        g = (rng.standard_normal((d * d, rank)) + 1j * rng.standard_normal((d * d, rank))) / np.sqrt(2)
        w = g @ g.conj().T
        s = np.zeros((d, d), dtype=np.complex128)
        for i in range(d):
            s += w[i * d:(i + 1) * d, i * d:(i + 1) * d]
        ev, vec = np.linalg.eigh(s)
        s_isqrt = (vec * (1.0 / np.sqrt(np.maximum(ev, 1e-300)))) @ vec.conj().T
        a = np.kron(np.eye(d), s_isqrt)
        jam = a @ w @ a.conj().T / d
        return (jam + jam.conj().T) / 2

    for d in range(2, 9):
        for rank in (None, 1, d + 1):
            ch = rand_channel(d, np.random.default_rng(d), rank)
            expected = reference(d, np.random.default_rng(d), rank or d * d)
            assert np.array_equal(ch.jam, expected)
    for rank in (0, 5):
        with pytest.raises(ValueError, match="rank must lie in 1..4"):
            rand_channel(2, np.random.default_rng(0), rank)


def test_maximize_purity_stops_at_the_ceiling():
    # every start of a permutation reaches |mu_upper|^2 = 1 in its first
    # ascent step, which certifies the input: one ascent projection, then
    # the final one
    with recording() as stats:
        _, pur = maximize_purity(np.eye(3)[[2, 0, 1]], OracleConfig(seed=42))
    assert [(p["phase"], p["members"]) for p in stats.projections] == [("ascent", 64), ("final", 1)]
    assert stats.inputs[0]["ascent_steps"] == stats.inputs[0]["certified_step"] == 1
    assert abs(pur - 1.0) <= 1e-9


def test_ascent_projections_after_the_first_take_no_newton_step():
    # validate's cyclic and polygon inputs at --seed 1: the second ascent
    # projection starts from the affine multipliers, which beat the previous
    # step's (from those it took 8-9 Newton iterations on every start), and
    # then the input reaches its ceiling
    from coherify.constructions import coherify_auto

    cyclic = np.array([[0.0, 0.3, 0.6], [0.5, 0.0, 0.4], [0.5, 0.7, 0.0]])
    for t in (cyclic, T_FLAT_OFFDIAG):
        with recording() as stats:
            _, pur = maximize_purity(t, OracleConfig(seed=1))
        steps = [p["newton_iterations"] for p in stats.projections]
        assert len(steps) >= 3 and steps[1:] == [0] * (len(steps) - 1)
        # the proven optimum (both are solved families)
        res = coherify_auto(t)
        assert res.optimal and abs(pur - channel_purity(res.channel)) <= 1e-12


def test_maximize_purity_certificate_is_per_input():
    # one zero pattern: the three inputs ascend in one batch. t_cert reaches
    # its ceiling and stops its own starts, never t_x's
    from coherify.oracle import maximize_purity_many

    def dense(seed):
        m = np.random.default_rng(seed).uniform(0.02, 1.0, (3, 3))
        return m / m.sum(axis=0, keepdims=True)

    t_cert = np.array([[0.51, 0.12, 0.33], [0.27, 0.64, 0.21], [0.22, 0.24, 0.46]])
    t_cert /= t_cert.sum(axis=0, keepdims=True)
    t_y, t_x = dense(0), dense(10)
    cfg = OracleConfig(seed=5, restarts=8)
    (_, p_cert), (ch_a, p_a) = maximize_purity_many([t_cert, t_x], cfg)
    (_, p_y), (ch_b, p_b) = maximize_purity_many([t_y, t_x], cfg)

    def ceiling(t):
        return float(mu_upper(t) @ mu_upper(t))

    assert p_cert >= ceiling(t_cert) - 1e-10
    assert p_y < ceiling(t_y) - 1e-6 and p_a < ceiling(t_x) - 1e-6
    assert p_a == p_b
    assert np.array_equal(ch_a.jam, ch_b.jam)


def test_maximize_purity_raises_when_the_final_projection_fails(monkeypatch):
    # a permutation certifies in its first ascent projection (see above), so
    # the second projection, failed here, is the final one
    import coherify.oracle as oracle

    project, calls = oracle._project, []

    def failing_final(*args, **kwargs):
        y, ok, dual = project(*args, **kwargs)
        calls.append(len(ok))
        return y, ok & (len(calls) == 1), dual

    monkeypatch.setattr(oracle, "_project", failing_final)
    with pytest.raises(coherify.ConvergenceFailure):
        maximize_purity(np.eye(3)[[2, 0, 1]], OracleConfig(seed=42))
    assert calls == [64, 1]


def test_recording_changes_no_result_and_repeats():
    # two zero patterns, so two groups; the record is kept per call, and a
    # second recorded run counts the same work
    ts = [T_EXAMPLE, np.array([[0.51, 0.12, 0.33], [0.27, 0.64, 0.21], [0.22, 0.24, 0.46]])]
    ts[1] /= ts[1].sum(axis=0, keepdims=True)
    cfg = OracleConfig(seed=3, restarts=4)
    plain = maximize_purity_many(ts, cfg)
    samples = sample_fixed_action(T_EXAMPLE, 20, cfg)
    records = []
    for _ in range(2):
        with recording() as stats:
            kept = maximize_purity_many(ts, cfg)
            kept_samples = sample_fixed_action(T_EXAMPLE, 20, cfg)
        records.append(stats)
        assert [p for _, p in kept] == [p for _, p in plain]
        assert all(np.array_equal(a.jam, b.jam) for (a, _), (b, _) in zip(kept, plain))
        assert all(np.array_equal(a.jam, b.jam) for a, b in zip(kept_samples, samples))
    first, second = records
    assert (first.projections, first.inputs) == (second.projections, second.inputs)
    assert {p["phase"] for p in first.projections} == {"ascent", "final", "sampler_projection"}
    assert all(s > 0 for s in first.seconds.values())
    assert [i["gap"] for i in first.inputs] == [
        float(mu_upper(t) @ mu_upper(t)) - p for t, (_, p) in zip(ts, plain)]
    # a record is this thread's: another thread's calls do not reach it
    import threading

    with recording() as stats:
        worker = threading.Thread(target=sample_fixed_action, args=(T_EXAMPLE, 5, cfg))
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert stats.projections == stats.inputs == []


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


def test_project_batch_equals_members_alone():
    t2 = np.array([[0.5, 0.3, 0.6], [0.2, 0.5, 0.4], [0.3, 0.2, 0.0]])
    feas = _FeasibleSet.for_action(T_EXAMPLE)
    per_member = np.stack([feas.target(T_EXAMPLE if i % 2 else t2) for i in range(6)])
    shared = feas.target(T_EXAMPLE)
    # growing perturbations need more Newton steps
    x0 = feas.random_starts(per_member, [_rng(5, i) for i in range(6)])
    x0 *= (1 + 2 * np.arange(6))[:, None, None, None]
    early = _project(feas, x0, per_member, 1e-9, 4)[1]
    late = _project(feas, x0, per_member, 1e-9, 6)[1]
    # members leave at different iterations, and some hit the cap
    assert early.any() and (late & ~early).any() and not late.all()
    # per-member warm starts: the multipliers of other points; then the
    # members' own multipliers, which beat the affine start, alternating
    # with far-off ones, which lose to it
    warm = _project(feas, 0.5 * x0, per_member, 1e-9, 50)[2]
    own = _project(feas, x0, per_member, 1e-9, 50)[2]
    far = 100.0 * _rng(5, 99).standard_normal(own.shape)
    odd = np.arange(len(x0)) % 2 == 1
    mixed = np.where(odd[:, None], own, far)
    # the choice goes both ways: odd members start converged, even ones
    # take the affine start's path
    cold = _project(feas, x0, per_member, 1e-9, 4)
    chosen = _project(feas, x0, per_member, 1e-9, 4, mixed)
    assert chosen[1][odd].all() and not cold[1][odd].all()
    for a, b in zip(cold, chosen):
        assert np.array_equal(a[~odd], b[~odd])
    for y0 in (None, warm, mixed):
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


def test_streams_match_a_fresh_philox_per_stream():
    # the streams of the sampler, the ascent's random starts and the phase waves
    streams = [*range(100), *range(10_000, 10_064), *range(20_002, 20_064)]
    for seed in (0, 42, 2**32 - 1):
        for stream, rng in zip(streams, _streams(seed, streams), strict=True):
            ref = np.random.Generator(np.random.Philox(key=np.uint64(seed) + np.uint64(stream)))
            assert rng.uniform(0.1, 0.9) == ref.uniform(0.1, 0.9)
            assert np.array_equal(rng.standard_normal((3, 3)), ref.standard_normal((3, 3)))
            assert np.array_equal(rng.uniform(0, 2 * np.pi, (3, 3)),
                                  ref.uniform(0, 2 * np.pi, (3, 3)))
        assert np.array_equal(_rng(seed, 7).standard_normal(5),
                              np.random.Generator(np.random.Philox(key=seed + 7)).standard_normal(5))


def test_random_starts_take_a_lazy_iterable():
    feas = _FeasibleSet.for_action(T_EXAMPLE)
    target = feas.target(T_EXAMPLE)
    listed = feas.random_starts(target, [_rng(4, i) for i in range(5)])
    assert np.array_equal(feas.random_starts(target, _streams(4, range(5))), listed)
    assert np.array_equal(feas.random_starts(target, (_rng(4, i) for i in range(5))), listed)
    assert feas.random_starts(target, iter(())).shape == (0, 3, 3, 3)


def _random_start_reference(feas, target, rng):
    """One start at a time, as a (d, d, d) block point."""
    env = np.sqrt(np.outer(target, target))
    scale = rng.uniform(0.1, 0.9)
    g = rng.standard_normal((feas.n, feas.n)) + 1j * rng.standard_normal((feas.n, feas.n))
    x = np.diag(target) + scale * (g + g.conj().T) / 2 * env
    out = np.zeros((feas.d, feas.d, feas.d), dtype=np.complex128)
    out[feas._in_blocks] = x[feas._in_support]
    return out


def test_random_starts_match_one_at_a_time_reference():
    t2 = np.array([[0.5, 0.3, 0.6], [0.2, 0.5, 0.4], [0.3, 0.2, 0.0]])
    feas = _FeasibleSet.for_action(T_EXAMPLE)
    shared = feas.target(T_EXAMPLE)
    per_member = np.stack([feas.target(T_EXAMPLE if i % 2 else t2) for i in range(5)])
    for target in (shared, per_member):
        x = feas.random_starts(target, [_rng(4, i) for i in range(5)])
        for i in range(5):
            tg = target if target.ndim == 1 else target[i]
            assert np.array_equal(x[i], _random_start_reference(feas, tg, _rng(4, i)))


def test_project_ignores_input_layout():
    feas = _FeasibleSet.for_action(T_EXAMPLE)
    target = feas.target(T_EXAMPLE)
    x = feas.random_starts(target, [_rng(6, i) for i in range(5)])
    f_ordered = np.swapaxes(np.swapaxes(x, -1, -2).copy(), -1, -2)   # equal values
    assert np.array_equal(f_ordered, x) and not f_ordered.flags.c_contiguous
    y, ok, _ = _project(feas, x, target, 1e-9, 50)
    y_f, ok_f, _ = _project(feas, f_ordered, target, 1e-9, 50)
    assert ok.all() and np.array_equal(ok, ok_f)
    assert np.array_equal(y, y_f) and y_f.flags.c_contiguous


def _affine_reference(feas, x, target):
    """Frobenius projection of a matrix over the support onto the affine
    constraints, one group at a time."""
    x = (x + x.conj().T) / 2
    idx = np.arange(feas.n)
    x[idx, idx] = target
    # each group member's row and column in the matrix over the support
    rows, cols = (np.searchsorted(feas.support, feas.pos_b * feas.d + at)
                  for at in (feas.pos_r, feas.pos_c))
    for g in range(feas.n_groups):
        r, c = rows[feas.group_id == g], cols[feas.group_id == g]
        vals = x[r, c] - x[r, c].sum() / len(r)
        x[r, c] = vals
        x[c, r] = vals.conj()
    return x


def _dykstra_reference(feas, x0, target, tol):
    """Dykstra's alternating projections (PSD cone with its correction term,
    then the affine set) of a matrix over the support, to tol in both the
    residual and the step."""
    x = _affine_reference(feas, x0, target)
    p = np.zeros_like(x)
    for _ in range(500_000):
        s = x + p
        w, v = np.linalg.eigh(s)
        y = (v * np.maximum(w, 0.0)) @ v.conj().T
        y = (y + y.conj().T) / 2
        p = s - y
        x = _affine_reference(feas, y, target)
        # the residual of y's blocks (its affine constraints lie in them)
        blocks = feas._points(())
        blocks[feas._in_blocks] = y[feas._in_support]
        if feas.residual(blocks, target) <= tol and np.abs(x - y).max() <= tol:
            return y
    pytest.fail("reference Dykstra did not converge")


def test_project_matches_dykstra_reference():
    # the reference projects the whole matrix over the support; from a block-
    # diagonal start it stays block diagonal, and the block projection finds
    # the same point: the reduction to J's diagonal blocks is exact
    rng = np.random.default_rng(77)
    dense = [rng.uniform(0, 1, (d, d)) for d in (2, 3)]
    # a zero entry, and a support with no group constraint at all
    for t in dense + [T_EXAMPLE, np.eye(3)[[2, 0, 1]]]:
        t = t / t.sum(axis=0, keepdims=True)
        feas = _FeasibleSet.for_action(t)
        target = feas.target(t)
        blk = feas.support // feas.d
        cross = blk[:, None] != blk[None, :]
        # scaled away from the set, so that the cone clips eigenvalues
        x0 = feas.random_starts(target, [_rng(8, i) for i in range(3)])
        x0 *= (1.5 + np.arange(3))[:, None, None, None]
        # entries in the padding, as the ascent's gradient has them, are dropped
        padded = x0 + (1.0 - feas.mask) * _rng(8, 98).standard_normal(x0.shape)
        y, ok, _ = _project(feas, padded, target, 1e-11, 100)
        assert ok.all()
        assert np.abs(y * (1.0 - feas.mask)).max() <= 1e-12
        for i in range(len(x0)):
            start = np.zeros((feas.n, feas.n), dtype=np.complex128)
            start[feas._in_support] = x0[i][feas._in_blocks]
            ref = _dykstra_reference(feas, start, target, 1e-11)
            assert np.abs(ref[cross]).max(initial=0.0) <= 1e-12
            assert np.abs(y[i][feas._in_blocks] - ref[feas._in_support]).max() <= 1e-9


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
    feas = _FeasibleSet.for_action(t)
    target = feas.target(t)
    x0 = 2.0 * feas.random_starts(target, [_rng(seed, i) for i in range(4)])
    tol = 1e-9
    y, ok, _ = _project(feas, x0, target, tol, 100)
    assert ok.all()
    assert (np.linalg.eigvalsh(y).min(axis=(-2, -1)) >= -1e-12).all()
    assert (feas.residual(y, target) <= tol).all()
    # variational inequality of the projection against the feasible
    # diagonal point, the blocks diag(T_i.)/d
    z = feas._points(())
    z[feas.blk, feas.row, feas.row] = target
    s = (x0 + np.swapaxes(x0, -1, -2).conj()) / 2
    inner = np.einsum("bkij,bkij->b", (s - y).conj(), z[None] - y).real
    assert (inner <= 1e-8).all()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_actions(), _actions(zeros=True))
def test_c0_blocks_are_the_diagonal_start(case, sparse_case):
    # the maximizer's first start is diag(T_i.)/d in block i: C0's coherence
    # lies only in J's off-diagonal blocks
    for t, _ in (case, sparse_case):
        d = t.shape[0]
        jam = coherify.coherify_c0(t).channel.jam.reshape(d, d, d, d)
        blocks = np.einsum("iaib->iab", jam)
        expected = np.stack([np.diag(row) for row in t]) / d
        assert np.abs(blocks - expected).max() <= 1e-15


def test_project_from_its_own_multipliers_takes_no_step():
    feas = _FeasibleSet.for_action(T_EXAMPLE)
    target = feas.target(T_EXAMPLE)
    x0 = 3.0 * feas.random_starts(target, [_rng(9, i) for i in range(5)])
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
    feas = _FeasibleSet.for_action(t)
    target = feas.target(t)
    x0 = 2.0 * feas.random_starts(target, [_rng(seed, i) for i in range(3)])
    y0 = scale * _rng(seed, 99).standard_normal((len(x0), feas.m))
    tol = 1e-11
    cold, ok_cold, _ = _project(feas, x0, target, tol, 100)
    warm, ok_warm, _ = _project(feas, x0, target, tol, 100, y0)
    assert ok_cold.all() and ok_warm.all()
    assert (feas.residual(warm, target) <= tol).all()
    # the projection is unique, so the start only changes the path to it
    assert np.abs(warm - cold).max() <= 1e-9


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_actions(), _actions(zeros=True))
def test_sampler_channels_lie_between_the_spectral_bounds(case, sparse_case):
    # mu_upper(T) majorizes every feasible spectrum, and the spectrum of a
    # Hermitian matrix majorizes its diagonal vec(T)/d (Schur-Horn). mu_lower
    # is no bound here: it is the spectrum of one coherent construction and
    # bounds only the optimum, which random samples fall short of
    for t, seed in (case, sparse_case):
        d = t.shape[0]
        samples = sample_fixed_action(t, 20, OracleConfig(seed=seed))
        lam = spectrum(np.stack([smp.jam for smp in samples]))
        for smp in samples:
            assert np.abs(classical_action(smp) - t).max() <= 1e-6
        assert majorizes(mu_upper(t), lam, slack=1e-6, sum_atol=1e-5).all()
        assert majorizes(lam, t.reshape(-1) / d, slack=1e-6, sum_atol=1e-5).all()


def test_sampler_small_entries_of_t():
    t = np.array([[0.4043, 0.4914, 0.2938],
                  [0.4544, 0.2575, 0.7058],
                  [0.1413, 0.2511, 0.0004]])
    samples = sample_fixed_action(t, 100, OracleConfig(seed=0))
    assert len(samples) == 100
    for smp in samples:
        assert np.abs(classical_action(smp) - t).max() < 1e-6
        assert np.linalg.eigvalsh(smp.jam).min() > -1e-8


def test_sampler_with_no_samples():
    assert sample_fixed_action(T_EXAMPLE, 0) == []
    with pytest.raises(ValueError, match="non-negative"):
        sample_fixed_action(T_EXAMPLE, -1)


def test_convergence_error_names_catch_both_failures(monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(coherify.oracle, "_MAX_STEPS", 1)
    with pytest.raises(coherify.ConvergenceFailure):
        sample_fixed_action(T_EXAMPLE, 2)
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(coherify.ConvergenceFailure):
        eig_hermitian(np.eye(2))
