"""Model evaluation and the reverse-time sampling process."""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from tthjb import sample
from tthjb.basis import PolySpace
from tthjb.integrate import SolutionSnapshot, SolverConfig, Trajectory, solve_hjb
from tthjb.operators import (PotentialSpec, PotentialTerm, build_potential_tt,
                             covariance_error, extract_quadratic)
from tthjb.oracles import riccati_reference
from tthjb.sample import (SampleBatch, SamplerConfig, _normals, count_out_of_domain,
                          eval_v_batch, grad_v_batch, prepare_score,
                          reverse_sample, reverse_sample_scored)
from tthjb.tt import tt_random


def standard_half_norm(d, intervals=(-5.0, 5.0)):
    """0.5 ||x||^2 potential."""
    space = PolySpace([intervals] * d, [2] * d)
    spec = PotentialSpec(builtins=[
        {"name": "gaussian", "coords": tuple(range(d)),
         "params": {"Q": (0.5 * np.eye(d)).tolist()}}])
    return space, SolutionSnapshot(0.0, build_potential_tt(spec, space))


class TestEvaluation:
    def test_half_norm_value(self):
        space, snap = standard_half_norm(3)
        assert eval_v_batch(snap, space, np.array([[1.0, 1.0, 1.0]]))[0] \
            == pytest.approx(1.5, rel=1e-12)

    def test_even_polynomial_at_origin(self):
        space, snap = standard_half_norm(2)
        assert eval_v_batch(snap, space, np.zeros((1, 2)))[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_polynomial(self):
        rng = np.random.default_rng(0)
        space = PolySpace([(-2, 2)] * 3, [3] * 3)
        tt = tt_random(space.mode_sizes, (1, 2, 2, 1), rng)
        snap = SolutionSnapshot(0.0, tt)
        from tthjb.tt import tt_contract_mode_vectors
        for x in rng.uniform(-2, 2, (10, 3)):
            vs = [space.bases[i].evaluate(x[i]) for i in range(3)]
            ref = tt_contract_mode_vectors(tt, vs)
            assert eval_v_batch(snap, space, x[None])[0] == pytest.approx(ref, rel=1e-10)

    def test_extrapolation_permitted(self):
        space, snap = standard_half_norm(2)
        assert eval_v_batch(snap, space, np.array([[7.0, 0.0]]))[0] \
            == pytest.approx(24.5, rel=1e-9)


class TestGradient:
    def test_half_norm_gradient_is_identity(self):
        space, snap = standard_half_norm(3)
        x = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(grad_v_batch(snap, space, x[None])[0], x, atol=1e-11)

    def test_doublewell_analytic_gradient(self):
        space = PolySpace([(-2, 2)] * 2, [4, 4])
        spec = PotentialSpec(builtins=[
            {"name": "doublewell", "coords": (0, 1), "params": {}}])
        snap = SolutionSnapshot(0.0, build_potential_tt(spec, space))
        got = grad_v_batch(snap, space, np.array([[1.0, 1.0]]))[0]
        np.testing.assert_allclose(got, [-4.4, -3.9], atol=1e-10)

    def test_finite_difference_batch(self):
        rng = np.random.default_rng(1)
        space = PolySpace([(-2, 2)] * 4, [3] * 4)
        tt = tt_random(space.mode_sizes, (1, 2, 3, 2, 1), rng)
        snap = SolutionSnapshot(0.0, tt)
        pts = rng.uniform(-2, 2, (100, 4))
        g = grad_v_batch(snap, space, pts)
        h = 1e-6
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            fd = (eval_v_batch(snap, space, pts + e)
                  - eval_v_batch(snap, space, pts - e)) / (2 * h)
            rel = np.abs(fd - g[:, k]) / (1 + np.abs(fd))
            assert np.max(rel) <= 1e-5


def loop_eval(snap, space, xs, f=lambda a: a):
    """The per-mode ``tensordot`` and per-particle ``matmul`` chain that
    ``eval_v_batch`` ran before the particle-last kernel.  With ``f=np.abs``
    it sums the magnitudes of all terms instead."""
    env = np.ones((xs.shape[0], 1))
    for i, core in enumerate(snap.coeffs.cores):
        vals = space.basis(i, core.shape[1]).evaluate(xs[:, i])
        mat = np.tensordot(f(vals), f(core), axes=(1, 1))
        env = np.matmul(env[:, None, :], mat)[:, 0, :]
    return env[:, 0]


def loop_grad(snap, space, xs, f=lambda a: a):
    """The two sweeps of per-particle ``matmul`` that ``grad_v_batch`` ran
    before the particle-last kernel; ``f`` as in :func:`loop_eval`."""
    m, d = xs.shape
    contracted, dcontracted = [], []
    for i, core in enumerate(snap.coeffs.cores):
        basis = space.basis(i, core.shape[1])
        vals, dvals = basis.evaluate_with_derivative(xs[:, i])
        contracted.append(np.tensordot(f(vals), f(core), axes=(1, 1)))
        dcontracted.append(np.tensordot(f(dvals), f(core), axes=(1, 1)))
    right = [None] * (d + 1)
    right[d] = np.ones((m, 1))
    for i in range(d - 1, -1, -1):
        right[i] = np.matmul(contracted[i], right[i + 1][:, :, None])[:, :, 0]
    out = np.empty((m, d))
    left = np.ones((m, 1))
    for i in range(d):
        mid = np.matmul(left[:, None, :], dcontracted[i])[:, 0, :]
        out[:, i] = np.sum(mid * right[i + 1], axis=1)
        left = np.matmul(left[:, None, :], contracted[i])[:, 0, :]
    return out


# (intervals, space degrees, core mode sizes, TT ranks): degrees 0-6 with
# degree-0 modes, ranks 1-4, and cores below the space degree as after
# adaptive degree truncation
KERNEL_CASES = {
    "d1": ([(-2.0, 3.0)], [4], [5], (1, 1)),
    "d2": ([(-5.0, 5.0), (0.0, 1.0)], [0, 6], [1, 7], (1, 3, 1)),
    "d6": ([(-5.0, 5.0), (-1.0, 2.0), (-3.0, 3.0), (0.5, 1.5), (-4.0, 1.0), (-2.0, 2.0)],
           [6] * 6, [4, 1, 7, 2, 6, 3], (1, 2, 4, 3, 4, 1, 1)),
}
KERNEL_RTOL = 1e-13     # of the summed magnitudes of the terms, fixed beforehand


class TestParticleLastKernel:
    """``eval_v_batch`` and ``grad_v_batch`` against the loops they replaced."""

    @staticmethod
    def case(name, m):
        intervals, degrees, sizes, ranks = KERNEL_CASES[name]
        rng = np.random.default_rng(len(name) + m)
        space = PolySpace(intervals, degrees)
        snap = SolutionSnapshot(0.0, tt_random(sizes, ranks, rng))
        lo, hi = np.array(intervals).T
        xs = lo + (hi - lo) * rng.uniform(-0.3, 1.3, (m, len(intervals)))
        return space, snap, xs

    @pytest.mark.parametrize("m", [0, 1, 257])
    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_matches_loop_reference(self, name, m):
        space, snap, xs = self.case(name, m)
        if m == 257:
            outside = count_out_of_domain(space, xs)
            assert 0 < np.count_nonzero(outside) < m
        got, ref = eval_v_batch(snap, space, xs), loop_eval(snap, space, xs)
        assert got.shape == (m,)
        assert np.all(np.abs(got - ref) <= KERNEL_RTOL * loop_eval(snap, space, xs, np.abs))
        got, ref = grad_v_batch(snap, space, xs), loop_grad(snap, space, xs)
        assert got.shape == (m, len(KERNEL_CASES[name][0]))
        assert np.all(np.abs(got - ref) <= KERNEL_RTOL * loop_grad(snap, space, xs, np.abs))

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_prepared_kernel_is_bitwise_the_snapshot(self, name):
        space, snap, xs = self.case(name, 257)
        kernel = prepare_score(snap, space)
        np.testing.assert_array_equal(eval_v_batch(kernel, space, xs),
                                      eval_v_batch(snap, space, xs))
        np.testing.assert_array_equal(grad_v_batch(kernel, space, xs),
                                      grad_v_batch(snap, space, xs))


class TestScoreWorkspace:
    """One workspace serves kernels of any degree and rank up to its own."""

    # mode sizes and ranks falling, then rising past the first kernel in
    # some modes, as along a solve's degree and rank adaptation
    SHAPES = [((7, 5, 6, 4), (1, 4, 3, 2, 1)), ((3, 2, 3, 1), (1, 1, 2, 1, 1)),
              ((1, 1, 1, 1), (1, 1, 1, 1, 1)), ((5, 7, 2, 6), (1, 3, 4, 3, 1))]

    @staticmethod
    def kernels(space, rng):
        return [prepare_score(SolutionSnapshot(0.0, tt_random(sizes, ranks, rng)), space)
                for sizes, ranks in TestScoreWorkspace.SHAPES]

    @staticmethod
    def buffers(work):
        return [work.coords, work.term, work.table, *work.cores, work.envs, work.ones,
                work.grad]

    def test_reused_workspace_is_bitwise_fresh_calls(self):
        rng = np.random.default_rng(18)
        space = PolySpace([(-5.0, 5.0), (-1.0, 2.0), (0.0, 1.0), (-3.0, 3.0)], [6] * 4)
        kernels = self.kernels(space, rng)
        work = sample.ScoreWorkspace(kernels, space, 301)
        for i in [0, 1, 2, 3, 1, 0, 3]:
            xs = rng.uniform(-4.0, 4.0, (301, 4))
            got = grad_v_batch(kernels[i], space, xs, work=work)
            assert any(np.shares_memory(got, buf) for buf in self.buffers(work))
            want = grad_v_batch(kernels[i], space, xs)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_call_without_workspace_returns_its_own_array(self):
        rng = np.random.default_rng(19)
        space = PolySpace([(-5.0, 5.0), (-1.0, 2.0), (0.0, 1.0), (-3.0, 3.0)], [6] * 4)
        kernels = self.kernels(space, rng)
        work = sample.ScoreWorkspace(kernels, space, 64)
        xs = rng.uniform(-4.0, 4.0, (64, 4))
        grad_v_batch(kernels[0], space, xs, work=work)
        for kernel in kernels:
            got = grad_v_batch(kernel, space, xs)
            assert not any(np.shares_memory(got, buf) for buf in self.buffers(work))
            assert not np.shares_memory(got, xs)


class TestCovarianceError:
    def test_zero_at_standard_normal(self):
        space, snap = standard_half_norm(4)
        assert covariance_error(snap, space) <= 1e-12

    def test_definition_at_initial_potential(self):
        rng = np.random.default_rng(2)
        d = 3
        a = rng.uniform(0, 1, (d, d))
        q = a.T @ a + 0.1 * np.eye(d)
        space = PolySpace([(-5, 5)] * d, [2] * d)
        spec = PotentialSpec(builtins=[
            {"name": "gaussian", "coords": tuple(range(d)),
             "params": {"Q": q.tolist()}}])
        snap = SolutionSnapshot(0.0, build_potential_tt(spec, space))
        ref = np.linalg.norm(q - 0.5 * np.eye(d)) / np.linalg.norm(0.5 * np.eye(d))
        assert covariance_error(snap, space) == pytest.approx(ref, rel=1e-10)


class TestScoredSampler:
    def test_gaussian_variance_reverse_sde(self):
        c = 1.5
        q0 = 1.0 / (2.0 * c)
        times = np.linspace(0.0, 8.0, 801)

        def grad_fn(s, z):
            return 2.0 * riccati_reference(q0, s) * z

        scfg = SamplerConfig(lam=0.0, n_particles=20000, seed=42)
        batch = reverse_sample_scored(grad_fn, times, 1, scfg)
        var = np.var(batch.samples[:, 0], ddof=1)
        se = var * np.sqrt(2.0 / (batch.samples.shape[0] - 1))
        assert abs(var - c) <= 3 * se

    def test_flow_ode_is_noise_free_and_deterministic(self):
        times = np.linspace(0.0, 4.0, 101)

        def grad_fn(s, z):
            return 2.0 * riccati_reference(0.5, s) * z  # stationary: grad = z

        scfg = SamplerConfig(lam=1.0, n_particles=500, seed=3)
        b1 = reverse_sample_scored(grad_fn, times, 2, scfg)
        b2 = reverse_sample_scored(grad_fn, times, 2, scfg)
        np.testing.assert_array_equal(b1.samples, b2.samples)
        # stationary flow: drift z + (z - grad) tau = z exactly
        init = reverse_sample_scored(grad_fn, times[:2], 2,
                                     SamplerConfig(lam=1.0, n_particles=500, seed=3))
        np.testing.assert_allclose(b1.samples, init.samples, atol=1e-12)

    def test_few_divergent_particles_are_frozen_and_flagged(self):
        times = np.linspace(0.0, 1.0, 11)

        def poisoned(s, z):
            g = z.copy()
            g[:3] = np.inf  # 3 of 50 particles go non-finite
            return g

        scfg = SamplerConfig(lam=0.0, n_particles=50, seed=5)
        batch = reverse_sample_scored(poisoned, times, 2, scfg)
        assert batch.aborted.sum() == 3
        assert np.all(np.isfinite(batch.samples))  # frozen at last finite state

    def test_per_step_frozen_counts_and_score_norms(self):
        times = np.linspace(0.0, 1.0, 11)
        peaks = {}

        def poisoned(s, z):
            g = z.copy()
            if s < 0.45:
                g[:3] = np.inf  # 3 of 50 particles freeze in step 6
            norms = np.linalg.norm(g, axis=1)
            peaks[s] = max(peaks.get(s, 0.0), norms[np.isfinite(norms)].max())
            return g

        scfg = SamplerConfig(lam=0.0, n_particles=50, langevin_steps=1, seed=5)
        batch = reverse_sample_scored(poisoned, times, 2, scfg)
        assert batch.frozen_per_step == [0] * 6 + [3] * 4
        assert batch.max_score_norm_per_step == [
            peaks[times[-1] - tn] for tn in times[:-1]]

    def test_per_step_lists_cover_every_reverse_step(self):
        """The batch carries the grid and one entry per reverse step in each
        of its three per-step lists; nothing counts out-of-domain
        evaluations here."""
        times = np.linspace(0.0, 1.0, 8)
        scfg = SamplerConfig(lam=0.0, n_particles=40, langevin_steps=2, seed=6)
        batch = reverse_sample_scored(lambda s, z: z, times, 3, scfg)
        assert batch.times == times.tolist()
        for per_step in (batch.frozen_per_step, batch.max_score_norm_per_step,
                         batch.out_of_domain_per_step):
            assert len(per_step) == len(times) - 1
        assert batch.out_of_domain_per_step == [0] * 7

    def test_majority_divergence_aborts_the_run(self):
        times = np.linspace(0.0, 1.0, 11)

        def broken(s, z):
            return np.full_like(z, np.inf)

        scfg = SamplerConfig(lam=0.0, n_particles=50, seed=5)
        with pytest.raises(RuntimeError):
            reverse_sample_scored(broken, times, 2, scfg)

    def test_empty_batch(self):
        scfg = SamplerConfig(lam=0.0, n_particles=0, seed=1)
        batch = reverse_sample_scored(lambda s, z: z, [0.0, 1.0], 2, scfg)
        assert batch.samples.shape == (0, 2)

    def test_grid_validation(self):
        scfg = SamplerConfig(lam=0.0, n_particles=1, seed=1)
        with pytest.raises(ValueError):
            reverse_sample_scored(lambda s, z: z, [0.0, 0.0, 1.0], 2, scfg)


def reference_rows(grad_fn, times, d, scfg):
    """The sampler loop with a new array per update and the ``np.where``
    freeze pass on every update, drawing whole normal blocks; it scores
    reverse step ``n`` with ``grad_fn(n, z)``.  Returns the final states,
    the frozen flags and the frozen count per reverse step."""
    shape = (scfg.n_particles, d)
    z = _normals(scfg.seed, 0, shape)
    aborted = np.zeros(shape[0], dtype=bool)

    def apply(update):
        nonlocal z
        nxt = np.where(aborted[:, None], z, update)
        bad = ~np.all(np.isfinite(nxt), axis=1) & ~aborted
        nxt[bad] = z[bad]
        aborted[bad] = True
        z = nxt

    stream, frozen = 1, []
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(times.size - 1):
            tau = times[n + 1] - times[n]
            drift = z + (z - (2.0 - scfg.lam) * grad_fn(n, z)) * tau
            if scfg.lam != 1.0:
                xi = _normals(scfg.seed, stream, shape)
                stream += 1
                drift = drift + np.sqrt(2.0 * (1.0 - scfg.lam) * tau) * xi
            apply(drift)
            for _ in range(scfg.langevin_steps):
                g = grad_fn(n, z)
                xi = _normals(scfg.seed, stream, shape)
                stream += 1
                apply(z - scfg.langevin_tau * g + np.sqrt(2.0 * scfg.langevin_tau) * xi)
            frozen.append(int(aborted.sum()))
    return z, aborted, frozen


def poisoned(grad_fn, poison, start=0, states=None):
    """The step score ``grad_fn(n, z)`` with the rows ``poison[(n, c)]``
    (numbered from 0 over all blocks; this block starts at row ``start``)
    set to inf on call ``c`` of reverse step ``n``.  Appends a copy of every
    state to ``states`` when given."""
    calls = []

    def score(n, z):
        c = calls.count(n)
        calls.append(n)
        if states is not None:
            states.append(z.copy())
        g = grad_fn(n, z)
        g[[r - start for r in poison.get((n, c), ()) if start <= r < start + len(z)]] = np.inf
        return g

    return score


class TestFrozenParticles:
    """The update skips the freeze pass while no particle is frozen; the
    samples equal those of the loop that always runs it."""

    # reverse step 3; a Langevin step of step 5 (in the second of two
    # blocks of 150); then three more in step 6, one already frozen
    POISON = {(3, 0): [5], (5, 1): [170], (6, 0): [5, 40, 200]}
    FROZEN = [0, 0, 0, 1, 1, 2, 4, 4, 4, 4]

    def poison_rows(self, monkeypatch, states=None):
        """Make every block's step score poisoned by ``POISON``."""
        real_rows = sample._reverse_rows

        def rows(grad_fn, times, d, scfg, start, stop):
            return real_rows(poisoned(grad_fn, self.POISON, start, states),
                             times, d, scfg, start, stop)

        monkeypatch.setattr(sample, "_reverse_rows", rows)

    def check(self, samples, aborted, frozen, times, score, scfg, d):
        """``score(n, z)`` is the unpoisoned score of reverse step ``n``."""
        states = []
        want, want_aborted, want_frozen = reference_rows(
            poisoned(score, self.POISON, states=states), times, d, scfg)
        assert frozen == want_frozen == self.FROZEN
        np.testing.assert_array_equal(aborted, want_aborted)
        assert np.flatnonzero(aborted).tolist() == [5, 40, 170, 200]
        assert samples.tobytes() == want.tobytes()
        # the state of the last call before the first non-finite update
        per_step = 1 + scfg.langevin_steps
        for row, call in [(5, 3 * per_step), (170, 5 * per_step + 1),
                          (40, 6 * per_step), (200, 6 * per_step)]:
            assert samples[row].tobytes() == states[call][row].tobytes()
        assert not np.array_equal(samples[5], states[3 * per_step - 1][5])

    def test_scored_sampler(self, monkeypatch):
        times = np.linspace(0.0, 1.0, 11)

        def score(s, z):
            return 2.0 * riccati_reference(0.4, s) * z

        states = []
        self.poison_rows(monkeypatch, states)
        scfg = SamplerConfig(n_particles=300, langevin_steps=1, seed=21)
        batch = reverse_sample_scored(score, times, 2, scfg)
        assert len(states) == 20
        self.check(batch.samples, batch.aborted, batch.frozen_per_step, times,
                   lambda n, z: score(times[-1] - times[n], z), scfg, 2)

    def test_two_blocks(self, workers, monkeypatch):
        space, traj, cfg = box_trajectory()
        self.poison_rows(monkeypatch)
        workers(2)
        scfg = SamplerConfig(n_particles=300, langevin_steps=1, seed=21)
        batch = reverse_sample(traj, space, scfg, cfg)
        kernel = prepare_score(traj.snapshots[0], space)    # every snapshot's
        self.check(batch.samples, batch.aborted, batch.frozen_per_step,
                   np.array(batch.times),
                   lambda n, z: grad_v_batch(kernel, space, z), scfg, 2)


class TestTrajectorySampler:
    @pytest.fixture(scope="class")
    @classmethod
    def solved(cls):
        d = 2
        rng = np.random.default_rng(33)
        a = rng.uniform(0, 1, (d, d))
        q = a.T @ a + 0.1 * np.eye(d)
        space = PolySpace([(-5, 5)] * d, [2] * d)
        spec = PotentialSpec(builtins=[
            {"name": "gaussian", "coords": (0, 1), "params": {"Q": q.tolist()}}])
        phi = build_potential_tt(spec, space)
        cfg = SolverConfig(T=8.0, tau_max=0.1, rho=0.2, seed=5)
        return q, space, cfg, solve_hjb(phi, space, cfg)

    def test_covariance_of_samples_matches_target(self, solved):
        q, space, cfg, traj = solved
        scfg = SamplerConfig(lam=0.0, n_particles=20000, seed=4)
        batch = reverse_sample(traj, space, scfg, cfg)
        assert batch.aborted.sum() == 0
        cov = np.cov(batch.samples.T)
        target = 0.5 * np.linalg.inv(q)  # pi* ~ N(0, (2 Q)^-1)
        # the default (reversed solver) grid has steps up to tau_max = 0.1,
        # so the Euler-Maruyama bias of a few percent dominates MC noise
        assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 0.10

    def test_seed_reproducibility(self, solved):
        _, space, cfg, traj = solved
        scfg = SamplerConfig(lam=0.0, n_particles=100, seed=9)
        b1 = reverse_sample(traj, space, scfg, cfg)
        b2 = reverse_sample(traj, space, scfg, cfg)
        np.testing.assert_array_equal(b1.samples, b2.samples)
        np.testing.assert_array_equal(b1.oob_counts, b2.oob_counts)

    def test_out_of_domain_counts_exact(self, solved):
        _, space, cfg, traj = solved
        # tiny domain box forces countable leakage
        small = PolySpace([(-0.5, 0.5)] * 2, [2, 2])
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, -2.0]])
        assert count_out_of_domain(small, pts).tolist() == [0, 1, 2]

    def test_reverse_step_scores_its_snapshot(self, solved, monkeypatch):
        """Reverse step n, Langevin steps included, scores with snapshot
        N - n of the solve, at the step's diffusion time."""
        _, space, cfg, traj = solved
        real_prepare, real_grad = sample.prepare_score, sample.grad_v_batch
        snap_of, used = {}, []

        def prepare(snap, space):
            kernel = real_prepare(snap, space)
            snap_of[id(kernel)] = snap
            return kernel

        def grad(kernel, space, z, **kw):
            used.append(snap_of[id(kernel)])
            return real_grad(kernel, space, z, **kw)

        monkeypatch.setattr(sample, "prepare_score", prepare)
        monkeypatch.setattr(sample, "grad_v_batch", grad)
        scfg = SamplerConfig(lam=0.0, n_particles=20, langevin_steps=1, seed=3)
        batch = reverse_sample(traj, space, scfg, cfg)
        assert batch.samples.shape == (20, 2)
        want = [snap for snap in traj.snapshots[:0:-1] for _ in range(2)]
        assert [id(s) for s in used] == [id(s) for s in want]
        times = np.array(batch.times)
        assert np.allclose(times[-1] - times[:-1], [s.t for s in want[::2]],
                           rtol=0, atol=1e-12)

    def test_incomplete_trajectory_rejected(self, solved):
        _, space, cfg, traj = solved
        broken = Trajectory(snapshots=traj.snapshots[:-1], error="aborted")
        scfg = SamplerConfig(lam=0.0, n_particles=10, seed=1)
        with pytest.raises(ValueError):
            reverse_sample(broken, space, scfg, cfg)


def box_trajectory():
    """The half-norm potential on [-0.5, 0.5]^2 at 11 times, so particles
    leave the box."""
    space, snap = standard_half_norm(2, intervals=(-0.5, 0.5))
    traj = Trajectory(snapshots=[SolutionSnapshot(t, snap.coeffs)
                                 for t in np.linspace(0.0, 1.0, 11)])
    return space, traj, SolverConfig(T=1.0, tau_max=0.1)


class TestDomainClamp:
    """With ``clamp_to_domain`` the score is evaluated at the particles
    projected onto the box and nothing is counted; without it every
    out-of-domain coordinate of every evaluation is counted."""

    @staticmethod
    def run(monkeypatch, clamp):
        space, traj, cfg = box_trajectory()
        states, points = [], []
        real_rows, real_grad = sample._reverse_rows, sample.grad_v_batch

        def scored(grad_fn, times, d, scfg, start, stop):
            def recording(n, z):
                states.append(z.copy())
                return grad_fn(n, z)
            return real_rows(recording, times, d, scfg, start, stop)

        def grad(snap, space, xs, **kw):
            points.append(xs.copy())
            return real_grad(snap, space, xs, **kw)

        monkeypatch.setattr(sample, "_reverse_rows", scored)
        monkeypatch.setattr(sample, "grad_v_batch", grad)
        scfg = SamplerConfig(n_particles=200, langevin_steps=1, seed=8,
                             clamp_to_domain=clamp)
        batch = reverse_sample(traj, space, scfg, cfg)
        assert len(states) == len(points) == 20  # 10 reverse + 10 Langevin steps
        return space, batch, states, points

    def test_clamped_scores_count_nothing(self, monkeypatch):
        space, batch, states, points = self.run(monkeypatch, clamp=True)
        for z, xs in zip(states, points):
            np.testing.assert_array_equal(xs, np.clip(z, -0.5, 0.5))
        assert sum(count_out_of_domain(space, z).sum() for z in states) > 0
        assert not batch.oob_counts.any()

    def test_unclamped_counts_every_evaluation(self, monkeypatch):
        space, batch, states, points = self.run(monkeypatch, clamp=False)
        for z, xs in zip(states, points):
            np.testing.assert_array_equal(xs, z)
        expected = sum(count_out_of_domain(space, z) for z in states)
        assert expected.sum() > 0
        np.testing.assert_array_equal(batch.oob_counts, expected)


@pytest.fixture
def workers(monkeypatch):
    """``workers(k)`` makes ``reverse_sample`` split any batch into ``k``
    blocks; every test using it checks that no child is left behind."""
    def split(k):
        monkeypatch.setattr(sample, "MIN_BLOCK", 1)
        monkeypatch.setattr(sample, "_usable_cpus", lambda: k)
    yield split
    assert multiprocessing.active_children() == []


def poison_block(monkeypatch, first_row, action):
    """Run ``action(grad_fn, n, z)`` in place of the score of reverse step
    ``n`` in the block starting at ``first_row``."""
    real_rows = sample._reverse_rows

    def rows(grad_fn, times, d, scfg, start, stop):
        if start == first_row:
            return real_rows(lambda n, z: action(grad_fn, n, z), times, d, scfg, start, stop)
        return real_rows(grad_fn, times, d, scfg, start, stop)

    monkeypatch.setattr(sample, "_reverse_rows", rows)


class TestParticleBlocks:
    """The particle rows split into forked blocks without changing a bit."""

    # 0, 1, 499, 500, 501, n - 1 and n sit on both sides of the chunk edges
    # of n = 1001 rows; the others are rows inside the first chunk
    @pytest.mark.parametrize("lo", [0, 1, 2, 3, 5, 6, 7, 399, 400, 499, 500, 501,
                                    1000, 1001])
    def test_normals_rows_equal_the_full_draw(self, lo):
        shape = (1001, 3)
        full = _normals(77, 5, shape)
        assert full.shape == shape
        for hi in (lo, lo + 1, 499, 500, 501, 1000, 1001):
            if lo <= hi <= shape[0]:
                np.testing.assert_array_equal(_normals(77, 5, shape, lo, hi),
                                              full[lo:hi])

    def test_normals_of_no_rows(self):
        assert _normals(3, 1, (0, 4)).shape == (0, 4)

    def test_normals_chunks_are_the_philox_ziggurat_draws(self):
        """Chunk ``c`` of stream ``(seed, stream)`` is the ziggurat draw at
        Philox counter ``[0, 0, c, 0]``; a short last chunk draws its rows."""
        full = _normals(77, 5, (1001, 3))
        key = np.array([77, 5], dtype=np.uint64)
        for c, rows in [(0, 500), (1, 500), (2, 1)]:
            counter = np.array([0, 0, c, 0], dtype=np.uint64)
            bits = np.random.Philox(key=key, counter=counter)
            np.testing.assert_array_equal(
                full[500 * c:500 * c + rows],
                np.random.Generator(bits).standard_normal((rows, 3)))

    def test_normals_moments(self):
        """Mean, variance and fourth moment of 10^6 draws within 5 standard
        errors of 0, 1 and 3 (the draws' variances are 1, 2 and 96)."""
        x = _normals(2024, 9, (250_000, 4)).ravel()
        se = np.sqrt(np.array([1.0, 2.0, 96.0]) / x.size)
        moments = np.array([x.mean(), (x ** 2).mean(), (x ** 4).mean()])
        assert np.all(np.abs(moments - [0.0, 1.0, 3.0]) <= 5 * se)

    def test_normals_differ_across_chunks_and_streams(self):
        a = _normals(11, 1, (1000, 2))
        assert not np.any(a[:500] == a[500:])
        assert not np.any(a == _normals(11, 2, (1000, 2)))
        assert not np.any(a == _normals(12, 1, (1000, 2)))

    # partial first and last chunks, whole chunks, one row and no rows
    @pytest.mark.parametrize("n,lo,hi", [(1001, 250, 1001), (1001, 0, 1000),
                                         (1001, 499, 501), (1001, 1000, 1001),
                                         (2000, 667, 1334), (0, 0, 0), (1001, 700, 700)])
    def test_reused_generator_draws_the_fresh_rows(self, n, lo, hi):
        """One generator and one buffer, re-keyed per stream in any order,
        draw what fresh ones do."""
        shape = (n, 3)
        rng = np.random.Generator(np.random.Philox())
        out = np.empty((sample._chunk_rows(n, lo, hi)[1], 3))
        for seed, stream in [(7, 3), (7, 1), (7, 3), (8, 3), (7, 3), (8, 1), (7, 1)]:
            got = _normals(seed, stream, shape, lo, hi, rng, out)
            assert got.shape == (hi - lo, 3)
            assert got.size == 0 or np.shares_memory(got, out)
            want = _normals(seed, stream, shape, lo, hi)
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == _normals(seed, stream, shape)[lo:hi].tobytes()

    @pytest.mark.parametrize("n,cpus,sizes", [
        (1999, 3, [666, 666, 667]), (1000, 3, [500, 500]), (999, 3, [999]),
        (5000, 1, [5000]), (0, 2, [0])])
    def test_blocks_are_contiguous_and_large_enough(self, monkeypatch, n, cpus, sizes):
        monkeypatch.setattr(sample, "_usable_cpus", lambda: cpus)
        blocks = sample._blocks(n)
        assert [stop - start for start, stop in blocks] == sizes
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))

    @pytest.mark.parametrize("clamp", [False, True])
    def test_any_split_gives_identical_results(self, workers, monkeypatch, clamp):
        """1, 2 and 3 blocks of 301 particles (3 blocks are uneven) give the
        same arrays and per-step lists, with particles frozen in several
        blocks."""
        space, traj, cfg = box_trajectory()
        real_grad = sample.grad_v_batch

        def grad(snap, space, xs, **kw):    # freezes a particle by its own state
            g = real_grad(snap, space, xs, **kw)
            g[np.hypot(xs[:, 0], xs[:, 1]) < 0.04] = np.inf
            return g

        monkeypatch.setattr(sample, "grad_v_batch", grad)
        scfg = SamplerConfig(n_particles=301, langevin_steps=1, seed=8,
                             clamp_to_domain=clamp)
        batches = []
        for k in (1, 2, 3):
            workers(k)
            batches.append(reverse_sample(traj, space, scfg, cfg))
        frozen = np.flatnonzero(batches[0].aborted)
        assert len({np.searchsorted([100, 200], i, side="right") for i in frozen}) > 1
        assert batches[0].frozen_per_step[-1] == len(frozen)
        assert batches[0].oob_counts.any() != clamp
        for batch in batches[1:]:
            np.testing.assert_array_equal(batch.samples, batches[0].samples)
            np.testing.assert_array_equal(batch.aborted, batches[0].aborted)
            np.testing.assert_array_equal(batch.oob_counts, batches[0].oob_counts)
            for name in ("times", "frozen_per_step", "max_score_norm_per_step",
                         "out_of_domain_per_step"):
                assert getattr(batch, name) == getattr(batches[0], name)

    @pytest.mark.parametrize("poisoned,raises", [(24, False), (36, True)],
                             ids=["8-percent", "12-percent"])
    def test_divergence_check_counts_all_blocks(self, workers, monkeypatch,
                                                poisoned, raises):
        """All frozen particles sit in the last of three blocks of 100, far
        above 10% of that block; only the share of all 300 counts."""
        space, traj, cfg = box_trajectory()

        def diverge(grad_fn, n, z):
            g = grad_fn(n, z)
            g[:poisoned] = np.inf
            return g

        poison_block(monkeypatch, 200, diverge)
        workers(3)
        scfg = SamplerConfig(n_particles=300, seed=8)
        if raises:
            with pytest.raises(RuntimeError, match="36 of 300 particles diverged"):
                reverse_sample(traj, space, scfg, cfg)
        else:
            batch = reverse_sample(traj, space, scfg, cfg)
            assert np.flatnonzero(batch.aborted).tolist() == list(range(200, 224))

    def test_failing_worker_raises_its_message(self, workers, monkeypatch):
        space, traj, cfg = box_trajectory()

        def fail(grad_fn, n, z):
            raise ValueError("score exploded")

        poison_block(monkeypatch, 100, fail)
        workers(3)
        with pytest.raises(RuntimeError, match=r"particles 100-199 failed: "
                                               r"ValueError: score exploded"):
            reverse_sample(traj, space, SamplerConfig(n_particles=300, seed=8), cfg)

    def test_killed_worker_names_its_exit_code(self, workers, monkeypatch):
        space, traj, cfg = box_trajectory()

        def die(grad_fn, n, z):
            os.kill(os.getpid(), signal.SIGKILL)

        poison_block(monkeypatch, 200, die)
        workers(3)
        with pytest.raises(RuntimeError, match=r"particles 200-299 exited with code -9"):
            reverse_sample(traj, space, SamplerConfig(n_particles=300, seed=8), cfg)

    def test_failure_in_this_process_stops_the_workers(self, workers, monkeypatch):
        """The children, still busy for 20 s, are terminated, not awaited."""
        space, traj, cfg = box_trajectory()

        def rows(grad_fn, times, d, scfg, start, stop):
            if start:
                time.sleep(20)
            raise KeyError("first block")

        monkeypatch.setattr(sample, "_reverse_rows", rows)
        workers(3)
        began = time.perf_counter()
        with pytest.raises(KeyError, match="first block"):
            reverse_sample(traj, space, SamplerConfig(n_particles=300, seed=8), cfg)
        assert time.perf_counter() - began < 10


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(lam=1.5)
        with pytest.raises(ValueError):
            SamplerConfig(langevin_steps=10, langevin_tau=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(n_particles=-1)
