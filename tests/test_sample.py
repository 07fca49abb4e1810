"""Model evaluation and the reverse-time sampling process."""

import numpy as np
import pytest

from tthjb import sample
from tthjb.basis import PolySpace
from tthjb.integrate import SolutionSnapshot, SolverConfig, Trajectory, solve_hjb
from tthjb.operators import (PotentialSpec, PotentialTerm, build_potential_tt,
                             covariance_error, extract_quadratic)
from tthjb.oracles import riccati_reference
from tthjb.sample import (SampleBatch, SamplerConfig, count_out_of_domain,
                          eval_v, eval_v_batch, grad_v, grad_v_batch,
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
        assert eval_v(snap, space, [1.0, 1.0, 1.0]) == pytest.approx(1.5, rel=1e-12)

    def test_even_polynomial_at_origin(self):
        space, snap = standard_half_norm(2)
        assert eval_v(snap, space, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_polynomial(self):
        rng = np.random.default_rng(0)
        space = PolySpace([(-2, 2)] * 3, [3] * 3)
        tt = tt_random(space.mode_sizes, (1, 2, 2, 1), rng)
        snap = SolutionSnapshot(0.0, tt)
        from tthjb.tt import tt_contract_mode_vectors
        for x in rng.uniform(-2, 2, (10, 3)):
            vs = [space.bases[i].evaluate(x[i]) for i in range(3)]
            ref = tt_contract_mode_vectors(tt, vs)
            assert eval_v(snap, space, x) == pytest.approx(ref, rel=1e-10)

    def test_extrapolation_permitted(self):
        space, snap = standard_half_norm(2)
        assert eval_v(snap, space, [7.0, 0.0]) == pytest.approx(24.5, rel=1e-9)


class TestGradient:
    def test_half_norm_gradient_is_identity(self):
        space, snap = standard_half_norm(3)
        x = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(grad_v(snap, space, x), x, atol=1e-11)

    def test_doublewell_analytic_gradient(self):
        space = PolySpace([(-2, 2)] * 2, [4, 4])
        spec = PotentialSpec(builtins=[
            {"name": "doublewell", "coords": (0, 1), "params": {}}])
        snap = SolutionSnapshot(0.0, build_potential_tt(spec, space))
        got = grad_v(snap, space, [1.0, 1.0])
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
    def test_single_point_wrappers(self, name):
        space, snap, xs = self.case(name, 5)
        for x in xs:
            value, grad = eval_v(snap, space, x), grad_v(snap, space, x)
            assert isinstance(value, float) and grad.shape == (len(x),)
            assert value == eval_v_batch(snap, space, x[None])[0]
            np.testing.assert_array_equal(grad, grad_v_batch(snap, space, x[None])[0])
            point = x[None]
            assert (abs(value - loop_eval(snap, space, point)[0])
                    <= KERNEL_RTOL * loop_eval(snap, space, point, np.abs)[0])
            assert np.all(np.abs(grad - loop_grad(snap, space, point)[0])
                          <= KERNEL_RTOL * loop_grad(snap, space, point, np.abs)[0])


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
        assert batch.metadata["frozen_per_step"] == [0] * 6 + [3] * 4
        assert batch.metadata["max_score_norm_per_step"] == [
            peaks[times[-1] - tn] for tn in times[:-1]]

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

    def test_solver_grid_never_bridges(self, solved, monkeypatch):
        """On the default grid every reverse step finds its stored snapshot;
        none runs an Euler bridge step for a round-off time offset."""
        _, space, cfg, traj = solved

        def bridge(*args):
            raise AssertionError("evaluate_at_time called on the solver grid")

        monkeypatch.setattr("tthjb.sample.evaluate_at_time", bridge)
        scfg = SamplerConfig(lam=0.0, n_particles=20, langevin_steps=1, seed=3)
        batch = reverse_sample(traj, space, scfg, cfg)
        assert batch.samples.shape == (20, 2)

    def test_custom_grid(self, solved):
        _, space, cfg, traj = solved
        scfg = SamplerConfig(lam=1.0, n_particles=50, seed=2)
        times = np.linspace(0.0, traj.times[-1], 41)
        batch = reverse_sample(traj, space, scfg, cfg, times=times)
        assert batch.samples.shape == (50, 2)
        assert np.all(np.isfinite(batch.samples))

    def test_incomplete_trajectory_rejected(self, solved):
        _, space, cfg, traj = solved
        broken = Trajectory(snapshots=traj.snapshots[:-1], error="aborted")
        scfg = SamplerConfig(lam=0.0, n_particles=10, seed=1)
        with pytest.raises(ValueError):
            reverse_sample(broken, space, scfg, cfg)


class TestDomainClamp:
    """With ``clamp_to_domain`` the score is evaluated at the particles
    projected onto the box and nothing is counted; without it every
    out-of-domain coordinate of every evaluation is counted."""

    @staticmethod
    def run(monkeypatch, clamp):
        space, snap = standard_half_norm(2, intervals=(-0.5, 0.5))
        traj = Trajectory(snapshots=[SolutionSnapshot(t, snap.coeffs)
                                     for t in np.linspace(0.0, 1.0, 11)])
        states, points = [], []
        real_scored, real_grad = sample.reverse_sample_scored, sample.grad_v_batch

        def scored(grad_fn, times, d, scfg):
            def recording(s, z):
                states.append(z.copy())
                return grad_fn(s, z)
            return real_scored(recording, times, d, scfg)

        def grad(snap, space, xs):
            points.append(xs.copy())
            return real_grad(snap, space, xs)

        monkeypatch.setattr(sample, "reverse_sample_scored", scored)
        monkeypatch.setattr(sample, "grad_v_batch", grad)
        scfg = SamplerConfig(n_particles=200, langevin_steps=1, seed=8,
                             clamp_to_domain=clamp)
        batch = reverse_sample(traj, space, scfg, SolverConfig(T=1.0, tau_max=0.1))
        assert len(states) == len(points) == 20  # 10 reverse + 10 Langevin steps
        return space, batch, states, points

    def test_clamped_scores_count_nothing(self, monkeypatch):
        space, batch, states, points = self.run(monkeypatch, clamp=True)
        for z, xs in zip(states, points):
            np.testing.assert_array_equal(xs, np.clip(z, -0.5, 0.5))
        assert sum(count_out_of_domain(space, z).sum() for z in states) > 0
        assert not batch.oob_counts.any()
        assert batch.metadata["clamp_to_domain"] is True

    def test_unclamped_counts_every_evaluation(self, monkeypatch):
        space, batch, states, points = self.run(monkeypatch, clamp=False)
        for z, xs in zip(states, points):
            np.testing.assert_array_equal(xs, z)
        expected = sum(count_out_of_domain(space, z) for z in states)
        assert expected.sum() > 0
        np.testing.assert_array_equal(batch.oob_counts, expected)


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(lam=1.5)
        with pytest.raises(ValueError):
            SamplerConfig(langevin_steps=10, langevin_tau=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(n_particles=-1)
