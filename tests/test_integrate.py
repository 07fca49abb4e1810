"""Adaptive Euler solver: step-size criteria, re-compression, full solves."""

import math
from collections import Counter

import numpy as np
import pytest

from tthjb import integrate, tt
from tthjb.basis import PolySpace
from tthjb.integrate import (PowerState, RankBudgetError, SolutionSnapshot, SolverConfig,
                             Trajectory, degree_truncate, euler_step,
                             power_iteration_bound,
                             rank_adapt, solve_hjb, stepsize_projection,
                             stepsize_retraction, stepsize_stiffness,
                             _step_quantities)
from tthjb.operators import (PotentialSpec, PotentialTerm, apply_stiffness,
                             build_potential_tt, covariance_error, extract_quadratic,
                             prepare_stiffness)
from tthjb.oracles import dense_nonlin, gaussian_eigen_bound, riccati_reference
from tthjb.tt import (tt_add_scaled, tt_centres, tt_from_dense, tt_norm, tt_random,
                      tt_round, tt_to_dense)


def gaussian_setup(d, seed, intervals=(-5.0, 5.0)):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, (d, d))
    q = a.T @ a + 0.1 * np.eye(d)
    space = PolySpace([intervals] * d, [2] * d)
    spec = PotentialSpec(builtins=[
        {"name": "gaussian", "coords": tuple(range(d)), "params": {"Q": q.tolist()}}])
    return q, space, build_potential_tt(spec, space)


def diag_gaussian(diag, intervals=(-5.0, 5.0)):
    """Potential 0.5 x' diag(a) x as a TT (the eigenvalue-bound convention)."""
    d = len(diag)
    space = PolySpace([intervals] * d, [2] * d)
    spec = PotentialSpec(builtins=[
        {"name": "gaussian", "coords": tuple(range(d)),
         "params": {"Q": (np.diag(diag) / 2.0).tolist()}}])
    return space, build_potential_tt(spec, space)


CFG = dict(T=1.0, tau_max=0.1, rho=0.2, delta_proj=0.01, delta_rank=0.01,
           delta_contr=1e-8)


class TestSolverConfig:
    def test_scalar_rho(self):
        cfg = SolverConfig(T=1, tau_max=0.1, rho=0.3)
        assert cfg.rho_at(0.0) == 0.3
        assert cfg.rho_at(10.0) == 0.3

    def test_piecewise_schedule(self):
        cfg = SolverConfig(T=1, tau_max=0.1, rho=[(0.0, 0.001), (1e-6, 0.5)])
        assert cfg.rho_at(0.0) == 0.001
        assert cfg.rho_at(5e-7) == 0.001
        assert cfg.rho_at(1e-6) == 0.5
        assert cfg.rho_at(1.0) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(T=0, tau_max=0.1)
        with pytest.raises(ValueError):
            SolverConfig(T=1, tau_max=0.1, rho=1.5)
        with pytest.raises(ValueError):
            SolverConfig(T=1, tau_max=0.1, rho=[(0.5, 0.2)])  # must start at 0


class TestPowerIteration:
    def test_1d_dominant_eigenvalue(self):
        # v = x^2 is 0.5 * 2 x^2; the per-dimension spectrum is
        # {0, 1-2a, 2(1-2a)} with a = 2, so |lambda| = 6.
        space, phi = diag_gaussian([2.0])
        cfg = SolverConfig(**CFG, p_digits=3, power_max_iters=300, seed=3)
        lam, iters = power_iteration_bound(SolutionSnapshot(0.0, phi), space, cfg)
        eps_p = 1e-3  # P = ceil(-log10 6) = 0; eps = 10^-(0+3)
        assert 6.0 < lam <= 6.0 + eps_p + 1e-9
        assert iters >= 2

    def test_d3_matches_closed_form_sum(self):
        space, phi = diag_gaussian([1.0, 2.0, 3.0])
        cfg = SolverConfig(**CFG, p_digits=13, power_max_iters=2000, seed=3)
        lam, _ = power_iteration_bound(SolutionSnapshot(0.0, phi), space, cfg)
        bound = gaussian_eigen_bound([1.0, 2.0, 3.0])
        assert abs(lam - bound) / bound <= 0.01
        assert lam <= bound * (1 + 1e-6) + 1e-3

    def test_never_exceeds_closed_form(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            diag = rng.uniform(0.6, 3.0, size=2)
            space, phi = diag_gaussian(diag)
            cfg = SolverConfig(**CFG, p_digits=13, power_max_iters=2000,
                               seed=100 + trial)
            lam, _ = power_iteration_bound(SolutionSnapshot(0.0, phi), space, cfg)
            bound = gaussian_eigen_bound(diag)
            assert abs(lam) <= bound * (1 + 1e-6) + 1e-2

    @pytest.mark.parametrize("d", [4, 5, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_default_estimate_within_10_percent_of_dense_radius(self, d, seed):
        rng = np.random.default_rng(500 + 10 * d + seed)
        a = rng.uniform(0.0, 1.0, (d, d))
        q = a.T @ a + 0.1 * np.eye(d)
        space = PolySpace([(-5.0, 5.0)] * d, [2] * d)
        phi = build_potential_tt(PotentialSpec(builtins=[
            {"name": "gaussian", "coords": tuple(range(d)),
             "params": {"Q": q.tolist()}}]), space)
        side = prepare_stiffness(phi, space)
        n = 3 ** d
        h = np.zeros((n, n))
        for j in range(n):
            col = tt_from_dense(np.eye(n)[j].reshape(space.mode_sizes), 0.0)
            h[:, j] = tt_to_dense(apply_stiffness(side, col, space)).ravel()
        rho = float(np.max(np.abs(np.linalg.eigvals(h))))
        est, _ = power_iteration_bound(SolutionSnapshot(0.0, phi), space,
                                       SolverConfig(T=1.0, tau_max=0.1, seed=seed))
        assert abs(est / rho - 1.0) <= 0.10

    @pytest.mark.parametrize("d,seed,p_digits,max_iters,stops", [
        (5, 3, 12, 40, False), (4, 0, 3, 200, True)], ids=["capped", "stopped"])
    def test_estimate_is_second_half_mean(self, monkeypatch, d, seed, p_digits,
                                          max_iters, stops):
        _, space, phi = gaussian_setup(d, seed=seed)
        cfg = SolverConfig(**CFG, p_digits=p_digits, power_max_iters=max_iters, seed=1)
        seen = []
        real_inner = integrate.tt_inner

        def recording(x, y):
            seen.append(abs(real_inner(x, y)))
            return seen[-1]

        monkeypatch.setattr(integrate, "tt_inner", recording)
        state = PowerState()
        est, iters = power_iteration_bound(SolutionSnapshot(0.0, phi), space, cfg, state)
        assert len(seen) == iters and state.converged == stops
        means = [float(np.mean(seen[k // 2:k])) for k in range(1, iters + 1)]
        settled = [k for k in range(2, iters + 1)
                   if abs(means[k - 1] - means[k - 2]) <= 10.0 ** -p_digits * means[k - 1]]
        # the rule fires at the first settled k from the cold-start floor on
        later = [k for k in settled if k >= integrate.COLD_START_ITERS]
        assert iters == (later[0] if stops else max_iters)
        assert stops == bool(later)
        if stops:  # the floor held back a rule that had settled earlier
            assert settled[0] < integrate.COLD_START_ITERS
        mean = means[-1]
        assert est == mean + 10.0 ** (-(math.ceil(-math.log10(mean)) + cfg.p_digits))

    def test_warm_start_state(self):
        _, space, phi = gaussian_setup(3, seed=4)
        cfg = SolverConfig(**CFG, seed=2)
        state = PowerState()
        cold = power_iteration_bound(SolutionSnapshot(0.0, phi), space, cfg, state)
        assert state.converged and state.vector.mode_sizes == phi.mode_sizes
        warm = power_iteration_bound(SolutionSnapshot(0.0, phi), space, cfg, state)
        assert warm[1] < cold[1]
        assert abs(warm[0] / cold[0] - 1.0) <= 1e-2
        # after the mode sizes grow, the stored iterate is ignored: a cold start
        wide = PolySpace([(-5.0, 5.0)] * 3, [3] * 3)
        grown = tt_random(wide.mode_sizes, (1, 2, 2, 1), np.random.default_rng(0))
        fresh = PowerState()
        assert (power_iteration_bound(SolutionSnapshot(0.0, grown), wide, cfg, state)
                == power_iteration_bound(SolutionSnapshot(0.0, grown), wide, cfg, fresh))

    def test_zero_state_flagged(self):
        from tthjb.tt import tt_zero
        space = PolySpace([(-1, 1)] * 2, [2, 2])
        cfg = SolverConfig(**CFG)
        lam, iters = power_iteration_bound(
            SolutionSnapshot(0.0, tt_zero((3, 3))), space, cfg)
        assert lam == 0.0 and iters == 0


class TestStepsizeRules:
    def test_stiffness_formula(self):
        assert stepsize_stiffness(6.0, 0.2) == pytest.approx(0.2 / 3.0)
        assert stepsize_stiffness(18.0, 0.5) == pytest.approx(1.0 / 18.0)
        assert stepsize_stiffness(0.0, 0.2) == math.inf
        with pytest.raises(ValueError):
            stepsize_stiffness(1.0, 1.5)

    def test_projection_exact_for_quadratic_state(self):
        _, space, phi = gaussian_setup(3, seed=0)
        cfg = SolverConfig(**CFG)
        rel = _step_quantities(SolutionSnapshot(0.0, phi), space)[1]
        tau = stepsize_projection(rel, cfg)
        # NL of a quadratic has degree 2 = the space degree: projection exact.
        assert rel == 0.0
        assert tau == cfg.tau_max

    def test_projection_formula_on_cubic_state(self):
        space = PolySpace([(-2, 2)] * 2, [3, 3])
        rng = np.random.default_rng(1)
        y = tt_random(space.mode_sizes, (1, 2, 1), rng)
        cfg = SolverConfig(**CFG)
        rel = _step_quantities(SolutionSnapshot(0.0, y), space)[1]
        tau = stepsize_projection(rel, cfg)
        assert rel > 0.0
        assert tau == pytest.approx(cfg.delta_proj / rel)
        # Parseval form against the dense norms of the nonlinear part.
        from tthjb.operators import apply_nonlin, project_degree
        nl, _ = apply_nonlin(y, space)
        dnl = tt_to_dense(nl)
        pnl = dnl[:4, :4]
        ref = np.sqrt(np.sum(dnl**2) - np.sum(pnl**2)) / np.linalg.norm(dnl)
        assert rel == pytest.approx(ref, rel=1e-10)

    def test_projection_error_resolved_when_tiny(self):
        # x^2 + y^2 + eps x^3: NL drops only the 9 eps^2 x^4 term, about 1e-10
        # of |NL|, far below the round-off of |NL|^2 - |P NL|^2.
        space = PolySpace([(-2.0, 2.0)] * 2, [3, 3])
        spec = PotentialSpec(terms=[PotentialTerm((0,), {(2,): 1.0, (3,): 1e-5}),
                                    PotentialTerm((1,), {(2,): 1.0})])
        phi = build_potential_tt(spec, space)
        _, rel = _step_quantities(SolutionSnapshot(0.0, phi), space)
        nl = dense_nonlin(tt_to_dense(phi), space)
        dropped = nl.copy()
        dropped[:4, :4] = 0.0
        ref = np.linalg.norm(dropped) / np.linalg.norm(nl)
        assert 1e-11 < ref < 1e-9
        assert rel == pytest.approx(ref, rel=1e-6)

    def test_retraction_trivial_when_budget_sufficient(self):
        _, space, phi = gaussian_setup(2, seed=2)
        cfg = SolverConfig(**CFG)
        snap = SolutionSnapshot(0.0, phi)
        rhs, _ = _step_quantities(snap, space)
        # ranks of phi itself as budget: rhs of a quadratic state stays
        # quadratic, so a generous budget makes the retraction exact.
        tau, _ = stepsize_retraction(snap, rhs, [9], 0.05, cfg)
        assert tau == 0.05

    def test_retraction_loose_tolerance_returns_cap(self):
        space = PolySpace([(-2, 2)] * 2, [3, 3])
        rng = np.random.default_rng(3)
        y = tt_random(space.mode_sizes, (1, 3, 1), rng)
        snap = SolutionSnapshot(0.0, y)
        rhs, _ = _step_quantities(snap, space)
        cfg = SolverConfig(T=1, tau_max=0.1, delta_rank=1.0)  # always satisfied
        assert stepsize_retraction(snap, rhs, [1], 0.07, cfg)[0] == 0.07

    def test_retraction_bisection_near_scan_optimum(self):
        # d=2 matrix case: compare against a dense scan of the retraction
        # error over tau.
        space = PolySpace([(-2, 2)] * 2, [3, 3])
        rng = np.random.default_rng(4)
        y = tt_random(space.mode_sizes, (1, 2, 1), rng)
        snap = SolutionSnapshot(0.0, y)
        rhs, _ = _step_quantities(snap, space)
        cfg = SolverConfig(T=1, tau_max=1.0, delta_rank=0.02)
        got, _ = stepsize_retraction(snap, rhs, [2], 1.0, cfg)

        def rel_retr(tau):
            from tthjb.tt import tt_add_scaled, tt_round
            ybar = tt_add_scaled(y, rhs, tau)
            r = tt_round(ybar, max_ranks=[2])
            return tt_norm(tt_add_scaled(ybar, r, -1.0)) / tt_norm(ybar)

        taus = np.linspace(1e-4, 1.0, 1000)
        ok = [t for t in taus if rel_retr(t) <= cfg.delta_rank]
        scan_opt = max(ok)
        assert rel_retr(got) <= cfg.delta_rank
        assert got >= scan_opt * 0.98 - (taus[1] - taus[0])

    def test_retraction_evaluates_no_step_twice(self, monkeypatch):
        space = PolySpace([(-2, 2)] * 2, [3, 3])
        y = tt_random(space.mode_sizes, (1, 2, 1), np.random.default_rng(4))
        snap = SolutionSnapshot(0.0, y)
        rhs, _ = _step_quantities(snap, space)
        cfg = SolverConfig(T=1, tau_max=1.0, delta_rank=0.02)
        taus = []
        rel_err = integrate._retraction_rel_err

        def recording(y, rhs, tau, target_ranks, delta_contr):
            taus.append(tau)
            return rel_err(y, rhs, tau, target_ranks, delta_contr)

        monkeypatch.setattr(integrate, "_retraction_rel_err", recording)
        got, _ = stepsize_retraction(snap, rhs, [2], 1.0, cfg)
        assert 1e-3 < got < 1.0  # the search halved, then bisected
        assert len(taus) == len(set(taus)), taus

    def test_retraction_hands_over_its_last_sum(self):
        """The search hands over the step it accepted: the sum at the
        returned step rounded to the caps at delta_contr."""
        space = PolySpace([(-2, 2)] * 3, [3, 3, 3])
        y = tt_random(space.mode_sizes, (1, 2, 2, 1), np.random.default_rng(6))
        snap = SolutionSnapshot(0.25, y)
        rhs, _ = _step_quantities(snap, space)
        cfg = SolverConfig(T=1, tau_max=1.0, delta_rank=0.02, delta_contr=1e-3)
        tau, new = stepsize_retraction(snap, rhs, [2, 2], 1.0, cfg)
        assert 0.0 < tau < 1.0
        assert new.t == 0.25 + tau
        want = tt_round(tt_add_scaled(y, rhs, tau), tol=cfg.delta_contr, max_ranks=[2, 2])
        assert new.coeffs.ranks == want.ranks
        assert all(g.tobytes() == w.tobytes() for g, w in zip(new.coeffs.cores, want.cores))

    def test_retraction_keeps_a_satisfying_rounding(self, monkeypatch):
        """Halving, then bisection whose last evaluated step fails: the step
        kept is the last satisfying one, not the last one formed."""
        space = PolySpace([(-2, 2)] * 2, [3, 3])
        y = tt_random(space.mode_sizes, (1, 2, 1), np.random.default_rng(4))
        snap = SolutionSnapshot(0.0, y)
        rhs, _ = _step_quantities(snap, space)
        cfg = SolverConfig(T=1, tau_max=1.0, delta_rank=0.02)
        evals = []
        rel_err = integrate._retraction_rel_err

        def recording(y, rhs, tau, target_ranks, delta_contr):
            rounded, err = rel_err(y, rhs, tau, target_ranks, delta_contr)
            evals.append((tau, err <= cfg.delta_rank, rounded))
            return rounded, err

        monkeypatch.setattr(integrate, "_retraction_rel_err", recording)
        tau, new = stepsize_retraction(snap, rhs, [2], 1.0, cfg)
        taus = [t for t, _, _ in evals]
        assert taus[:2] == [1.0, 0.5] and not evals[0][1]  # it halved first
        assert len(taus) > 3 and not evals[-1][1]          # bisection ended failing
        (kept,) = [r for t, _, r in evals if t == tau]
        assert tau == max(t for t, good, _ in evals if good)
        assert new.coeffs is kept
        assert new.coeffs is not evals[-1][2]

    def test_solve_rounds_the_retraction_sum_it_accepted(self, monkeypatch):
        """A short solve rounds each step's sum once, inside the retraction
        search, and runs no rounding after it: the search's rounding, with
        its degrees trimmed, is the step's new state."""
        _, space, phi = gaussian_setup(2, seed=3)
        phase, rounds, evals, handed = ["start"], Counter(), [], []
        round_err = tt.tt_round_with_error
        rel_err = integrate._retraction_rel_err
        power = integrate.power_iteration_bound
        search = integrate.stepsize_retraction
        truncate = integrate.degree_truncate

        def counting_round(*args, **kwargs):
            rounds[phase[0]] += 1
            return round_err(*args, **kwargs)

        def counting_eval(*args):
            evals.append(args[2])
            return rel_err(*args)

        def powering(*args, **kwargs):
            phase[0] = "power"
            return power(*args, **kwargs)

        def searching(*args, **kwargs):
            phase[0] = "search"
            tau, new = search(*args, **kwargs)
            phase[0] = None  # until the next step's power iteration
            handed.append(new)
            return tau, new

        def truncating(y, *args):
            assert y is handed[-1]
            return truncate(y, *args)

        monkeypatch.setattr(tt, "tt_round_with_error", counting_round)
        monkeypatch.setattr(integrate, "tt_round_with_error", counting_round)
        monkeypatch.setattr(integrate, "_retraction_rel_err", counting_eval)
        monkeypatch.setattr(integrate, "power_iteration_bound", powering)
        monkeypatch.setattr(integrate, "stepsize_retraction", searching)
        monkeypatch.setattr(integrate, "degree_truncate", truncating)
        traj = solve_hjb(phi, space, SolverConfig(T=0.05, tau_max=0.01, seed=1))
        assert traj.error is None
        assert len(handed) == len(traj.diagnostics) == 5
        assert rounds["search"] == len(evals) >= len(handed)
        assert rounds[None] == 0 and rounds["power"] > 0

    def test_retraction_rank_budget_failure(self):
        space = PolySpace([(-2, 2)] * 3, [3] * 3)
        rng = np.random.default_rng(5)
        y = tt_random(space.mode_sizes, (1, 3, 3, 1), rng)
        snap = SolutionSnapshot(0.0, y)
        rhs, _ = _step_quantities(snap, space)
        cfg = SolverConfig(T=1, tau_max=0.1, delta_rank=1e-12)
        # y itself does not fit in rank 1, so no step can satisfy the bound.
        with pytest.raises(RankBudgetError):
            stepsize_retraction(snap, rhs, [1, 1], 0.1, cfg)

    @pytest.mark.parametrize("tau_cap", [0.0, -1.0])
    def test_retraction_rejects_a_nonpositive_cap(self, tau_cap):
        space = PolySpace([(-2, 2)] * 2, [3, 3])
        snap = SolutionSnapshot(0.0, tt_random(space.mode_sizes, (1, 2, 1),
                                               np.random.default_rng(4)))
        rhs, _ = _step_quantities(snap, space)
        with pytest.raises(ValueError, match="tau_cap"):
            stepsize_retraction(snap, rhs, [2], tau_cap, SolverConfig(T=1, tau_max=1.0))


class TestEulerStep:
    def test_zero_step_identity_up_to_rounding(self):
        _, space, phi = gaussian_setup(3, seed=6)
        snap = SolutionSnapshot(0.0, phi)
        out = euler_step(snap, 0.0, [9, 9], space, delta_contr=1e-12)
        assert out.t == 0.0
        assert np.linalg.norm(tt_to_dense(out.coeffs) - tt_to_dense(phi)) \
            <= 1e-10 * tt_norm(phi)

    def test_1d_quadratic_coefficient_follows_riccati(self):
        # One Euler step of the quadratic coefficient obeys
        # q <- q + tau (2q - 4q^2) + O(tau^2), the local expansion of the
        # closed-form Gaussian flow.
        space = PolySpace([(-5, 5)], [2])
        spec = PotentialSpec(terms=[PotentialTerm((0,), {(2,): 1.0})])
        phi = build_potential_tt(spec, space)
        snap = SolutionSnapshot(0.0, phi)
        tau = 1e-3
        out = euler_step(snap, tau, [], space, delta_contr=0.0)
        _, _, q = extract_quadratic(out.coeffs, space)
        euler_q = 1.0 + tau * (2 * 1.0 - 4 * 1.0)
        exact_q = riccati_reference(1.0, tau)
        assert q[0, 0] == pytest.approx(euler_q, abs=1e-12)
        assert abs(q[0, 0] - exact_q) <= 10 * tau**2

    def test_intermediate_rank_bound(self):
        space = PolySpace([(-2, 2)] * 3, [2] * 3)
        rng = np.random.default_rng(7)
        y = tt_random(space.mode_sizes, (1, 2, 2, 1), rng)
        rhs, _ = _step_quantities(SolutionSnapshot(0.0, y), space)
        from tthjb.tt import tt_add_scaled
        ybar = tt_add_scaled(y, rhs, 0.1)
        r = np.asarray(y.interior_ranks)
        bound = 3 * r + 2 * r * r
        assert all(x <= c for x, c in zip(ybar.interior_ranks, bound))


class TestRecompression:
    def test_degree_truncation_of_padded_quadratic(self):
        # 0.5 ||x||^2 stored at degrees 4 truncates to degrees 2.
        d = 3
        space = PolySpace([(-5, 5)] * d, [4] * d)
        spec = PotentialSpec(builtins=[
            {"name": "gaussian", "coords": tuple(range(d)),
             "params": {"Q": (0.5 * np.eye(d)).tolist()}}])
        phi = build_potential_tt(spec, space)
        assert phi.mode_sizes == (5, 5, 5)
        out = degree_truncate(SolutionSnapshot(0.0, phi), 1e-8)
        assert out.coeffs.mode_sizes == (3, 3, 3)

    def test_degree_floor_is_two(self):
        space = PolySpace([(-5, 5)] * 2, [2] * 2)
        spec = PotentialSpec(terms=[PotentialTerm((), {(): 1.0})])
        const = build_potential_tt(spec, space)  # all mass at degree 0
        out = degree_truncate(SolutionSnapshot(0.0, const), 1e-8)
        assert out.coeffs.mode_sizes == (3, 3)

    def test_slice_norm_matches_dense(self):
        # every row of every centre core against the dense slice, and with
        # ``kept`` against the slice of the leading block of earlier modes
        rng = np.random.default_rng(8)
        y = tt_random((4, 5, 3, 4), (1, 3, 4, 2, 1), rng)
        dense = tt_to_dense(y)
        kept = [2, 3, 1, 4]
        for rows in (None, kept):
            for k, centre in enumerate(tt_centres(y, rows)):
                block = dense[tuple(slice(n) for n in rows[:k])] if rows else dense
                for index in range(y.mode_sizes[k]):
                    ref = np.linalg.norm(np.take(block, index, axis=k))
                    got = np.linalg.norm(centre[:, index])
                    assert got == pytest.approx(ref, rel=1e-12)

    def test_rank_adapt_preserves_small_states(self):
        _, space, phi = gaussian_setup(4, seed=9)
        out = rank_adapt(SolutionSnapshot(0.0, phi), phi.interior_ranks, 1e-12)
        np.testing.assert_allclose(tt_to_dense(out.coeffs), tt_to_dense(phi),
                                   atol=1e-10)

    def test_rank_adapt_drops_hidden_low_rank(self):
        from tthjb.tt import tt_add_scaled
        rng = np.random.default_rng(10)
        base = tt_random((3, 3, 3), (1, 2, 2, 1), rng)
        doubled = tt_add_scaled(base, base, 1.0)  # ranks (4, 4), rank-2 truth
        out = rank_adapt(SolutionSnapshot(0.0, doubled), (4, 4), 1e-12)
        assert out.coeffs.interior_ranks == (2, 2)
        assert tt_norm(out.coeffs) == pytest.approx(tt_norm(doubled), rel=1e-10)


class TestSolve:
    def test_gaussian_d3_verification(self):
        q, space, phi = gaussian_setup(3, seed=11)
        cfg = SolverConfig(T=12.0, tau_max=0.1, rho=0.2, seed=5)
        traj = solve_hjb(phi, space, cfg)
        assert traj.error is None
        assert traj.is_complete(12.0)
        final = traj.snapshots[-1]
        assert final.t == 12.0
        assert covariance_error(final, space) <= 1e-9
        assert final.coeffs.interior_ranks == (2, 2)

    def test_times_strictly_increase_and_end_exactly(self):
        _, space, phi = gaussian_setup(2, seed=12)
        cfg = SolverConfig(T=1.5, tau_max=0.1, rho=0.2, seed=5)
        traj = solve_hjb(phi, space, cfg)
        times = np.asarray(traj.times)
        assert np.all(np.diff(times) > 0)
        assert times[-1] == 1.5  # bitwise, via the T - t clamp

    def test_every_step_satisfies_criteria(self):
        _, space, phi = gaussian_setup(2, seed=13)
        cfg = SolverConfig(T=2.0, tau_max=0.1, rho=0.2, seed=5)
        traj = solve_hjb(phi, space, cfg)
        r0 = np.maximum(phi.interior_ranks, 2)
        for rec in traj.diagnostics:
            assert rec["tau"] <= cfg.tau_max + 1e-15
            assert rec["tau"] <= rec["tau_lambda"] + 1e-15
            assert rec["tau"] <= rec["tau_proj"] + 1e-15
            assert all(r <= cap for r, cap in zip(rec["ranks"][1:-1], r0))

    def test_stepsizes_nondecreasing_after_stiff_phase(self):
        _, space, phi = gaussian_setup(2, seed=14)
        cfg = SolverConfig(T=6.0, tau_max=0.1, rho=0.2, seed=5)
        traj = solve_hjb(phi, space, cfg)
        taus = [r["tau"] for r in traj.diagnostics[:-1]]  # last step is T-clamped
        # non-decreasing after the stiff phase up to power-iteration noise:
        # no individual drop beyond 10 percent, and a clear overall increase
        tail = taus[max(5, len(taus) // 10):]
        assert all(b >= a * 0.9 for a, b in zip(tail, tail[1:]))
        assert taus[-1] > 2 * taus[0]

    def test_d1_solve_reaches_the_attractor(self):
        space = PolySpace([(-5.0, 5.0)], [2])
        spec = PotentialSpec(terms=[PotentialTerm((0,), {(2,): 1.0})])
        phi = build_potential_tt(spec, space)
        cfg = SolverConfig(T=8.0, tau_max=0.1, rho=0.2, seed=5)
        traj = solve_hjb(phi, space, cfg)
        assert traj.error is None
        _, _, q = extract_quadratic(traj.snapshots[-1].coeffs, space)
        assert abs(q[0, 0] - 0.5) <= 1e-7

    def test_capped_steps_flagged_and_binding_named(self):
        _, space, phi = gaussian_setup(3, seed=13)
        cfg = SolverConfig(T=0.5, tau_max=0.1, rho=0.2, power_max_iters=3, seed=5)
        traj = solve_hjb(phi, space, cfg)
        assert traj.error is None
        recs = traj.diagnostics
        assert all(r["power_iters"] <= 3 for r in recs)
        assert all(r["power_converged"] or r["power_iters"] == 3 for r in recs)
        assert any(not r["power_converged"] for r in recs)
        names = {"tau_max", "stiffness", "projection", "rank", "horizon"}
        assert {r["binding"] for r in recs} <= names
        assert recs[-1]["binding"] == "horizon"
        for r in recs:
            bound = {"tau_max": cfg.tau_max, "stiffness": r["tau_lambda"],
                     "projection": r["tau_proj"]}
            if r["binding"] in bound:
                assert r["tau"] == bound[r["binding"]]
            elif r["binding"] == "rank":
                assert r["tau"] < min(bound.values())

    def test_determinism_identical_diagnostics(self):
        _, space, phi = gaussian_setup(2, seed=15)
        cfg = SolverConfig(T=1.0, tau_max=0.1, rho=0.2, seed=77)
        t1 = solve_hjb(phi, space, cfg)
        t2 = solve_hjb(phi, space, cfg)
        d1 = [{k: v for k, v in r.items() if k != "wall_ms"} for r in t1.diagnostics]
        d2 = [{k: v for k, v in r.items() if k != "wall_ms"} for r in t2.diagnostics]
        assert d1 == d2


class TestNonFinite:
    def test_non_finite_state_ends_the_solve(self, poisoned_degree_truncate):
        _, space, phi = gaussian_setup(2, seed=3)
        traj = solve_hjb(phi, space, SolverConfig(**CFG))
        assert traj.error == "ValueError: core 1 contains non-finite entries"
        assert len(traj.snapshots) == 1 and not traj.diagnostics

    def test_non_finite_eigenvalue_rejected(self, monkeypatch):
        space, phi = diag_gaussian([1.0, 2.0])
        monkeypatch.setattr("tthjb.integrate.tt_inner", lambda a, b: math.nan)
        cfg = SolverConfig(**CFG)
        with pytest.raises(ValueError, match="non-finite eigenvalue"):
            power_iteration_bound(SolutionSnapshot(0.0, phi), space, cfg)
        traj = solve_hjb(phi, space, cfg)
        assert traj.error.startswith("ValueError: non-finite eigenvalue")


class TestConsistencyOrder:
    def test_order_one_in_tau_max(self):
        q, space, phi = gaussian_setup(2, seed=11)
        errs = []
        for tau_max in (0.1, 0.05, 0.025):
            cfg = SolverConfig(T=2.0, tau_max=tau_max, rho=0.4, seed=5)
            traj = solve_hjb(phi, space, cfg)
            _, _, qm = extract_quadratic(traj.snapshots[-1].coeffs, space)
            ref = riccati_reference(q, 2.0)
            errs.append(np.linalg.norm(qm - ref) / np.linalg.norm(ref))
        slope = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(errs), 1)[0]
        assert 0.7 <= slope <= 1.3
