"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The d=10 Gaussian and the full d=20 mixed run are tagged ``slow``.
"""

import json
import math

import numpy as np
import pytest

from acceptance_utils import energy_distances, kde_mode_count, metropolis_samples, \
    report
from tthjb.basis import PolySpace
from tthjb.cli import main as cli_main
from tthjb.integrate import (SolutionSnapshot, SolverConfig,
                             power_iteration_bound, solve_hjb)
from tthjb.operators import (PotentialSpec, apply_lin, apply_nonlin,
                             apply_nonlin_linearized, apply_partial,
                             build_potential_tt, covariance_error,
                             extract_quadratic, poly_multiply, project_degree)
from tthjb.oracles import (dense_lin, dense_multiply, dense_nonlin,
                           dense_nonlin_linearized, dense_partial,
                           dense_project, gaussian_eigen_bound,
                           quadratic_tt_cores, quadrature_scorer_2d,
                           riccati_reference)
from tthjb.sample import (SamplerConfig, eval_v_batch, grad_v_batch,
                          reverse_sample, reverse_sample_scored)
from tthjb.tt import (read_checkpoint, tt_from_dense, tt_random, tt_round,
                      tt_to_dense, write_checkpoint)


def seeded_spd(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, (d, d))
    return a.T @ a + 0.1 * np.eye(d)


def gaussian_problem(d, seed):
    q = seeded_spd(d, seed)
    space = PolySpace([(-5.0, 5.0)] * d, [2] * d)
    spec = PotentialSpec(builtins=[
        {"name": "gaussian", "coords": tuple(range(d)), "params": {"Q": q.tolist()}}])
    return q, space, build_potential_tt(spec, space)


MIXED_SPEC = PotentialSpec(builtins=[
    {"name": "banana", "coords": (0, 1), "params": {"sigma": [[1.0, 0.9], [0.9, 1.0]]}},
    {"name": "doublewell", "coords": (2, 3), "params": {}},
    {"name": "sextic", "coords": (4, 5), "params": {}},
])
MIXED_SPACE = PolySpace([(-5, 5)] * 2 + [(-2, 2)] * 2 + [(-5, 5)] * 2,
                        [4, 2, 4, 4, 6, 6])
DOUBLEWELL_2D = PotentialSpec(builtins=[
    {"name": "doublewell", "coords": (0, 1), "params": {}}])


def _gaussian_verification(d, seed):
    q, space, phi = gaussian_problem(d, seed)
    cfg = SolverConfig(T=12.0, tau_max=0.1, rho=0.2, delta_proj=0.01,
                       delta_rank=0.01, delta_contr=1e-8, seed=5)
    traj = solve_hjb(phi, space, cfg)
    assert traj.error is None
    final = traj.snapshots[-1]
    cov = covariance_error(final, space)
    ranks_ok = final.coeffs.interior_ranks == (2,) * (d - 1)
    # rank truncation must begin while the covariance error is near 1e-7
    onset = None
    peak = max(phi.interior_ranks)
    for rec in traj.diagnostics:
        if max(rec["ranks"][1:-1]) < peak:
            onset = rec["cov_err"]
            break
    onset_ok = onset is not None and 1e-9 <= onset <= 1e-5
    # steps non-decreasing after the stiff phase, up to power-iteration noise
    taus = [r["tau"] for r in traj.diagnostics[:-1]]
    tail = taus[max(5, len(taus) // 10):]
    mono_ok = all(b >= a * 0.9 for a, b in zip(tail, tail[1:]))
    return cov, ranks_ok, onset, onset_ok, mono_ok


def test_criterion_01_gaussian_verification_d6():
    cov, ranks_ok, onset, onset_ok, mono_ok = _gaussian_verification(6, seed=20240501)
    ok = cov <= 1e-9 and ranks_ok and onset_ok and mono_ok
    report(1, ok, f"d=6 final cov err {cov:.2e} <= 1e-9, final ranks (2,...,2): "
                  f"{ranks_ok}, truncation onset cov {onset:.1e}, steps monotone: {mono_ok}")
    assert cov <= 1e-9
    assert ranks_ok
    assert onset_ok
    assert mono_ok


@pytest.mark.slow
def test_criterion_01_gaussian_verification_d10():
    cov, ranks_ok, onset, onset_ok, mono_ok = _gaussian_verification(10, seed=20240501)
    report("1 (slow d=10)", cov <= 1e-9 and ranks_ok,
           f"final cov err {cov:.2e}, ranks ok: {ranks_ok}")
    assert cov <= 1e-9
    assert ranks_ok
    assert onset_ok


def test_criterion_02_order_tau_max_convergence():
    q, space, phi = gaussian_problem(2, seed=11)
    taus = [0.1, 0.05, 0.025]
    errs = []
    for tau_max in taus:
        cfg = SolverConfig(T=2.0, tau_max=tau_max, rho=0.4, seed=5)
        traj = solve_hjb(phi, space, cfg)
        assert traj.error is None
        _, _, qm = extract_quadratic(traj.snapshots[-1].coeffs, space)
        ref = riccati_reference(q, 2.0)
        errs.append(np.linalg.norm(qm - ref) / np.linalg.norm(ref))
    slope = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    ok = 0.7 <= slope <= 1.3
    report(2, ok, f"errors {[f'{e:.2e}' for e in errs]}, log-log slope {slope:.3f}")
    assert 0.7 <= slope <= 1.3


def test_criterion_03_eigenvalue_bound():
    worst_rel = 0.0
    worst_over = -math.inf
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        for d in (1, 2, 3):
            diag = rng.uniform(0.6, 3.0, d)
            space = PolySpace([(-5.0, 5.0)] * d, [2] * d)
            spec = PotentialSpec(builtins=[
                {"name": "gaussian", "coords": tuple(range(d)),
                 "params": {"Q": (np.diag(diag) / 2.0).tolist()}}])
            phi = build_potential_tt(spec, space)
            cfg = SolverConfig(T=1.0, tau_max=0.1, p_digits=13,
                               power_max_iters=2000, seed=seed)
            lam, _ = power_iteration_bound(SolutionSnapshot(0.0, phi), space, cfg)
            bound = gaussian_eigen_bound(diag)
            eps_p = 10.0 ** (-(math.ceil(-math.log10(bound)) + cfg.p_digits))
            worst_rel = max(worst_rel, abs(lam - bound) / bound)
            worst_over = max(worst_over, lam - (bound + eps_p))
    # dense eigendecomposition cross-check at d=3
    from tthjb.operators import apply_stiffness
    rng = np.random.default_rng(77)
    diag = rng.uniform(0.6, 3.0, 3)
    space = PolySpace([(-5.0, 5.0)] * 3, [2] * 3)
    spec = PotentialSpec(builtins=[
        {"name": "gaussian", "coords": (0, 1, 2),
         "params": {"Q": (np.diag(diag) / 2.0).tolist()}}])
    phi = build_potential_tt(spec, space)
    h = np.zeros((27, 27))
    for j in range(27):
        e = np.zeros(27)
        e[j] = 1.0
        col = apply_stiffness(phi, tt_from_dense(e.reshape(3, 3, 3), 0.0), space)
        h[:, j] = tt_to_dense(col).ravel()
    dense_dom = float(np.max(np.abs(np.linalg.eigvals(h))))
    dense_ok = abs(dense_dom - gaussian_eigen_bound(diag)) <= 1e-8 * dense_dom
    ok = worst_rel <= 0.01 and worst_over <= 1e-9 and dense_ok
    report(3, ok, f"worst relative deviation {worst_rel:.2e} <= 1%, worst "
                  f"overshoot beyond eps_p {worst_over:+.1e}, dense check: {dense_ok}")
    assert worst_rel <= 0.01
    assert worst_over <= 1e-9  # float headroom on 'never exceeds by eps_p'
    assert dense_ok


def test_criterion_04_operator_oracle_equivalence():
    rng = np.random.default_rng(404)
    intervals = [(-1.0, 1.0), (-2.0, 2.0), (-5.0, 5.0), (0.0, 2.0)]
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 5))
        deg = int(rng.integers(2, 5))
        iv = intervals[int(rng.integers(0, len(intervals)))]
        space = PolySpace([iv] * d, [deg] * d)
        dense_a = rng.standard_normal(space.mode_sizes)
        dense_b = rng.standard_normal(space.mode_sizes)
        ta, tb = tt_from_dense(dense_a, 0.0), tt_from_dense(dense_b, 0.0)

        def rel(got, ref):
            return np.linalg.norm(got - ref) / np.linalg.norm(ref)

        worst = max(worst, rel(tt_to_dense(apply_lin(ta, space)),
                               dense_lin(dense_a, space)))
        i = int(rng.integers(0, d))
        worst = max(worst, rel(tt_to_dense(apply_partial(ta, i, space)),
                               dense_partial(dense_a, i, space)))
        prod, _ = poly_multiply(ta, tb, space)
        worst = max(worst, rel(tt_to_dense(prod),
                               dense_multiply(dense_a, dense_b, space)))
        nl, _ = apply_nonlin(ta, space)
        worst = max(worst, rel(tt_to_dense(nl), dense_nonlin(dense_a, space)))
        nlb, _ = apply_nonlin_linearized(tb, ta, space)
        worst = max(worst, rel(tt_to_dense(nlb),
                               dense_nonlin_linearized(dense_b, dense_a, space)))
        pdeg = [max(0, deg - 1)] * d
        worst = max(worst, rel(tt_to_dense(project_degree(nl, pdeg)),
                               dense_project(dense_nonlin(dense_a, space), pdeg)))
    ok = worst <= 1e-9
    report(4, ok, f"20 seeded inputs, 6 operators, worst relative error {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_05_rank_bound_constructions():
    rng = np.random.default_rng(505)
    space = PolySpace([(-2, 2)] * 4, [3] * 4)
    a = tt_random(space.mode_sizes, (1, 2, 3, 2, 1), rng)
    b = tt_random(space.mode_sizes, (1, 3, 2, 2, 1), rng)
    lin_ok = apply_lin(a, space).interior_ranks == (4, 6, 4)
    prod, _ = poly_multiply(a, b, space)
    prod_ok = prod.interior_ranks == (6, 6, 4)
    qc = quadratic_tt_cores(seeded_spd(10, 505))
    profile = (3, 4, 5, 6, 7, 6, 5, 4, 3)
    bound_ok = all(r <= p for r, p in zip(qc.interior_ranks, profile))
    equal_ok = tt_round(qc, tol=1e-12).interior_ranks == profile
    ok = lin_ok and prod_ok and bound_ok and equal_ok
    report(5, ok, f"linear doubles ranks: {lin_ok}, product multiplies ranks: "
                  f"{prod_ok}, d=10 quadratic profile equality: {equal_ok}")
    assert lin_ok and prod_ok and bound_ok and equal_ok


def test_criterion_06_gradient_checks():
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(5):
        d = int(rng.integers(2, 5))
        deg = int(rng.integers(2, 5))
        space = PolySpace([(-2.0, 2.0)] * d, [deg] * d)
        ranks = (1,) + tuple(rng.integers(1, 4, d - 1)) + (1,)
        snap = SolutionSnapshot(0.0, tt_random(space.mode_sizes, ranks, rng))
        pts = rng.uniform(-2, 2, (100, d))
        grads = grad_v_batch(snap, space, pts)
        h = 1e-6
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            fd = (eval_v_batch(snap, space, pts + e)
                  - eval_v_batch(snap, space, pts - e)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd - grads[:, k])
                                            / (1 + np.abs(fd)))))
    ok = worst <= 1e-5
    report(6, ok, f"5 seeded snapshots x 100 points, worst relative "
                  f"finite-difference deviation {worst:.2e}")
    assert worst <= 1e-5


def test_criterion_07_sampler_statistics():
    c = 1.5  # target N(0, c): potential coefficient q0 = 1/(2c)
    q0 = 1.0 / (2.0 * c)
    times = np.linspace(0.0, 8.0, 2001)

    def grad_fn(s, z):
        return 2.0 * riccati_reference(q0, s) * z

    devs = {}
    for lam in (0.0, 1.0):
        scfg = SamplerConfig(lam=lam, n_particles=100_000, seed=42)
        batch = reverse_sample_scored(grad_fn, times, 1, scfg)
        var = float(np.var(batch.samples[:, 0], ddof=1))
        se = var * math.sqrt(2.0 / (batch.samples.shape[0] - 1))
        devs[lam] = (var, (var - c) / se)
    ok = all(abs(dev) <= 3.0 for _, dev in devs.values())
    report(7, ok, "; ".join(f"lambda={lam}: var {v:.4f} ({s:+.2f} se)"
                            for lam, (v, s) in devs.items()))
    for lam, (var, dev) in devs.items():
        assert abs(dev) <= 3.0, (lam, var, dev)


def _mixed_solve(space, spec, seed=7):
    phi = build_potential_tt(spec, space, 1e-12)
    cfg = SolverConfig(T=10.0, tau_max=0.05, rho=[(0.0, 0.001), (1e-6, 0.5)],
                       delta_proj=0.01, delta_rank=0.01, delta_contr=1e-8,
                       seed=seed)
    return phi, cfg, solve_hjb(phi, space, cfg)


def test_criterion_08_mixed_nonlinear_reduced():
    phi, cfg, traj = _mixed_solve(MIXED_SPACE, MIXED_SPEC)
    assert traj.error is None
    assert phi.interior_ranks == (3, 2, 2, 2, 3)
    covs = np.array([r["cov_err"] for r in traj.diagnostics])
    final = covs[-1]
    spike = float(np.max(covs[:len(covs) // 4])) > 1.2 * covs[0]
    half = len(covs) // 2
    monotone_tail = bool(np.all(covs[half + 1:] <= covs[half:-1] * 1.001))
    scfg = SamplerConfig(lam=0.0, n_particles=1500, langevin_steps=100,
                         langevin_tau=0.005, seed=99)
    batch = reverse_sample(traj, MIXED_SPACE, scfg, cfg)
    assert batch.aborted.sum() == 0
    modes5 = kde_mode_count(batch.samples[:, 4])
    modes6 = kde_mode_count(batch.samples[:, 5])
    ok = (final < 1e-3 and spike and monotone_tail
          and modes5 == 2 and modes6 == 2)
    report(8, ok, f"final cov err {final:.2e} < 1e-3, initial spike: {spike}, "
                  f"monotone last half: {monotone_tail}, KDE modes dims (5,6): "
                  f"({modes5}, {modes6})")
    assert final < 1e-3
    assert spike
    assert monotone_tail
    assert modes5 == 2 and modes6 == 2


@pytest.mark.slow
def test_criterion_08_mixed_nonlinear_full_d20():
    intervals = [(-5, 5)] * 2 + [(-2, 2)] * 2 + [(-5, 5)] * 2 + [(-2, 2)] * 14
    degrees = [4, 2, 4, 4, 6, 6] + [2] * 14
    space = PolySpace(intervals, degrees)
    spec = PotentialSpec(builtins=MIXED_SPEC.builtins + [
        {"name": "iso_tail", "coords": tuple(range(6, 20)), "params": {}}])
    phi, cfg, traj = _mixed_solve(space, spec)
    assert traj.error is None
    assert phi.interior_ranks == (3, 2, 2, 2, 3) + (2,) * 14
    final = traj.diagnostics[-1]["cov_err"]
    report("8 (slow d=20)", final < 1e-3, f"final cov err {final:.2e}")
    assert final < 1e-3


def test_criterion_09_perturbation_study():
    reference = metropolis_samples(DOUBLEWELL_2D, 10_000, seed=123)
    times = np.linspace(0.0, 4.0, 101)
    domain = (-2.5, 2.5)  # contains the effective support of exp(-potential)

    def make_grad(q_order):
        score = quadrature_scorer_2d(DOUBLEWELL_2D, q_order, domain)
        return lambda s, z: score(s, z)[1]

    runs = [("Q50", 50, 0), ("Q3", 3, 0), ("Q3+L", 3, 100)]
    samples = []
    for _, q_order, langevin in runs:
        scfg = SamplerConfig(lam=0.0, n_particles=10_000, langevin_steps=langevin,
                             langevin_tau=0.005, seed=7)
        samples.append(reverse_sample_scored(make_grad(q_order), times, 2, scfg).samples)
    eds = dict(zip([name for name, _, _ in runs], energy_distances(samples, reference)))
    ok = eds["Q3"] > eds["Q50"] and eds["Q3+L"] < eds["Q3"]
    report(9, ok, f"energy distances Q50 {eds['Q50']:.4f}, Q3 {eds['Q3']:.4f}, "
                  f"Q3+100 Langevin {eds['Q3+L']:.4f}")
    assert eds["Q3"] > eds["Q50"]
    assert eds["Q3+L"] < eds["Q3"]


def test_criterion_10_determinism_and_format(tmp_path):
    q = seeded_spd(2, 314)
    cfg = {
        "space": {"dims": 2, "intervals": [[-5.0, 5.0]] * 2, "degrees": [2, 2]},
        "potential": {"builtins": [
            {"name": "gaussian", "coords": [0, 1], "params": {"Q": q.tolist()}}]},
        "solver": {"T": 1.0, "tau_max": 0.1, "rho": 0.2, "seed": 99},
        "output_dir": None,
    }
    blobs = []
    for run in ("a", "b"):
        cfg["output_dir"] = str(tmp_path / run)
        path = tmp_path / f"config_{run}.json"
        path.write_text(json.dumps({**cfg, "output_dir": str(tmp_path / run)}))
        assert cli_main(["solve", str(path)]) == 0
        diag = (tmp_path / run / "diagnostics.jsonl").read_bytes()
        snaps = [p.read_bytes()
                 for p in sorted((tmp_path / run).glob("snapshot_*.ttck"))]
        blobs.append((diag, snaps))
    identical = blobs[0] == blobs[1]
    # checkpoint round trip is bitwise
    src = sorted((tmp_path / "a").glob("snapshot_*.ttck"))[0]
    tt, t = read_checkpoint(src)
    write_checkpoint(tmp_path / "copy.ttck", tt, t)
    roundtrip = (tmp_path / "copy.ttck").read_bytes() == src.read_bytes()
    ok = identical and roundtrip
    report(10, ok, f"rerun byte-identical: {identical}, checkpoint round-trip "
                   f"bitwise: {roundtrip}")
    assert identical
    assert roundtrip
