"""Reference solutions: Gaussian flow, eigenvalue bound, quadratic TT cores,
quadrature score, dense operators."""

import numpy as np
import pytest

from tthjb.basis import PolySpace
from tthjb.integrate import SolutionSnapshot
from tthjb.operators import PotentialSpec
from tthjb.oracles import (_legendre_from_monomials, dense_lin, dense_nonlin,
                           dense_project, dense_rhs_reference,
                           gaussian_eigen_bound, hopf_cole_check,
                           quadratic_tt_cores, quadrature_scorer_2d,
                           riccati_reference)
from tthjb.sample import eval_v_batch
from tthjb.tt import tt_round, tt_to_dense


class TestRiccati:
    def test_standard_normal_is_stationary(self):
        q0 = 0.5 * np.eye(4)
        for t in (0.1, 1.0, 7.5):
            np.testing.assert_allclose(riccati_reference(q0, t), q0, atol=1e-14)

    def test_long_time_limit(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 1, (3, 3))
        q0 = a.T @ a + 0.1 * np.eye(3)
        np.testing.assert_allclose(riccati_reference(q0, 40.0), 0.5 * np.eye(3),
                                   atol=1e-12)

    def test_scalar_closed_form(self):
        # q0=1: C0=1/2, at exp(-2t)=1/2: C = 1/4 + 1/2 = 3/4, q = 2/3.
        t = 0.5 * np.log(2.0)
        assert riccati_reference(1.0, t) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_semigroup_property(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, (4, 4))
        q0 = a.T @ a + 0.2 * np.eye(4)
        one_shot = riccati_reference(q0, 1.3 + 0.9)
        two_step = riccati_reference(riccati_reference(q0, 1.3), 0.9)
        np.testing.assert_allclose(one_shot, two_step, atol=1e-12)

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            riccati_reference(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)  # eig -1


class TestHopfColeResidual:
    def test_stationary_coefficient(self):
        assert hopf_cole_check(0.5, 2.0) <= 1e-9

    def test_transient_residual_small(self):
        assert hopf_cole_check(1.0, 1.0) <= 1e-6

    def test_decays_toward_the_attractor(self):
        vals = [hopf_cole_check(1.0, t) for t in (1.0, 2.0, 3.0, 4.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestEigenBound:
    def test_values(self):
        assert gaussian_eigen_bound([0.5, 0.5]) == 0.0
        assert gaussian_eigen_bound([2.0]) == 6.0
        assert gaussian_eigen_bound([1.0, 2.0, 3.0]) == 18.0


class TestQuadraticCores:
    def test_d10_rank_profile(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, (10, 10))
        m = a.T @ a + 0.1 * np.eye(10)
        tt = quadratic_tt_cores(m)
        assert tt.interior_ranks == (3, 4, 5, 6, 7, 6, 5, 4, 3)
        assert tt_round(tt, tol=1e-12).interior_ranks == (3, 4, 5, 6, 7, 6, 5, 4, 3)

    def test_diagonal_rounds_to_rank_two(self):
        m = np.diag(np.random.default_rng(3).uniform(0.5, 2.0, 6))
        tt = quadratic_tt_cores(m)
        assert tt_round(tt, tol=1e-12).interior_ranks == (2,) * 5

    def test_values_match_quadratic_form(self):
        rng = np.random.default_rng(4)
        d = 4
        m = rng.standard_normal((d, d))
        m = 0.5 * (m + m.T)
        space = PolySpace([(-2, 3)] * d, [2] * d)
        tt = quadratic_tt_cores(m, space)
        pts = rng.uniform(-2, 3, (100, d))
        got = eval_v_batch(SolutionSnapshot(0.0, tt), space, pts)
        ref = np.einsum("mi,ij,mj->m", pts, m, pts)
        np.testing.assert_allclose(got, ref, atol=1e-10 * (1 + np.abs(ref).max()))

    @pytest.mark.parametrize("d", range(3, 13))
    def test_rank_bound_formula(self, d):
        rng = np.random.default_rng(d)
        a = rng.uniform(0, 1, (d, d))
        tt = quadratic_tt_cores(a.T @ a + 0.1 * np.eye(d))
        bound = [2 + min(i, d - i) for i in range(1, d)]
        assert all(r <= b for r, b in zip(tt.interior_ranks, bound))

    def test_d2_rank_three(self):
        # The generic 2-d coefficient unfolding is anti-diagonal, rank 3.
        m = np.array([[1.0, 0.3], [0.3, 2.0]])
        tt = quadratic_tt_cores(m)
        assert tt_round(tt, tol=1e-12).interior_ranks == (3,)
        dense = tt_to_dense(tt)
        assert np.linalg.matrix_rank(dense.reshape(3, 3), tol=1e-10) == 3


def per_call_quadrature_score(spec, q_order, domain, t, x):
    """Reference quadrature score that rebuilds the nodes, the prior and
    the node mask on every call."""
    dom = np.asarray(domain, dtype=np.float64)
    if dom.shape == (2,):
        dom = np.stack([dom, dom])
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    nodes, weights = [], []
    for a, b in dom:
        u, w = np.polynomial.legendre.leggauss(q_order)
        nodes.append(0.5 * (b - a) * u + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    xx, yy = np.meshgrid(nodes[0], nodes[1], indexing="ij")
    grid = np.column_stack([xx.ravel(), yy.ravel()])
    logw = np.add.outer(np.log(weights[0]), np.log(weights[1])).ravel()
    log_prior = logw - spec.evaluate(grid)
    keep = log_prior > np.max(log_prior) - 60.0
    grid, log_prior = grid[keep], log_prior[keep]
    var = 1.0 - np.exp(-2.0 * t)
    means = np.exp(-t) * grid
    logits = pts @ (means.T / var)
    logits += (log_prior - np.sum(means ** 2, axis=1) / (2.0 * var))[None, :]
    col = np.sum(pts ** 2, axis=1) / (2.0 * var) + np.log(2.0 * np.pi * var)
    logits -= col[:, None]
    peak = np.max(logits, axis=1, keepdims=True)
    np.subtract(logits, peak, out=logits)
    np.exp(logits, out=logits)
    total = np.sum(logits, axis=1)
    v = -(peak[:, 0] + np.log(total))
    grad = (pts - (logits @ means) / total[:, None]) / var
    return (float(v[0]), grad[0]) if np.ndim(x) == 1 else (v, grad)


class TestQuadratureScore:
    SPEC = PotentialSpec(builtins=[{"name": "doublewell", "coords": (0, 1),
                                    "params": {}}])

    @pytest.mark.parametrize("q_order, domain", [
        (3, (-2.5, 2.5)), (50, (-2.5, 2.5)), (120, ((-6, 6), (-5, 4)))])
    def test_scorer_bitwise_equals_per_call_rule(self, q_order, domain):
        # one scorer serves many times and batches; the widest rule drops
        # nodes through the e^-60 mask
        score = quadrature_scorer_2d(self.SPEC, q_order, domain)
        rng = np.random.default_rng(10)
        for t in (0.04, 0.5, 3.0):
            for x in (rng.uniform(-2, 2, 2), rng.uniform(-2, 2, (7, 2))):
                v, g = score(t, x)
                v_ref, g_ref = per_call_quadrature_score(self.SPEC, q_order, domain, t, x)
                np.testing.assert_array_equal(v, v_ref)
                np.testing.assert_array_equal(g, g_ref)
                assert type(v) is type(v_ref)

    def test_large_time_asymptote(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.4, 0.4, (10, 2))
        _, g = quadrature_scorer_2d(self.SPEC, 60, (-5, 5))(5.0, pts)
        np.testing.assert_allclose(g, pts, atol=1e-2)

    def test_self_convergence(self):
        # Superexponential in Q; on [-3,3] (which contains the effective
        # support) Q=50 is already past the 1e-6 agreement point, on the
        # wider [-5,5] that takes Q~80.
        rng = np.random.default_rng(6)
        pts = rng.uniform(-2, 2, (20, 2))
        _, ga = quadrature_scorer_2d(self.SPEC, 50, (-3, 3))(0.5, pts)
        _, gb = quadrature_scorer_2d(self.SPEC, 200, (-3, 3))(0.5, pts)
        assert np.max(np.abs(ga - gb)) <= 1e-6
        _, gc = quadrature_scorer_2d(self.SPEC, 80, (-5, 5))(0.5, pts)
        _, gd = quadrature_scorer_2d(self.SPEC, 200, (-5, 5))(0.5, pts)
        assert np.max(np.abs(gc - gd)) <= 1e-6

    def test_domain_enlargement_invariance(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2, 2, (20, 2))
        _, ga = quadrature_scorer_2d(self.SPEC, 100, (-5, 5))(0.5, pts)
        _, gb = quadrature_scorer_2d(self.SPEC, 100, (-6, 6))(0.5, pts)
        assert np.max(np.abs(ga - gb)) <= 1e-6

    def test_low_order_deviates_materially(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-2, 2, (20, 2))
        _, g3 = quadrature_scorer_2d(self.SPEC, 3, (-5, 5))(0.5, pts)
        _, g50 = quadrature_scorer_2d(self.SPEC, 50, (-5, 5))(0.5, pts)
        assert np.max(np.abs(g3 - g50) / (1 + np.abs(g50))) > 0.1

    def test_gradient_is_derivative_of_value(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1.5, 1.5, (5, 2))
        v, g = quadrature_scorer_2d(self.SPEC, 60, (-5, 5))(0.7, pts)
        h = 1e-6
        for k in range(2):
            shift = np.zeros(2)
            shift[k] = h
            vp, _ = quadrature_scorer_2d(self.SPEC, 60, (-5, 5))(0.7, pts + shift)
            vm, _ = quadrature_scorer_2d(self.SPEC, 60, (-5, 5))(0.7, pts - shift)
            np.testing.assert_allclose((vp - vm) / (2 * h), g[:, k], atol=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            quadrature_scorer_2d(self.SPEC, 1, (-5, 5))(0.5, np.zeros(2))
        with pytest.raises(ValueError):
            quadrature_scorer_2d(self.SPEC, 10, (-5, 5))(0.0, np.zeros(2))


class TestDenseReference:
    def test_constant_tensor_rhs_zero(self):
        space = PolySpace([(-1, 1)] * 2, [2, 2])
        a = np.zeros((3, 3))
        a[0, 0] = 3.0
        np.testing.assert_allclose(dense_rhs_reference(a, space), 0.0, atol=1e-12)

    def test_1d_quadratic_analytic(self):
        # v = x^2: Lin = 2 + 2x^2, NonLin = -4x^2, rhs = 2 - 2x^2.
        space = PolySpace([(-1, 1)], [2])
        powers = _legendre_from_monomials(-1.0, 1.0)
        a = powers[:, 2]
        rhs = dense_rhs_reference(a, space)
        expected = powers[:, 0] * 2.0 - 2.0 * powers[:, 2]
        np.testing.assert_allclose(rhs, expected, atol=1e-11)

    def test_projection_slices(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 4, 3))
        np.testing.assert_array_equal(dense_project(a, [2, 1, 2]), a[:3, :2, :3])

    def test_lin_and_nonlin_compose(self):
        rng = np.random.default_rng(11)
        space = PolySpace([(-2, 2)] * 2, [3, 3])
        a = rng.standard_normal((4, 4))
        ref = dense_lin(a, space) + dense_project(dense_nonlin(a, space), [3, 3])
        np.testing.assert_allclose(dense_rhs_reference(a, space), ref, atol=1e-13)
