"""Coefficient-space operators against dense references and pointwise math."""

import numpy as np
import pytest

from tthjb.basis import (PolySpace, derivative_matrix, mapped_monomial_transform,
                         ou_generator_matrix)
from tthjb.integrate import SolutionSnapshot
from tthjb.operators import (PotentialSpec, PotentialTerm, apply_lin,
                             apply_nonlin, apply_nonlin_linearized,
                             apply_partial, apply_stiffness, banana_monomials,
                             build_potential_tt, extract_quadratic,
                             poly_multiply, prepare_stiffness, project_degree,
                             projection_norms)
from tthjb.oracles import (dense_lin, dense_multiply, dense_nonlin,
                           dense_nonlin_linearized, dense_partial,
                           dense_project)
from tthjb.sample import eval_v_batch
from tthjb.tt import (laplace_like_sum, mode_apply, tt_add_scaled, tt_from_dense,
                      tt_inner, tt_norm, tt_random, tt_to_dense)


def snap(tt):
    return SolutionSnapshot(t=0.0, coeffs=tt)


def rel_err(got, ref):
    return np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300)


@pytest.fixture
def space3():
    return PolySpace([(-2.0, 2.0)] * 3, [3] * 3)


class TestPotentialSpec:
    def test_banana_expansion_matches_definition(self):
        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        monos = banana_monomials(sigma, (0, 1))
        rng = np.random.default_rng(0)
        s = np.linalg.inv(sigma)
        for _ in range(20):
            x, y = rng.uniform(-2, 2, 2)
            u = y + x * x + 1.0
            z = s @ np.array([x, u])
            direct = 0.5 * float(z @ z)
            via = sum(c * x ** m.get(0, 0) * y ** m.get(1, 0) for m, c in monos)
            assert via == pytest.approx(direct, rel=1e-12)

    def test_degree_overflow_rejected(self):
        space = PolySpace([(-1, 1)], [2])
        spec = PotentialSpec(terms=[PotentialTerm((0,), {(4,): 1.0})])
        with pytest.raises(ValueError):
            build_potential_tt(spec, space)


class TestBuildPotential:
    def test_independent_squares_rank_two(self):
        d = 7
        space = PolySpace([(-5, 5)] * d, [2] * d)
        spec = PotentialSpec(builtins=[
            {"name": "iso_tail", "coords": tuple(range(d)), "params": {}}])
        phi = build_potential_tt(spec, space)
        assert phi.interior_ranks == (2,) * (d - 1)

    def test_dense_spd_rank_profile(self):
        rng = np.random.default_rng(42)
        d = 10
        a = rng.uniform(0, 1, (d, d))
        q = a.T @ a + 0.1 * np.eye(d)
        space = PolySpace([(-5, 5)] * d, [2] * d)
        spec = PotentialSpec(builtins=[
            {"name": "gaussian", "coords": tuple(range(d)), "params": {"Q": q.tolist()}}])
        phi = build_potential_tt(spec, space, 1e-12)
        assert phi.interior_ranks == (3, 4, 5, 6, 7, 6, 5, 4, 3)

    def test_mixed_potential_rank_profile(self):
        intervals = [(-5, 5)] * 2 + [(-2, 2)] * 2 + [(-5, 5)] * 2 + [(-2, 2)] * 14
        degrees = [4, 2, 4, 4, 6, 6] + [2] * 14
        space = PolySpace(intervals, degrees)
        spec = PotentialSpec(builtins=[
            {"name": "banana", "coords": (0, 1),
             "params": {"sigma": [[1, 0.9], [0.9, 1]]}},
            {"name": "doublewell", "coords": (2, 3), "params": {}},
            {"name": "sextic", "coords": (4, 5), "params": {}},
            {"name": "iso_tail", "coords": tuple(range(6, 20)), "params": {}}])
        phi = build_potential_tt(spec, space, 1e-12)
        assert phi.interior_ranks == (3, 2, 2, 2, 3) + (2,) * 14

    def test_values_match_spec_evaluation(self):
        space = PolySpace([(-2, 2)] * 2, [4, 4])
        spec = PotentialSpec(builtins=[
            {"name": "doublewell", "coords": (0, 1), "params": {}}])
        phi = build_potential_tt(spec, space)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, (40, 2))
        got = eval_v_batch(snap(phi), space, pts)
        np.testing.assert_allclose(got, spec.evaluate(pts), atol=1e-10)


class TestLinearOperator:
    def test_constant_annihilated(self, space3):
        spec = PotentialSpec(terms=[PotentialTerm((), {(): 3.0})])
        const = build_potential_tt(spec, space3)
        assert tt_norm(apply_lin(const, space3)) <= 1e-12

    def test_1d_quadratic_analytic(self):
        space = PolySpace([(-1, 1)], [4])
        spec = PotentialSpec(terms=[PotentialTerm((0,), {(2,): 1.0})])
        v = build_potential_tt(spec, space)
        out = apply_lin(v, space)
        # (d^2 + x d) x^2 = 2 + 2 x^2
        ref_spec = PotentialSpec(terms=[PotentialTerm((0,), {(): 2.0, (2,): 2.0})])
        ref = build_potential_tt(ref_spec, space)
        assert rel_err(tt_to_dense(out), tt_to_dense(ref)) <= 1e-12

    def test_rank_doubling_exact(self, space3):
        rng = np.random.default_rng(2)
        tt = tt_random(space3.mode_sizes, (1, 2, 3, 1), rng)
        out = apply_lin(tt, space3)
        assert out.interior_ranks == (4, 6)
        assert out.mode_sizes == tt.mode_sizes

    def test_dense_oracle(self, space3):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal(space3.mode_sizes)
        got = tt_to_dense(apply_lin(tt_from_dense(dense, 0.0), space3))
        assert rel_err(got, dense_lin(dense, space3)) <= 1e-12


class TestPartial:
    def test_constant_and_coordinates(self):
        space = PolySpace([(-1, 1)] * 2, [2, 2])
        spec = PotentialSpec(terms=[PotentialTerm((0,), {(1,): 1.0})])
        v = build_potential_tt(spec, space)  # v = x_1
        d0 = apply_partial(v, 0, space)
        d1 = apply_partial(v, 1, space)
        pts = np.random.default_rng(4).uniform(-1, 1, (10, 2))
        np.testing.assert_allclose(eval_v_batch(snap(d0), space, pts), 1.0, atol=1e-12)
        np.testing.assert_allclose(eval_v_batch(snap(d1), space, pts), 0.0, atol=1e-12)

    def test_dense_oracle_and_rank_preservation(self, space3):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal(space3.mode_sizes)
        tt = tt_from_dense(dense, 0.0)
        for i in range(3):
            out = apply_partial(tt, i, space3)
            assert out.ranks == tt.ranks
            assert rel_err(tt_to_dense(out), dense_partial(dense, i, space3)) <= 1e-12


class TestMultiply:
    def test_constants_multiply(self):
        space = PolySpace([(-1, 1)], [1])
        spec = PotentialSpec(terms=[PotentialTerm((), {(): 1.0})])
        one = build_potential_tt(spec, space)
        prod, space2 = poly_multiply(one, one, space)
        pts = np.linspace(-1, 1, 7).reshape(-1, 1)
        np.testing.assert_allclose(eval_v_batch(snap(prod), space2, pts), 1.0,
                                   atol=1e-12)

    def test_x_times_x(self):
        space = PolySpace([(-1, 1)], [2])
        spec = PotentialSpec(terms=[PotentialTerm((0,), {(1,): 1.0})])
        x = build_potential_tt(spec, space)
        prod, space2 = poly_multiply(x, x, space)
        pts = np.linspace(-1, 1, 20).reshape(-1, 1)
        np.testing.assert_allclose(eval_v_batch(snap(prod), space2, pts),
                                   pts[:, 0] ** 2, atol=1e-10)

    def test_random_pointwise_and_ranks(self, space3):
        rng = np.random.default_rng(6)
        a = tt_random(space3.mode_sizes, (1, 2, 2, 1), rng)
        b = tt_random(space3.mode_sizes, (1, 2, 2, 1), rng)
        prod, space2 = poly_multiply(a, b, space3)
        assert prod.interior_ranks == (4, 4)
        assert space2.degrees == (6, 6, 6)
        pts = rng.uniform(-2, 2, (100, 3))
        va = eval_v_batch(snap(a), space3, pts)
        vb = eval_v_batch(snap(b), space3, pts)
        vp = eval_v_batch(snap(prod), space2, pts)
        np.testing.assert_allclose(vp, va * vb, atol=1e-10 * (1 + np.abs(va * vb).max()))

    def test_dense_oracle(self, space3):
        rng = np.random.default_rng(7)
        da = rng.standard_normal(space3.mode_sizes)
        db = rng.standard_normal(space3.mode_sizes)
        prod, _ = poly_multiply(tt_from_dense(da, 0.0), tt_from_dense(db, 0.0), space3)
        assert rel_err(tt_to_dense(prod), dense_multiply(da, db, space3)) <= 1e-12

    def test_degree_eight_pointwise(self):
        # Doubled degree 16: products are exact in the Legendre basis at any
        # degree, so the factors need no degree limit.
        space = PolySpace([(-1, 1), (-5, 5), (0, 2)], [8] * 3)
        rng = np.random.default_rng(8)
        a = tt_random(space.mode_sizes, (1, 2, 2, 1), rng)
        b = tt_random(space.mode_sizes, (1, 2, 2, 1), rng)
        prod, space2 = poly_multiply(a, b, space)
        assert space2.degrees == (16, 16, 16)
        lo, hi = np.array(space.intervals).T
        pts = rng.uniform(lo, hi, (200, 3))
        expect = eval_v_batch(snap(a), space, pts) * eval_v_batch(snap(b), space, pts)
        got = eval_v_batch(snap(prod), space2, pts)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


class TestNonlinear:
    def test_constant_gradient_vanishes(self, space3):
        spec = PotentialSpec(terms=[PotentialTerm((), {(): 2.0})])
        const = build_potential_tt(spec, space3)
        nl, _ = apply_nonlin(const, space3)
        assert tt_norm(nl) <= 1e-12

    def test_1d_analytic(self):
        space = PolySpace([(-1, 1)], [2])
        spec = PotentialSpec(terms=[PotentialTerm((0,), {(2,): 1.0})])
        v = build_potential_tt(spec, space)  # x^2, NL = -4 x^2
        nl, space2 = apply_nonlin(v, space)
        pts = np.linspace(-1, 1, 20).reshape(-1, 1)
        np.testing.assert_allclose(eval_v_batch(snap(nl), space2, pts),
                                   -4 * pts[:, 0] ** 2, atol=1e-10)

    def test_pointwise_gradient_norm(self, space3):
        rng = np.random.default_rng(9)
        a = tt_random(space3.mode_sizes, (1, 2, 2, 1), rng)
        nl, space2 = apply_nonlin(a, space3)
        assert nl.interior_ranks == (8, 8)  # 2 r^2
        from tthjb.sample import grad_v_batch
        pts = rng.uniform(-2, 2, (100, 3))
        g = grad_v_batch(snap(a), space3, pts)
        ref = -np.sum(g * g, axis=1)
        got = eval_v_batch(snap(nl), space2, pts)
        np.testing.assert_allclose(got, ref, atol=1e-10 * (1 + np.abs(ref).max()))

    def test_linearized_matches_inner_product(self, space3):
        rng = np.random.default_rng(10)
        a = tt_random(space3.mode_sizes, (1, 2, 2, 1), rng)
        b = tt_random(space3.mode_sizes, (1, 2, 2, 1), rng)
        nlb, space2 = apply_nonlin_linearized(b, a, space3)
        assert nlb.interior_ranks == (8, 8)  # 2 r_a r_b
        from tthjb.sample import grad_v_batch
        pts = rng.uniform(-2, 2, (100, 3))
        ga = grad_v_batch(snap(a), space3, pts)
        gb = grad_v_batch(snap(b), space3, pts)
        ref = -np.sum(ga * gb, axis=1)
        got = eval_v_batch(snap(nlb), space2, pts)
        np.testing.assert_allclose(got, ref, atol=1e-10 * (1 + np.abs(ref).max()))

    def test_linearized_at_itself_is_nonlin(self, space3):
        rng = np.random.default_rng(11)
        a = tt_random(space3.mode_sizes, (1, 2, 2, 1), rng)
        nl, _ = apply_nonlin(a, space3)
        nla, _ = apply_nonlin_linearized(a, a, space3)
        np.testing.assert_array_equal(tt_to_dense(nl), tt_to_dense(nla))

    def test_linearized_is_linear_in_second_argument(self, space3):
        rng = np.random.default_rng(12)
        b = tt_random(space3.mode_sizes, (1, 2, 2, 1), rng)
        x = tt_random(space3.mode_sizes, (1, 2, 2, 1), rng)
        y = tt_random(space3.mode_sizes, (1, 2, 2, 1), rng)
        from tthjb.tt import tt_add_scaled
        lhs, _ = apply_nonlin_linearized(b, tt_add_scaled(x, y, 2.0), space3)
        rx, _ = apply_nonlin_linearized(b, x, space3)
        ry, _ = apply_nonlin_linearized(b, y, space3)
        ref = tt_to_dense(rx) + 2.0 * tt_to_dense(ry)
        assert rel_err(tt_to_dense(lhs), ref) <= 1e-12

    def test_dense_oracle(self, space3):
        rng = np.random.default_rng(13)
        da = rng.standard_normal(space3.mode_sizes)
        db = rng.standard_normal(space3.mode_sizes)
        nl, _ = apply_nonlin(tt_from_dense(da, 0.0), space3)
        assert rel_err(tt_to_dense(nl), dense_nonlin(da, space3)) <= 1e-12
        nlb, _ = apply_nonlin_linearized(tt_from_dense(db, 0.0),
                                         tt_from_dense(da, 0.0), space3)
        assert rel_err(tt_to_dense(nlb),
                       dense_nonlin_linearized(db, da, space3)) <= 1e-12


class TestProjection:
    def test_identity_when_within_degrees(self, space3):
        rng = np.random.default_rng(14)
        a = tt_random(space3.mode_sizes, (1, 2, 2, 1), rng)
        out = project_degree(a, space3.degrees)
        np.testing.assert_array_equal(tt_to_dense(out), tt_to_dense(a))

    def test_1d_truncation_and_parseval(self):
        space = PolySpace([(-1, 1)], [4])
        rng = np.random.default_rng(15)
        coeffs = rng.standard_normal(5)
        a = tt_from_dense(coeffs, 0.0)
        p = project_degree(a, [2])
        np.testing.assert_array_equal(tt_to_dense(p), coeffs[:3])
        discarded = tt_inner(a, a) - tt_inner(p, p)
        assert discarded == pytest.approx(coeffs[3] ** 2 + coeffs[4] ** 2, rel=1e-12)

    def test_dense_subtensor(self, space3):
        rng = np.random.default_rng(16)
        dense = rng.standard_normal((5, 5, 5))
        a = tt_from_dense(dense, 0.0)
        out = project_degree(a, [2, 3, 1])
        np.testing.assert_allclose(tt_to_dense(out),
                                   dense_project(dense, [2, 3, 1]), atol=1e-12)

    def test_parseval_norm_split(self, space3):
        rng = np.random.default_rng(17)
        a = tt_random((5, 5, 5), (1, 3, 3, 1), rng)
        p = project_degree(a, [2, 2, 2])
        total = tt_inner(a, a)
        kept = tt_inner(p, p)
        dense = tt_to_dense(a).copy()
        dense[:3, :3, :3] = 0.0
        assert total - kept == pytest.approx(np.sum(dense ** 2), rel=1e-12)


class TestStiffness:
    def test_constant_b_reduces_to_linear(self, space3):
        rng = np.random.default_rng(18)
        a = tt_random(space3.mode_sizes, (1, 2, 2, 1), rng)
        spec = PotentialSpec(terms=[PotentialTerm((), {(): 1.0})])
        const = build_potential_tt(spec, space3)
        got = apply_stiffness(const, a, space3)
        assert rel_err(tt_to_dense(got), tt_to_dense(apply_lin(a, space3))) <= 1e-12

    def test_dense_oracle(self, space3):
        rng = np.random.default_rng(19)
        da = rng.standard_normal(space3.mode_sizes)
        db = rng.standard_normal(space3.mode_sizes)
        got = apply_stiffness(tt_from_dense(db, 0.0), tt_from_dense(da, 0.0), space3)
        ref = dense_lin(da, space3) + 2.0 * dense_project(
            dense_nonlin_linearized(db, da, space3), space3.degrees)
        assert rel_err(tt_to_dense(got), ref) <= 1e-12

    def test_prepared_side_matches_unprepared_mixed_degrees(self):
        space = PolySpace([(-5.0, 5.0), (-2.0, 2.0), (-1.0, 3.0), (-2.0, 2.0),
                           (-5.0, 5.0)], [2, 3, 4, 5, 6])
        rng = np.random.default_rng(21)
        b = tt_random(space.mode_sizes, (1, 2, 3, 3, 2, 1), rng)
        side = prepare_stiffness(b, space)
        # the composition apply_stiffness replaces: L a + 2 P NL_b(a)
        for ranks in [(1, 2, 2, 2, 2, 1), (1, 3, 2, 3, 2, 1)]:
            a = tt_random(space.mode_sizes, ranks, rng)
            prepared = tt_to_dense(apply_stiffness(side, a, space))
            unprepared = tt_to_dense(apply_stiffness(b, a, space))
            nl, _ = apply_nonlin_linearized(b, a, space)
            composed = tt_to_dense(tt_add_scaled(
                apply_lin(a, space), project_degree(nl, space.degrees), 2.0))
            assert rel_err(prepared, unprepared) <= 1e-14
            assert rel_err(prepared, composed) <= 1e-14

    def test_prepared_side_rejects_other_shapes(self, space3):
        rng = np.random.default_rng(22)
        side = prepare_stiffness(tt_random(space3.mode_sizes, (1, 2, 2, 1), rng), space3)
        with pytest.raises(ValueError, match="mode sizes"):
            apply_stiffness(side, tt_random((3, 3, 3), (1, 2, 2, 1), rng), space3)


class TestExtractQuadratic:
    def test_standard_normal_potential(self):
        d = 3
        space = PolySpace([(-5, 5)] * d, [2] * d)
        spec = PotentialSpec(builtins=[
            {"name": "gaussian", "coords": (0, 1, 2),
             "params": {"Q": (0.5 * np.eye(d)).tolist()}}])
        phi = build_potential_tt(spec, space)
        a0, b, q = extract_quadratic(phi, space)
        assert a0 == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(b, 0.0, atol=1e-12)
        np.testing.assert_allclose(q, 0.5 * np.eye(d), atol=1e-12)

    def test_doublewell_embedded(self):
        space = PolySpace([(-2, 2)] * 4, [4] * 4)
        spec = PotentialSpec(builtins=[
            {"name": "doublewell", "coords": (2, 3), "params": {}},
            {"name": "iso_tail", "coords": (0, 1), "params": {}}])
        phi = build_potential_tt(spec, space)
        a0, b, q = extract_quadratic(phi, space)
        assert a0 == pytest.approx(8.0, rel=1e-10)
        np.testing.assert_allclose(b, [0, 0, -0.4, 0.1], atol=1e-10)
        np.testing.assert_allclose(np.diag(q), [1, 1, -4, -4], atol=1e-10)

    def test_random_quadratic_form(self):
        rng = np.random.default_rng(20)
        d = 5
        m = rng.standard_normal((d, d))
        space = PolySpace([(-3, 3)] * d, [2] * d)
        spec = PotentialSpec(builtins=[
            {"name": "gaussian", "coords": tuple(range(d)),
             "params": {"Q": m.tolist()}}])
        phi = build_potential_tt(spec, space)
        _, _, q = extract_quadratic(phi, space)
        np.testing.assert_allclose(q, 0.5 * (m + m.T), atol=1e-10)

    def test_ignores_higher_order_terms(self):
        space = PolySpace([(-2, 2)] * 2, [6, 6])
        spec = PotentialSpec(builtins=[
            {"name": "sextic", "coords": (0, 1), "params": {}}])
        phi = build_potential_tt(spec, space)
        a0, b, q = extract_quadratic(phi, space)
        assert a0 == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(b, 0.0, atol=1e-10)
        np.testing.assert_allclose(q, [[0, 1.5], [1.5, 0]], atol=1e-10)


def _product_core_loop(hb, ha, t2_inv):
    """Reference per-mode product: the shifted-accumulation loop over
    mapped-monomial cores that the precontracted kernel replaces."""
    n = hb.shape[1] - 1
    kb, _, lb = hb.shape
    ka, _, la = ha.shape
    # pair[a, b, k, m, l, o] = hb[k, a, l] * ha[m, b, o]
    pair = (hb.transpose(1, 0, 2)[:, None, :, None, :, None]
            * ha.transpose(1, 0, 2)[None, :, None, :, None, :])
    merged = np.zeros((2 * n + 1, kb, ka, lb, la))
    for alpha in range(n + 1):
        merged[alpha:alpha + n + 1] += pair[alpha]
    merged = merged.transpose(1, 2, 0, 3, 4).reshape(kb * ka, 2 * n + 1, lb * la)
    return mode_apply(t2_inv, merged)


def _loop_operators(b, a, space, size):
    """``poly_multiply(a, b)``, ``apply_nonlin_linearized(b, a)`` and
    ``apply_stiffness(b, a)`` built from the reference loop.  With
    ``size=True`` every matrix and core enters by its absolute value, which
    gives the size of the terms each entry sums: round-off of any summation
    order stays within a few dozen ulps of it."""
    f = np.abs if size else (lambda x: x)
    prod, base, repl, gen = [], [], [], []
    for i, (cb, ca) in enumerate(zip(b.cores, a.cores)):
        m = ca.shape[1]
        t = f(mapped_monomial_transform(space.basis(i, m))[0])
        t2_inv = f(mapped_monomial_transform(space.basis(i, 2 * m - 1))[1])
        dx = f(derivative_matrix(space.basis(i, m)))
        cb, ca = f(cb), f(ca)
        prod.append(_product_core_loop(mode_apply(t, cb), mode_apply(t, ca), t2_inv))
        base.append(prod[-1])
        repl.append(_product_core_loop(mode_apply(t, mode_apply(dx, cb)),
                                       mode_apply(t, mode_apply(dx, ca)), t2_inv))
        gen.append(mode_apply(f(ou_generator_matrix(space.basis(i, m))), ca))
    a_cores = [f(c) for c in a.cores]
    nonlin = laplace_like_sum(base, repl)
    kept = laplace_like_sum([c[:, :m] for c, m in zip(base, a.mode_sizes)],
                            [c[:, :m] for c, m in zip(repl, a.mode_sizes)])
    stiff = tt_add_scaled(laplace_like_sum(a_cores, gen), kept, 2.0 if size else -2.0)
    return prod, nonlin.cores, stiff.cores


class TestProductKernel:
    """The precontracted product kernel against the loop it replaces, at
    full rows (products, nonlinear part) and at the kept rows (stiffness)."""

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("degree", range(7))
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_loop_reference(self, d, degree, rank):
        intervals = [(-2.0, 2.0), (-5.0, 5.0), (-1.0, 3.0), (-2.0, 2.0), (0.0, 1.0)]
        space = PolySpace(intervals[:d], [degree] * d)
        rng = np.random.default_rng(100 * d + 10 * degree + rank)
        b = tt_random(space.mode_sizes, (1,) + (rank,) * (d - 1) + (1,), rng)
        a_ranks = tuple((rank + k) % 4 + 1 for k in range(d - 1))
        a = tt_random(space.mode_sizes, (1,) + a_ranks + (1,), rng)
        nonlin = apply_nonlin_linearized(b, a, space)[0].cores
        got = (poly_multiply(a, b, space)[0].cores, [-nonlin[0]] + nonlin[1:],
               apply_stiffness(b, a, space).cores)
        ref = _loop_operators(b, a, space, size=False)
        size = _loop_operators(b, a, space, size=True)
        for got_op, ref_op, size_op in zip(got, ref, size):
            for g, r, s in zip(got_op, ref_op, size_op):
                assert g.shape == r.shape
                assert np.all(np.abs(g - r) <= 1e-14 * s)

    def test_stiffness_rejects_other_mode_sizes(self, space3):
        rng = np.random.default_rng(23)
        b = tt_random(space3.mode_sizes, (1, 2, 2, 1), rng)
        a = tt_random((3, 3, 3), (1, 2, 2, 1), rng)
        with pytest.raises(ValueError, match="mode sizes"):
            apply_stiffness(b, a, space3)
        with pytest.raises(ValueError, match="mode sizes"):
            apply_nonlin_linearized(b, a, space3)


class TestProjectionNorms:
    def test_matches_dense_split(self):
        rng = np.random.default_rng(24)
        a = tt_random((5, 4, 7, 3), (1, 3, 4, 2, 1), rng)
        degrees = [2, 3, 4, 0]
        norm, dropped = projection_norms(a, degrees)
        dense = tt_to_dense(a)
        kept = dense[:3, :4, :5, :1]
        assert norm == pytest.approx(np.linalg.norm(dense), rel=1e-13)
        assert dropped == pytest.approx(
            np.sqrt(np.sum(dense ** 2) - np.sum(kept ** 2)), rel=1e-12)

    def test_nothing_dropped_and_bad_degrees(self):
        rng = np.random.default_rng(25)
        a = tt_random((3, 3), (1, 2, 1), rng)
        norm, dropped = projection_norms(a, [2, 2])
        assert dropped == 0.0
        assert norm == pytest.approx(tt_norm(a), rel=1e-13)
        with pytest.raises(ValueError):
            projection_norms(a, [3, 2])
        with pytest.raises(ValueError):
            projection_norms(a, [2])
