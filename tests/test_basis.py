"""Legendre bases: orthonormality, transforms, operator matrices."""

import numpy as np
import pytest

from tthjb.basis import (PolySpace, build_basis, derivative_matrix,
                         mapped_monomial_transform, ou_generator_matrix,
                         power_coefficients, product_tensor, taylor_rows)

SQ2 = np.sqrt(2.0)


def gauss_grid(a, b, n):
    u, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * u + 0.5 * (a + b), 0.5 * (b - a) * w


class TestBuildBasis:
    def test_constant_normalization(self):
        bs = build_basis(-1.0, 1.0, 0)
        assert bs.evaluate(0.3)[0] == pytest.approx(1 / SQ2, abs=1e-14)
        np.testing.assert_allclose(power_coefficients(bs, 0), [SQ2])

    def test_degree_two_column(self):
        # p_2(x) = sqrt(5/2) (3x^2 - 1)/2 on [-1, 1]
        bs = build_basis(-1.0, 1.0, 2)
        expected = np.array([-np.sqrt(2.5) / 2, 0.0, 3 * np.sqrt(2.5) / 2])
        np.testing.assert_allclose(mapped_monomial_transform(bs)[0][:, 2], expected,
                                   atol=1e-14)

    def test_dual_path_evaluation_offset_interval(self):
        bs = build_basis(0.0, 2.0, 3)
        rng = np.random.default_rng(0)
        coef = rng.standard_normal(4)
        xs = rng.uniform(0.0, 2.0, 20)
        direct = bs.evaluate(xs) @ coef
        mono = mapped_monomial_transform(bs)[0] @ coef
        via_monomials = sum(c * (xs - 1.0) ** k for k, c in enumerate(mono))
        np.testing.assert_allclose(direct, via_monomials, atol=1e-10)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            build_basis(1.0, 1.0, 3)

    @pytest.mark.parametrize("a,b", [(-1, 1), (0, 2), (-2, 2), (-5, 5)])
    @pytest.mark.parametrize("n", [1, 4, 8, 12])
    def test_orthonormality_by_quadrature(self, a, b, n):
        bs = build_basis(float(a), float(b), n)
        xs, w = gauss_grid(a, b, n + 1)
        vals = bs.evaluate(xs)
        gram = (vals * w[:, None]).T @ vals
        np.testing.assert_allclose(gram, np.eye(n + 1), atol=1e-10)

    @pytest.mark.parametrize("a,b", [(-1, 1), (0, 2), (-2, 2)])
    def test_inverse_residual(self, a, b):
        # The dense oracle's mapped-monomial transform pair; its conditioning
        # grows exponentially in the degree but not with the interval.
        for n in range(13):
            t, t_inv = mapped_monomial_transform(build_basis(float(a), float(b), n))
            res = np.max(np.abs(t @ t_inv - np.eye(n + 1)))
            assert res <= 1e-10, (a, b, n, res)

    def test_parity_zero_pattern_bitwise(self):
        # On symmetric intervals products, derivatives, the generator and
        # powers of x keep the parity structure of the Legendre basis; the
        # pattern must be exact zeros, not small floats.
        row, col = np.indices((13, 13))
        for b in (1.0, 2.0, 5.0):
            bs = build_basis(-b, b, 12)
            prod = product_tensor(bs)
            p, a, q = np.indices(prod.shape)
            assert np.all(prod[((p + a + q) % 2 == 1) | (p > a + q)
                               | (p < np.abs(a - q))] == 0.0)
            assert np.all(derivative_matrix(bs)[(row >= col)
                                                | ((row + col) % 2 == 0)] == 0.0)
            assert np.all(ou_generator_matrix(bs)[(row > col)
                                                  | ((row + col) % 2 == 1)] == 0.0)
            degree = np.arange(13)
            for e in range(13):
                assert np.all(power_coefficients(bs, e)[(degree > e)
                                                        | ((degree + e) % 2 == 1)] == 0.0)

    def test_reproducible_bit_for_bit(self):
        bs = build_basis(-2.0, 2.0, 9)
        for build in (product_tensor, derivative_matrix, ou_generator_matrix):
            np.testing.assert_array_equal(build(bs), build.__wrapped__(bs))


class TestEvaluate:
    def test_entry_zero_is_constant(self):
        bs = build_basis(-3.0, 5.0, 4)
        for x in (-3.0, 0.0, 4.5, 7.0):
            assert bs.evaluate(x)[0] == pytest.approx(1 / np.sqrt(8.0), abs=1e-14)

    def test_odd_entry_vanishes_at_midpoint(self):
        bs = build_basis(-1.0, 1.0, 3)
        assert bs.evaluate(0.0)[1] == 0.0

    def test_matches_monomial_path(self):
        rng = np.random.default_rng(1)
        bs = build_basis(-2.0, 3.0, 6)
        t, _ = mapped_monomial_transform(bs)
        for x in rng.uniform(-2, 3, 10):
            vals = bs.evaluate(x)
            via = t.T @ ((2 * (x + 2) / 5 - 1) ** np.arange(7))
            np.testing.assert_allclose(vals, via, atol=1e-10)


class TestDerivative:
    def test_constant_has_zero_derivative(self):
        bs = build_basis(0.0, 2.0, 3)
        assert bs.evaluate_with_derivative(1.3)[1][0] == 0.0

    def test_linear_derivative_constant(self):
        bs = build_basis(-1.0, 1.0, 2)
        for x in (-0.9, 0.0, 0.4):
            assert bs.evaluate_with_derivative(x)[1][1] == pytest.approx(np.sqrt(1.5), abs=1e-13)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(2)
        bs = build_basis(-2.0, 2.0, 8)
        h = 1e-7
        for x in rng.uniform(-2, 2, 10):
            fd = (bs.evaluate(x + h) - bs.evaluate(x - h)) / (2 * h)
            np.testing.assert_allclose(bs.evaluate_with_derivative(x)[1], fd, atol=1e-6)


class TestOperatorMatrices:
    def test_generator_annihilates_constants(self):
        bs = build_basis(-1.0, 1.0, 5)
        out = ou_generator_matrix(bs) @ np.eye(6)[0]
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_generator_on_x_squared(self):
        # (d^2/dx^2 + x d/dx) x^2 = 2 + 2x^2
        bs = build_basis(-1.0, 1.0, 5)
        out = ou_generator_matrix(bs) @ power_coefficients(bs, 2)
        expected = 2.0 * power_coefficients(bs, 0) + 2.0 * power_coefficients(bs, 2)
        np.testing.assert_allclose(out, expected, atol=1e-11)

    def test_generator_pointwise_finite_difference(self):
        rng = np.random.default_rng(3)
        bs = build_basis(-1.5, 1.5, 5)
        coef = rng.standard_normal(6)
        out = ou_generator_matrix(bs) @ coef
        h = 1e-4  # second differences hit the roundoff floor below this
        for x in rng.uniform(-1.4, 1.4, 50):
            v = lambda y: bs.evaluate(y) @ coef
            lap = (v(x + h) - 2 * v(x) + v(x - h)) / h**2
            grad = (v(x + h) - v(x - h)) / (2 * h)
            assert abs(lap + x * grad - bs.evaluate(x) @ out) < 1e-5

    def test_derivative_matrix_on_constant_and_x(self):
        bs = build_basis(-1.0, 1.0, 4)
        dx = derivative_matrix(bs)
        np.testing.assert_allclose(dx @ np.eye(5)[0], 0.0, atol=1e-13)
        np.testing.assert_allclose(dx @ power_coefficients(bs, 1),
                                   power_coefficients(bs, 0), atol=1e-12)

    def test_derivative_matrix_finite_difference(self):
        rng = np.random.default_rng(4)
        bs = build_basis(0.0, 2.0, 6)
        coef = rng.standard_normal(7)
        out = derivative_matrix(bs) @ coef
        h = 1e-6
        for x in rng.uniform(0.1, 1.9, 20):
            fd = (bs.evaluate(x + h) - bs.evaluate(x - h)) @ coef / (2 * h)
            assert abs(fd - bs.evaluate(x) @ out) < 1e-6

    def test_generator_composition_identity(self):
        # (d^2 + x d) = d o d + (x .) o d as matrices, valid on inputs of
        # degree <= n-2 where the x-multiplication truncation cannot bite.
        bs = build_basis(-1.0, 1.0, 8)
        d = ou_generator_matrix(bs)
        dx = derivative_matrix(bs)
        shift = np.eye(9, k=-1)  # monomial x-multiplication truncated to degree 8
        t, t_inv = mapped_monomial_transform(bs)  # u = x on [-1, 1]
        xm = t_inv @ shift @ t
        composed = dx @ dx + xm @ dx
        rng = np.random.default_rng(5)
        coef = np.zeros(9)
        coef[:7] = rng.standard_normal(7)  # degree <= n-2
        np.testing.assert_allclose(d @ coef, composed @ coef, atol=1e-9)

    @pytest.mark.parametrize("a,b", [(-1.0, 3.0), (-5.0, 5.0)])
    def test_product_tensor_pointwise(self, a, b):
        # degree 10 factors, degree 20 products
        xs = np.linspace(a, b, 41)
        vals = build_basis(a, b, 10).evaluate(xs)
        got = np.einsum("xp,paq->xaq", build_basis(a, b, 20).evaluate(xs),
                        product_tensor(build_basis(a, b, 10)))
        expect = vals[:, :, None] * vals[:, None, :]
        np.testing.assert_allclose(got, expect, atol=1e-13 * np.abs(expect).max())

    @pytest.mark.parametrize("a,b", [(0.0, 2.0), (-5.0, 5.0), (1.0, 4.0)])
    def test_power_coefficients_pointwise(self, a, b):
        bs = build_basis(a, b, 12)
        xs = np.linspace(a, b, 31)
        for e in range(13):
            got = bs.evaluate(xs) @ power_coefficients(bs, e)
            np.testing.assert_allclose(got, xs ** e, rtol=1e-12,
                                       atol=1e-12 * np.abs(xs ** e).max())


class TestPolySpace:
    def test_shapes_and_lookup(self):
        sp = PolySpace([(-1, 1), (0, 2)], [3, 4])
        assert sp.d == 2
        assert sp.mode_sizes == (4, 5)
        assert sp.basis(1).n == 4
        assert sp.basis(1, 3).n == 2  # reduced-degree lookup

    def test_with_degrees(self):
        sp = PolySpace([(-1, 1), (0, 2)], [3, 4])
        sp2 = sp.with_degrees([6, 8])
        assert sp2.degrees == (6, 8)
        assert sp2.intervals == sp.intervals

    def test_validation(self):
        with pytest.raises(ValueError):
            PolySpace([], [])
        with pytest.raises(ValueError):
            PolySpace([(-1, 1)], [2, 3])


def test_operator_matrices_cached_and_read_only():
    bs = build_basis(-2.0, 3.0, 4)
    def matrices():
        return [ou_generator_matrix(bs), derivative_matrix(bs), product_tensor(bs),
                power_coefficients(bs, 3), taylor_rows(bs),
                *mapped_monomial_transform(bs)]

    for mat, mat2 in zip(matrices(), matrices()):
        assert mat is mat2
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
    # one cache entry per (a, b, n): another degree gets its own matrix
    assert derivative_matrix(build_basis(-2.0, 3.0, 5)).shape == (6, 6)
