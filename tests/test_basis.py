"""Legendre bases: orthonormality, transforms, operator matrices."""

import numpy as np
import pytest

from tthjb.basis import (DEGREE_CAP, PolySpace, build_basis, derivative_matrix,
                         mapped_monomial_transform,
                         monomial_derivative, monomial_second_derivative,
                         monomial_x_derivative, ou_generator_matrix)

SQ2 = np.sqrt(2.0)


def gauss_grid(a, b, n):
    u, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * u + 0.5 * (a + b), 0.5 * (b - a) * w


class TestBuildBasis:
    def test_constant_normalization(self):
        bs = build_basis(-1.0, 1.0, 0)
        assert bs.evaluate(0.3)[0] == pytest.approx(1 / SQ2, abs=1e-14)
        np.testing.assert_allclose(bs.T, [[1 / SQ2]])

    def test_degree_two_column(self):
        # p_2(x) = sqrt(5/2) (3x^2 - 1)/2 on [-1, 1]
        bs = build_basis(-1.0, 1.0, 2)
        expected = np.array([-np.sqrt(2.5) / 2, 0.0, 3 * np.sqrt(2.5) / 2])
        np.testing.assert_allclose(bs.T[:, 2], expected, atol=1e-14)

    def test_dual_path_evaluation_offset_interval(self):
        bs = build_basis(0.0, 2.0, 3)
        rng = np.random.default_rng(0)
        coef = rng.standard_normal(4)
        xs = rng.uniform(0.0, 2.0, 20)
        direct = bs.evaluate(xs) @ coef
        mono = bs.T @ coef
        via_monomials = sum(c * xs ** k for k, c in enumerate(mono))
        np.testing.assert_allclose(direct, via_monomials, atol=1e-10)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            build_basis(1.0, 1.0, 3)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            build_basis(-1.0, 1.0, DEGREE_CAP + 1)

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
        # Exponential ill-conditioning of the monomial transform limits this
        # to ~1e-8 on wide intervals at the degree cap; narrow intervals meet
        # the tight bound.
        for n in range(DEGREE_CAP + 1):
            bs = build_basis(float(a), float(b), n)
            res = np.max(np.abs(bs.T @ bs.T_inv - np.eye(n + 1)))
            assert res <= 1e-10, (a, b, n, res)

    def test_inverse_residual_wide_interval(self):
        bs = build_basis(-5.0, 5.0, 12)
        res = np.max(np.abs(bs.T @ bs.T_inv - np.eye(13)))
        assert res <= 1e-8

    def test_parity_zero_pattern_bitwise(self):
        # On symmetric intervals column k holds only degrees <= k of the same
        # parity; the pattern must be exact zeros, not small floats.
        for b in (1.0, 2.0, 5.0):
            bs = build_basis(-b, b, 12)
            for col in range(13):
                for row in range(13):
                    if row > col or (row + col) % 2 == 1:
                        assert bs.T[row, col] == 0.0
                        assert bs.T_inv[row, col] == 0.0

    def test_reproducible_bit_for_bit(self):
        build_basis.cache_clear()
        t1 = build_basis(-2.0, 2.0, 9).T.copy()
        build_basis.cache_clear()
        t2 = build_basis(-2.0, 2.0, 9).T.copy()
        np.testing.assert_array_equal(t1, t2)


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
        for x in rng.uniform(-2, 3, 10):
            vals = bs.evaluate(x)
            via = bs.T.T @ (x ** np.arange(7))
            np.testing.assert_allclose(vals, via, atol=1e-10)


class TestDerivative:
    def test_constant_has_zero_derivative(self):
        bs = build_basis(0.0, 2.0, 3)
        assert bs.evaluate_derivative(1.3)[0] == 0.0

    def test_linear_derivative_constant(self):
        bs = build_basis(-1.0, 1.0, 2)
        for x in (-0.9, 0.0, 0.4):
            assert bs.evaluate_derivative(x)[1] == pytest.approx(np.sqrt(1.5), abs=1e-13)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(2)
        bs = build_basis(-2.0, 2.0, 8)
        h = 1e-7
        for x in rng.uniform(-2, 2, 10):
            fd = (bs.evaluate(x + h) - bs.evaluate(x - h)) / (2 * h)
            np.testing.assert_allclose(bs.evaluate_derivative(x), fd, atol=1e-6)


class TestOperatorMatrices:
    def test_generator_annihilates_constants(self):
        bs = build_basis(-1.0, 1.0, 5)
        out = ou_generator_matrix(bs) @ np.eye(6)[0]
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_generator_on_x_squared(self):
        # (d^2/dx^2 + x d/dx) x^2 = 2 + 2x^2
        bs = build_basis(-1.0, 1.0, 5)
        coef = bs.T_inv[:, 2]
        mono = bs.T @ (ou_generator_matrix(bs) @ coef)
        expected = np.array([2.0, 0.0, 2.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(mono, expected, atol=1e-11)

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
        coef_x = bs.T_inv[:, 1]
        mono = bs.T @ (dx @ coef_x)
        np.testing.assert_allclose(mono, [1, 0, 0, 0, 0], atol=1e-12)

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
        xm = bs.T_inv @ shift @ bs.T
        composed = dx @ dx + xm @ dx
        rng = np.random.default_rng(5)
        coef = np.zeros(9)
        coef[:7] = rng.standard_normal(7)  # degree <= n-2
        np.testing.assert_allclose(d @ coef, composed @ coef, atol=1e-9)

    def test_monomial_matrices_shapes(self):
        assert monomial_second_derivative(4)[0, 2] == 2.0
        assert monomial_second_derivative(4)[2, 4] == 12.0
        np.testing.assert_allclose(np.diag(monomial_x_derivative(3)), [0, 1, 2, 3])
        assert monomial_derivative(3)[1, 2] == 2.0


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
        return [ou_generator_matrix(bs), derivative_matrix(bs),
                *mapped_monomial_transform(bs)]

    for mat, mat2 in zip(matrices(), matrices()):
        assert mat is mat2
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
    # one cache entry per (a, b, n): another degree gets its own matrix
    assert derivative_matrix(build_basis(-2.0, 3.0, 5)).shape == (6, 6)
