"""Tensor-train container and algebra, cross-checked against dense numpy."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tthjb.tt import (TensorTrain, _qr, _qr_q, _qr_r, _svd, laplace_like_sum,
                      mode_apply,
                      read_checkpoint, right_orthogonalize, tt_add_scaled,
                      tt_contract_mode_vectors, tt_from_dense, tt_inner,
                      tt_norm, tt_random, tt_round, tt_round_sketched,
                      tt_round_with_error, tt_scale, tt_to_dense, tt_zero,
                      write_checkpoint)


def random_tt(rng, mode_sizes, ranks):
    return tt_random(mode_sizes, (1,) + tuple(ranks) + (1,), rng)


def apply_mode_matrix(a, i, m):
    """``a`` with ``m`` applied to mode ``i``."""
    cores = list(a.cores)
    cores[i] = mode_apply(m, cores[i])
    return TensorTrain(cores)


def laplace_like_apply(a, ms):
    """``sum_i (I x ... x ms[i] x ... x I) a``."""
    return laplace_like_sum(a.cores, [mode_apply(m, c) for m, c in zip(ms, a.cores)])


class TestConstruction:
    def test_zero_tensor_canonical_form(self):
        z = tt_zero((2, 2, 2))
        assert z.ranks == (1, 1, 1, 1)
        np.testing.assert_array_equal(tt_to_dense(z), np.zeros((2, 2, 2)))

    def test_from_dense_zero_tensor(self):
        z = tt_from_dense(np.zeros((2, 2, 2)), 0.0)
        assert z.ranks == (1, 1, 1, 1)

    def test_from_dense_rank_one(self):
        rng = np.random.default_rng(0)
        u, v, w = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
        t = np.einsum("i,j,k->ijk", u, v, w)
        tt = tt_from_dense(t, 1e-12)
        assert tt.ranks == (1, 1, 1, 1)
        np.testing.assert_allclose(tt_to_dense(tt), t, atol=1e-12 * np.abs(t).max())

    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 3, 3, 3))
        back = tt_to_dense(tt_from_dense(t, 0.0))
        assert np.linalg.norm(back - t) <= 1e-12 * np.linalg.norm(t)

    def test_rank_one_outer_product(self):
        u, v = np.array([1.0, 2.0]), np.array([3.0, -1.0, 0.5])
        tt = TensorTrain([u.reshape(1, -1, 1), v.reshape(1, -1, 1)])
        np.testing.assert_allclose(tt_to_dense(tt), np.outer(u, v))

    def test_shape_chain_validated(self):
        with pytest.raises(ValueError):
            TensorTrain([np.zeros((1, 2, 2)), np.zeros((3, 2, 1))])

    @pytest.mark.parametrize("shapes", [[(1, 2, 0), (0, 2, 1)], [(1, 0, 1)]],
                             ids=["rank-0", "mode-size-0"])
    def test_empty_bond_or_mode_rejected(self, shapes):
        with pytest.raises(ValueError, match="ranks and mode sizes must be >= 1"):
            TensorTrain([np.zeros(s) for s in shapes])

    def test_non_finite_rejected(self):
        core = np.zeros((1, 2, 1))
        core[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            TensorTrain([core])

    def test_dense_guard(self):
        with pytest.raises(ValueError):
            tt_from_dense(np.zeros((10,) * 8), 0.0)


class TestAddScaled:
    def test_add_zero_no_change(self):
        rng = np.random.default_rng(2)
        a = random_tt(rng, (3, 4, 3), (2, 2))
        s = tt_add_scaled(a, tt_zero(a.mode_sizes), 0.0)
        np.testing.assert_allclose(tt_to_dense(s), tt_to_dense(a), atol=1e-14)

    def test_cancellation(self):
        rng = np.random.default_rng(3)
        a = random_tt(rng, (3, 4, 3), (2, 3))
        diff = tt_add_scaled(a, a, -1.0)
        assert tt_norm(diff) <= 1e-12 * tt_norm(a)

    def test_scaled_sum_matches_dense(self):
        rng = np.random.default_rng(4)
        a = random_tt(rng, (3, 4, 2), (2, 3))
        b = random_tt(rng, (3, 4, 2), (3, 2))
        s = tt_add_scaled(a, b, 2.5)
        ref = tt_to_dense(a) + 2.5 * tt_to_dense(b)
        np.testing.assert_allclose(tt_to_dense(s), ref, atol=1e-12 * np.abs(ref).max())

    def test_rank_arithmetic(self):
        rng = np.random.default_rng(5)
        a = random_tt(rng, (3, 3, 3), (2, 2))
        b = random_tt(rng, (3, 3, 3), (3, 1))
        assert tt_add_scaled(a, b, 1.0).interior_ranks == (5, 3)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            tt_add_scaled(random_tt(rng, (3, 3), (2,)), random_tt(rng, (3, 4), (2,)), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), c=st.floats(-3, 3))
    def test_linearity_property(self, seed, c):
        rng = np.random.default_rng(seed)
        a = random_tt(rng, (2, 3, 2, 2), (2, 2, 2))
        b = random_tt(rng, (2, 3, 2, 2), (1, 2, 1))
        ref = tt_to_dense(a) + c * tt_to_dense(b)
        got = tt_to_dense(tt_add_scaled(a, b, c))
        np.testing.assert_allclose(got, ref, atol=1e-12 * (1 + np.abs(ref).max()))


class TestInnerAndNorm:
    def test_unit_coordinate_tensor(self):
        e = np.zeros((2, 2, 2))
        e[1, 0, 1] = 1.0
        tt = tt_from_dense(e, 0.0)
        assert tt_inner(tt, tt) == pytest.approx(1.0, abs=1e-14)

    def test_against_zero(self):
        rng = np.random.default_rng(7)
        a = random_tt(rng, (3, 3), (2,))
        assert tt_inner(a, tt_zero(a.mode_sizes)) == 0.0

    def test_matches_dense_dot(self):
        rng = np.random.default_rng(8)
        a = random_tt(rng, (3, 4, 3), (2, 3))
        b = random_tt(rng, (3, 4, 3), (3, 2))
        ref = float(np.sum(tt_to_dense(a) * tt_to_dense(b)))
        assert tt_inner(a, b) == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_inner_self_is_squared_frobenius(self, seed):
        rng = np.random.default_rng(seed)
        a = random_tt(rng, (2, 3, 2, 3), (2, 3, 2))
        val = tt_inner(a, a)
        assert val >= 0.0
        ref = np.linalg.norm(tt_to_dense(a)) ** 2
        assert val == pytest.approx(ref, rel=1e-12)

    def test_norm_via_orthogonalization(self):
        rng = np.random.default_rng(9)
        a = random_tt(rng, (4, 3, 4), (3, 3))
        assert tt_norm(a) == pytest.approx(np.linalg.norm(tt_to_dense(a)), rel=1e-12)


class TestRound:
    def test_hidden_rank_deficiency(self):
        rng = np.random.default_rng(10)
        one = random_tt(rng, (3, 3, 3), (1, 1))
        inflated = tt_add_scaled(one, one, 1.0)  # ranks (2, 2), same tensor x2
        rounded = tt_round(inflated, tol=1e-12)
        assert rounded.interior_ranks == (1, 1)
        np.testing.assert_allclose(tt_to_dense(rounded), 2 * tt_to_dense(one),
                                   atol=1e-11)

    def test_matrix_case_matches_best_svd(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((8, 9))
        tt = tt_from_dense(m, 0.0)
        rounded = tt_round(tt, max_ranks=[3])
        u, s, vt = np.linalg.svd(m)
        best = (u[:, :3] * s[:3]) @ vt[:3]
        assert np.linalg.norm(tt_to_dense(rounded) - best) <= 1e-12 * np.linalg.norm(best)

    def test_tol_zero_is_lossless(self):
        rng = np.random.default_rng(12)
        a = random_tt(rng, (3, 4, 3), (2, 2))
        np.testing.assert_allclose(tt_to_dense(tt_round(a, tol=0.0)),
                                   tt_to_dense(a), atol=1e-13)

    def test_never_increases_ranks(self):
        rng = np.random.default_rng(13)
        a = random_tt(rng, (3, 3, 3, 3), (2, 3, 2))
        r = tt_round(a, tol=0.5)
        assert all(x <= y for x, y in zip(r.interior_ranks, a.interior_ranks))

    def test_zero_tensor_round_unchanged(self):
        z = tt_zero((3, 3, 3))
        r = tt_round(z, tol=1e-8)
        assert r.ranks == (1, 1, 1, 1)
        assert tt_norm(r) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), tol=st.floats(1e-10, 0.5))
    def test_relative_error_bound(self, seed, tol):
        rng = np.random.default_rng(seed)
        a = random_tt(rng, (3, 3, 3, 3), (3, 4, 3))
        r = tt_round(a, tol=tol)
        da = tt_to_dense(a)
        err = np.linalg.norm(tt_to_dense(r) - da)
        assert err <= tol * np.linalg.norm(da) * (1 + 1e-10)

    def test_d1_passthrough(self):
        rng = np.random.default_rng(14)
        a = TensorTrain([rng.standard_normal((1, 5, 1))])
        np.testing.assert_array_equal(tt_to_dense(tt_round(a, tol=0.1)), tt_to_dense(a))

    @pytest.mark.parametrize("modes, ranks, tol, caps", [
        ((3, 4, 3, 3), (3, 4, 3), 0.0, [1, 2, 2]),
        ((5, 6), (5,), 0.0, [2]),
        ((3, 3, 3, 3), (3, 4, 3), 0.3, None),
        ((3, 3, 3, 3), (3, 4, 3), 1e-3, [2, 9, 1]),
        ((3, 3, 3), (2, 2), 0.0, None),
        ((5,), (), 0.1, None),
    ], ids=["caps", "matrix-cap", "tol", "tol-and-caps", "lossless", "d1"])
    def test_reported_error_matches_dense(self, modes, ranks, tol, caps):
        a = random_tt(np.random.default_rng(15), modes, ranks)
        rounded, err = tt_round_with_error(a, tol=tol, max_ranks=caps)
        assert rounded.ranks == tt_round(a, tol=tol, max_ranks=caps).ranks
        da = tt_to_dense(a)
        ref = np.linalg.norm(da - tt_to_dense(rounded)) / np.linalg.norm(da)
        assert abs(err - ref) <= 1e-12 * ref + 1e-15

    @pytest.mark.parametrize("bond", [0, 1, 2])
    @pytest.mark.parametrize("tol, caps", [(0.3, None), (1e-3, [2, 2, 2])],
                             ids=["tol", "tol-and-caps"])
    def test_round_ignores_the_sign_gauge_of_a_bond(self, bond, tol, caps):
        # the same tensor with some of one bond's columns negated on both sides
        a = random_tt(np.random.default_rng(16), (3, 4, 5, 3), (3, 4, 3))
        flip = np.ones(a.ranks[bond + 1])
        flip[::2] = -1.0
        cores = list(a.cores)
        cores[bond] = cores[bond] * flip
        cores[bond + 1] = flip[:, None, None] * cores[bond + 1]
        flipped = TensorTrain(cores)
        r, err = tt_round_with_error(a, tol=tol, max_ranks=caps)
        rf, err_f = tt_round_with_error(flipped, tol=tol, max_ranks=caps)
        assert rf.ranks == r.ranks and r.ranks != a.ranks
        assert err_f == pytest.approx(err, abs=1e-14)
        dense = tt_to_dense(r)
        assert (np.linalg.norm(tt_to_dense(rf) - dense)
                <= 1e-12 * np.linalg.norm(dense))

    def test_reported_error_of_zero_tensor(self):
        rounded, err = tt_round_with_error(tt_zero((3, 3, 3)), max_ranks=[1, 1])
        assert err == 0.0 and rounded.ranks == (1, 1, 1, 1)


def philox_sketch(mode_sizes, caps, key, oversample=6):
    rng = np.random.Generator(np.random.Philox(key=key))
    return tt_random(mode_sizes, [1] + [c + oversample for c in caps] + [1], rng)


class TestRoundSketched:
    def test_matches_exact_round_when_sketch_covers_every_rank(self):
        rng = np.random.default_rng(15)
        a = random_tt(rng, (3, 4, 5, 4, 3), (3, 6, 6, 3))
        caps = [2, 4, 4, 2]  # every rank of a is <= cap + 6
        exact = tt_round(a, max_ranks=caps)
        sketched = tt_round_sketched(a, philox_sketch(a.mode_sizes, caps, 1), caps)
        assert sketched.ranks == exact.ranks
        diff = tt_norm(tt_add_scaled(sketched, exact, -1.0))
        assert diff <= 1e-12 * tt_norm(exact)

    def test_bitwise_repeatable_under_one_key(self):
        rng = np.random.default_rng(16)
        a = random_tt(rng, (3, 3, 3, 3), (3, 9, 3))
        caps = [2, 2, 2]
        outs = [tt_round_sketched(a, philox_sketch(a.mode_sizes, caps, 77, 4), caps)
                for _ in range(2)]
        for c1, c2 in zip(outs[0].cores, outs[1].cores):
            assert np.array_equal(c1, c2)

    def test_error_within_twice_exact_on_decaying_spectrum(self):
        rng = np.random.default_rng(17)
        modes = (6, 6, 6, 6)
        a = tt_zero(modes)
        for k in range(12):  # terms weighted 2^-k: decaying singular values
            term = random_tt(rng, modes, (1, 1, 1))
            a = tt_add_scaled(a, term, 2.0 ** -k / tt_norm(term))
        caps = [3, 3, 3]
        dense = tt_to_dense(a)
        exact = np.linalg.norm(tt_to_dense(tt_round(a, max_ranks=caps)) - dense)
        for key in range(5):
            sketched = tt_round_sketched(a, philox_sketch(modes, caps, key), caps)
            assert sketched.interior_ranks == (3, 3, 3)
            assert np.linalg.norm(tt_to_dense(sketched) - dense) <= 2.0 * exact

    def test_d1_passthrough(self):
        a = TensorTrain([np.arange(5.0).reshape(1, 5, 1)])
        out = tt_round_sketched(a, philox_sketch((5,), [], 0), None)
        np.testing.assert_array_equal(out.cores[0], a.cores[0])


class TestContractions:
    def test_coordinate_selectors_pick_entries(self):
        rng = np.random.default_rng(15)
        a = random_tt(rng, (3, 4, 3), (2, 2))
        da = tt_to_dense(a)
        idx = (2, 1, 0)
        vs = [np.eye(m)[i] for m, i in zip(a.mode_sizes, idx)]
        assert tt_contract_mode_vectors(a, vs) == pytest.approx(da[idx], rel=1e-12)

    def test_zero_vectors(self):
        rng = np.random.default_rng(16)
        a = random_tt(rng, (3, 3), (2,))
        assert tt_contract_mode_vectors(a, [np.zeros(3), np.zeros(3)]) == 0.0

    def test_matches_dense_contraction(self):
        rng = np.random.default_rng(17)
        a = random_tt(rng, (3, 4, 5), (2, 3))
        vs = [rng.standard_normal(m) for m in a.mode_sizes]
        ref = np.einsum("ijk,i,j,k->", tt_to_dense(a), *vs)
        assert tt_contract_mode_vectors(a, vs) == pytest.approx(ref, rel=1e-12)

    def test_length_mismatch(self):
        rng = np.random.default_rng(18)
        a = random_tt(rng, (3, 3), (2,))
        with pytest.raises(ValueError):
            tt_contract_mode_vectors(a, [np.zeros(3), np.zeros(4)])


class TestModeMatrix:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(19)
        a = random_tt(rng, (3, 4, 3), (2, 2))
        out = apply_mode_matrix(a, 1, np.eye(4))
        np.testing.assert_allclose(tt_to_dense(out), tt_to_dense(a), atol=1e-14)

    def test_zero_matrix_kills_tensor(self):
        rng = np.random.default_rng(20)
        a = random_tt(rng, (3, 4), (2,))
        out = apply_mode_matrix(a, 0, np.zeros((3, 3)))
        assert tt_norm(out) == 0.0

    def test_matches_dense_and_may_grow_mode(self):
        rng = np.random.default_rng(21)
        a = random_tt(rng, (3, 4, 3), (2, 2))
        m = rng.standard_normal((6, 4))
        out = apply_mode_matrix(a, 1, m)
        assert out.mode_sizes == (3, 6, 3)
        assert out.ranks == a.ranks
        ref = np.moveaxis(np.tensordot(m, tt_to_dense(a), axes=(1, 1)), 0, 1)
        np.testing.assert_allclose(tt_to_dense(out), ref, atol=1e-12)


class TestLaplaceLike:
    def test_all_zero_matrices(self):
        rng = np.random.default_rng(22)
        a = random_tt(rng, (3, 3, 3), (2, 2))
        out = laplace_like_apply(a, [np.zeros((3, 3))] * 3)
        assert tt_norm(out) == 0.0

    def test_d1_reduces_to_mode_matrix(self):
        rng = np.random.default_rng(23)
        a = TensorTrain([rng.standard_normal((1, 4, 1))])
        m = rng.standard_normal((4, 4))
        got = laplace_like_apply(a, [m])
        ref = apply_mode_matrix(a, 0, m)
        np.testing.assert_allclose(tt_to_dense(got), tt_to_dense(ref), atol=1e-13)

    def test_matches_dense_sum_and_doubles_ranks(self):
        rng = np.random.default_rng(24)
        a = random_tt(rng, (3, 4, 3), (2, 3))
        ms = [rng.standard_normal((m, m)) for m in a.mode_sizes]
        out = laplace_like_apply(a, ms)
        assert out.interior_ranks == (4, 6)
        da = tt_to_dense(a)
        ref = np.zeros_like(da)
        for i, m in enumerate(ms):
            ref += np.moveaxis(np.tensordot(m, da, axes=(1, i)), 0, i)
        np.testing.assert_allclose(tt_to_dense(out), ref,
                                   atol=1e-12 * (1 + np.abs(ref).max()))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(25)
        a = random_tt(rng, (3, 5, 2), (2, 4))
        path = tmp_path / "snap.ttck"
        write_checkpoint(path, a, 0.7071)
        b, t = read_checkpoint(path)
        assert t == 0.7071
        assert b.mode_sizes == a.mode_sizes and b.ranks == a.ranks
        for ca, cb in zip(a.cores, b.cores):
            np.testing.assert_array_equal(ca, cb)

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(26)
        a = random_tt(rng, (3, 3), (2,))
        p1, p2 = tmp_path / "a.ttck", tmp_path / "b.ttck"
        write_checkpoint(p1, a, 1.0)
        write_checkpoint(p2, a, 1.0)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_guard(self, tmp_path):
        path = tmp_path / "bogus.ttck"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_checkpoint(path)

    @pytest.mark.parametrize("cut", [1, 8, 40])
    def test_truncated_file_rejected(self, tmp_path, cut):
        rng = np.random.default_rng(30)
        path = tmp_path / "snap.ttck"
        write_checkpoint(path, random_tt(rng, (3, 4), (2,)), 0.5)
        raw = path.read_bytes()
        path.write_bytes(raw[:-cut])
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        rng = np.random.default_rng(31)
        path = tmp_path / "snap.ttck"
        write_checkpoint(path, random_tt(rng, (3, 4, 2), (2, 2)), 0.5)
        path.write_bytes(path.read_bytes()[:18])
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(32)
        path = tmp_path / "snap.ttck"
        write_checkpoint(path, random_tt(rng, (3, 4), (2,)), 0.5)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            read_checkpoint(path)


def test_scale_folds_into_first_core():
    rng = np.random.default_rng(27)
    a = random_tt(rng, (3, 3), (2,))
    np.testing.assert_allclose(tt_to_dense(tt_scale(a, -2.0)),
                               -2.0 * tt_to_dense(a), atol=1e-14)


class TestOrthogonalityMarker:
    def test_right_orthogonalize_marks_and_satisfies(self):
        from tthjb.tt import right_orthogonalize
        rng = np.random.default_rng(28)
        a = random_tt(rng, (3, 4, 3), (3, 3))
        ortho = right_orthogonalize(a)
        for core in ortho.cores[1:]:
            r0, m, r1 = core.shape
            mat = core.reshape(r0, m * r1)
            np.testing.assert_allclose(mat @ mat.T, np.eye(r0), atol=1e-12)
        np.testing.assert_allclose(tt_to_dense(ortho), tt_to_dense(a), atol=1e-12)

    def test_round_marks_left_orthogonal(self):
        rng = np.random.default_rng(29)
        a = random_tt(rng, (3, 4, 3), (3, 3))
        r = tt_round(a, tol=1e-12)
        assert r.ortho == ("left", a.d - 1)
        for core in r.cores[:-1]:
            r0, m, r1 = core.shape
            mat = core.reshape(r0 * m, r1)
            np.testing.assert_allclose(mat.T @ mat, np.eye(r1), atol=1e-12)

    def test_norm_shortcut_matches_sweep_on_rounded(self):
        rng = np.random.default_rng(33)
        a = random_tt(rng, (3, 4, 5, 3), (3, 4, 3))
        for r in (tt_round(a, tol=1e-12), tt_round(a, max_ranks=[2, 2, 2])):
            unmarked = TensorTrain(r.cores)
            sweep = float(np.linalg.norm(right_orthogonalize(unmarked).cores[0]))
            assert tt_norm(r) == pytest.approx(sweep, rel=1e-14)
            assert tt_norm(r) == pytest.approx(np.linalg.norm(tt_to_dense(r)), rel=1e-13)

    def test_operations_drop_the_marker(self):
        from tthjb.integrate import SolutionSnapshot, degree_truncate
        rng = np.random.default_rng(35)
        r = tt_round(random_tt(rng, (5, 4, 5), (3, 3)), tol=1e-12)
        assert r.ortho is not None
        scaled = tt_scale(r, 3.0)
        assert scaled.ortho is None
        assert tt_norm(scaled) == pytest.approx(3.0 * tt_norm(r), rel=1e-13)
        assert tt_add_scaled(r, r, 1.0).ortho is None
        # a top degree slice far below the threshold is dropped
        cores = list(r.cores)
        cores[0] = cores[0].copy()
        cores[0][:, -1, :] = 1e-14
        small = tt_round(TensorTrain(cores), tol=1e-14)
        assert small.ortho is not None
        cut = degree_truncate(SolutionSnapshot(0.0, small), 1e-8).coeffs
        assert cut.mode_sizes != small.mode_sizes
        assert cut.ortho is None

    def test_copy_keeps_the_marker(self):
        rng = np.random.default_rng(36)
        r = tt_round(random_tt(rng, (3, 4, 3), (3, 3)), tol=1e-12)
        assert r.copy().ortho == r.ortho


# The LAPACK helpers call the gufuncs behind np.linalg.qr/svd directly; they
# must give the public functions' results bit for bit, in the same layout.
def _blocks():
    rng = np.random.default_rng(41)
    deficient = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 5))
    blocks = {"tall": rng.standard_normal((14, 2)), "wide": rng.standard_normal((5, 9)),
              "square": rng.standard_normal((7, 7)), "rank-2": deficient,
              "zero": np.zeros((4, 3)), "gauss10": rng.standard_normal((357, 119))}
    for name in ("tall", "wide", "rank-2", "gauss10"):
        blocks[name + "-T"] = np.ascontiguousarray(blocks[name].T).T  # F order
    return blocks


def _same(got, want):
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(_blocks()))
def test_lapack_helpers_match_numpy_bitwise(name):
    a = _blocks()[name]
    before = a.copy()
    q, r = np.linalg.qr(a)
    got_q, got_r = _qr(a)
    _same(got_q, q)
    _same(got_r, r)
    _same(_qr_q(a), q)
    _same(_qr_r(a), np.linalg.qr(a, mode="r"))
    for got, want in zip(_svd(a), np.linalg.svd(a, full_matrices=False)):
        _same(got, want)
    assert a.tobytes() == before.tobytes()  # the input is left alone


def test_svd_of_nan_block_raises_without_warning():
    block = np.full((6, 3), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            _svd(block)
        a = TensorTrain._trusted([np.full((1, 3, 2), np.nan), np.ones((2, 3, 1))])
        with pytest.raises(ValueError, match="SVD did not converge"):
            tt_round(a, max_ranks=[1])


def test_solve_calls_no_numpy_linalg_wrapper(monkeypatch):
    from tthjb.basis import PolySpace
    from tthjb.integrate import SolverConfig, solve_hjb
    from tthjb.operators import PotentialSpec, build_potential_tt

    def wrapper_called(*args, **kwargs):
        raise AssertionError("np.linalg.qr/svd called on the solve path")

    space = PolySpace([(-3.0, 3.0)] * 3, [4, 4, 2])
    spec = PotentialSpec(builtins=[
        {"name": "doublewell", "coords": (0, 1), "params": {}},
        {"name": "iso_tail", "coords": (2,), "params": {}}])
    phi = build_potential_tt(spec, space)
    monkeypatch.setattr(np.linalg, "qr", wrapper_called)
    monkeypatch.setattr(np.linalg, "svd", wrapper_called)
    traj = solve_hjb(phi, space, SolverConfig(T=0.02, tau_max=0.01, seed=3))
    assert traj.error is None and traj.snapshots[-1].t == 0.02
