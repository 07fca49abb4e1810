"""Timed rounding kernels on the shapes the benchmark solves round, and one
accepted Euler step of the d=6 mixed solve.

Each case times one kernel with pytest-benchmark and checks its result, bit
for bit, against a reference built on ``np.linalg.qr``/``np.linalg.svd``.
Medians of a run::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest tests/test_tt_bench.py \\
        --benchmark-only --benchmark-columns=median,iqr,rounds
"""

import numpy as np
import pytest

from tthjb.basis import PolySpace
from tthjb.integrate import (SolutionSnapshot, SolverConfig, _step_quantities,
                             stepsize_retraction)
from tthjb.tt import (TensorTrain, _truncation_rank, right_orthogonalize, tt_add_scaled,
                      tt_random, tt_round_sketched, tt_round_with_error)

# (modes, input ranks, sketch ranks).  mixed6: the README d=6 mixed config's
# power-iteration inputs; gauss10: d=10 Gaussian, stiffness images of a
# rank-(3..7) state, sketched at those ranks plus 6.
SHAPES = {
    "mixed6": ((5, 3, 5, 5, 7, 7), (24, 12, 12, 12, 24), (9, 8, 8, 8, 9)),
    "gauss10": ((3,) * 10, tuple(16 * r for r in (3, 4, 5, 6, 7, 6, 5, 4, 3)),
                (9, 10, 11, 12, 13, 12, 11, 10, 9)),
}
OVERSAMPLING = 6


def _inputs(name):
    modes, ranks, sketch_ranks = SHAPES[name]
    rng = np.random.default_rng(1300 + len(modes))
    a = tt_random(modes, (1,) + ranks + (1,), rng)
    sketch = tt_random(modes, (1,) + sketch_ranks + (1,), rng)
    caps = [r - OVERSAMPLING for r in sketch_ranks]
    return a, sketch, caps


def _ref_right_orthogonalize(a):
    cores = list(a.cores)
    for i in range(len(cores) - 1, 0, -1):
        r0, m, r1 = cores[i].shape
        q, r = np.linalg.qr(cores[i].reshape(r0, m * r1).T)
        cores[i] = q.T.reshape(q.shape[1], m, r1)
        cores[i - 1] = np.matmul(cores[i - 1], r.T)
    return cores


def _ref_round(cores, tol, caps):
    """Rounding of right-orthogonal cores through ``np.linalg.svd``."""
    cores = [np.ascontiguousarray(c) for c in cores]
    norm = float(np.linalg.norm(cores[0]))
    thresh = tol * norm / np.sqrt(len(cores) - 1)
    discarded_sq = 0.0
    for i in range(len(cores) - 1):
        r0, m, r1 = cores[i].shape
        u, s, vt = np.linalg.svd(cores[i].reshape(r0 * m, r1), full_matrices=False)
        k = _truncation_rank(s, thresh, caps[i])
        discarded_sq += float(np.sum(s[k:] ** 2))
        cores[i] = u[:, :k].reshape(r0, m, k)
        nxt = cores[i + 1]
        cores[i + 1] = ((s[:k, None] * vt[:k]) @ nxt.reshape(nxt.shape[0], -1)).reshape(
            k, nxt.shape[1], nxt.shape[2])
    return cores, float(np.sqrt(discarded_sq)) / norm


def _ref_round_sketched(a, sketch, caps):
    d = a.d
    envs = [np.ones((1, 1))]
    for ca, cs in zip(a.cores[:0:-1], sketch.cores[:0:-1]):
        t = (ca @ envs[-1]).reshape(ca.shape[0], -1)
        envs.append(t @ cs.reshape(cs.shape[0], -1).T)
    cores = list(a.cores)
    for i in range(d - 1):
        r0, m, r1 = cores[i].shape
        mat = cores[i].reshape(r0 * m, r1)
        q, _ = np.linalg.qr(mat @ envs[d - 1 - i])
        cores[i] = q.reshape(r0, m, q.shape[1])
        nxt = cores[i + 1]
        cores[i + 1] = ((q.T @ mat) @ nxt.reshape(r1, -1)).reshape(
            q.shape[1], nxt.shape[1], nxt.shape[2])
    return _ref_round(_ref_right_orthogonalize(TensorTrain._trusted(cores)), 0.0, caps)[0]


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("name", list(SHAPES))
def test_bench_right_orthogonalize(benchmark, name):
    a, _, _ = _inputs(name)
    got = benchmark(right_orthogonalize, a)
    _assert_same(got.cores, _ref_right_orthogonalize(a))


@pytest.mark.parametrize("name", list(SHAPES))
def test_bench_tt_round_with_error(benchmark, name):
    a, _, caps = _inputs(name)
    got, err = benchmark(tt_round_with_error, a, 1e-8, caps)
    want, want_err = _ref_round(_ref_right_orthogonalize(a), 1e-8, caps)
    _assert_same(got.cores, want)
    assert err == want_err


@pytest.mark.parametrize("name", list(SHAPES))
def test_bench_tt_round_sketched(benchmark, name):
    a, sketch, caps = _inputs(name)
    got = benchmark(tt_round_sketched, a, sketch, caps)
    _assert_same(got.cores, _ref_round_sketched(a, sketch, caps))


# The README d=6 mixed config's space and a state of its full-degree shape
MIXED6_SPACE = PolySpace([(-5, 5)] * 2 + [(-2, 2)] * 2 + [(-5, 5)] * 2, [4, 2, 4, 4, 6, 6])
MIXED6_STATE_RANKS = (1, 3, 2, 2, 2, 3, 1)


def test_bench_stepsize_retraction_mixed6(benchmark):
    """One accepted step: a search that, as on every step of the mixed6
    solve, accepts its first step size, and the rounding it keeps."""
    y = tt_random(MIXED6_SPACE.mode_sizes, MIXED6_STATE_RANKS, np.random.default_rng(1900))
    snap = SolutionSnapshot(0.0, y)
    rhs, _ = _step_quantities(snap, MIXED6_SPACE)
    cfg = SolverConfig(T=10.0, tau_max=0.05, delta_rank=0.01, delta_contr=1e-8)
    caps = list(y.interior_ranks)
    tau, _ = stepsize_retraction(snap, rhs, caps, 1.0, cfg)
    got_tau, new = benchmark(stepsize_retraction, snap, rhs, caps, tau, cfg)
    assert got_tau == tau and new.t == tau
    want, _ = _ref_round(_ref_right_orthogonalize(tt_add_scaled(y, rhs, tau)),
                         cfg.delta_contr, caps)
    _assert_same(new.coeffs.cores, want)
