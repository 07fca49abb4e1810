"""Timed score and noise kernels of the sampler on mixed6-sample shapes.

Each case times one kernel with pytest-benchmark and checks its result, bit
for bit, against a reference: the score as computed with new arrays and
``np.einsum`` throughout, and the normals as drawn from a new Philox
generator per chunk.  Medians of a run::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest tests/test_sample_bench.py \\
        --benchmark-only --benchmark-columns=median,iqr,rounds
"""

import numpy as np
import pytest

from tthjb.basis import PolySpace
from tthjb.integrate import SolutionSnapshot
from tthjb.sample import (NORMAL_CHUNK, ScoreWorkspace, _chunk_rows, _normals,
                          grad_v_batch, prepare_score)
from tthjb.tt import tt_random

# The README d=6 mixed config's space, and the (mode sizes, TT ranks) of its
# stored trajectory's snapshots: at full degree (231 of 404 snapshots), and
# after degree and rank truncation (52)
SPACE = PolySpace([(-5, 5)] * 2 + [(-2, 2)] * 2 + [(-5, 5)] * 2, [4, 2, 4, 4, 6, 6])
SHAPES = {"full": ((5, 3, 5, 5, 7, 7), (1, 3, 2, 2, 2, 3, 1)),
          "truncated": ((3,) * 6, (1, 2, 2, 2, 2, 2, 1))}
PARTICLES = 1000                # one of the two blocks of mixed6-sample
NOISE_SHAPE = (2000, 6)


def _inputs(name):
    sizes, ranks = SHAPES[name]
    rng = np.random.default_rng(1800 + sum(sizes))
    kernel = prepare_score(SolutionSnapshot(0.0, tt_random(sizes, ranks, rng)), SPACE)
    lo, hi = np.array(SPACE.intervals).T
    xs = lo + (hi - lo) * rng.uniform(-0.05, 1.05, (PARTICLES, len(sizes)))
    return kernel, xs


def _ref_grad(kernel, xs):
    """The score of ``kernel`` at ``xs`` with new arrays and ``np.einsum``."""
    lo, hi = np.array(SPACE.intervals).T
    u = 2.0 * (np.ascontiguousarray(xs.T) - lo[:, None]) / (hi - lo)[:, None] - 1.0
    top = max(block.shape[1] for block in kernel.blocks)
    p = np.empty((top,) + u.shape)
    p[0], p[1:2] = 1.0, u
    for k in range(1, top - 1):
        np.multiply(u, p[k], out=p[k + 1])
        p[k + 1] *= (2 * k + 1) / (k + 1)
        p[k + 1] -= k / (k + 1) * p[k - 1]
    vals, dvals = [], []
    for i, ((r0, r1), block) in enumerate(zip(kernel.ranks, kernel.blocks)):
        both = (block @ p[:block.shape[1], i]).reshape(2, r0, r1, len(xs))
        vals.append(both[0])
        dvals.append(both[1])
    m, d = xs.shape
    right = [np.ones((1, m))]
    for mat in vals[:0:-1]:
        right.append(np.einsum("abm,bm->am", mat, right[-1]))
    right.reverse()
    out = np.empty((d, m))
    left = np.ones((1, m))
    for i in range(d):
        out[i] = np.einsum("am,abm,bm->m", left, dvals[i], right[i])
        left = np.einsum("am,abm->bm", left, vals[i])
    return out.T


def _ref_normals(seed, stream, lo, hi):
    """Rows ``[lo, hi)`` of the normal block, one new generator per chunk."""
    key = np.array([seed, stream], dtype=np.uint64)
    chunks = []
    for c in range(lo // NORMAL_CHUNK, -(-hi // NORMAL_CHUNK)):
        bits = np.random.Philox(key=key, counter=np.array([0, 0, c, 0], dtype=np.uint64))
        rows = min(NORMAL_CHUNK, NOISE_SHAPE[0] - c * NORMAL_CHUNK)
        chunks.append(np.random.Generator(bits).standard_normal((rows, NOISE_SHAPE[1])))
    skip = lo - lo // NORMAL_CHUNK * NORMAL_CHUNK
    return np.concatenate(chunks)[skip:skip + hi - lo]


@pytest.mark.parametrize("reused", [False, True], ids=["fresh", "reused"])
@pytest.mark.parametrize("name", list(SHAPES))
def test_bench_grad_v_batch(benchmark, name, reused):
    kernel, xs = _inputs(name)
    work = ScoreWorkspace([kernel], SPACE, PARTICLES) if reused else None
    got = benchmark(grad_v_batch, kernel, SPACE, xs, work=work)
    want = _ref_grad(kernel, xs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("reused", [False, True], ids=["fresh", "reused"])
def test_bench_normals(benchmark, reused):
    lo, hi = 0, 1000
    rng = np.random.Generator(np.random.Philox()) if reused else None
    out = np.empty((_chunk_rows(NOISE_SHAPE[0], lo, hi)[1], NOISE_SHAPE[1])) if reused else None
    got = benchmark(_normals, 1601, 7, NOISE_SHAPE, lo, hi, rng, out)
    want = _ref_normals(1601, 7, lo, hi)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
