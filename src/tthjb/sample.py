"""Score evaluation from TT snapshots and reverse-time sampling.

The learned coefficient tensors approximate the negative log-density of the
noising process, so the score is the *negative* gradient of the represented
polynomial.  Particles start from a standard normal draw and follow the
discretized reverse-time process

    z <- z + [z - (2 - lambda) grad V(z)] tau + sqrt(2 (1 - lambda) tau) xi,

optionally followed by unadjusted Langevin steps targeting the same
intermediate density.  ``lambda = 1`` is the deterministic flow; its noise
is never drawn, so that path is bit-reproducible.

Randomness comes from counter-based Philox streams keyed by (seed, stream
index): stream 0 draws the initial block and every later draw is one
``(I, d)`` block of ziggurat normals whose rows are the particles, drawn in
chunks of ``NORMAL_CHUNK`` rows at their own counters.  Particles never
interact, so :func:`reverse_sample` splits the rows into contiguous blocks,
one per usable CPU, and runs every block but the first in a forked child
process.  A block draws only the chunks its rows overlap, so the samples do
not depend on the split.  Each block makes one Philox generator, one noise
buffer and one :class:`ScoreWorkspace` after the split and reuses them for
every draw and score call, so its loop allocates no large array; the bytes
are those that new ones would give.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np
# what np.einsum calls when not asked to optimize, without its argument
# handling: about 2 us less per contraction, 16 of them per score call
from numpy._core.multiarray import c_einsum

from .basis import PolySpace, derivative_matrix
from .integrate import SolverConfig, SolutionSnapshot, Trajectory

NORMAL_TRANSFORM = "ziggurat"  # recorded in run metadata
# Rows per normal chunk, each drawn from its own Philox counter.  It fixes
# the output bytes.  Every chunk costs a generator state set-up, and a block
# whose edge cuts a chunk draws that chunk whole: with one generator and
# buffer reused, rows 0-999 of a (2000, 6) block took 100, 95, 89, 84 and
# 197 us with chunks of 125, 250, 500, 1000 and 2000 rows (2 vCPU, median of
# 18), and 1000 rows cut the 667-row blocks of 3 CPUs.
NORMAL_CHUNK = 500


@dataclass
class SamplerConfig:
    """Reverse-process parameters.

    ``lam`` is the interpolation between the reverse SDE (0) and the
    probability-flow ODE (1); ``langevin_steps``/``langevin_tau`` control the
    unadjusted Langevin post-processing after every reverse step.
    """

    lam: float = 0.0
    n_particles: int = 1000
    langevin_steps: int = 0
    langevin_tau: float = 0.005
    seed: int = 0
    clamp_to_domain: bool = False

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if self.n_particles < 0:
            raise ValueError("n_particles must be >= 0")
        if self.langevin_steps < 0:
            raise ValueError("langevin_steps must be >= 0")
        if self.langevin_steps > 0 and self.langevin_tau <= 0:
            raise ValueError("langevin_tau must be positive when steps > 0")


@dataclass
class SampleBatch:
    """Final particle positions, per-particle bookkeeping, the sampling grid
    and one entry per reverse step ``times[n] -> times[n + 1]``, Langevin
    steps included, in each ``*_per_step`` list."""

    samples: np.ndarray            # (I, d)
    oob_counts: np.ndarray         # out-of-domain coordinate evaluations
    aborted: np.ndarray            # particles frozen after non-finite values
    times: list[float]             # increasing, from 0 to the horizon
    frozen_per_step: list[int]     # frozen particles after the step
    max_score_norm_per_step: list[float]  # largest finite score row norm, or 0.0
    out_of_domain_per_step: list[int]     # summed over the step's evaluations


def _chunk_rows(n: int, lo: int, hi: int) -> tuple[int, int]:
    """The first chunk overlapping rows ``[lo, hi)`` of ``n`` and the number
    of rows in the whole chunks that do."""
    first = lo // NORMAL_CHUNK
    return first, min(n, -(-hi // NORMAL_CHUNK) * NORMAL_CHUNK) - first * NORMAL_CHUNK


def _normals(seed: int, stream: int, shape, lo: int = 0, hi: int | None = None,
             rng: np.random.Generator | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``[lo, hi)`` (default all) of an ``(N, d)`` block of standard
    normals, drawn by the ziggurat method from the Philox stream with key
    ``(seed, stream)``.

    The rows come in chunks of ``NORMAL_CHUNK``; chunk ``c`` is drawn from
    counter ``[0, 0, c, 0]``, ``2^128`` steps past chunk ``c - 1``.  Only the
    chunks overlapping ``[lo, hi)`` are drawn, each whole, so the rows equal
    the same rows of the whole block.  ``rng``, a Philox generator, is
    re-keyed and moved to each chunk's counter, and the chunks are drawn
    into ``out``; the two are made afresh unless given, and the result is a
    view of ``out``.
    """
    n, d = shape
    hi = n if hi is None else hi
    first, rows = _chunk_rows(n, lo, hi)
    rng = np.random.Generator(np.random.Philox()) if rng is None else rng
    out = np.empty((rows, d)) if out is None else out
    counter = np.zeros(4, dtype=np.uint64)
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    # an empty word buffer: the first draw makes the words of counter + 1
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for start in range(0, rows, NORMAL_CHUNK):
        counter[2] = first + start // NORMAL_CHUNK
        rng.bit_generator.state = state
        rng.standard_normal(out=out[start:start + NORMAL_CHUNK])
    skip = lo - first * NORMAL_CHUNK
    return out[skip:skip + hi - lo]


# ----------------------------------------------------------------------
# Evaluation of the low-rank model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreKernel:
    """A snapshot's cores laid out for :func:`grad_v_batch`.

    Per mode, ``blocks[i]`` is the ``(2 r0 r1, n + 1)`` matrix of the core's
    ``(r0 r1, n + 1)`` layout stacked over its derivative, taken on the
    coefficients by :func:`derivative_matrix`, with the orthonormal scales
    folded in; ``ranks[i]`` is ``(r0, r1)``.
    """

    ranks: tuple[tuple[int, int], ...]
    blocks: tuple[np.ndarray, ...]


def prepare_score(snap: SolutionSnapshot, space: PolySpace) -> ScoreKernel:
    """Lay out ``snap`` once for every score evaluation on it."""
    ranks, blocks = [], []
    for i, core in enumerate(snap.coeffs.cores):
        r0, size, r1 = core.shape
        basis = space.basis(i, size)
        flat = core.transpose(0, 2, 1).reshape(r0 * r1, size)
        ranks.append((r0, r1))
        blocks.append(np.concatenate([flat, flat @ derivative_matrix(basis).T])
                      * basis._scales)
    return ScoreKernel(ranks=tuple(ranks), blocks=tuple(blocks))


class ScoreWorkspace:
    """Buffers for the score of ``m`` points under any of ``kernels``.

    They hold the mapped coordinates, the Legendre table up to the largest
    mode degree and a term of its recurrence, each mode's contracted cores
    at its largest rank product, the environments of the two sweeps of
    :func:`grad_v_batch` and the gradient.  A call given the workspace
    writes into these and returns a view of them, valid until its next
    call.
    """

    def __init__(self, kernels, space: PolySpace, m: int):
        kernels = list(kernels)
        lo, hi = np.array(space.intervals).T
        self.lo, self.width = lo[:, None], (hi - lo)[:, None]
        d = len(lo)
        self.coords, self.term = np.empty((d, m)), np.empty((d, m))
        top = max(block.shape[1] for kernel in kernels for block in kernel.blocks)
        self.table = np.empty((top, d, m))
        self.cores = [np.empty((max(kernel.blocks[i].shape[0] for kernel in kernels), m))
                      for i in range(d)]
        rank = max(r for kernel in kernels for pair in kernel.ranks for r in pair)
        self.envs = np.empty((d, rank, m))
        self.ones = np.ones((1, m))
        self.grad = np.empty((d, m))


def _contracted_cores(kernel: ScoreKernel, work: ScoreWorkspace, xs: np.ndarray,
                      derivative: bool):
    """Every core contracted with its mode's basis at the points, as
    ``(r0, r1, m)`` views of ``work`` with the particles on the last axis.

    One three-term recurrence runs over the ``(d, m)`` mapped coordinates up
    to the largest mode degree.  Each core is then one product of its
    prepared block (the value rows alone without ``derivative``) with its
    mode's ``(n + 1, m)`` block of that table.  Returns the list of value
    contractions and the list of derivative contractions (empty without
    ``derivative``).
    """
    u = work.coords                 # 2 (x - lo) / (hi - lo) - 1
    np.subtract(xs.T, work.lo, out=u)
    u *= 2.0
    u /= work.width
    u -= 1.0
    top = max(block.shape[1] for block in kernel.blocks)
    p = work.table[:top]
    p[0], p[1:2] = 1.0, u           # p[1:2] is empty when every degree is 0
    for k in range(1, top - 1):     # (k + 1) P_{k+1} = (2k + 1) u P_k - k P_{k-1}
        np.multiply(u, p[k], out=p[k + 1])
        p[k + 1] *= (2 * k + 1) / (k + 1)
        p[k + 1] -= np.multiply(k / (k + 1), p[k - 1], out=work.term)
    vals, dvals = [], []
    for i, ((r0, r1), block) in enumerate(zip(kernel.ranks, kernel.blocks)):
        rows = block if derivative else block[:r0 * r1]
        both = np.matmul(rows, p[:block.shape[1], i], out=work.cores[i][:len(rows)])
        both = both.reshape(1 + derivative, r0, r1, len(xs))
        vals.append(both[0])
        dvals.extend(both[1:])
    return vals, dvals


def eval_v_batch(snap: SolutionSnapshot | ScoreKernel, space: PolySpace,
                 xs: np.ndarray) -> np.ndarray:
    """Values at an ``(m, d)`` batch: the contracted cores chained left to
    right, particles last.  ``snap`` may be prepared by
    :func:`prepare_score` (a snapshot is prepared on the spot)."""
    kernel = snap if isinstance(snap, ScoreKernel) else prepare_score(snap, space)
    work = ScoreWorkspace([kernel], space, xs.shape[0])
    vals, _ = _contracted_cores(kernel, work, xs, derivative=False)
    env = np.ones((1, xs.shape[0]))
    for mat in vals:
        env = np.einsum("am,abm->bm", env, mat)
    return env[0]


def grad_v_batch(snap: SolutionSnapshot | ScoreKernel, space: PolySpace,
                 xs: np.ndarray, work: ScoreWorkspace | None = None) -> np.ndarray:
    """Gradients at an ``(m, d)`` batch.  ``snap`` may be prepared by
    :func:`prepare_score` (a snapshot is prepared on the spot).

    A right-to-left sweep caches the partial contractions right of each
    mode; a left-to-right sweep then contracts the left environment, the
    derivative core and the right environment, so the cost is
    ``O(m d n r^2)`` instead of d independent full contractions.

    The result is a view of ``work`` when one is given (see
    :class:`ScoreWorkspace`) and a new array otherwise.
    """
    kernel = snap if isinstance(snap, ScoreKernel) else prepare_score(snap, space)
    m, d = xs.shape
    work = ScoreWorkspace([kernel], space, m) if work is None else work
    vals, dvals = _contracted_cores(kernel, work, xs, derivative=True)
    # right[i], the contraction of the modes after i, sits in envs[i] until
    # the left sweep replaces it by left[i + 1], of the same shape
    right = [None] * (d - 1) + [work.ones]
    for i in range(d - 1, 0, -1):
        right[i - 1] = c_einsum("abm,bm->am", vals[i], right[i],
                                out=work.envs[i - 1, :len(vals[i])])
    left = work.ones
    for i in range(d):
        c_einsum("am,abm,bm->m", left, dvals[i], right[i], out=work.grad[i])
        if i < d - 1:
            left = c_einsum("am,abm->bm", left, vals[i],
                            out=work.envs[i, :vals[i].shape[1]])
    return work.grad.T


def count_out_of_domain(space: PolySpace, xs: np.ndarray) -> np.ndarray:
    """Number of coordinates of each row lying outside the hypercube."""
    lo, hi = np.array(space.intervals).T
    return np.sum((xs < lo) | (xs > hi), axis=1).astype(np.int64)


# ----------------------------------------------------------------------
# Reverse-time sampling
# ----------------------------------------------------------------------

def _sampling_grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing with >= 2 entries")
    return times


def _largest_norm(g: np.ndarray) -> float:
    sq = c_einsum("ij,ij->i", g, g)
    peak = sq.max(initial=0.0)
    if not np.isfinite(peak):       # ignore the non-finite rows
        peak = sq.max(where=np.isfinite(sq), initial=0.0)
    return float(np.sqrt(peak))


# Fewest particles a forked block gets.  Per-call overhead dominates small
# blocks: `tthjb sample` on the 403-step mixed6 trajectory (3 Langevin
# steps, 2 vCPU, one BLAS thread, median of 5 runs) took 1.05 s for 1000
# particles in one block and 0.77 s in two, 0.60 s and 0.51 s for 500, and
# 0.51 s and 0.47 s for 250, while a second block doubles the CPU used.
MIN_BLOCK = 500


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where ``fork`` is missing, and while
    other threads run, since a forked child could inherit a lock one holds."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def _blocks(n: int) -> list[tuple[int, int]]:
    """Contiguous ranges of the ``n`` particle rows, one per usable CPU and
    each of at least ``MIN_BLOCK`` rows; one range when ``n`` is smaller."""
    k = max(1, min(_usable_cpus(), n // MIN_BLOCK))
    edges = [n * j // k for j in range(k + 1)]
    return list(zip(edges, edges[1:]))


def _child(run, start: int, stop: int, send):
    try:
        message = (True, run(start, stop))
    except Exception as exc:        # raised again by the parent
        message = (False, f"{type(exc).__name__}: {exc}")
    send.send(message)
    send.close()


def _in_workers(run, blocks: list[tuple[int, int]]) -> list:
    """``run(start, stop)`` of every block, in order.  The first block runs
    in this process and each other one in a forked child, which sends its
    result back on a pipe.  A child's exception or death is raised here as
    a ``RuntimeError``; every child is joined on every path."""
    if len(blocks) == 1:
        return [run(*blocks[0])]
    import multiprocessing          # here, so that a solve does not load it
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for start, stop in blocks[1:]:
            receive, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(run, start, stop, send))
            child.start()
            send.close()
            children.append((child, receive))
        results = [run(*blocks[0])]
        for (child, receive), (start, stop) in zip(children, blocks[1:]):
            where = f"sampling worker for particles {start}-{stop - 1}"
            try:
                ok, value = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"{where} exited with code {child.exitcode}") from None
            if not ok:
                raise RuntimeError(f"{where} failed: {value}")
            results.append(value)
        return results
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()


def _reverse_rows(grad_fn, times: np.ndarray, d: int, scfg: SamplerConfig,
                  start: int, stop: int):
    """Particles ``[start, stop)`` of the reverse process on ``times``;
    ``grad_fn(n, z)`` is the score of reverse step ``n`` at the states ``z``.

    Every draw is the matching rows of the whole ``(I, d)`` normal block, so
    the rows do not depend on how the particles are split.  One Philox
    generator and one noise buffer serve every draw, and the states and
    updates live in three buffers made here.  Returns the final states, the
    frozen flags and, per reverse step, the number of frozen particles and
    the largest finite norm of a score row.
    """
    lam = scfg.lam
    L = scfg.langevin_steps
    shape = (scfg.n_particles, d)
    rng = np.random.Generator(np.random.Philox())
    noise = np.empty((_chunk_rows(scfg.n_particles, start, stop)[1], d))

    def normals(stream):
        return _normals(scfg.seed, stream, shape, start, stop, rng, noise)

    z = normals(0).copy()
    nxt, tmp = np.empty_like(z), np.empty_like(z)
    aborted = np.zeros(stop - start, dtype=bool)

    def apply():
        """Make the update in ``nxt`` the state.  A frozen particle keeps
        its state, and so does one whose update has a non-finite entry,
        which freezes."""
        nonlocal z, nxt
        if aborted.any() or not np.isfinite(nxt).all():
            np.copyto(nxt, z, where=aborted[:, None])
            bad = ~np.all(np.isfinite(nxt), axis=1) & ~aborted
            nxt[bad] = z[bad]
            aborted[bad] = True
        z, nxt = nxt, z

    stream = 1
    frozen, peaks = [], []
    # a particle whose update overflows is frozen by `apply`: the overflow
    # and the nan values it leads to are expected, so numpy does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(times.size - 1):
            tau = times[n + 1] - times[n]
            g = grad_fn(n, z)
            peak = _largest_norm(g)
            # nxt = z + (z - (2 - lam) g) tau [+ sqrt(2 (1 - lam) tau) xi], one
            # operation at a time in the formula's order, so the bits are its own
            np.multiply(2.0 - lam, g, out=tmp)
            np.subtract(z, tmp, out=tmp)
            tmp *= tau
            np.add(z, tmp, out=nxt)
            if lam != 1.0:
                np.multiply(np.sqrt(2.0 * (1.0 - lam) * tau), normals(stream), out=tmp)
                stream += 1
                nxt += tmp
            apply()
            for _ in range(L):
                g = grad_fn(n, z)
                peak = max(peak, _largest_norm(g))
                # nxt = z - tau_L g + sqrt(2 tau_L) xi
                np.multiply(scfg.langevin_tau, g, out=tmp)
                np.subtract(z, tmp, out=nxt)
                np.multiply(np.sqrt(2.0 * scfg.langevin_tau), normals(stream), out=tmp)
                stream += 1
                nxt += tmp
                apply()
            frozen.append(int(aborted.sum()))
            peaks.append(peak)
    return z, aborted, frozen, peaks


def _batch(times: np.ndarray, z, aborted, oob_counts, frozen, peaks,
           oob_per_step) -> SampleBatch:
    """The finished batch of the final states and their records; raises
    when more than 10% of all particles froze."""
    if aborted.size and np.mean(aborted) > 0.10:
        raise RuntimeError(
            f"{int(aborted.sum())} of {aborted.size} particles diverged (> 10%)")
    return SampleBatch(samples=z, oob_counts=oob_counts, aborted=aborted,
                       times=times.tolist(), frozen_per_step=frozen,
                       max_score_norm_per_step=peaks, out_of_domain_per_step=oob_per_step)


def reverse_sample_scored(grad_fn, times, d: int, scfg: SamplerConfig) -> SampleBatch:
    """Run the reverse process against an arbitrary score surrogate, in
    this process.

    ``grad_fn(s, z)`` must return the gradient of the surrogate negative
    log-density at the diffusion time ``s = times[-1] - times[n]`` of
    reverse step ``n`` for the ``(I, d)`` batch ``z`` of all particles, rows
    in particle order; ``times`` is the increasing sampling grid from 0 to
    the horizon.  ``z`` is always finite: a particle whose update has a
    non-finite entry keeps its last state and is flagged in ``aborted``.
    The sampler writes later states into the memory of ``z``, so
    ``grad_fn`` copies it to keep it.

    Nothing counts out-of-domain evaluations here: ``oob_counts`` and
    ``out_of_domain_per_step`` are zeros.
    """
    times = _sampling_grid(times)
    z, aborted, frozen, peaks = _reverse_rows(
        lambda n, z: grad_fn(times[-1] - times[n], z), times, d, scfg, 0, scfg.n_particles)
    return _batch(times, z, aborted, np.zeros(len(z), dtype=np.int64), frozen, peaks,
                  [0] * len(frozen))


def reverse_sample(traj: Trajectory, space: PolySpace, scfg: SamplerConfig,
                   cfg: SolverConfig) -> SampleBatch:
    """Sample the target density from a completed solve.

    The sampling grid is the solver grid reversed (``t_n = T - t_{N-n}``,
    shared by all particles), and reverse step ``n`` scores with snapshot
    ``N - n``.  Out-of-domain basis evaluations are counted per particle
    and, in ``out_of_domain_per_step``, per reverse step; when
    ``clamp_to_domain`` is set, score evaluations use the coordinates
    projected onto the hypercube instead (the particle state is untouched)
    and the counts stay 0.

    The particles run in contiguous blocks, one per usable CPU (see
    :data:`MIN_BLOCK`), each in a forked child but the first; the result
    is the same for any split.  A failed child raises ``RuntimeError``.
    """
    if not traj.is_complete(cfg.T):
        raise ValueError(f"trajectory did not reach the horizon T={cfg.T}")
    horizon = traj.snapshots[-1].t
    times = _sampling_grid([horizon - s.t for s in reversed(traj.snapshots)])
    kernels = [prepare_score(snap, space) for snap in reversed(traj.snapshots[1:])]
    d = traj.snapshots[0].coeffs.d
    lo, hi = np.array(space.intervals).T

    def rows(start, stop):
        oob_counts = np.zeros(stop - start, dtype=np.int64)
        oob_per_step = np.zeros(len(kernels), dtype=np.int64)
        work = ScoreWorkspace(kernels, space, stop - start)
        clipped = np.empty((stop - start, d))
        # the bounds once per row, so the states are checked as flat arrays:
        # a length-d inner loop per row takes three times as long
        flat_lo, flat_hi = np.tile(lo, stop - start), np.tile(hi, stop - start)

        def grad_fn(n, z):
            if scfg.clamp_to_domain:
                z = np.clip(z, lo, hi, out=clipped)
            else:
                flat = z.reshape(-1)
                outside = (flat < flat_lo) | (flat > flat_hi)
                if outside.any():
                    counts = outside.reshape(z.shape).sum(axis=1)
                    oob_counts[:] += counts
                    oob_per_step[n] += counts.sum()
            return grad_v_batch(kernels[n], space, z, work=work)

        z, aborted, frozen, peaks = _reverse_rows(grad_fn, times, d, scfg, start, stop)
        return z, aborted, oob_counts, frozen, peaks, oob_per_step

    z, aborted, oob_counts, frozen, peaks, oob_per_step = zip(
        *_in_workers(rows, _blocks(scfg.n_particles)))
    return _batch(times, np.concatenate(z), np.concatenate(aborted),
                  np.concatenate(oob_counts), np.sum(frozen, axis=0).tolist(),
                  np.max(peaks, axis=0).tolist(), np.sum(oob_per_step, axis=0).tolist())
