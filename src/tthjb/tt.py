"""Tensor Train container and rank-aware algebra.

A tensor ``A`` with mode sizes ``(m_1, ..., m_d)`` is stored as a chain of
order-3 cores ``G_i`` of shape ``(r_{i-1}, m_i, r_i)`` with ``r_0 = r_d = 1``,
so that ``A[a_1, ..., a_d] = G_1[:, a_1, :] @ ... @ G_d[:, a_d, :]``.

All operations are pure: they never mutate their inputs or any core, so
results may share cores with their inputs (``tt_scale`` reuses every core but
the first) and values are safe to share read-only across threads.  Stored
cores are C-contiguous float64.  The public constructor, :func:`tt_from_dense`
and :func:`read_checkpoint` validate shapes and finiteness; results of the
operations here are trusted and skip both checks and copies, so long-running
callers check finiteness once per step with :func:`check_finite`.  Dense
tensors are plain float64 ndarrays (row-major) and are only meant for small
cross-checking work (d <= 5).

Every QR and SVD here goes through :func:`_qr`, :func:`_qr_q`, :func:`_qr_r`
and :func:`_svd`.  They call the LAPACK gufuncs of
``numpy.linalg._umath_linalg`` that ``np.linalg.qr`` and ``np.linalg.svd``
call themselves (``qr_r_raw``/``qr_reduced``, ``svd_s``), so results are
bit for bit those of the public functions.  The cores of a rounding are
blocks of a few dozen entries, on which the public functions' per-call
dispatch, error-state contexts and ``np.triu`` cost several times the
factorization itself.  The gufunc names are private to numpy; the helpers
are tested against numpy 2.4, the floor in ``pyproject.toml``.
"""

from __future__ import annotations

import struct

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

# Refuse dense materialisation beyond this many entries.
DENSE_GUARD = 10**7

_TTCK_MAGIC = b"TTCK"
_TTCK_VERSION = 1


def _householder(a: np.ndarray):
    """Householder QR of a float64 matrix in LAPACK's compact form: a copy
    of ``a`` with R on and above its diagonal, and the reflector scales."""
    # qr_r_raw overwrites its operand; C order makes R's rows contiguous,
    # laid out as np.triu lays them out
    work = a.astype(np.float64, order="C")
    return work, _umath_linalg.qr_r_raw(work, signature="d->d")


def _upper(work: np.ndarray) -> np.ndarray:
    """R of a compact QR: its first ``min(m, n)`` rows, zeroed below the
    diagonal in place."""
    r = work[:min(work.shape)]
    for j in range(1, r.shape[0]):
        r[j, :j] = 0.0
    return r


def _qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR ``(q, r)``: bit for bit ``np.linalg.qr(a)``."""
    work, tau = _householder(a)
    return _umath_linalg.qr_reduced(work, tau, signature="dd->d"), _upper(work)


def _qr_q(a: np.ndarray) -> np.ndarray:
    """Q alone: bit for bit ``np.linalg.qr(a)[0]``."""
    work, tau = _householder(a)
    return _umath_linalg.qr_reduced(work, tau, signature="dd->d")


def _qr_r(a: np.ndarray) -> np.ndarray:
    """R alone: bit for bit ``np.linalg.qr(a, mode="r")``."""
    return _upper(_householder(a)[0])


def _svd_failed(err, flag):
    raise LinAlgError("SVD did not converge")


@np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _svd(a: np.ndarray):
    """Thin SVD ``(u, s, vt)``: bit for bit ``np.linalg.svd(a,
    full_matrices=False)``.  Non-convergence (a NaN input, say) raises
    ``LinAlgError`` and warns nothing, as there."""
    return _umath_linalg.svd_s(a, signature="d->ddd")


def mode_apply(mat: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Contract a matrix with the mode index of an order-3 core:
    ``out[a, n, b] = sum_m mat[n, m] core[a, m, b]``."""
    return np.matmul(mat[None, :, :], core)


class TensorTrain:
    """Immutable-by-convention TT container.

    Parameters
    ----------
    cores : sequence of ndarray
        Order-3 cores, core ``i`` shaped ``(ranks[i], mode_sizes[i],
        ranks[i+1])`` with boundary ranks 1.  Cores are converted to
        float64 and validated on construction.
    ortho : tuple or None
        Optional orthogonality marker.  Its one value, ``("left", d-1)``,
        marks cores ``0..d-2`` as having orthonormal column unfoldings; the
        rounding sets it, and :func:`tt_norm` reads it to take the norm of
        the last core alone.  It is trusted, not checked; every other
        operation returns an unmarked result.
    """

    __slots__ = ("cores", "ortho")

    def __init__(self, cores, ortho=None):
        cores = [np.ascontiguousarray(c, dtype=np.float64) for c in cores]
        if not cores:
            raise ValueError("a TensorTrain needs at least one core")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise ValueError("boundary ranks must be 1")
        for i, c in enumerate(cores):
            if c.ndim != 3:
                raise ValueError(f"core {i} is not order 3")
            if i > 0 and cores[i - 1].shape[2] != c.shape[0]:
                raise ValueError(f"rank mismatch between cores {i - 1} and {i}")
        self.cores = cores
        self.ortho = ortho
        check_finite(self)

    @classmethod
    def _trusted(cls, cores, ortho=None) -> "TensorTrain":
        """Wrap float64 cores built by this package's operations: no shape
        or finiteness checks, and no copy of cores that are contiguous."""
        obj = cls.__new__(cls)
        obj.cores = [np.ascontiguousarray(c) for c in cores]
        obj.ortho = ortho
        return obj

    @property
    def d(self) -> int:
        return len(self.cores)

    @property
    def mode_sizes(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[2] for c in self.cores)

    @property
    def interior_ranks(self) -> tuple[int, ...]:
        return self.ranks[1:-1]

    def copy(self) -> "TensorTrain":
        return TensorTrain._trusted([c.copy() for c in self.cores], self.ortho)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"TensorTrain(modes={self.mode_sizes}, ranks={self.ranks})"


def check_finite(a: TensorTrain) -> None:
    """Raise ``ValueError`` if a core holds a NaN or an infinity (the check
    the public constructor makes and trusted results skip)."""
    for i, c in enumerate(a.cores):
        if not np.all(np.isfinite(c)):
            raise ValueError(f"core {i} contains non-finite entries")


def tt_zero(mode_sizes) -> TensorTrain:
    """Canonical zero tensor: all ranks 1, zero cores."""
    return TensorTrain._trusted([np.zeros((1, m, 1)) for m in mode_sizes])


def tt_random(mode_sizes, ranks, rng) -> TensorTrain:
    """Random TT with standard-normal core entries and the given ranks."""
    mode_sizes = tuple(int(m) for m in mode_sizes)
    ranks = tuple(int(r) for r in ranks)
    d = len(mode_sizes)
    if len(ranks) != d + 1 or ranks[0] != 1 or ranks[-1] != 1:
        raise ValueError("ranks must have length d+1 with boundary ranks 1")
    return TensorTrain._trusted([
        rng.standard_normal((ranks[i], mode_sizes[i], ranks[i + 1])) for i in range(d)])


def _check_same_shape(a: TensorTrain, b: TensorTrain):
    if a.mode_sizes != b.mode_sizes:
        raise ValueError(f"mode-size mismatch: {a.mode_sizes} vs {b.mode_sizes}")


def _guard_dense(mode_sizes):
    total = 1
    for m in mode_sizes:
        total *= int(m)
        if total > DENSE_GUARD:
            raise ValueError(
                f"dense tensor with {tuple(mode_sizes)} modes exceeds the "
                f"{DENSE_GUARD} entry guard")
    return total


def tt_to_dense(a: TensorTrain) -> np.ndarray:
    """Materialise the represented tensor (guarded to <= 1e7 entries)."""
    _guard_dense(a.mode_sizes)
    out = a.cores[0]  # (1, m_1, r_1)
    for core in a.cores[1:]:
        out = np.tensordot(out, core, axes=([out.ndim - 1], [0]))
    return np.ascontiguousarray(out.reshape(a.mode_sizes))


def tt_from_dense(t: np.ndarray, tol: float = 0.0) -> TensorTrain:
    """Sequential-SVD construction of a TT from a dense tensor.

    The result reconstructs ``t`` within relative Frobenius error ``tol``;
    the per-bond truncation budget is ``tol * ||t||_F / sqrt(d - 1)``.
    """
    t = np.asarray(t, dtype=np.float64)
    if tol < 0:
        raise ValueError("tol must be non-negative")
    _guard_dense(t.shape)
    d = t.ndim
    norm = np.linalg.norm(t)
    if norm == 0.0:
        return tt_zero(t.shape)
    if d == 1:
        return TensorTrain([t.reshape(1, -1, 1)])
    thresh = tol * norm / np.sqrt(d - 1)
    cores = []
    r_left = 1
    rest = t.reshape(r_left * t.shape[0], -1)
    for i in range(d - 1):
        u, s, vt = _svd(rest)
        k = _truncation_rank(s, thresh, s.size)
        cores.append(u[:, :k].reshape(r_left, t.shape[i], k))
        rest = (s[:k, None] * vt[:k])
        r_left = k
        if i < d - 2:
            rest = rest.reshape(r_left * t.shape[i + 1], -1)
    cores.append(rest.reshape(r_left, t.shape[-1], 1))
    return TensorTrain(cores)


def tt_add_scaled(a: TensorTrain, b: TensorTrain, c: float = 1.0) -> TensorTrain:
    """Exact representation of ``a + c * b`` by block-core concatenation.

    Interior ranks are the sums of the input interior ranks; no rounding
    is performed.
    """
    _check_same_shape(a, b)
    d = a.d
    if d == 1:
        return TensorTrain._trusted([a.cores[0] + c * b.cores[0]])
    cores = []
    for i in range(d):
        ca, cb = a.cores[i], b.cores[i]
        if i == 0:
            cores.append(np.concatenate([ca, c * cb], axis=2))
        elif i == d - 1:
            cores.append(np.concatenate([ca, cb], axis=0))
        else:
            ra0, m, ra1 = ca.shape
            rb0, _, rb1 = cb.shape
            blk = np.zeros((ra0 + rb0, m, ra1 + rb1))
            blk[:ra0, :, :ra1] = ca
            blk[ra0:, :, ra1:] = cb
            cores.append(blk)
    return TensorTrain._trusted(cores)


def tt_scale(a: TensorTrain, c: float) -> TensorTrain:
    """Scalar multiple ``c * a`` (folded into the first core; the other
    cores are shared with ``a``).  The result carries no orthogonality
    marker."""
    return TensorTrain._trusted([a.cores[0] * c] + a.cores[1:])


def tt_inner(a: TensorTrain, b: TensorTrain) -> float:
    """Frobenius inner product of the represented tensors."""
    _check_same_shape(a, b)
    env = np.ones((1, 1))
    for ca, cb in zip(a.cores, b.cores):
        # env[p, q] carries the contraction of all previous modes.
        p, m, r = ca.shape
        q, _, s = cb.shape
        t = (env.T @ ca.reshape(p, m * r)).reshape(q * m, r)
        env = t.T @ cb.reshape(q * m, s)
    return float(env[0, 0])


def right_orthogonalize(a: TensorTrain) -> TensorTrain:
    """Sweep right-to-left so cores 2..d have orthonormal rows.

    Afterwards the Frobenius norm of the tensor equals the Frobenius norm
    of the first core.
    """
    cores = list(a.cores)
    for i in range(len(cores) - 1, 0, -1):
        r0, m, r1 = cores[i].shape
        mat = cores[i].reshape(r0, m * r1)
        q, r = _qr(mat.T)  # mat = r.T @ q.T with q.T row-orthonormal
        k = q.shape[1]
        cores[i] = q.T.reshape(k, m, r1)
        cores[i - 1] = np.matmul(cores[i - 1], r.T)
    return TensorTrain._trusted(cores)


def tt_norm(a: TensorTrain) -> float:
    """Frobenius norm.

    With all cores but one orthonormal it is the norm of that core
    (Oseledets, SIAM J. Sci. Comput. 33(5), 2011): the last core of a rounded
    TT (its ``ortho`` marker), else the first core after a
    right-orthogonalization sweep.
    """
    if a.ortho == ("left", a.d - 1):
        return float(np.linalg.norm(a.cores[-1]))
    return float(np.linalg.norm(right_orthogonalize(a).cores[0]))


def tt_centres(a: TensorTrain, kept=None):
    """Yield, mode by mode, core ``k`` of ``a`` with every other core
    orthonormal: the norm of a row block of it is the norm of ``a`` with mode
    ``k`` restricted to those rows.  With ``kept``, modes ``j < k`` keep only
    their first ``kept[j]`` rows.  One right-orthogonalization, then a QR
    sweep that goes only as far as the consumer reads."""
    left = np.ones((1, 1))
    for k, core in enumerate(right_orthogonalize(a).cores):
        centre = np.tensordot(left, core, axes=(1, 0))
        yield centre
        rows = centre if kept is None else centre[:, :kept[k]]
        left = _qr_r(rows.reshape(-1, rows.shape[2]))


def _truncation_rank(s, thresh, cap):
    """Smallest rank whose discarded singular-value tail is <= thresh."""
    cap = max(1, min(int(min(cap, s.size)), s.size))
    if thresh <= 0.0:
        k = int(np.count_nonzero(s))
        return max(1, min(k, cap))
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[k] = ||s[k:]||
    k = s.size
    while k > 1 and tail[k - 1] <= thresh:
        k -= 1
    return min(k, cap)


def tt_round(a: TensorTrain, tol: float = 0.0, max_ranks=None) -> TensorTrain:
    """SVD-based recompression: the TT of :func:`tt_round_with_error`."""
    return tt_round_with_error(a, tol, max_ranks)[0]


def tt_round_with_error(a: TensorTrain, tol: float = 0.0,
                        max_ranks=None) -> tuple[TensorTrain, float]:
    """SVD-based recompression (retraction onto lower-rank manifolds) and
    its relative Frobenius error ``|a - rounded| / |a|``.

    Right-to-left orthogonalization followed by a left-to-right SVD
    truncation sweep.  In ``tol`` mode each bond discards a singular-value
    tail of at most ``tol * ||a||_F / sqrt(d - 1)``, which bounds the total
    relative error by ``tol``.  ``max_ranks`` caps the d-1 interior ranks
    componentwise.  Ranks never increase; a zero tensor is returned in the
    canonical all-rank-1 form, with error 0.  The discarded parts are
    mutually orthogonal: the error is the root of their summed squares.
    The cores keep the signs LAPACK gives the singular vectors, so each bond
    is fixed only up to sign, which the represented tensor does not see.
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    d = a.d
    if d == 1:
        return a.copy(), 0.0
    if max_ranks is None:
        caps = [np.inf] * (d - 1)
    else:
        caps = [int(r) for r in max_ranks]
        if len(caps) != d - 1:
            raise ValueError("max_ranks must list the d-1 interior ranks")
        if any(r < 1 for r in caps):
            raise ValueError("max_ranks must be >= 1")
    cores = list(right_orthogonalize(a).cores)
    norm = float(np.linalg.norm(cores[0]))
    if norm == 0.0:
        return tt_zero(a.mode_sizes), 0.0
    thresh = tol * norm / np.sqrt(d - 1)
    discarded_sq = 0.0
    for i in range(d - 1):
        r0, m, r1 = cores[i].shape
        u, s, vt = _svd(cores[i].reshape(r0 * m, r1))
        k = _truncation_rank(s, thresh, caps[i])
        discarded_sq += float(np.sum(s[k:] ** 2))
        cores[i] = u[:, :k].reshape(r0, m, k)
        carry = s[:k, None] * vt[:k]
        nxt = cores[i + 1]
        cores[i + 1] = (carry @ nxt.reshape(nxt.shape[0], -1)).reshape(
            k, nxt.shape[1], nxt.shape[2])
    return (TensorTrain._trusted(cores, ortho=("left", d - 1)),
            float(np.sqrt(discarded_sq)) / norm)


def tt_round_sketched(a: TensorTrain, sketch: TensorTrain, max_ranks=None) -> TensorTrain:
    """Randomize-then-orthogonalize rounding (Al Daas, Ballard, Cazeaux et
    al., SIAM J. Sci. Comput. 45(1), 2023).

    ``sketch`` is a random (Gaussian) TT with ``a``'s mode sizes whose
    interior ranks ``l_k`` exceed the target ranks by a small oversampling.
    Right-to-left contractions with ``sketch`` compress each bond of ``a`` to
    ``l_k`` columns; one left-to-right QR sweep over these sketched unfoldings
    projects ``a`` onto a TT of ranks at most ``l_k``, which an exact
    :func:`tt_round` then truncates to ``max_ranks``.  No QR or SVD ever
    sees ``a``'s own ranks.  Where every rank of ``a`` is at most ``l_k`` the
    projection is exact and the result is ``tt_round(a, max_ranks=...)`` up
    to round-off.  Deterministic for a given ``sketch``.
    """
    _check_same_shape(a, sketch)
    d = a.d
    if d == 1:
        return a.copy()
    envs = [np.ones((1, 1))]  # envs[j]: a's cores d-j.. against sketch's
    for ca, cs in zip(a.cores[:0:-1], sketch.cores[:0:-1]):
        t = (ca @ envs[-1]).reshape(ca.shape[0], -1)
        envs.append(t @ cs.reshape(cs.shape[0], -1).T)
    cores = list(a.cores)
    for i in range(d - 1):
        r0, m, r1 = cores[i].shape
        mat = cores[i].reshape(r0 * m, r1)
        q = _qr_q(mat @ envs[d - 1 - i])
        cores[i] = q.reshape(r0, m, q.shape[1])
        nxt = cores[i + 1]
        cores[i + 1] = ((q.T @ mat) @ nxt.reshape(r1, -1)).reshape(
            q.shape[1], nxt.shape[1], nxt.shape[2])
    return tt_round(TensorTrain._trusted(cores), max_ranks=max_ranks)


def tt_contract_mode_vectors(a: TensorTrain, vs) -> float:
    """Full contraction ``sum_alpha A[alpha] * prod_i vs[i][alpha_i]``.

    Left-to-right chain of matrix-vector products; cost
    ``O(sum_i r_{i-1} m_i r_i)``.
    """
    if len(vs) != a.d:
        raise ValueError("need one vector per mode")
    env = np.ones(1)
    for core, v in zip(a.cores, vs):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (core.shape[1],):
            raise ValueError("vector length does not match mode size")
        env = env @ np.tensordot(v, core, axes=(0, 1))
    return float(env[0])


def laplace_like_sum(base_cores, replaced_cores) -> TensorTrain:
    """TT of ``sum_i (base_1, ..., replaced_i, ..., base_d)``.

    Block construction: first core ``[R_1 | B_1]``, middle cores
    ``[[B_i, 0], [R_i, B_i]]``, last core ``[B_d ; R_d]``.  Interior ranks
    are exactly doubled relative to the inputs (which must share shapes
    bond by bond).
    """
    d = len(base_cores)
    if d == 1:
        return TensorTrain._trusted([replaced_cores[0]])
    cores = []
    for i in range(d):
        b, r = base_cores[i], replaced_cores[i]
        if b.shape != r.shape:
            raise ValueError("base and replacement cores must share shapes")
        r0, m, r1 = b.shape
        if i == 0:
            cores.append(np.concatenate([r, b], axis=2))
        elif i == d - 1:
            cores.append(np.concatenate([b, r], axis=0))
        else:
            blk = np.zeros((2 * r0, m, 2 * r1))
            blk[:r0, :, :r1] = b
            blk[r0:, :, :r1] = r
            blk[r0:, :, r1:] = b
            cores.append(blk)
    return TensorTrain._trusted(cores)


# ----------------------------------------------------------------------
# Binary checkpoint format ("TTCK"): magic, uint32 version, uint32 d,
# d uint32 mode sizes, d+1 uint32 ranks, row-major float64 cores, and a
# trailing float64 snapshot time.  All fields little-endian.
# ----------------------------------------------------------------------

def write_checkpoint(path, a: TensorTrain, t: float):
    d = a.d
    ranks = a.ranks
    with open(path, "wb") as fh:
        fh.write(_TTCK_MAGIC)
        fh.write(struct.pack("<I", _TTCK_VERSION))
        fh.write(struct.pack("<I", d))
        fh.write(struct.pack(f"<{d}I", *a.mode_sizes))
        fh.write(struct.pack(f"<{d + 1}I", *ranks))
        for core in a.cores:
            fh.write(core.astype("<f8").tobytes(order="C"))
        fh.write(struct.pack("<d", float(t)))


def read_checkpoint(path) -> tuple[TensorTrain, float]:
    """Read a TTCK file; ``ValueError`` unless its length matches the
    header exactly (truncated files and trailing bytes are both rejected)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _TTCK_MAGIC:
        raise ValueError("not a TTCK checkpoint")
    if len(raw) < 12:
        raise ValueError("truncated TTCK header")
    version, d = struct.unpack_from("<2I", raw, 4)
    if version != _TTCK_VERSION:
        raise ValueError(f"unsupported TTCK version {version}")
    off = 12 + 4 * d + 4 * (d + 1)
    if len(raw) < off:
        raise ValueError("truncated TTCK header")
    mode_sizes = struct.unpack_from(f"<{d}I", raw, 12)
    ranks = struct.unpack_from(f"<{d + 1}I", raw, 12 + 4 * d)
    sizes = [ranks[i] * mode_sizes[i] * ranks[i + 1] for i in range(d)]
    expected = off + 8 * sum(sizes) + 8
    if len(raw) != expected:
        kind = "truncated" if len(raw) < expected else "trailing bytes in"
        raise ValueError(f"{kind} TTCK checkpoint: {len(raw)} bytes, "
                         f"header implies {expected}")
    cores = []
    for i, n in enumerate(sizes):
        core = np.frombuffer(raw, dtype="<f8", count=n, offset=off)
        off += 8 * n
        cores.append(core.reshape(ranks[i], mode_sizes[i], ranks[i + 1]).copy())
    (t,) = struct.unpack_from("<d", raw, off)
    return TensorTrain(cores), t
