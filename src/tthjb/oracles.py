"""Independent reference solutions and brute-force cross-checks.

Everything in this module deliberately avoids the tensor-train code paths
it is used to verify: the Gaussian flow is a closed form, the stiffness
bound is an explicit formula, the quadratic TT cores come from a direct
state-machine construction, and the dense references manipulate full
coefficient tensors with plain numpy.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as npleg, polynomial as nppoly

from .basis import PolySpace, mapped_monomial_transform
from .operators import PotentialSpec
from .tt import TensorTrain, _guard_dense


# ----------------------------------------------------------------------
# Gaussian flow
# ----------------------------------------------------------------------

def riccati_reference(q0, t: float):
    """Exact quadratic-coefficient flow for a Gaussian initial potential.

    For an initial potential ``x^T Q0 x`` the process covariance is
    ``C_0 = (2 Q0)^{-1}`` and evolves as ``C_t = exp(-2t) C_0 +
    (1 - exp(-2t)) I``; the returned coefficient is ``Q_t = (2 C_t)^{-1}``.
    Scalar input returns a scalar.
    """
    scalar = np.isscalar(q0)
    q0m = np.atleast_2d(np.asarray(q0, dtype=np.float64))
    if q0m.shape[0] != q0m.shape[1]:
        raise ValueError("Q0 must be square")
    if not np.allclose(q0m, q0m.T, atol=1e-12):
        raise ValueError("Q0 must be symmetric")
    if np.min(np.linalg.eigvalsh(q0m)) <= 0:
        raise ValueError("Q0 must be positive definite")
    d = q0m.shape[0]
    c0 = 0.5 * np.linalg.inv(q0m)
    ct = np.exp(-2.0 * t) * c0 + (1.0 - np.exp(-2.0 * t)) * np.eye(d)
    qt = 0.5 * np.linalg.inv(ct)
    return float(qt[0, 0]) if scalar else qt


def hopf_cole_check(q0: float, t: float, h: float = 1e-4) -> float:
    """Residual of the scalar quadratic ansatz in the evolution equation.

    For ``v_t(x) = q_t x^2`` the coefficient must satisfy
    ``dq/dt = 2 q - 4 q^2`` (constant shifts drop out).  The derivative is
    taken by central differences of :func:`riccati_reference`.
    """
    qt = riccati_reference(float(q0), t)
    qdot = (riccati_reference(float(q0), t + h)
            - riccati_reference(float(q0), t - h)) / (2.0 * h)
    return abs(qdot - (2.0 * qt - 4.0 * qt * qt))


def gaussian_eigen_bound(a_diag) -> float:
    """Largest absolute eigenvalue of the linearized operator at a diagonal
    Gaussian ``0.5 x^T diag(a) x``: equals ``2 sum_i |1 - 2 a_ii|``."""
    a = np.asarray(a_diag, dtype=np.float64)
    return float(2.0 * np.sum(np.abs(1.0 - 2.0 * a)))


# ----------------------------------------------------------------------
# Explicit TT construction of quadratic forms
# ----------------------------------------------------------------------

def _quadratic_left_cores(m: np.ndarray, count: int) -> list[np.ndarray]:
    """Monomial-coefficient cores for the first ``count`` positions of
    ``x^T M x``, tracking the state [1, x_1..x_i, accumulated]."""
    cores = []
    e0, e1, e2 = np.eye(3)
    for i in range(1, count + 1):
        rows = 1 if i == 1 else i + 1
        cols = i + 2
        core = np.zeros((rows, 3, cols))
        core[0, :, 0] = e0
        core[0, :, i] = e1
        core[0, :, i + 1] = m[i - 1, i - 1] * e2
        if i > 1:
            for k in range(1, i):
                core[k, :, k] = e0
                core[k, :, i + 1] = 2.0 * m[k - 1, i - 1] * e1
            core[i, :, i + 1] = e0
        cores.append(core)
    return cores


def _legendre_from_monomials(a: float, b: float) -> np.ndarray:
    """Columns ``1, x, x^2`` in the orthonormal Legendre basis on ``[a, b]``:
    numpy's ``poly2leg`` of ``(c + h u)^j`` for ``x = c + h u``."""
    x = [0.5 * (a + b), 0.5 * (b - a)]
    cols = [npleg.poly2leg(nppoly.polypow(x, j)) for j in range(3)]
    out = np.array([np.pad(col, (0, 3 - len(col))) for col in cols]).T
    return out / np.sqrt((2 * np.arange(3) + 1) / (b - a))[:, None]


def quadratic_tt_cores(m: np.ndarray, space: PolySpace | None = None) -> TensorTrain:
    """Direct TT construction of ``f(x) = x^T M x`` (degrees ``(2, ..., 2)``).

    Left and right halves each track the variables still awaiting a cross
    partner; a junction matrix at the middle bond pays out the cross
    coefficients.  Interior ranks are exactly ``2 + min(i, d - i)`` before
    any rounding.  Cores are converted to the orthonormal Legendre basis of
    ``space`` (default ``[-1, 1]^d``) by :func:`_legendre_from_monomials`.
    """
    m = np.asarray(m, dtype=np.float64)
    d = m.shape[0]
    if m.shape != (d, d) or d < 2:
        raise ValueError("M must be square with d >= 2")
    m = 0.5 * (m + m.T)
    split = d // 2
    left = _quadratic_left_cores(m, split)
    mrev = m[::-1, ::-1]
    right_rev = _quadratic_left_cores(mrev, d - split)
    # Reversed-order cores serve positions d, d-1, ..., split+1 transposed.
    right = [np.ascontiguousarray(np.transpose(c, (2, 1, 0)))
             for c in reversed(right_rev)]
    # Junction: rows [1, x_1..x_split, done], cols [1, x_d..x_{split+1}, done].
    nl, nr = split + 2, (d - split) + 2
    junction = np.zeros((nl, nr))
    junction[nl - 1, 0] = 1.0
    junction[0, nr - 1] = 1.0
    for k in range(1, split + 1):
        for jj in range(1, d - split + 1):
            junction[k, jj] = 2.0 * m[k - 1, d - jj]
    right[0] = np.einsum("ab,bnc->anc", junction, right[0], optimize=True)
    cores = left + right
    if space is None:
        space = PolySpace([(-1.0, 1.0)] * d, [2] * d)
    legendre = [np.einsum("nm,amb->anb", _legendre_from_monomials(*space.intervals[i]),
                          core, optimize=True)
                for i, core in enumerate(cores)]
    return TensorTrain(legendre)


# ----------------------------------------------------------------------
# Dense coefficient-tensor references (d <= 4 oracle work)
# ----------------------------------------------------------------------

def _apply_mode(a: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(mat, a, axes=(1, axis)), 0, axis)


def _series_matrix(space: PolySpace, i: int, size: int, op) -> np.ndarray:
    """Matrix of ``op`` on the orthonormal Legendre basis of dimension ``i``
    with ``size`` functions, built from numpy's ``Legendre`` series on that
    dimension's interval (numpy maps the domain and scales ``deriv`` itself)
    rather than from the solver's operator matrices.  ``op`` takes a series
    and the series of ``x``; its result is truncated to ``size`` terms."""
    a, b = space.intervals[i]
    x = npleg.Legendre.identity(domain=[a, b])
    out = np.zeros((size, size))
    for k in range(size):
        col = op(npleg.Legendre.basis(k, domain=[a, b]), x).coef[:size]
        out[:len(col), k] = col
    scales = np.sqrt((2 * np.arange(size) + 1) / (b - a))
    return out * scales / scales[:, None]


def dense_lin(a: np.ndarray, space: PolySpace) -> np.ndarray:
    """Dense action of the drift-diffusion generator ``v'' + x v'``."""
    _guard_dense(a.shape)
    out = np.zeros_like(a)
    for i in range(a.ndim):
        gen = _series_matrix(space, i, a.shape[i], lambda f, x: f.deriv(2) + x * f.deriv())
        out += _apply_mode(a, gen, i)
    return out


def dense_partial(a: np.ndarray, i: int, space: PolySpace) -> np.ndarray:
    """Dense partial derivative along dimension ``i``."""
    _guard_dense(a.shape)
    dx = _series_matrix(space, i, a.shape[i], lambda f, x: f.deriv())
    return _apply_mode(a, dx, i)


def dense_multiply(a: np.ndarray, b: np.ndarray, space: PolySpace) -> np.ndarray:
    """Dense pointwise product at doubled degrees.

    Converts both factors to monomial coefficients, convolves the full
    coefficient tensors, and converts back to Legendre coefficients.
    """
    if a.shape != b.shape:
        raise ValueError("factors must share shapes")
    _guard_dense([2 * s for s in a.shape])
    d = a.ndim
    am, bm = a, b
    for i in range(d):
        t, _ = mapped_monomial_transform(space.basis(i, a.shape[i]))
        am = _apply_mode(am, t, i)
        bm = _apply_mode(bm, t, i)
    out = np.zeros(tuple(2 * s - 1 for s in a.shape))
    for idx in np.ndindex(*a.shape):
        c = am[idx]
        if c == 0.0:
            continue
        sl = tuple(slice(k, k + s) for k, s in zip(idx, a.shape))
        out[sl] += c * bm
    for i in range(d):
        _, t2inv = mapped_monomial_transform(space.basis(i, out.shape[i]))
        out = _apply_mode(out, t2inv, i)
    return out


def dense_nonlin(a: np.ndarray, space: PolySpace) -> np.ndarray:
    """Dense ``-|grad v|^2`` at doubled degrees."""
    out = None
    for i in range(a.ndim):
        pa = dense_partial(a, i, space)
        sq = dense_multiply(pa, pa, space)
        out = sq if out is None else out + sq
    return -out


def dense_nonlin_linearized(b: np.ndarray, a: np.ndarray,
                            space: PolySpace) -> np.ndarray:
    """Dense ``-<grad v_b, grad v_a>`` at doubled degrees."""
    out = None
    for i in range(a.ndim):
        term = dense_multiply(dense_partial(b, i, space),
                              dense_partial(a, i, space), space)
        out = term if out is None else out + term
    return -out


def dense_project(a: np.ndarray, degrees) -> np.ndarray:
    """Dense degree truncation."""
    sl = tuple(slice(0, int(n) + 1) for n in degrees)
    return np.ascontiguousarray(a[sl])


def dense_rhs_reference(a: np.ndarray, space: PolySpace) -> np.ndarray:
    """Dense evolution right-hand side: linear part plus the projected
    nonlinear part, at the degrees of ``a``."""
    nl = dense_nonlin(a, space)
    return dense_lin(a, space) + dense_project(nl, [s - 1 for s in a.shape])


# ----------------------------------------------------------------------
# Quadrature-based score for 2-d potentials
# ----------------------------------------------------------------------

def quadrature_scorer_2d(spec: PotentialSpec, q_order: int, domain):
    """Value and gradient of ``-log pi_t`` for a 2-d potential via quadrature,
    as a function ``score(t, x) -> (v, grad)``.

    The density of the forward noising process is the convolution of the
    target with a Gaussian transition kernel (mean ``exp(-t) x0``, variance
    ``1 - exp(-2t)`` per coordinate); the integral is replaced by a tensor
    Gauss-Legendre rule with ``q_order`` points per axis on ``domain``, built
    once per scorer.  Evaluated with log-sum-exp for underflow safety.

    ``x`` may be a single point or an ``(m, 2)`` batch; ``v`` and ``grad``
    have matching leading shape.
    """
    if q_order < 2:
        raise ValueError("need at least 2 quadrature points per axis")
    dom = np.asarray(domain, dtype=np.float64)
    if dom.shape == (2,):
        dom = np.stack([dom, dom])
    nodes = []
    weights = []
    for a, b in dom:
        u, w = np.polynomial.legendre.leggauss(q_order)
        nodes.append(0.5 * (b - a) * u + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    xx, yy = np.meshgrid(nodes[0], nodes[1], indexing="ij")
    grid = np.column_stack([xx.ravel(), yy.ravel()])            # (Q^2, 2)
    logw = np.add.outer(np.log(weights[0]), np.log(weights[1])).ravel()
    log_prior = logw - spec.evaluate(grid)                      # log w_ij pi*(x_ij)
    # Nodes carrying less than e^-60 of the peak prior mass cannot move the
    # log-density at float64 resolution (the transition kernel is bounded).
    keep = log_prior > np.max(log_prior) - 60.0
    grid, log_prior = grid[keep], log_prior[keep]

    def score(t: float, x):
        if t <= 0:
            raise ValueError("t must be positive")
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        var = 1.0 - np.exp(-2.0 * t)
        means = np.exp(-t) * grid
        # logits built in-place: log_prior_j - |x - m_j|^2 / (2 var) - log(2 pi var)
        logits = pts @ (means.T / var)
        logits += (log_prior - np.sum(means ** 2, axis=1) / (2.0 * var))[None, :]
        col = np.sum(pts ** 2, axis=1) / (2.0 * var) + np.log(2.0 * np.pi * var)
        logits -= col[:, None]
        peak = np.max(logits, axis=1, keepdims=True)
        if not np.all(np.isfinite(peak)):
            raise FloatingPointError("quadrature density underflowed to zero")
        np.subtract(logits, peak, out=logits)
        np.exp(logits, out=logits)
        total = np.sum(logits, axis=1)
        v = -(peak[:, 0] + np.log(total))
        grad = (pts - (logits @ means) / total[:, None]) / var
        if single:
            return float(v[0]), grad[0]
        return v, grad

    return score
