"""Orthonormal Legendre bases on arbitrary intervals.

For an interval ``[a, b]`` the basis functions are

    p_k(x) = sqrt((2k + 1) / (b - a)) * P_k(2 (x - a) / (b - a) - 1)

with ``P_k`` the classical Legendre polynomials, so that
``integral_a^b p_j p_k dx = delta_jk``.  The transform ``T`` maps Legendre
coefficients to coefficients of the plain monomials ``1, x, x^2, ...`` in the
*unmapped* variable on ``[a, b]``; the operator matrices below therefore act
on monomial coefficients and are interval independent.

The degree is capped at :data:`DEGREE_CAP` because the monomial transform is
exponentially ill-conditioned in the degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

DEGREE_CAP = 12


def monomial_second_derivative(n: int) -> np.ndarray:
    """Monomial coefficients of d^2/dx^2: entry [k-2, k] = k (k - 1)."""
    m = np.zeros((n + 1, n + 1))
    for k in range(2, n + 1):
        m[k - 2, k] = k * (k - 1)
    return m


def monomial_x_derivative(n: int) -> np.ndarray:
    """Monomial coefficients of x d/dx: diagonal 0, 1, ..., n."""
    return np.diag(np.arange(n + 1, dtype=np.float64))


def monomial_derivative(n: int) -> np.ndarray:
    """Monomial coefficients of d/dx: entry [k-1, k] = k."""
    m = np.zeros((n + 1, n + 1))
    for k in range(1, n + 1):
        m[k - 1, k] = k
    return m


@dataclass(frozen=True)
class LegendreBasis:
    """Orthonormal Legendre basis of maximum degree ``n`` on ``[a, b]``.

    ``T`` maps Legendre coefficients to monomial coefficients (column ``k``
    holds the monomial expansion of ``p_k``); ``T_inv`` is its inverse,
    computed by triangular back-substitution so the parity zero pattern is
    bitwise exact on symmetric intervals.
    """

    a: float
    b: float
    n: int
    T: np.ndarray
    T_inv: np.ndarray

    def _mapped(self, x):
        return 2.0 * (np.asarray(x, dtype=np.float64) - self.a) / (self.b - self.a) - 1.0

    def evaluate(self, x) -> np.ndarray:
        """Values ``(p_0(x), ..., p_n(x))`` via the three-term recurrence.

        ``x`` may be a scalar or an array; the basis index is the last axis.
        Arguments outside ``[a, b]`` extrapolate.
        """
        u = self._mapped(x)
        out = np.empty(np.shape(u) + (self.n + 1,))
        out[..., 0] = 1.0
        if self.n >= 1:
            out[..., 1] = u
        for k in range(1, self.n):
            out[..., k + 1] = ((2 * k + 1) * u * out[..., k] - k * out[..., k - 1]) / (k + 1)
        return out * self._scales

    def evaluate_with_derivative(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Values and derivatives in one recurrence pass."""
        u = self._mapped(x)
        p = np.empty(np.shape(u) + (self.n + 1,))
        dp = np.empty_like(p)
        p[..., 0] = 1.0
        dp[..., 0] = 0.0
        if self.n >= 1:
            p[..., 1] = u
            dp[..., 1] = 1.0
        for k in range(1, self.n):
            p[..., k + 1] = ((2 * k + 1) * u * p[..., k] - k * p[..., k - 1]) / (k + 1)
            dp[..., k + 1] = ((2 * k + 1) * (p[..., k] + u * dp[..., k])
                              - k * dp[..., k - 1]) / (k + 1)
        scales = self._scales
        return p * scales, dp * scales * (2.0 / (self.b - self.a))

    def evaluate_derivative(self, x) -> np.ndarray:
        """Values ``(p_0'(x), ..., p_n'(x))`` w.r.t. the raw variable."""
        return self.evaluate_with_derivative(x)[1]

    @property
    def _scales(self) -> np.ndarray:
        return np.sqrt((2 * np.arange(self.n + 1) + 1) / (self.b - self.a))


@lru_cache(maxsize=None)
def build_basis(a: float, b: float, n: int) -> LegendreBasis:
    """Construct (and cache) the orthonormal Legendre basis on ``[a, b]``.

    Raises for ``a >= b`` and for ``n`` beyond :data:`DEGREE_CAP` (the
    monomial transform would lose too much precision).
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if n < 0 or n > DEGREE_CAP:
        raise ValueError(
            f"degree {n} outside [0, {DEGREE_CAP}]; the Legendre-monomial "
            "transform is too ill-conditioned beyond the cap")
    # Monomial coefficients of P_k(u(x)) in the raw variable, u = s*x + t.
    s = 2.0 / (b - a)
    t = -(a + b) / (b - a)
    T = np.zeros((n + 1, n + 1))
    prev = np.zeros(n + 1)
    prev[0] = 1.0
    T[:, 0] = prev
    if n >= 1:
        cur = np.zeros(n + 1)
        cur[0] = t
        cur[1] = s
        T[:, 1] = cur
        for k in range(1, n):
            ucur = t * cur
            ucur[1:] += s * cur[:-1]
            nxt = ((2 * k + 1) * ucur - k * prev) / (k + 1)
            T[:, k + 1] = nxt
            prev, cur = cur, nxt
    T *= np.sqrt((2 * np.arange(n + 1) + 1) / (b - a))[None, :]
    T_inv = _invert_upper_triangular(T)
    # Newton-Schulz refinement keeps ||T T_inv - I|| near machine precision
    # at the degree cap; same-parity products leave the zero pattern intact.
    eye = np.eye(n + 1)
    best = T_inv
    best_res = np.max(np.abs(T @ T_inv - eye))
    for _ in range(4):
        T_inv = T_inv @ (2.0 * eye - T @ T_inv)
        res = np.max(np.abs(T @ T_inv - eye))
        if res < best_res:
            best, best_res = T_inv, res
        else:
            break
    return LegendreBasis(a=float(a), b=float(b), n=int(n), T=T, T_inv=best)


def _invert_upper_triangular(T: np.ndarray) -> np.ndarray:
    """Back-substitution inverse; exact zeros propagate exactly."""
    n = T.shape[0]
    inv = np.zeros_like(T)
    for col in range(n):
        z = np.zeros(n)
        z[col] = 1.0 / T[col, col]
        for i in range(col - 1, -1, -1):
            acc = T[i, i + 1:col + 1] @ z[i + 1:col + 1]
            z[i] = -acc / T[i, i]
        inv[:, col] = z
    return inv


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


def _cached_per_basis(build):
    """Cache ``build(basis)`` per ``(a, b, n)``; the arrays it returns are
    shared by every caller and therefore read-only."""
    @lru_cache(maxsize=None)
    def cached(a, b, n):
        out = build(build_basis(a, b, n))
        if isinstance(out, tuple):
            return tuple(_read_only(m) for m in out)
        return _read_only(out)

    @wraps(build)
    def lookup(basis: LegendreBasis):
        return cached(basis.a, basis.b, basis.n)

    return lookup


@_cached_per_basis
def mapped_monomial_transform(basis: LegendreBasis) -> tuple[np.ndarray, np.ndarray]:
    """Transform pair between Legendre coefficients on ``[a, b]`` and
    monomial coefficients in the *mapped* variable ``u = 2(x-a)/(b-a) - 1``.

    ``p_k`` on ``[a, b]`` is ``sqrt(2/(b-a))`` times the unit-interval basis
    function of ``u``, so the pair is the unit-interval transform scaled by
    one scalar; its conditioning does not depend on the interval.  Used for
    pointwise products, where any polynomial basis with a convolution rule
    works and the raw-coordinate monomials can be catastrophically
    ill-conditioned on wide or offset intervals.  Cached and read-only.
    """
    ref = build_basis(-1.0, 1.0, basis.n)
    scale = np.sqrt(2.0 / (basis.b - basis.a))
    return scale * ref.T, ref.T_inv / scale


@_cached_per_basis
def ou_generator_matrix(basis: LegendreBasis) -> np.ndarray:
    """Legendre-coefficient action of ``v -> v'' + x v'`` (cached, read-only)."""
    n = basis.n
    return basis.T_inv @ (monomial_second_derivative(n) + monomial_x_derivative(n)) @ basis.T


@_cached_per_basis
def derivative_matrix(basis: LegendreBasis) -> np.ndarray:
    """Legendre-coefficient action of ``v -> v'`` (cached, read-only)."""
    return basis.T_inv @ monomial_derivative(basis.n) @ basis.T


class PolySpace:
    """Tensor-product polynomial space over a hypercube.

    Holds one interval and one maximum degree per dimension.  Bases at
    reduced degrees (used when the solver truncates degrees adaptively)
    are served from the shared :func:`build_basis` cache.
    """

    def __init__(self, intervals, degrees):
        intervals = [(float(a), float(b)) for a, b in intervals]
        degrees = [int(n) for n in degrees]
        if len(intervals) != len(degrees) or not intervals:
            raise ValueError("need one (interval, degree) pair per dimension")
        self.intervals = tuple(intervals)
        self.degrees = tuple(degrees)
        self.bases = tuple(build_basis(a, b, n)
                           for (a, b), n in zip(intervals, degrees))

    @property
    def d(self) -> int:
        return len(self.intervals)

    @property
    def mode_sizes(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.degrees)

    def basis(self, i: int, mode_size: int | None = None) -> LegendreBasis:
        """Basis for dimension ``i``, optionally at a different degree."""
        if mode_size is None:
            return self.bases[i]
        a, b = self.intervals[i]
        return build_basis(a, b, mode_size - 1)

    def with_degrees(self, degrees) -> "PolySpace":
        return PolySpace(self.intervals, degrees)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"PolySpace(intervals={self.intervals}, degrees={self.degrees})"
