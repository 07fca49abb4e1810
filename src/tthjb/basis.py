"""Orthonormal Legendre bases on arbitrary intervals.

For an interval ``[a, b]`` the basis functions are

    p_k(x) = sigma_k P_k(u),   sigma_k = sqrt((2k + 1) / (b - a)),

with ``P_k`` the classical Legendre polynomials of the mapped variable
``u = s x + t``, ``s = 2 / (b - a)``, ``t = -(a + b) / (b - a)``, so that
``integral_a^b p_j p_k dx = delta_jk``.  Products, derivatives and the
drift-diffusion generator act on Legendre coefficients directly: each is a
unit-interval identity of :mod:`numpy.polynomial.legendre` (``legmul``,
``legder``, ``legmulx``) conjugated by the scales ``sigma_k``.  No monomial
basis is involved, so conditioning does not limit the degree, and on
symmetric intervals every parity zero is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np
from numpy.polynomial import legendre as leg


@dataclass(frozen=True)
class LegendreBasis:
    """Orthonormal Legendre basis of maximum degree ``n`` on ``[a, b]``."""

    a: float
    b: float
    n: int

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

    @property
    def _scales(self) -> np.ndarray:
        return np.sqrt((2 * np.arange(self.n + 1) + 1) / (self.b - self.a))


@lru_cache(maxsize=None)
def build_basis(a: float, b: float, n: int) -> LegendreBasis:
    """Construct (and cache) the orthonormal Legendre basis on ``[a, b]``.

    Raises for ``a >= b`` and for negative ``n``.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if n < 0:
        raise ValueError(f"degree {n} must be >= 0")
    return LegendreBasis(a=float(a), b=float(b), n=int(n))


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


def _cached_per_basis(build):
    """Cache ``build(basis, *args)`` per ``(a, b, n, *args)``; the arrays it
    returns are shared by every caller and therefore read-only."""
    @lru_cache(maxsize=None)
    def cached(a, b, n, *args):
        out = build(build_basis(a, b, n), *args)
        if isinstance(out, tuple):
            return tuple(_read_only(m) for m in out)
        return _read_only(out)

    @wraps(build)
    def lookup(basis: LegendreBasis, *args):
        return cached(basis.a, basis.b, basis.n, *args)

    lookup.cache_clear = cached.cache_clear
    return lookup


def _columns(op, n: int, rows: int) -> np.ndarray:
    """Matrix whose column ``k`` is the coefficient vector ``op(e_k)`` for the
    ``n + 1`` unit vectors ``e_k``, zero-padded or truncated to ``rows``."""
    out = np.zeros((rows, n + 1))
    for k, unit in enumerate(np.eye(n + 1)):
        col = op(unit)[:rows]
        out[:len(col), k] = col
    return out


def _affine(basis: LegendreBasis) -> tuple[float, float]:
    """``(s, t)`` of the map ``u = s x + t`` onto ``[-1, 1]``."""
    return 2.0 / (basis.b - basis.a), -(basis.a + basis.b) / (basis.b - basis.a)


@_cached_per_basis
def product_tensor(basis: LegendreBasis) -> np.ndarray:
    """``C[p, a, q]``: coefficient of ``p_p`` in ``p_a p_q``, for ``p <= 2n``
    (cached, read-only).

    The unit-interval linearization coefficient of ``P_a P_q`` (from
    ``legmul``) times ``sigma_a sigma_q / sigma_p``.
    """
    n = basis.n
    lin = np.zeros((2 * n + 1, n + 1, n + 1))
    for a, unit in enumerate(np.eye(n + 1)):
        lin[:, a, :] = _columns(lambda e: leg.legmul(unit, e), n, 2 * n + 1)
    scales = basis._scales
    out_scales = build_basis(basis.a, basis.b, 2 * n)._scales
    return lin * np.outer(scales, scales) / out_scales[:, None, None]


@_cached_per_basis
def derivative_matrix(basis: LegendreBasis) -> np.ndarray:
    """Legendre-coefficient action of ``v -> v'`` (cached, read-only)."""
    s, _ = _affine(basis)
    scales = basis._scales
    return s * _columns(leg.legder, basis.n, basis.n + 1) * scales / scales[:, None]


@_cached_per_basis
def ou_generator_matrix(basis: LegendreBasis) -> np.ndarray:
    """Legendre-coefficient action of ``v -> v'' + x v'`` (cached, read-only).

    Composed as ``D D + X D`` from :func:`derivative_matrix` ``D`` and the
    multiplication ``X`` by ``x = (u - t) / s``, which ``legmulx`` gives in
    the mapped variable.  ``X`` is truncated to degree ``n``, which ``D``'s
    output never reaches.
    """
    n = basis.n
    s, t = _affine(basis)
    scales = basis._scales
    x_mul = (_columns(leg.legmulx, n, n + 1) - t * np.eye(n + 1)) / s
    dx = derivative_matrix(basis)
    return dx @ dx + (x_mul * scales / scales[:, None]) @ dx


@_cached_per_basis
def power_coefficients(basis: LegendreBasis, e: int) -> np.ndarray:
    """Coefficients of ``x^e`` (``0 <= e <= n``) in the basis (cached,
    read-only), by ``e`` multiplications with ``x = (u - t) / s``."""
    s, t = _affine(basis)
    coef = np.ones(1)
    for _ in range(e):
        coef = (leg.legmulx(coef) - t * np.append(coef, 0.0)) / s
    out = np.zeros(basis.n + 1)
    out[:e + 1] = coef
    return out / basis._scales


@_cached_per_basis
def taylor_rows(basis: LegendreBasis) -> np.ndarray:
    """Rows ``evaluate(0) @ D^k / k!`` for ``k = 0, 1, 2`` (cached,
    read-only): applied to coefficients they give the coefficients of
    ``1, x, x^2`` in the Taylor expansion at 0.  Rows past ``n`` are zero."""
    row, dx = basis.evaluate(0.0), derivative_matrix(basis)
    return np.stack([row, row @ dx, row @ dx @ dx / 2.0])


@_cached_per_basis
def mapped_monomial_transform(basis: LegendreBasis) -> tuple[np.ndarray, np.ndarray]:
    """Transform pair between Legendre coefficients on ``[a, b]`` and
    monomial coefficients in the mapped variable ``u``, from ``leg2poly``
    and ``poly2leg`` (cached, read-only).

    The dense reference product of :mod:`tthjb.oracles` convolves these
    monomial coefficients; the solver multiplies with :func:`product_tensor`.
    """
    n = basis.n
    scales = basis._scales
    return (_columns(leg.leg2poly, n, n + 1) * scales,
            _columns(leg.poly2leg, n, n + 1) / scales[:, None])


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
