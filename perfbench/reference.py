"""Reference computations made apart from the program under test.

They read the solver's binary snapshots with their own parser, evaluate
orthonormal Legendre polynomials through ``numpy.polynomial.legendre``
rather than the program's recurrences and monomial transforms, and hold the
closed forms the benchmark checks against.
"""

from __future__ import annotations

import struct

import numpy as np
from numpy.polynomial import legendre


def read_ttck(path):
    """Cores and time of a TTCK snapshot: magic ``TTCK``, uint32 version 1,
    uint32 d, d uint32 mode sizes, d+1 uint32 ranks, the cores as row-major
    little-endian float64, then the float64 time."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"TTCK":
        raise ValueError(f"{path}: not a TTCK file")
    version, d = struct.unpack_from("<2I", raw, 4)
    if version != 1:
        raise ValueError(f"{path}: TTCK version {version}")
    off = 12
    modes = struct.unpack_from(f"<{d}I", raw, off)
    off += 4 * d
    ranks = struct.unpack_from(f"<{d + 1}I", raw, off)
    off += 4 * (d + 1)
    cores = []
    for i in range(d):
        shape = (ranks[i], modes[i], ranks[i + 1])
        count = shape[0] * shape[1] * shape[2]
        cores.append(np.frombuffer(raw, "<f8", count, off).reshape(shape))
        off += 8 * count
    (t,) = struct.unpack_from("<d", raw, off)
    if off + 8 != len(raw):
        raise ValueError(f"{path}: {len(raw) - off - 8} trailing bytes")
    return cores, t


def legendre_values(interval, degree, x, order=0):
    """``order``-th derivatives of the orthonormal Legendre functions
    ``sqrt((2k+1)/(b-a)) P_k(2(x-a)/(b-a) - 1)``, k = 0..degree, at ``x``
    (shape ``x.shape + (degree + 1,)``)."""
    a, b = interval
    u = 2.0 * (np.asarray(x, float) - a) / (b - a) - 1.0
    out = np.empty(np.shape(u) + (degree + 1,))
    for k in range(degree + 1):
        coef = legendre.legder(np.eye(degree + 1)[k], order) if order else np.eye(degree + 1)[k]
        out[..., k] = legendre.legval(u, coef)
    scale = np.sqrt((2 * np.arange(degree + 1) + 1) / (b - a))
    return out * scale * (2.0 / (b - a)) ** order


def tt_values(cores, intervals, xs):
    """Values of the represented polynomial at the rows of ``xs``."""
    env = np.ones((xs.shape[0], 1))
    for i, core in enumerate(cores):
        vals = legendre_values(intervals[i], core.shape[1] - 1, xs[:, i])
        env = np.einsum("mr,ms,rsq->mq", env, vals, core)
    return env[:, 0]


def taylor_at_zero(cores, intervals):
    """``(v(0), grad v(0), Q)`` with ``Q = Hessian(v)(0) / 2``: the
    constant, linear and quadratic monomial coefficients of the polynomial
    (``Q[i, j]`` is half the coefficient of ``x_i x_j`` for ``i != j``)."""
    d = len(cores)
    mats = []
    for i, core in enumerate(cores):
        n = core.shape[1] - 1
        mats.append([np.einsum("s,rsq->rq", legendre_values(intervals[i], n, 0.0, k), core)
                     for k in range(3)])

    def chain(orders):
        out = np.ones((1, 1))
        for i in range(d):
            out = out @ mats[i][orders.get(i, 0)]
        return float(out[0, 0])

    grad = np.array([chain({i: 1}) for i in range(d)])
    hess = np.empty((d, d))
    for i in range(d):
        hess[i, i] = chain({i: 2})
        for j in range(i + 1, d):
            hess[i, j] = hess[j, i] = chain({i: 1, j: 1})
    return chain({}), grad, 0.5 * hess


def riccati_flow(q0, t):
    """Quadratic coefficient of the OU-noised Gaussian ``x^T Q0 x`` at time
    ``t``: ``Q_t = 1/2 (e^{-2t} C0 + (1 - e^{-2t}) I)^{-1}``, ``C0 = Q0^{-1}/2``."""
    q0 = np.asarray(q0, float)
    decay = np.exp(-2.0 * t)
    cov = decay * 0.5 * np.linalg.inv(q0) + (1.0 - decay) * np.eye(q0.shape[0])
    return 0.5 * np.linalg.inv(cov)


def quartic_moments(lin, nodes=200_001, half_width=8.0):
    """Mean, variance and fourth central moment of the density
    ``exp(-(x^4 - 4 x^2 + lin x))`` on the real line (trapezoid rule on
    a grid wide enough that the tails are below double precision)."""
    x = np.linspace(-half_width, half_width, nodes)
    w = np.exp(-(x ** 4 - 4.0 * x ** 2 + lin * x))
    w /= w.sum()
    mean = float(w @ x)
    var = float(w @ (x - mean) ** 2)
    m4 = float(w @ (x - mean) ** 4)
    return mean, var, m4
