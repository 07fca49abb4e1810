"""Discretized HJB right-hand side on Legendre coefficient tensors.

The evolution equation for the negative log-density splits into a linear
drift-diffusion part ``v -> Laplacian(v) + x . grad(v)`` (degree preserving)
and a nonlinear part ``v -> -|grad v|^2`` (degree doubling).  Everything
here acts on :class:`~tthjb.tt.TensorTrain` coefficient tensors; the rank
bounds are constructive: the linear part exactly doubles interior ranks,
a product of TTs with interior ranks ``r_a`` and ``r_b`` has exactly
``r_a * r_b``, and the full nonlinear part has ``2 r^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import PolySpace, derivative_matrix, ou_generator_matrix, \
    power_coefficients, product_tensor, taylor_rows
from .tt import TensorTrain, check_finite, laplace_like_sum, mode_apply, tt_add_scaled, \
    tt_centres, tt_round, tt_scale


# ----------------------------------------------------------------------
# Potential specification
# ----------------------------------------------------------------------

@dataclass
class PotentialTerm:
    """One low-dimensional polynomial term: a sparse monomial map on a
    coordinate subset.  ``poly`` maps exponent tuples (one exponent per
    coordinate in ``coords``) to coefficients."""

    coords: tuple[int, ...]
    poly: dict[tuple[int, ...], float]


@dataclass
class PotentialSpec:
    """Sum of low-dimensional polynomial terms plus named built-ins (see
    :data:`BUILTINS`).  Only ``cli.parse_run_config`` checks the values."""

    terms: list[PotentialTerm] = field(default_factory=list)
    builtins: list[dict] = field(default_factory=list)

    def monomials(self) -> list[tuple[dict[int, int], float]]:
        """Flatten terms and built-ins to ``({dim: exponent}, coefficient)``
        pairs over the full space."""
        out = []
        for term in self.terms:
            for exps, coef in term.poly.items():
                mono = {c: e for c, e in zip(term.coords, exps) if e > 0}
                out.append((mono, coef))
        for b in self.builtins:
            out.extend(_expand_builtin(b["name"], b["coords"], b["params"]))
        return out

    def evaluate(self, x) -> np.ndarray:
        """Pointwise evaluation; ``x`` has the coordinates on the last axis."""
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros(x.shape[:-1])
        for mono, coef in self.monomials():
            term = np.full(x.shape[:-1], coef)
            for dim, exp in mono.items():
                term = term * x[..., dim] ** exp
            total = total + term
        return total


def gaussian_monomials(q: np.ndarray, coords) -> list[tuple[dict[int, int], float]]:
    """Monomials of ``x^T Q x`` on the given coordinates."""
    q = np.asarray(q, dtype=np.float64)
    n = len(coords)
    out = []
    for i in range(n):
        out.append(({coords[i]: 2}, float(q[i, i])))
        for j in range(i + 1, n):
            c = float(q[i, j] + q[j, i])
            if c != 0.0:
                out.append(({coords[i]: 1, coords[j]: 1}, c))
    return out


def banana_monomials(sigma: np.ndarray, coords) -> list[tuple[dict[int, int], float]]:
    """Monomials of ``|S^{-1} (x, y + x^2 + 1)|^2 / 2`` for ``S = sigma``.

    Degree 4 in the first coordinate, 2 in the second.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    s = np.linalg.inv(sigma)
    i, j = coords
    a = s[0, 0] ** 2 + s[1, 0] ** 2
    bb = s[0, 0] * s[0, 1] + s[1, 0] * s[1, 1]
    c = s[0, 1] ** 2 + s[1, 1] ** 2
    # With u = y + x^2 + 1:  0.5*a*x^2 + b*x*u + 0.5*c*u^2, expanded.
    out = [
        ({i: 2}, 0.5 * a + c),
        ({i: 1, j: 1}, bb),
        ({i: 3}, bb),
        ({i: 1}, bb),
        ({j: 2}, 0.5 * c),
        ({i: 4}, 0.5 * c),
        ({}, 0.5 * c),
        ({i: 2, j: 1}, c),
        ({j: 1}, c),
    ]
    return [(m, v) for m, v in out if v != 0.0]


def doublewell_monomials(coords) -> list[tuple[dict[int, int], float]]:
    """x^4 + y^4 - 4x^2 - 4y^2 - 0.4x + 0.1y + 8 on two coordinates."""
    i, j = coords
    return [({i: 4}, 1.0), ({j: 4}, 1.0), ({i: 2}, -4.0), ({j: 2}, -4.0),
            ({i: 1}, -0.4), ({j: 1}, 0.1), ({}, 8.0)]


def sextic_monomials(coords) -> list[tuple[dict[int, int], float]]:
    """x^6 + y^6 + 3xy on two coordinates."""
    i, j = coords
    return [({i: 6}, 1.0), ({j: 6}, 1.0), ({i: 1, j: 1}, 3.0)]


def iso_tail_monomials(coords) -> list[tuple[dict[int, int], float]]:
    """Sum of squares over the given coordinates."""
    return [({c: 2}, 1.0) for c in coords]


# Each built-in, described once: {param: shape} ("n" is the coordinate count),
# coordinate count (None: any), monomial builder (called with params, coords).
BUILTINS = {
    "gaussian": ({"Q": ("n", "n")}, None, gaussian_monomials),
    "banana": ({"sigma": (2, 2)}, 2, banana_monomials),
    "doublewell": ({}, 2, doublewell_monomials),
    "sextic": ({}, 2, sextic_monomials),
    "iso_tail": ({}, None, iso_tail_monomials),
}


def _expand_builtin(name, coords, params):
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin potential {name!r}")
    shapes, _, monomials = BUILTINS[name]
    return monomials(*(params[key] for key in shapes), coords)


def build_potential_tt(spec: PotentialSpec, space: PolySpace,
                       delta: float = 1e-12) -> TensorTrain:
    """TT coefficients of the potential in the orthonormal Legendre basis.

    Each monomial becomes a rank-1 TT whose core ``i`` holds the Legendre
    coefficients of ``x_i^e`` (:func:`~tthjb.basis.power_coefficients`); the
    sum is rounded once at relative tolerance ``delta``.  Raises
    ``ValueError`` for non-finite coefficients.
    """
    monos = spec.monomials()
    if not monos:
        raise ValueError("potential has no terms")
    d = space.d
    total = None
    for mono, coef in monos:
        for dim, exp in mono.items():
            if dim < 0 or dim >= d:
                raise ValueError(f"coordinate {dim} outside the space")
            if exp > space.degrees[dim]:
                raise ValueError(
                    f"monomial degree {exp} in dimension {dim} exceeds the "
                    f"space degree {space.degrees[dim]}")
        cores = [power_coefficients(space.bases[i], mono.get(i, 0)).reshape(1, -1, 1)
                 for i in range(d)]
        term = tt_scale(TensorTrain._trusted(cores), coef)
        total = term if total is None else tt_add_scaled(total, term, 1.0)
    check_finite(total)
    return tt_round(total, tol=delta)


# ----------------------------------------------------------------------
# Linear and nonlinear operators
# ----------------------------------------------------------------------

def _space_bases(a: TensorTrain, space: PolySpace):
    return [space.basis(i, m) for i, m in enumerate(a.mode_sizes)]


def apply_lin(a: TensorTrain, space: PolySpace) -> TensorTrain:
    """Drift-diffusion generator: coefficients of ``Lap v + x . grad v``.

    Laplace-like block construction; interior ranks exactly double and the
    polynomial degree is unchanged.
    """
    bases = _space_bases(a, space)
    replaced = [mode_apply(ou_generator_matrix(bs), core)
                for bs, core in zip(bases, a.cores)]
    return laplace_like_sum(a.cores, replaced)


def apply_partial(a: TensorTrain, i: int, space: PolySpace) -> TensorTrain:
    """Coefficients of the partial derivative along dimension ``i``."""
    cores = list(a.cores)
    dx = derivative_matrix(space.basis(i, a.mode_sizes[i]))
    cores[i] = mode_apply(dx, cores[i])
    return TensorTrain._trusted(cores)


def _product_kernel(core: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """Per-mode multiplication by the Legendre core ``core`` as a linear map
    of the other factor's core, shape ``(kb, 2n + 1, lb, n + 1)``::

        K[k, p, l, q] = sum_a core[k, a, l] prod[p, a, q]

    ``prod`` is the :func:`~tthjb.basis.product_tensor` of the mode, with a
    derivative of the other factor possibly folded in (``prod @ D``).  The
    product core with a core ``c`` is ``sum_q K[k, p, l, q] c[m, q, o]`` at
    bonds ``(k, m)``, ``(l, o)``.
    """
    return np.tensordot(core, prod, axes=(1, 1)).transpose(0, 2, 1, 3)


def _mode_major(core: np.ndarray) -> np.ndarray:
    """An order-3 core ``(r0, m, r1)`` as an ``(m, r0 r1)`` matrix."""
    r0, m, r1 = core.shape
    return core.transpose(1, 0, 2).reshape(m, r0 * r1)


def _pair_bonds(prod: np.ndarray, fixed_shape, rows: int, core_shape) -> np.ndarray:
    """Product cores ``(s, kb r0, rows, lb r1)`` from ``K @ _mode_major(core)``
    for kernels ``K`` with rows ``(s, kb, rows, lb)``; the fixed core's bond
    index is the major one."""
    kb, _, lb = fixed_shape
    r0, _, r1 = core_shape
    return (prod.reshape(-1, kb, rows, lb, r0, r1).transpose(0, 1, 4, 2, 3, 5)
            .reshape(-1, kb * r0, rows, lb * r1))


def poly_multiply(a: TensorTrain, b: TensorTrain,
                  space: PolySpace) -> tuple[TensorTrain, PolySpace]:
    """Coefficients of the pointwise product ``v_a * v_b`` at doubled degrees.

    Returns the product TT together with the doubled-degree space it lives
    in; callers own any subsequent degree projection.  Interior output
    ranks are exactly ``r_a * r_b``.
    """
    if a.mode_sizes != b.mode_sizes:
        raise ValueError("factors must share mode sizes")
    out_space = space.with_degrees([2 * (m - 1) for m in a.mode_sizes])
    cores = []
    for i, (ca, cb) in enumerate(zip(a.cores, b.cores)):
        m = ca.shape[1]
        kernel = _product_kernel(cb, product_tensor(space.basis(i, m))).reshape(-1, m)
        cores.append(_pair_bonds(kernel @ _mode_major(ca), cb.shape, 2 * m - 1,
                                 ca.shape)[0])
    return TensorTrain._trusted(cores), out_space


@dataclass(frozen=True)
class StiffnessSide:
    """The fixed state ``Y`` of the linearized operator ``H_Y`` with the
    per-mode data every application of ``H_Y`` and of the nonlinearity
    linearized at ``Y`` reuses.

    Per dimension ``i``, ``kernels[i]`` stacks the product kernels (see
    :func:`_product_kernel`) of ``Y_i`` and of ``D_i Y_i`` to shape
    ``(2, r, 2n + 1, r', n + 1)``, the latter with the derivative ``D_i`` of
    the other factor folded in.  ``stiffness[i]`` stacks the rows of both at
    output degrees ``<= n``, followed by the ``n + 1`` rows of the OU
    generator matrix, so one matrix product per mode gives every block of
    ``H_Y a``.
    """

    y: TensorTrain
    kernels: tuple[np.ndarray, ...]
    stiffness: tuple[np.ndarray, ...]


def prepare_stiffness(y: TensorTrain, space: PolySpace) -> StiffnessSide:
    """Compute ``y``'s side of :func:`apply_stiffness` and
    :func:`apply_nonlin_linearized` once, for reuse by every application of
    an operator linearized at ``y``."""
    kernels, stiffness = [], []
    for core, bs in zip(y.cores, _space_bases(y, space)):
        prod, dx = product_tensor(bs), derivative_matrix(bs)
        kernel = np.stack([_product_kernel(core, prod),
                           _product_kernel(mode_apply(dx, core), prod @ dx)])
        m = core.shape[1]
        kernels.append(kernel)
        stiffness.append(np.concatenate([kernel[:, :, :m].reshape(-1, m),
                                         ou_generator_matrix(bs)]))
    return StiffnessSide(y=y, kernels=tuple(kernels), stiffness=tuple(stiffness))


def apply_nonlin_linearized(b: TensorTrain | StiffnessSide, a: TensorTrain,
                            space: PolySpace) -> tuple[TensorTrain, PolySpace]:
    """Coefficients of ``-<grad v_b, grad v_a>`` at doubled degrees.

    ``b`` is a TT or prepared by :func:`prepare_stiffness` (a TT is prepared
    on the spot).  Built as a Laplace-like sum of per-dimension products of
    the two derivative TTs; interior ranks are exactly ``2 r_a r_b``.
    """
    side = b if isinstance(b, StiffnessSide) else prepare_stiffness(b, space)
    if a.mode_sizes != side.y.mode_sizes:
        raise ValueError("arguments must share mode sizes")
    base, replaced = [], []
    for core, kernel, bc in zip(a.cores, side.kernels, side.y.cores):
        prod = _pair_bonds(kernel.reshape(-1, core.shape[1]) @ _mode_major(core),
                           bc.shape, kernel.shape[2], core.shape)
        base.append(prod[0])
        replaced.append(prod[1])
    doubled = space.with_degrees([2 * (m - 1) for m in a.mode_sizes])
    return tt_scale(laplace_like_sum(base, replaced), -1.0), doubled


def apply_nonlin(a: TensorTrain, space: PolySpace) -> tuple[TensorTrain, PolySpace]:
    """Coefficients of ``-|grad v_a|^2`` at doubled degrees (ranks 2 r^2)."""
    return apply_nonlin_linearized(a, a, space)


def project_degree(a: TensorTrain, degrees) -> TensorTrain:
    """Orthogonal projection onto lower degrees = coefficient truncation.

    Ranks are unchanged; the discarded mass obeys the Parseval identity
    ``|a|^2 = |Pa|^2 + |a - Pa|^2``.
    """
    degrees = [int(n) for n in degrees]
    if len(degrees) != a.d:
        raise ValueError("need one target degree per dimension")
    cores = []
    for core, n in zip(a.cores, degrees):
        if n + 1 > core.shape[1]:
            raise ValueError("target degrees must not exceed current degrees")
        cores.append(core[:, :n + 1, :])
    return TensorTrain._trusted(cores)


def projection_norms(a: TensorTrain, degrees) -> tuple[float, float]:
    """``(|a|, |a - P a|)`` for the projection :func:`project_degree` onto
    ``degrees``, without the cancellation of ``sqrt(|a|^2 - |P a|^2)``.

    ``a - P a`` splits into disjoint blocks: block ``k`` takes the kept rows
    of the modes before ``k``, the dropped rows of mode ``k`` and all rows
    after it.  Its norm is that of the dropped rows of the core
    :func:`~tthjb.tt.tt_centres` yields for mode ``k`` over the kept rows.
    """
    kept = project_degree(a, degrees).mode_sizes
    centres = list(tt_centres(a, kept))
    dropped_sq = sum(float(np.linalg.norm(c[:, n:])) ** 2 for c, n in zip(centres, kept))
    return float(np.linalg.norm(centres[0])), float(np.sqrt(dropped_sq))


def apply_stiffness(b: TensorTrain | StiffnessSide, a: TensorTrain,
                    space: PolySpace) -> TensorTrain:
    """Locally linearized right-hand side: ``L a + 2 P NL_b(a)``.

    ``b`` is the state the operator is linearized at, either as a TT or
    prepared once by :func:`prepare_stiffness` (a TT is prepared on the
    spot).  The degree-doubling linearized nonlinearity is projected back
    onto the degrees of ``a``, so the output matches the input shape.

    The cores are those of ``L a`` (a Laplace-like sum, ranks ``2 r``) plus
    ``-2`` times the projected Laplace-like sum of gradient products
    (ranks ``2 r r_b``), as :func:`~tthjb.tt.tt_add_scaled` of two
    :func:`~tthjb.tt.laplace_like_sum` results would give them, but written
    straight into their block positions: building the two intermediate
    TTs made the d=10 Gaussian benchmark solve 5% slower.
    """
    side = b if isinstance(b, StiffnessSide) else prepare_stiffness(b, space)
    if a.mode_sizes != side.y.mode_sizes:
        raise ValueError("arguments must share mode sizes")
    d = a.d
    cores = []
    for i, (core, op, yc) in enumerate(zip(a.cores, side.stiffness, side.y.cores)):
        r0, m, r1 = core.shape
        out = op @ _mode_major(core)
        gen = out[-m:].reshape(m, r0, r1).transpose(1, 0, 2)
        base, repl = _pair_bonds(out[:-m], yc.shape, m, core.shape)
        # NL_b(a) = -<grad v_b, grad v_a>, so 2 P NL_b(a) = -2 P <...>
        if d == 1:
            cores.append(gen - 2.0 * repl)
        elif i == 0:
            cores.append(np.concatenate([gen, core, -2.0 * repl, -2.0 * base], axis=2))
        elif i == d - 1:
            cores.append(np.concatenate([core, gen, base, repl], axis=0))
        else:
            p0, p1 = base.shape[0], base.shape[2]
            blk = np.zeros((2 * (r0 + p0), m, 2 * (r1 + p1)))
            blk[:r0, :, :r1] = core
            blk[r0:2 * r0, :, :r1] = gen
            blk[r0:2 * r0, :, r1:2 * r1] = core
            blk[2 * r0:2 * r0 + p0, :, 2 * r1:2 * r1 + p1] = base
            blk[2 * r0 + p0:, :, 2 * r1:2 * r1 + p1] = repl
            blk[2 * r0 + p0:, :, 2 * r1 + p1:] = base
            cores.append(blk)
    return TensorTrain._trusted(cores)


def extract_quadratic(a: TensorTrain, space: PolySpace):
    """Constant, linear and quadratic parts of the represented polynomial.

    Returns ``(a0, b, Q)`` with ``v(x) = a0 + b^T x + x^T Q x + h.o.t.``;
    ``Q`` is symmetric (off-diagonal entries are half the mixed-monomial
    coefficients).  Works by contracting each core with the Taylor rows
    ``evaluate(0) @ D^k / k!`` of :func:`~tthjb.basis.taylor_rows` and
    chaining these contractions, so the cost is ``O(d^2)`` small matrix
    products and no dense tensor is ever formed.
    """
    d = a.d
    # sel[i][k] = core i contracted with the Taylor row of x^k at 0
    sel = [mode_apply(taylor_rows(space.basis(i, core.shape[1])), core).transpose(1, 0, 2)
           for i, core in enumerate(a.cores)]

    suffix = [None] * (d + 1)
    suffix[d] = np.ones((1, 1))
    for i in range(d - 1, -1, -1):
        suffix[i] = sel[i][0] @ suffix[i + 1]

    a0 = float(suffix[0][0, 0])
    b = np.zeros(d)
    q = np.zeros((d, d))
    prefix = np.ones((1, 1))
    for i in range(d):
        left1 = prefix @ sel[i][1]
        b[i] = float((left1 @ suffix[i + 1])[0, 0])
        run = left1
        for j in range(i + 1, d):
            q[i, j] = 0.5 * float((run @ sel[j][1] @ suffix[j + 1])[0, 0])
            q[j, i] = q[i, j]
            run = run @ sel[j][0]
        q[i, i] = float((prefix @ sel[i][2] @ suffix[i + 1])[0, 0])
        prefix = prefix @ sel[i][0]
    return a0, b, q


def covariance_error(snap, space: PolySpace) -> float:
    """Relative Frobenius distance of the quadratic coefficient matrix of a
    solution snapshot (anything with a ``coeffs`` TT) from the standard
    normal's coefficient ``I/2``."""
    _, _, quad = extract_quadratic(snap.coeffs, space)
    target = 0.5 * np.eye(snap.coeffs.d)
    return float(np.linalg.norm(quad - target) / np.linalg.norm(target))
