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

from .basis import DEGREE_CAP, PolySpace, derivative_matrix, \
    mapped_monomial_transform, ou_generator_matrix
from .tt import TensorTrain, check_finite, laplace_like_sum, mode_apply, tt_add_scaled, \
    tt_round, tt_scale


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
    """Sum of low-dimensional polynomial terms plus named built-ins."""

    terms: list[PotentialTerm] = field(default_factory=list)
    builtins: list[dict] = field(default_factory=list)

    @classmethod
    def from_json(cls, obj: dict) -> "PotentialSpec":
        """Parse the JSON schema::

            {"terms": [{"coords": [...], "poly": [{"exps": [...], "coef": f}]}],
             "builtins": [{"name": str, "coords": [...], "params": {...}}]}
        """
        terms = []
        for t in obj.get("terms", []):
            coords = tuple(int(c) for c in t["coords"])
            poly = {}
            for entry in t["poly"]:
                exps = tuple(int(e) for e in entry["exps"])
                if len(exps) != len(coords):
                    raise ValueError("exps length must match coords length")
                poly[exps] = poly.get(exps, 0.0) + float(entry["coef"])
            terms.append(PotentialTerm(coords=coords, poly=poly))
        builtins = []
        for b in obj.get("builtins", []):
            builtins.append({"name": str(b["name"]),
                             "coords": tuple(int(c) for c in b["coords"]),
                             "params": dict(b.get("params", {}))})
        return cls(terms=terms, builtins=builtins)

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
    if q.shape != (n, n):
        raise ValueError("Q must be square of the coordinate count")
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


def _expand_builtin(name, coords, params):
    if name == "gaussian":
        return gaussian_monomials(np.asarray(params["Q"]), coords)
    if name == "banana":
        return banana_monomials(np.asarray(params["sigma"]), coords)
    if name == "doublewell":
        return doublewell_monomials(coords)
    if name == "sextic":
        return sextic_monomials(coords)
    if name == "iso_tail":
        return iso_tail_monomials(coords)
    raise ValueError(f"unknown builtin potential {name!r}")


def build_potential_tt(spec: PotentialSpec, space: PolySpace,
                       delta: float = 1e-12) -> TensorTrain:
    """TT coefficients of the potential in the orthonormal Legendre basis.

    Each monomial becomes a rank-1 TT (per-dimension monomial-to-Legendre
    conversion through ``T_inv``); the sum is rounded once at relative
    tolerance ``delta``.  Raises ``ValueError`` for non-finite coefficients.
    """
    monos = spec.monomials()
    if not monos:
        raise ValueError("potential has no terms")
    d = space.d
    const_cols = [space.bases[i].T_inv[:, 0] for i in range(d)]
    total = None
    for mono, coef in monos:
        for dim, exp in mono.items():
            if dim < 0 or dim >= d:
                raise ValueError(f"coordinate {dim} outside the space")
            if exp > space.degrees[dim]:
                raise ValueError(
                    f"monomial degree {exp} in dimension {dim} exceeds the "
                    f"space degree {space.degrees[dim]}")
        cores = []
        for i in range(d):
            exp = mono.get(i, 0)
            col = space.bases[i].T_inv[:, exp] if exp else const_cols[i]
            cores.append(col.reshape(1, -1, 1))
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


def _product_core(hb: np.ndarray, ha: np.ndarray, t2_inv: np.ndarray) -> np.ndarray:
    """Doubled-degree Legendre core of the per-mode product of two cores.

    ``hb`` and ``ha`` are the two cores in mapped-monomial form (mode size
    ``n + 1``, see :func:`~tthjb.basis.mapped_monomial_transform`); the
    result has mode size ``2n + 1`` and row/column ranks equal to the
    products of the input ranks (Kronecker pairing of the bond indices).
    The monomial-coefficient convolution is realized by shifted
    accumulation, and ``t2_inv`` maps it back to Legendre coefficients.
    """
    n = hb.shape[1] - 1
    kb, _, lb = hb.shape
    ka, _, la = ha.shape
    # pair[a, b, k, m, l, o] = hb[k, a, l] * ha[m, b, o]
    pair = (hb.transpose(1, 0, 2)[:, None, :, None, :, None]
            * ha.transpose(1, 0, 2)[None, :, None, :, None, :])
    merged = np.zeros((2 * n + 1, kb, ka, lb, la))
    for alpha in range(n + 1):
        merged[alpha:alpha + n + 1] += pair[alpha]
    merged = merged.transpose(1, 2, 0, 3, 4).reshape(kb * ka, 2 * n + 1, lb * la)
    return mode_apply(t2_inv, merged)


def _doubled_space(a: TensorTrain, space: PolySpace) -> PolySpace:
    degrees = [2 * (m - 1) for m in a.mode_sizes]
    if any(n > DEGREE_CAP for n in degrees):
        raise ValueError(
            f"doubled degrees {degrees} exceed the basis degree cap {DEGREE_CAP}")
    return space.with_degrees(degrees)


def poly_multiply(a: TensorTrain, b: TensorTrain,
                  space: PolySpace) -> tuple[TensorTrain, PolySpace]:
    """Coefficients of the pointwise product ``v_a * v_b`` at doubled degrees.

    Returns the product TT together with the doubled-degree space it lives
    in; callers own any subsequent degree projection.  Interior output
    ranks are exactly ``r_a * r_b``.
    """
    if a.mode_sizes != b.mode_sizes:
        raise ValueError("factors must share mode sizes")
    out_space = _doubled_space(a, space)
    cores = []
    for i in range(a.d):
        t, _ = mapped_monomial_transform(space.basis(i, a.mode_sizes[i]))
        _, t2_inv = mapped_monomial_transform(out_space.bases[i])
        cores.append(_product_core(mode_apply(t, b.cores[i]),
                                   mode_apply(t, a.cores[i]), t2_inv))
    return TensorTrain._trusted(cores), out_space


@dataclass(frozen=True)
class StiffnessSide:
    """The fixed state ``Y`` of the linearized operator ``H_Y`` with the
    per-mode data every application of ``H_Y`` reuses.

    ``doubled`` is the space at twice the degrees of ``Y``.  Per dimension
    ``i``: the OU generator and derivative matrices at the degree of ``Y``,
    the mapped-monomial transform ``T_i`` at that degree and the inverse
    transform at the doubled degree, and ``Y``'s core in mapped-monomial
    form, ``T_i Y_i``, and that of its derivative, ``T_i D_i Y_i``.
    """

    y: TensorTrain
    doubled: PolySpace
    generators: tuple[np.ndarray, ...]
    derivatives: tuple[np.ndarray, ...]
    transforms: tuple[np.ndarray, ...]
    doubled_inverses: tuple[np.ndarray, ...]
    mono_y: tuple[np.ndarray, ...]
    mono_dy: tuple[np.ndarray, ...]


def prepare_stiffness(y: TensorTrain, space: PolySpace) -> StiffnessSide:
    """Compute ``y``'s side of :func:`apply_stiffness` once, for reuse by
    every application of the operator linearized at ``y``."""
    doubled = _doubled_space(y, space)
    bases = _space_bases(y, space)
    derivatives = tuple(derivative_matrix(bs) for bs in bases)
    transforms = tuple(mapped_monomial_transform(bs)[0] for bs in bases)
    return StiffnessSide(
        y=y,
        doubled=doubled,
        generators=tuple(ou_generator_matrix(bs) for bs in bases),
        derivatives=derivatives,
        transforms=transforms,
        doubled_inverses=tuple(mapped_monomial_transform(bs2)[1]
                               for bs2 in doubled.bases),
        mono_y=tuple(mode_apply(t, c) for t, c in zip(transforms, y.cores)),
        mono_dy=tuple(mode_apply(t, mode_apply(dx, c))
                      for t, dx, c in zip(transforms, derivatives, y.cores)))


def _gradient_product_sum(side: StiffnessSide, a: TensorTrain, keep=None) -> TensorTrain:
    """``<grad v_Y, grad v_a>`` at doubled degrees, as the Laplace-like sum
    of the per-mode products of the two derivative TTs (ranks ``2 r_a r_Y``).
    ``keep`` truncates each output mode to its first ``keep[i]`` rows."""
    if a.mode_sizes != side.y.mode_sizes:
        raise ValueError("arguments must share mode sizes")
    base_cores = []
    replaced = []
    for i, core in enumerate(a.cores):
        t, t2_inv = side.transforms[i], side.doubled_inverses[i]
        rows = slice(None) if keep is None else slice(keep[i])
        da = mode_apply(side.derivatives[i], core)
        base_cores.append(
            _product_core(side.mono_y[i], mode_apply(t, core), t2_inv)[:, rows])
        replaced.append(
            _product_core(side.mono_dy[i], mode_apply(t, da), t2_inv)[:, rows])
    return laplace_like_sum(base_cores, replaced)


def apply_nonlin_linearized(b: TensorTrain, a: TensorTrain,
                            space: PolySpace) -> tuple[TensorTrain, PolySpace]:
    """Coefficients of ``-<grad v_b, grad v_a>`` at doubled degrees.

    Built as a Laplace-like sum of per-dimension products of the two
    derivative TTs; interior ranks are exactly ``2 r_a r_b``.
    """
    side = prepare_stiffness(b, space)
    return tt_scale(_gradient_product_sum(side, a), -1.0), side.doubled


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


def apply_stiffness(b: TensorTrain | StiffnessSide, a: TensorTrain,
                    space: PolySpace) -> TensorTrain:
    """Locally linearized right-hand side: ``L a + 2 P NL_b(a)``.

    ``b`` is the state the operator is linearized at, either as a TT or
    prepared once by :func:`prepare_stiffness` (a TT is prepared on the
    spot).  The degree-doubling linearized nonlinearity is projected back
    onto the degrees of ``a``, so the output matches the input shape.
    """
    side = b if isinstance(b, StiffnessSide) else prepare_stiffness(b, space)
    pnlb = _gradient_product_sum(side, a, keep=a.mode_sizes)
    la = laplace_like_sum(a.cores, [mode_apply(g, core)
                                    for g, core in zip(side.generators, a.cores)])
    # NL_b(a) = -<grad v_b, grad v_a>, so 2 P NL_b(a) = -2 P <...>
    return tt_add_scaled(la, pnlb, -2.0)


def extract_quadratic(a: TensorTrain, space: PolySpace):
    """Constant, linear and quadratic parts of the represented polynomial.

    Returns ``(a0, b, Q)`` with ``v(x) = a0 + b^T x + x^T Q x + h.o.t.``;
    ``Q`` is symmetric (off-diagonal entries are half the mixed-monomial
    coefficients).  Works by converting each core to monomial coefficients
    and chaining selector contractions, so the cost is ``O(d^2)`` small
    matrix products and no dense tensor is ever formed.
    """
    d = a.d
    sel = []  # sel[i][k] = core i contracted with the monomial selector e_k
    for i, core in enumerate(a.cores):
        t = space.basis(i, core.shape[1]).T
        mono = mode_apply(t, core)
        sel.append([mono[:, k, :] if k < mono.shape[1] else None for k in range(3)])

    suffix = [None] * (d + 1)
    suffix[d] = np.ones((1, 1))
    for i in range(d - 1, -1, -1):
        suffix[i] = sel[i][0] @ suffix[i + 1]

    a0 = float(suffix[0][0, 0])
    b = np.zeros(d)
    q = np.zeros((d, d))
    prefix = np.ones((1, 1))
    for i in range(d):
        if sel[i][1] is not None:
            left1 = prefix @ sel[i][1]
            b[i] = float((left1 @ suffix[i + 1])[0, 0])
            run = left1
            for j in range(i + 1, d):
                if sel[j][1] is not None:
                    q[i, j] = 0.5 * float((run @ sel[j][1] @ suffix[j + 1])[0, 0])
                    q[j, i] = q[i, j]
                run = run @ sel[j][0]
        if sel[i][2] is not None:
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
