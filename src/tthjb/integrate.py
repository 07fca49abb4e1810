"""Adaptive explicit Euler integration of the coefficient-tensor ODE.

One step advances ``Y`` by ``tau * (L Y + P NL(Y))``, retracts the result
back to the rank budget with one rounding and trims degrees.  The step size
is the minimum of four bounds: a hard cap, a stiffness bound from a
warm-started power iteration on the locally linearized operator, a bound
keeping the relative degree-projection error below ``delta_proj``, and a
bound keeping the relative rank-retraction error below ``delta_rank``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import PolySpace
from .operators import (StiffnessSide, apply_lin, apply_nonlin_linearized,
                        apply_stiffness, covariance_error, prepare_stiffness,
                        project_degree, projection_norms)
from .tt import (TensorTrain, check_finite, tt_add_scaled, tt_centres,
                 tt_inner, tt_norm, tt_random, tt_round, tt_round_sketched,
                 tt_round_with_error, tt_scale)

# Below this magnitude the power-iteration estimate is treated as an exactly
# stationary sector (the stiffness bound then does not constrain the step).
STATIONARY_EPS = 1e-14

# A relative degree-projection error below this is at the round-off level of
# the doubled-degree product (a quadratic state, whose projection is exact,
# gives about 1e-16) and counts as an exact projection.
PROJECTION_EPS = 1e-14

# Sketch columns per bond beyond the rank cap in the power iteration's
# randomized rounding (Al Daas et al. use a small constant oversampling).
SKETCH_OVERSAMPLING = 6

# On a cold start the power iteration's stop rule does not fire before this
# many iterations: the early running means of an iterate still far from the
# dominant sector can agree by chance (one dense d=4 case stopped after 9
# iterations at +9.2%).  Warm starts carry the previous step's iterate and
# need no floor.
COLD_START_ITERS = 20

# Relative size of the seeded random direction blended into the power
# iteration's start, so the iteration sees every eigensector of the
# linearized operator (the solution itself can be exactly orthogonal to the
# dominant one).
POWER_PERTURB = 0.25


class RankBudgetError(RuntimeError):
    """No step size within the search range satisfies the retraction bound."""


class StepUnderflowError(RuntimeError):
    """The accepted step size collapsed below 1e-12 * T."""


@dataclass
class SolverConfig:
    """Parameters of the adaptive Euler solve.

    ``rho`` is either a single reduction factor in (0, 1) or a piecewise
    constant schedule given as ``[(t_start, value), ...]``; the value of the
    last breakpoint at or before ``t`` applies.  Each step's power iteration
    starts from the previous step's last iterate (blended with a seeded
    random direction, see ``POWER_PERTURB``) and rounds with a sketch keyed
    by ``seed`` and the step index.  Its estimate is the mean
    ``|lambda|`` over the second half of the iterates; it stops once that
    mean moves by at most ``10^-p_digits`` relative between two iterations,
    or at ``power_max_iters`` (see :func:`power_iteration_bound`).
    """

    T: float
    tau_max: float
    rho: object = 0.2
    delta_proj: float = 0.01
    delta_rank: float = 0.01
    delta_contr: float = 1e-8
    p_digits: int = 3
    power_max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.T <= 0 or self.tau_max <= 0:
            raise ValueError("T and tau_max must be positive")
        if min(self.delta_proj, self.delta_rank, self.delta_contr) <= 0:
            raise ValueError("tolerances must be positive")
        if self.p_digits < 1:
            raise ValueError("p_digits must be >= 1")
        if self.power_max_iters < 1:
            raise ValueError("power_max_iters must be >= 1")
        sched = self.rho
        if np.isscalar(sched):
            sched = [(0.0, float(sched))]
        sched = sorted((float(t), float(r)) for t, r in sched)
        if not sched or sched[0][0] > 0.0:
            raise ValueError("rho schedule must start at t = 0")
        if any(not 0.0 < r < 1.0 for _, r in sched):
            raise ValueError("rho values must lie in (0, 1)")
        self.rho = tuple(sched)

    def rho_at(self, t: float) -> float:
        value = self.rho[0][1]
        for start, r in self.rho:
            if t >= start:
                value = r
            else:
                break
        return value


@dataclass
class SolutionSnapshot:
    """Coefficient tensor of the solution at one time point."""

    t: float
    coeffs: TensorTrain

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m - 1 for m in self.coeffs.mode_sizes)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.coeffs.ranks


@dataclass
class Trajectory:
    """Time-ordered snapshots plus per-step diagnostics records."""

    snapshots: list[SolutionSnapshot] = field(default_factory=list)
    diagnostics: list[dict] = field(default_factory=list)
    error: str | None = None

    @property
    def times(self) -> list[float]:
        return [s.t for s in self.snapshots]

    def is_complete(self, T: float) -> bool:
        return self.error is None and self.snapshots and self.snapshots[-1].t == T


# ----------------------------------------------------------------------
# Criterion 1: stiffness bound by power iteration
# ----------------------------------------------------------------------

@dataclass
class PowerState:
    """Power-iteration state carried from one Euler step to the next.

    ``step`` keys the rounding sketch; ``vector`` is the last iterate of the
    previous step (``None`` for a cold start) and ``converged`` whether that
    step's stop rule fired rather than the iteration reaching
    ``power_max_iters``.  Both are written by :func:`power_iteration_bound`.
    """

    step: int = 0
    vector: TensorTrain | None = None
    converged: bool = True


def _philox(seed: int, word: int, counter: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        key=np.array([seed & 0xFFFFFFFFFFFFFFFF, word], dtype=np.uint64),
        counter=np.array([0, 0, 0, counter], dtype=np.uint64)))


def _warm_start(Y: TensorTrain, state: PowerState | None) -> TensorTrain | None:
    """The previous step's iterate projected onto ``Y``'s degrees, or
    ``None`` on the first step and after a mode size grew."""
    prev = state.vector if state is not None else None
    if prev is None or any(p < m for p, m in zip(prev.mode_sizes, Y.mode_sizes)):
        return None
    return project_degree(prev, [m - 1 for m in Y.mode_sizes])


def power_iteration_bound(y: SolutionSnapshot, space: PolySpace,
                          cfg: SolverConfig, state: PowerState | None = None,
                          side: StiffnessSide | None = None) -> tuple[float, int]:
    """Estimate ``|lambda| + 10^-(P + p)``, ``P = ceil(-log10 |lambda|)``, of
    the dominant absolute real eigenvalue of the locally linearized
    right-hand side ``H_Y`` at ``y``; returns ``(estimate, iterations)``.

    Iterates ``X <- R(H_Y X / |X|)`` with ``R`` the randomized rounding
    :func:`~tthjb.tt.tt_round_sketched` to ``y``'s ranks, through one
    Gaussian sketch per step (``SKETCH_OVERSAMPLING`` columns beyond each
    rank, Philox keyed by ``cfg.seed`` and the step index), so the map is
    deterministic and reruns are byte-identical.  The start is ``y``, or with
    ``state`` the previous step's last iterate projected onto ``y``'s
    degrees, blended with a seeded direction of relative size
    ``POWER_PERTURB`` and rounded exactly to ``y``'s ranks.

    After ``k`` iterations with Rayleigh quotients ``lambda_j``, ``m_k`` is
    the mean of ``|lambda_j|`` over ``j`` in ``[k // 2, k)``.  The iteration
    stops once ``|m_k - m_(k-1)| <= 10^-p_digits m_k``, which on a cold
    start (no usable previous iterate) may not happen before
    ``COLD_START_ITERS`` iterations, or at ``power_max_iters``; either way
    ``|lambda|`` is ``m_k``.  The mean stays put where the rank-capped
    sequence wanders.  This is an estimate, not a bound: ``H_Y`` is strongly
    non-normal, so a rank-capped iterate's Rayleigh quotient can land
    anywhere in a field of values reaching about 1.7 times the spectral
    radius, and no residual certifies it.  On the dense reference set
    (Gaussians at d = 4-6, seeds 0-3, default settings) it lies between
    -3.8% and +6.3% of the spectral radius.  ``state`` supplies the warm
    start and step index and receives the last iterate and whether the stop
    rule fired.  ``side`` is ``y``'s
    :func:`~tthjb.operators.prepare_stiffness`, when already computed.
    Returns 0.0 (flagged stationary) when the estimate vanishes; raises
    ``ValueError`` when it is not finite.
    """
    Y = y.coeffs
    warm = _warm_start(Y, state)
    start = Y if warm is None else warm
    floor = COLD_START_ITERS if warm is None else 2  # m_(k-1) needs k >= 2
    if state is not None:
        state.vector, state.converged = None, True
    if tt_norm(Y) == 0.0:
        return 0.0, 0
    if side is None:
        side = prepare_stiffness(Y, space)
    caps = Y.interior_ranks
    x = tt_scale(start, 1.0 / tt_norm(start))
    g = tt_random(Y.mode_sizes, Y.ranks, _philox(cfg.seed, 0x706F776572))
    g = tt_scale(g, POWER_PERTURB / tt_norm(g))
    x = tt_round(tt_add_scaled(x, g, 1.0), max_ranks=caps)
    step = state.step if state is not None else 0
    sketch_ranks = [1] + [r + SKETCH_OVERSAMPLING for r in Y.interior_ranks] + [1]
    sketch = tt_random(Y.mode_sizes, sketch_ranks, _philox(cfg.seed, 0x736B65746368, step))
    tol = 10.0 ** -cfg.p_digits
    hist: list[float] = []
    mean = 0.0
    converged = False
    for k in range(1, cfg.power_max_iters + 1):
        nx = tt_norm(x)
        if nx == 0.0:
            return 0.0, len(hist)
        xhat = tt_scale(x, 1.0 / nx)
        x = tt_round_sketched(apply_stiffness(side, xhat, space), sketch, caps)
        lam = tt_inner(xhat, x)
        if not math.isfinite(lam):
            raise ValueError(f"non-finite eigenvalue estimate {lam} "
                             "in the power iteration")
        if abs(lam) < STATIONARY_EPS:
            return 0.0, k
        hist.append(abs(lam))
        prev, mean = mean, float(np.mean(hist[k // 2:]))
        if k >= floor and abs(mean - prev) <= tol * mean:
            converged = True
            break
    if state is not None:
        state.vector, state.converged = x, converged
    eps_p = 10.0 ** (-(math.ceil(-math.log10(mean)) + cfg.p_digits))
    return mean + eps_p, len(hist)


def stepsize_stiffness(lambda_bar: float, rho: float) -> float:
    """Maximal stable explicit step ``2 rho / |lambda|`` (inf if flagged 0)."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if lambda_bar == 0.0:
        return math.inf
    return 2.0 * rho / abs(lambda_bar)


# ----------------------------------------------------------------------
# Criteria 2 and 3: projection and retraction bounds
# ----------------------------------------------------------------------

def _step_quantities(y: SolutionSnapshot, space: PolySpace,
                     side: StiffnessSide | None = None) -> tuple[TensorTrain, float]:
    """Right-hand side at ``y`` and the relative degree-projection error
    ``|(I - P) NL| / |NL|`` of its nonlinear part.  ``side`` is ``y``'s
    :func:`~tthjb.operators.prepare_stiffness`, when already computed."""
    degrees = [m - 1 for m in y.coeffs.mode_sizes]
    nl, _ = apply_nonlin_linearized(y.coeffs if side is None else side, y.coeffs, space)
    nl_norm, dropped = projection_norms(nl, degrees)
    rel = dropped / nl_norm if dropped > PROJECTION_EPS * nl_norm else 0.0
    rhs = tt_add_scaled(apply_lin(y.coeffs, space), project_degree(nl, degrees), 1.0)
    return rhs, rel


def stepsize_projection(rel_proj: float, cfg: SolverConfig) -> float:
    """Step bound ``delta_proj / rel_proj`` keeping the relative projection
    error below delta_proj, or ``tau_max`` when the projection is exact."""
    return cfg.tau_max if rel_proj == 0.0 else cfg.delta_proj / rel_proj


def _retraction_rel_err(y: TensorTrain, rhs: TensorTrain, tau: float,
                        target_ranks, delta_contr: float) -> tuple[TensorTrain, float]:
    """The step's retraction: ``y + tau rhs`` rounded to ``target_ranks`` at
    relative ``delta_contr``, and its relative Frobenius error."""
    return tt_round_with_error(tt_add_scaled(y, rhs, tau), tol=delta_contr,
                               max_ranks=target_ranks)


def stepsize_retraction(y: SolutionSnapshot, rhs: TensorTrain, target_ranks,
                        tau_cap: float, cfg: SolverConfig) -> tuple[float, SolutionSnapshot]:
    """Largest step in (0, tau_cap] whose retraction stays below delta_rank
    in relative Frobenius norm, and the step it takes.

    The retraction judged is the one the step takes: ``y + tau rhs`` rounded
    to ``target_ranks`` at relative ``cfg.delta_contr``.  The search probes
    ``tau_cap`` first (in the solve, the smallest of the other bounds) and
    returns it when it holds.  Otherwise it halves from the cap until
    satisfied (at most 40 halvings), then bisects between the satisfying
    step and the failing one above it to relative width 1e-2 (at most 20
    bisections) and returns the best satisfying value, which it has
    evaluated last among the satisfying ones, with its rounding.
    """
    if tau_cap <= 0:
        raise ValueError("tau_cap must be positive")
    kept = None

    def ok(tau):
        nonlocal kept
        rounded, err = _retraction_rel_err(y.coeffs, rhs, tau, target_ranks,
                                           cfg.delta_contr)
        if err > cfg.delta_rank:
            return False
        kept = rounded
        return True

    def step(tau):
        return tau, SolutionSnapshot(t=y.t + tau, coeffs=kept)

    if ok(tau_cap):
        return step(tau_cap)
    lo = tau_cap
    for _ in range(40):
        lo *= 0.5
        if ok(lo):
            break
    else:
        raise RankBudgetError(
            "retraction error exceeds delta_rank even at tau_cap * 2^-40; "
            "the rank budget is too small for this state")
    hi = 2.0 * lo
    for _ in range(20):
        if (hi - lo) / lo <= 1e-2:
            break
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return step(lo)


# ----------------------------------------------------------------------
# One Euler step and the re-compression stages
# ----------------------------------------------------------------------

def euler_step(y: SolutionSnapshot, tau: float, target_ranks,
               space: PolySpace, delta_contr: float = 0.0) -> SolutionSnapshot:
    """Single explicit Euler step with retraction.

    The intermediate tensor has interior ranks at most ``3r + 2r^2``; it is
    retracted to ``target_ranks`` and rounded at relative ``delta_contr``.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    rhs, _ = _step_quantities(y, space)
    rounded, _ = _retraction_rel_err(y.coeffs, rhs, tau, target_ranks, delta_contr)
    return SolutionSnapshot(t=y.t + tau, coeffs=rounded)


def degree_truncate(y: SolutionSnapshot, delta_contr: float) -> SolutionSnapshot:
    """Drop top polynomial degrees whose coefficient slices carry at most
    ``delta_contr`` in (absolute) Frobenius norm.

    Repeats until no slice qualifies.  Degrees never drop below 2: the
    stationary standard-normal potential is quadratic.  When nothing drops
    the result is ``y`` itself, so a rounding's orthogonality marker stays.
    """
    cores = list(y.coeffs.cores)
    changed = True
    while changed:
        changed = False
        for k, centre in enumerate(tt_centres(TensorTrain._trusted(cores))):
            if cores[k].shape[1] > 3 and np.linalg.norm(centre[:, -1]) <= delta_contr:
                cores[k] = cores[k][:, :-1, :]
                changed = True
                break
    if tuple(c.shape[1] for c in cores) == y.coeffs.mode_sizes:
        return y
    return SolutionSnapshot(t=y.t, coeffs=TensorTrain._trusted(cores))


def _rank_caps(Y: TensorTrain, r0) -> list[int]:
    """Interior rank caps ``max(current, 2)`` bounded by ``max(r0, 2)``."""
    return np.minimum(np.maximum(Y.interior_ranks, 2), np.maximum(r0, 2)).tolist()


def rank_adapt(y: SolutionSnapshot, r0, delta_contr: float) -> SolutionSnapshot:
    """Retract to ``max(current, 2)`` capped by ``max(initial, 2)`` and round
    at relative ``delta_contr`` in a single pass.

    The solve does not call it: its retraction already rounds each step to
    these caps at ``delta_contr``.  It stays because perfbench's tracer wraps
    it by name."""
    rounded = tt_round(y.coeffs, tol=delta_contr, max_ranks=_rank_caps(y.coeffs, r0))
    return SolutionSnapshot(t=y.t, coeffs=rounded)


# ----------------------------------------------------------------------
# The solve loop
# ----------------------------------------------------------------------

def _diag_record(step, snap, tau, tau_lambda, tau_proj, lambda_bar, power_iters,
                 power_converged, binding, space, wall_ms):
    return {
        "step": step,
        "t": snap.t,
        "tau": tau,
        "tau_lambda": tau_lambda,
        "tau_proj": tau_proj,
        "lambda_bar": lambda_bar,
        "power_iters": power_iters,
        "power_converged": power_converged,
        "binding": binding,
        "ranks": list(snap.ranks),
        "degrees": list(snap.degrees),
        "cov_err": covariance_error(snap, space),
        "wall_ms": wall_ms,
    }


def solve_hjb(phi: TensorTrain, space: PolySpace, cfg: SolverConfig) -> Trajectory:
    """Integrate the coefficient ODE from the potential to time ``T``.

    Every accepted step satisfies all three step-size criteria.  Its new
    state is the rounding the retraction search accepted, whose top degrees
    are then trimmed (:func:`degree_truncate`).  On failure (non-finite
    state, step underflow, rank budget) the partial trajectory is returned
    with ``error`` set.  Finiteness is checked once per accepted step; the
    operations inside a step do not validate their results.
    """
    snap = SolutionSnapshot(t=0.0, coeffs=phi)
    r0 = phi.interior_ranks
    traj = Trajectory(snapshots=[snap])
    power = PowerState()
    step = 0
    t = 0.0
    while t < cfg.T:
        started = time.perf_counter()
        try:
            power.step = step
            side = prepare_stiffness(snap.coeffs, space)  # H_Y's and NL's kernels
            lambda_bar, power_iters = power_iteration_bound(snap, space, cfg, power, side)
            tau_lambda = stepsize_stiffness(lambda_bar, cfg.rho_at(t))
            rhs, rel_proj = _step_quantities(snap, space, side)
            tau_proj = stepsize_projection(rel_proj, cfg)
            target = _rank_caps(snap.coeffs, r0)
            remaining = cfg.T - t
            tau_cap = min(cfg.tau_max, tau_lambda, tau_proj, remaining)
            tau, new = stepsize_retraction(snap, rhs, target, tau_cap, cfg)
            bounds = {"tau_max": cfg.tau_max, "stiffness": tau_lambda,
                      "projection": tau_proj, "horizon": remaining}
            binding = "rank" if tau < tau_cap else min(bounds, key=bounds.get)
            # a criterion-forced collapse aborts; a float-dust sliver left
            # over from reaching the horizon does not
            if tau < 1e-12 * cfg.T and tau < remaining:
                raise StepUnderflowError(f"step size underflow at t={t}: tau={tau}")
            new = degree_truncate(new, cfg.delta_contr)
            if tau == remaining:
                new = SolutionSnapshot(t=cfg.T, coeffs=new.coeffs)
            check_finite(new.coeffs)
        except (RankBudgetError, StepUnderflowError, ValueError) as exc:
            traj.error = f"{type(exc).__name__}: {exc}"
            return traj
        wall_ms = (time.perf_counter() - started) * 1e3
        step += 1
        snap = new
        t = snap.t
        traj.snapshots.append(snap)
        traj.diagnostics.append(_diag_record(
            step, snap, tau, tau_lambda, tau_proj, lambda_bar, power_iters,
            power.converged, binding, space, wall_ms))
    return traj

