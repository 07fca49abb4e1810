"""Command-line front end: solve, sample and verify subcommands.

Configs are JSON (schema below); per-step diagnostics stream to JSONL and
snapshots are persisted in the binary TTCK format, tied together by a
manifest.  Reruns with the same config and seed produce byte-identical
outputs; per-step wall times are therefore written as ``null`` unless
``--timings`` is passed.

Config schema::

    {
      "space": {"dims": d, "intervals": [[a, b], ...], "degrees": [n, ...]},
      "potential": {"terms": [...], "builtins": [...]},
      "solver": {"T": ..., "tau_max": ..., "rho": ... | [[t, rho], ...],
                 "delta_proj": ..., "delta_rank": ..., "delta_contr": ...,
                 "p_digits": ..., "power_max_iters": ..., "seed": ...},
      "sampler": {"lambda": ..., "n_particles": ..., "langevin_steps": ...,
                  "langevin_tau": ..., "seed": ...,
                  "clamp_to_domain": false},                  # optional
      "output_dir": "path"
    }

The ``solver`` and ``sampler`` keys are the fields of ``SolverConfig`` and
``SamplerConfig`` with their defaults (``lambda`` names ``lam``, and the
sampler seed defaults to the solver seed).  A ``terms`` entry is
``{"coords", "poly": [{"exps", "coef"}, ...]}`` and a ``builtins`` entry
``{"name", "coords", "params"}``: ``gaussian`` takes n coords and an n x n
``Q``, ``banana`` 2 coords and a 2 x 2 ``sigma``, ``doublewell`` and
``sextic`` 2 coords, ``iso_tail`` any.  Coords (distinct per entry) and exps
are integers >= 0.  The number rule: an integer field takes a JSON number
with no fractional part, any other number a finite one, never a bool or a
string.  Unknown and missing keys, down to ``params``, are config errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import typing

import numpy as np

from . import oracles
from .basis import PolySpace
from .integrate import SolverConfig, SolutionSnapshot, Trajectory, solve_hjb
from .operators import BUILTINS, PotentialSpec, PotentialTerm, apply_lin, \
    apply_nonlin, build_potential_tt, covariance_error, poly_multiply, project_degree
from .sample import NORMAL_TRANSFORM, SamplerConfig, eval_v_batch, reverse_sample
from .tt import TensorTrain, read_checkpoint, tt_centres, tt_from_dense, tt_random, \
    tt_to_dense, write_checkpoint


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path, self.message = path, message


def _require(obj, key, path, typ=None):
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required field")
    val = obj[key]
    if typ is not None and not isinstance(val, typ):
        raise ConfigError(f"{path}.{key}", f"expected {typ}")
    return val


def _check_keys(obj: dict, known, path: str):
    """``obj`` must be an object with keys from ``known``; ``_require``
    reads the required ones."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    for key in obj:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown key")


_KINDS = {bool: "true or false", int: "an integer", float: "a finite number"}


def _cast(value, typ, path):
    """``value`` as ``typ`` by the number rule above (a bool field takes only
    ``true``/``false``); other types pass unchanged."""
    if typ not in _KINDS:
        return value
    # the bound rejects inf, nan and integers beyond the float range
    if not (isinstance(value, bool) if typ is bool else type(value) in (int, float)
            and abs(value) <= sys.float_info.max and (typ is float or value % 1 == 0)):
        raise ConfigError(path, f"expected {_KINDS[typ]}, got {value!r}")
    return typ(value)


def _floats(value, shape: tuple, path: str):
    """Nested lists of finite floats of the given shape, faults at ``path``."""
    if not shape:
        return _cast(value, float, path)
    if not (isinstance(value, list) and len(value) == shape[0]):
        raise ConfigError(path, f"expected a list of {shape[0]}, got {value!r}")
    return [_floats(v, shape[1:], path) for v in value]


def _naturals(values: list, path: str, distinct=False) -> tuple[int, ...]:
    """The entries of ``values`` as integers >= 0, distinct if asked."""
    out = tuple(_cast(v, int, f"{path}[{k}]") for k, v in enumerate(values))
    for k, v in enumerate(out):
        if v < 0:
            raise ConfigError(f"{path}[{k}]", f"expected an integer >= 0, got {v}")
    if distinct and len(set(out)) != len(out):
        raise ConfigError(path, "coordinates must be distinct")
    return out


def _read_term(term, path: str) -> PotentialTerm:
    _check_keys(term, ("coords", "poly"), path)
    coords = _naturals(_require(term, "coords", path, list), f"{path}.coords", True)
    poly = {}
    for j, entry in enumerate(_require(term, "poly", path, list)):
        where = f"{path}.poly[{j}]"
        _check_keys(entry, ("exps", "coef"), where)
        exps = _naturals(_require(entry, "exps", where, list), f"{where}.exps")
        if len(exps) != len(coords):
            raise ConfigError(f"{where}.exps", "expected one exponent per coordinate")
        coef = _cast(_require(entry, "coef", where), float, f"{where}.coef")
        poly[exps] = poly.get(exps, 0.0) + coef
    return PotentialTerm(coords=coords, poly=poly)


def _read_builtin(builtin, path: str) -> dict:
    """In order: keys, name, ``params`` keys, coords, each param's shape."""
    _check_keys(builtin, ("name", "coords", "params"), path)
    name = _require(builtin, "name", path, str)
    if name not in BUILTINS:
        raise ConfigError(f"{path}.name", f"unknown builtin potential {name!r}")
    shapes, count, _ = BUILTINS[name]
    params = builtin.get("params", {})
    _check_keys(params, shapes, f"{path}.params")
    params = {key: _require(params, key, f"{path}.params") for key in shapes}
    coords = _naturals(_require(builtin, "coords", path, list), f"{path}.coords", True)
    n = len(coords)
    if count not in (None, n):
        raise ConfigError(f"{path}.coords", f"{name} takes {count} coordinates, got {n}")
    return {"name": name, "coords": coords, "params": {
        key: _floats(params[key], tuple(n if s == "n" else s for s in shape),
                     f"{path}.params.{key}") for key, shape in shapes.items()}}


def _schedule(value, _, path):
    """``solver.rho``: one number, or a list of ``[t, rho]`` number pairs."""
    if not isinstance(value, list):
        return _cast(value, float, path)
    return [_floats(v, (2,), f"{path}[{k}]") for k, v in enumerate(value)]


def _read_dataclass(cls, obj, path: str, renames: dict, readers=None, **fallbacks):
    """Build dataclass ``cls`` from the config section ``obj``: one key per
    field (named as in ``renames`` where given), cast to the field's type,
    or read by ``readers[field](value, type, path)`` where given.  A field
    without a default is required; any other missing field takes its value
    from ``fallbacks``, else its default."""
    types = typing.get_type_hints(cls)
    fields = {renames.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    _check_keys(obj, fields, path)
    kwargs = dict(fallbacks)
    for key, f in fields.items():
        if key in obj or f.default is dataclasses.MISSING:
            read = (readers or {}).get(f.name, _cast)
            kwargs[f.name] = read(_require(obj, key, path), types[f.name], f"{path}.{key}")
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_run_config(obj: dict):
    """Validate a run config and build the typed pieces; without a
    ``sampler`` section the sampler takes its defaults."""
    _check_keys(obj, ("space", "potential", "solver", "sampler", "output_dir"), "$")
    spc = _require(obj, "space", "$", dict)
    _check_keys(spc, ("dims", "intervals", "degrees"), "space")
    d = _cast(_require(spc, "dims", "space"), int, "space.dims")
    intervals = _require(spc, "intervals", "space", list)
    degrees = _require(spc, "degrees", "space", list)
    if len(intervals) != d or len(degrees) != d:
        raise ConfigError("space", "intervals and degrees must list one entry per dim")
    bounds = [_floats(v, (2,), f"space.intervals[{i}]") for i, v in enumerate(intervals)]
    for i, (a, b) in enumerate(bounds):
        if not a < b:
            raise ConfigError(f"space.intervals[{i}]", "need [a, b] with a < b")
    space = PolySpace(bounds, _naturals(degrees, "space.degrees"))
    pot = _require(obj, "potential", "$", dict)
    _check_keys(pot, ("terms", "builtins"), "potential")
    sections = {}
    for key, read in (("terms", _read_term), ("builtins", _read_builtin)):
        entries = _require(pot, key, "potential", list) if key in pot else []
        sections[key] = [read(e, f"potential.{key}[{i}]") for i, e in enumerate(entries)]
    potential = PotentialSpec(**sections)

    solver = _read_dataclass(SolverConfig, _require(obj, "solver", "$"), "solver", {},
                             {"rho": _schedule})
    smp = obj.get("sampler")
    sampler = _read_dataclass(SamplerConfig, {} if smp is None else smp, "sampler",
                              {"lam": "lambda"}, seed=solver.seed)

    output_dir = _require(obj, "output_dir", "$", str)
    return space, potential, solver, sampler, output_dir


def _potential_floor_check(phi: TensorTrain):
    """Reject potentials that cannot define a normalizable density: every
    dimension must carry coefficient mass at degree >= 2."""
    centres = list(tt_centres(phi))
    total = np.linalg.norm(centres[0])
    if total == 0.0:
        raise ConfigError("potential", "potential is identically zero")
    for k, centre in enumerate(centres):
        if phi.mode_sizes[k] < 3:
            raise ConfigError("potential", f"dimension {k} has no quadratic part")
        if np.linalg.norm(centre[:, 2:]) <= 1e-12 * total:
            raise ConfigError(
                "potential", f"dimension {k} has no quadratic part "
                "(density potential floor check)")


def _json_value(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _diag_line(rec: dict, timings: bool) -> str:
    out = {k: _json_value(v) for k, v in rec.items()}
    if not timings:
        out["wall_ms"] = None
    return json.dumps(out, sort_keys=True)


def cmd_solve(config_path: str, stride: int = 1, timings: bool = False) -> int:
    if stride < 1:
        print(f"invalid solve option: --stride: expected an integer >= 1, got {stride}",
              file=sys.stderr)
        return 1
    try:
        with open(config_path, "rb") as fh:
            raw = fh.read()
        obj = json.loads(raw)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"config error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 1
    try:
        space, potential, solver, _, output_dir = parse_run_config(obj)
        phi = build_potential_tt(potential, space)
        _potential_floor_check(phi)
    except (ConfigError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1

    os.makedirs(output_dir, exist_ok=True)
    traj = solve_hjb(phi, space, solver)

    files = {}
    for idx, snap in enumerate(traj.snapshots):
        if idx % stride and idx != len(traj.snapshots) - 1:
            continue
        name = f"snapshot_{idx}.ttck"
        write_checkpoint(os.path.join(output_dir, name), snap.coeffs, snap.t)
        files[name] = snap.t
    diag_path = os.path.join(output_dir, "diagnostics.jsonl")
    with open(diag_path, "w") as fh:
        for rec in traj.diagnostics:
            fh.write(_diag_line(rec, timings) + "\n")

    last = traj.snapshots[-1]
    manifest = {
        "config_hash": hashlib.sha256(raw).hexdigest(),
        "config": obj,
        "T": solver.T,
        "times": traj.times,
        "files": files,
        "diagnostics": "diagnostics.jsonl",
        "final_time": last.t,
        "final_ranks": list(last.ranks),
        "final_degrees": list(last.degrees),
        "final_cov_err": covariance_error(last, space),
        "error": traj.error,
    }
    with open(os.path.join(output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if traj.error is not None:
        print(f"solver aborted: {traj.error}", file=sys.stderr)
        return 2
    print(f"solved to T={last.t} in {len(traj.snapshots) - 1} steps; "
          f"final ranks {list(last.ranks)}; outputs in {output_dir}")
    return 0


def _load_trajectory(files, manifest_dir: str, space: PolySpace) -> Trajectory:
    """Read the snapshots ``files`` maps to their times; ``ValueError`` when
    a file's stored time is not the one the manifest lists for it, or its
    tensor has not one core per dimension of ``space``."""
    snaps = []
    for name, listed in files.items():
        tt, t = read_checkpoint(os.path.join(manifest_dir, name))
        if tt.d != space.d:
            raise ValueError(f"{name} holds {tt.d} cores, the manifest's space "
                             f"has d={space.d}")
        if t != listed:
            raise ValueError(f"{name} holds t={t!r}, the manifest lists t={listed!r}")
        snaps.append(SolutionSnapshot(t=t, coeffs=tt))
    snaps.sort(key=lambda s: s.t)
    return Trajectory(snapshots=snaps)


def cmd_sample(manifest_path: str, particles=None, lam=None, langevin_steps=None,
               langevin_tau=None, seed=None) -> int:
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        space, _, solver, sampler, _ = parse_run_config(manifest["config"])
        files = manifest["files"]
        if not isinstance(files, dict):
            raise ValueError("files must map snapshot names to times")
    except (OSError, ValueError, KeyError, ConfigError) as exc:
        print(f"cannot load manifest: {exc}", file=sys.stderr)
        return 1
    if manifest.get("error"):
        print(f"manifest records a solver abort: {manifest['error']}", file=sys.stderr)
        return 2
    overrides = {("n_particles", "--particles"): particles, ("lam", "--lambda"): lam,
                 ("langevin_steps", "--langevin-steps"): langevin_steps,
                 ("langevin_tau", "--langevin-tau"): langevin_tau, ("seed", "--seed"): seed}
    types = typing.get_type_hints(SamplerConfig)
    try:
        sampler = dataclasses.replace(sampler, **{
            name: _cast(value, types[name], flag)
            for (name, flag), value in overrides.items() if value is not None})
    except ConfigError as exc:
        print(f"invalid sampler option: {exc.path}: {exc.message}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid sampler option: {exc}", file=sys.stderr)
        return 1

    out_dir = os.path.dirname(os.path.abspath(manifest_path))
    try:
        traj = _load_trajectory(files, out_dir, space)
    except (OSError, ValueError) as exc:
        print(f"cannot load snapshot: {exc}", file=sys.stderr)
        return 1
    try:
        batch = reverse_sample(traj, space, sampler, solver)
    except (ValueError, RuntimeError) as exc:
        print(f"cannot sample: {exc}", file=sys.stderr)
        return 1

    csv_path = os.path.join(out_dir, "samples.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(batch.samples.shape[1])] + ["flags"])
        for row, oob, bad in zip(batch.samples, batch.oob_counts, batch.aborted):
            flag = -1 if bad else int(oob)
            writer.writerow([repr(float(v)) for v in row] + [flag])
    meta = {
        "seed": sampler.seed,
        "lambda": sampler.lam,
        "langevin_steps": sampler.langevin_steps,
        "langevin_tau": sampler.langevin_tau,
        "n_particles": sampler.n_particles,
        "normal_transform": NORMAL_TRANSFORM,
        "grid": batch.times,
        "aborted": int(batch.aborted.sum()),
        "out_of_domain_total": int(batch.oob_counts.sum()),
        "frozen_per_step": batch.frozen_per_step,
        "out_of_domain_per_step": batch.out_of_domain_per_step,
        "max_score_norm_per_step": batch.max_score_norm_per_step,
    }
    with open(os.path.join(out_dir, "sample_metadata.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {batch.samples.shape[0]} samples to {csv_path}")
    return 0


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------

def _report(rows) -> int:
    width = max(len(r[0]) for r in rows)
    ok = True
    for name, value, threshold, passed in rows:
        ok &= passed
        print(f"{name:<{width}}  measured={value:<12.4e} threshold={threshold:<10.3e} "
              f"{'PASS' if passed else 'FAIL'}")
    print("all checks passed" if ok else "FAILURES present")
    return 0 if ok else 1


def _suite_eigen() -> int:
    from .integrate import power_iteration_bound

    rows = []
    checks = [((2.0,), 6.0), ((0.5, 0.5), 0.0), ((1.0, 2.0, 3.0), 18.0)]
    for diag, expect in checks:
        rows.append((f"formula a={diag}",
                     oracles.gaussian_eigen_bound(diag), 1e-12,
                     abs(oracles.gaussian_eigen_bound(diag) - expect) <= 1e-12))
    rng = np.random.default_rng(7)
    for trial in range(3):
        d = trial + 1
        diag = rng.uniform(0.8, 3.0, size=d)
        space = PolySpace([(-5.0, 5.0)] * d, [2] * d)
        phi = build_potential_tt(PotentialSpec(terms=[], builtins=[
            {"name": "gaussian", "coords": tuple(range(d)),
             "params": {"Q": (np.diag(diag) / 2.0).tolist()}}]), space)
        cfg = SolverConfig(T=1.0, tau_max=0.1, seed=11 + trial,
                           p_digits=4, power_max_iters=400)
        lam, _ = power_iteration_bound(SolutionSnapshot(0.0, phi), space, cfg)
        bound = oracles.gaussian_eigen_bound(diag)
        rel = abs(lam - bound) / bound
        rows.append((f"power iteration d={d}", rel, 1e-2, rel <= 1e-2))
    return _report(rows)


def _suite_operators() -> int:
    rng = np.random.default_rng(123)
    d = 3
    space = PolySpace([(-2.0, 2.0)] * d, [3] * d)
    rows = []
    for trial in range(3):
        dense = rng.standard_normal(space.mode_sizes)
        tt = tt_from_dense(dense, 0.0)
        lin_tt = tt_to_dense(apply_lin(tt, space))
        lin_ref = oracles.dense_lin(dense, space)
        err = np.linalg.norm(lin_tt - lin_ref) / np.linalg.norm(lin_ref)
        rows.append((f"linear operator trial {trial}", err, 1e-9, err <= 1e-9))
        nl_tt, _ = apply_nonlin(tt, space)
        nl_ref = oracles.dense_nonlin(dense, space)
        err = np.linalg.norm(tt_to_dense(nl_tt) - nl_ref) / np.linalg.norm(nl_ref)
        rows.append((f"nonlinear operator trial {trial}", err, 1e-9, err <= 1e-9))
        prod, _ = poly_multiply(tt, tt, space)
        prod_ref = oracles.dense_multiply(dense, dense, space)
        err = np.linalg.norm(tt_to_dense(prod) - prod_ref) / np.linalg.norm(prod_ref)
        rows.append((f"product trial {trial}", err, 1e-9, err <= 1e-9))
        proj = project_degree(nl_tt, space.degrees)
        proj_ref = oracles.dense_project(nl_ref, space.degrees)
        err = np.linalg.norm(tt_to_dense(proj) - proj_ref) / np.linalg.norm(proj_ref)
        rows.append((f"projection trial {trial}", err, 1e-9, err <= 1e-9))
    # degree 8 (products of degree 16), checked pointwise
    space = PolySpace([(-2.0, 2.0), (-5.0, 5.0), (-1.0, 3.0)], [8] * d)
    a, b = (tt_random(space.mode_sizes, (1, 2, 2, 1), rng) for _ in range(2))
    prod, prod_space = poly_multiply(a, b, space)
    pts = rng.uniform(*np.array(space.intervals).T, size=(50, d))
    expect = (eval_v_batch(SolutionSnapshot(0.0, a), space, pts)
              * eval_v_batch(SolutionSnapshot(0.0, b), space, pts))
    got = eval_v_batch(SolutionSnapshot(0.0, prod), prod_space, pts)
    err = float(np.max(np.abs(got - expect)) / np.max(np.abs(expect)))
    rows.append(("pointwise product degree 8", err, 1e-12, err <= 1e-12))
    return _report(rows)


def _suite_gaussian() -> int:
    d = 3
    rng = np.random.default_rng(42)
    a = rng.uniform(0.0, 1.0, size=(d, d))
    qmat = a.T @ a + 0.1 * np.eye(d)
    space = PolySpace([(-5.0, 5.0)] * d, [2] * d)
    spec = PotentialSpec(builtins=[{"name": "gaussian", "coords": tuple(range(d)),
                                    "params": {"Q": qmat.tolist()}}])
    phi = build_potential_tt(spec, space)
    cfg = SolverConfig(T=12.0, tau_max=0.1, rho=0.2, seed=5)
    traj = solve_hjb(phi, space, cfg)
    rows = []
    final = traj.snapshots[-1]
    cov = covariance_error(final, space)
    rows.append(("final covariance error", cov, 1e-9, cov <= 1e-9))
    ranks_ok = all(r <= 2 for r in final.coeffs.interior_ranks)
    rows.append(("final interior ranks <= 2", float(max(final.coeffs.interior_ranks)),
                 2.0, ranks_ok))
    from .operators import extract_quadratic
    mid = traj.snapshots[len(traj.snapshots) // 4]
    _, _, q_mid = extract_quadratic(mid.coeffs, space)
    q_ref = oracles.riccati_reference(qmat, mid.t)
    err = np.linalg.norm(q_mid - q_ref) / np.linalg.norm(q_ref)
    rows.append((f"Riccati agreement at t={mid.t:.3f}", err, 0.05, err <= 0.05))
    return _report(rows)


def _suite_quadrature() -> int:
    spec = PotentialSpec(builtins=[{"name": "doublewell", "coords": (0, 1),
                                    "params": {}}])
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, size=(20, 2))
    rows = []
    _, g80 = oracles.quadrature_scorer_2d(spec, 80, (-5.0, 5.0))(0.5, pts)
    _, g200 = oracles.quadrature_scorer_2d(spec, 200, (-5.0, 5.0))(0.5, pts)
    err = float(np.max(np.abs(g80 - g200) / (1.0 + np.abs(g200))))
    rows.append(("self-convergence Q=80 vs Q=200", err, 1e-6, err <= 1e-6))
    _, g100 = oracles.quadrature_scorer_2d(spec, 100, (-5.0, 5.0))(0.5, pts)
    _, g100b = oracles.quadrature_scorer_2d(spec, 100, (-6.0, 6.0))(0.5, pts)
    err = float(np.max(np.abs(g100 - g100b)))
    rows.append(("domain enlargement invariance", err, 1e-6, err <= 1e-6))
    _, g50 = oracles.quadrature_scorer_2d(spec, 50, (-5.0, 5.0))(0.5, pts)
    _, g3 = oracles.quadrature_scorer_2d(spec, 3, (-5.0, 5.0))(0.5, pts)
    dev = float(np.max(np.abs(g3 - g50) / (1.0 + np.abs(g50))))
    rows.append(("Q=3 materially deviates", dev, 0.1, dev > 0.1))
    return _report(rows)


_SUITES = {"gaussian": _suite_gaussian, "operators": _suite_operators,
           "eigen": _suite_eigen, "quadrature": _suite_quadrature}


def cmd_verify(suite: str) -> int:
    fn = _SUITES.get(suite)
    if fn is None:
        print(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}",
              file=sys.stderr)
        return 1
    return fn()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tthjb",
                                     description="Low-rank HJB solve and sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="integrate a config to its horizon")
    p_solve.add_argument("config")
    p_solve.add_argument("--stride", type=int, default=1,
                         help="write every N-th snapshot (default all)")
    p_solve.add_argument("--timings", action="store_true",
                         help="record wall times in diagnostics "
                              "(breaks byte-reproducibility)")

    p_sample = sub.add_parser("sample", help="sample from a completed solve")
    p_sample.add_argument("manifest")
    p_sample.add_argument("--particles", type=int)
    p_sample.add_argument("--lambda", dest="lam", type=float)
    p_sample.add_argument("--langevin-steps", type=int)
    p_sample.add_argument("--langevin-tau", type=float)
    p_sample.add_argument("--seed", type=int)

    p_verify = sub.add_parser("verify", help="run an oracle suite")
    p_verify.add_argument("suite")

    args = parser.parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args.config, stride=args.stride, timings=args.timings)
    if args.command == "sample":
        return cmd_sample(args.manifest, particles=args.particles, lam=args.lam,
                          langevin_steps=args.langevin_steps,
                          langevin_tau=args.langevin_tau, seed=args.seed)
    if args.command == "verify":
        return cmd_verify(args.suite)
    parser.error("unknown command")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
