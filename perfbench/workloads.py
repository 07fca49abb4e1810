"""The benchmark's workloads: the inputs each one writes, the ``tthjb``
command it runs on them, and the checks its outputs must pass.

Each check returns rows ``(name, value, bound, passed)``.  Every reference
value comes from ``reference.py``, never from the program under test.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import tarfile

import numpy as np

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "data", "mixed6_trajectory.tar.gz")

# The README's d=6 mixed config (banana + doublewell + sextic, T=10).
MIXED6_INTERVALS = [[-5, 5], [-5, 5], [-2, 2], [-2, 2], [-5, 5], [-5, 5]]
MIXED6_CONFIG = {
    "space": {"dims": 6, "intervals": MIXED6_INTERVALS, "degrees": [4, 2, 4, 4, 6, 6]},
    "potential": {"builtins": [
        {"name": "banana", "coords": [0, 1], "params": {"sigma": [[1, 0.9], [0.9, 1]]}},
        {"name": "doublewell", "coords": [2, 3], "params": {}},
        {"name": "sextic", "coords": [4, 5], "params": {}}]},
    "solver": {"T": 10.0, "tau_max": 0.05, "rho": [[0.0, 0.001], [1e-6, 0.5]],
               "delta_proj": 0.01, "delta_rank": 0.01, "delta_contr": 1e-8,
               "seed": 7},
    "sampler": {"lambda": 0.0, "n_particles": 2000,
                "langevin_steps": 100, "langevin_tau": 0.005, "seed": 99},
    "output_dir": "out",
}

# The d=10 Gaussian of acceptance criterion 1.  The horizon keeps a solve at
# about 15 s: 9 steps, 5 of which end at the 200-iteration power cap.
GAUSS10_DIMS = 10
GAUSS10_Q_SEED = 20240501
GAUSS10_T = 0.005
# First-order Euler: the error scales with the step, here set by rho = 0.2
# through the stiffness bound.  It measures 1.3% at rho = 0.2 and 0.65% at
# rho = 0.1; three times today's error still rejects any operator fault,
# which shows as an O(1) error.
GAUSS10_RICCATI_TOL = 0.04

# Sampling: a few thousand particles and a few Langevin steps per reverse
# step on the stored 403-step trajectory; the sampler seed is --seed.
SAMPLE_PARTICLES = 2000
SAMPLE_LANGEVIN_STEPS = 3
SAMPLE_LANGEVIN_TAU = 0.005
# Doublewell coordinates x3 and x4 and the linear terms of their 1-D
# marginals, x^4 - 4x^2 - 0.4x and y^4 - 4y^2 + 0.1y.
DOUBLEWELL_COORDS = ((2, -0.4), (3, 0.1))
# Each bound is an allowance for the method's own bias (TT model plus finite
# reverse and Langevin steps) plus 5 standard errors of sampling noise.  Over
# 20 seeds at these settings the x3 mean was off by 0.075 and the x3 variance
# by 7.4% on average (x4: 0.030 and 1.0%); the allowances are about that
# bias, so the 5 standard errors are left for the noise around it.
STDERR_FACTOR = 5.0
MEAN_ALLOWANCE = 0.07
VAR_ALLOWANCE = 0.07  # relative to the reference variance

# Box the mixed6 final potential is compared on; fixed, not from --seed.
MIXED6_PROBE_POINTS = 512
MIXED6_POTENTIAL_TOL = 1e-3


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)


def digest(paths, base, extra=b""):
    """SHA-256 over ``extra`` and the names (relative to ``base``) and bytes
    of the given files."""
    h = hashlib.sha256(extra)
    for path in paths:
        h.update(os.path.relpath(path, base).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def files_under(top):
    """Regular files below ``top`` in sorted order, ``__pycache__`` skipped."""
    found = []
    for parent, dirs, names in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        found += [os.path.join(parent, n) for n in sorted(names)]
    return found


def _final_snapshot(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    name = max(manifest["files"], key=manifest["files"].get)
    cores, t = reference.read_ttck(os.path.join(out_dir, name))
    return manifest, cores, t


def _row(name, value, bound, passed):
    return (name, float(value), float(bound), bool(passed))


class _Solve:
    """``tthjb solve`` on a config written into the round directory."""

    def prepare(self, round_dir, seed):
        _write_json(os.path.join(round_dir, "config.json"), self.config())
        return ["solve", "config.json"]

    def outputs(self, round_dir):
        out = os.path.join(round_dir, "out")
        return [os.path.join(out, name) for name in sorted(os.listdir(out))]

    def check(self, round_dir):
        manifest, cores, t = _final_snapshot(os.path.join(round_dir, "out"))
        horizon = self.config()["solver"]["T"]
        rows = [_row("solver error is null", manifest["error"] is not None, 0,
                     manifest["error"] is None),
                _row("final time - T", t - horizon, 0, t == horizon)]
        return rows + self.check_final(cores)


class Mixed6Solve(_Solve):
    def config(self):
        return MIXED6_CONFIG

    def check_final(self, cores):
        """The OU flow ends at the standard normal: up to a constant, the
        final potential is |x|^2 / 2 on the whole box."""
        lo, hi = np.array(MIXED6_INTERVALS, float).T
        xs = np.random.default_rng(0).uniform(lo, hi, (MIXED6_PROBE_POINTS, lo.size))
        xs = np.vstack([np.zeros(lo.size), xs])
        vals = reference.tt_values(cores, MIXED6_INTERVALS, xs)
        dev = np.max(np.abs(vals - vals[0] - 0.5 * np.sum(xs ** 2, axis=1)))
        return [_row("max |v(x) - v(0) - |x|^2/2| on the box", dev,
                     MIXED6_POTENTIAL_TOL, dev <= MIXED6_POTENTIAL_TOL)]


def gauss10_q():
    rng = np.random.default_rng(GAUSS10_Q_SEED)
    a = rng.uniform(0.0, 1.0, (GAUSS10_DIMS, GAUSS10_DIMS))
    return a.T @ a + 0.1 * np.eye(GAUSS10_DIMS)


class Gauss10Solve(_Solve):
    def config(self):
        d = GAUSS10_DIMS
        return {
            "space": {"dims": d, "intervals": [[-5, 5]] * d, "degrees": [2] * d},
            "potential": {"builtins": [{"name": "gaussian", "coords": list(range(d)),
                                        "params": {"Q": gauss10_q().tolist()}}]},
            "solver": {"T": GAUSS10_T, "tau_max": 0.1, "rho": 0.2,
                       "delta_proj": 0.01, "delta_rank": 0.01,
                       "delta_contr": 1e-8, "seed": 5},
            "output_dir": "out",
        }

    def check_final(self, cores):
        """Quadratic coefficient against the closed-form Riccati flow."""
        _, _, q = reference.taylor_at_zero(cores, [(-5.0, 5.0)] * GAUSS10_DIMS)
        ref = reference.riccati_flow(gauss10_q(), GAUSS10_T)
        err = np.linalg.norm(q - ref) / np.linalg.norm(ref)
        return [_row("relative error of Q_T vs Riccati flow", err,
                     GAUSS10_RICCATI_TOL, err <= GAUSS10_RICCATI_TOL)]


class Mixed6Sample:
    """``tthjb sample`` on the stored mixed6-solve trajectory."""

    def prepare(self, round_dir, seed):
        with gzip.open(TRAJECTORY) as gz, tarfile.open(fileobj=gz) as tar:
            tar.extractall(os.path.join(round_dir, "traj"), filter="data")
        return ["sample", os.path.join("traj", "manifest.json"),
                "--particles", str(SAMPLE_PARTICLES), "--lambda", "0",
                "--langevin-steps", str(SAMPLE_LANGEVIN_STEPS),
                "--langevin-tau", str(SAMPLE_LANGEVIN_TAU), "--seed", str(seed)]

    def outputs(self, round_dir):
        return [os.path.join(round_dir, "traj", name)
                for name in ("samples.csv", "sample_metadata.json")]

    def check(self, round_dir):
        with open(os.path.join(round_dir, "traj", "samples.csv")) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        rows = [_row("samples.csv shape", data.shape[0],
                     SAMPLE_PARTICLES,
                     data.shape == (SAMPLE_PARTICLES, 7) and header[-1] == "flags")]
        frozen = int(np.sum(data[:, -1] == -1))
        rows.append(_row("frozen particles", frozen, 0, frozen == 0))
        n = data.shape[0]
        for col, lin in DOUBLEWELL_COORDS:
            mean, var, m4 = reference.quartic_moments(lin)
            x = data[:, col]
            bound = STDERR_FACTOR * np.sqrt(var / n) + MEAN_ALLOWANCE
            dev = abs(x.mean() - mean)
            rows.append(_row(f"|mean x{col + 1} - {mean:.4f}|", dev, bound, dev <= bound))
            bound = STDERR_FACTOR * np.sqrt((m4 - var ** 2) / n) + VAR_ALLOWANCE * var
            dev = abs(x.var(ddof=1) - var)
            rows.append(_row(f"|var x{col + 1} - {var:.4f}|", dev, bound, dev <= bound))
        return rows


WORKLOADS = {
    "mixed6-solve": Mixed6Solve(),
    "gauss10-solve": Gauss10Solve(),
    "mixed6-sample": Mixed6Sample(),
}
