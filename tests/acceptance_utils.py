"""Shared helpers for the acceptance suite (reference samplers, statistics)."""

import numpy as np


def metropolis_samples(spec, n, seed, steps=400, proposal=0.6, init_box=2.0):
    """Long-run random-walk Metropolis targeting exp(-spec); one chain per
    returned sample, overdispersed uniform initialization."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-init_box, init_box, (n, 2))
    logp = -spec.evaluate(x)
    for _ in range(steps):
        cand = x + proposal * rng.standard_normal((n, 2))
        logc = -spec.evaluate(cand)
        accept = np.log(rng.random(n)) < logc - logp
        x[accept] = cand[accept]
        logp[accept] = logc[accept]
    return x


def energy_distances(xs, y, chunk=2000):
    """Energy distance 2 E|X-Y| - E|X-X'| - E|Y-Y'| (V-statistic) of each
    sample set X in ``xs`` to the reference ``y``, whose self term E|Y-Y'| is
    computed once.  Squared distances come in Gram form, |a|^2 + |b|^2 -
    2 a.b through one matrix product per chunk, clipped at 0 against
    round-off before the root."""
    def mean_dist(a, b):
        b_sq = np.einsum("ij,ij->i", b, b)
        total = 0.0
        for i in range(0, len(a), chunk):
            rows = a[i:i + chunk]
            sq = rows @ b.T
            sq *= -2.0
            sq += np.einsum("ij,ij->i", rows, rows)[:, None]
            sq += b_sq
            np.maximum(sq, 0.0, out=sq)
            total += np.sqrt(sq, out=sq).sum()
        return total / (len(a) * len(b))
    yy = mean_dist(y, y)
    return [2 * mean_dist(x, y) - mean_dist(x, x) - yy for x in xs]


def kde_mode_count(samples, grid_points=400, floor_frac=0.05):
    """Number of local maxima of a Gaussian KDE (Scott bandwidth) above a
    fraction of the global peak."""
    x = np.asarray(samples, dtype=np.float64)
    h = 1.06 * np.std(x) * len(x) ** -0.2
    grid = np.linspace(x.min() - 3 * h, x.max() + 3 * h, grid_points)
    dens = np.exp(-0.5 * ((grid[:, None] - x[None, :]) / h) ** 2).sum(axis=1)
    peak = dens.max()
    count = 0
    for i in range(1, grid_points - 1):
        if dens[i] > dens[i - 1] and dens[i] > dens[i + 1] and dens[i] > floor_frac * peak:
            count += 1
    return count


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
