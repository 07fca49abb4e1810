"""Deterministic test configuration."""

import numpy as np
import pytest
from hypothesis import settings

# The package guarantees byte-reproducible runs; keep the property tests
# reproducible across invocations too.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def poisoned_rank_adapt(monkeypatch):
    """Make every re-compressed solver state carry a NaN in its second core,
    as a non-finite value arising inside a step would."""
    import tthjb.integrate as integrate
    real = integrate.rank_adapt

    def poisoned(y, r0, delta_contr):
        out = real(y, r0, delta_contr)
        cores = [c.copy() for c in out.coeffs.cores]
        cores[1][0, 0, 0] = np.nan
        return integrate.SolutionSnapshot(out.t, integrate.TensorTrain._trusted(cores))

    monkeypatch.setattr(integrate, "rank_adapt", poisoned)
