"""Deterministic test configuration."""

import numpy as np
import pytest
from hypothesis import settings

# The package guarantees byte-reproducible runs; keep the property tests
# reproducible across invocations too.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def poisoned_degree_truncate(monkeypatch):
    """Make every degree-trimmed solver state (a step's last stage) carry a
    NaN in its second core, as a non-finite value arising inside a step
    would."""
    import tthjb.integrate as integrate
    real = integrate.degree_truncate

    def poisoned(y, delta_contr):
        out = real(y, delta_contr)
        cores = [c.copy() for c in out.coeffs.cores]
        cores[1][0, 0, 0] = np.nan
        return integrate.SolutionSnapshot(out.t, integrate.TensorTrain._trusted(cores))

    monkeypatch.setattr(integrate, "degree_truncate", poisoned)
