import numpy as np
import pytest

from renewalopt import TABLE1, build_instance, solve_lp
from renewalopt.core import RenewalSystemModel
from renewalopt.distributions import GeometricLength, constant_rate_model


@pytest.fixture(scope="session")
def table1_env():
    """Built Table-1 style instance plus its solved benchmark."""
    models, external, lp = build_instance(TABLE1)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    return {"models": models, "external": external, "lp": lp, "sol": sol}


def model_from_vectors(f, g, t) -> RenewalSystemModel:
    """Model whose actions have performance vectors (f, g) and mean length t.

    Uses constant per-slot rates, so the declared triples are exact for any
    frame-length distribution; geometric lengths keep t free to be any
    real >= 1.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    t = np.asarray(t, dtype=float)
    return constant_rate_model(
        penalty_rates=f,
        metric_rates=g,
        lengths=[GeometricLength(x) for x in t],
    )


class FixedDrawSampler:
    """Sampler that always returns the same FrameOutcome."""

    def __init__(self, frame):
        self.fixed = frame

    def sample(self, rng):
        return self.fixed
