import numpy as np
import pytest

from renewalopt import TABLE1, build_instance, solve_lp
from renewalopt.core import FrameDraw, FrameOutcome, RenewalSystemModel
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
    """Sampler that always returns the same (possibly malformed) FrameDraw."""

    def __init__(self, draw):
        self.fixed = draw

    def draw(self, rng):
        return self.fixed


@pytest.fixture
def no_dense_frames(monkeypatch):
    """Make spelling a frame out as per-slot arrays fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a frame was spelled out as per-slot arrays")

    monkeypatch.setattr(FrameDraw, "outcome", refuse)
    monkeypatch.setattr(FrameOutcome, "__post_init__", refuse)
