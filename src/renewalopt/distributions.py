"""Frame-length distributions and simple frame samplers.

Length distributions produce integer frame lengths >= 1 and expose exact
moments so models can declare matching triples and residual bounds; the
scheduling instance builds each class's frame from two geometric phases.  The
geometric distribution lives on support {1, 2, ...} and is parameterized by
its mean m via success probability 1/m, so non-integer means are honored
exactly.  Lengths and samplers draw k frames per call, one numpy call of
size k per random quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .core import FrameOutcome, PerformanceTriple, RenewalSystemModel

__all__ = [
    "LengthDistribution",
    "GeometricLength",
    "ConstantRateSampler",
    "constant_rate_model",
]


class LengthDistribution(Protocol):
    """Integer frame lengths >= 1 with exact first and second moments.

    Every length here is log-concave, hence IFR (increasing failure rate),
    so E[(T - s)^2 | T >= s] is largest at s = 0, where it is second_moment.
    ``sample(rng, k)`` draws k independent lengths as an integer array.
    """

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray: ...

    @property
    def mean(self) -> float: ...

    @property
    def second_moment(self) -> float: ...


@dataclass(frozen=True)
class GeometricLength:
    """Geometric on {1, 2, ...} with the given mean (success prob 1/mean)."""

    mean: float

    def __post_init__(self):
        object.__setattr__(self, "mean", float(self.mean))
        if not self.mean >= 1.0:
            raise ValueError("geometric mean must be >= 1")
        object.__setattr__(self, "_p", 1.0 / self.mean)

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return rng.geometric(self._p, k)

    @property
    def second_moment(self) -> float:
        # E[T^2] = (2 - p) / p^2 with p = 1/mean
        m = self.mean
        return 2 * m * m - m


@dataclass(frozen=True, eq=False)
class ConstantRateSampler:
    """Frames with a random length and constant per-slot penalty and metrics."""

    length: LengthDistribution
    penalty_rate: float
    metric_rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "penalty_rate", float(self.penalty_rate))
        rates = np.array(self.metric_rates, dtype=float, copy=True).reshape(-1)
        rates.flags.writeable = False
        object.__setattr__(self, "metric_rates", rates)

    def sample(self, rng: np.random.Generator, k: int) -> FrameOutcome:
        rows = np.broadcast_to(self.metric_rates, (k, self.metric_rates.shape[0]))
        return FrameOutcome(self.length.sample(rng, k), np.full(k, self.penalty_rate), rows)

    def triple(self) -> PerformanceTriple:
        m = self.length.mean
        return PerformanceTriple(self.penalty_rate * m, self.metric_rates * m, m)


def constant_rate_model(
    penalty_rates: Sequence[float],
    metric_rates: Sequence[Sequence[float]],
    lengths: Sequence[LengthDistribution],
) -> RenewalSystemModel:
    """Build a model whose actions emit constant per-slot rates.

    The per-slot rates are the performance vectors themselves, which makes
    these models convenient exact fixtures: f_hat = penalty rate and
    g_hat = metric rates for every action, for any length distribution.
    The bounds are derived: y_max and z_max the largest |penalty| and |metric|
    rates, and the residual bound the largest second moment (at least 1), valid only for
    IFR (increasing failure rate) lengths, as all of this module's are.
    """
    if not len(penalty_rates) == len(metric_rates) == len(lengths):
        raise ValueError("one penalty rate, metric row, and length per action")
    samplers = tuple(
        ConstantRateSampler(length, pr, np.asarray(mr, dtype=float))
        for length, pr, mr in zip(lengths, penalty_rates, metric_rates)
    )
    triples = tuple(s.triple() for s in samplers)
    y_max = max(abs(float(r)) for r in penalty_rates)
    z_max = float(np.max(np.abs(np.asarray(metric_rates, dtype=float))))
    residual_bound = max(1.0, max(length.second_moment for length in lengths))
    return RenewalSystemModel(triples, samplers, y_max, z_max, residual_bound)
