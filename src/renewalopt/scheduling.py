"""Multi-server energy-aware scheduling instance.

N homogeneous servers each repeat a two-phase cycle: pick a job class, serve
a batch for a geometrically distributed number of slots H (crediting a
uniform-integer job count at the end of the service phase, energy e_hat for
the batch), then idle for a geometric number of slots I at idle power p.  The
goal is to minimize time-average energy while serving each class at least at
its Poisson arrival rate lambda_l.

The rate constraint "time-average service >= lambda_l" is a >= constraint;
the controller and queues work with <= constraints, so the builder negates
both sides: per-frame metric totals are -mu (job counts) and the external
process emits -arrivals.  The virtual queue recursion then reads
Q_l[t+1] = max{Q_l[t] + arrivals_l[t] - served_l[t], 0}, i.e. the familiar
queue of unserved work.

Per-frame quantities of class c (frame length T = H + I):
    energy total   e_hat + p * I, spread uniformly over the frame's slots
    service total  -draw from Uniform{low..high} on the last service slot
    triple         (e_hat + p * idle_mean, -(low + high)/2 * e_c, E[T])

H and I are two ``GeometricLength`` phases, which the sampler draws
directly; their ``distributions.CompoundLength`` only supplies E[T] and the
residual bound E[T^2] to the builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .benchmark import StationaryLP
from .core import FrameOutcome, PerformanceTriple, RenewalSystemModel
from .distributions import CompoundLength, GeometricLength
from .simulation import CappedPoisson, ExternalProcess

__all__ = [
    "ServerClassParams",
    "SchedulingInstance",
    "ServiceIdleSampler",
    "TABLE1",
    "build_instance",
]


# numpy's Generator.poisson refuses a larger mean; at it, the cap overflows int64
POISSON_RATE_LIMIT = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class ServerClassParams:
    """One job class: arrivals, service/idle phases, job counts (exact doubles), energy."""

    arrival_rate: float
    service_mean: float
    jobs_low: int
    jobs_high: int
    energy: float
    idle_mean: float
    idle_power: float

    def __post_init__(self):
        if not 0 < self.arrival_rate < POISSON_RATE_LIMIT:
            raise ValueError(f"arrival_rate must be > 0 and below {POISSON_RATE_LIMIT!r}")
        if not (self.service_mean >= 1 and self.idle_mean >= 1):
            raise ValueError("phase means must be >= 1 slot")
        # numpy's geometric draw of mean m is below 45 m: phases stay below 2**59, in int64
        if not (self.service_mean <= 2**53 and self.idle_mean <= 2**53):
            raise ValueError("phase means must be <= 2**53 slots")
        if int(self.jobs_low) != self.jobs_low or int(self.jobs_high) != self.jobs_high:
            raise ValueError("job-count support endpoints must be integers")
        object.__setattr__(self, "jobs_low", int(self.jobs_low))
        object.__setattr__(self, "jobs_high", int(self.jobs_high))
        if not 0 < self.jobs_low <= self.jobs_high:
            raise ValueError("need 0 < jobs_low <= jobs_high")
        if self.jobs_high > 2**53:
            raise ValueError("jobs_high must be <= 2**53")
        if (self.jobs_low + self.jobs_high) % 2 != 0:
            raise ValueError("job-count support must have an integer midpoint")
        if self.energy < 0 or self.idle_power < 0:
            raise ValueError("energy parameters must be nonnegative")
        if not self.energy + self.idle_power * 2**59 < math.inf:
            raise ValueError("the largest frame energy, energy + idle_power * 2**59, overflows")


@dataclass(frozen=True)
class SchedulingInstance:
    """Homogeneous servers, one service mode per class."""

    n_servers: int
    classes: tuple[ServerClassParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.n_servers < 1:
            raise ValueError("need at least one server")
        if not self.classes:
            raise ValueError("need at least one class")

    @property
    def n_classes(self) -> int:
        return len(self.classes)


TABLE1 = SchedulingInstance(
    n_servers=5,
    classes=(
        ServerClassParams(2.0, 5.5, 9, 21, 16.0, 2.5, 3.0),
        ServerClassParams(3.0, 4.6, 15, 27, 20.0, 4.3, 3.0),
        ServerClassParams(4.0, 3.8, 11, 23, 13.0, 3.7, 3.0),
    ),
)


@dataclass(frozen=True)
class ServiceIdleSampler:
    """Frame sampler for one class; a block draws its service, idle and job-count columns."""

    params: ServerClassParams
    class_index: int
    n_classes: int
    frame: CompoundLength = field(init=False, repr=False)
    rate_bound: float = field(init=False, repr=False)

    def __post_init__(self):
        p = self.params
        phases = (GeometricLength(p.service_mean), GeometricLength(p.idle_mean))
        object.__setattr__(self, "frame", CompoundLength(phases))
        # the rate (e + p*I)/(H + I) peaks at H = 1, moving monotonically in I from
        # (e + p)/2 at I = 1 toward p; rounded up where (e + p)/2 underflows
        bound = max((p.energy + p.idle_power) / 2, p.idle_power)
        if 2 * bound < p.energy + p.idle_power:
            bound = math.nextafter(bound, math.inf)
        object.__setattr__(self, "rate_bound", bound)
        law = (phases[0].sample, phases[1].sample, (p.jobs_low, p.jobs_high + 1))
        object.__setattr__(self, "_law", law + (p.energy, p.idle_power, bound))

    def sample(self, rng: np.random.Generator, k: int) -> FrameOutcome:
        """Flat energy over each frame (rate <= rate_bound), -jobs on the last service slot."""
        draw_service, draw_idle, jobs, energy, idle_power, bound = self._law
        service, idle = draw_service(rng, k), draw_idle(rng, k)
        impulse = (service - 1, self.class_index, -rng.integers(*jobs, k).astype(float))
        length = service + idle
        rate = np.minimum((energy + idle_power * idle) / length, bound)
        return FrameOutcome(length, rate, None, impulse)

    def triple(self) -> PerformanceTriple:
        p = self.params
        z_hat = np.zeros(self.n_classes)
        z_hat[self.class_index] = -(p.jobs_low + p.jobs_high) / 2
        return PerformanceTriple(p.energy + p.idle_power * p.idle_mean, z_hat, self.frame.mean)


def build_instance(
    inst: SchedulingInstance,
) -> tuple[list[RenewalSystemModel], ExternalProcess, StationaryLP]:
    """Materialize models, external process, and benchmark LP for an instance.

    Servers are homogeneous, so the returned model list repeats one immutable
    model object n_servers times.  The external process emits negated capped
    Poisson arrivals (see the module docstring for the sign convention); the
    LP carries d = -lambda with "<=" rows, matching the internal convention.
    """
    n_classes = inst.n_classes
    samplers = tuple(ServiceIdleSampler(c, i, n_classes) for i, c in enumerate(inst.classes))
    triples = tuple(s.triple() for s in samplers)

    # per-slot extrema: the classes' rate bounds, and service impulses at the
    # top of the job-count support
    y_max = max(s.rate_bound for s in samplers)
    z_max = float(max(c.jobs_high for c in inst.classes))
    # independent phases and memorylessness: E[T^2] bounds every residual
    # E[(T-s)^2 | T >= s]
    residual_bound = max(s.frame.second_moment for s in samplers)
    model = RenewalSystemModel(triples, samplers, y_max, z_max, residual_bound)
    models = [model] * inst.n_servers

    external = ExternalProcess(
        tuple(CappedPoisson(rate=c.arrival_rate, scale=-1.0) for c in inst.classes)
    )
    d = np.array([-c.arrival_rate for c in inst.classes])
    lp = StationaryLP.from_models(models, d)
    return models, external, lp
