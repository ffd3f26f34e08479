"""Shared fixtures and the references tests compare the library against.

The library keeps what its command line and README quickstart use; the
references the tests need beyond that live here: the array form of the
queue recursion (``queue_update``, which the engine's
``controller.queue_step`` must match bit for bit), a deterministic frame
length and a constant external coordinate for exact fixtures, and a
brute-force grid search over LP weights that cross-checks ``solve_lp``
independently of the simplex.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from renewalopt import TABLE1, build_instance, solve_lp
from renewalopt.benchmark import LPSolution, StationaryLP, _achieved
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


def queue_update(q, z_slot_sum, d_slot) -> np.ndarray:
    """One slot of the virtual queue recursion, clamped at zero.

    The arithmetic order (delta first, then add, then clamp) is fixed;
    the simulation engine replays exactly the same operations, so its queue
    series can be compared bit-for-bit against this function.
    """
    qv = np.asarray(q, dtype=float).reshape(-1)
    z = np.asarray(z_slot_sum, dtype=float).reshape(-1)
    d = np.asarray(d_slot, dtype=float).reshape(-1)
    if z.shape != qv.shape or d.shape != qv.shape:
        raise ValueError(f"length mismatch: queue {qv.shape[0]}, z {z.shape[0]}, d {d.shape[0]}")
    delta = z - d
    return np.maximum(qv + delta, 0.0)


@dataclass(frozen=True)
class DeterministicLength:
    value: int

    def __post_init__(self):
        if int(self.value) != self.value or self.value < 1:
            raise ValueError("length must be an integer >= 1")
        object.__setattr__(self, "value", int(self.value))

    def sample(self, rng: np.random.Generator) -> int:
        return self.value

    @property
    def mean(self) -> float:
        return float(self.value)

    @property
    def second_moment(self) -> float:
        return float(self.value) ** 2


@dataclass(frozen=True)
class FixedValue:
    value: float

    @property
    def mean(self) -> float:
        return float(self.value)

    @property
    def max_abs(self) -> float:
        return abs(float(self.value))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(self.value))


def _simplex_grid(n_actions: int, grid: int) -> np.ndarray:
    """All weight vectors with entries k/grid summing to 1, shape (P, A)."""
    if n_actions == 1:
        return np.ones((1, 1))
    points = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], grid, n_actions)
    return np.array(points, dtype=float) / grid


def brute_force_oracle(lp: StationaryLP, grid: int) -> LPSolution:
    """Exhaustive search over a simplex grid of weights per system.

    Independent of the simplex solver by construction; used to validate it.
    The best feasible grid point is within O(1/grid) of the LP optimum.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    free_dims = sum(f.shape[0] - 1 for f in lp.f_hats)
    if grid**max(free_dims, 1) > 10**7:
        raise ValueError("instance too large for the requested grid")
    grids = [_simplex_grid(f.shape[0], grid) for f in lp.f_hats]
    objs = [g @ f for g, f in zip(grids, lp.f_hats)]  # (P_n,)
    cons = [w_grid @ g for w_grid, g in zip(grids, lp.g_hats)]

    best_obj = np.inf
    best_weights = None
    last = lp.n_systems - 1

    def rec(sys_idx, obj_acc, con_acc, chosen):
        nonlocal best_obj, best_weights
        if sys_idx == last:
            total_obj = obj_acc + objs[last]
            total_con = con_acc[None, :] + cons[last]
            feasible = np.all(total_con <= lp.d[None, :] + 1e-9, axis=1)
            if not feasible.any():
                return
            idx = np.nonzero(feasible)[0]
            k = idx[np.argmin(total_obj[idx])]
            if total_obj[k] < best_obj:
                best_obj = float(total_obj[k])
                best_weights = chosen + [grids[last][k]]
            return
        for j in range(grids[sys_idx].shape[0]):
            rec(
                sys_idx + 1,
                obj_acc + objs[sys_idx][j],
                con_acc + cons[sys_idx][j],
                chosen + [grids[sys_idx][j]],
            )

    rec(0, 0.0, np.zeros(lp.n_metrics), [])
    if best_weights is None:
        return LPSolution(lp=lp, status="infeasible")
    weights = tuple(np.asarray(w) for w in best_weights)
    return LPSolution(
        lp=lp,
        status="optimal",
        objective=best_obj,
        weights=weights,
        achieved=_achieved(lp, weights),
    )
