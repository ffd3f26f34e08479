"""Shared fixtures and the references tests compare the library against.

The library keeps what its command line and README quickstart use; the
references the tests need beyond that live here: the array form of the
queue recursion (``queue_update``, which the engine's
``controller.queue_step`` must match bit for bit), a one-frame block built
from scalars and a sampler repeating it, a deterministic frame length and
a constant external coordinate for exact fixtures, the full Dinkelbach
iteration that ``solve_bisection`` must agree with on every input, a
brute-force grid search over LP weights that cross-checks ``solve_lp``
independently of the simplex, the per-offset residual table that
``validate_model``'s power sums must reproduce, and the analysis' drift
bound c0 that ``drift_diagnostic``'s frame sums are held against.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from renewalopt import TABLE1, build_instance, solve_lp
from renewalopt.benchmark import LPSolution, StationaryLP, _achieved
from renewalopt.controller import _BISECTION_TOL, ratio_objectives
from renewalopt.core import FrameOutcome, RenewalSystemModel, _mean_se
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


def one_frame(length, rate, row=None, impulse=None) -> FrameOutcome:
    """A block of one frame: its length, rate, and a metric row or one
    (offset, metric, value) impulse, given as scalars."""
    if impulse is not None:
        offset, l, value = impulse
        impulse = (np.array([offset]), l, np.array([value], dtype=float))
    row = None if row is None else np.array([row], dtype=float)
    return FrameOutcome(np.array([length]), np.array([rate], dtype=float), row, impulse)


class FixedDrawSampler:
    """Sampler whose every frame is the frame of a one-frame block."""

    def __init__(self, frame):
        self.fixed = frame

    def sample(self, rng, k):
        f = self.fixed

        def tile(column):
            return np.repeat(column, k, axis=0)

        row = None if f.metric_rate is None else tile(f.metric_rate)
        impulse = f.impulse and (tile(f.impulse[0]), f.impulse[1], tile(f.impulse[2]))
        return FrameOutcome(tile(f.length), tile(f.penalty_rate), row, impulse)


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


def dinkelbach_reference(model: RenewalSystemModel, q, v: float) -> int:
    """The Dinkelbach iteration run to its stop on every input, with no shortcut.

    From theta = the first action's ratio, it minimizes num - theta * t over
    the actions and moves theta to the minimizer's ratio, until the inner
    minimum is within _BISECTION_TOL of zero or theta would not decrease.
    It returns the action it stopped on if that action's ratio is the exact
    minimum, else the first exact minimizer, and raises RuntimeError after
    10 n + 10 steps (a NaN first ratio never stops).
    """
    num, ratios, _ = ratio_objectives(model, q, v)
    den = model.t_hats.tolist()  # the model's own lengths, not the kernel's copy
    theta = ratios[0]
    for _ in range(10 * len(den) + 10):
        costs = [a - theta * b for a, b in zip(num, den)]
        low = min(costs)
        idx = costs.index(low)
        if low >= -_BISECTION_TOL or ratios[idx] >= theta:
            best = min(ratios)
            return idx if ratios[idx] == best else ratios.index(best)
        theta = ratios[idx]
    raise RuntimeError("Dinkelbach iteration failed to terminate")


@dataclass(frozen=True)
class DeterministicLength:
    value: int

    def __post_init__(self):
        if int(self.value) != self.value or self.value < 1:
            raise ValueError("length must be an integer >= 1")
        object.__setattr__(self, "value", int(self.value))

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return np.full(k, self.value)

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

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(self.value))


def drift_bound(models, d_max: float) -> float:
    """The analysis' bound on a frame's conditional mean drift sum, with d_max
    bounding |d[t]|: c0 = L * z_max * (N * z_max + d_max) * B."""
    z_max, b = max(m.z_max for m in models), max(m.residual_bound for m in models)
    return models[0].n_metrics * z_max * (len(models) * z_max + d_max) * b


def drift_excess(sums, c0: float) -> tuple[np.ndarray, np.ndarray]:
    """Per system, the mean and SE of (frame drift sum - c0) over its frames."""
    means, ses = zip(*(_mean_se(s - c0) for s in sums))
    return np.array(means), np.array(ses)


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

    rec(0, 0.0, np.zeros(lp.d.shape[0]), [])
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


def residual_table_reference(lengths: np.ndarray):
    """(estimates, SEs, counts) of (T - s)^2 over frames with T >= s, offset by offset."""
    lengths = lengths.astype(float)
    max_len = int(lengths.max())
    residual_est = np.zeros(max_len + 1)
    residual_se = np.zeros(max_len + 1)
    residual_count = np.zeros(max_len + 1, dtype=np.int64)
    tail = lengths
    for s in range(max_len + 1):
        tail = tail[tail >= s]
        squares = (tail - s) ** 2
        residual_est[s] = squares.mean()
        if tail.shape[0] >= 2:
            residual_se[s] = squares.std(ddof=1) / np.sqrt(tail.shape[0])
        residual_count[s] = tail.shape[0]
    return residual_est, residual_se, residual_count
