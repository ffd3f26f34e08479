"""Virtual queue recursion and the per-frame ratio subproblem solvers.

One virtual queue per time-average constraint accumulates the per-slot
constraint slack: Q_l[t+1] = max{Q_l[t] + sum_n z_l^n[t] - d_l[t], 0}.
At each frame start the controller minimizes the linearized per-frame ratio

    (V * y_hat(a) + <q, z_hat(a)>) / t_hat(a)

over the system's actions, which equals V * f_hat(a) + <q, g_hat(a)>.  Three
solvers are provided: direct enumeration, a Dinkelbach iteration on the ratio
parameter, and enumeration over explicit hull vertices.  All three use the
same arithmetic for the objective so their values can be compared exactly,
and ``ratio_bound_holds`` checks the minimality certificate that the returned
value lower-bounds the objective at every action (hence, by convexity, at
every point of the performance region).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import PerformanceTriple, RenewalSystemModel

__all__ = [
    "SubproblemSolution",
    "queue_update",
    "queue_step",
    "solve_enumerate",
    "solve_bisection",
    "solve_hull_vertices",
    "ratio_bound_holds",
]


@dataclass(frozen=True)
class SubproblemSolution:
    """Chosen action index and its achieved ratio value."""

    action: int
    value: float


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
        raise ValueError(
            f"length mismatch: queue {qv.shape[0]}, z {z.shape[0]}, d {d.shape[0]}"
        )
    delta = z - d
    return np.maximum(qv + delta, 0.0)


def queue_step(q: list[float], z_slot_sum, d_slot) -> list[float]:
    """``queue_update`` on Python floats, one slot of the simulation engine.

    Each coordinate takes the same IEEE double operations in the same order
    (z - d, then q + delta, then the clamp), so the results are identical
    bit for bit.  The clamp is written as np.maximum(x, 0.0) resolves it:
    -0.0 becomes 0.0 and NaN stays NaN.
    """
    return [0.0 if (x := a + (b - c)) <= 0.0 else x for a, b, c in zip(q, z_slot_sum, d_slot)]


def _penalty_terms(y: np.ndarray, v: float) -> np.ndarray:
    """The read-only per-action penalty terms V*y.

    V = 0 is allowed: the queue term alone then ranks the actions.
    """
    if v < 0:
        raise ValueError("V must be nonnegative")
    vy = v * y
    vy.flags.writeable = False
    return vy


@lru_cache(maxsize=256)
def _model_penalty_terms(model: RenewalSystemModel, v: float) -> np.ndarray:
    """``_penalty_terms`` of a model's actions, computed once per (model, V).

    A run decides every frame of a system with the same model and V, so it
    validates V and forms V*y once, not once per frame.
    """
    return _penalty_terms(model.y_hats, v)


def _ratio_objectives(vy, z, t, q) -> tuple[np.ndarray, np.ndarray]:
    """Per-action numerators V*y + <q, z> and ratio objectives numerator / t.

    The one copy of the objective arithmetic: every solver and the
    certificate call it, so their values compare exactly.  vy holds the
    penalty terms V*y from ``_penalty_terms``.
    """
    qv = np.asarray(q, dtype=float).reshape(-1)
    if qv.shape[0] != z.shape[1]:
        raise ValueError(f"queue length {qv.shape[0]} does not match metric count {z.shape[1]}")
    num = vy + z @ qv
    return num, num / t


def solve_enumerate(
    model: RenewalSystemModel,
    q,
    v: float,
) -> SubproblemSolution:
    """Minimize the frame ratio by evaluating every action.

    Ties break toward the lowest action index so runs are reproducible.
    """
    _, objectives = _ratio_objectives(
        _model_penalty_terms(model, v), model.z_hats, model.t_hats, q
    )
    idx = int(objectives.argmin())
    return SubproblemSolution(idx, float(objectives[idx]))


def solve_bisection(
    model: RenewalSystemModel,
    q,
    v: float,
    tol: float = 1e-9,
) -> SubproblemSolution:
    """Minimize the frame ratio by Dinkelbach iteration on the ratio parameter.

    Repeatedly minimizes V*y_hat + <q, z_hat> - theta * t_hat over actions and
    moves theta to the minimizer's ratio; stops when the inner minimum is
    within tol of zero.  Every action whose final cost is below tol is then a
    candidate for the minimum, and the returned action is the one Dinkelbach
    stopped on unless a candidate has a strictly smaller exact ratio (lowest
    index among those).  The returned value is the exact ratio of the
    returned action, so it passes ``ratio_bound_holds`` even on near ties.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    den = model.t_hats
    num, ratios = _ratio_objectives(_model_penalty_terms(model, v), model.z_hats, den, q)
    theta = ratios[0]
    # theta strictly decreases across iterations and only finitely many
    # ratios exist, so this terminates; the cap is a safety net only
    for _ in range(10 * model.n_actions + 10):
        costs = num - theta * den
        idx = int(costs.argmin())
        if costs[idx] >= -tol:
            near = (costs < tol).nonzero()[0]
            best = int(near[ratios[near].argmin()])
            if ratios[best] < ratios[idx]:
                idx = best
            return SubproblemSolution(idx, float(ratios[idx]))
        theta = ratios[idx]
    raise RuntimeError("Dinkelbach iteration failed to terminate")


def solve_hull_vertices(
    vertices: Sequence[PerformanceTriple | tuple],
    q,
    v: float,
) -> SubproblemSolution:
    """Minimize the ratio objective over explicit hull vertices.

    Any mixture over vertices has ratio objective
    (V * sum p_j y_j + <q, sum p_j z_j>) / sum p_j T_j, and reweighting the
    mixture by frame length shows this is a convex combination of the
    per-vertex ratios; the minimum over the whole hull is therefore attained
    at a vertex and plain enumeration is exact.
    """
    if len(vertices) == 0:
        raise ValueError("need at least one vertex")
    triples = [p if isinstance(p, PerformanceTriple) else PerformanceTriple(*p) for p in vertices]
    _, objectives = _ratio_objectives(
        _penalty_terms(np.array([p.y_hat for p in triples]), v),
        np.array([p.z_hat for p in triples]),
        np.array([p.t_hat for p in triples]),
        q,
    )
    idx = int(objectives.argmin())
    return SubproblemSolution(idx, float(objectives[idx]))


def ratio_bound_holds(
    model: RenewalSystemModel,
    solution: SubproblemSolution,
    q,
    v: float,
) -> bool:
    """True iff solution.value lower-bounds the objective at every action.

    This is the minimality certificate the optimality analysis rests on: the
    value returned at a frame start must not exceed V*f_hat + <q, g_hat> for
    any action, and by convexity for any point of the performance region.
    The comparison is exact (no tolerance); solvers and this check share the
    same objective arithmetic.
    """
    _, objectives = _ratio_objectives(
        _model_penalty_terms(model, v), model.z_hats, model.t_hats, q
    )
    return bool((solution.value <= objectives).all())
