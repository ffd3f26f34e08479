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
from typing import Sequence

import numpy as np

from .core import PerformanceTriple, RenewalSystemModel

__all__ = [
    "SubproblemSolution",
    "queue_update",
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


def _ratio_objectives(y, z, t, q, v: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-action numerators V*y + <q, z> and ratio objectives numerator / t.

    The one copy of the objective arithmetic: every solver and the
    certificate call it, so their values compare exactly.  V = 0 is allowed:
    the queue term alone then ranks the actions.
    """
    if v < 0:
        raise ValueError("V must be nonnegative")
    qv = np.asarray(q, dtype=float).reshape(-1)
    if qv.shape[0] != z.shape[1]:
        raise ValueError(f"queue length {qv.shape[0]} does not match metric count {z.shape[1]}")
    num = v * y + z @ qv
    return num, num / t


def solve_enumerate(
    model: RenewalSystemModel,
    q,
    v: float,
) -> SubproblemSolution:
    """Minimize the frame ratio by evaluating every action.

    Ties break toward the lowest action index so runs are reproducible.
    """
    _, objectives = _ratio_objectives(model.y_hats, model.z_hats, model.t_hats, q, v)
    idx = int(np.argmin(objectives))
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
    num, ratios = _ratio_objectives(model.y_hats, model.z_hats, den, q, v)
    theta = ratios[0]
    # theta strictly decreases across iterations and only finitely many
    # ratios exist, so this terminates; the cap is a safety net only
    for _ in range(10 * model.n_actions + 10):
        costs = num - theta * den
        idx = int(np.argmin(costs))
        if costs[idx] >= -tol:
            near = np.flatnonzero(costs < tol)
            best = int(near[np.argmin(ratios[near])])
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
        np.array([p.y_hat for p in triples]),
        np.array([p.z_hat for p in triples]),
        np.array([p.t_hat for p in triples]),
        q,
        v,
    )
    idx = int(np.argmin(objectives))
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
    _, objectives = _ratio_objectives(model.y_hats, model.z_hats, model.t_hats, q, v)
    return bool(np.all(solution.value <= objectives))
