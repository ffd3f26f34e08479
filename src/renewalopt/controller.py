"""Virtual queue recursion and the per-frame ratio subproblem solvers.

One virtual queue per time-average constraint accumulates the per-slot
constraint slack: Q_l[t+1] = max{Q_l[t] + sum_n z_l^n[t] - d_l[t], 0}.
At each frame start the controller minimizes the linearized per-frame ratio

    (V * y_hat(a) + <q, z_hat(a)>) / t_hat(a)

over the system's actions, which equals V * f_hat(a) + <q, g_hat(a)>.
``ratio_objectives`` evaluates it once per decision, on Python floats,
adding each <q, z_hat(a)> in metric order, so a decision does not depend on
which BLAS kernel the machine dispatches to.  Two selection rules read that
list: direct enumeration and a Dinkelbach iteration on the ratio parameter.
Each returns the chosen action's index.  ``ratio_bound_holds`` is the minimality
certificate, that its objective lower-bounds every action's (hence, by convexity,
every point's of the performance region); ``check_trace`` applies it to a finished
trace, on the kernel given the recorded Q[t_k] as columns, each the decision's own bits.
"""

from __future__ import annotations

from functools import lru_cache
import numpy as np

from .core import RenewalSystemModel

__all__ = [
    "queue_step",
    "ratio_objectives",
    "solve_enumerate",
    "solve_bisection",
    "ratio_bound_holds",
]

# Dinkelbach stops once the inner minimum is within this of zero
_BISECTION_TOL = 1e-9


def queue_step(q: list[float], z_slot_sum, d_slot) -> list[float]:
    """One slot of the virtual queue recursion on Python floats, clamped at zero.

    Each coordinate takes z - d, then q + delta, then the clamp, in that
    order.  The clamp is written as np.maximum(x, 0.0) resolves it: -0.0
    becomes 0.0 and NaN stays NaN.  The tests compare it bit for bit with
    the numpy reference in ``tests/conftest.py``, which takes the same
    operations on arrays.
    """
    return [0.0 if (x := a + (b - c)) <= 0.0 else x for a, b, c in zip(q, z_slot_sum, d_slot)]


@lru_cache(maxsize=256)
def _model_penalty_terms(model: RenewalSystemModel, v: float) -> tuple[int, tuple, tuple]:
    """Once per (model, V): the metric count, per action (V*y, the nonzero (l, z_l) of z in
    metric order, t), and t.  V = 0 is allowed: the queue term alone then ranks the actions."""
    if v < 0:
        raise ValueError("V must be nonnegative")
    rows = [tuple((l, z) for l, z in enumerate(row) if z != 0.0) for row in model.z_hats.tolist()]
    dens = tuple(model.t_hats.tolist())
    return model.n_metrics, tuple(zip((v * model.y_hats).tolist(), rows, dens)), dens


def ratio_objectives(model: RenewalSystemModel, q, v: float) -> tuple[list, list, tuple]:
    """Per action the numerator V*y + <q, z>, the ratio objective numerator / t, and t,
    built once per decision for the solvers; q may be L numpy columns, one decision each,
    for the certificate.  <q, z> adds the nonzero products to 0.0 in metric order."""
    n_metrics, terms, dens = _model_penalty_terms(model, v)
    if type(q) is not list:
        q = np.asarray(q, dtype=float).reshape(-1).tolist()
    if len(q) != n_metrics:
        raise ValueError(f"queue length {len(q)} does not match metric count {n_metrics}")
    nums, ratios = [], []
    for vy_a, pairs, t_a in terms:
        s = 0.0
        for l, z_l in pairs:
            s += z_l * q[l]
        nums.append(num := vy_a + s)
        ratios.append(num / t_a)
    return nums, ratios, dens


def solve_enumerate(objectives) -> int:
    """The index of the action minimizing the frame ratio, by reading every action's.

    Enumeration is exact over the whole performance region, not only over the
    actions: a mixture with weights p_a has ratio objective (V * sum p_a y_a +
    <q, sum p_a z_a>) / sum p_a t_a, the average of the per-action ratios
    weighted by p_a t_a, so the minimum over the hull lies at a vertex.  Ties
    break toward the lowest action index so runs are reproducible.
    """
    ratios = objectives[1]
    return ratios.index(min(ratios))  # min keeps the first of equal values


def solve_bisection(objectives) -> int:
    """The index of the action minimizing the frame ratio, by Dinkelbach iteration.

    Repeatedly minimizes V*y_hat + <q, z_hat> - theta * t_hat over actions and
    moves theta to the minimizer's ratio; stops when the inner minimum is
    within _BISECTION_TOL of zero or, as rounding of large terms allows, when
    theta would not decrease.  It returns the action it stopped on if that
    action's exact ratio is the minimum, else the lowest-index exact minimizer,
    so it passes the ``ratio_bound_holds`` of ``check_trace`` even on near ties.
    Theta falls strictly from ratios[0], so the iteration ends unless that
    ratio is NaN; where one action alone attains the exact minimum it ends on
    that action, which is returned without iterating.
    """
    num, ratios, den = objectives
    best = min(ratios)  # NaN only if ratios[0] is
    if best == best and ratios.count(best) == 1:
        return ratios.index(best)
    theta = ratios[0]
    for _ in range(10 * len(den) + 10):  # a safety net: only NaN reaches the cap
        costs = [a - theta * b for a, b in zip(num, den)]
        low = min(costs)
        idx = costs.index(low)
        if low >= -_BISECTION_TOL or ratios[idx] >= theta:
            return idx if ratios[idx] == best else ratios.index(best)
        theta = ratios[idx]
    raise RuntimeError("Dinkelbach iteration failed to terminate")


def ratio_bound_holds(objectives, actions):
    """Whether the action's objective lower-bounds the objective at every action.

    This is the minimality certificate the optimality analysis rests on: the
    objective V*f_hat + <q, g_hat> of the action taken at a frame start must not
    exceed that of any action, nor by convexity that of any point of the
    performance region.  Given ``ratio_objectives`` on L queue columns and one
    action per column, it gives one bool per column.  It compares exactly and
    raises IndexError for an action outside the model's, as ``sample_frame`` does.
    """
    actions = np.asarray(actions)
    ratios = np.array([np.broadcast_to(r, actions.shape) for r in objectives[1]])
    if (outside := actions[(actions < 0) | (actions >= len(ratios))]).size:
        raise IndexError(f"action index {outside.flat[0]} out of range for {len(ratios)} actions")
    holds = (np.take_along_axis(ratios, actions[None], axis=0) <= ratios).all(axis=0)
    return holds if holds.ndim else bool(holds)
