"""Optimal-stationary benchmark: the hull-weight LP.

The best stationary randomized policy solves

    min   sum_n sum_a theta_n(a) * f_hat_n(a)
    s.t.  sum_n sum_a theta_n(a) * g_hat_nl(a)  <=  d_l          for each l
          theta_n >= 0, sum_a theta_n(a) = 1                    for each n

where theta_n are hull weights over system n's performance vectors; the
optimum over all policies of the long-run averages is attained here because
each system's achievable averages form exactly the convex hull of its
per-action vectors.  The LP weights are time fractions; the per-frame
selection probabilities of the policy that realizes them follow from the
renewal-reward ratio as p_a proportional to theta_a / t_hat_a.

``solve_lp`` uses the in-repo dense simplex; the tests cross-check it
against an exhaustive search over a grid of weights.  Its duals are the
constraint shadow prices, read off the simplex's final tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PerformanceVector, RenewalSystemModel
from .simplex import simplex_solve

__all__ = [
    "StationaryLP",
    "LPSolution",
    "solve_lp",
    "extract_reference_point",
    "stationary_policy_weights",
]


@dataclass(frozen=True, eq=False)
class StationaryLP:
    """Per-system performance vectors plus the coupled constraint bounds.

    Every coupled row reads sum_n theta_n . g_hats[n][:, l] <= d[l]; t_hats
    map the LP weights back to per-frame policy probabilities.
    """

    f_hats: tuple[np.ndarray, ...]
    g_hats: tuple[np.ndarray, ...]
    d: np.ndarray
    t_hats: tuple[np.ndarray, ...]

    def __post_init__(self):
        f_hats = tuple(np.asarray(f, dtype=float).reshape(-1) for f in self.f_hats)
        g_hats = tuple(np.asarray(g, dtype=float) for g in self.g_hats)
        d = np.asarray(self.d, dtype=float).reshape(-1)
        t_hats = tuple(np.asarray(t, dtype=float).reshape(-1) for t in self.t_hats)
        object.__setattr__(self, "f_hats", f_hats)
        object.__setattr__(self, "g_hats", g_hats)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "t_hats", t_hats)
        if not f_hats:
            raise ValueError("need at least one system")
        if len(g_hats) != len(f_hats):
            raise ValueError("f_hats and g_hats must align per system")
        n_metrics = d.shape[0]
        for f, g in zip(f_hats, g_hats):
            if f.shape[0] < 1:
                raise ValueError("every system needs at least one action")
            if g.shape != (f.shape[0], n_metrics):
                raise ValueError("g_hats rows must be (n_actions, n_metrics)")
        if len(t_hats) != len(f_hats) or any(t.shape != f.shape for t, f in zip(t_hats, f_hats)):
            raise ValueError("t_hats must align with f_hats per system")

    @classmethod
    def from_models(cls, models: Sequence[RenewalSystemModel], d) -> "StationaryLP":
        """The LP of the given systems, one performance vector per action."""
        d = np.asarray(d, dtype=float).reshape(-1)
        return cls(
            f_hats=tuple(m.y_hats / m.t_hats for m in models),
            g_hats=tuple(m.z_hats / m.t_hats[:, None] for m in models),
            d=d,
            t_hats=tuple(m.t_hats for m in models),
        )

    @property
    def n_systems(self) -> int:
        return len(self.f_hats)

    @property
    def n_metrics(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True, eq=False)
class LPSolution:
    """Solver output; every field but lp and status is set only when optimal."""

    lp: StationaryLP
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None = None
    weights: tuple[np.ndarray, ...] | None = None
    achieved: np.ndarray | None = None
    duals: np.ndarray | None = None


def _achieved(lp: StationaryLP, weights: Sequence[np.ndarray]) -> np.ndarray:
    return np.sum([g.T @ w for g, w in zip(lp.g_hats, weights)], axis=0)


def solve_lp(lp: StationaryLP) -> LPSolution:
    """Solve the hull-weight LP with the dense simplex.

    duals[l] >= 0 is the rate at which the optimum falls as d[l] is raised,
    zero where row l is slack: the simplex's dual of row l with its sign
    flipped, read off the final tableau.
    """
    blocks = [f.shape[0] for f in lp.f_hats]
    c = np.concatenate(lp.f_hats)
    a_ub = np.concatenate(lp.g_hats).T
    # one row per system, with ones over that system's block of weights
    a_eq = np.repeat(np.eye(lp.n_systems), blocks, axis=1)
    b_eq = np.ones(lp.n_systems)

    res = simplex_solve(c, a_ub, lp.d, a_eq, b_eq)
    if res.status != "optimal":
        return LPSolution(lp=lp, status=res.status)

    splits = np.split(res.x, np.cumsum(blocks)[:-1])
    weights = tuple(w / w.sum() for w in splits)
    return LPSolution(
        lp=lp,
        status="optimal",
        objective=float(sum(f @ w for f, w in zip(lp.f_hats, weights))),
        weights=weights,
        achieved=_achieved(lp, weights),
        duals=np.maximum(-res.duals_ub, 0.0),
    )


def extract_reference_point(sol: LPSolution) -> list[PerformanceVector]:
    """Per-system hull point (f_bar, g_bar) realized by the LP weights."""
    if sol.status != "optimal":
        raise ValueError(f"reference point needs an optimal solution, got {sol.status}")
    per_system = zip(sol.lp.f_hats, sol.lp.g_hats, sol.weights)
    return [PerformanceVector(float(f @ w), g.T @ w) for f, g, w in per_system]


def stationary_policy_weights(sol: LPSolution) -> tuple[np.ndarray, ...]:
    """Per-frame selection probabilities realizing the LP's time fractions.

    The LP's theta are fractions of time; a stationary policy picking action
    a with probability p_a spends time fraction p_a t_hat_a / sum_b p_b
    t_hat_b on it, so inverting gives p_a proportional to theta_a / t_hat_a.
    """
    if sol.status != "optimal":
        raise ValueError(f"policy weights need an optimal solution, got {sol.status}")
    return tuple((p := theta / t) / p.sum() for theta, t in zip(sol.weights, sol.lp.t_hats))
