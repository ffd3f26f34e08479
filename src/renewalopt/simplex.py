"""Dense two-phase tableau simplex for small linear programs.

Solves min c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0, entirely
in-repo so benchmark results do not depend on an external solver.  Pivoting
uses Bland's rule (smallest eligible index for both the entering column and
the leaving row), which rules out cycling; a dense tableau is adequate at the
few-hundred-variable scale this package needs.

The dual of each inequality row is read off the final tableau as minus the
reduced cost of that row's slack, in the row's own orientation: y_i <= 0,
and raising b_ub[i] by eps changes the optimum by about y_i * eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "simplex_solve"]

_FEAS_TOL = 1e-7
# reduced costs and pivot entries within this of zero count as zero
_PIVOT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    duals_ub: np.ndarray | None = None


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    # outer-product elimination leaves roundoff in the pivot column; pin it
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _bland_iterate(tableau: np.ndarray, basis: list[int]) -> str:
    m = tableau.shape[0] - 1
    while True:
        reduced = tableau[-1, :-1]
        eligible = np.nonzero(reduced < -_PIVOT_TOL)[0]
        if eligible.size == 0:
            return "optimal"
        col = int(eligible[0])
        column = tableau[:m, col]
        rows = np.nonzero(column > _PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = tableau[rows, -1] / column[rows]
        best = ratios.min()
        # Bland: among minimal ratios leave the row whose basic var has the
        # smallest index
        ties = rows[np.nonzero(ratios <= best + 1e-15)[0]]
        row = int(min(ties, key=lambda r: basis[r]))
        _pivot(tableau, basis, row, col)


def _row_scale(a: np.ndarray) -> np.ndarray:
    """Per row, 1, or if its largest |coefficient| is outside [2**-8, 2**9) the
    power of two that brings it into [1, 2): exact, and the absolute
    tolerances then hold on rows of job counts in the billions too."""
    exp = np.frexp(np.abs(a).max(axis=1, initial=0.0))[1] - 1  # in [2**exp, 2**(exp + 1))
    return np.ldexp(1.0, np.where(np.abs(exp) > 8, -exp, 0))


def simplex_solve(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
) -> SimplexResult:
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.shape[0]
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    if a_ub.shape != (m_ub, n) or b_ub.shape != (m_ub,):
        raise ValueError("inequality block has inconsistent dimensions")
    if a_eq.shape != (m_eq, n) or b_eq.shape != (m_eq,):
        raise ValueError("equality block has inconsistent dimensions")
    m = m_ub + m_eq
    ub_scale, eq_scale = _row_scale(a_ub), _row_scale(a_eq)
    a_ub, b_ub = a_ub * ub_scale[:, None], b_ub * ub_scale
    a_eq, b_eq = a_eq * eq_scale[:, None], b_eq * eq_scale

    # equality form: [a_ub | I][x; s] = b_ub with s >= 0, plus the eq rows
    a_full = np.zeros((m, n + m_ub))
    a_full[:m_ub, :n] = a_ub
    a_full[:m_ub, n : n + m_ub] = np.eye(m_ub)
    a_full[m_ub:, :n] = a_eq
    b_full = np.concatenate([b_ub, b_eq])

    # make every right hand side nonnegative
    negate = b_full < 0
    a_full[negate] *= -1
    b_full[negate] *= -1

    # a non-negated inequality row starts with its slack basic; every other
    # row gets an artificial variable
    needs_art = [i for i in range(m) if i >= m_ub or negate[i]]
    n_work = n + m_ub
    n_art = len(needs_art)
    tableau = np.zeros((m + 1, n_work + n_art + 1))
    tableau[:m, :n_work] = a_full
    tableau[:m, -1] = b_full
    basis = [-1] * m
    for k, i in enumerate(needs_art):
        tableau[i, n_work + k] = 1.0
        basis[i] = n_work + k
    for i in range(m_ub):
        if not negate[i]:
            basis[i] = n + i

    # phase 1: minimize the artificial total
    phase1 = np.zeros(n_work + n_art + 1)
    phase1[n_work : n_work + n_art] = 1.0
    tableau[-1] = phase1
    for i in needs_art:
        tableau[-1] -= tableau[i]
    if _bland_iterate(tableau, basis) != "optimal":
        raise RuntimeError("phase 1 cannot be unbounded")
    scale = max(1.0, float(np.abs(b_full).max()) if m else 1.0)
    if -tableau[-1, -1] > _FEAS_TOL * scale:
        return SimplexResult(status="infeasible")

    # drive leftover artificials out of the basis, dropping redundant rows
    keep = []
    for i in range(m):
        if basis[i] < n_work:
            keep.append(i)
            continue
        pivot_cols = np.nonzero(np.abs(tableau[i, :n_work]) > _PIVOT_TOL)[0]
        if pivot_cols.size:
            _pivot(tableau, basis, i, int(pivot_cols[0]))
            keep.append(i)
    if len(keep) < m:
        tableau = np.vstack([tableau[keep], tableau[-1:]])
        basis = [basis[i] for i in keep]
    tableau = np.delete(tableau, np.s_[n_work : n_work + n_art], axis=1)

    # phase 2: the real objective, with basic columns eliminated
    cost = np.zeros(n_work + 1)
    cost[:n] = c
    tableau[-1] = cost
    for i, col in enumerate(basis):
        if tableau[-1, col] != 0.0:
            tableau[-1] -= tableau[-1, col] * tableau[i]
    if _bland_iterate(tableau, basis) == "unbounded":
        return SimplexResult(status="unbounded")

    x_work = np.zeros(n_work)
    for i, col in enumerate(basis):
        x_work[col] = tableau[i, -1]
    x = np.maximum(x_work[:n], 0.0)

    # slack i has cost 0 and column s * e_i (s = -1 if row i was negated), so
    # its reduced cost is -s times the solved row's dual: minus the caller's
    duals_ub = -tableau[-1, n : n + m_ub] * ub_scale
    return SimplexResult(status="optimal", x=x, duals_ub=duals_ub)
