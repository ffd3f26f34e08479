import numpy as np
import pytest

from renewalopt.simplex import simplex_solve


def test_hand_solved_mixture_lp():
    # min x1 subject to x0 + x1 = 1, 2 x0 <= 1, x >= 0: tighten x0 to 0.5
    res = simplex_solve(
        c=[0.0, 1.0], a_ub=[[2.0, 0.0]], b_ub=[1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]
    )
    assert res.status == "optimal"
    assert np.dot([0.0, 1.0], res.x) == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(res.x, [0.5, 0.5], atol=1e-9)
    # relaxing the <= row by one unit lowers the objective by 0.5
    assert res.duals_ub[0] == pytest.approx(-0.5, abs=1e-9)


def test_dual_predicts_rhs_perturbation():
    res = simplex_solve(
        c=[0.0, 1.0], a_ub=[[2.0, 0.0]], b_ub=[1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]
    )
    eps = 1e-3
    bumped = simplex_solve(
        c=[0.0, 1.0],
        a_ub=[[2.0, 0.0]],
        b_ub=[1.0 + eps],
        a_eq=[[1.0, 1.0]],
        b_eq=[1.0],
    )
    predicted = np.dot([0.0, 1.0], res.x) + res.duals_ub[0] * eps
    assert np.dot([0.0, 1.0], bumped.x) == pytest.approx(predicted, abs=1e-9)


def test_infeasible_lp():
    # probabilities summing to 1 cannot also sum below 0.2
    res = simplex_solve(
        c=[1.0, 1.0],
        a_ub=[[1.0, 1.0]],
        b_ub=[0.2],
        a_eq=[[1.0, 1.0]],
        b_eq=[1.0],
    )
    assert res.status == "infeasible"
    assert res.x is None


def test_unbounded_lp():
    res = simplex_solve(c=[-1.0])
    assert res.status == "unbounded"
    res = simplex_solve(c=[-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
    assert res.status == "unbounded"


def test_negative_rhs_row():
    # -x0 <= -2 is x0 >= 2; minimizing x0 gives exactly 2
    res = simplex_solve(c=[1.0], a_ub=[[-1.0]], b_ub=[-2.0])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0, abs=1e-9)
    # dual: raising -2 by eps lowers the optimum by eps
    assert res.duals_ub[0] == pytest.approx(-1.0, abs=1e-9)


def test_redundant_equality_rows_are_dropped():
    res = simplex_solve(
        c=[0.0, 1.0],
        a_ub=[[2.0, 0.0]],
        b_ub=[1.0],
        a_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
        b_eq=[1.0, 1.0, 2.0],
    )
    assert res.status == "optimal"
    assert np.dot([0.0, 1.0], res.x) == pytest.approx(0.5, abs=1e-9)
    # the dropped rows leave the <= row's dual as without them
    assert res.duals_ub[0] == -0.5


def test_degenerate_vertex_terminates():
    # three constraints meet at (1, 0); Bland's rule must not cycle
    res = simplex_solve(
        c=[-1.0, -1.0],
        a_ub=[[1.0, 1.0], [1.0, 2.0], [1.0, 0.0]],
        b_ub=[1.0, 1.0, 1.0],
    )
    assert res.status == "optimal"
    assert np.dot([-1.0, -1.0], res.x) == pytest.approx(-1.0, abs=1e-9)


def test_zero_rhs_equality():
    # force x0 = x1 and spend total mass 1 at min cost
    res = simplex_solve(
        c=[3.0, 1.0],
        a_eq=[[1.0, -1.0], [1.0, 1.0]],
        b_eq=[0.0, 1.0],
    )
    assert res.status == "optimal"
    assert np.allclose(res.x, [0.5, 0.5], atol=1e-9)
    assert np.dot([3.0, 1.0], res.x) == pytest.approx(2.0, abs=1e-9)


def test_dimension_validation():
    with pytest.raises(ValueError):
        simplex_solve(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        simplex_solve(c=[1.0], a_eq=[[1.0]], b_eq=[1.0, 2.0])


def test_random_lps_satisfy_optimality_certificates():
    # complementary slackness and dual feasibility on random dense problems;
    # b_ub reaching -1 makes the solver negate rows, whose duals must still
    # come back in the caller's orientation
    for b_low, seed in ((0.2, 2024), (-1.0, 2025)):
        rng = np.random.default_rng(seed)
        solved = 0
        while solved < 40:
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            c = rng.uniform(-1, 2, n)
            a = rng.uniform(-1, 1, (m, n))
            b = rng.uniform(b_low, 2, m)
            res = simplex_solve(c=c, a_ub=a, b_ub=b, a_eq=[np.ones(n)], b_eq=[1.0])
            if res.status != "optimal":
                continue
            x = res.x
            assert np.all(x >= -1e-9)
            assert np.sum(x) == pytest.approx(1.0, abs=1e-9)
            slack = b - a @ x
            assert np.all(slack >= -1e-9)
            y = res.duals_ub
            assert np.all(y <= 1e-9)  # <= rows give nonpositive duals
            assert np.abs(y * slack).max() < 1e-6  # complementary slackness
            # the sum-to-one row's multiplier mu makes c - a^T y - mu >= 0
            # everywhere and = 0 on the support
            reduced = c - a.T @ y
            support = x > 1e-7
            mu = reduced[support].min()
            assert reduced.min() >= mu - 1e-6
            assert np.abs(reduced[support] - mu).max() <= 1e-6
            solved += 1


@pytest.mark.parametrize("exp", [-40, -12, 0, 12, 31, 52])
def test_badly_scaled_rows_solve_like_well_scaled_ones(exp):
    # one coupled row of coefficients near 2**exp (a frame's job count in the
    # billions is exp = 31): 0.25 th_1 + th_2 >= 0.5 with th_1 + th_2 = 1 and
    # cost th_1 + 2 th_2, so th = (2/3, 1/3); unscaled, tableau entries near
    # 2**-exp fell below the pivot tolerance and phase 1 called it infeasible
    big = 1.25 * 2.0**exp
    res = simplex_solve([1.0, 2.0], [[-0.25 * big, -big]], [-0.5 * big], [[1.0, 1.0]], [1.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([2 / 3, 1 / 3], rel=1e-12)
    # raising the row's bound by eps lowers th_2 by eps / (0.75 big)
    assert res.duals_ub == pytest.approx([-1 / (0.75 * big)], rel=1e-12)
    # one scheduling system with one action, serving big jobs per slot
    # against an arrival rate of at most 0.5: -big th <= -rate, th = 1
    res = simplex_solve([3.0], [[-big]], [-0.5 * min(big, 1.0)], [[1.0]], [1.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([1.0], rel=1e-12)
