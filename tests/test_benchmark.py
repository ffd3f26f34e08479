import numpy as np
import pytest

from renewalopt.benchmark import (
    StationaryLP,
    extract_reference_point,
    solve_lp,
    stationary_policy_weights,
)

from conftest import brute_force_oracle, model_from_vectors


def two_action_lp():
    # one system, f = (0, 1), g = ((2), (0)), constraint 2 theta0 <= 1
    return StationaryLP(
        f_hats=(np.array([0.0, 1.0]),),
        g_hats=(np.array([[2.0], [0.0]]),),
        d=np.array([1.0]),
        t_hats=(np.array([1.0, 1.0]),),
    )


def test_two_action_example():
    sol = solve_lp(two_action_lp())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(sol.weights[0], [0.5, 0.5], atol=1e-9)
    assert sol.achieved[0] == pytest.approx(1.0, abs=1e-9)
    # tightening d by eps forces more weight onto f = 1 at rate 1/2
    assert sol.duals[0] == pytest.approx(0.5, abs=1e-9)


def test_slack_constraints_pick_pointwise_minima():
    lp = StationaryLP(
        f_hats=(np.array([3.0, 1.0]), np.array([2.0, 5.0])),
        g_hats=(np.zeros((2, 1)), np.zeros((2, 1))),
        d=np.array([10.0]),
        t_hats=(np.ones(2), np.ones(2)),
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)  # 1 + 2
    assert np.allclose(sol.weights[0], [0.0, 1.0], atol=1e-9)
    assert np.allclose(sol.weights[1], [1.0, 0.0], atol=1e-9)
    assert sol.duals[0] == pytest.approx(0.0, abs=1e-9)


def test_energy_instance_matches_closed_form(table1_env):
    # binding service constraints for classes 2 and 3 plus full allocation
    # of the 5 servers determine the optimum in collapsed weights:
    #   w2 = 3 / (21/8.9), w3 = 4 / (17/7.5), w1 = 5 - w2 - w3
    # (class 1 then over-serves: 15/8 * w1 > 2, so its constraint is slack)
    f = np.array([23.5 / 8.0, 32.9 / (4.6 + 4.3), 24.1 / 7.5])
    g_service = np.array([15.0 / 8.0, 21.0 / (4.6 + 4.3), 17.0 / 7.5])
    w2 = 3.0 / g_service[1]
    w3 = 4.0 / g_service[2]
    w1 = 5.0 - w2 - w3
    assert g_service[0] * w1 > 2.0  # class 1 slack, consistent with the guess
    expected = f[0] * w1 + f[1] * w2 + f[2] * w3

    sol = table1_env["sol"]
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(expected, abs=1e-9)
    # achieved service rates: class 1 strictly above demand, 2 and 3 tight
    achieved_service = -sol.achieved
    assert achieved_service[0] > 2.0 + 1e-6
    assert achieved_service[1] == pytest.approx(3.0, abs=1e-9)
    assert achieved_service[2] == pytest.approx(4.0, abs=1e-9)
    # shadow prices: energy saved per unit of demand moved off classes 2, 3
    assert sol.duals[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.duals[1] == pytest.approx((f[1] - f[0]) / g_service[1], abs=1e-9)
    assert sol.duals[2] == pytest.approx((f[2] - f[0]) / g_service[2], abs=1e-9)


def test_infeasible_instance():
    # a single action with g = 1 cannot reach g >= 2, written -g <= -2
    lp = StationaryLP(
        f_hats=(np.array([1.0]),),
        g_hats=(np.array([[-1.0]]),),
        d=np.array([-2.0]),
        t_hats=(np.array([1.0]),),
    )
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    oracle = brute_force_oracle(lp, grid=100)
    assert oracle.status == "infeasible"


def test_oracle_matches_simplex_on_two_action_example():
    lp = two_action_lp()
    sol = solve_lp(lp)
    oracle = brute_force_oracle(lp, grid=1000)
    assert oracle.status == "optimal"
    # theta = 500/1000 is on the grid, so the oracle lands exactly on 0.5
    assert oracle.objective == pytest.approx(0.5, abs=1e-12)
    assert abs(oracle.objective - sol.objective) <= 2.0 / 1000


def test_oracle_on_collapsed_energy_instance(table1_env):
    # symmetric servers: solve one system with 5x demand, weights collapse
    lp = table1_env["lp"]
    collapsed = StationaryLP(
        f_hats=(5.0 * lp.f_hats[0],),
        g_hats=(5.0 * lp.g_hats[0],),
        d=lp.d,
        t_hats=lp.t_hats[:1],
    )
    exact = solve_lp(collapsed)
    assert exact.objective == pytest.approx(table1_env["sol"].objective, abs=1e-9)
    oracle = brute_force_oracle(collapsed, grid=60)
    assert oracle.status == "optimal"
    # frozen: best grid point is theta = (22, 16, 22)/60
    assert oracle.objective == pytest.approx(16.205366729088638, abs=1e-6)
    assert np.allclose(oracle.weights[0], np.array([22.0, 16.0, 22.0]) / 60, atol=1e-12)
    # coarse grid sits within 2/60 relative of the exact optimum
    rel_gap = (oracle.objective - exact.objective) / exact.objective
    assert 0.0 <= rel_gap <= 2.0 / 60


def test_oracle_weak_duality_on_random_instances():
    rng = np.random.default_rng(77)
    compared = 0
    while compared < 20:
        n_sys = int(rng.integers(1, 3))
        n_act = int(rng.integers(2, 4))
        n_met = int(rng.integers(1, 3))
        f_hats = tuple(rng.uniform(0, 5, n_act) for _ in range(n_sys))
        g_hats = tuple(rng.uniform(-2, 2, (n_act, n_met)) for _ in range(n_sys))
        # pick d around an achievable mixture so most cases are feasible
        mix = [rng.dirichlet(np.ones(n_act)) for _ in range(n_sys)]
        base = np.sum([g.T @ w for g, w in zip(g_hats, mix)], axis=0)
        d = base + rng.uniform(0.0, 0.3, n_met)
        lp = StationaryLP(f_hats, g_hats, d, tuple(np.ones(n_act) for _ in range(n_sys)))
        sol = solve_lp(lp)
        oracle = brute_force_oracle(lp, grid=40)
        assert sol.status == oracle.status
        if sol.status != "optimal":
            continue
        # grid mixtures are feasible suboptimal points: never below the LP,
        # never further above it than the grid resolution allows
        assert oracle.objective >= sol.objective - 1e-6
        assert oracle.objective <= sol.objective + 10.0 * 2.0 / 40
        compared += 1
    assert compared == 20


def test_oracle_size_guard():
    lp = StationaryLP(
        f_hats=(np.zeros(9),) * 9,
        g_hats=(np.zeros((9, 1)),) * 9,
        d=np.array([1.0]),
        t_hats=(np.ones(9),) * 9,
    )
    with pytest.raises(ValueError):
        brute_force_oracle(lp, grid=100)
    with pytest.raises(ValueError):
        brute_force_oracle(two_action_lp(), grid=0)


def test_extract_reference_point():
    sol = solve_lp(two_action_lp())
    ref = extract_reference_point(sol)
    assert len(ref) == 1
    assert ref[0].f_hat == pytest.approx(0.5, abs=1e-9)
    assert ref[0].g_hat[0] == pytest.approx(1.0, abs=1e-9)

    # point-mass optimum reproduces the chosen action's vector
    lp = StationaryLP(
        f_hats=(np.array([3.0, 1.0]),),
        g_hats=(np.array([[0.5], [0.25]]),),
        d=np.array([4.0]),
        t_hats=(np.ones(2),),
    )
    ref = extract_reference_point(solve_lp(lp))
    assert ref[0].f_hat == pytest.approx(1.0, abs=1e-9)
    assert ref[0].g_hat[0] == pytest.approx(0.25, abs=1e-9)

    with pytest.raises(ValueError):
        extract_reference_point(
            brute_force_oracle(
                StationaryLP(
                    f_hats=(np.array([1.0]),),
                    g_hats=(np.array([[-1.0]]),),
                    d=np.array([-2.0]),
                    t_hats=(np.array([1.0]),),
                ),
                grid=10,
            )
        )


def test_stationary_policy_weights_algebra():
    # probabilities p proportional to theta / t_hat reproduce the LP point:
    # sum_a p_a y_hat_a / sum_a p_a t_hat_a == sum_a theta_a f_hat_a
    model = model_from_vectors(
        [1.0, 4.0, 2.0], [[0.5], [-1.0], [2.0]], [2.0, 5.0, 3.0]
    )
    lp = StationaryLP.from_models([model], d=[0.4])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    p = stationary_policy_weights(sol)[0]
    assert p.shape == (3,)
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    f_frame = (p @ model.y_hats) / (p @ model.t_hats)
    g_frame = (p @ model.z_hats) / (p @ model.t_hats)
    assert f_frame == pytest.approx(sol.objective, abs=1e-9)
    assert g_frame == pytest.approx(sol.achieved[0], abs=1e-9)


def test_from_models_uses_performance_vectors():
    model = model_from_vectors([2.0, 3.0], [[1.0], [0.5]], [4.0, 2.0])
    lp = StationaryLP.from_models([model], d=[0.75])
    assert np.allclose(lp.f_hats[0], [2.0, 3.0], atol=1e-12)
    assert np.allclose(lp.g_hats[0], [[1.0], [0.5]], atol=1e-12)
    assert np.array_equal(lp.t_hats[0], model.t_hats)


def test_lp_validation_errors():
    with pytest.raises(ValueError):
        StationaryLP((), (), np.array([1.0]), ())
    with pytest.raises(ValueError):
        StationaryLP(
            (np.array([1.0]),), (np.array([[1.0, 2.0]]),), np.array([1.0]), (np.array([1.0]),)
        )
    with pytest.raises(ValueError):
        StationaryLP(
            (np.array([1.0]),),
            (np.array([[1.0]]),),
            np.array([1.0]),
            t_hats=(np.array([1.0, 2.0]),),
        )
