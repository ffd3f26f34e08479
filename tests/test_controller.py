import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renewalopt.controller import (
    _BISECTION_TOL,
    ratio_bound_holds,
    ratio_objectives,
    solve_bisection,
    solve_enumerate,
)

from renewalopt.core import PerformanceTriple, RenewalSystemModel
from renewalopt.simulation import DppRatioPolicy

from conftest import dinkelbach_reference, model_from_vectors, queue_update


def objective(model, q, v, action):
    """The ratio objective of one action, as the solvers and certificate read it."""
    return ratio_objectives(model, q, v)[1][action]


def test_queue_update_examples():
    q = queue_update([0.0], [3.0], [1.0])
    assert np.array_equal(q, [2.0])
    q = queue_update(q, [0.0], [5.0])
    assert np.array_equal(q, [0.0])  # clamped at zero
    q = queue_update([1.0, 2.0], [0.5, -1.0], [1.0, -2.0])
    assert np.array_equal(q, [0.5, 3.0])


def test_queue_update_length_mismatch():
    with pytest.raises(ValueError):
        queue_update([0.0, 0.0], [1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        queue_update([0.0], [1.0], [0.0, 0.0])


def test_tradeoff_parameter_positive():
    assert DppRatioPolicy(3).v == 3.0
    assert type(DppRatioPolicy(3).v) is float
    with pytest.raises(ValueError):
        DppRatioPolicy(0)
    with pytest.raises(ValueError):
        DppRatioPolicy(-1)
    # The objective kernel accepts V = 0 (queue term alone) but not V < 0.
    model = model_from_vectors([1.0, 2.0], [[0.0], [1.0]], [1.0, 2.0])
    assert solve_enumerate(ratio_objectives(model, [0.0], 0.0)) in (0, 1)
    with pytest.raises(ValueError):
        ratio_objectives(model, [0.0], -1.0)


@given(
    st.lists(
        st.tuples(
            st.lists(st.floats(-100, 100), min_size=2, max_size=2),
            st.lists(st.floats(-100, 100), min_size=2, max_size=2),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_queue_stays_nonnegative_and_matches_formula(steps):
    q = np.zeros(2)
    expected = np.zeros(2)
    for z, d in steps:
        q = queue_update(q, z, d)
        expected = np.maximum(expected + (np.asarray(z) - np.asarray(d)), 0.0)
        assert np.all(q >= 0)
        assert np.array_equal(q, expected)


def test_solve_enumerate_two_action_example():
    # triples (2, [1], 2) and (4, [0], 2) with V = 1, q = (4):
    # objectives (2 + 4*1)/2 = 3 vs (4 + 0)/2 = 2, so action 1 at value 2
    model = model_from_vectors([1.0, 2.0], [[0.5], [0.0]], [2.0, 2.0])
    assert np.array_equal(model.y_hats, [2.0, 4.0])
    assert np.array_equal(model.z_hats, [[1.0], [0.0]])
    assert solve_enumerate(ratio_objectives(model, [4.0], 1.0)) == 1
    assert objective(model, [4.0], 1.0, 1) == 2.0


def test_solve_enumerate_tie_breaks_low_index():
    model = model_from_vectors([0.0, 0.0, 0.0], [[0.0]] * 3, [1.0, 2.0, 3.0])
    assert solve_enumerate(ratio_objectives(model, [0.0], 5.0)) == 0
    assert objective(model, [0.0], 5.0, 0) == 0.0


def test_solve_enumerate_pure_queue_term(table1_env):
    # V = 0 with unit queues ranks actions by sum of metric rates; the
    # middle class moves -21 expected jobs over 8.9 expected slots
    model = table1_env["models"][0]
    assert solve_enumerate(ratio_objectives(model, np.ones(3), 0.0)) == 1
    # frame mean is service mean + idle mean, accumulated in that order
    assert objective(model, np.ones(3), 0.0, 1) == -21.0 / (4.6 + 4.3)


def test_solver_dimension_checks():
    # the kernel, which every decision goes through, checks the queue length and V
    model = model_from_vectors([1.0], [[0.0, 0.0]], [1.0])
    for q in ([0.0], [0.0, 0.0, 0.0], np.zeros(1)):
        with pytest.raises(ValueError, match=f"queue length {len(q)} does not match"):
            ratio_objectives(model, q, 1.0)
    with pytest.raises(ValueError, match="V must be nonnegative"):
        ratio_objectives(model, [0.0, 0.0], -1.0)


def test_solve_bisection_matches_enumeration_exactly():
    model = model_from_vectors(
        [1.0, 2.0, -1.0], [[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]], [1.5, 4.0, 2.0]
    )
    for q in ([0.0, 0.0], [4.0, 1.0], [0.1, 7.0]):
        for v in (0.0, 1.0, 25.0):
            objectives = ratio_objectives(model, q, v)
            assert solve_bisection(objectives) == solve_enumerate(objectives)


def test_solve_bisection_stops_where_rounding_holds_theta():
    # at theta = the minimum ratio the inner minimum should be 0, but with a
    # queue in the hundreds of thousands it rounds to -1.9e-9, beyond the
    # absolute tolerance; theta cannot decrease, so the iteration stops
    # there instead of repeating the same step until its cap
    model = model_from_vectors([2.0, 5.0], [[0.5], [-13.37]], [1.0, 4.3])
    q, v = [249996.0], 10.0
    objectives = num, ratios, _ = ratio_objectives(model, q, v)
    assert num[1] - ratios[1] * model.t_hats[1] < -_BISECTION_TOL
    assert solve_bisection(objectives) == solve_enumerate(objectives) == 1


def test_solve_bisection_single_action():
    model = model_from_vectors([3.0], [[1.0]], [2.0])
    assert solve_bisection(ratio_objectives(model, [2.0], 1.0)) == 0
    assert objective(model, [2.0], 1.0, 0) == pytest.approx(3.0 + 2.0, abs=1e-12)


def test_solve_bisection_termination_certificate():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        model = model_from_vectors(
            rng.uniform(-5, 5, n), rng.uniform(-5, 5, (n, 2)), rng.uniform(1, 10, n)
        )
        q = rng.uniform(0, 10, 2)
        v = float(rng.uniform(0, 100))
        sol = solve_bisection(ratio_objectives(model, q, v))
        num = v * model.y_hats + model.z_hats @ q
        costs = num - objective(model, q, v, sol) * model.t_hats
        # stopping rule: the inner minimum at the returned ratio is >= -tol
        assert costs.min() >= -_BISECTION_TOL


def test_solve_bisection_exact_on_near_ties():
    # objectives within 3e-10 of one ratio: Dinkelbach's stopping rule alone
    # may stop on an action up to tol above the exact minimum, which the
    # exact certificate rejects; the solver must return the exact minimum
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        q = rng.uniform(0, 10, 2)
        v = float(rng.uniform(1, 100))
        g = rng.uniform(-5, 5, (n, 2))
        ratio = float(rng.uniform(-5, 5))
        f = (ratio + rng.uniform(-3e-10, 3e-10, n) - g @ q) / v
        model = model_from_vectors(f, g, rng.uniform(1, 10, n))
        objectives = ratio_objectives(model, q, v)
        sol = solve_bisection(objectives)
        assert ratio_bound_holds(objectives, sol)
        assert objectives[1][sol] == objectives[1][solve_enumerate(objectives)]


def test_solve_bisection_keeps_its_action_on_exact_ties():
    # 0.9/3 and 1.2/4 round to the same ratio, but at that theta the
    # Dinkelbach cost of action 2 is 0 and that of action 1 is 1.1e-16, so
    # the iteration stops on action 2; it is kept (switching on exact ties
    # would change runs), at the same value enumeration reports for action 1.
    # The solvers read only the declared triples, so no samplers are needed.
    triples = [PerformanceTriple(y, [0.0], t) for y, t in ((1.3, 1.0), (0.9, 3.0), (1.2, 4.0))]
    model = RenewalSystemModel(triples, [None] * 3, 2.0, 0.0, 1.0)
    objectives = ratio_objectives(model, [0.0], 1.0)
    assert solve_bisection(objectives) == 2
    assert solve_enumerate(objectives) == 1
    assert objectives[1][2] == objectives[1][1]


@st.composite
def bisection_cases(draw):
    """A model, queue and V: plain triples, exact ties (another action's triple
    times a power of two has its ratio exactly), values that round to equal
    ratios (0.9/3 and 1.2/4), queues near 2.5e5, where the inner minimum
    rounds past the tolerance, and NaN and inf queue entries."""
    n_metrics = draw(st.integers(1, 3))
    value = st.sampled_from([0.0, -0.0, 0.5, 0.9, 1.2, 1.3, -13.37]) | st.floats(-100, 100)
    length = st.sampled_from([1.0, 3.0, 4.0, 4.3]) | st.floats(1, 50)
    triples = []
    for _ in range(draw(st.integers(1, 6))):
        if triples and draw(st.booleans()):
            y, z, t = draw(st.sampled_from(triples))
            c = 2.0 ** draw(st.integers(0, 3))
            triples.append((c * y, [c * z_l for z_l in z], c * t))
        else:
            z = draw(st.lists(value, min_size=n_metrics, max_size=n_metrics))
            triples.append((draw(value), z, draw(length)))
    y_max = max(abs(y) / t for y, _, t in triples) + 1.0
    z_max = max(abs(z_l) / t for _, z, t in triples for z_l in z) + 1.0
    # the solvers read only the declared triples, so no samplers are needed
    model = RenewalSystemModel(
        [PerformanceTriple(*triple) for triple in triples], [None] * len(triples), y_max, z_max, 1.0
    )
    entry = st.sampled_from([0.0, 3.3, 249996.0, math.inf, math.nan])
    entry |= st.floats(0, 1e6) | st.floats(2.4e5, 2.6e5)
    q = draw(st.lists(entry, min_size=n_metrics, max_size=n_metrics))
    return model, q, draw(st.sampled_from([0.0, 1.0, 10.0]) | st.floats(0, 1e3))


# the exact tie of test_solve_bisection_keeps_its_action_on_exact_ties, where
# the iteration stops on action 2 and the lowest tied index is 1
TIE = RenewalSystemModel(
    [PerformanceTriple(y, [0.0], t) for y, t in ((1.3, 1.0), (0.9, 3.0), (1.2, 4.0))],
    [None] * 3, 2.0, 0.0, 1.0,
)


@given(bisection_cases())
@example((TIE, [0.0], 1.0))
@settings(max_examples=400, deadline=None)
def test_solve_bisection_matches_the_full_dinkelbach_iteration(case):
    # the solver iterates only on exact ties; everywhere it must return what
    # the full iteration returns, or raise what it raises
    model, q, v = case
    objectives = ratio_objectives(model, q, v)
    try:
        expected = dinkelbach_reference(model, q, v)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="failed to terminate"):
            solve_bisection(objectives)
    else:
        assert solve_bisection(objectives) == expected


def test_hull_minimum_lower_bounds_random_mixtures():
    # the ratio objective of any mixture is a length-weighted average of the
    # per-action ratios, so no mixture can beat the enumerated minimum
    rng = np.random.default_rng(9)
    verts = [
        (float(rng.uniform(-5, 5)), rng.uniform(-5, 5, 2), float(rng.uniform(1, 9)))
        for _ in range(6)
    ]
    ys, zs, ts = (np.array(column) for column in zip(*verts))
    model = model_from_vectors(ys / ts, zs / ts[:, None], ts)
    q = np.array([2.0, 0.5])
    v = 3.0
    best = objective(model, q, v, solve_enumerate(ratio_objectives(model, q, v)))
    for _ in range(100):
        p = rng.dirichlet(np.ones(6))
        mix = (v * p @ model.y_hats + (p @ model.z_hats) @ q) / (p @ model.t_hats)
        assert mix >= best - 1e-12


def test_ratio_bound_holds_on_solver_output():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        model = model_from_vectors(
            rng.uniform(-5, 5, n), rng.uniform(-5, 5, (n, 3)), rng.uniform(1, 10, n)
        )
        q = rng.uniform(0, 20, 3)
        v = float(rng.uniform(0, 50))
        objectives = ratio_objectives(model, q, v)
        for solver in (solve_enumerate, solve_bisection):
            assert ratio_bound_holds(objectives, solver(objectives))


def test_ratio_bound_rejects_inflated_value():
    # the certificate reads the action itself: the other action's ratio
    # objective (5 against 2) is an inflated value and must be rejected
    model = model_from_vectors([1.0, 2.0], [[1.0], [0.0]], [1.0, 1.0])
    q, v = [4.0], 1.0
    objectives = ratio_objectives(model, q, v)
    good = solve_enumerate(objectives)
    assert ratio_bound_holds(objectives, good)
    assert not ratio_bound_holds(objectives, 1 - good)
    # it reads only the ratio list, and compares as all(mine <= o for o in
    # ratios) on every list of up to three values whose comparisons are
    # special: NaN compares false both ways, -0.0 equals 0.0, and the
    # infinities bound everything
    special = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0]
    for n in (1, 2, 3):
        for ratios in itertools.product(special, repeat=n):
            for action, mine in enumerate(ratios):
                expected = all(mine <= o for o in ratios)
                assert ratio_bound_holds(((0.0,) * n, ratios, (1.0,) * n), action) is expected


def test_ratio_bound_holds_across_queue_space(table1_env):
    model = table1_env["models"][0]
    rng = np.random.default_rng(23)
    for _ in range(1000):
        q = rng.uniform(0, 200, 3)
        v = float(rng.uniform(0, 200))
        objectives = ratio_objectives(model, q, v)
        assert ratio_bound_holds(objectives, solve_enumerate(objectives))


def test_solvers_agree_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        n_metrics = int(rng.integers(1, 4))
        model = model_from_vectors(
            rng.uniform(-5, 5, n),
            rng.uniform(-5, 5, (n, n_metrics)),
            rng.uniform(1, 10, n),
        )
        q = rng.uniform(0, 10, n_metrics)
        v = float(rng.uniform(0, 100))
        objectives = ratio_objectives(model, q, v)
        a, b = (objectives[1][solve(objectives)] for solve in (solve_enumerate, solve_bisection))
        assert abs(a - b) <= 1e-8


def test_scaling_v_and_q_together_preserves_choice():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 7))
        model = model_from_vectors(
            rng.uniform(-5, 5, n), rng.uniform(-5, 5, (n, 2)), rng.uniform(1, 10, n)
        )
        q = rng.uniform(0.1, 10, 2)
        v = float(rng.uniform(0.1, 50))
        objectives = (v * model.y_hats + model.z_hats @ q) / model.t_hats
        order = np.sort(objectives)
        if len(order) > 1 and order[1] - order[0] < 1e-6 * max(1.0, abs(order[0])):
            continue  # skip near-ties, where scaling may flip the argmin
        base = solve_enumerate(ratio_objectives(model, q, v))
        for c in (1e-3, 0.7, 13.0, 1e3):
            assert solve_enumerate(ratio_objectives(model, c * q, c * v)) == base
            scaled = objective(model, c * q, c * v, base)
            assert scaled == pytest.approx(c * objective(model, q, v, base), rel=1e-12)
        checked += 1


def test_ratio_bound_holds_rejects_an_action_out_of_range(table1_env):
    # a negative index must not certify the last action, and an index past
    # the end must not fail with a bare numpy error: both are IndexError,
    # as sample_frame raises for the same index
    model = table1_env["models"][0]
    q, v = [0.0, 0.0, 80.0], 10.0
    objectives = ratio_objectives(model, q, v)
    assert ratio_bound_holds(objectives, model.n_actions - 1)
    for action in (-1, model.n_actions):
        with pytest.raises(IndexError, match=f"action index {action} out of range for 3"):
            ratio_bound_holds(objectives, action)


def test_ratio_kernel_adds_the_queue_term_in_metric_order():
    # <q, z> is 0.0 plus z_l * q_l for l = 0, 1, 2 in that order: a BLAS
    # dot product may add the same products in another order (1.41 here),
    # and a compensated sum (Python 3.12's float sum()) gives 1.0, not 0.0,
    # for the cancelling second row
    dense = model_from_vectors([1.0], [[0.1, 0.1, 0.1]], [1.0])
    q = [0.1, 0.7, 3.3]
    assert ratio_objectives(dense, q, 1.0) == ([1.4100000000000001], [1.4100000000000001], (1.0,))
    cancelling = model_from_vectors([0.0], [[1.0, 1.0, -1.0]], [1.0])
    assert ratio_objectives(cancelling, [1e16, 1.0, 1e16], 1.0)[1] == [0.0]
    # a list and an array of the same queue give the same values
    for model, q in ((dense, q), (cancelling, [1e16, 1.0, 1e16])):
        from_list = ratio_objectives(model, q, 1.0)
        from_array = ratio_objectives(model, np.array(q), 1.0)
        assert repr(from_array) == repr(from_list)  # the sign of zero included
        assert all(type(x) is float for values in from_array for x in values)


def reference_objectives(model, q, v):
    """Per action V*y_a + sum_l z_al*q_l (added to 0.0 in metric order), its ratio to t_a, and t_a.

    The plain form of the kernel on Python floats: every metric, zeros included.
    """
    nums = []
    for y_a, z_a in zip(model.y_hats.tolist(), model.z_hats.tolist()):
        s = 0.0
        for z_l, q_l in zip(z_a, q):
            s += z_l * q_l
        nums.append(v * y_a + s)
    dens = model.t_hats.tolist()
    return nums, [num / t_a for num, t_a in zip(nums, dens)], tuple(dens)


@st.composite
def kernel_cases(draw):
    n_actions, n_metrics = draw(st.integers(1, 5)), draw(st.integers(1, 4))

    def vector(elements, size):
        return st.lists(elements, min_size=size, max_size=size)

    # zeros often, so rows carry zero entries the kernel skips, and values
    # whose products round differently when added in another order
    rate = st.sampled_from([0.0, -0.0, 0.1, 1 / 3, -0.7]) | st.floats(-100, 100)
    f = draw(vector(st.floats(-100, 100), n_actions))
    g = draw(vector(vector(rate, n_metrics), n_actions))
    t = draw(vector(st.floats(1, 50), n_actions))
    # finite, as the engine's Q is: check_trace hands the kernel one column
    # per metric, one decision's queue per entry
    queue = st.sampled_from([0.0, 0.1, 3.3, 1e6 / 3]) | st.floats(0, 1e6)
    queues = draw(st.lists(vector(queue, n_metrics), min_size=1, max_size=4))
    v = draw(st.just(0.0) | st.floats(0, 1e3))
    return model_from_vectors(f, g, t), queues, v


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_ratio_kernel_and_solvers_match_a_plain_reference(case):
    model, queues, v = case
    q = queues[0]
    reference = reference_objectives(model, q, v)
    ratios = reference[1]
    best = min(ratios)
    for queue in (q, np.array(q)):
        objectives = ratio_objectives(model, queue, v)
        assert repr(objectives) == repr(reference)
        assert solve_enumerate(objectives) == ratios.index(best)
        assert ratios[solve_bisection(objectives)] == best
    # the batch form: each column has the scalar call's bits, an action with
    # no queue term one value for the whole batch, and the certificate one
    # verdict per column
    nums, batch_ratios, dens = ratio_objectives(model, [np.array(c) for c in zip(*queues)], v)
    assert dens == reference[2]
    columns = [np.broadcast_to(x, len(queues)).tolist() for x in (*nums, *batch_ratios)]
    actions = np.arange(len(queues)) % model.n_actions
    verdicts = ratio_bound_holds((nums, batch_ratios, dens), actions)
    for k, queue in enumerate(queues):
        plain = reference_objectives(model, queue, v)
        assert repr([c[k] for c in columns]) == repr(plain[0] + plain[1])
        assert verdicts[k] == ratio_bound_holds(plain, int(actions[k]))
