import hashlib
import re
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renewalopt import simulation
from renewalopt.controller import queue_step
from renewalopt.core import (
    PerformanceTriple,
    PerformanceVector,
    RenewalSystemModel,
    sample_frame,
)
from renewalopt.distributions import (
    ConstantRateSampler,
    GeometricLength,
    constant_rate_model,
)
from renewalopt.simulation import (
    CappedPoisson,
    CheckViolation,
    DppRatioPolicy,
    ExternalProcess,
    FrameStats,
    RandomizedStationaryPolicy,
    RunTrace,
    check_queue_bound,
    default_poisson_cap,
    drift_diagnostic,
    frame_stats,
    queue_trajectory,
    run,
    stationary_predictions,
    uniform_frame_drift_bound,
)
from renewalopt.benchmark import extract_reference_point, stationary_policy_weights
from renewalopt.config import parse_config
from renewalopt.scheduling import TABLE1, SchedulingInstance, ServerClassParams, build_instance

from conftest import (
    DeterministicLength,
    FixedDrawSampler,
    FixedValue,
    model_from_vectors,
    one_frame,
    queue_update,
)
from test_cli import CHECKED_CONFIG


def single_action_setup(rate=3.0, z_rate=0.0, d_value=1.0, length=2):
    model = constant_rate_model(
        [rate], [[z_rate]], [DeterministicLength(length)], y_max=abs(rate) or 1.0
    )
    return [model], ExternalProcess((FixedValue(d_value),))


def test_fixed_value_coordinate():
    f = FixedValue(-2.5)
    assert f.mean == -2.5
    assert f.max_abs == 2.5
    assert np.array_equal(f.sample_array(np.random.default_rng(0), 3), [-2.5] * 3)


def test_capped_poisson_coordinate():
    assert default_poisson_cap(4.0) == 24
    c = CappedPoisson(4.0)
    assert c.cap == 24
    assert c.mean == 4.0
    assert c.max_abs == 24.0
    draws = c.sample_array(np.random.default_rng(1), 100_000)
    assert draws.max() <= 24
    assert draws.min() >= 0
    assert abs(draws.mean() - 4.0) < 0.03
    flipped = CappedPoisson(4.0, scale=-1.0)
    assert flipped.mean == -4.0
    assert flipped.max_abs == 24.0
    draws = flipped.sample_array(np.random.default_rng(1), 1000)
    assert draws.max() <= 0 and draws.min() >= -24
    with pytest.raises(ValueError):
        CappedPoisson(10.0, cap=5)
    with pytest.raises(ValueError):
        CappedPoisson(0.0)


def test_external_process_matrix():
    ext = ExternalProcess((FixedValue(1.0), FixedValue(-2.0)))
    assert ext.n_metrics == 2
    assert ext.max_abs() == 2.0
    mat = ext.sample_matrix(np.random.default_rng(0), 4)
    assert mat.shape == (4, 2)
    assert np.array_equal(mat[:, 0], [1.0] * 4)
    with pytest.raises(ValueError):
        ExternalProcess(())


def test_policy_validation():
    p = DppRatioPolicy(5)
    assert p.v == 5.0
    with pytest.raises(ValueError):
        DppRatioPolicy(1.0, solver="newton")
    for v in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            DppRatioPolicy(v)
    with pytest.raises(ValueError):
        RandomizedStationaryPolicy((np.array([0.5, 0.4]),))  # sums to 0.9
    with pytest.raises(ValueError):
        RandomizedStationaryPolicy((np.array([1.5, -0.5]),))
    w = RandomizedStationaryPolicy((np.array([0.25, 0.75]),)).weights[0]
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_run_single_action_exact_averages():
    models, external = single_action_setup(rate=3.0, z_rate=0.0, d_value=1.0)
    policy = DppRatioPolicy(1.0)
    trace = run(models, external, policy, slots=200, seed=0)
    assert trace.avg_penalty == 3.0
    assert np.array_equal(trace.avg_metrics, [0.0])
    assert trace.frames_per_system[0] == 100
    # z - d = -1 every slot, so the queue never leaves zero
    assert np.array_equal(trace.final_queues, [0.0])
    assert np.array_equal(trace.queue_slot_sum, [0.0])
    stats = frame_stats(trace)[0]
    assert stats.count == 100
    assert stats.empirical_f == 3.0
    assert stats.f_se() == 0.0


def test_trace_records_what_run_was_given(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    policy = DppRatioPolicy(10.0)
    trace = run(models, external, policy, slots=100, seed=4)
    assert type(trace.models) is tuple and len(trace.models) == len(models)
    assert all(a is b for a, b in zip(trace.models, models))
    assert trace.process is external and trace.policy is policy and trace.seed == 4


def test_run_is_deterministic_per_seed(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    a = run(models, external, DppRatioPolicy(5.0), slots=2000, seed=9)
    b = run(models, external, DppRatioPolicy(5.0), slots=2000, seed=9)
    assert a.total_penalty == b.total_penalty
    assert np.array_equal(a.total_metrics, b.total_metrics)
    assert np.array_equal(a.final_queues, b.final_queues)
    assert np.array_equal(a.queue_slot_sum, b.queue_slot_sum)
    assert np.array_equal(a.frames_per_system, b.frames_per_system)
    c = run(models, external, DppRatioPolicy(5.0), slots=2000, seed=10)
    assert c.total_penalty != a.total_penalty


def test_solver_choice_does_not_change_the_run(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    a = run(models, external, DppRatioPolicy(20.0, solver="enumerate"), 2000, seed=3)
    b = run(models, external, DppRatioPolicy(20.0, solver="bisection"), 2000, seed=3)
    assert a.total_penalty == b.total_penalty
    assert np.array_equal(a.final_queues, b.final_queues)


def test_penalty_series_is_laid_down_in_frame_start_order():
    # y[t] must be 0.0 plus each covering frame's rate in the order the
    # frames started, ties by system index, as laying each frame's rate on
    # its slots one frame at a time adds them: these rates round differently
    # in another order, and long frames keep old starts covering new ones;
    # the stationary policy mixes the actions, whatever their rates
    big = 1e16 / 3
    long, geo, short = DeterministicLength(36), GeometricLength(20), DeterministicLength(3)
    specs = [  # per system: each action's penalty rate and length
        ([0.1, big], [long, geo]),
        ([0.2, 0.7], [geo, short]),
        ([0.7, 0.1], [short, long]),
        ([big, 0.2], [GeometricLength(2.5), geo]),
    ]
    models = [constant_rate_model(rates, [[1.0], [0.0]], lens) for rates, lens in specs]
    policy = RandomizedStationaryPolicy(([0.5, 0.5],) * len(models))
    slots = 1500
    trace = run(models, ExternalProcess((FixedValue(1.5),)), policy, slots, seed=3)

    starts = sorted(
        (start, n, length, action)
        for n, log in enumerate(trace.frames)
        for start, length, action in log.tolist()
    )
    expected = np.zeros(slots)
    for start, n, length, action in starts:
        expected[start : start + length] += specs[n][0][action]
    assert trace.penalty.tobytes() == expected.tobytes()

    # the fixture tells the orders apart: every action is taken, and adding
    # the covering rates in system-index order gives other bits
    assert all(set(log[:, 2].tolist()) == {0, 1} for log in trace.frames)
    by_index = np.zeros(slots)
    for start, n, length, action in sorted(starts, key=lambda row: row[1]):
        by_index[start : start + length] += specs[n][0][action]
    assert by_index.tobytes() != expected.tobytes()


def covering_fold(logs, rates, slots):
    """Per slot, 0.0 plus the rates of the frames covering it, added one at a
    time in frame-start order, ties by system index."""
    y = []
    for t in range(slots):
        covering = sorted(
            (start, n, rate)
            for n, (log, frame_rates) in enumerate(zip(logs, rates))
            for (start, length, _), rate in zip(log.tolist(), frame_rates.tolist())
            if start <= t < start + length
        )
        total = 0.0
        for _, _, rate in covering:
            total += rate
        y.append(total)
    return np.array(y)


@st.composite
def frame_logs(draw):
    """Back-to-back frame logs and rates of 1-12 systems, the last frame of each
    possibly past the horizon, and a chunk size for the fold."""
    slots, n_sys = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    length = st.integers(1, 3) | st.integers(1, 2 * slots)  # unit frames often
    rate = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.7, 1e16 / 3]) | st.floats(-1e3, 1e3)
    logs, rates = [], []
    for _ in range(n_sys):
        rows = [[0, draw(length), 0]]
        while (start := rows[-1][0] + rows[-1][1]) < slots:
            rows.append([start, draw(length), 0])
        logs.append(np.array(rows, dtype=np.int64))
        rates.append(np.array(draw(st.lists(rate, min_size=len(rows), max_size=len(rows)))))
    # _CHUNK // n_sys slots per chunk: from 1 up to past the horizon
    chunk = draw(st.integers(1, 2 * slots * n_sys) | st.just(simulation._CHUNK))
    return logs, rates, slots, chunk


# slot 1: system 2's frame started first, so y is (big + 0.7) + 0.7, where
# system-index order adds 0.7 + 0.7 + big and rounds otherwise
_big_last = [np.array([[0, 1, 0], [1, 2, 0]])] * 2 + [np.array([[0, 3, 0]])]


@given(frame_logs())
@example((_big_last, [np.array([0.7, 0.7])] * 2 + [np.array([1e16 / 3])], 3, 3))
@settings(max_examples=200, deadline=None)
def test_penalty_series_folds_each_slot_in_frame_start_order(case):
    logs, rates, slots, chunk = case
    with mock.patch.object(simulation, "_CHUNK", chunk):
        y = simulation._penalty_series(logs, rates, slots)
    assert y.tobytes() == covering_fold(logs, rates, slots).tobytes()


def test_frame_stats_adds_a_block_as_its_frames_one_at_a_time():
    # a block's sums go on from the running sums one frame at a time, as
    # adding the frames singly does; np.sum's pairwise adds round otherwise
    rng = np.random.default_rng(3)
    y = rng.uniform(-1e3, 1e3, 700) * np.where(rng.random(700) < 0.1, 1e13, 1.0)
    z, t = rng.uniform(-50, 50, (700, 2)), rng.integers(1, 40, 700)
    sums = [0.0] * 5
    z_sums = [np.zeros(2) for _ in range(3)]
    for y_k, z_k, t_k in zip(y.tolist(), z, t.tolist()):
        t_k = float(t_k)
        for i, term in enumerate((y_k, t_k, y_k * y_k, y_k * t_k, t_k * t_k)):
            sums[i] += term
        for acc, term in zip(z_sums, (z_k, z_k * z_k, z_k * t_k)):
            acc += term
    stats = FrameStats(2)
    stats.add(y[:250], z[:250], t[:250])
    stats.add(y[250:], z[250:], t[250:])
    assert stats.count == 700
    got = [stats.sum_y, stats.sum_t, stats.sum_yy, stats.sum_yt, stats.sum_tt]
    assert np.array(got).tobytes() == np.array(sums).tobytes()
    for acc, got in zip(z_sums, (stats.sum_z, stats.sum_zz, stats.sum_zt)):
        assert got.tobytes() == acc.tobytes()
    assert np.sum(y) != sums[0]  # the fixture tells sequential from pairwise adds


def test_trajectory_replays_queue_update_exactly(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    trace = run(models, external, DppRatioPolicy(20.0), slots=1500, seed=4)
    traj = queue_trajectory(trace, stride=1)
    assert traj.queues.shape == (1501, 3)
    assert np.array_equal(traj.times, np.arange(1501))
    q = np.zeros(3)
    for t in range(1500):
        assert np.array_equal(traj.queues[t], q)
        q = queue_update(q, trace.metrics[t], trace.external[t])
    assert np.array_equal(traj.queues[1500], q)
    assert np.array_equal(trace.final_queues, q)
    # averages are consistent with the recorded series
    assert trace.total_penalty == pytest.approx(trace.penalty.sum(), abs=1e-9)
    assert np.allclose(trace.total_metrics, trace.metrics.sum(axis=0), atol=1e-9)


def test_queue_dominates_cumulative_net_input(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    trace = run(models, external, DppRatioPolicy(10.0), slots=3000, seed=6)
    # same summation order as the engine, so the comparison is exact
    cum = np.cumsum(trace.metrics - trace.external, axis=0)
    assert np.all(trace.queues[1:] >= cum)
    check_queue_bound(trace)


def test_queue_bound_check_names_first_violation():
    # hand-built trace: net input z - d accumulates to (2, 0) by slot 1, but
    # Q[3] = (1.5, 0) dips below it at slot 2; slot 3 breaks constraint 1 too
    metrics = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    external = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    queues = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.5, 0.0], [3.0, -1.0]])
    frames = (np.array([[0, 4, 0]]),)
    # check_queue_bound reads only the series, so the run's inputs and the
    # frame columns are left out
    trace = RunTrace(
        (), None, None, 0, np.zeros(4), metrics, external, queues, frames, (), (), ()
    )
    message = "queue lower bound violated at slot 2, constraint 0: Q=1.5 < cumulative net input 2.0"
    with pytest.raises(CheckViolation, match=f"^{re.escape(message)}$"):
        check_queue_bound(trace)
    # the recursion itself never breaks the bound
    q = np.zeros(2)
    for t in range(4):
        q = queue_update(q, metrics[t], external[t])
        queues[t + 1] = q
    check_queue_bound(trace)


def test_trajectory_stride_and_final_row(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    trace = run(models, external, DppRatioPolicy(1.0), slots=2500, seed=1)
    traj = queue_trajectory(trace, stride=500)
    assert np.array_equal(traj.times, [0, 500, 1000, 1500, 2000, 2500])
    assert np.array_equal(traj.queues[-1], trace.final_queues)
    for bad in (0, -5):
        with pytest.raises(ValueError, match="stride must be >= 1"):
            queue_trajectory(trace, stride=bad)
    # default stride keeps the row count near ten thousand
    big = queue_trajectory(run(models, external, DppRatioPolicy(1.0), slots=25_000, seed=1))
    assert big.times[0] == 0
    assert big.times[-1] == 25_000
    assert len(big.times) <= 10_002


def test_frame_records_tile_the_horizon(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    trace = run(models, external, DppRatioPolicy(10.0), slots=1000, seed=2)
    for n, recs in enumerate(trace.frames):
        assert len(recs) == trace.frames_per_system[n]
        assert recs[0][0] == 0
        for (t0, length, idx), (t1, _, _) in zip(recs, recs[1:]):
            assert t0 + length == t1  # frames are back to back
            assert 0 <= idx < models[n].n_actions
        last_start, last_len, _ = recs[-1]
        assert last_start < 1000 <= last_start + last_len


def test_analyses_read_the_record_and_draw_nothing(table1_env, monkeypatch):
    # the per-frame analyses read the frames the run logged: with every
    # sampler and the stationary draw raising, and another seed on the
    # trace, they give the original trace's numbers bit for bit
    models, external, sol = table1_env["models"], table1_env["external"], table1_env["sol"]
    reference = extract_reference_point(sol)
    runs = {
        policy: run(models, external, policy, slots=3000, seed=2)
        for policy in (
            DppRatioPolicy(10.0),
            RandomizedStationaryPolicy(stationary_policy_weights(sol)),
        )
    }

    def analyses(dpp, stationary):
        drift = drift_diagnostic(dpp, reference)
        return [
            frame_stats_digest(frame_stats(dpp)),
            frame_stats_digest(frame_stats(stationary)),
            [np.asarray(x).tobytes() for x in (drift.c0, drift.frame_counts, drift.excess_mean,
                                                drift.excess_se)],
            [
                [np.asarray(getattr(system, f.name)).tobytes() for f in fields(system)]
                for system in stationary_predictions(stationary)
            ],
        ]

    expected = analyses(*runs.values())

    class Raising:
        def sample(self, rng, k):
            raise AssertionError("a frame was drawn again")

    def no_draw(self, n, rng):
        raise AssertionError("an action was drawn again")

    raising = replace(models[0], samplers=(Raising(),) * models[0].n_actions)
    monkeypatch.setattr(RandomizedStationaryPolicy, "draw_action", no_draw)
    stripped = [replace(trace, models=(raising,) * len(models), seed=3) for trace in runs.values()]
    assert analyses(*stripped) == expected


def test_checked_run_completes_clean(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    trace = run(models, external, DppRatioPolicy(20.0), slots=2000, seed=8, check=True)
    assert trace.slots == 2000


def test_checked_run_checks_bounds_on_the_compact_draw(table1_env):
    # the bound check reads each compact FrameOutcome
    models, external = table1_env["models"], table1_env["external"]
    trace = run(models, external, DppRatioPolicy(100.0), slots=2000, seed=3, check=True)
    assert trace.frames_per_system.sum() > 0


def stale_queue_solver(solve):
    """Decides on the previous frame start's Q."""
    seen = []

    def stale(model, q, v):
        seen.append(np.array(q))
        return solve(model, seen[-2] if len(seen) > 1 else q, v)

    return stale


def off_by_one_solver(solve):
    """Returns the action after the minimizer."""
    return lambda model, q, v: (solve(model, q, v) + 1) % model.n_actions


@pytest.mark.parametrize(
    "faulty", [stale_queue_solver, off_by_one_solver], ids=["stale_queue", "off_by_one"]
)
def test_checked_run_catches_a_stale_queue_decision(table1_env, monkeypatch, faulty):
    # the certificate recomputes the objectives at the engine's current Q and
    # reads the action the engine lays down, so a solver that decides on the
    # previous frame start's Q, or returns another action, must be caught
    monkeypatch.setattr(simulation, "solve_enumerate", faulty(simulation.solve_enumerate))
    models, external = table1_env["models"], table1_env["external"]
    run(models, external, DppRatioPolicy(10.0), slots=2000, seed=0)
    with pytest.raises(CheckViolation, match="frame decision"):
        run(models, external, DppRatioPolicy(10.0), slots=2000, seed=0, check=True)


@pytest.mark.parametrize("instance", ["table1", "custom12"])
def test_checked_run_certifies_each_shared_decision_once(monkeypatch, instance):
    # the certificate runs once per (frame-start slot, model) decision, at
    # that slot's Q and on the action every frame sharing the decision lays
    # down; the slot is read from the queue steps the engine has taken
    if instance == "table1":
        models, external, _ = build_instance(TABLE1)
        policy = DppRatioPolicy(10.0, "bisection")
    else:
        models, external, _ = build_instance(parse_config(CHECKED_CONFIG).instance)
        policy = DppRatioPolicy(100.0, "bisection")
    slot = 0
    certified = {}
    step, holds = simulation.queue_step, simulation.ratio_bound_holds

    def counted_step(*args):
        nonlocal slot
        slot += 1
        return step(*args)

    def recorded(model, action, q, v):
        key = (slot, id(model))
        assert key not in certified, f"decision at {key} certified twice"
        certified[key] = (action, list(q))
        return holds(model, action, q, v)

    monkeypatch.setattr(simulation, "queue_step", counted_step)
    monkeypatch.setattr(simulation, "ratio_bound_holds", recorded)
    trace = run(models, external, policy, slots=2000, seed=1, check=True)
    for n, log in enumerate(trace.frames):
        for start, _, action in log.tolist():
            got = certified.get((start, id(models[n])))
            assert got == (action, trace.queues[start].tolist()), (n, start)
    assert len(certified) < trace.frames_per_system.sum()


def test_checked_run_catches_lying_bounds():
    # the declared triple is consistent with y_max = 5 but the sampler
    # actually emits 7 per slot; the unchecked run tolerates it, the
    # checked run must refuse
    triple = PerformanceTriple(4.0, [0.0], 1.0)
    sampler = ConstantRateSampler(DeterministicLength(1), 7.0, np.array([0.0]))
    model = RenewalSystemModel((triple,), (sampler,), 5.0, 1.0, 1.0)
    external = ExternalProcess((FixedValue(0.0),))
    run([model], external, DppRatioPolicy(1.0), slots=50, seed=0)
    with pytest.raises(CheckViolation, match="exceeds declared bounds"):
        run([model], external, DppRatioPolicy(1.0), slots=50, seed=0, check=True)


def test_checked_run_catches_lying_impulse_bounds(table1_env):
    # the scheduling sampler lays its job count as one impulse; a model that
    # declares z_max below jobs_high must fail the checked run there
    model = table1_env["models"][0]
    assert max(c.jobs_high for c in TABLE1.classes) > 20
    lying = RenewalSystemModel(
        model.actions, model.samplers, model.y_max, 20.0, model.residual_bound
    )
    external = table1_env["external"]
    run([lying] * 5, external, DppRatioPolicy(10.0), slots=300, seed=0)
    with pytest.raises(CheckViolation, match="exceeds declared bounds"):
        run([lying] * 5, external, DppRatioPolicy(10.0), slots=300, seed=0, check=True)


def test_run_rejects_malformed_frame_draws():
    # a frame the engine could not lay down (an empty frame, or an impulse
    # outside its slots) cannot be built, so no sampler can hand one over
    for args, message in (
        ((0, 1.0, None), "length 0"),
        ((2, 1.0, None, (2, 0, -1.0)), "offset 2"),
        ((2, 1.0, None, (-1, 0, -1.0)), "offset -1"),
    ):
        with pytest.raises(ValueError, match=message):
            one_frame(*args)


def test_run_rejects_impulses_on_a_missing_metric():
    # the unchecked engine samples through sample_frame, which checks the
    # impulse's metric index (-1 would land on the last metric and 2 past the
    # array) and a row's length (numpy would broadcast 1 entry onto both
    # metrics and fail on 3)
    external = ExternalProcess((FixedValue(0.0), FixedValue(0.0)))
    triple = PerformanceTriple(1.0, [0.0, 0.0], 2.0)
    for frame, message in (
        (one_frame(2, 1.0, None, (1, -1, -5.0)), "impulse on metric -1"),
        (one_frame(2, 1.0, None, (1, 2, -5.0)), "impulse on metric 2"),
        (one_frame(2, 1.0, [0.5]), "metric row of length 1"),
        (one_frame(2, 1.0, [0.5, 0.5, 0.5]), "metric row of length 3"),
    ):
        model = RenewalSystemModel((triple,), (FixedDrawSampler(frame),), 1.0, 5.0, 4.0)
        with pytest.raises(ValueError, match=f"{message} of a frame with 2 metrics"):
            run([model], external, DppRatioPolicy(1.0), slots=10, seed=0)


def test_checked_bisection_run_on_near_ties():
    # action ratios within 3e-10 of each other: Dinkelbach's stopping rule
    # alone can return a value up to tol above the exact minimum, which the
    # exact certificate of a checked run rejects
    rng = np.random.default_rng(0)
    external = ExternalProcess((FixedValue(1.0),))
    for _ in range(60):
        model = model_from_vectors(
            1.0 + rng.uniform(-3e-10, 3e-10, 4), np.zeros((4, 1)), rng.uniform(1, 10, 4)
        )
        run([model], external, DppRatioPolicy(1.0, solver="bisection"), 20, seed=0, check=True)


def test_per_system_streams_are_isolated():
    # adding a second system must not disturb the first system's frames or
    # the external draws; streams are derived from disjoint spawn keys
    model = constant_rate_model(
        [1.0, 2.0],
        [[0.5], [1.0]],
        [DeterministicLength(2), DeterministicLength(3)],
    )
    external = ExternalProcess((FixedValue(0.5),))
    policy_one = RandomizedStationaryPolicy((np.array([0.5, 0.5]),))
    policy_two = RandomizedStationaryPolicy((np.array([0.5, 0.5]),) * 2)
    a = run([model], external, policy_one, 400, seed=21)
    b = run([model, model], external, policy_two, 400, seed=21)
    assert np.array_equal(a.frames[0], b.frames[0])
    assert np.array_equal(a.external, b.external)


def test_stationary_sweep_single_action_exact():
    models, external = single_action_setup(rate=2.0, z_rate=0.5, d_value=5.0)
    policy = RandomizedStationaryPolicy((np.array([1.0]),))
    trace = run(models, external, policy, 100, seed=0)
    sys = stationary_predictions(trace)[0]
    assert sys.predicted_f == 2.0
    assert np.array_equal(sys.predicted_g, [0.5])
    assert sys.empirical_f == 2.0  # constant rates make the ratio exact
    assert np.array_equal(sys.empirical_g, [0.5])
    assert sys.frames == 50


def test_stationary_sweep_mixture_within_noise():
    model = constant_rate_model(
        [1.0, 2.0],
        [[0.0], [0.0]],
        [DeterministicLength(2), DeterministicLength(2)],
    )
    external = ExternalProcess((FixedValue(1.0),))
    policy = RandomizedStationaryPolicy((np.array([0.5, 0.5]),))
    trace = run([model], external, policy, 30_000, seed=13)
    sys = stationary_predictions(trace)[0]
    assert sys.predicted_f == 1.5
    assert sys.se_f > 0
    assert abs(sys.empirical_f - 1.5) <= 4 * sys.se_f
    assert trace.avg_penalty == pytest.approx(1.5, abs=0.05)


def test_stationary_sweep_weight_validation(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    with pytest.raises(ValueError):
        run(models, external, RandomizedStationaryPolicy((np.array([1.0, 0.0, 0.0]),)), 100, 0)
    with pytest.raises(ValueError):
        run(models, external, RandomizedStationaryPolicy((np.array([0.5, 0.5]),) * 5), 100, 0)


def test_drift_bound_formula(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    # L * z_max * (N * z_max + d_max) * B assembled from the declared pieces
    z_max = max(m.z_max for m in models)
    d_max = external.max_abs()
    b = max(m.residual_bound for m in models)
    expected = 3 * z_max * (5 * z_max + d_max) * b
    trace = run(models, external, DppRatioPolicy(1.0), slots=1, seed=0)
    assert uniform_frame_drift_bound(trace) == expected
    assert z_max == 27.0 and d_max == 24.0
    assert b == pytest.approx(109.96, abs=1e-9)


def test_drift_single_action_exact():
    # f_bar equals the only achievable rate, so each frame's drift sum is 0
    # and the recorded excess is exactly -c0
    models, external = single_action_setup(rate=3.0, z_rate=1.0, d_value=1.0)
    reference = [PerformanceVector(3.0, [1.0])]
    policy = DppRatioPolicy(7.0)
    trace = run(models, external, policy, slots=200, seed=0)
    drift = drift_diagnostic(trace, reference)
    c0 = uniform_frame_drift_bound(trace)
    assert c0 == 1.0 * 1.0 * (1.0 * 1.0 + 1.0) * 4.0
    assert drift.frame_counts[0] == 100
    assert np.array_equal(drift.excess_mean, [-c0])
    assert np.array_equal(drift.excess_se, [0.0])
    assert drift.within_bound().all()


def test_drift_with_nonzero_queue():
    # z - d = 1 every slot, so Q[t] = t and frame k (slots 2k, 2k + 1) adds
    # V * 0 + (2k + 2k + 1) * (2 - 1.5) = 2k + 0.5 to its drift sum
    models, external = single_action_setup(rate=3.0, z_rate=2.0, d_value=1.0)
    reference = [PerformanceVector(3.0, [1.5])]
    policy = DppRatioPolicy(7.0)
    trace = run(models, external, policy, slots=200, seed=0)
    assert np.array_equal(trace.queues[:, 0], np.arange(201))
    drift = drift_diagnostic(trace, reference)
    assert drift.c0 == 24.0
    sums = 2 * np.arange(100) + 0.5
    assert drift.frame_counts[0] == 100
    assert drift.excess_mean[0] == pytest.approx(sums.mean() - 24.0, abs=1e-9)
    assert drift.excess_se[0] == pytest.approx(sums.std(ddof=1) / 10, abs=1e-9)


def test_drift_diagnostic_on_energy_instance(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    reference = extract_reference_point(table1_env["sol"])
    policy = DppRatioPolicy(10.0)
    trace = run(models, external, policy, slots=20_000, seed=5)
    drift = drift_diagnostic(trace, reference)
    assert drift.frame_counts.min() > 1000
    assert drift.within_bound().all()
    # the bound is far from tight here: the mean excess is deeply negative
    assert drift.excess_mean.max() < 0


def dense_replay(trace, models):
    """Each system's per-slot y^n and z^n, its frames re-drawn from its (system, action)
    streams, FRAME_BLOCK per draw, and laid slot by slot, independently of the engine's
    frame record."""
    series = []
    for n, model in enumerate(models):
        rngs, blocks, played = {}, {}, Counter()
        horizon = int(trace.frames[n][-1, :2].sum())  # the end of the last frame
        y, z = np.zeros(horizon), np.zeros((horizon, model.n_metrics))
        for start, length, idx in trace.frames[n].tolist():
            j = played[idx] % simulation.FRAME_BLOCK
            played[idx] += 1
            if j == 0:
                if idx not in rngs:
                    stream = np.random.SeedSequence(trace.seed, spawn_key=(0, n, idx))
                    rngs[idx] = np.random.Generator(np.random.PCG64(stream))
                blocks[idx] = sample_frame(model, idx, rngs[idx], simulation.FRAME_BLOCK)
            frame = blocks[idx]
            y[start : start + length] = frame.penalty_rate[j]
            if frame.impulse is None:
                z[start : start + length] = frame.metric_rate[j]
            else:
                offsets, l, values = frame.impulse
                z[start + offsets[j], l] = values[j]
        series.append((y, z))
    return series


def exact_sum(values):
    """The double nearest the exact sum of the given doubles."""
    return float(sum(map(Fraction, values)))


def test_frame_table_matches_the_dense_per_slot_series(table1_env):
    # the table's totals are the frames' per-slot values added exactly and
    # rounded once (so rate * length), and the drift diagnostic's per-frame
    # sums are those of the per-slot terms V(y - f_bar) + <Q[t], z - g_bar>
    rate_model = constant_rate_model(
        [0.1, 1 / 3], [[0.4, 0.1], [0.1, 0.4]], [GeometricLength(3.0), GeometricLength(5.0)]
    )
    rate_external = ExternalProcess((CappedPoisson(0.6), CappedPoisson(0.6)))
    rate_reference = [PerformanceVector(0.2, [0.3, 0.1]), PerformanceVector(1 / 3, [0.1, 0.7])]
    cases = (
        ([rate_model] * 2, rate_external, DppRatioPolicy(3.0), rate_reference, 2_000, 4),
        (
            table1_env["models"],
            table1_env["external"],
            DppRatioPolicy(10.0),
            extract_reference_point(table1_env["sol"]),
            3_000,
            5,
        ),
    )
    for models, external, policy, reference, slots, seed in cases:
        trace = run(models, external, policy, slots, seed)
        queues, v = trace.queues, policy.v
        c0 = uniform_frame_drift_bound(trace)
        drift = drift_diagnostic(trace, reference)
        table = simulation._frame_table(trace)
        dense = dense_replay(trace, models)
        for n, (log, (y, z), frames, ref) in enumerate(zip(trace.frames, dense, table, reference)):
            # the table holds the logged frames that end inside the horizon
            completed = log[log[:, 0] + log[:, 1] <= slots]
            assert np.array_equal(frames.start, completed[:, 0])
            assert np.array_equal(frames.length, completed[:, 1])
            assert frames.length.shape[0] == drift.frame_counts[n] > 100
            sums = []
            for start, length, y_total, z_total in zip(
                frames.start.tolist(), frames.length.tolist(), frames.y.tolist(), frames.z
            ):
                window = slice(start, start + length)
                assert y_total == exact_sum(y[window].tolist())
                assert z_total.tolist() == [exact_sum(col) for col in z[window].T.tolist()]
                queue_terms = ((z[window] - ref.g_hat) * queues[window]).sum(axis=1)
                sums.append((v * (y[window] - ref.f_hat) + queue_terms).sum() - c0)
            sums = np.array(sums)
            assert drift.excess_mean[n] == pytest.approx(sums.mean(), rel=1e-12, abs=0)
            se = sums.std(ddof=1) / np.sqrt(sums.shape[0])
            assert drift.excess_se[n] == pytest.approx(se, rel=1e-12, abs=0)


def test_one_system_and_action_plays_the_same_frames_in_every_cell(table1_env):
    # common random numbers: the j-th frame system n plays under action a is
    # drawn from its own stream, so cells of one seed that differ in V,
    # solver or policy agree on each (system, action)'s common prefix of
    # frames: length, impulse offset, penalty rate and metric values
    models, external, sol = table1_env["models"], table1_env["external"], table1_env["sol"]
    policies = (
        DppRatioPolicy(10.0),
        DppRatioPolicy(100.0),
        DppRatioPolicy(100.0, "bisection"),
        RandomizedStationaryPolicy(stationary_policy_weights(sol)),
    )
    traces = [run(models, external, policy, 3000, seed=6) for policy in policies]

    def played(trace, n, a):
        log = trace.frames[n]
        mine = log[:, 2] == a
        offsets = trace.impulse_slots[n][mine] - log[mine, 0]
        return log[mine, 1], offsets, trace.frame_rates[n][mine], trace.frame_metrics[n][mine]

    compared = 0
    for n, model in enumerate(models):
        # V moves the action choices, so the same frame index falls elsewhere
        assert not np.array_equal(traces[0].frames[n][:, 2], traces[1].frames[n][:, 2])
        for a in range(model.n_actions):
            first = played(traces[0], n, a)
            for trace in traces[1:]:
                other = played(trace, n, a)
                common = min(first[0].shape[0], other[0].shape[0])
                for x, y in zip(first, other):
                    assert np.array_equal(x[:common], y[:common]), (n, a)
                compared += common
    assert compared > 3000


def test_analyses_name_a_system_without_completed_frames(table1_env):
    # in two slots most Table-1 systems end no frame, and a mean over no
    # frames is no number: each analysis raises one error naming the first
    models, external, sol = table1_env["models"], table1_env["external"], table1_env["sol"]
    dpp = DppRatioPolicy(10.0)
    stationary = RandomizedStationaryPolicy(stationary_policy_weights(sol))
    reference = extract_reference_point(sol)
    cases = (
        (dpp, 1, frame_stats),
        (dpp, 1, lambda trace: drift_diagnostic(trace, reference)),
        (stationary, 46, frame_stats),
        (stationary, 46, stationary_predictions),
    )
    for policy, seed, analysis in cases:
        trace = run(models, external, policy, slots=2, seed=seed)
        first = min(n for n, log in enumerate(trace.frames) if log[0, 1] > 2)
        with pytest.raises(RuntimeError, match=f"^system {first}: no completed frames"):
            analysis(trace)
    # system 0 of the stationary run at seed 46, the first seed where it does,
    # ends its first frame in two slots and system 1 does not
    assert first == 1


def test_drift_requires_dpp_policy(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    sol = table1_env["sol"]
    weights = stationary_policy_weights(sol)
    reference = extract_reference_point(sol)
    policy = RandomizedStationaryPolicy(weights)
    trace = run(models, external, policy, 100, seed=0)
    with pytest.raises(ValueError, match="dpp_ratio policy"):
        drift_diagnostic(trace, reference)


def test_stationary_predictions_require_the_stationary_policy(table1_env):
    # a dpp_ratio trace has no weights to predict from
    models, external = table1_env["models"], table1_env["external"]
    trace = run(models, external, DppRatioPolicy(10.0), 2000, seed=1)
    with pytest.raises(ValueError, match="^stationary predictions apply to the stationary policy$"):
        stationary_predictions(trace)


def test_run_argument_validation(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    with pytest.raises(ValueError):
        run(models, external, DppRatioPolicy(1.0), slots=0, seed=0)
    with pytest.raises(ValueError):
        run([], external, DppRatioPolicy(1.0), slots=10, seed=0)
    with pytest.raises(TypeError):
        run(models, external, object(), slots=10, seed=0)
    bad_external = ExternalProcess((FixedValue(1.0),))  # wrong dimension
    with pytest.raises(ValueError):
        run(models, bad_external, DppRatioPolicy(1.0), slots=10, seed=0)
    reference = extract_reference_point(table1_env["sol"])
    policy = DppRatioPolicy(1.0)
    trace = run(models[:1], external, policy, slots=10, seed=0)
    with pytest.raises(ValueError):
        # 5 reference points for 1 system
        drift_diagnostic(trace, reference)


def trace_digest(trace):
    """SHA-256 of the raw bytes of every series and frame log of a trace."""
    h = hashlib.sha256()
    for arr in (trace.penalty, trace.metrics, trace.external, trace.queues, *trace.frames):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def fingerprint_cases(table1_env):
    """(models, external, policy, slots, seed, check) of each fingerprinted run."""
    models, external = table1_env["models"], table1_env["external"]
    custom_models, custom_external, _ = build_instance(
        SchedulingInstance(
            n_servers=4,
            classes=(
                ServerClassParams(1.5, 3.0, 2, 8, 10.0, 2.0, 1.0),
                ServerClassParams(2.5, 2.2, 5, 11, 6.0, 3.1, 2.0),
            ),
        )
    )
    fixture = model_from_vectors(
        [1.0, 2.5, 0.5], [[0.5, -1.0], [-0.5, 0.25], [1.0, 1.0]], [1.0, 3.5, 2.0]
    )
    fixture_external = ExternalProcess((FixedValue(0.0), CappedPoisson(0.3, scale=-1.0)))
    weights = stationary_policy_weights(table1_env["sol"])
    return {
        "table1_enumerate": (models, external, DppRatioPolicy(20.0), 3000, 4, False),
        "custom_bisection_checked": (
            custom_models, custom_external, DppRatioPolicy(50.0, "bisection"), 3000, 7, True
        ),
        "table1_stationary": (
            models, external, RandomizedStationaryPolicy(weights), 3000, 2, False
        ),
        "constant_rate_fixture": (
            [fixture, fixture], fixture_external, DppRatioPolicy(5.0), 2000, 11, False
        ),
    }


def fingerprint_run(table1_env, name):
    models, external, policy, slots, seed, check = fingerprint_cases(table1_env)[name]
    return run(models, external, policy, slots, seed=seed, check=check)


# SHA-256 of the raw trace bytes (penalty, metrics, external, queues and the
# frame logs) of four runs; summary.csv keeps only 9 significant digits, so
# these pin the engine's arithmetic and draw order bit for bit
TRACE_FINGERPRINTS = {
    "table1_enumerate": "a8fa48458849bbe22e0ba7f22c93840c8a5371da6f9d2f6765f183a4a69b7c7c",
    "custom_bisection_checked": "e4f64d2243ddbae97d8aee777ca29058a255d8de5b41182da1fe55fc720714e1",
    "table1_stationary": "b9db6e815266b0adcf6088da492b689b1d19d8a45da3a090b482508bd63191de",
    "constant_rate_fixture": "a4a379aab0b04948302920a45524fb659cf5f81f250e565c7bc9aa77d8c429c8",
}


@pytest.mark.parametrize("name", sorted(TRACE_FINGERPRINTS))
def test_trace_fingerprint(table1_env, name):
    assert trace_digest(fingerprint_run(table1_env, name)) == TRACE_FINGERPRINTS[name]


def frame_stats_digest(stats):
    """SHA-256 of every running sum of each system's FrameStats."""
    h = hashlib.sha256()
    for st in stats:
        scalars = [st.count, st.sum_y, st.sum_t, st.sum_yy, st.sum_yt, st.sum_tt]
        h.update(np.array(scalars).tobytes())
        for arr in (st.sum_z, st.sum_zz, st.sum_zt):
            h.update(arr.tobytes())
    return h.hexdigest()


# SHA-256 of the FrameStats sums of two fingerprinted runs, which replay
# every completed frame: they pin the frame totals the replay adds up
FRAME_STATS_FINGERPRINTS = {
    "custom_bisection_checked": "d910a1553f4e38cac8cecaacbd8fc3f9fc3cbe5abb75ea5dd8a3b5441c1e6f92",
    "table1_stationary": "0e3a22ef6a74334b02ebc7fc0c2a895177ce92ad9684ca0aa13202248331eeb2",
}


@pytest.mark.parametrize("name", sorted(FRAME_STATS_FINGERPRINTS))
def test_frame_stats_fingerprint(table1_env, name):
    stats = frame_stats(fingerprint_run(table1_env, name))
    assert frame_stats_digest(stats) == FRAME_STATS_FINGERPRINTS[name]


# finite values, small enough that no sum overflows; ranges that span zero
# include 0.0 and -0.0, and d draws them on purpose
_finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
_d_entry = _finite | st.sampled_from([0.0, -0.0])


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(_finite, min_size=n, max_size=n),
            st.lists(_finite, min_size=n, max_size=n),
            st.lists(_d_entry, min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_queue_step_matches_queue_update_bitwise(qzd):
    q, z, d = qzd
    expected = queue_update(q, z, d)
    assert np.array(queue_step(q, z, d)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("solver", ["enumerate", "bisection"])
def test_shared_model_decisions_match_per_system_copies(table1_env, monkeypatch, solver):
    # systems that share a model object and start a frame in the same slot
    # share one solve; copies of the model share nothing, so each of their
    # frames is solved on its own, and both runs must lay down the same bits
    name = f"solve_{solver}"
    solve = getattr(simulation, name)
    calls = []

    def counted(model, q, v):
        calls.append(model)
        return solve(model, q, v)

    monkeypatch.setattr(simulation, name, counted)
    models, external = table1_env["models"], table1_env["external"]
    assert all(m is models[0] for m in models)
    copies = [replace(m) for m in models]
    policy = DppRatioPolicy(20.0, solver)
    shared = run(models, external, policy, 3000, seed=4, check=True)
    shared_calls = len(calls)
    calls.clear()
    separate = run(copies, external, policy, 3000, seed=4, check=True)
    frames = int(separate.frames_per_system.sum())
    assert len(calls) == frames
    assert shared_calls < frames
    assert trace_digest(shared) == trace_digest(separate)
    if solver == "enumerate":
        assert trace_digest(shared) == TRACE_FINGERPRINTS["table1_enumerate"]


def test_stationary_runs_draw_one_action_per_frame(table1_env, monkeypatch):
    draw_action = RandomizedStationaryPolicy.draw_action
    draws = []

    def counted(self, n, rng):
        draws.append(n)
        return draw_action(self, n, rng)

    monkeypatch.setattr(RandomizedStationaryPolicy, "draw_action", counted)
    trace = fingerprint_run(table1_env, "table1_stationary")
    assert np.array_equal(np.bincount(draws), trace.frames_per_system)
    assert trace_digest(trace) == TRACE_FINGERPRINTS["table1_stationary"]


def test_readme_quickstart_runs(capsys):
    # the README's library quickstart, on a 2,000-slot horizon: it reaches
    # frame_stats and drift_diagnostic, which read every completed frame
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("## Library quickstart")[1].split("```python")[1].split("```")[0]
    assert code.count("slots=200_000") == 1
    namespace = {}
    exec(code.replace("slots=200_000", "slots=2_000"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    stats, drift = namespace["stats"], namespace["drift"]
    assert namespace["trace"].slots == 2_000
    assert len(stats) == len(namespace["models"]) and all(s.count > 0 for s in stats)
    assert np.array_equal(drift.frame_counts, [s.count for s in stats])
    assert np.isfinite(drift.excess_mean).all()


def test_unit_length_frames_start_every_slot(monkeypatch):
    # every slot is a frame start of both systems, which share one model:
    # one solve and one certificate per slot, and Q steps after both frames
    model = constant_rate_model(
        [1.0, 3.0], [[2.0], [0.0]], [DeterministicLength(1), DeterministicLength(1)]
    )
    external = ExternalProcess((FixedValue(2.0),))
    calls = []

    def counted(name):
        f = getattr(simulation, name)
        return lambda *args: calls.append(name) or f(*args)

    for name in ("solve_enumerate", "ratio_bound_holds"):
        monkeypatch.setattr(simulation, name, counted(name))
    slots = 60
    trace = run([model, model], external, DppRatioPolicy(5.0), slots, seed=2, check=True)
    for log in trace.frames:
        assert np.array_equal(log[:, 0], np.arange(slots))
        assert np.array_equal(log[:, 1], np.ones(slots))
    assert np.array_equal(trace.frames[0], trace.frames[1])
    assert set(trace.frames[0][:, 2].tolist()) == {0, 1}
    assert calls == ["solve_enumerate", "ratio_bound_holds"] * slots
    q = np.zeros(1)
    for t in range(slots):
        assert trace.queues[t].tobytes() == q.tobytes()
        q = queue_update(q, trace.metrics[t], trace.external[t])
    assert trace.queues[slots].tobytes() == q.tobytes()
