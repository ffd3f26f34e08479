import hashlib
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renewalopt import simulation
from renewalopt.controller import queue_step, ratio_objectives, solve_enumerate
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
    SamplePath,
    check_trace,
    drift_diagnostic,
    frame_stats,
    queue_trajectory,
    run,
)
from renewalopt.benchmark import extract_reference_point, stationary_policy_weights
from renewalopt.config import parse_config
from renewalopt.scheduling import TABLE1, SchedulingInstance, ServerClassParams, build_instance

from conftest import (
    DeterministicLength,
    FixedDrawSampler,
    FixedValue,
    drift_bound,
    drift_excess,
    model_from_vectors,
    one_frame,
    queue_update,
)
from test_cli import CHECKED_CONFIG


def single_action_setup(rate=3.0, z_rate=0.0, d_value=1.0, length=2):
    model = constant_rate_model([rate], [[z_rate]], [DeterministicLength(length)])
    return [model], ExternalProcess((FixedValue(d_value),))


def test_fixed_value_coordinate():
    f = FixedValue(-2.5)
    assert f.mean == -2.5
    assert np.array_equal(f.sample_array(np.random.default_rng(0), 3), [-2.5] * 3)


def test_capped_poisson_coordinate():
    c = CappedPoisson(4.0)
    assert c.cap == 24
    assert c.mean == 4.0
    draws = c.sample_array(np.random.default_rng(1), 100_000)
    assert draws.max() <= 24
    assert draws.min() >= 0
    assert abs(draws.mean() - 4.0) < 0.03
    flipped = CappedPoisson(4.0, scale=-1.0)
    assert flipped.mean == -4.0
    draws = flipped.sample_array(np.random.default_rng(1), 1000)
    assert draws.max() <= 0 and draws.min() >= -24
    with pytest.raises(ValueError):
        CappedPoisson(0.0)
    with pytest.raises(TypeError):  # the cap is derived from the rate, not set
        CappedPoisson(10.0, cap=5)


def test_external_process_matrix():
    ext = ExternalProcess((FixedValue(1.0), FixedValue(-2.0)))
    assert ext.n_metrics == 2
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
    assert np.array_equal(trace.queues[-1], [0.0])
    assert np.array_equal(trace.avg_queues, [0.0])
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
    assert a.avg_penalty == b.avg_penalty
    assert np.array_equal(a.avg_metrics, b.avg_metrics)
    assert np.array_equal(a.queues[-1], b.queues[-1])
    assert np.array_equal(a.avg_queues, b.avg_queues)
    assert np.array_equal(a.frames_per_system, b.frames_per_system)
    c = run(models, external, DppRatioPolicy(5.0), slots=2000, seed=10)
    assert c.avg_penalty != a.avg_penalty


def test_solver_choice_does_not_change_the_run(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    a = run(models, external, DppRatioPolicy(20.0, solver="enumerate"), 2000, seed=3)
    b = run(models, external, DppRatioPolicy(20.0, solver="bisection"), 2000, seed=3)
    assert a.avg_penalty == b.avg_penalty
    assert np.array_equal(a.queues[-1], b.queues[-1])


def test_penalty_series_is_laid_down_in_system_index_order():
    # y[t] must be 0.0 plus each covering frame's rate one system at a time in
    # index order, as laying each system's frames on its slots in turn adds
    # them: these rates round differently in frame-start order, and long frames
    # keep old starts covering new ones; the stationary policy mixes the
    # actions, whatever their rates
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

    frames = [
        (start, n, length, action)
        for n, log in enumerate(trace.frames)
        for start, length, action in log.tolist()
    ]
    by_index = np.zeros(slots)
    for start, n, length, action in frames:
        by_index[start : start + length] += specs[n][0][action]
    assert trace.penalty.tobytes() == by_index.tobytes()

    # the fixture tells the orders apart: every action is taken, and adding
    # the covering rates in frame-start order gives other bits
    assert all(set(log[:, 2].tolist()) == {0, 1} for log in trace.frames)
    by_start = np.zeros(slots)
    for start, n, length, action in sorted(frames):
        by_start[start : start + length] += specs[n][0][action]
    assert by_start.tobytes() != by_index.tobytes()


def covering_fold(logs, rates, slots):
    """Per slot, 0.0 plus the rates of the frames covering it, added one at a
    time in system-index order."""
    y = []
    for t in range(slots):
        total = 0.0
        for log, frame_rates in zip(logs, rates):
            for (start, length, _), rate in zip(log.tolist(), frame_rates.tolist()):
                if start <= t < start + length:
                    total += rate
        y.append(total)
    return np.array(y)


@st.composite
def frame_logs(draw):
    """Back-to-back frame logs and rates of 1-12 systems, the last frame of each
    possibly past the horizon."""
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
    return logs, rates, slots


# slot 1: system 2's frame started first, so frame-start order adds
# (big + 0.7) + 0.7, where system-index order adds 0.7 + 0.7 + big and
# rounds otherwise
_big_last = [np.array([[0, 1, 0], [1, 2, 0]])] * 2 + [np.array([[0, 3, 0]])]
# last frames 2**59 slots long, the scale of the longest phase draws, cut at the horizon
_longest = [np.array([[0, 2, 0], [2, 2**59, 0]]), np.array([[0, 2**59, 0]])]


@given(frame_logs())
@example((_big_last, [np.array([0.7, 0.7])] * 2 + [np.array([1e16 / 3])], 3))
@example((_longest, [np.array([0.1, 0.2]), np.array([0.7])], 5))
@settings(max_examples=200, deadline=None)
def test_penalty_series_folds_each_slot_in_system_index_order(case):
    logs, rates, slots = case
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
    times, queues = queue_trajectory(trace, stride=1)
    assert queues.shape == (1501, 3)
    assert np.array_equal(times, np.arange(1501))
    q = np.zeros(3)
    for t in range(1500):
        assert np.array_equal(queues[t], q)
        q = queue_update(q, trace.metrics[t], trace.external[t])
    assert np.array_equal(queues[1500], q)
    assert np.array_equal(trace.queues[-1], q)


def test_queue_dominates_cumulative_net_input(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    trace = run(models, external, DppRatioPolicy(10.0), slots=3000, seed=6)
    # same summation order as the engine, so the comparison is exact
    cum = np.cumsum(trace.metrics - trace.external, axis=0)
    assert np.all(trace.queues[1:] >= cum)
    check_trace(trace)


def test_queue_bound_check_names_first_violation():
    # hand-built trace: net input z - d accumulates to (2, 0) by slot 1, but
    # Q[3] = (1.5, 0) dips below it at slot 2; slot 3 breaks constraint 1 too
    metrics = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    external = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    queues = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.5, 0.0], [3.0, -1.0]])
    frames = (np.array([[0, 4, 0]]),)
    # with no systems check_trace has no decision or frame to certify and
    # goes straight to the queue bound, so the run's inputs and the frame
    # columns are left out
    trace = RunTrace(
        (), None, None, 0, np.zeros(4), metrics, external, queues, frames, (), (), ()
    )
    message = "queue lower bound violated at slot 2, constraint 0: Q=1.5 < cumulative net input 2.0"
    with pytest.raises(CheckViolation, match=f"^{re.escape(message)}$"):
        check_trace(trace)
    # the recursion itself never breaks the bound
    q = np.zeros(2)
    for t in range(4):
        q = queue_update(q, metrics[t], external[t])
        queues[t + 1] = q
    check_trace(trace)


def test_trajectory_stride_and_final_row(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    trace = run(models, external, DppRatioPolicy(1.0), slots=2500, seed=1)
    times, queues = queue_trajectory(trace, stride=500)
    assert np.array_equal(times, [0, 500, 1000, 1500, 2000, 2500])
    assert np.array_equal(queues, trace.queues[times])
    for bad in (0, -5, 2.5):
        with pytest.raises(ValueError, match="stride must be >= 1"):
            queue_trajectory(trace, stride=bad)
    # default stride keeps the row count near ten thousand
    big = run(models, external, DppRatioPolicy(1.0), slots=25_000, seed=1)
    times, _ = queue_trajectory(big)
    assert times[0] == 0
    assert times[-1] == 25_000
    assert len(times) <= 10_002


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
        return [
            frame_stats_digest(frame_stats(dpp)),
            frame_stats_digest(frame_stats(stationary)),
            [sums.tobytes() for sums in drift_diagnostic(dpp, reference)],
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
    # check_trace passes a clean trace, on Table 1 and on the 12-server
    # instance with either solver, and only reads it: every array keeps its bytes
    custom12 = build_instance(parse_config(CHECKED_CONFIG).instance)[:2]
    table1 = table1_env["models"], table1_env["external"]
    for (models, external), v, slots in ((table1, 20.0, 2000), (custom12, 100.0, 1000)):
        for solver in ("enumerate", "bisection"):
            trace = run(models, external, DppRatioPolicy(v, solver), slots=slots, seed=8)
            before = [(x.dtype, x.shape, x.tobytes()) for x in trace_arrays(trace)]
            check_trace(trace)
            assert [(x.dtype, x.shape, x.tobytes()) for x in trace_arrays(trace)] == before


def swap_action(trace, n, k):
    """A copy of the trace, its frame logs copied, whose frame k of system n took the action
    of the largest ratio objective at its own Q[t_k], above the taken one's; and the fault's
    message."""
    frames = [log.copy() for log in trace.frames]
    start, _, taken = frames[n][k].tolist()
    ratios = ratio_objectives(trace.models[n], trace.queues[start], trace.policy.v)[1]
    worst = ratios.index(max(ratios))
    assert ratios[worst] > ratios[taken]
    frames[n][k, 2] = worst
    message = (f"frame decision at slot {start}, system {n}: the ratio objective of action "
               f"{worst} exceeds another action's")
    return replace(trace, frames=tuple(frames)), message


def raise_rate(trace, n, k):
    """A copy of the trace, its rate columns copied, whose frame k of system n has a rate
    above y_max; and the fault's message."""
    rates = [rate.copy() for rate in trace.frame_rates]
    rates[n][k] = 2 * trace.models[n].y_max
    start = int(trace.frames[n][k, 0])
    message = f"sampled frame at slot {start}, system {n} exceeds declared bounds"
    return replace(trace, frame_rates=tuple(rates)), message


@pytest.fixture(scope="module")
def clean_trace(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    trace = run(models, external, DppRatioPolicy(10.0), slots=2000, seed=0)
    check_trace(trace)
    return trace


def test_check_trace_names_a_tampered_decision_or_frame(clean_trace):
    # each fault is laid on a copy of a clean trace: an action swapped for one
    # of a larger ratio objective at the recorded Q[t_k], or a rate raised
    # above y_max, raises the fault's message naming the tampered (slot, system)
    for n, k in ((2, 0), (4, 37)):
        for tamper in (swap_action, raise_rate):
            trace, message = tamper(clean_trace, n, k)
            with pytest.raises(CheckViolation, match=f"^{re.escape(message)}$"):
                check_trace(trace)


def test_check_trace_names_a_tampered_queue(clean_trace):
    # Q_l[t + 1] lowered below sum_{s<=t}(z_l[s] - d_l[s]) at a slot no frame
    # starts at, so every decision still stands on its own Q[t_k]
    starts = set(chain.from_iterable(log[:, 0].tolist() for log in clean_trace.frames))
    t, l = min(set(range(999, clean_trace.slots)) - {s - 1 for s in starts}), 1
    cum = np.cumsum(clean_trace.metrics - clean_trace.external, axis=0)[t, l]
    queues = clean_trace.queues.copy()
    queues[t + 1, l] = cum - 1.0
    message = (f"queue lower bound violated at slot {t}, constraint {l}: "
               f"Q={float(cum - 1.0)!r} < cumulative net input {float(cum)!r}")
    with pytest.raises(CheckViolation, match=f"^{re.escape(message)}$"):
        check_trace(replace(clean_trace, queues=queues))


def test_check_trace_names_the_first_fault(clean_trace):
    # any decision fault comes before any bounds fault; of two decision faults
    # the earlier slot comes first, then the lower system index (every Table-1
    # system starts a frame at slot 0)
    late = {n: int(np.searchsorted(log[:, 0], 1000)) for n, log in enumerate(clean_trace.frames)}
    assert 0 < clean_trace.frames[3][2, 0] < clean_trace.frames[4][5, 0] < 1000
    cases = (
        ((raise_rate, 3, 2), (swap_action, 1, late[1])),  # the decision, at a later slot
        ((swap_action, 0, late[0]), (swap_action, 4, 5)),  # the earlier slot, system 4
        ((swap_action, 3, 0), (swap_action, 1, 0)),  # slot 0: the lower index, system 1
    )
    for (tamper, n, k), (named, m, j) in cases:
        trace, _ = tamper(clean_trace, n, k)
        trace, message = named(trace, m, j)
        with pytest.raises(CheckViolation, match=f"^{re.escape(message)}$"):
            check_trace(trace)


def stale_queue_solver(monkeypatch):
    """The solver decides on the previous decision's objective list, built at an earlier Q."""
    seen = []

    def stale(objectives):
        seen.append(objectives)
        return solve_enumerate(seen[-2] if len(seen) > 1 else objectives)

    monkeypatch.setattr(simulation, "solve_enumerate", stale)


def off_by_one_solver(monkeypatch):
    """The solver returns the action after the minimizer."""

    def off_by_one(objectives):
        return (solve_enumerate(objectives) + 1) % len(objectives[1])

    monkeypatch.setattr(simulation, "solve_enumerate", off_by_one)


def previous_slot_queue(monkeypatch):
    """The loop's objective lists are built at Q[t-1], the last queue step's input."""
    previous = []

    def remembered(q, *args):
        previous[:] = [q]
        return queue_step(q, *args)

    def at_previous(model, q, v):  # the loop's lists only: the certificate passes columns
        return ratio_objectives(model, previous[0] if previous and type(q[0]) is float else q, v)

    monkeypatch.setattr(simulation, "queue_step", remembered)
    monkeypatch.setattr(simulation, "ratio_objectives", at_previous)


def decision_outlives_its_slot(monkeypatch):
    """The loop's objective list is memoized per model across slots."""
    lists = {}

    def memoized(model, q, v):
        if type(q[0]) is not float:  # the certificate's columns
            return ratio_objectives(model, q, v)
        return lists.setdefault(model, ratio_objectives(model, q, v))

    monkeypatch.setattr(simulation, "ratio_objectives", memoized)


@pytest.mark.parametrize(
    "faulty",
    [stale_queue_solver, off_by_one_solver, previous_slot_queue, decision_outlives_its_slot],
    ids=["stale_queue", "off_by_one", "previous_slot_queue", "decision_outlives_its_slot"],
)
def test_checked_run_catches_a_stale_queue_decision(table1_env, monkeypatch, faulty):
    # the certificate reads the objectives at the trace's own Q[t_k] and the
    # action each frame laid down, so an engine that decides on an earlier
    # decision's list, at the previous slot's Q, on a list kept past its slot,
    # or returns another action, must be caught at its first wrong decision;
    # each run gets a fresh fault, so both runs make the same decisions
    faulty(monkeypatch)
    models, external = table1_env["models"], table1_env["external"]
    trace = run(models, external, DppRatioPolicy(10.0), slots=2000, seed=0)
    faulty(monkeypatch)
    wrong = [
        (start, n)
        for n, log in enumerate(trace.frames)
        for start, _, action in log.tolist()
        if min(r := ratio_objectives(models[n], trace.queues[start], 10.0)[1]) < r[action]
    ]
    t, n = min(wrong)
    with pytest.raises(CheckViolation, match=f"^frame decision at slot {t}, system {n}: "):
        check_trace(run(models, external, DppRatioPolicy(10.0), slots=2000, seed=0))


@pytest.mark.parametrize("instance", ["table1", "custom12"])
def test_checked_run_certifies_every_frame_at_its_own_queue(monkeypatch, instance):
    # in check_trace, one certificate per system reads, for every frame, the
    # objectives at trace.queues[start] (bit for bit, as the scalar kernel
    # builds them there) and the action that frame laid down
    if instance == "table1":
        models, external, _ = build_instance(TABLE1)
        policy = DppRatioPolicy(10.0, "bisection")
    else:
        models, external, _ = build_instance(parse_config(CHECKED_CONFIG).instance)
        policy = DppRatioPolicy(100.0, "bisection")
    holds, certified = simulation.ratio_bound_holds, []

    def recorded(objectives, actions):
        certified.append((objectives, actions))
        return holds(objectives, actions)

    monkeypatch.setattr(simulation, "ratio_bound_holds", recorded)
    trace = run(models, external, policy, slots=2000, seed=1)
    check_trace(trace)
    assert len(certified) == len(models)
    for n, ((nums, ratios, dens), actions) in enumerate(certified):
        log = trace.frames[n]
        assert actions.tolist() == log[:, 2].tolist(), n
        columns = [np.broadcast_to(x, log.shape[:1]).tolist() for x in (*nums, *ratios)]
        for k, start in enumerate(log[:, 0].tolist()):
            at_q = ratio_objectives(models[n], trace.queues[start], policy.v)
            assert repr([c[k] for c in columns]) == repr(at_q[0] + at_q[1]), (n, start)
            assert dens == at_q[2]


def test_checked_run_catches_lying_bounds():
    # the declared triple is consistent with y_max = 5 but the sampler
    # actually emits 7 per slot; run tolerates it, check_trace must refuse
    triple = PerformanceTriple(4.0, [0.0], 1.0)
    sampler = ConstantRateSampler(DeterministicLength(1), 7.0, np.array([0.0]))
    model = RenewalSystemModel((triple,), (sampler,), 5.0, 1.0, 1.0)
    external = ExternalProcess((FixedValue(0.0),))
    trace = run([model], external, DppRatioPolicy(1.0), slots=50, seed=0)
    with pytest.raises(CheckViolation, match="exceeds declared bounds"):
        check_trace(trace)


def test_checked_run_catches_lying_impulse_bounds(table1_env):
    # the scheduling sampler lays its job count as one impulse; a model that
    # declares z_max below jobs_high must fail check_trace there
    model = table1_env["models"][0]
    assert max(c.jobs_high for c in TABLE1.classes) > 20
    lying = RenewalSystemModel(
        model.actions, model.samplers, model.y_max, 20.0, model.residual_bound
    )
    external = table1_env["external"]
    trace = run([lying] * 5, external, DppRatioPolicy(10.0), slots=300, seed=0)
    with pytest.raises(CheckViolation, match="exceeds declared bounds"):
        check_trace(trace)


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
    # the engine samples through sample_frame, which checks the
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
    # exact certificate of check_trace rejects
    rng = np.random.default_rng(0)
    external = ExternalProcess((FixedValue(1.0),))
    for _ in range(60):
        model = model_from_vectors(
            1.0 + rng.uniform(-3e-10, 3e-10, 4), np.zeros((4, 1)), rng.uniform(1, 10, 4)
        )
        check_trace(run([model], external, DppRatioPolicy(1.0, solver="bisection"), 20, seed=0))


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
    sys = frame_stats(trace)[0]
    assert sys.empirical_f == 2.0  # constant rates make the ratio exact
    assert np.array_equal(sys.empirical_g, [0.5])
    assert sys.count == 50


def test_stationary_sweep_mixture_within_noise():
    model = constant_rate_model(
        [1.0, 2.0],
        [[0.0], [0.0]],
        [DeterministicLength(2), DeterministicLength(2)],
    )
    external = ExternalProcess((FixedValue(1.0),))
    policy = RandomizedStationaryPolicy((np.array([0.5, 0.5]),))
    trace = run([model], external, policy, 30_000, seed=13)
    sys = frame_stats(trace)[0]
    assert sys.f_se() > 0
    assert abs(sys.empirical_f - 1.5) <= 4 * sys.f_se()
    assert trace.avg_penalty == pytest.approx(1.5, abs=0.05)


def test_stationary_sweep_weight_validation(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    with pytest.raises(ValueError):
        run(models, external, RandomizedStationaryPolicy((np.array([1.0, 0.0, 0.0]),)), 100, 0)
    with pytest.raises(ValueError):
        run(models, external, RandomizedStationaryPolicy((np.array([0.5, 0.5]),) * 5), 100, 0)


def test_drift_bound_formula(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    # L * z_max * (N * z_max + d_max) * B assembled from the declared pieces,
    # d_max the largest cap of the external process
    z_max = max(m.z_max for m in models)
    d_max = max(c.cap for c in external.coords)
    b = max(m.residual_bound for m in models)
    expected = 3 * z_max * (5 * z_max + d_max) * b
    assert drift_bound(models, d_max) == expected
    assert z_max == 27.0 and d_max == 24.0
    assert b == pytest.approx(109.96, abs=1e-9)


def test_drift_single_action_exact():
    # f_bar equals the only achievable rate, so each frame's drift sum is 0
    # and the excess over c0 is exactly -c0
    models, external = single_action_setup(rate=3.0, z_rate=1.0, d_value=1.0)
    reference = [PerformanceVector(3.0, [1.0])]
    policy = DppRatioPolicy(7.0)
    trace = run(models, external, policy, slots=200, seed=0)
    drift = drift_diagnostic(trace, reference)
    c0 = drift_bound(models, 1.0)
    assert c0 == 1.0 * 1.0 * (1.0 * 1.0 + 1.0) * 4.0
    assert drift[0].shape == (100,)
    assert np.array_equal(drift[0], np.zeros(100))
    excess_mean, excess_se = drift_excess(drift, c0)
    assert np.array_equal(excess_mean, [-c0])
    assert np.array_equal(excess_se, [0.0])
    assert np.all(excess_mean <= 3 * excess_se)


def test_drift_with_nonzero_queue():
    # z - d = 1 every slot, so Q[t] = t and frame k (slots 2k, 2k + 1) adds
    # V * 0 + (2k + 2k + 1) * (2 - 1.5) = 2k + 0.5 to its drift sum
    models, external = single_action_setup(rate=3.0, z_rate=2.0, d_value=1.0)
    reference = [PerformanceVector(3.0, [1.5])]
    policy = DppRatioPolicy(7.0)
    trace = run(models, external, policy, slots=200, seed=0)
    assert np.array_equal(trace.queues[:, 0], np.arange(201))
    drift = drift_diagnostic(trace, reference)
    c0 = drift_bound(models, 1.0)
    assert c0 == 24.0
    sums = 2 * np.arange(100) + 0.5
    assert drift[0].shape == (100,)
    assert np.array_equal(drift[0], sums)
    excess_mean, excess_se = drift_excess(drift, c0)
    assert excess_mean[0] == pytest.approx(sums.mean() - 24.0, abs=1e-9)
    assert excess_se[0] == pytest.approx(sums.std(ddof=1) / 10, abs=1e-9)


def test_drift_diagnostic_on_energy_instance(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    reference = extract_reference_point(table1_env["sol"])
    policy = DppRatioPolicy(10.0)
    trace = run(models, external, policy, slots=20_000, seed=5)
    drift = drift_diagnostic(trace, reference)
    assert min(sums.shape[0] for sums in drift) > 1000
    c0 = drift_bound(models, max(c.cap for c in external.coords))
    excess_mean, excess_se = drift_excess(drift, c0)
    assert np.all(excess_mean <= 3 * excess_se)
    # the bound is far from tight here: the mean excess is deeply negative
    assert excess_mean.max() < 0


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
        drift = drift_diagnostic(trace, reference)
        c0 = drift_bound(models, max(c.cap for c in external.coords))
        excess_mean, excess_se = drift_excess(drift, c0)
        table = simulation._frame_table(trace)
        dense = dense_replay(trace, models)
        for n, (log, (y, z), frames, ref) in enumerate(zip(trace.frames, dense, table, reference)):
            # the table holds the logged frames that end inside the horizon
            completed = log[log[:, 0] + log[:, 1] <= slots]
            assert np.array_equal(frames.start, completed[:, 0])
            assert np.array_equal(frames.length, completed[:, 1])
            assert frames.length.shape[0] == drift[n].shape[0] > 100
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
            assert excess_mean[n] == pytest.approx(sums.mean(), rel=1e-12, abs=0)
            se = sums.std(ddof=1) / np.sqrt(sums.shape[0])
            assert excess_se[n] == pytest.approx(se, rel=1e-12, abs=0)


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


def trace_arrays(trace):
    """Every array of a trace, frame columns included."""
    columns = (trace.frames, trace.frame_rates, trace.impulse_slots, trace.frame_metrics)
    return [trace.penalty, trace.metrics, trace.external, trace.queues, *chain(*columns)]


def drawn_blocks(path):
    return sum(len(blocks) for stream in path.blocks for blocks in stream)


@pytest.mark.parametrize("name", ["table1_enumerate", "constant_rate_fixture"])
def test_cells_sharing_a_sample_path_match_cells_on_their_own(table1_env, name):
    # the cells of one seed replay one SamplePath: each run starts every
    # stream at block 0, and a later cell draws the blocks past the earlier
    # cells' in both V orders; every cell, under either policy, lays down the
    # bytes it lays down on a path of its own and passes check_trace, and the
    # fingerprinted cell alone matches its pinned digest (so the path keys
    # each stream by system and action, as the fingerprints were drawn)
    models, external, pinned, slots, seed = fingerprint_cases(table1_env)[name]
    if name == "table1_enumerate":  # Table 1: impulse frames
        weights = stationary_policy_weights(table1_env["sol"])
    else:  # constant rates: row frames
        weights = [np.full(3, 1 / 3)] * 2
    policies = [DppRatioPolicy(v) for v in sorted({1.0, pinned.v, 200.0})]
    policies.append(RandomizedStationaryPolicy(weights))
    alone = {policy: trace_arrays(run(models, external, policy, slots, seed)) for policy in policies}
    assert trace_digest(run(models, external, pinned, slots, seed)) == TRACE_FINGERPRINTS[name]
    for order in (policies, policies[::-1]):
        path = SamplePath(models, external, slots, seed)
        drawn = []
        for policy in order:
            shared = run(models, external, policy, slots, seed, path=path)
            check_trace(shared)
            assert all(
                (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
                for x, y in zip(trace_arrays(shared), alone[policy], strict=True)
            ), (name, policy)
            drawn.append(drawn_blocks(path))
        assert drawn[0] < drawn[-1], drawn  # a later cell drew past the first one's blocks


def test_run_rejects_a_sample_path_of_another_cell(table1_env):
    models, external = table1_env["models"], table1_env["external"]
    path = SamplePath(models, external, 100, 1)
    policy = DppRatioPolicy(10.0)
    cases = (
        ("models", [replace(m) for m in models], external, 100, 1),
        ("an external process", models, ExternalProcess(external.coords), 100, 1),
        ("slots", models, external, 200, 1),
        ("a seed", models, external, 100, 2),
    )
    for what, cell_models, cell_external, slots, seed in cases:
        with pytest.raises(ValueError, match=f"^the sample path was built for {what} other "):
            run(cell_models, cell_external, policy, slots, seed, path=path)
    assert drawn_blocks(path) == 0
    run(list(models), external, policy, 100, 1, path=path)  # the same models, as a list
    with pytest.raises(ValueError, match="^slots must be >= 1"):  # a float compares equal
        SamplePath(models, external, 100.0, 1)


def test_shared_sample_path_arrays_are_read_only(table1_env):
    # the cells of one seed share d and every block: a write to any raises
    row_model = model_from_vectors([1.0, 2.0], [[0.5], [1.5]], [2.0, 3.0])
    cases = (
        (table1_env["models"], table1_env["external"]),
        ([row_model], ExternalProcess((FixedValue(1.0),))),
    )
    for models, external in cases:
        path = SamplePath(models, external, 200, 3)
        trace = run(models, external, DppRatioPolicy(5.0), 200, 3, path=path)
        assert trace.external is path.d
        frames = [f for stream in path.blocks for blocks in stream for f in blocks]
        columns = [trace.external]
        for f in frames:
            rows = (f.metric_rate,) if f.impulse is None else f.impulse[::2]
            columns += [f.length, f.penalty_rate, *rows]
        assert len(columns) > 3 * len(frames) > 0
        for column in columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]


def test_building_a_sample_path_draws_nothing(table1_env, monkeypatch):
    # building a path seeds no generator and calls no sampler: the first run
    # given it draws d and the blocks it reads, inside run
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((simulation, "_generator"), (simulation, "sample_frame"),
                        (ExternalProcess, "sample_matrix")):
        counted(owner, name)
    models, external = table1_env["models"], table1_env["external"]
    path = SamplePath(models, external, 500, 4)
    assert calls == Counter()
    trace = run(models, external, DppRatioPolicy(10.0), 500, 4, path=path)
    streams = sum(1 for stream in path.blocks for blocks in stream if blocks)
    assert calls["sample_matrix"] == 1 and calls["_generator"] == 1 + streams
    assert calls["sample_frame"] == drawn_blocks(path) > 0
    assert trace.external is path.d


def test_trace_bytes_bounds_the_traced_peak_of_a_warm_run(table1_env):
    # the `slots` preflight's estimate holds what the cells of one seed
    # allocate: tracemalloc's peak over a lone cell on its own sample path and
    # over a 3-cell V sweep on one shared path, as `renewalopt run` lays them
    # out, stays within trace_bytes on Table 1 and on the 12-server 6-class
    # instance, with check_trace on each finished cell or not.  The runs are
    # warm: an untraced 50-slot sweep of the same models and V values first
    # makes the one-time allocations (the objective cache per (model, V),
    # numpy's first calls), which are no part of a cell and once took a cold
    # first call past the estimate
    checked = build_instance(parse_config(CHECKED_CONFIG).instance)
    table1 = table1_env["models"], table1_env["external"]
    for (models, external), slots in ((table1, 2000), (checked[:2], 1000)):
        for vs, check in product(((100.0,), (1.0, 10.0, 100.0)), (False, True)):

            def cells(slots):
                path = SamplePath(models, external, slots, 1) if len(vs) > 1 else None
                for v in vs:  # each cell's trace is freed before the next starts
                    trace = run(models, external, DppRatioPolicy(v), slots, 1, path=path)
                    if check:
                        check_trace(trace)
                    del trace

            cells(50)
            tracemalloc.start()
            try:
                cells(slots)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= simulation.trace_bytes(models, slots, len(vs)), (len(models), vs, check)


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


@pytest.mark.parametrize(
    "error, message, bad",
    [
        (ValueError, "need at least one system", {"models": []}),
        (ValueError, "all systems must share the external process dimension",
         {"external": ExternalProcess((FixedValue(1.0),))}),
        (ValueError, "slots must be >= 1", {"slots": 0}),
        (ValueError, "slots must be >= 1", {"slots": 100.0}),
        (ValueError, "one weight vector per system required",
         {"policy": RandomizedStationaryPolicy((np.array([1.0, 0.0, 0.0]),))}),
        (ValueError, "weight length must match the system's action count",
         {"policy": RandomizedStationaryPolicy((np.array([0.5, 0.5]),) * 5)}),
        (TypeError, "unknown policy type object", {"policy": object()}),
    ],
)
def test_run_names_each_bad_argument(table1_env, error, message, bad):
    args = {"models": table1_env["models"], "external": table1_env["external"],
            "policy": DppRatioPolicy(10.0), "slots": 100, "seed": 1}
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        run(**(args | bad))


def trace_digest(trace):
    """SHA-256 of the raw bytes of every series and frame log of a trace."""
    h = hashlib.sha256()
    for arr in (trace.penalty, trace.metrics, trace.external, trace.queues, *trace.frames):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def fingerprint_cases(table1_env):
    """(models, external, policy, slots, seed) of each fingerprinted run."""
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
        "table1_enumerate": (models, external, DppRatioPolicy(20.0), 3000, 4),
        "custom_bisection_checked": (
            custom_models, custom_external, DppRatioPolicy(50.0, "bisection"), 3000, 7
        ),
        "table1_stationary": (models, external, RandomizedStationaryPolicy(weights), 3000, 2),
        "constant_rate_fixture": (
            [fixture, fixture], fixture_external, DppRatioPolicy(5.0), 2000, 11
        ),
    }


def fingerprint_run(table1_env, name):
    models, external, policy, slots, seed = fingerprint_cases(table1_env)[name]
    trace = run(models, external, policy, slots, seed=seed)
    if name == "custom_bisection_checked":
        check_trace(trace)
    return trace


# SHA-256 of the raw trace bytes (penalty, metrics, external, queues and the
# frame logs) of four runs; summary.csv keeps only 9 significant digits, so
# these pin the engine's arithmetic and draw order bit for bit
TRACE_FINGERPRINTS = {
    "table1_enumerate": "8e721b867c24615a5c4508c2319d492f4cac4dc9d58289a8d88283e6f2ed6d26",
    "custom_bisection_checked": "038187b8a836758f79728f621b11af409aae1739083f6f768a48bc446b1edf00",
    "table1_stationary": "3863ef557884dd264671747c4739ffa77a3c4a7087ec4304f188972d8f92a183",
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
    # share one objective list and solve; copies of the model share nothing,
    # so each of their frames is solved on its own, and both runs must lay
    # down the same bits
    build = simulation.ratio_objectives
    calls = []

    def counted(model, q, v):
        calls.append(model)
        return build(model, q, v)

    monkeypatch.setattr(simulation, "ratio_objectives", counted)
    models, external = table1_env["models"], table1_env["external"]
    assert all(m is models[0] for m in models)
    copies = [replace(m) for m in models]
    policy = DppRatioPolicy(20.0, solver)
    shared = run(models, external, policy, 3000, seed=4)
    check_trace(shared)
    shared_calls = len(calls)
    calls.clear()
    separate = run(copies, external, policy, 3000, seed=4)
    check_trace(separate)
    frames = int(separate.frames_per_system.sum())
    # and, in check_trace, one call per system for the certificate
    assert len(calls) == frames + len(copies)
    assert shared_calls - len(models) < frames
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
    assert [sums.shape[0] for sums in drift] == [s.count for s in stats]
    assert all(np.isfinite(sums).all() for sums in drift)


def test_unit_length_frames_start_every_slot(monkeypatch):
    # every slot is a frame start of both systems, which share one model:
    # one objective list and one solve per slot, Q steps after both frames,
    # and check_trace gives one certificate per system over all its frames
    model = constant_rate_model(
        [1.0, 3.0], [[2.0], [0.0]], [DeterministicLength(1), DeterministicLength(1)]
    )
    external = ExternalProcess((FixedValue(2.0),))
    calls = []

    def counted(name):
        f = getattr(simulation, name)
        return lambda *args: calls.append(name) or f(*args)

    for name in ("ratio_objectives", "solve_enumerate", "ratio_bound_holds"):
        monkeypatch.setattr(simulation, name, counted(name))
    slots = 60
    trace = run([model, model], external, DppRatioPolicy(5.0), slots, seed=2)
    check_trace(trace)
    for log in trace.frames:
        assert np.array_equal(log[:, 0], np.arange(slots))
        assert np.array_equal(log[:, 1], np.ones(slots))
    assert np.array_equal(trace.frames[0], trace.frames[1])
    assert set(trace.frames[0][:, 2].tolist()) == {0, 1}
    certificate = ["ratio_objectives", "ratio_bound_holds"] * 2
    assert calls == ["ratio_objectives", "solve_enumerate"] * slots + certificate
    q = np.zeros(1)
    for t in range(slots):
        assert trace.queues[t].tobytes() == q.tobytes()
        q = queue_update(q, trace.metrics[t], trace.external[t])
    assert trace.queues[slots].tobytes() == q.tobytes()
