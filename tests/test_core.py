import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renewalopt.benchmark import StationaryLP
from renewalopt.core import (
    FrameOutcome,
    PerformanceTriple,
    PerformanceVector,
    RenewalSystemModel,
    exceeds_bounds,
    sample_frame,
    validate_model,
)
from renewalopt.distributions import (
    ConstantRateSampler,
    GeometricLength,
    constant_rate_model,
)

from renewalopt.simulation import DppRatioPolicy, ExternalProcess, run

from conftest import DeterministicLength, FixedDrawSampler, FixedValue, one_frame


def performance_vectors(model: RenewalSystemModel) -> list[PerformanceVector]:
    """Each action's (f_hat, g_hat), as the stationary LP divides them."""
    lp = StationaryLP.from_models([model], np.zeros(model.n_metrics))
    return [PerformanceVector(f, g) for f, g in zip(lp.f_hats[0], lp.g_hats[0])]


def one_action_vector(triple: PerformanceTriple):
    """The performance vector of a one-action model declaring this triple."""
    (vec,) = performance_vectors(RenewalSystemModel((triple,), (None,), 1e6, 1e6, 1.0))
    return vec


def test_performance_vector_divides_totals_by_length():
    vec = one_action_vector(PerformanceTriple(2.0, [4.0], 2.0))
    assert vec.f_hat == 1.0
    assert np.array_equal(vec.g_hat, [2.0])


def test_performance_vector_zero_totals():
    vec = one_action_vector(PerformanceTriple(0.0, [0.0, 0.0], 3.0))
    assert vec.f_hat == 0.0
    assert np.array_equal(vec.g_hat, [0.0, 0.0])


def test_performance_vector_energy_class_example():
    # server class with service mean 5.5, idle mean 2.5, energy 16, idle power 3:
    # frame energy 16 + 3 * 2.5 over mean length 8 slots
    vec = one_action_vector(PerformanceTriple(16.0 + 3 * 2.5, [-15.0], 5.5 + 2.5))
    assert vec.f_hat == pytest.approx(2.9375, abs=1e-12)
    assert vec.g_hat[0] == pytest.approx(-15.0 / 8.0, abs=1e-12)


def test_triple_rejects_short_frames():
    with pytest.raises(ValueError):
        PerformanceTriple(1.0, [0.0], 0.5)
    with pytest.raises(ValueError):
        PerformanceTriple(1.0, [0.0], 0.0)


def test_triple_array_is_read_only():
    triple = PerformanceTriple(1.0, [2.0], 1.0)
    with pytest.raises(ValueError):
        triple.z_hat[0] = 5.0


def test_frame_outcome_shape_checks():
    for args, message in (
        ((0, 1.0, None), "frame of length 0"),
        ((2, 1.0, None, (2, 0, -1.0)), "impulse at offset 2 of a frame of length 2"),
        ((2, 1.0, None, (-1, 0, -1.0)), "impulse at offset -1 of a frame of length 2"),
        ((2, 1.0, np.array([1.0]), (0, 0, -1.0)), "exactly one of a metric row and an impulse"),
        ((2, 1.0, None), "exactly one of a metric row and an impulse"),
        ((2, 1.0, None, None), "exactly one of a metric row and an impulse"),
    ):
        with pytest.raises(ValueError, match=message):
            one_frame(*args)
    # the first and last slot take the impulse; the metric index is not checked here
    for offset in (0, 1):
        assert one_frame(2, 1.0, None, (offset, 5, -1.0)).length.tolist() == [2]
    # a block is checked frame by frame
    lengths, rates = np.array([3, 1, 2]), np.zeros(3)
    with pytest.raises(ValueError, match="frame of length 0"):
        FrameOutcome(np.array([3, 0, 2]), rates, np.zeros((3, 1)))
    with pytest.raises(ValueError, match="impulse at offset 1 of a frame of length 1"):
        FrameOutcome(lengths, rates, None, (np.array([2, 1, 0]), 0, np.zeros(3)))


def test_model_rejects_inconsistent_declarations():
    triple = PerformanceTriple(4.0, [0.0], 1.0)
    sampler = ConstantRateSampler(DeterministicLength(1), 4.0, np.array([0.0]))
    with pytest.raises(ValueError):
        RenewalSystemModel((), (), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RenewalSystemModel((triple,), (sampler, sampler), 5.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        # |y_hat| = 4 > y_max * t_hat = 3
        RenewalSystemModel((triple,), (sampler,), 3.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RenewalSystemModel((triple,), (sampler,), 5.0, 1.0, 0.5)
    mixed = (triple, PerformanceTriple(0.0, [0.0, 0.0], 1.0))
    with pytest.raises(ValueError):
        RenewalSystemModel(mixed, (sampler, sampler), 5.0, 1.0, 1.0)


def test_model_caches_action_arrays():
    model = constant_rate_model(
        penalty_rates=[1.0, 2.0],
        metric_rates=[[0.5], [-0.5]],
        lengths=[DeterministicLength(2), DeterministicLength(4)],
    )
    assert model.n_actions == 2
    assert model.n_metrics == 1
    assert np.array_equal(model.y_hats, [2.0, 8.0])
    assert np.array_equal(model.z_hats, [[1.0], [-2.0]])
    assert np.array_equal(model.t_hats, [2.0, 4.0])
    vecs = performance_vectors(model)
    assert vecs[0].f_hat == 1.0 and vecs[1].f_hat == 2.0
    with pytest.raises(ValueError):
        model.y_hats[0] = 99.0


def test_sample_frame_deterministic_action():
    model = constant_rate_model([3.0], [[0.0]], [DeterministicLength(1)])
    out = sample_frame(model, 0, np.random.default_rng(0), 3)
    assert out.length.tolist() == [1, 1, 1]
    assert out.penalty_rate.tolist() == [3.0, 3.0, 3.0]
    assert np.array_equal(out.metric_rate, [[0.0]] * 3)
    assert out.impulse is None


def test_sample_frame_accepts_action_id_and_checks_range():
    model = constant_rate_model(
        [1.0, 2.0], [[0.0], [0.0]], [DeterministicLength(1), DeterministicLength(2)]
    )
    out = sample_frame(model, 1, np.random.default_rng(0), 1)
    assert out.length.tolist() == [2]
    with pytest.raises(IndexError):
        sample_frame(model, 2, np.random.default_rng(0), 1)
    with pytest.raises(IndexError):
        sample_frame(model, 5, np.random.default_rng(0), 1)
    with pytest.raises(IndexError):
        sample_frame(model, -1, np.random.default_rng(0), 1)


def test_sample_frame_same_seed_same_outcome():
    model = constant_rate_model([1.0], [[2.0]], [GeometricLength(8.0)])
    a = sample_frame(model, 0, np.random.default_rng(42), 5)
    b = sample_frame(model, 0, np.random.default_rng(42), 5)
    assert np.array_equal(a.length, b.length)
    assert np.array_equal(a.penalty_rate, b.penalty_rate)
    assert np.array_equal(a.metric_rate, b.metric_rate)


def test_sample_frame_geometric_mean():
    model = constant_rate_model([1.0], [[0.0]], [GeometricLength(8.0)])
    rng = np.random.default_rng(7)
    lengths = sample_frame(model, 0, rng, 100_000).length
    assert abs(np.mean(lengths) - 8.0) < 0.1
    assert min(lengths) >= 1


@given(
    rate=st.floats(-10, 10, allow_nan=False),
    mean_len=st.floats(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_constant_rate_frames_respect_declared_bounds(rate, mean_len, seed):
    model = constant_rate_model([rate], [[rate / 2]], [GeometricLength(mean_len)])
    out = sample_frame(model, 0, np.random.default_rng(seed), 4)
    assert np.all(np.abs(out.penalty_rate) <= model.y_max)
    assert np.all(np.abs(out.metric_rate) <= model.z_max)
    vec = performance_vectors(model)[0]
    assert abs(vec.f_hat) <= model.y_max + 1e-12
    assert np.all(np.abs(vec.g_hat) <= model.z_max + 1e-12)


def test_validate_model_deterministic_unit_frames():
    model = constant_rate_model([3.0], [[1.0]], [DeterministicLength(1)])
    report = validate_model(model, 50)
    assert report.ok
    act = report.actions[0]
    assert act.bound_violations == 0
    assert act.y_mean == 3.0 and act.y_se == 0.0
    assert act.t_mean == 1.0
    # with T = 1 always, the residual at offset 0 is exactly 1
    assert act.residual_estimates[0] == 1.0
    assert not act.residual_flags.any()


def test_validate_model_catches_lying_declaration():
    # declared mean penalty 4 per unit frame, sampler actually emits 7 per slot
    triple = PerformanceTriple(4.0, [0.0], 1.0)
    sampler = ConstantRateSampler(DeterministicLength(1), 7.0, np.array([0.0]))
    model = RenewalSystemModel((triple,), (sampler,), 5.0, 1.0, 1.0)
    report = validate_model(model, 200)
    assert not report.ok
    act = report.actions[0]
    assert act.bound_violations == 200  # every frame breaks the per-slot bound
    assert any("y_hat" in f for f in report.flags)
    assert any("bound" in f for f in report.flags)


def test_validate_model_reads_the_compact_draw(table1_env):
    report = validate_model(table1_env["models"][0], 500)
    assert report.ok, report.flags
    assert all(act.bound_violations == 0 for act in report.actions)


def test_sample_frame_rejects_a_block_of_another_size():
    class OneFrame:
        def sample(self, rng, k):
            return one_frame(2, 1.0, [0.0])

    model = RenewalSystemModel((PerformanceTriple(2.0, [0.0], 2.0),), (OneFrame(),), 1.0, 1.0, 4.0)
    assert sample_frame(model, 0, np.random.default_rng(0), 1).length.tolist() == [2]
    with pytest.raises(ValueError, match="a block of 1 frames, where 3 were asked for"):
        sample_frame(model, 0, np.random.default_rng(0), 3)


def test_validate_model_rejects_malformed_frame_draws():
    # a frame cannot be built with a bad length or offset; the metric index
    # is checked by sample_frame, where the metric count is known
    for args, message in (
        ((0, 1.0, None), "length 0"),
        ((2, 1.0, None, (2, 0, -1.0)), "offset 2"),
        ((2, 1.0, None, (-1, 0, -1.0)), "offset -1"),
    ):
        with pytest.raises(ValueError, match=message):
            one_frame(*args)
    triple = PerformanceTriple(1.0, [0.0], 2.0)
    for frame, message in (
        (one_frame(2, 1.0, None, (0, 1, -1.0)), "impulse on metric 1"),
        (one_frame(2, 1.0, [0.5, 0.5]), "metric row of length 2"),
    ):
        model = RenewalSystemModel((triple,), (FixedDrawSampler(frame),), 1.0, 1.0, 4.0)
        with pytest.raises(ValueError, match=f"{message} of a frame with 1 metrics"):
            validate_model(model, 10)
        with pytest.raises(ValueError, match=f"{message} of a frame with 1 metrics"):
            sample_frame(model, 0, np.random.default_rng(0), 1)


# per-slot values: small integers (so sums land exactly on a bound), any
# double including NaN and +-inf, and both zeros
_slot_values = st.one_of(
    st.integers(-30, 30).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0]),
)
_bounds = st.one_of(st.integers(0, 30).map(float), st.floats(0.0, allow_infinity=True))


@st.composite
def _frame_draws(draw):
    length = draw(st.integers(1, 20))
    n_metrics = draw(st.integers(1, 4))
    row = impulse = None
    if draw(st.booleans()):
        row = draw(st.lists(_slot_values, min_size=n_metrics, max_size=n_metrics))
    else:
        impulse = (
            draw(st.integers(0, length - 1)),
            draw(st.integers(0, n_metrics - 1)),
            draw(_slot_values),
        )
    return one_frame(length, draw(_slot_values), row, impulse), n_metrics


@given(frame=_frame_draws(), y_max=_bounds, z_max=_bounds)
# a one-slot, one-metric frame: the impulse is the whole metric array
@example(frame=(one_frame(1, 0.0, None, (0, 0, -31.0)), 1), y_max=1.0, z_max=25.0)
@settings(max_examples=300, deadline=None)
def test_compact_frame_checks_match_the_dense_arrays(frame, y_max, z_max):
    frame, n_metrics = frame
    length = int(frame.length[0])
    with np.errstate(invalid="ignore", over="ignore"):
        # the frame's per-slot arrays, the impulse added to its entry
        penalty = np.full(length, frame.penalty_rate[0])
        if frame.metric_rate is None:
            metrics = np.zeros((length, n_metrics))
            offsets, l, values = frame.impulse
            metrics[offsets[0], l] += values[0]
        else:
            metrics = np.tile(frame.metric_rate[0], (length, 1))
        dense = (
            bool(np.any(np.abs(penalty) > y_max)),
            bool(np.any(np.abs(metrics) > z_max)),
        )
    # the engine records the frame as columns, which the bound test reads
    triple = PerformanceTriple(0.0, np.zeros(n_metrics), 1.0)
    model = RenewalSystemModel((triple,), (FixedDrawSampler(frame),), y_max, z_max, 1.0)
    external = ExternalProcess((FixedValue(0.0),) * n_metrics)
    trace = run([model], external, DppRatioPolicy(1.0), length, seed=0)
    over = exceeds_bounds(trace.frame_rates[0], trace.frame_metrics[0], y_max, z_max)
    assert (bool(over[0][0]), bool(over[1][0])) == dense


def test_validate_model_residual_flagging():
    # geometric mean 2: E[T^2] = 2*4 - 2 = 6, verified against a direct series
    series = sum(t**2 * 0.5**t for t in range(1, 200))
    assert abs(series - 6.0) < 1e-12
    length = GeometricLength(2.0)
    assert length.second_moment == 6.0

    def build(bound):
        triple = PerformanceTriple(0.0, [0.0], 2.0)
        sampler = ConstantRateSampler(length, 0.0, np.array([0.0]))
        return RenewalSystemModel((triple,), (sampler,), 1.0, 1.0, bound)

    rng = np.random.default_rng(3)
    tight = validate_model(build(6.0), 50_000, rng)
    assert not any("residual" in f for f in tight.flags)
    rng = np.random.default_rng(3)
    low = validate_model(build(2.0), 50_000, rng)
    assert any("residual" in f for f in low.flags)


def test_validate_model_ignores_thinly_sampled_offsets():
    # geometric mean 2 with the true supremum declared: E[(T-s)^2 | T >= s]
    # is 6 at s=0 and 10 - 6 + 1 = 5 for s >= 1, so bound 6 is honest
    length = GeometricLength(2.0)
    triple = PerformanceTriple(0.0, [0.0], 2.0)
    sampler = ConstantRateSampler(length, 0.0, np.array([0.0]))
    model = RenewalSystemModel((triple,), (sampler,), 1.0, 1.0, 6.0)
    report = validate_model(model, 200, np.random.default_rng(3))
    act = report.actions[0]
    # a single length-13 frame is the only one reaching offset 7, so the
    # estimate there is (13 - 7)^2 = 36 with zero SE; that lone frame is
    # not evidence against the bound and must not flag the model
    assert act.residual_counts[7] == 1
    assert act.residual_estimates[7] == 36.0
    assert act.residual_ses[7] == 0.0
    assert not act.residual_flags[7]
    assert report.ok, report.flags


def test_validate_model_rejects_bad_sample_count():
    model = constant_rate_model([1.0], [[0.0]], [DeterministicLength(1)])
    with pytest.raises(ValueError):
        validate_model(model, 0)
