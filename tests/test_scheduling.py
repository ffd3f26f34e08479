import numpy as np
import pytest

from renewalopt.core import validate_model
from renewalopt.distributions import CompoundLength, GeometricLength
from renewalopt.scheduling import (
    TABLE1,
    SchedulingInstance,
    ServerClassParams,
    ServiceIdleSampler,
    build_instance,
)
from renewalopt.simulation import DppRatioPolicy, default_poisson_cap, run


def test_class_params_validation():
    with pytest.raises(ValueError):
        ServerClassParams(0.0, 5.5, 9, 21, 16.0, 2.5, 3.0)
    with pytest.raises(ValueError):
        ServerClassParams(2.0, 0.5, 9, 21, 16.0, 2.5, 3.0)
    with pytest.raises(ValueError):
        ServerClassParams(2.0, 5.5, 9, 20, 16.0, 2.5, 3.0)  # odd-width support
    with pytest.raises(ValueError):
        ServerClassParams(2.0, 5.5, 0, 20, 16.0, 2.5, 3.0)
    with pytest.raises(ValueError):
        ServerClassParams(2.0, 5.5, 21, 9, 16.0, 2.5, 3.0)
    with pytest.raises(ValueError, match=r"jobs_high must be <= 2\*\*53"):
        ServerClassParams(2.0, 5.5, 1, 2**53 + 2, 16.0, 2.5, 3.0)
    # the job count is one 64-bit draw: supports past 2**32 values are accepted
    assert ServerClassParams(2.0, 5.5, 1, 2**32 + 1, 16.0, 2.5, 3.0).jobs_high == 2**32 + 1
    with pytest.raises(ValueError):
        SchedulingInstance(0, TABLE1.classes)
    with pytest.raises(ValueError):
        SchedulingInstance(5, ())


def test_sampler_draws_the_widest_job_count_support():
    # a block of k frames is k service draws, k idle draws and k job counts,
    # each one size-k call, so blocks of one stream follow on from each other;
    # the job count is one 64-bit draw, for supports past 2**32 - 1 values too
    for high in (21, 2**32 - 1, 2**32 + 1, 2**53 - 1):
        sampler = ServiceIdleSampler(ServerClassParams(2.0, 5.5, 1, high, 16.0, 2.5, 3.0), 0, 1)
        ref, rng = np.random.default_rng(4), np.random.default_rng(4)
        for k in (1, 64, 200):
            out = sampler.sample(rng, k)
            service, idle = ref.geometric(1 / 5.5, k), ref.geometric(1 / 2.5, k)
            jobs = ref.integers(1, high + 1, k)
            assert np.array_equal(out.length, service + idle)
            assert np.array_equal(out.impulse[0], service - 1)
            assert out.impulse[2].tolist() == [-float(j) for j in jobs.tolist()]
        assert rng.bit_generator.state == ref.bit_generator.state


def test_preset_shape():
    assert TABLE1.n_servers == 5
    assert TABLE1.n_classes == 3
    assert [c.arrival_rate for c in TABLE1.classes] == [2.0, 3.0, 4.0]
    assert all(c.idle_power == 3.0 for c in TABLE1.classes)


def test_built_triples_match_hand_arithmetic(table1_env):
    model = table1_env["models"][0]
    assert len(table1_env["models"]) == 5
    # homogeneous servers share one immutable model object
    assert all(m is model for m in table1_env["models"])
    assert model.n_actions == 3 and model.n_metrics == 3
    assert np.array_equal(model.y_hats, [23.5, 20.0 + 3.0 * 4.3, 13.0 + 3.0 * 3.7])
    assert np.array_equal(model.t_hats, [8.0, 4.6 + 4.3, 7.5])
    expected_z = np.diag([-15.0, -21.0, -17.0])
    assert np.array_equal(model.z_hats, expected_z)


def test_built_bounds(table1_env):
    model = table1_env["models"][0]
    assert model.y_max == (20.0 + 3.0) / 2  # class 2 all-minimum frame
    assert model.z_max == 27.0
    # largest frame second moment, assembled from geometric phase moments
    moments = [
        CompoundLength(
            (GeometricLength(c.service_mean), GeometricLength(c.idle_mean))
        ).second_moment
        for c in TABLE1.classes
    ]
    assert model.residual_bound == max(moments)
    assert model.residual_bound == pytest.approx(109.96, abs=1e-9)


def test_declared_y_max_covers_idle_power_above_energy():
    # with idle power above the batch energy a frame's rate rises toward the
    # idle power as the idle phase grows, past the all-minimum frame's
    inst = SchedulingInstance(2, (ServerClassParams(0.5, 2.0, 2, 4, 4.0, 3.0, 12.0),))
    models, external, _ = build_instance(inst)
    assert models[0].y_max == 12.0
    report = validate_model(models[0], 5000)
    assert [act.bound_violations for act in report.actions] == [0]
    run(models, external, DppRatioPolicy(10.0), 2000, seed=1, check=True)


@pytest.mark.parametrize(
    "energy, idle_power",
    [
        # energy = idle power: every frame's exact rate is the bound itself,
        # and the rounded (e + p*I)/(H + I) lands an ulp above it at times
        (3.1045261878621683e-176, 3.1045261878621683e-176),
        (2.9982656412602863e280, 2.9982656412602863e280),
        # (e + p)/2 underflows to 0.0, below the declared y_hat / t_hat
        (5e-324, 0.0),
    ],
)
def test_sampled_rates_stay_within_the_declared_y_max(energy, idle_power):
    inst = SchedulingInstance(1, (ServerClassParams(0.5, 1.0, 9, 1341, energy, 4.6, idle_power),))
    models, external, _ = build_instance(inst)
    assert models[0].y_max >= (energy + idle_power) / 2 and models[0].y_max > 0
    rates = models[0].samplers[0].sample(np.random.default_rng(5), 20_000).penalty_rate
    assert rates.max() <= models[0].y_max
    run(models, external, DppRatioPolicy(1.0), 300, seed=3, check=True)


def test_built_external_process(table1_env):
    external = table1_env["external"]
    assert external.n_metrics == 3
    assert [c.mean for c in external.coords] == [-2.0, -3.0, -4.0]
    caps = [default_poisson_cap(c.arrival_rate) for c in TABLE1.classes]
    assert caps == [17, 21, 24]
    assert external.max_abs() == 24.0
    mat = external.sample_matrix(np.random.default_rng(0), 5000)
    assert mat.max() <= 0.0
    assert mat.min() >= -24.0


def test_built_lp_orientation(table1_env):
    lp = table1_env["lp"]
    assert np.array_equal(lp.d, [-2.0, -3.0, -4.0])
    assert np.allclose(lp.f_hats[0], [23.5 / 8.0, 32.9 / (4.6 + 4.3), 24.1 / 7.5])


def test_sampler_emits_one_service_impulse():
    rng = np.random.default_rng(14)
    params = TABLE1.classes[1]
    sampler = ServiceIdleSampler(params, 1, 3)
    out = sampler.sample(rng, 500)
    assert out.metric_rate is None
    offset, metric, value = out.impulse
    assert metric == 1
    jobs = -value
    assert np.array_equal(jobs, np.round(jobs))
    assert (params.jobs_low <= jobs).all() and (jobs <= params.jobs_high).all()
    # at least one idle slot follows the service phase
    assert (offset <= out.length - 2).all()
    # energy is flat across the frame and sums to batch + idle draw
    service = offset + 1
    idle = out.length - service
    y_total = out.penalty_rate * out.length
    assert y_total == pytest.approx(params.energy + params.idle_power * idle, abs=1e-9)


def test_sampled_frames_match_declared_triples(table1_env):
    report = validate_model(table1_env["models"][0], 100_000)
    assert report.ok, report.flags
    for act in report.actions:
        assert act.bound_violations == 0

