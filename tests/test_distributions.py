import numpy as np
import pytest

from renewalopt.distributions import ConstantRateSampler, GeometricLength, constant_rate_model
from renewalopt.scheduling import TABLE1, ServerClassParams, ServiceIdleSampler

from conftest import DeterministicLength


# (low, stop): width 1 and 2, the Table-1 and the benchmark's six-class
# supports, and a width of 3 * 2**30, which rejects a quarter of its draws
BOUNDED_SUPPORTS = [
    (7, 8), (0, 2),
    (9, 22), (15, 28), (11, 24),
    (4, 11), (6, 13), (3, 10), (8, 17), (5, 12), (2, 9),
    (1, 1 + 3 * 2**30),
]


@pytest.mark.parametrize("low, stop", BOUNDED_SUPPORTS)
def test_bounded_integer_is_generator_integers_bit_for_bit(low, stop):
    # A block's job counts are one size-k integers call (ServiceIdleSampler);
    # each element must be the scalar call's draw, so a block keeps the
    # per-frame law.  PCG64 serves 32-bit draws from both halves of one
    # 64-bit output: chunks of odd and even length, with a geometric draw
    # (next_double) after each, leave that buffer full or empty across them.
    ref, rng = np.random.default_rng(20), np.random.default_rng(20)
    state = rng.bit_generator.state
    assert rng.integers(low, stop, 1).tolist() == [int(ref.integers(low, stop))]
    # a support of one value draws nothing
    assert (rng.bit_generator.state == state) == (stop - low == 1)
    sizes = np.random.default_rng(21).integers(1, 20, size=11_000)
    assert sizes.sum() >= 100_000
    for k in sizes.tolist():
        drawn = [int(ref.integers(low, stop)) for _ in range(k)]
        assert rng.integers(low, stop, k).tolist() == drawn
        assert rng.geometric(0.3) == ref.geometric(0.3)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_deterministic_moments_and_samples():
    d = DeterministicLength(4)
    assert d.mean == 4.0
    assert d.second_moment == 16.0
    assert d.sample(np.random.default_rng(0), 3).tolist() == [4, 4, 4]
    with pytest.raises(ValueError):
        DeterministicLength(0)


def test_geometric_moments_match_series():
    g = GeometricLength(2.0)
    # direct series for P(T = t) = (1 - p)^(t-1) p with p = 1/2
    series_mean = sum(t * 0.5**t for t in range(1, 300))
    series_m2 = sum(t**2 * 0.5**t for t in range(1, 300))
    assert g.mean == pytest.approx(series_mean, abs=1e-12)
    assert g.second_moment == pytest.approx(series_m2, abs=1e-12)

    g = GeometricLength(5.5)
    p = 1 / 5.5
    series_m2 = sum(t**2 * (1 - p) ** (t - 1) * p for t in range(1, 2000))
    assert g.second_moment == pytest.approx(2 * 5.5**2 - 5.5, abs=1e-12)
    assert g.second_moment == pytest.approx(series_m2, abs=1e-9)
    with pytest.raises(ValueError):
        GeometricLength(0.9)


def test_geometric_sampling_statistics():
    g = GeometricLength(5.5)
    rng = np.random.default_rng(11)
    draws = g.sample(rng, 100_000)
    assert draws.min() >= 1
    assert abs(draws.mean() - 5.5) < 0.07
    assert abs((draws.astype(float) ** 2).mean() - 55.0) < 1.5


def test_compound_moments_add_phases():
    # the scheduling frame T = H + I, service geometric mean 5.5 plus idle
    # geometric mean 2.5: var(H) + var(I) + (mean sum)^2
    # = (55 - 30.25) + (10 - 6.25) + 64 = 92.5
    sampler = ServiceIdleSampler(ServerClassParams(2.0, 5.5, 9, 21, 16.0, 2.5, 3.0), 0, 1)
    assert sampler.t_hat == 8.0
    assert sampler.second_moment == pytest.approx(92.5, abs=1e-12)
    rng = np.random.default_rng(2)
    draws = sampler.sample(rng, 50_000).length
    assert draws.min() >= 2
    assert abs(draws.mean() - 8.0) < 0.1
    assert abs((draws.astype(float) ** 2).mean() - 92.5) < 1.5


def test_constant_rate_sampler_triple_and_frames():
    s = ConstantRateSampler(DeterministicLength(3), 2.0, np.array([1.0, -1.0]))
    triple = s.triple()
    assert triple.y_hat == 6.0
    assert np.array_equal(triple.z_hat, [3.0, -3.0])
    assert triple.t_hat == 3.0
    out = s.sample(np.random.default_rng(0), 2)
    assert out.length.tolist() == [3, 3]
    assert out.penalty_rate.tolist() == [2.0, 2.0]
    assert np.array_equal(out.metric_rate, [[1.0, -1.0], [1.0, -1.0]])
    assert out.impulse is None


def test_constant_rate_model_defaults():
    model = constant_rate_model(
        penalty_rates=[1.0, -3.0],
        metric_rates=[[0.5], [2.0]],
        lengths=[GeometricLength(2.0), DeterministicLength(5)],
    )
    assert model.y_max == 3.0
    assert model.z_max == 2.0
    assert model.residual_bound == 25.0  # max second moment across lengths
    with pytest.raises(ValueError):
        constant_rate_model([1.0], [[0.0], [0.0]], [DeterministicLength(1)])


def exact_pmf(length, cutoff=2000):
    """P(T = k) for k = 0..cutoff, from the length's definition, not its sampler;
    a scheduling frame's is its geometric (service, idle) phase pair's convolution."""
    pmf = np.zeros(cutoff + 1)
    if isinstance(length, DeterministicLength):
        pmf[length.value] = 1.0
    elif isinstance(length, GeometricLength):
        p = 1.0 / length.mean
        k = np.arange(1, cutoff + 1)
        pmf[1:] = p * (1 - p) ** (k - 1)
    else:
        pmf[0] = 1.0
        for mean in (length.params.service_mean, length.params.idle_mean):
            pmf = np.convolve(pmf, exact_pmf(GeometricLength(mean), cutoff))[: cutoff + 1]
    return pmf


@pytest.mark.parametrize(
    "length",
    [
        DeterministicLength(1),
        DeterministicLength(7),
        GeometricLength(1.0),
        GeometricLength(5.5),
        *(
            pytest.param(
                ServiceIdleSampler(c, i, 3), id=f"service {c.service_mean:g} + idle {c.idle_mean:g}"
            )
            for i, c in enumerate(TABLE1.classes)
        ),
    ],
    ids=repr,
)
def test_residual_second_moment_peaks_at_offset_zero(length):
    # every library length is log-concave, and so is a sum of independent
    # geometric phases, hence has an increasing failure rate, so
    # E[(T - s)^2 | T >= s] is largest at s = 0, where it is E[T^2]: the
    # second moment is a valid residual bound (constant_rate_model's default,
    # and build_instance's from the scheduling frame's phase pair)
    pmf = exact_pmf(length)
    k = np.arange(pmf.shape[0])
    residuals = [
        ((k[s:] - s) ** 2 * pmf[s:]).sum() / pmf[s:].sum()
        for s in range(pmf.shape[0])
        if pmf[s:].sum() > 1e-12
    ]
    assert max(residuals) == pytest.approx(length.second_moment, abs=1e-9)
    assert residuals[0] == max(residuals)
