import numpy as np
import pytest

from renewalopt.distributions import (
    CompoundLength,
    ConstantRateSampler,
    GeometricLength,
    constant_rate_model,
)

from conftest import DeterministicLength


def test_deterministic_moments_and_samples():
    d = DeterministicLength(4)
    assert d.mean == 4.0
    assert d.second_moment == 16.0
    assert d.sample(np.random.default_rng(0)) == 4
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
    draws = np.array([g.sample(rng) for _ in range(100_000)])
    assert draws.min() >= 1
    assert abs(draws.mean() - 5.5) < 0.07
    assert abs((draws.astype(float) ** 2).mean() - 55.0) < 1.5


def test_compound_moments_add_phases():
    # service geometric mean 5.5 plus idle geometric mean 2.5:
    # var(H) + var(I) + (mean sum)^2 = (55 - 30.25) + (10 - 6.25) + 64 = 92.5
    c = CompoundLength((GeometricLength(5.5), GeometricLength(2.5)))
    assert c.mean == 8.0
    assert c.second_moment == pytest.approx(92.5, abs=1e-12)
    rng = np.random.default_rng(2)
    draws = np.array([c.sample(rng) for _ in range(50_000)])
    assert draws.min() >= 2
    assert abs(draws.mean() - 8.0) < 0.1
    assert abs((draws.astype(float) ** 2).mean() - 92.5) < 1.5


def test_constant_rate_sampler_triple_and_frames():
    s = ConstantRateSampler(DeterministicLength(3), 2.0, np.array([1.0, -1.0]))
    triple = s.triple()
    assert triple.y_hat == 6.0
    assert np.array_equal(triple.z_hat, [3.0, -3.0])
    assert triple.t_hat == 3.0
    out = s.sample(np.random.default_rng(0))
    assert out.length == 3
    assert out.penalty_rate == 2.0
    assert np.array_equal(out.metric_rate, [1.0, -1.0])
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
    """P(T = k) for k = 0..cutoff, from the length's definition, not its sampler."""
    pmf = np.zeros(cutoff + 1)
    if isinstance(length, DeterministicLength):
        pmf[length.value] = 1.0
    elif isinstance(length, GeometricLength):
        p = 1.0 / length.mean_length
        k = np.arange(1, cutoff + 1)
        pmf[1:] = p * (1 - p) ** (k - 1)
    else:
        pmf[0] = 1.0
        for phase in length.phases:
            pmf = np.convolve(pmf, exact_pmf(phase, cutoff))[: cutoff + 1]
    return pmf


@pytest.mark.parametrize(
    "length",
    [
        DeterministicLength(1),
        DeterministicLength(7),
        GeometricLength(1.0),
        GeometricLength(5.5),
        CompoundLength((DeterministicLength(2), DeterministicLength(3))),
        CompoundLength((GeometricLength(5.5), GeometricLength(2.5))),
        CompoundLength((DeterministicLength(3), GeometricLength(4.3), GeometricLength(1.7))),
    ],
    ids=repr,
)
def test_residual_second_moment_peaks_at_offset_zero(length):
    # every library length is log-concave, hence has an increasing failure
    # rate, so E[(T - s)^2 | T >= s] is largest at s = 0, where it is E[T^2]:
    # the second moment is a valid residual bound (constant_rate_model's default)
    pmf = exact_pmf(length)
    k = np.arange(pmf.shape[0])
    residuals = [
        ((k[s:] - s) ** 2 * pmf[s:]).sum() / pmf[s:].sum()
        for s in range(pmf.shape[0])
        if pmf[s:].sum() > 1e-12
    ]
    assert max(residuals) == pytest.approx(length.second_moment, abs=1e-9)
    assert residuals[0] == max(residuals)
