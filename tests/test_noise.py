import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from gridfuse.noise import (CalibrationFailureError, GaussianModel, GmmModel,
                            MixtureLikelihoodModel, UniformModel, density,
                            fit_gmm, sample)

PAPER_GMM = GmmModel.from_unnormalized(
    weights=(0.42, 0.24, 0.24, 0.01),
    means=(0.25, 13.09, -12.61, -0.3),
    variances=(13.06, 20.37, 21.05, 142.89),
)


def test_standard_normal_density_at_zero():
    assert density(GaussianModel(0.0, 1.0), 0.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)


def test_single_component_gmm_reduces_to_gaussian():
    gmm = GmmModel((1.0,), (0.0,), (1.0,))
    ys = np.linspace(-4, 4, 41)
    assert np.allclose(density(gmm, ys), density(GaussianModel(0.0, 1.0), ys))


def test_calibrated_gmm_density_independent_formula():
    # independent evaluation: explicit weighted sum of normal pdfs at y = 0
    expected = sum(w * math.exp(-0.5 * (0.0 - m) ** 2 / v) / math.sqrt(2 * math.pi * v)
                   for w, m, v in zip(PAPER_GMM.weights, PAPER_GMM.means,
                                      PAPER_GMM.variances))
    assert density(PAPER_GMM, 0.0) == pytest.approx(expected, rel=1e-12)


def test_mixture_density_convex_combination():
    mix = MixtureLikelihoodModel(0.9, GaussianModel(0.05, 0.31),
                                 UniformModel(-30, 30))
    y = 0.4
    expected = 0.9 * density(GaussianModel(0.05, 0.31), y) + 0.1 / 60.0
    assert density(mix, y) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("model", [
    GaussianModel(0.05, 0.31),
    PAPER_GMM,
    MixtureLikelihoodModel(0.9, GaussianModel(0.05, 0.31), UniformModel(-30, 30)),
    UniformModel(-2.0, 5.0),
])
def test_density_integrates_to_one(model):
    total, _ = quad(lambda y: float(density(model, y)), -160.0, 160.0, limit=400)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_density_nonnegative_and_symmetric():
    g = GaussianModel(1.7, 0.4)
    d = np.linspace(0, 5, 101)
    assert np.all(density(g, 1.7 + d) >= 0)
    assert np.allclose(density(g, 1.7 + d), density(g, 1.7 - d), atol=1e-12)


def test_sample_gaussian_moments():
    rng = np.random.default_rng(0)
    draws = sample(GaussianModel(0.05, 0.31), rng, size=10**6)
    assert np.mean(draws) == pytest.approx(0.05, abs=1e-3)
    assert np.std(draws) == pytest.approx(0.31, abs=1e-3)


def test_sample_pure_primary_mixture():
    rng = np.random.default_rng(1)
    mix = MixtureLikelihoodModel(1.0, GaussianModel(0.0, 0.1),
                                 UniformModel(100.0, 200.0))
    draws = sample(mix, rng, size=10000)
    assert np.max(np.abs(draws)) < 1.0  # no secondary draws


def test_single_component_gmm_sampling_ks():
    rng = np.random.default_rng(2)
    gmm_draws = sample(GmmModel((1.0,), (0.3,), (0.25,)), rng, size=20000)
    gauss_draws = sample(GaussianModel(0.3, 0.5), rng, size=20000)
    _, p = stats.ks_2samp(gmm_draws, gauss_draws)
    assert p > 0.01


# Draws from default_rng(0), recorded before the models took over sampling;
# a refactor must keep every value and the RNG call order.
GOLDEN_DRAWS = [
    (GaussianModel(0.05, 0.31),
     [0.08897636853895192, 0.009047492379696417, 0.24853102163741742,
      0.08251903631744231, -0.1160575056799444],
     0.08897636853895192),
    (UniformModel(-2.0, 5.0),
     [2.45873181125018, -0.11149300365290782, -1.713185332446637,
      -1.8843065513002963, 3.692891674401907],
     2.45873181125018),
    (GmmModel((0.5, 0.3, 0.2), (0.0, 3.0, -4.0), (1.0, 0.25, 4.0)),
     [3.180797527454742, 1.3040000451301372, 0.9470809631292422,
      -0.7037352358069926, -6.5308429420921055],
     2.9339475683543492),
    # ratio 0.6 with seed 0: the five draws take both parts (the last is a
    # uniform outlier), the scalar draw takes the secondary
    (MixtureLikelihoodModel(0.6, GaussianModel(0.05, 0.31),
                            UniformModel(-30.0, 30.0)),
     [2.6174994879253717, 0.16209446702194028, 0.45424001399034253,
      0.34359509857006504, 26.104345427266097],
     -13.81279717416778),
]


@pytest.mark.parametrize("model,draws,scalar", GOLDEN_DRAWS)
def test_sample_matches_golden_draws(model, draws, scalar):
    out = sample(model, np.random.default_rng(0), size=5)
    assert out.shape == (5,)
    assert out.tolist() == draws
    one = sample(model, np.random.default_rng(0), size=None)
    assert isinstance(one, float)
    assert one == scalar


def test_fit_gmm_single_gaussian_recovery():
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, 10**5)
    model = fit_gmm(x, 1, seed=0)
    assert model.means[0] == pytest.approx(0.0, abs=0.05)
    assert math.sqrt(model.variances[0]) == pytest.approx(1.0, abs=0.05)


def test_fit_gmm_two_separated_components():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.normal(-10, 1, 5000), rng.normal(10, 1, 5000)])
    model = fit_gmm(x, 2, seed=0)
    means = sorted(model.means)
    assert means[0] == pytest.approx(-10.0, abs=0.1)
    assert means[1] == pytest.approx(10.0, abs=0.1)


def test_fit_gmm_monotonic_log_likelihood():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0, 2, 3000), rng.normal(12, 3, 2000)])
    _, lls = fit_gmm(x, 2, seed=1, return_log_likelihoods=True)
    diffs = np.diff(lls)
    assert np.all(diffs >= -1e-9)


def test_fit_gmm_constant_data_fails():
    with pytest.raises(CalibrationFailureError):
        fit_gmm(np.zeros(100), 1, seed=0)


def test_fit_gmm_needs_enough_samples():
    with pytest.raises(ValueError):
        fit_gmm(np.arange(15.0), 2, seed=0)


def test_gmm_validation():
    with pytest.raises(ValueError):
        GmmModel((0.5, 0.4), (0.0, 1.0), (1.0, 1.0))  # weights != 1
    with pytest.raises(ValueError):
        GmmModel((1.0,), (0.0,), (0.0,))  # zero variance
    with pytest.raises(ValueError):
        MixtureLikelihoodModel(1.5, GaussianModel(0, 1), GaussianModel(0, 1))
    with pytest.raises(TypeError):
        MixtureLikelihoodModel(0.5, GaussianModel(0, 1), 3.0)
