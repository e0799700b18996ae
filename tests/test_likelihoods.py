import numpy as np
import pytest
from scipy.stats import norm

from sparsegp import (
    Bernoulli,
    CorrelatedGaussian,
    Gaussian,
    Poisson,
    RngState,
    gauss_hermite_expectations,
    marginalize_outputs,
    predict_observation_moments,
    predictive_log_density,
    standard_normal,
    variational_expectations,
)
from sparsegp.errors import (
    DataError,
    EmptySubset,
    ShapeMismatch,
    UnsupportedCombination,
)
from sparsegp.likelihoods import variational_expectations_mc

from conftest import make_spd


def random_tuples(seed, n):
    rng = RngState(seed)
    mu = standard_normal(rng, (n, 1))
    var = rng.generator.uniform(0.05, 2.0, (n, 1))
    y = standard_normal(rng.derive(1), (n, 1))
    return mu, var, y


class TestGaussian:
    def test_log_density_at_mode_with_unit_normalizer(self):
        lik = Gaussian(1.0 / (2.0 * np.pi))
        ve = variational_expectations(lik, np.array([2.0]), np.array([0.0]), np.array([2.0]))
        assert ve[0] == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_matches_quadrature(self):
        mu, var, y = random_tuples(0, 100)
        sigma2 = 0.37
        closed = variational_expectations(Gaussian(sigma2), mu, var, y)
        quad = gauss_hermite_expectations(Gaussian(sigma2), mu, var, y, 20)
        np.testing.assert_allclose(closed, quad, atol=1e-10)

    def test_zero_variance_equals_pointwise_log_density(self):
        mu, _, y = random_tuples(1, 20)
        lik = Gaussian(0.8)
        ve = variational_expectations(lik, mu, np.zeros_like(mu), y)
        np.testing.assert_allclose(ve, norm.logpdf(y, mu, np.sqrt(0.8))[:, 0], atol=1e-12)

    def test_observation_moments_add_noise(self):
        mu, var, _ = random_tuples(2, 5)
        ymu, yvar = predict_observation_moments(Gaussian(0.3), mu, var)
        np.testing.assert_array_equal(ymu, mu)
        np.testing.assert_allclose(yvar, var + 0.3)

    def test_monte_carlo_agrees_with_quadrature(self):
        mu, var, y = random_tuples(3, 4)
        lik = Gaussian(0.5)
        quad = variational_expectations(lik, mu, var, y)
        mc, se = variational_expectations_mc(lik, mu, var, y, 10**6, RngState(7))
        np.testing.assert_array_less(np.abs(mc - quad), 4.0 * se)


class TestCorrelatedGaussian:
    def _instance(self, rng, p=3):
        return CorrelatedGaussian(make_spd(rng, p, scale=0.2))

    def test_closed_form_formula(self, rng):
        lik = self._instance(rng)
        n, p = 4, 3
        mu = standard_normal(rng, (n, p))
        y = standard_normal(rng, (n, p))
        fvar = np.stack([make_spd(rng, p, 0.1) for _ in range(n)])
        got = variational_expectations(lik, mu, fvar, y)
        sigma_inv = np.linalg.inv(lik.cov)
        _, logdet = np.linalg.slogdet(2.0 * np.pi * lik.cov)
        for i in range(n):
            d = y[i] - mu[i]
            want = -0.5 * (logdet + d @ sigma_inv @ d + np.trace(sigma_inv @ fvar[i]))
            assert got[i] == pytest.approx(want, abs=1e-10)

    def test_diagonal_noise_matches_independent_gaussians(self, rng):
        sigma2 = 0.4
        lik = CorrelatedGaussian(sigma2 * np.eye(2))
        n = 5
        mu = standard_normal(rng, (n, 2))
        y = standard_normal(rng, (n, 2))
        var = rng.generator.uniform(0.1, 0.5, (n, 2))
        fvar = np.zeros((n, 2, 2))
        fvar[:, 0, 0], fvar[:, 1, 1] = var[:, 0], var[:, 1]
        got = variational_expectations(lik, mu, fvar, y)
        want = variational_expectations(Gaussian(sigma2), mu, var, y)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_requires_full_covariances(self, rng):
        lik = self._instance(rng)
        with pytest.raises(ShapeMismatch):
            variational_expectations(lik, np.zeros((2, 3)), np.ones((2, 3)), np.zeros((2, 3)))

    def test_observation_moments_take_marginals_or_covariances(self, rng):
        lik = self._instance(rng, p=2)
        mu = standard_normal(rng, (3, 2))
        cov = np.stack([make_spd(rng, 2, 0.1) for _ in range(3)])
        marginal = np.einsum("npp->np", cov)
        _, full = predict_observation_moments(lik, mu, cov)
        ymu, var = predict_observation_moments(lik, mu, marginal)
        np.testing.assert_array_equal(ymu, mu)
        np.testing.assert_allclose(full, cov + lik.cov)
        np.testing.assert_allclose(var, np.einsum("npp->np", full), atol=1e-15)

    def test_marginalize_full_set_is_identity(self, rng):
        lik = self._instance(rng)
        got = marginalize_outputs(lik, (0, 1, 2))
        np.testing.assert_array_equal(got.cov, lik.cov)

    def test_marginalize_singleton_is_scalar_gaussian(self, rng):
        lik = self._instance(rng)
        got = marginalize_outputs(lik, (1,))
        assert isinstance(got, Gaussian)
        assert got.variance == lik.cov[1, 1]

    def test_marginalize_pair_restricts_rows_and_columns(self, rng):
        lik = self._instance(rng)
        got = marginalize_outputs(lik, (0, 2))
        np.testing.assert_array_equal(got.cov, lik.cov[np.ix_([0, 2], [0, 2])])

    def test_empty_subset_rejected(self, rng):
        with pytest.raises(EmptySubset):
            marginalize_outputs(self._instance(rng), ())


class TestBernoulli:
    def test_probit_at_zero(self):
        lik = Bernoulli()
        ve = variational_expectations(lik, np.array([0.0]), np.array([0.0]), np.array([1.0]))
        assert ve[0] == pytest.approx(-np.log(2.0), abs=1e-9)

    def test_zero_variance_equals_pointwise_log_density(self):
        rng = RngState(5)
        mu = standard_normal(rng, (10, 1))
        y = (standard_normal(rng, (10, 1)) > 0).astype(float)
        ve = variational_expectations(Bernoulli(), mu, np.zeros((10, 1)), y)
        want = norm.logcdf((2 * y - 1) * mu)[:, 0]
        np.testing.assert_allclose(ve, want, atol=1e-8)

    def test_moments_collapse_to_link_at_zero_variance(self):
        mu = np.array([[0.3], [-1.2]])
        ymu, yvar = predict_observation_moments(Bernoulli(), mu, np.zeros((2, 1)))
        np.testing.assert_allclose(ymu, norm.cdf(mu), atol=1e-12)
        np.testing.assert_allclose(yvar, ymu * (1 - ymu), atol=1e-12)

    def test_quadrature_converges_in_node_count(self):
        mu, var, _ = random_tuples(6, 50)
        y = np.ones_like(mu)
        coarse = gauss_hermite_expectations(Bernoulli(), mu, var, y, 20)
        fine = gauss_hermite_expectations(Bernoulli(), mu, var, y, 50)
        default = variational_expectations(Bernoulli(), mu, var, y)
        np.testing.assert_array_equal(default, coarse)
        np.testing.assert_allclose(coarse, fine, atol=1e-8)

    def test_quadrature_error_shrinks_monotonically(self):
        mu, var, _ = random_tuples(7, 30)
        y = np.ones_like(mu)
        reference = gauss_hermite_expectations(Bernoulli(), mu, var, y, 120)
        errors = [
            np.abs(
                gauss_hermite_expectations(Bernoulli(), mu, var, y, n) - reference
            ).max()
            for n in (4, 8, 16, 32)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            if coarse > 1e-12:  # below that, round-off dominates
                assert fine <= coarse

    def test_targets_must_be_zero_or_one(self):
        Bernoulli().check_targets(np.array([[0.0], [1.0]]))
        for bad in (0.5, -1.0, 2.0, np.nan):
            with pytest.raises(DataError, match="0 or 1"):
                Bernoulli().check_targets(np.array([[1.0], [bad]]))


class TestPoisson:
    def test_closed_form_matches_quadrature(self):
        rng = RngState(8)
        mu = standard_normal(rng, (50, 1)) * 0.5
        var = rng.generator.uniform(0.01, 0.5, (50, 1))
        y = rng.generator.poisson(1.0, (50, 1)).astype(float)
        closed = variational_expectations(Poisson(), mu, var, y)
        quad = gauss_hermite_expectations(Poisson(), mu, var, y, 40)
        np.testing.assert_allclose(closed, quad, atol=1e-8)

    def test_targets_must_be_counts(self):
        Poisson().check_targets(np.array([[0.0], [3.0]]))
        for bad in (-1.0, 0.5, np.inf, np.nan):
            with pytest.raises(DataError, match="counts"):
                Poisson().check_targets(np.array([[2.0], [bad]]))

    def test_observation_moments_match_monte_carlo(self):
        mu = np.array([[0.4]])
        var = np.array([[0.3]])
        ymu, yvar = predict_observation_moments(Poisson(), mu, var)
        gen = np.random.default_rng(0)
        f = mu[0, 0] + np.sqrt(var[0, 0]) * gen.standard_normal(10**6)
        draws = gen.poisson(np.exp(f))
        assert ymu[0, 0] == pytest.approx(draws.mean(), rel=0.01)
        assert yvar[0, 0] == pytest.approx(draws.var(), rel=0.02)


class TestPredictiveLogDensity:
    def test_gaussian_hand_formula(self):
        lik = Gaussian(0.2)
        got = predictive_log_density(lik, np.array([1.0]), np.array([0.3]), np.array([1.4]))
        want = norm.logpdf(1.4, 1.0, np.sqrt(0.5))
        assert got[0] == pytest.approx(want, abs=1e-12)

    def test_bernoulli_uses_predicted_probability(self):
        got = predictive_log_density(
            Bernoulli(), np.array([0.7]), np.array([0.4]), np.array([1.0])
        )
        assert got[0] == pytest.approx(np.log(norm.cdf(0.7 / np.sqrt(1.4))), abs=1e-12)

    def test_poisson_matches_monte_carlo(self):
        got = predictive_log_density(
            Poisson(), np.array([0.2]), np.array([0.4]), np.array([2.0])
        )
        gen = np.random.default_rng(1)
        f = 0.2 + np.sqrt(0.4) * gen.standard_normal(10**6)
        from scipy.stats import poisson as poisson_dist

        mc = np.log(poisson_dist.pmf(2, np.exp(f)).mean())
        assert got[0] == pytest.approx(mc, abs=0.01)


class TestZeroVarianceReduction:
    def test_poisson(self):
        rng = RngState(13)
        mu = 0.5 * standard_normal(rng, (8, 1))
        y = rng.generator.poisson(1.0, (8, 1)).astype(float)
        lik = Poisson()
        ve = variational_expectations(lik, mu, np.zeros((8, 1)), y)
        np.testing.assert_allclose(ve, lik.log_density(mu, y)[:, 0], atol=1e-12)

    def test_correlated_gaussian(self, rng):
        lik = CorrelatedGaussian(make_spd(rng, 2, 0.3))
        mu = standard_normal(rng, (5, 2))
        y = standard_normal(rng, (5, 2))
        ve = variational_expectations(lik, mu, np.zeros((5, 2, 2)), y)
        np.testing.assert_allclose(ve, lik.log_density(mu, y), atol=1e-12)


class TestMonteCarloStrategy:
    def test_reports_standard_error(self):
        mu, var, y = random_tuples(11, 6)
        values, se = variational_expectations_mc(
            Gaussian(0.4), mu, var, y, 5000, RngState(2)
        )
        assert values.shape == se.shape == (6,)
        assert np.all(se > 0)

    def test_correlated_rejected(self, rng):
        lik = CorrelatedGaussian(make_spd(rng, 2, 0.1))
        with pytest.raises(UnsupportedCombination):
            variational_expectations_mc(
                lik, np.zeros((1, 2)), np.ones((1, 2)), np.zeros((1, 2)), 10, RngState(0)
            )
