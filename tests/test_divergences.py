import numpy as np
import pytest
from scipy.linalg import block_diag

from sparsegp import (
    InducingPoints,
    Matern32,
    RngState,
    SeparateIndependent,
    SharedIndependentInducingVariables,
    SquaredExponential,
    IntrinsicCoregionalization,
    VariationalGaussian,
    cholesky,
    gauss_kl,
    kuu,
    prior_kl,
    standard_normal,
)
from sparsegp.errors import ShapeMismatch

from conftest import make_spd, random_lower


def mc_kl_oracle(mu, s, kuu_dense, num_samples, seed):
    """Monte Carlo estimate of E_q[log q(u) - log p(u)] with its SE."""
    rng = np.random.default_rng(seed)
    l_s = np.linalg.cholesky(s)
    draws = mu + (l_s @ rng.standard_normal((mu.shape[0], num_samples))).T

    def logpdf(x, mean, cov):
        d = x - mean
        chol = np.linalg.cholesky(cov)
        alpha = np.linalg.solve(chol, d.T)
        return (
            -0.5 * mu.shape[0] * np.log(2 * np.pi)
            - np.sum(np.log(np.diag(chol)))
            - 0.5 * np.sum(alpha**2, axis=0)
        )

    diff = logpdf(draws, mu, s) - logpdf(draws, 0.0, kuu_dense)
    return diff.mean(), diff.std(ddof=1) / np.sqrt(num_samples)


class TestGaussKl:
    def test_zero_when_q_equals_prior(self, rng):
        k = make_spd(rng, 4)
        q = VariationalGaussian(np.zeros(4), np.linalg.cholesky(k), whiten=False)
        assert gauss_kl(q, cholesky(k)) == pytest.approx(0.0, abs=1e-10)

    def test_zero_for_whitened_standard_normal(self):
        q = VariationalGaussian(np.zeros(5), np.eye(5), whiten=True)
        assert gauss_kl(q) == pytest.approx(0.0, abs=1e-12)

    def test_matches_monte_carlo_oracle(self, rng):
        k = make_spd(rng, 2)
        mu = standard_normal(rng, 2)
        sqrt = random_lower(rng, 2)
        q = VariationalGaussian(mu, sqrt, whiten=False)
        exact = gauss_kl(q, cholesky(k))
        estimate, se = mc_kl_oracle(mu, sqrt @ sqrt.T, k, 10**6, seed=0)
        assert abs(exact - estimate) < 3.0 * se

    def test_whitened_matches_monte_carlo_oracle(self, rng):
        mu = standard_normal(rng, 2)
        sqrt = random_lower(rng, 2)
        q = VariationalGaussian(mu, sqrt, whiten=True)
        exact = gauss_kl(q)
        estimate, se = mc_kl_oracle(mu, sqrt @ sqrt.T, np.eye(2), 10**6, seed=1)
        assert abs(exact - estimate) < 3.0 * se

    def test_nonnegative_on_random_instances(self):
        for seed in range(100):
            rng = RngState(seed)
            k = make_spd(rng, 3)
            q = VariationalGaussian(
                standard_normal(rng, 3), random_lower(rng, 3), whiten=False
            )
            assert gauss_kl(q, cholesky(k)) >= -1e-10

    def test_whitening_invariance(self):
        for seed in range(50):
            rng = RngState(seed)
            k = make_spd(rng, 4)
            luu = np.linalg.cholesky(k)
            m_v = standard_normal(rng, 4)
            s_v = random_lower(rng, 4)
            white = gauss_kl(VariationalGaussian(m_v, s_v, whiten=True))
            plain = gauss_kl(
                VariationalGaussian(
                    luu @ m_v,
                    np.linalg.cholesky(luu @ s_v @ s_v.T @ luu.T),
                    whiten=False,
                ),
                cholesky(k),
            )
            assert white == pytest.approx(plain, abs=1e-9)

    def test_block_additivity_is_exact(self, rng):
        blocks = (make_spd(rng, 3), make_spd(rng, 2))
        sqrts = (random_lower(rng, 3), random_lower(rng, 2))
        mu = standard_normal(rng, 5)
        q = VariationalGaussian(mu, sqrts, whiten=False)
        total = gauss_kl(q, [cholesky(block) for block in blocks])
        parts = sum(
            gauss_kl(
                VariationalGaussian(mu_part, sqrt, whiten=False),
                cholesky(block),
            )
            for mu_part, sqrt, block in zip((mu[:3], mu[3:]), sqrts, blocks)
        )
        assert total == parts  # bitwise: same per-block computations

    def test_block_path_matches_densified_dense_path(self, rng):
        blocks = (make_spd(rng, 3), make_spd(rng, 3))
        sqrts = (random_lower(rng, 3), random_lower(rng, 3))
        mu = standard_normal(rng, 6)
        block_value = gauss_kl(
            VariationalGaussian(mu, sqrts, whiten=False),
            [cholesky(block) for block in blocks],
        )
        dense_sqrt = np.zeros((6, 6))
        dense_sqrt[:3, :3] = sqrts[0]
        dense_sqrt[3:, 3:] = sqrts[1]
        dense_value = gauss_kl(
            VariationalGaussian(mu, dense_sqrt, whiten=False),
            cholesky(block_diag(*blocks)),
        )
        assert block_value == pytest.approx(dense_value, abs=1e-9)

    def test_unwhitened_needs_kuu(self):
        q = VariationalGaussian(np.zeros(2), np.eye(2), whiten=False)
        with pytest.raises(ShapeMismatch):
            gauss_kl(q, None)

    @pytest.mark.parametrize("whiten", [False, True])
    def test_blocks_must_cover_q_mu(self, whiten):
        q = VariationalGaussian(np.ones(7), (np.eye(3), np.eye(3)), whiten=whiten)
        with pytest.raises(ShapeMismatch, match="do not cover"):
            gauss_kl(q, [np.eye(3), np.eye(3)])

    def test_rectangular_factor_rejected(self):
        q = VariationalGaussian(np.zeros(3), np.ones((3, 1)), whiten=True)
        with pytest.raises(ShapeMismatch):
            gauss_kl(q)


class TestPriorKl:
    def test_whitened_is_kernel_independent(self, rng):
        z = standard_normal(rng, (4, 1))
        iv = InducingPoints(z)
        mu = standard_normal(rng, 4)
        sqrt = random_lower(rng, 4)
        q = VariationalGaussian(mu, sqrt, whiten=True)
        a = prior_kl(iv, SquaredExponential(1.0, 0.5), q)
        b = prior_kl(iv, Matern32(7.0, 2.0), q)
        assert a == b

    def test_unwhitened_uses_dispatched_kuu(self, rng):
        z = standard_normal(rng, (3, 1))
        iv = SharedIndependentInducingVariables(InducingPoints(z))
        kernel = SeparateIndependent([SquaredExponential(), Matern32()])
        mu = standard_normal(rng, 6)
        sqrts = (random_lower(rng, 3), random_lower(rng, 3))
        q = VariationalGaussian(mu, sqrts, whiten=False)
        via_dispatch = prior_kl(iv, kernel, q, jitter=1e-8)
        factors = [cholesky(kuu(iv.base, k, 1e-8)) for k in kernel.kernels]
        assert via_dispatch == gauss_kl(q, factors)

    def test_imc_shared_block_kl_matches_densified(self, rng):
        z = standard_normal(rng, (3, 1))
        iv = SharedIndependentInducingVariables(InducingPoints(z))
        kernel = IntrinsicCoregionalization(
            SquaredExponential(1.0, 0.8), standard_normal(rng.derive(1), (4, 2))
        )
        mu = standard_normal(rng.derive(2), 6)
        sqrts = tuple(random_lower(rng.derive(3 + i), 3) for i in range(2))
        q = VariationalGaussian(mu, sqrts, whiten=False)
        block_value = prior_kl(iv, kernel, q, jitter=1e-8)

        kuu_dense = kuu(iv, kernel, 1e-8)
        dense_sqrt = np.zeros((6, 6))
        dense_sqrt[:3, :3], dense_sqrt[3:, 3:] = sqrts
        dense_value = gauss_kl(
            VariationalGaussian(mu, dense_sqrt, whiten=False),
            cholesky(kuu_dense),
        )
        assert block_value == pytest.approx(dense_value, abs=1e-9)

    def test_zero_at_prior_through_dispatch(self, rng):
        z = standard_normal(rng, (4, 1))
        iv = InducingPoints(z)
        kernel = SquaredExponential(1.0, 0.8)
        k = kuu(iv, kernel, 1e-8)
        q = VariationalGaussian(np.zeros(4), np.linalg.cholesky(k), whiten=False)
        assert prior_kl(iv, kernel, q, jitter=1e-8) == pytest.approx(0.0, abs=1e-10)

    def test_unwhitened_q_of_the_wrong_size_is_refused_as_the_pair_refuses_it(self, rng):
        # The posterior built for the prior's factor checks q when it is
        # built, so the error names q, not a solve it would fail in.
        iv = InducingPoints(standard_normal(rng, (4, 1)))
        q = VariationalGaussian(np.zeros(3), np.eye(3), whiten=False)
        with pytest.raises(ShapeMismatch, match="q has 3 inducing entries, pair requires 4"):
            prior_kl(iv, SquaredExponential(), q)


# ---------------------------------------------------------------------------
# Gradients


@pytest.mark.parametrize("whiten", [False, True])
@pytest.mark.parametrize("per_latent", [False, True], ids=["dense", "per_latent"])
def test_kl_gradients_share_the_value_and_match_differences(whiten, per_latent):
    rng = RngState(80)
    sizes = (3, 2) if per_latent else (4,)
    mu = standard_normal(rng, sum(sizes))
    sqrts = [random_lower(rng.derive(1, i), m) for i, m in enumerate(sizes)]
    factors = [cholesky(make_spd(rng.derive(2, i), m)) for i, m in enumerate(sizes)]

    def kl(mu, sqrts, factors, grads=False):
        q = VariationalGaussian(mu, tuple(sqrts) if per_latent else sqrts[0], whiten)
        return gauss_kl(q, factors if per_latent else factors[0], grads)

    value, dmu, dsqrt, dfactor = kl(mu, sqrts, factors, grads=True)
    assert value == kl(mu, sqrts, factors)  # bit for bit
    dsqrts = list(dsqrt) if per_latent else [dsqrt]
    if whiten:
        assert dfactor is None
        dfactors = []
    else:
        dfactors = list(dfactor) if per_latent else [dfactor]

    h = 1e-6

    def central(k, i, index):
        """The central difference in one entry of argument ``k`` (its
        block ``i`` for the per-block sqrts and factors)."""
        moved = []
        for step in (h, -h):
            args = [mu.copy(), [a.copy() for a in sqrts], [a.copy() for a in factors]]
            (args[0] if k == 0 else args[k][i])[index] += step
            moved.append(kl(*args))
        return (moved[0] - moved[1]) / (2 * h)

    fd_mu = [central(0, None, (j,)) for j in range(mu.shape[0])]
    np.testing.assert_allclose(dmu, fd_mu, rtol=1e-6, atol=1e-7)
    for k, exacts in ((1, dsqrts), (2, dfactors)):
        for i, exact in enumerate(exacts):
            rows, cols = np.tril_indices(exact.shape[0])
            fd = [central(k, i, (r, c)) for r, c in zip(rows, cols)]
            np.testing.assert_allclose(exact[rows, cols], fd, rtol=1e-6, atol=1e-7)
