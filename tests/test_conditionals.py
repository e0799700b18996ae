import itertools

import numpy as np
import pytest
from scipy.linalg import block_diag

from sparsegp import (
    Convolutional,
    InducingPatches,
    InducingPoints,
    IntrinsicCoregionalization,
    LinearCoregionalization,
    Matern32,
    Multiscale,
    RngState,
    SeparateIndependent,
    SeparateIndependentInducingVariables,
    SharedIndependent,
    SharedIndependentInducingVariables,
    SquaredExponential,
    VariationalGaussian,
    allocation_probe,
    conditional,
    k_full,
    kuu,
    mo_k,
    mo_k_diag,
    prior_kl,
    sample_conditional,
    standard_normal,
)
from sparsegp.conditionals import create_posterior
from sparsegp.errors import ShapeMismatch
from sparsegp.inducing import LatentInducingVariables

from conftest import block_conditional, make_spd, random_lower

JITTER = 1e-8


def dense_posterior_oracle(kmn, kmm, knn, mu, s):
    """Straight-line evaluation of the predictive moments with explicit
    inverses; intentionally independent of the library's solve paths."""
    inv = np.linalg.inv(kmm)
    mean = kmn.T @ inv @ mu
    cov = knn - kmn.T @ inv @ kmn + kmn.T @ inv @ s @ inv @ kmn
    return mean, cov


def lmc_coupling_matrix(w, m):
    """Map latent variables (stacked latent-major) onto the stacked outputs
    f(Z) (point-major): f_p(z_m) = sum_l W[p, l] g_l(z_m)."""
    p, l = w.shape
    t = np.zeros((m * p, m * l))
    for mi in range(m):
        for pi in range(p):
            for li in range(l):
                t[mi * p + pi, li * m + mi] = w[pi, li]
    return t


class TestBaseConditional:
    """The single-latent (P = 1) conditional from precomputed blocks."""

    def test_zero_cross_covariance_returns_prior(self, rng):
        kmm = make_spd(rng, 3)
        knn = make_spd(rng, 4)
        q = VariationalGaussian(standard_normal(rng, 3), random_lower(rng, 3), whiten=False)
        pm = block_conditional(
            np.zeros((3, 4, 1)), kmm, knn[None], q, full_cov=True, full_output_cov=False
        )
        np.testing.assert_allclose(pm.mean, 0.0)
        np.testing.assert_allclose(pm.cov[0], knn)

    def test_interpolates_at_inducing_inputs(self, rng):
        z = np.sort(rng.generator.uniform(-2, 2, 4))[:, None]
        k = SquaredExponential(1.0, 0.8)
        iv = InducingPoints(z)
        q_mu = standard_normal(rng, 4)
        q = VariationalGaussian(q_mu, None, whiten=False)
        pm = conditional(z, iv, k, q, jitter=1e-10)
        np.testing.assert_allclose(pm.mean[:, 0], q_mu, atol=1e-6)
        assert np.all(np.abs(pm.cov) < 1e-6)

    @pytest.mark.parametrize("whiten", [False, True])
    @pytest.mark.parametrize("full_cov", [False, True])
    def test_matches_dense_formula_oracle(self, rng, whiten, full_cov):
        m, n = 5, 7
        kmm = make_spd(rng, m)
        kmn = standard_normal(rng, (m, n))
        knn_full = make_spd(rng, n)
        mu = standard_normal(rng, m)
        sqrt = random_lower(rng, m)
        q = VariationalGaussian(mu, sqrt, whiten=whiten)

        if whiten:
            l = np.linalg.cholesky(kmm)
            mu_u, s_u = l @ mu, l @ sqrt @ sqrt.T @ l.T
        else:
            mu_u, s_u = mu, sqrt @ sqrt.T
        want_mean, want_cov = dense_posterior_oracle(kmn, kmm, knn_full, mu_u, s_u)

        knn = knn_full[None] if full_cov else np.diag(knn_full)[:, None]
        pm = block_conditional(
            kmn[:, :, None], kmm, knn, q, full_cov=full_cov, full_output_cov=False
        )
        np.testing.assert_allclose(pm.mean[:, 0], want_mean, atol=1e-10)
        got_cov = pm.cov[0] if full_cov else np.diag(pm.cov[:, 0])
        want = want_cov if full_cov else np.diag(np.diag(want_cov))
        np.testing.assert_allclose(got_cov, want, atol=1e-10)


def _paths(rng, n=6, m=4, p=3, images=5):
    """Conditional paths under test: name -> (X, iv, kernel, q builder,
    outputs), at ``n`` inputs (``images`` for the convolutional path), ``m``
    inducing inputs or patches and ``p`` coregionalized outputs."""
    x = standard_normal(rng, (n, 1))
    z = standard_normal(rng, (m, 1))
    w = standard_normal(rng, (p, 2))

    def dense_q(size, whiten):
        return VariationalGaussian(
            standard_normal(rng.derive(size), size),
            random_lower(rng.derive(size, 1), size),
            whiten=whiten,
        )

    def block_q(sizes, whiten):
        mu = standard_normal(rng.derive(sum(sizes), 2), sum(sizes))
        blocks = tuple(
            random_lower(rng.derive(sum(sizes), 3 + i), m) for i, m in enumerate(sizes)
        )
        return VariationalGaussian(mu, blocks, whiten=whiten)

    lmc = LinearCoregionalization(
        [SquaredExponential(1.0, 0.6), Matern32(0.8, 1.1)], w
    )
    imc = IntrinsicCoregionalization(SquaredExponential(1.0, 0.7), w)
    conv = Convolutional(SquaredExponential(1.0, 1.4), (3, 3), (2, 2))
    images = standard_normal(rng.derive(99), (images, 9))
    patches = standard_normal(rng.derive(98), (m, 4))

    return {
        "single": (x, InducingPoints(z), SquaredExponential(1.0, 0.8), dense_q, 1),
        "multiscale": (
            x,
            Multiscale(z, np.full((m, 1), 0.3)),
            SquaredExponential(1.0, 0.8),
            dense_q,
            1,
        ),
        "conv": (images, InducingPatches(patches), conv, dense_q, 1),
        "fully_correlated": (x, InducingPoints(z), lmc, dense_q, p),
        "indep_shared": (
            x,
            SharedIndependentInducingVariables(InducingPoints(z)),
            SharedIndependent(SquaredExponential(1.0, 0.9), 2),
            block_q,
            2,
        ),
        "indep_separate": (
            x,
            SeparateIndependentInducingVariables(
                [InducingPoints(z), InducingPoints(standard_normal(rng.derive(97), (m, 1)))]
            ),
            SeparateIndependent([SquaredExponential(), Matern32()]),
            block_q,
            2,
        ),
        "lmc": (
            x,
            SharedIndependentInducingVariables(InducingPoints(z)),
            lmc,
            block_q,
            p,
        ),
        "imc": (
            x,
            SharedIndependentInducingVariables(InducingPoints(z)),
            imc,
            block_q,
            p,
        ),
    }


def _build_q(name, iv, kernel, q_builder, whiten):
    from sparsegp import num_inducing

    total = num_inducing(iv, kernel)
    if q_builder.__name__ == "block_q":
        l = len(kernel.latent_kernels)
        return q_builder([total // l] * l, whiten)
    return q_builder(total, whiten)


def latent_kuus(iv, kernel, jitter):
    """Each latent's Kuu from its own (member, latent kernel) pair."""
    members = iv.per_latent(len(kernel.latent_kernels))
    return [kuu(member, k, jitter) for member, k in zip(members, kernel.latent_kernels)]


ALL_PATHS = [
    "single",
    "multiscale",
    "conv",
    "fully_correlated",
    "indep_shared",
    "indep_separate",
    "lmc",
    "imc",
]


class TestShapeContract:
    @pytest.mark.parametrize("name", ALL_PATHS)
    @pytest.mark.parametrize("whiten", [False, True])
    def test_all_four_modes(self, name, whiten):
        rng = RngState(31)
        x, iv, kernel, q_builder, p = _paths(rng)[name]
        q = _build_q(name, iv, kernel, q_builder, whiten)
        n = x.shape[0]

        shapes = {}
        means = {}
        for full_cov in (False, True):
            for full_output_cov in (False, True):
                pm = conditional(
                    x,
                    iv,
                    kernel,
                    q,
                    full_cov=full_cov,
                    full_output_cov=full_output_cov,
                    jitter=JITTER,
                )
                assert pm.mean.shape == (n, p)
                shapes[(full_cov, full_output_cov)] = pm.cov.shape
                means[(full_cov, full_output_cov)] = pm.mean

        assert shapes[(True, True)] == (n, p, n, p)
        assert shapes[(True, False)] == (p, n, n)
        assert shapes[(False, True)] == (n, p, p)
        assert shapes[(False, False)] == (n, p)
        for mean in means.values():
            np.testing.assert_allclose(mean, means[(False, False)], atol=1e-9)

    @pytest.mark.parametrize("name", ALL_PATHS)
    def test_mode_consistency(self, name):
        rng = RngState(77)
        x, iv, kernel, q_builder, p = _paths(rng)[name]
        q = _build_q(name, iv, kernel, q_builder, False)
        n = x.shape[0]

        full = conditional(
            x, iv, kernel, q, full_cov=True, full_output_cov=True, jitter=JITTER
        ).cov
        pnn = conditional(
            x, iv, kernel, q, full_cov=True, full_output_cov=False, jitter=JITTER
        ).cov
        npp = conditional(
            x, iv, kernel, q, full_cov=False, full_output_cov=True, jitter=JITTER
        ).cov
        marg = conditional(
            x, iv, kernel, q, full_cov=False, full_output_cov=False, jitter=JITTER
        ).cov

        np.testing.assert_allclose(
            marg, np.einsum("npnp->np", full), atol=1e-10
        )
        np.testing.assert_allclose(pnn, np.einsum("npmp->pnm", full), atol=1e-10)
        np.testing.assert_allclose(npp, np.einsum("npnq->npq", full), atol=1e-10)

    @pytest.mark.parametrize("name", ALL_PATHS)
    def test_covariance_slices_are_symmetric_psd(self, name):
        rng = RngState(13)
        x, iv, kernel, q_builder, p = _paths(rng)[name]
        q = _build_q(name, iv, kernel, q_builder, True)
        n = x.shape[0]
        full = conditional(
            x, iv, kernel, q, full_cov=True, full_output_cov=True, jitter=JITTER
        ).cov
        flat = full.reshape(n * p, n * p)
        np.testing.assert_allclose(flat, flat.T, atol=1e-8)
        assert np.linalg.eigvalsh(flat).min() > -1e-8


class TestKuuAndKl:
    """Kuu is a plain array on every path, and the KL has one factor path."""

    @pytest.mark.parametrize("name", ALL_PATHS)
    @pytest.mark.parametrize("whiten", [False, True])
    def test_kuu_is_a_square_array(self, name, whiten):
        _, iv, kernel, q_builder, _ = _paths(RngState(21))[name]
        got = kuu(iv, kernel, JITTER)
        total = _build_q(name, iv, kernel, q_builder, whiten).num_inducing
        assert type(got) is np.ndarray and got.shape == (total, total)
        if isinstance(iv, LatentInducingVariables):
            np.testing.assert_array_equal(got, block_diag(*latent_kuus(iv, kernel, JITTER)))

    @pytest.mark.parametrize("name", ALL_PATHS)
    @pytest.mark.parametrize("whiten", [False, True])
    def test_prior_kl_reads_the_posterior_factor(self, name, whiten):
        _, iv, kernel, q_builder, _ = _paths(RngState(22))[name]
        q = _build_q(name, iv, kernel, q_builder, whiten)
        assert prior_kl(iv, kernel, q) == create_posterior(iv, kernel, q).kl()


class TestWhiteningAndPrior:
    @pytest.mark.parametrize("name", ["single", "multiscale", "fully_correlated"])
    def test_whitening_equivalence_dense_paths(self, name):
        rng = RngState(5)
        x, iv, kernel, q_builder, p = _paths(rng)[name]
        total = _build_q(name, iv, kernel, q_builder, True).num_inducing
        m_v = standard_normal(rng.derive(1), total)
        s_v = random_lower(rng.derive(2), total)

        luu = np.linalg.cholesky(kuu(iv, kernel, JITTER))
        q_white = VariationalGaussian(m_v, s_v, whiten=True)
        q_plain = VariationalGaussian(
            luu @ m_v, np.linalg.cholesky(luu @ s_v @ s_v.T @ luu.T), whiten=False
        )
        for fc, foc in [(False, False), (True, True)]:
            a = conditional(x, iv, kernel, q_white, full_cov=fc, full_output_cov=foc, jitter=JITTER)
            b = conditional(x, iv, kernel, q_plain, full_cov=fc, full_output_cov=foc, jitter=JITTER)
            np.testing.assert_allclose(a.mean, b.mean, atol=1e-9)
            np.testing.assert_allclose(a.cov, b.cov, atol=1e-9)

    @pytest.mark.parametrize("name", ["lmc", "indep_shared"])
    def test_whitening_equivalence_block_paths(self, name):
        rng = RngState(6)
        x, iv, kernel, q_builder, p = _paths(rng)[name]
        factors = [np.linalg.cholesky(b) for b in latent_kuus(iv, kernel, JITTER)]
        sizes = [f.shape[0] for f in factors]

        m_v = standard_normal(rng.derive(1), sum(sizes))
        blocks_v = tuple(random_lower(rng.derive(3 + i), m) for i, m in enumerate(sizes))
        q_white = VariationalGaussian(m_v, blocks_v, whiten=True)

        mu_parts, sqrt_parts, offset = [], [], 0
        for l, b in zip(factors, blocks_v):
            m = l.shape[0]
            mu_parts.append(l @ m_v[offset : offset + m])
            sqrt_parts.append(np.linalg.cholesky(l @ b @ b.T @ l.T))
            offset += m
        q_plain = VariationalGaussian(
            np.concatenate(mu_parts), tuple(sqrt_parts), whiten=False
        )
        for fc, foc in [(False, False), (True, False), (False, True)]:
            a = conditional(x, iv, kernel, q_white, full_cov=fc, full_output_cov=foc, jitter=JITTER)
            b = conditional(x, iv, kernel, q_plain, full_cov=fc, full_output_cov=foc, jitter=JITTER)
            np.testing.assert_allclose(a.mean, b.mean, atol=1e-9)
            np.testing.assert_allclose(a.cov, b.cov, atol=1e-9)

    @pytest.mark.parametrize("name", ["single", "fully_correlated", "indep_shared", "lmc", "imc"])
    @pytest.mark.parametrize("full_cov", [False, True])
    @pytest.mark.parametrize("full_output_cov", [False, True])
    def test_prior_recovery(self, name, full_cov, full_output_cov):
        # q(u) = p(u) gives back the kernel's own prior in every mode; for a
        # latent kernel both sides go through its one latent-to-output map.
        rng = RngState(8)
        x, iv, kernel, q_builder, p = _paths(rng)[name]
        if isinstance(iv, LatentInducingVariables):
            sqrt = tuple(np.linalg.cholesky(b) for b in latent_kuus(iv, kernel, JITTER))
            total = sum(b.shape[0] for b in sqrt)
        else:
            sqrt = np.linalg.cholesky(kuu(iv, kernel, JITTER))
            total = sqrt.shape[0]
        q = VariationalGaussian(np.zeros(total), sqrt, whiten=False)
        pm = conditional(
            x, iv, kernel, q, full_cov=full_cov, full_output_cov=full_output_cov, jitter=JITTER
        )
        if p == 1:
            full = k_full(kernel, x)[:, None, :, None]
        else:
            full = mo_k(kernel, x, full_output_cov=True)
            if not full_cov:
                np.testing.assert_allclose(
                    pm.cov, mo_k_diag(kernel, x, full_output_cov=full_output_cov), atol=1e-9
                )
        prior = {
            (True, True): full,
            (True, False): np.einsum("npmp->pnm", full),
            (False, True): np.einsum("npnq->npq", full),
            (False, False): np.einsum("npnp->np", full),
        }[(full_cov, full_output_cov)]
        np.testing.assert_allclose(pm.mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(pm.cov, prior, atol=1e-9)


class TestLmcPaths:
    def test_identity_mixing_reduces_to_independent_outputs(self):
        rng = RngState(11)
        x = standard_normal(rng, (5, 1))
        z = standard_normal(rng, (4, 1))
        kernels = [SquaredExponential(1.0, 0.5), Matern32(0.9, 1.3)]
        iv = SharedIndependentInducingVariables(InducingPoints(z))
        q = VariationalGaussian(
            standard_normal(rng.derive(1), 8),
            (random_lower(rng.derive(2), 4), random_lower(rng.derive(3), 4)),
            whiten=False,
        )
        lmc = LinearCoregionalization(kernels, np.eye(2))
        indep = SeparateIndependent(kernels)
        a = conditional(x, iv, lmc, q, jitter=JITTER)
        b = conditional(x, iv, indep, q, jitter=JITTER)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-12)

    def test_latent_path_matches_naive_inducing_points_path(self):
        # Same posterior expressed through latent inducing variables and
        # through stacked output inducing variables, linked by the mixing.
        rng = RngState(21)
        m_pts, n, p, l = 4, 6, 3, 2
        x = standard_normal(rng, (n, 1))
        z = standard_normal(rng, (m_pts, 1))
        w = standard_normal(rng, (p, l))
        kernel = LinearCoregionalization(
            [SquaredExponential(1.0, 0.6), Matern32(0.8, 1.1)], w
        )

        mu_g = standard_normal(rng.derive(1), m_pts * l)
        blocks = tuple(random_lower(rng.derive(2 + i), m_pts) for i in range(l))
        q_latent = VariationalGaussian(mu_g, blocks, whiten=False)

        t = lmc_coupling_matrix(w, m_pts)
        sqrt_g = np.zeros((m_pts * l, m_pts * l))
        for i, b in enumerate(blocks):
            sqrt_g[i * m_pts : (i + 1) * m_pts, i * m_pts : (i + 1) * m_pts] = b
        q_naive = VariationalGaussian(t @ mu_g, t @ sqrt_g, whiten=False)

        iv_latent = SharedIndependentInducingVariables(InducingPoints(z))
        iv_naive = InducingPoints(z)

        tiny = 1e-10
        a = conditional(x, iv_latent, kernel, q_latent, full_cov=False,
                        full_output_cov=True, jitter=tiny)
        b = conditional(x, iv_naive, kernel, q_naive, full_cov=False,
                        full_output_cov=True, jitter=tiny)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-8)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-8)

    def test_imc_latent_path_matches_naive_inducing_points_path(self):
        rng = RngState(24)
        m_pts, n, p, l = 3, 5, 3, 2
        x = standard_normal(rng, (n, 1))
        z = standard_normal(rng.derive(1), (m_pts, 1))
        w = standard_normal(rng.derive(2), (p, l))
        kernel = IntrinsicCoregionalization(SquaredExponential(1.0, 0.7), w)

        mu_g = standard_normal(rng.derive(3), m_pts * l)
        blocks = tuple(random_lower(rng.derive(4 + i), m_pts) for i in range(l))
        q_latent = VariationalGaussian(mu_g, blocks, whiten=False)

        t = lmc_coupling_matrix(w, m_pts)
        sqrt_g = np.zeros((m_pts * l, m_pts * l))
        for i, b in enumerate(blocks):
            sqrt_g[i * m_pts : (i + 1) * m_pts, i * m_pts : (i + 1) * m_pts] = b
        q_naive = VariationalGaussian(t @ mu_g, t @ sqrt_g, whiten=False)

        tiny = 1e-11
        a = conditional(
            x, SharedIndependentInducingVariables(InducingPoints(z)), kernel,
            q_latent, full_cov=False, full_output_cov=True, jitter=tiny,
        )
        b = conditional(
            x, InducingPoints(z), kernel, q_naive,
            full_cov=False, full_output_cov=True, jitter=tiny,
        )
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-8)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-8)

    def test_latent_path_never_materializes_stacked_output_matrices(self):
        rng = RngState(22)
        m_pts, n, p, l = 4, 6, 3, 2
        x = standard_normal(rng, (n, 1))
        z = standard_normal(rng, (m_pts, 1))
        kernel = LinearCoregionalization(
            [SquaredExponential(), Matern32()], standard_normal(rng, (p, l))
        )
        iv = SharedIndependentInducingVariables(InducingPoints(z))
        q = VariationalGaussian(
            standard_normal(rng.derive(1), m_pts * l),
            tuple(random_lower(rng.derive(2 + i), m_pts) for i in range(l)),
            whiten=False,
        )
        with allocation_probe() as shapes:
            conditional(x, iv, kernel, q, jitter=JITTER)
        bound = max(m_pts * l, n * p)
        assert max(max(s) for s in shapes) <= bound

    def test_naive_path_materializes_the_stacked_covariance(self):
        rng = RngState(23)
        m_pts, n, p, l = 4, 6, 3, 2
        x = standard_normal(rng, (n, 1))
        z = standard_normal(rng, (m_pts, 1))
        kernel = LinearCoregionalization(
            [SquaredExponential(), Matern32()], standard_normal(rng, (p, l))
        )
        q = VariationalGaussian(
            standard_normal(rng.derive(1), m_pts * p),
            random_lower(rng.derive(2), m_pts * p),
            whiten=False,
        )
        with allocation_probe() as shapes:
            conditional(x, InducingPoints(z), kernel, q, jitter=JITTER)
        assert (m_pts * p, m_pts * p) in shapes


class TestFullyCorrelated:
    def _random_inputs(self, rng, mt=6, n=4, p=2):
        kmm = make_spd(rng, mt)
        kmn = standard_normal(rng, (mt, n, p))
        knn_full = make_spd(rng, n * p).reshape(n, p, n, p)
        mu = standard_normal(rng, mt)
        sqrt = random_lower(rng, mt)
        return kmm, kmn, knn_full, VariationalGaussian(mu, sqrt, whiten=False)

    def test_p_equal_one_reduces_to_base_conditional(self, rng):
        # With one output every mode holds the same numbers as the
        # single-latent [N, N] covariance.
        kmm, kmn, knn_full, q = self._random_inputs(rng, p=1)
        n = kmn.shape[1]
        base = block_conditional(
            kmn, kmm, knn_full, q, full_cov=True, full_output_cov=True
        )
        cov = base.cov.reshape(n, n)
        knns = {
            (True, False): knn_full.reshape(1, n, n),
            (False, True): np.diag(knn_full.reshape(n, n)).reshape(n, 1, 1),
            (False, False): np.diag(knn_full.reshape(n, n)).reshape(n, 1),
        }
        for (fc, foc), knn in knns.items():
            pm = block_conditional(
                kmn, kmm, knn, q, full_cov=fc, full_output_cov=foc
            )
            want = cov if fc else np.diag(cov)
            np.testing.assert_allclose(pm.mean, base.mean, atol=1e-12)
            np.testing.assert_allclose(pm.cov.reshape(want.shape), want, atol=1e-12)

    @pytest.mark.parametrize("full_cov", [True, False])
    def test_matches_dense_oracle_slices(self, rng, full_cov):
        slices = {
            (True, True): lambda c: c,
            (True, False): lambda c: np.einsum("npmp->pnm", c),
            (False, True): lambda c: np.einsum("npnq->npq", c),
            (False, False): lambda c: np.einsum("npnp->np", c),
        }
        for full_output_cov, outputs, whiten in itertools.product(
            (True, False), (1, 2), (False, True)
        ):
            kmm, kmn, knn_full, q = self._random_inputs(rng, p=outputs)
            mt, n, p = kmn.shape
            if whiten:
                l = np.linalg.cholesky(kmm)
                mu, s = l @ q.q_mu, l @ q.q_sqrt @ q.q_sqrt.T @ l.T
                q = VariationalGaussian(q.q_mu, q.q_sqrt, whiten=True)
            else:
                mu, s = q.q_mu, q.q_sqrt @ q.q_sqrt.T
            want_mean, want_cov = dense_posterior_oracle(
                kmn.reshape(mt, n * p), kmm, knn_full.reshape(n * p, n * p), mu, s
            )
            mode = slices[full_cov, full_output_cov]
            pm = block_conditional(
                kmn, kmm, mode(knn_full), q,
                full_cov=full_cov, full_output_cov=full_output_cov,
            )
            np.testing.assert_allclose(pm.mean, want_mean.reshape(n, p), atol=1e-10)
            np.testing.assert_allclose(
                pm.cov, mode(want_cov.reshape(n, p, n, p)), atol=1e-10
            )

    def test_output_blockdiagonal_s_equals_independent_computation(self):
        # With an independent-outputs kernel and S block diagonal across
        # outputs, the stacked path must reproduce per-output conditionals.
        rng = RngState(55)
        m_pts, n, p = 3, 5, 2
        x = standard_normal(rng, (n, 1))
        z = standard_normal(rng, (m_pts, 1))
        base = SquaredExponential(1.0, 0.7)
        kernel = SharedIndependent(base, p)

        per_output_sqrt = [random_lower(rng.derive(i), m_pts) for i in range(p)]
        per_output_mu = [standard_normal(rng.derive(9 + i), m_pts) for i in range(p)]

        mt = m_pts * p
        sqrt = np.zeros((mt, mt))
        mu = np.zeros(mt)
        for mi in range(m_pts):
            for pi in range(p):
                mu[mi * p + pi] = per_output_mu[pi][mi]
                for mj in range(m_pts):
                    sqrt[mi * p + pi, mj * p + pi] = per_output_sqrt[pi][mi, mj]
        q_naive = VariationalGaussian(mu, sqrt, whiten=False)

        tiny = 1e-11
        pm = conditional(
            x, InducingPoints(z), kernel, q_naive,
            full_cov=False, full_output_cov=True, jitter=tiny,
        )
        kmm = base.K(z) + tiny * np.eye(m_pts)
        for pi in range(p):
            q_p = VariationalGaussian(
                per_output_mu[pi], per_output_sqrt[pi], whiten=False
            )
            ref = block_conditional(
                base.K(z, x)[:, :, None], kmm, base.K_diag(x)[:, None], q_p,
                full_cov=False, full_output_cov=False,
            )
            np.testing.assert_allclose(pm.mean[:, pi], ref.mean[:, 0], atol=1e-7)
            np.testing.assert_allclose(
                pm.cov[:, pi, pi], ref.cov[:, 0], atol=1e-7
            )


class TestSampleConditional:
    def test_deterministic_posterior_samples_equal_mean(self):
        rng = RngState(3)
        z = np.linspace(-1.5, 1.5, 4)[:, None]
        k = SquaredExponential(1.0, 0.9)
        iv = InducingPoints(z)
        q_mu = standard_normal(rng, 4)
        q = VariationalGaussian(q_mu, None, whiten=False)
        samples = sample_conditional(z, iv, k, q, RngState(0), num_samples=3, jitter=0.0)
        assert samples.shape == (3, 4, 1)
        for s in samples:
            np.testing.assert_array_equal(s[:, 0], samples[0][:, 0])
        np.testing.assert_allclose(samples[0][:, 0], q_mu, atol=1e-9)

    def test_fixed_seed_reproducible(self):
        rng = RngState(4)
        x = standard_normal(rng, (5, 1))
        z = standard_normal(rng, (3, 1))
        iv = InducingPoints(z)
        k = SquaredExponential(1.0, 0.7)
        q = VariationalGaussian(
            standard_normal(rng.derive(1), 3), random_lower(rng.derive(2), 3)
        )
        a = sample_conditional(x, iv, k, q, RngState(123), num_samples=4)
        b = sample_conditional(x, iv, k, q, RngState(123), num_samples=4)
        np.testing.assert_array_equal(a, b)

    def test_sample_mean_matches_conditional_mean(self):
        rng = RngState(9)
        x = standard_normal(rng, (4, 1))
        z = standard_normal(rng, (3, 1))
        iv = InducingPoints(z)
        k = SquaredExponential(1.0, 0.7)
        q = VariationalGaussian(
            standard_normal(rng.derive(1), 3), random_lower(rng.derive(2), 3)
        )
        pm = conditional(x, iv, k, q)
        draws = sample_conditional(x, iv, k, q, RngState(100), num_samples=10**5)
        se = np.sqrt(pm.cov[:, 0] / 10**5)
        np.testing.assert_array_less(
            np.abs(draws.mean(axis=0)[:, 0] - pm.mean[:, 0]), 5.0 * se + 1e-12
        )

    def test_correlated_outputs_use_per_point_factors(self):
        rng = RngState(10)
        x = standard_normal(rng, (3, 1))
        z = standard_normal(rng, (3, 1))
        w = standard_normal(rng, (3, 2))
        kernel = LinearCoregionalization(
            [SquaredExponential(), Matern32()], w
        )
        iv = SharedIndependentInducingVariables(InducingPoints(z))
        q = VariationalGaussian(
            standard_normal(rng.derive(1), 6),
            (random_lower(rng.derive(2), 3), random_lower(rng.derive(3), 3)),
            whiten=False,
        )
        draws = sample_conditional(x, iv, kernel, q, RngState(0), num_samples=50_000)
        pm = conditional(x, iv, kernel, q, full_cov=False, full_output_cov=True)
        sample_cov = np.stack(
            [np.cov(draws[:, n, :].T, bias=True) for n in range(3)]
        )
        np.testing.assert_allclose(sample_cov, pm.cov, atol=0.08)


class TestQValidation:
    def test_wrong_q_size_rejected(self, rng):
        z = standard_normal(rng, (4, 1))
        q = VariationalGaussian(np.zeros(3), np.eye(3))
        with pytest.raises(ShapeMismatch):
            conditional(np.zeros((2, 1)), InducingPoints(z), SquaredExponential(), q)

    def test_block_q_on_dense_path_rejected(self, rng):
        z = standard_normal(rng, (4, 1))
        q = VariationalGaussian(np.zeros(4), (np.eye(2), np.eye(2)))
        with pytest.raises(ShapeMismatch):
            conditional(np.zeros((2, 1)), InducingPoints(z), SquaredExponential(), q)

    def test_dense_q_on_latent_path_rejected(self, rng):
        z = standard_normal(rng, (4, 1))
        iv = SharedIndependentInducingVariables(InducingPoints(z))
        kernel = SharedIndependent(SquaredExponential(), 2)
        q = VariationalGaussian(np.zeros(8), np.eye(8))
        with pytest.raises(ShapeMismatch):
            conditional(np.zeros((2, 1)), iv, kernel, q)

    def test_dense_factor_rows_must_match(self, rng):
        z = standard_normal(rng, (4, 1))
        q = VariationalGaussian(np.zeros(4), np.eye(3))
        with pytest.raises(ShapeMismatch, match="3 rows for 4 entries"):
            conditional(np.zeros((2, 1)), InducingPoints(z), SquaredExponential(), q)
