import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegp import (
    Bernoulli,
    Constant,
    Convolutional,
    CorrelatedGaussian,
    DGPModel,
    Gaussian,
    GPLayer,
    GPRModel,
    InducingPatches,
    InducingPoints,
    Linear,
    LinearCoregionalization,
    Matern32,
    RngState,
    SeparateIndependent,
    SeparateIndependentInducingVariables,
    SharedIndependentInducingVariables,
    SquaredExponential,
    SVGPModel,
    UncertainSVGP,
    VariationalGaussian,
    White,
    conditional,
    k_full,
    kuf,
    kuu,
    marginalize_outputs,
    optimal_q,
    standard_normal,
    variational_expectations,
)
from sparsegp.divergences import prior_kl
from sparsegp.errors import ShapeMismatch, UnsupportedCombination

from sparsegp.modelio import load_model
from sparsegp.models import Model
from sparsegp.schema import from_document
from sparsegp.numerics import default_jitter

from conftest import desk_regression, make_spd, random_lower
from test_conditionals import dense_posterior_oracle
from test_formats import golden_path


def svgp_1d(rng, n=12, m=5, whiten=False, noise=0.05, num_data=None, jitter=1e-10):
    x = np.sort(rng.generator.uniform(0, 5, n))[:, None]
    y = np.sin(x) + 0.1 * standard_normal(rng.derive(1), (n, 1))
    z = np.linspace(0.2, 4.8, m)[:, None]
    kernel = SquaredExponential(1.0, 0.7)
    q = VariationalGaussian(
        standard_normal(rng.derive(2), m), random_lower(rng.derive(3), m), whiten=whiten
    )
    model = SVGPModel(
        kernel,
        Gaussian(noise),
        InducingPoints(z),
        q,
        num_data=num_data if num_data is not None else n,
        jitter=jitter,
    )
    return model, x, y


class TestGPR:
    def test_single_point_standard_normal(self):
        model = GPRModel(SquaredExponential(1.0, 1.0), 0.0, [[0.0]], [[0.0]])
        assert model.log_marginal() == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_white_kernel_is_sum_of_scalar_densities(self, rng):
        y = standard_normal(rng, (6, 1))
        x = standard_normal(rng, (6, 1))
        model = GPRModel(White(1.3), 0.2, x, y)
        from scipy.stats import norm

        want = norm.logpdf(y[:, 0], 0.0, np.sqrt(1.5)).sum()
        assert model.log_marginal() == pytest.approx(want, abs=1e-10)

    def test_log_marginal_matches_dense_formula(self, rng):
        x = standard_normal(rng, (8, 2))
        y = standard_normal(rng, (8, 1))
        kernel = SquaredExponential(1.2, [0.8, 1.4])
        noise = 0.3
        model = GPRModel(kernel, noise, x, y)
        cov = k_full(kernel, x) + noise * np.eye(8)
        want = (
            -0.5 * 8 * np.log(2 * np.pi)
            - 0.5 * np.linalg.slogdet(cov)[1]
            - 0.5 * y[:, 0] @ np.linalg.solve(cov, y[:, 0])
        )
        assert model.log_marginal() == pytest.approx(want, abs=1e-10)

    def test_prediction_far_from_data_returns_prior(self, rng):
        x = np.linspace(0, 1, 5)[:, None]
        y = standard_normal(rng, (5, 1))
        model = GPRModel(SquaredExponential(2.0, 0.5), 0.1, x, y)
        pm = model.predict(np.array([[40.0]]))
        assert pm.mean[0, 0] == pytest.approx(0.0, abs=1e-10)
        assert pm.cov[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_interpolates_with_vanishing_noise(self, rng):
        x = np.linspace(0, 3, 6)[:, None]
        y = standard_normal(rng, (6, 1))
        model = GPRModel(SquaredExponential(1.0, 0.9), 1e-10, x, y)
        pm = model.predict(x)
        np.testing.assert_allclose(pm.mean, y, atol=1e-4)

    def test_prediction_matches_dense_formula(self, rng):
        x = standard_normal(rng, (8, 1))
        y = standard_normal(rng, (8, 1))
        xs = standard_normal(rng, (4, 1))
        kernel = SquaredExponential(0.9, 0.6)
        model = GPRModel(kernel, 0.2, x, y)
        pm = model.predict(xs, full_cov=True)
        cov = k_full(kernel, x) + 0.2 * np.eye(8)
        cross = k_full(kernel, x, xs)
        want_mean = cross.T @ np.linalg.solve(cov, y[:, 0])
        want_cov = k_full(kernel, xs) - cross.T @ np.linalg.solve(cov, cross)
        np.testing.assert_allclose(pm.mean[:, 0], want_mean, atol=1e-10)
        np.testing.assert_allclose(pm.cov[0], want_cov, atol=1e-10)


class TestSvgpElbo:
    def test_full_batch_scale_one_is_plain_sum(self):
        rng = RngState(0)
        model, x, y = svgp_1d(rng)
        from sparsegp import variational_expectations

        pm = model.predict_f(x)
        want = float(
            np.sum(
                variational_expectations(model.likelihood, pm.mean, pm.cov, y)
            )
        ) - model.posterior.kl()
        assert model.elbo((x, y), scale=1.0) == pytest.approx(want, abs=1e-12)

    def test_collapse_to_exact_marginal_at_optimum(self):
        x, y = desk_regression()
        kernel = SquaredExponential(1.0, 0.8)
        noise = 0.01
        gpr = GPRModel(kernel, noise, x, y)
        q0 = VariationalGaussian(np.zeros(30), np.eye(30), whiten=False)
        model = SVGPModel(
            kernel, Gaussian(noise), InducingPoints(x), q0, num_data=30, jitter=1e-11
        )
        best = optimal_q(model, x, y)
        tuned = SVGPModel(
            kernel, Gaussian(noise), InducingPoints(x), best, num_data=30, jitter=1e-11
        )
        assert abs(tuned.elbo((x, y)) - gpr.log_marginal()) < 1e-6

    def test_elbo_never_exceeds_log_marginal(self):
        for seed in range(50):
            rng = RngState(seed)
            n = int(rng.generator.integers(6, 20))
            m = int(rng.generator.integers(2, 10))
            x = np.sort(rng.generator.uniform(0, 4, n))[:, None]
            y = standard_normal(rng.derive(1), (n, 1))
            z = rng.generator.uniform(0, 4, (m, 1))
            kernel = SquaredExponential(
                rng.generator.uniform(0.3, 2.0), rng.generator.uniform(0.3, 2.0)
            )
            noise = rng.generator.uniform(0.05, 0.5)
            q = VariationalGaussian(
                standard_normal(rng.derive(2), m),
                random_lower(rng.derive(3), m),
                whiten=bool(seed % 2),
            )
            svgp = SVGPModel(
                kernel, Gaussian(noise), InducingPoints(z), q, num_data=n
            )
            gpr = GPRModel(kernel, noise, x, y)
            assert svgp.elbo((x, y)) <= gpr.log_marginal() + 1e-6

    def test_optimal_q_beats_perturbations(self):
        rng = RngState(2)
        model, x, y = svgp_1d(rng, whiten=True)
        best = optimal_q(model, x, y)
        tuned = SVGPModel(
            model.kernel, model.likelihood, model.inducing, best,
            num_data=model.num_data, jitter=model.jitter,
        )
        top = tuned.elbo((x, y))
        for delta in (1e-3, 1e-2, 0.1):
            for sign in (-1.0, 1.0):
                bumped = VariationalGaussian(
                    best.q_mu + sign * delta, best.q_sqrt, whiten=True
                )
                other = SVGPModel(
                    model.kernel, model.likelihood, model.inducing, bumped,
                    num_data=model.num_data, jitter=model.jitter,
                )
                assert other.elbo((x, y)) < top

    def test_optimal_mean_vanishes_with_huge_noise(self):
        rng = RngState(3)
        model, x, y = svgp_1d(rng, noise=1e8, whiten=False)
        best = optimal_q(model, x, y)
        np.testing.assert_allclose(best.q_mu, 0.0, atol=1e-6)

    def test_whitening_invariance_of_elbo(self):
        rng = RngState(4)
        model, x, y = svgp_1d(rng, whiten=True, jitter=1e-8)
        from sparsegp import kuu

        luu = np.linalg.cholesky(kuu(model.inducing, model.kernel, model.jitter))
        q_plain = VariationalGaussian(
            luu @ model.q.q_mu,
            np.linalg.cholesky(luu @ model.q.q_sqrt @ model.q.q_sqrt.T @ luu.T),
            whiten=False,
        )
        plain = SVGPModel(
            model.kernel, model.likelihood, model.inducing, q_plain,
            num_data=model.num_data, jitter=model.jitter,
        )
        assert model.elbo((x, y)) == pytest.approx(plain.elbo((x, y)), abs=1e-8)

    def test_minibatch_average_is_unbiased(self):
        rng = RngState(5)
        model, x, y = svgp_1d(rng, n=12, num_data=12)
        full = model.elbo((x, y))
        batch = 4
        parts = [
            model.elbo((x[i : i + batch], y[i : i + batch]), scale=12 / batch)
            for i in range(0, 12, batch)
        ]
        assert np.mean(parts) == pytest.approx(full, abs=1e-9)

    def test_constant_mean_shifts_mean_only(self):
        rng = RngState(6)
        model, x, y = svgp_1d(rng)
        shifted = SVGPModel(
            model.kernel, model.likelihood, model.inducing, model.q,
            mean_function=Constant(2.5), num_data=model.num_data, jitter=model.jitter,
        )
        a = model.predict_f(x)
        b = shifted.predict_f(x)
        np.testing.assert_allclose(b.mean, a.mean + 2.5, atol=1e-12)
        np.testing.assert_allclose(b.cov, a.cov, atol=1e-12)

    def test_predict_f_matches_conditional(self):
        rng = RngState(7)
        model, x, y = svgp_1d(rng)
        pm = model.predict_f(x)
        ref = conditional(
            x, model.inducing, model.kernel, model.q, jitter=model.jitter
        )
        np.testing.assert_array_equal(pm.mean, ref.mean)
        np.testing.assert_array_equal(pm.cov, ref.cov)

    @settings(deadline=None, max_examples=25)
    @given(
        n=st.integers(1, 7),
        p=st.integers(1, 3),
        m=st.integers(1, 5),
        whiten=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_heterotopic_explosion_matches_homotopic(self, n, p, m, whiten, seed):
        # All-outputs-observed data rewritten as scalar rows, in any order,
        # must give the same objective under an independent Gaussian noise
        # model (README "File formats").
        rng = RngState(seed)
        x = standard_normal(rng, (n, 1))
        y = standard_normal(rng.derive(1), (n, p))
        kernel = SeparateIndependent(
            [SquaredExponential(1.0, 0.6 + 0.3 * i) for i in range(p)]
        )
        iv = SharedIndependentInducingVariables(
            InducingPoints(np.linspace(-2.0, 2.0, m)[:, None])
        )
        q = VariationalGaussian(
            standard_normal(rng.derive(2), m * p),
            tuple(random_lower(rng.derive(3 + i), m) for i in range(p)),
            whiten=whiten,
        )
        model = SVGPModel(kernel, Gaussian(0.25), iv, q, jitter=1e-8)
        homotopic = model.elbo((x, y), scale=1.0)

        order = rng.derive(20).generator.permutation(n * p)
        rows_x = np.repeat(x, p, axis=0)[order]
        rows_p = np.tile(np.arange(p), n)[order]
        rows_y = y.reshape(-1)[order]
        heterotopic = model.elbo_heterotopic(rows_x, rows_p, rows_y, scale=1.0)
        assert heterotopic == pytest.approx(homotopic, abs=1e-9)

    def test_heterotopic_correlated_noise_uses_marginal_variance(self):
        rng = RngState(9)
        n, m, p = 4, 3, 2
        x = standard_normal(rng, (n, 1))
        z = standard_normal(rng.derive(1), (m, 1))
        from sparsegp import SharedIndependent, SharedIndependentInducingVariables

        kernel = SharedIndependent(SquaredExponential(1.0, 0.8), p)
        iv = SharedIndependentInducingVariables(InducingPoints(z))
        q = VariationalGaussian(
            standard_normal(rng.derive(2), m * p),
            tuple(random_lower(rng.derive(3 + i), m) for i in range(p)),
            whiten=True,
        )
        noise = make_spd(rng.derive(10), p, scale=0.1)
        model = SVGPModel(kernel, CorrelatedGaussian(noise), iv, q, num_data=n)
        outputs = np.array([0, 1, 1, 0])
        rows_y = standard_normal(rng.derive(11), n)
        got = model.elbo_heterotopic(x, outputs, rows_y, scale=1.0)

        pm = model.predict_f(x)
        expected = -model.posterior.kl()
        from scipy.stats import norm

        for i in range(n):
            pidx = outputs[i]
            mu = pm.mean[i, pidx]
            var = pm.cov[i, pidx]
            s = noise[pidx, pidx]
            expected += norm.logpdf(rows_y[i], mu, np.sqrt(s)) - var / (2 * s)
        assert got == pytest.approx(expected, abs=1e-9)


def elbo_heterotopic_per_row(model, x, outputs, y, scale):
    """Reference: one marginalized likelihood and one expectation per row."""
    pm = model.predict_f(x)
    rows = np.arange(x.shape[0])
    mu = pm.mean[rows, outputs]
    var = pm.cov[rows, outputs]
    total = 0.0
    for n in rows:
        lik_n = marginalize_outputs(model.likelihood, (outputs[n],))
        ve = variational_expectations(
            lik_n, mu[n : n + 1], var[n : n + 1], y[n : n + 1]
        )
        total += float(ve[0])
    return scale * total - model.posterior.kl()


def lmc_svgp(rng, likelihood, whiten, m=4, p=3):
    """Three-output LMC over two latents with shared inducing inputs."""
    z = np.linspace(-1.5, 1.5, m)[:, None]
    kernel = LinearCoregionalization(
        [SquaredExponential(1.0, 0.9), Matern32(0.8, 1.3)],
        standard_normal(rng, (p, 2)),
    )
    q = VariationalGaussian(
        standard_normal(rng.derive(1), 2 * m),
        tuple(random_lower(rng.derive(2 + i), m) for i in range(2)),
        whiten=whiten,
    )
    iv = SharedIndependentInducingVariables(InducingPoints(z))
    return SVGPModel(kernel, likelihood, iv, q, num_data=50, jitter=1e-8)


class TestHeterotopicGroups:
    """The grouped heterotopic ELBO against its per-row twin."""

    LIKELIHOODS = {
        "gaussian": lambda rng: Gaussian(0.3),
        "correlated": lambda rng: CorrelatedGaussian(make_spd(rng, 3, scale=0.1)),
        "bernoulli": lambda rng: Bernoulli(),
    }

    @pytest.mark.parametrize("whiten", [True, False])
    @pytest.mark.parametrize("name", sorted(LIKELIHOODS))
    @pytest.mark.parametrize("missing", [None, 1])
    def test_matches_per_row_reference(self, name, whiten, missing):
        rng = RngState(21)
        model = lmc_svgp(rng, self.LIKELIHOODS[name](rng.derive(9)), whiten)
        n = 17
        x = standard_normal(rng.derive(10), (n, 1))
        outputs = rng.derive(11).generator.permutation(np.arange(n) % 3)
        if missing is not None:
            outputs[outputs == missing] = (missing + 1) % 3
        y = standard_normal(rng.derive(12), n)
        if name == "bernoulli":
            y = (y > 0).astype(float)
        scale = 50 / n
        expected = elbo_heterotopic_per_row(model, x, outputs, y, scale)
        assert model.elbo_heterotopic(x, outputs, y, scale) == pytest.approx(
            expected, rel=1e-12, abs=1e-9
        )
        # Row order only changes the summation order.
        order = rng.derive(13).generator.permutation(n)
        shuffled = model.elbo_heterotopic(x[order], outputs[order], y[order], scale)
        assert shuffled == pytest.approx(expected, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("bad", [3, -1])
    def test_out_of_range_output_index_is_typed(self, bad):
        model = lmc_svgp(RngState(22), Gaussian(0.3), whiten=True)
        x = np.zeros((3, 1))
        with pytest.raises(ShapeMismatch, match=str(bad)):
            model.elbo_heterotopic(x, np.array([0, bad, 1]), np.zeros(3))


class TestSeparateInducingSets:
    """Latents whose inducing sets differ in size (the golden models)."""

    @pytest.mark.parametrize(
        "case", ["svgp_separate_independent_separate", "svgp_imc_separate_unwhitened"]
    )
    def test_predict_f_matches_a_per_latent_dense_oracle(self, case):
        model, _ = load_model(golden_path(case))
        q, kernel = model.q, model.kernel
        members = model.inducing.members
        sizes = [m.num_rows for m in members]
        assert len(set(sizes)) > 1
        jitter = model.jitter if model.jitter is not None else default_jitter()
        x = np.linspace(-0.5, 3.5, 7)[:, None]
        means, covs, offset = [], [], 0
        for k, member, sqrt in zip(kernel.latent_kernels, members, q.q_sqrt):
            m = member.num_rows
            kmm = kuu(member, k, jitter)  # the member's own pair
            mu, s = q.q_mu[offset : offset + m], sqrt @ sqrt.T
            offset += m
            if q.whiten:
                l = np.linalg.cholesky(kmm)
                mu, s = l @ mu, l @ s @ l.T
            mean, cov = dense_posterior_oracle(
                kuf(member, k, x), kmm, k_full(k, x), mu, s
            )
            means.append(mean)
            covs.append(cov)
        w = getattr(kernel, "w", np.eye(len(sizes)))  # [P, L] output mixing
        got = model.predict_f(x, full_cov=True)
        np.testing.assert_allclose(got.mean, np.stack(means, axis=1) @ w.T, atol=1e-10)
        want_cov = np.einsum("pl,lnm->pnm", w * w, np.stack(covs))
        np.testing.assert_allclose(got.cov, want_cov, atol=1e-10)

    @pytest.mark.parametrize("whiten", [False, True])
    def test_conv_latent_with_patch_member_matches_the_oracle_in_all_modes(self, whiten):
        rng = RngState(17)
        conv = Convolutional(SquaredExponential(0.8, 1.5), (3, 3), (2, 2))
        kernel = SeparateIndependent([conv, Matern32(1.0, 2.0)])
        x = standard_normal(rng, (7, 9))  # flattened 3x3 images
        members = [
            InducingPatches(conv.patches(x).reshape(-1, 4)[:5]),
            InducingPoints(x[:4] + 0.1),
        ]
        mu = standard_normal(rng.derive(1), 9)
        sqrts = tuple(random_lower(rng.derive(2 + i), m.num_rows) for i, m in enumerate(members))
        q = VariationalGaussian(mu, sqrts, whiten=whiten)
        iv = SeparateIndependentInducingVariables(members)
        model = SVGPModel(kernel, Gaussian(0.1), iv, q, jitter=1e-6)
        means, covs, offset = [], [], 0
        for k, member, sqrt in zip(kernel.latent_kernels, members, sqrts):
            m = member.num_rows
            kmm = kuu(member, k, 1e-6)  # the member's own pair
            mu_l, s = mu[offset : offset + m], sqrt @ sqrt.T
            offset += m
            if whiten:
                l = np.linalg.cholesky(kmm)
                mu_l, s = l @ mu_l, l @ s @ l.T
            mean, cov = dense_posterior_oracle(kuf(member, k, x), kmm, k_full(k, x), mu_l, s)
            means.append(mean)
            covs.append(cov)
        full = np.einsum("lnm,pl,ql->npmq", np.stack(covs), np.eye(2), np.eye(2))
        want = {
            (True, True): full,
            (True, False): np.einsum("npmp->pnm", full),
            (False, True): np.einsum("npnq->npq", full),
            (False, False): np.einsum("npnp->np", full),
        }
        for (full_cov, full_output_cov), cov in want.items():
            got = model.predict_f(x, full_cov=full_cov, full_output_cov=full_output_cov)
            np.testing.assert_allclose(got.mean, np.stack(means, axis=1), atol=1e-9)
            np.testing.assert_allclose(got.cov, cov, atol=1e-9)

    def test_multiscale_member_scales_change_the_prediction(self):
        path = golden_path("svgp_separate_independent_separate")
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        member = doc["inducing"]["members"][0]
        assert member["tag"] == "multiscale"
        base = from_document(doc, Model)
        member["scales"] = (10.0 * np.asarray(member["scales"])).tolist()
        wide = from_document(doc, Model)
        x = np.linspace(-0.5, 3.5, 7)[:, None]
        a, b = base.predict_f(x), wide.predict_f(x)
        assert np.max(np.abs(a.mean[:, 0] - b.mean[:, 0])) > 1e-6
        assert np.max(np.abs(a.cov[:, 0] - b.cov[:, 0])) > 1e-6
        # The second latent's inducing set is plain points: untouched.
        np.testing.assert_array_equal(a.mean[:, 1], b.mean[:, 1])

    def test_q_blocks_must_match_the_members(self, tmp_path):
        path = golden_path("svgp_separate_independent_separate")
        model, _ = load_model(path)
        swapped = VariationalGaussian(
            model.q.q_mu, tuple(np.eye(n) for n in (4, 3)), whiten=model.q.whiten
        )
        with pytest.raises(ShapeMismatch, match="rows for a latent of size"):
            SVGPModel(model.kernel, model.likelihood, model.inducing, swapped)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["q_sqrt"]["blocks"] = [np.eye(3).tolist(), np.eye(3).tolist()]
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ShapeMismatch, match="rows for a latent of size"):
            load_model(tmp_path / "m.json")


class TestConvolutionalModel:
    def test_patch_model_respects_the_marginal_bound(self):
        from sparsegp import Convolutional, InducingPatches

        rng = RngState(42)
        n = 8
        x = standard_normal(rng, (n, 9))  # flattened 3x3 images
        y = standard_normal(rng.derive(1), (n, 1))
        kernel = Convolutional(SquaredExponential(0.5, 1.5), (3, 3), (2, 2))
        z = kernel.patches(x).reshape(-1, 4)[:5]
        m = z.shape[0]
        model = SVGPModel(
            kernel,
            Gaussian(0.3),
            InducingPatches(z),
            VariationalGaussian(
                standard_normal(rng.derive(2), m), random_lower(rng.derive(3), m)
            ),
            num_data=n,
        )
        elbo = model.elbo((x, y))
        exact = GPRModel(kernel, 0.3, x, y).log_marginal()
        assert np.isfinite(elbo)
        assert elbo <= exact + 1e-6


class TestNonConjugate:
    def test_bernoulli_classification_elbo_improves_under_fit(self):
        from sparsegp import Bernoulli, FitConfig, fit

        rng = RngState(40)
        n, m = 16, 5
        x = np.sort(rng.generator.uniform(-2, 2, n))[:, None]
        y = (x[:, 0] > 0).astype(float)[:, None]
        model = SVGPModel(
            SquaredExponential(1.0, 0.8),
            Bernoulli(),
            InducingPoints(np.linspace(-1.8, 1.8, m)[:, None]),
            VariationalGaussian(np.zeros(m), np.eye(m), whiten=True),
            num_data=n,
        )
        before = model.elbo((x, y))
        result = fit(model, (x, y), FitConfig(steps=30, learning_rate=0.1, seed=0))
        assert result.model.elbo((x, y)) > before

    def test_poisson_counts_elbo_is_finite(self):
        from sparsegp import Poisson

        rng = RngState(41)
        n, m = 10, 4
        x = np.sort(rng.generator.uniform(0, 4, n))[:, None]
        y = rng.generator.poisson(2.0, (n, 1)).astype(float)
        model = SVGPModel(
            SquaredExponential(1.0, 0.9),
            Poisson(),
            InducingPoints(np.linspace(0.2, 3.8, m)[:, None]),
            VariationalGaussian(np.zeros(m), np.eye(m), whiten=True),
            num_data=n,
        )
        assert np.isfinite(model.elbo((x, y)))


class TestOptimalQ:
    def test_requires_gaussian_likelihood(self):
        rng = RngState(10)
        model, x, y = svgp_1d(rng)
        from sparsegp import Bernoulli

        bad = SVGPModel(
            model.kernel, Bernoulli(), model.inducing, model.q, num_data=12
        )
        with pytest.raises(UnsupportedCombination):
            optimal_q(bad, x, (y > 0).astype(float))

    def test_whitened_and_unwhitened_optima_agree_on_elbo(self):
        rng = RngState(11)
        model_w, x, y = svgp_1d(rng, whiten=True, jitter=1e-9)
        model_u = SVGPModel(
            model_w.kernel, model_w.likelihood, model_w.inducing,
            VariationalGaussian(model_w.q.q_mu, model_w.q.q_sqrt, whiten=False),
            num_data=model_w.num_data, jitter=model_w.jitter,
        )
        best_w = optimal_q(model_w, x, y)
        best_u = optimal_q(model_u, x, y)
        elbo_w = SVGPModel(
            model_w.kernel, model_w.likelihood, model_w.inducing, best_w,
            num_data=12, jitter=model_w.jitter,
        ).elbo((x, y))
        elbo_u = SVGPModel(
            model_u.kernel, model_u.likelihood, model_u.inducing, best_u,
            num_data=12, jitter=model_u.jitter,
        ).elbo((x, y))
        assert elbo_w == pytest.approx(elbo_u, abs=1e-8)


def _identity_layer(delta=1e-4):
    """Linear-kernel layer whose posterior is the identity map with sd
    delta * |x|; its KL against the prior is known in closed form."""
    z = np.array([[1.0]])
    q = VariationalGaussian(
        np.array([1.0]), np.array([[delta]]), whiten=False
    )
    return GPLayer(Linear(1.0), InducingPoints(z), q), delta


class TestDGP:
    def _svgp_layer(self, rng, m=4):
        z = np.linspace(0.3, 4.7, m)[:, None]
        q = VariationalGaussian(
            standard_normal(rng, m), random_lower(rng.derive(1), m), whiten=True
        )
        return GPLayer(SquaredExponential(1.0, 0.8), InducingPoints(z), q)

    def test_single_layer_equals_svgp_for_any_seed(self):
        rng = RngState(12)
        x = np.sort(rng.generator.uniform(0, 5, 10))[:, None]
        y = np.sin(x)
        layer = self._svgp_layer(rng.derive(1))
        dgp = DGPModel([layer], Gaussian(0.1), num_data=10)
        svgp = SVGPModel(
            layer.kernel, Gaussian(0.1), layer.inducing, layer.q, num_data=10
        )
        want = svgp.elbo((x, y))
        for seed in (0, 1, 99):
            assert dgp.elbo((x, y), RngState(seed)) == want

    def test_layer_kl_sum_is_sum_of_prior_kls(self):
        rng = RngState(13)
        layers = [self._svgp_layer(rng.derive(i)) for i in range(3)]
        dgp = DGPModel(layers, Gaussian(0.1), num_data=5)
        x = standard_normal(rng.derive(10), (5, 1))
        y = standard_normal(rng.derive(11), (5, 1))
        value = dgp.elbo((x, y), RngState(0), scale=0.0)
        want = -sum(prior_kl(layer.inducing, layer.kernel, layer.q) for layer in layers)
        assert value == pytest.approx(want, abs=1e-12)

    def test_white_final_layer_matches_degenerate_svgp(self):
        # A tiny-variance white final layer ignores its inputs, so a
        # first layer at its prior (zero KL) must leave the objective
        # equal to the matched shallow model, for every seed.
        rng = RngState(14)
        n = 8
        x = np.sort(rng.generator.uniform(0, 4, n))[:, None]
        y = 0.05 * standard_normal(rng.derive(1), (n, 1))

        first = GPLayer(
            SquaredExponential(1.0, 1.0),
            InducingPoints(np.linspace(0.2, 3.8, 4)[:, None]),
            VariationalGaussian(np.zeros(4), np.eye(4), whiten=True),
        )
        eps = 1e-8
        z2 = np.linspace(-3.0, 3.0, 3)[:, None]
        q2 = VariationalGaussian(np.zeros(3), np.eye(3), whiten=True)
        second = GPLayer(White(eps), InducingPoints(z2), q2)

        dgp = DGPModel([first, second], Gaussian(0.1), num_data=n, jitter=1e-12)
        svgp = SVGPModel(
            White(eps), Gaussian(0.1), InducingPoints(z2), q2,
            num_data=n, jitter=1e-12,
        )
        want = svgp.elbo((x, y))
        values = [dgp.elbo((x, y), RngState(s)) for s in range(200)]
        se = np.std(values, ddof=1) / np.sqrt(len(values)) if np.std(values) > 0 else 0.0
        assert abs(np.mean(values) - want) <= 3.0 * se + 1e-9

    def test_identity_first_layer_recovers_svgp_after_kl_correction(self):
        rng = RngState(15)
        n = 10
        x = np.sort(rng.generator.uniform(0.5, 4.5, n))[:, None]
        y = np.sin(x)
        second = self._svgp_layer(rng.derive(2))
        identity, delta = _identity_layer(1e-4)
        dgp = DGPModel([identity, second], Gaussian(0.05), num_data=n)
        svgp = SVGPModel(
            second.kernel, Gaussian(0.05), second.inducing, second.q, num_data=n
        )
        identity_kl = -np.log(delta) + 0.5 * delta**2  # closed form for the map
        values = [dgp.elbo((x, y), RngState(s)) + identity_kl for s in range(200)]
        se = max(np.std(values, ddof=1) / np.sqrt(len(values)), 1e-9)
        assert abs(np.mean(values) - svgp.elbo((x, y))) <= 3.0 * se + 1e-5

    def test_fixed_seed_is_deterministic(self):
        rng = RngState(16)
        layers = [self._svgp_layer(rng.derive(i)) for i in range(2)]
        dgp = DGPModel(layers, Gaussian(0.1), num_data=6)
        x = standard_normal(rng.derive(10), (6, 1))
        y = standard_normal(rng.derive(11), (6, 1))
        assert dgp.elbo((x, y), RngState(7)) == dgp.elbo((x, y), RngState(7))

    def test_mismatched_layer_widths_rejected(self):
        rng = RngState(30)
        one_d = self._svgp_layer(rng)  # expects 1-D inputs, emits one column
        from sparsegp import SharedIndependent, SharedIndependentInducingVariables

        m = 3
        wide = GPLayer(
            SharedIndependent(SquaredExponential(1.0, 0.8), 2),
            SharedIndependentInducingVariables(
                InducingPoints(np.linspace(0, 1, m)[:, None])
            ),
            VariationalGaussian(np.zeros(2 * m), (np.eye(m), np.eye(m))),
        )
        from sparsegp.errors import ShapeMismatch

        with pytest.raises(ShapeMismatch):
            DGPModel([wide, one_d], Gaussian(0.1))

    def test_multioutput_hidden_layer_widths(self):
        rng = RngState(17)
        from sparsegp import SharedIndependent, SharedIndependentInducingVariables

        m = 3
        z = np.linspace(0, 1, m)[:, None]
        hidden = GPLayer(
            SharedIndependent(SquaredExponential(1.0, 0.8), 2),
            SharedIndependentInducingVariables(InducingPoints(z)),
            VariationalGaussian(
                np.zeros(2 * m), (np.eye(m), np.eye(m)), whiten=True
            ),
        )
        z2 = standard_normal(rng, (m, 2))
        final = GPLayer(
            SquaredExponential(1.0, 1.0),
            InducingPoints(z2),
            VariationalGaussian(np.zeros(m), np.eye(m), whiten=True),
        )
        dgp = DGPModel([hidden, final], Gaussian(0.1), num_data=4)
        x = standard_normal(rng.derive(1), (4, 1))
        y = standard_normal(rng.derive(2), (4, 1))
        value = dgp.elbo((x, y), RngState(0))
        assert np.isfinite(value)

    def test_patch_layer_feeds_one_column(self):
        # Inducing patches give the summed-patch response: one column per
        # image, not one per patch.
        from sparsegp import Convolutional, FitConfig, InducingPatches, fit

        rng = RngState(18)
        x = standard_normal(rng, (6, 9))  # flattened 3x3 images, 4 patches each
        y = standard_normal(rng.derive(1), (6, 1))
        kernel = Convolutional(SquaredExponential(1.0, 1.5), (3, 3), (2, 2))
        patches = GPLayer(
            kernel,
            InducingPatches(kernel.patches(x).reshape(-1, 4)[:5]),
            VariationalGaussian(np.zeros(5), np.eye(5), whiten=True),
        )

        def final(width):
            z = standard_normal(rng.derive(2), (3, width))
            q = VariationalGaussian(np.zeros(3), np.eye(3), whiten=True)
            return GPLayer(SquaredExponential(1.0, 1.0), InducingPoints(z), q)

        dgp = DGPModel([patches, final(1)], Gaussian(0.1), num_data=6)
        assert dgp.input_dim == 9
        trained = fit(dgp, (x, y), FitConfig(steps=1, learning_rate=0.01)).model
        mean, var = trained.predict_f(x, RngState(0), 5)
        assert mean.shape == var.shape == (6, 1)
        assert np.all(np.isfinite(mean)) and np.all(var > 0)
        with pytest.raises(ShapeMismatch, match="producing 1 columns"):
            DGPModel([patches, final(4)], Gaussian(0.1))


class TestUncertainInputs:
    def _setup(self, rng, input_scale=1e-6):
        n = 8
        x = np.sort(rng.generator.uniform(-2, 2, n))[:, None]
        y = np.sin(x)
        model, _, _ = svgp_1d(rng.derive(1), n=n, whiten=True, jitter=1e-8)
        uncertain = UncertainSVGP(
            model, x, np.full((n, 1), input_scale), y
        )
        return uncertain, model, x, y

    def test_prior_matched_inputs_have_zero_input_kl(self):
        rng = RngState(18)
        model, _, _ = svgp_1d(rng, n=4)
        uncertain = UncertainSVGP(
            model, np.zeros((4, 1)), np.ones((4, 1)), np.zeros((4, 1))
        )
        assert uncertain.input_kl() == 0.0

    def test_degenerates_to_svgp_when_inputs_collapse(self):
        rng = RngState(19)
        uncertain, model, x, y = self._setup(rng)
        want = model.elbo((x, y), scale=1.0)
        values = [
            uncertain.elbo(RngState(s)) + uncertain.input_kl() for s in range(200)
        ]
        assert abs(np.mean(values) - want) < 0.01

    def test_seed_determinism(self):
        rng = RngState(20)
        uncertain, *_ = self._setup(rng, input_scale=0.05)
        assert uncertain.elbo(RngState(3)) == uncertain.elbo(RngState(3))

    def test_input_kl_closed_form(self):
        mu = np.array([[0.5, -1.0]])
        s = np.array([[0.7, 1.3]])
        model_rng = RngState(21)
        model, x, y = svgp_1d(model_rng, n=1)
        model2 = SVGPModel(
            SquaredExponential(1.0, 1.0),
            Gaussian(0.1),
            InducingPoints(np.zeros((3, 2))),
            VariationalGaussian(np.zeros(3), np.eye(3)),
            num_data=1,
        )
        uncertain = UncertainSVGP(model2, mu, s, np.zeros((1, 1)))
        want = 0.5 * np.sum(s + mu**2 - 1.0 - np.log(s))
        assert uncertain.input_kl() == pytest.approx(want, abs=1e-12)
