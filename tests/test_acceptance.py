"""Acceptance criteria for the full build, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks that criterion FAIL.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

from sparsegp import (
    Bernoulli,
    Gaussian,
    GPLayer,
    GPRModel,
    DGPModel,
    InducingPoints,
    LinearCoregionalization,
    Matern32,
    Multiscale,
    RngState,
    SquaredExponential,
    SVGPModel,
    SeparateIndependent,
    SharedIndependentInducingVariables,
    UncertainSVGP,
    VariationalGaussian,
    allocation_probe,
    cholesky,
    conditional,
    gauss_hermite_expectations,
    gauss_kl,
    k_full,
    kuf,
    kuu,
    optimal_q,
    standard_normal,
    variational_expectations,
)
from sparsegp.divergences import prior_kl
from sparsegp.training import FitConfig, fit, gradient, parameterize

from conftest import desk_regression, make_spd, random_lower
from test_conditionals import _build_q, _paths, lmc_coupling_matrix


def report(number, text):
    print(f"\nACCEPTANCE {number:02d} PASS: {text}")


def test_01_elbo_collapse_at_titsias_optimum():
    started = time.perf_counter()
    x, y = desk_regression()
    kernel = SquaredExponential(1.0, 0.8)
    noise = 0.01
    gpr = GPRModel(kernel, noise, x, y)
    placeholder = VariationalGaussian(np.zeros(30), np.eye(30), whiten=False)
    model = SVGPModel(
        kernel, Gaussian(noise), InducingPoints(x), placeholder,
        num_data=30, jitter=1e-11,
    )
    best = optimal_q(model, x, y)
    tuned = SVGPModel(
        kernel, Gaussian(noise), InducingPoints(x), best,
        num_data=30, jitter=1e-11,
    )
    gap = abs(tuned.elbo((x, y)) - gpr.log_marginal())
    elapsed = time.perf_counter() - started
    assert gap < 1e-6, gap
    assert elapsed < 1.0, elapsed
    report(1, f"collapsed ELBO gap {gap:.2e} nats in {elapsed * 1e3:.0f} ms")


def test_02_elbo_is_a_lower_bound():
    worst = -np.inf
    for seed in range(200):
        rng = RngState(seed)
        n = int(rng.generator.integers(5, 21))
        m = int(rng.generator.integers(2, 11))
        x = np.sort(rng.generator.uniform(0, 4, n))[:, None]
        y = standard_normal(rng.derive(1), (n, 1))
        z = rng.generator.uniform(0, 4, (m, 1))
        kernel = SquaredExponential(
            float(rng.generator.uniform(0.3, 2.0)),
            float(rng.generator.uniform(0.3, 2.0)),
        )
        noise = float(rng.generator.uniform(0.05, 0.5))
        q = VariationalGaussian(
            standard_normal(rng.derive(2), m),
            random_lower(rng.derive(3), m),
            whiten=bool(seed % 2),
        )
        svgp = SVGPModel(kernel, Gaussian(noise), InducingPoints(z), q, num_data=n)
        margin = svgp.elbo((x, y)) - GPRModel(kernel, noise, x, y).log_marginal()
        worst = max(worst, margin)
        assert margin <= 1e-6, (seed, margin)
    report(2, f"200/200 random configurations below the marginal (worst gap {worst:.2e})")


def test_03_efficient_path_equivalence_and_allocation():
    rng = RngState(40)
    m, n, p, l = 4, 6, 3, 2
    x = standard_normal(rng, (n, 1))
    z = standard_normal(rng.derive(1), (m, 1))
    w = standard_normal(rng.derive(2), (p, l))
    kernel = LinearCoregionalization(
        [SquaredExponential(1.0, 0.6), Matern32(0.8, 1.1)], w
    )
    mu_g = standard_normal(rng.derive(3), m * l)
    blocks = tuple(random_lower(rng.derive(4 + i), m) for i in range(l))
    q_latent = VariationalGaussian(mu_g, blocks, whiten=False)

    t = lmc_coupling_matrix(w, m)
    sqrt_g = np.zeros((m * l, m * l))
    for i, b in enumerate(blocks):
        sqrt_g[i * m : (i + 1) * m, i * m : (i + 1) * m] = b
    q_naive = VariationalGaussian(t @ mu_g, t @ sqrt_g, whiten=False)

    iv_latent = SharedIndependentInducingVariables(InducingPoints(z))
    tiny = 1e-11  # the stacked-output covariance is singular; error scales with jitter
    with allocation_probe() as latent_shapes:
        efficient = conditional(
            x, iv_latent, kernel, q_latent,
            full_cov=False, full_output_cov=True, jitter=tiny,
        )
    with allocation_probe() as naive_shapes:
        naive = conditional(
            x, InducingPoints(z), kernel, q_naive,
            full_cov=False, full_output_cov=True, jitter=tiny,
        )

    mean_err = np.max(np.abs(efficient.mean - naive.mean))
    var_err = np.max(
        np.abs(
            np.einsum("npp->np", efficient.cov) - np.einsum("npp->np", naive.cov)
        )
    )
    assert mean_err < 1e-8 and var_err < 1e-8, (mean_err, var_err)

    bound = max(m * l, n * p)
    latent_peak = max(max(s) for s in latent_shapes)
    assert latent_peak <= bound, (latent_peak, bound)
    assert not any(
        sum(d >= m * p for d in shape) >= 2 for shape in latent_shapes
    ), "latent path materialized a stacked-output-sized matrix"
    assert (m * p, m * p) in naive_shapes
    report(
        3,
        f"latent path matches dense path (err {max(mean_err, var_err):.1e}); "
        f"latent peak dim {latent_peak} <= {bound}, dense path allocates "
        f"{m * p}x{m * p}",
    )


def test_04_shape_contract_and_mode_consistency():
    checked = 0
    for name in [
        "single", "multiscale", "conv", "fully_correlated",
        "indep_shared", "indep_separate", "lmc", "imc",
    ]:
        rng = RngState(41)
        x, iv, kernel, q_builder, p = _paths(rng)[name]
        q = _build_q(name, iv, kernel, q_builder, False)
        n = x.shape[0]
        moments = {
            (fc, foc): conditional(
                x, iv, kernel, q, full_cov=fc, full_output_cov=foc, jitter=1e-8
            )
            for fc in (False, True)
            for foc in (False, True)
        }
        assert moments[(True, True)].cov.shape == (n, p, n, p)
        assert moments[(True, False)].cov.shape == (p, n, n)
        assert moments[(False, True)].cov.shape == (n, p, p)
        assert moments[(False, False)].cov.shape == (n, p)
        full = moments[(True, True)].cov
        np.testing.assert_allclose(
            moments[(False, False)].cov, np.einsum("npnp->np", full), atol=1e-10
        )
        np.testing.assert_allclose(
            moments[(True, False)].cov, np.einsum("npmp->pnm", full), atol=1e-10
        )
        np.testing.assert_allclose(
            moments[(False, True)].cov, np.einsum("npnq->npq", full), atol=1e-10
        )
        for pm in moments.values():
            assert pm.mean.shape == (n, p)
            np.testing.assert_allclose(
                pm.mean, moments[(False, False)].mean, atol=1e-10
            )
        checked += 1
    report(4, f"all four covariance modes verified on {checked} conditional paths")


def test_05_kl_identities():
    rng = RngState(42)
    k = make_spd(rng, 5)
    at_prior = gauss_kl(
        VariationalGaussian(np.zeros(5), np.linalg.cholesky(k), whiten=False),
        cholesky(k),
    )
    assert abs(at_prior) < 1e-10

    worst = 0.0
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
        worst = max(worst, abs(white - plain))
        assert abs(white - plain) < 1e-9

    rng = RngState(99)
    blocks = (make_spd(rng, 3), make_spd(rng, 2))
    sqrts = (random_lower(rng, 3), random_lower(rng, 2))
    mu = standard_normal(rng, 5)
    total = gauss_kl(
        VariationalGaussian(mu, sqrts, whiten=False), [cholesky(b) for b in blocks]
    )
    parts = sum(
        gauss_kl(VariationalGaussian(m_i, s_i, whiten=False), cholesky(b_i))
        for m_i, s_i, b_i in zip((mu[:3], mu[3:]), sqrts, blocks)
    )
    assert total == parts
    report(
        5,
        f"prior KL is zero, whitening agreement within {worst:.1e}, "
        "block additivity exact",
    )


def test_06_analytic_gradients_match_finite_differences():
    worst = 0.0
    for whiten in (False, True):
        for seed in range(20):
            rng = RngState(1000 + seed)
            n, m = 9, 4
            x = np.sort(rng.generator.uniform(0, 4, n))[:, None]
            y = np.sin(x) + 0.1 * standard_normal(rng.derive(1), (n, 1))
            model = SVGPModel(
                SquaredExponential(
                    float(rng.generator.uniform(0.5, 1.5)),
                    float(rng.generator.uniform(0.4, 1.2)),
                ),
                Gaussian(float(rng.generator.uniform(0.05, 0.3))),
                InducingPoints(np.linspace(0.2, 3.8, m)[:, None]),
                VariationalGaussian(
                    standard_normal(rng.derive(2), m),
                    random_lower(rng.derive(3), m),
                    whiten=whiten,
                ),
                num_data=n,
                jitter=1e-8,
            )
            store, build = parameterize(model)

            def objective(s):
                return -build(s).elbo((x, y), scale=1.0)

            exact = {
                name: -g
                for name, g in model.objective_gradients((x, y), None, 1.0)[1].items()
            }
            assert sorted(exact) == [
                "inducing.z", "kernel.lengthscales", "kernel.variance",
                "likelihood.variance", "q_mu", "q_sqrt",
            ]
            fd = gradient(objective, store)
            an = gradient(objective, store, lambda s: exact)
            spans = {nm: (a, b) for nm, a, b in store.spans()}
            for group in exact:
                lo, hi = spans[group]
                denom = np.maximum(np.abs(fd[lo:hi]), 1e-7 / 1e-4)
                rel = float(np.max(np.abs(an[lo:hi] - fd[lo:hi]) / denom))
                worst = max(worst, rel)
                assert rel < 1e-4, (whiten, seed, group, rel)
    report(6, f"exact gradients within rel {worst:.1e} of central differences")


def test_07_quadrature_matches_closed_form():
    rng = RngState(7)
    n = 100
    mu = standard_normal(rng, (n, 1))
    var = rng.generator.uniform(0.05, 2.0, (n, 1))
    y = standard_normal(rng.derive(1), (n, 1))
    sigma2 = float(rng.generator.uniform(0.05, 1.0))
    closed = variational_expectations(Gaussian(sigma2), mu, var, y)
    quad = gauss_hermite_expectations(Gaussian(sigma2), mu, var, y, 20)
    err = float(np.max(np.abs(closed - quad)))
    assert err < 1e-10
    report(
        7, f"20-node Gauss-Hermite within {err:.1e} of the closed form on 100 tuples"
    )


def test_08_multiscale_delta_limit():
    rng = RngState(8)
    z = standard_normal(rng, (5, 2))
    x = standard_normal(rng.derive(1), (7, 2))
    kernel = SquaredExponential(1.1, [0.6, 1.3])
    tiny = Multiscale(z, np.full((5, 2), 1e-8))
    exact = InducingPoints(z)
    kuu_err = float(
        np.max(np.abs(kuu(tiny, kernel, 0.0) - kuu(exact, kernel, 0.0)))
    )
    kuf_err = float(np.max(np.abs(kuf(tiny, kernel, x) - kuf(exact, kernel, x))))
    assert kuu_err < 1e-5 and kuf_err < 1e-5
    report(8, f"window width 1e-8 reproduces inducing points (errs {kuu_err:.1e}, {kuf_err:.1e})")


def test_09_dgp_degeneracy():
    rng = RngState(9)
    n, m = 10, 4
    x = np.sort(rng.generator.uniform(0, 5, n))[:, None]
    y = np.sin(x)
    layer = GPLayer(
        SquaredExponential(1.0, 0.8),
        InducingPoints(np.linspace(0.3, 4.7, m)[:, None]),
        VariationalGaussian(
            standard_normal(rng.derive(1), m),
            random_lower(rng.derive(2), m),
            whiten=True,
        ),
    )
    dgp = DGPModel([layer], Gaussian(0.1), num_data=n)
    svgp = SVGPModel(layer.kernel, Gaussian(0.1), layer.inducing, layer.q, num_data=n)
    want = svgp.elbo((x, y))
    for seed in (0, 7, 123):
        assert dgp.elbo((x, y), RngState(seed)) == want

    layers = [
        GPLayer(
            SquaredExponential(1.0, 0.8),
            InducingPoints(np.linspace(0.3, 4.7, m)[:, None]),
            VariationalGaussian(
                standard_normal(rng.derive(10 + i), m),
                random_lower(rng.derive(20 + i), m),
                whiten=True,
            ),
        )
        for i in range(3)
    ]
    deep = DGPModel(layers, Gaussian(0.1), num_data=n)
    kl_only = deep.elbo((x, y), RngState(0), scale=0.0)
    assert kl_only == -sum(
        prior_kl(layer.inducing, layer.kernel, layer.q) for layer in layers
    )
    report(9, "one-layer deep model equals the shallow model; layer KLs add exactly")


def test_10_uncertain_input_degeneracy():
    rng = RngState(10)
    n, m = 8, 5
    x = np.sort(rng.generator.uniform(-2, 2, n))[:, None]
    y = np.sin(x)
    svgp = SVGPModel(
        SquaredExponential(1.0, 0.7),
        Gaussian(0.1),
        InducingPoints(np.linspace(-1.8, 1.8, m)[:, None]),
        VariationalGaussian(
            standard_normal(rng.derive(1), m),
            random_lower(rng.derive(2), m),
            whiten=True,
        ),
        num_data=n,
        jitter=1e-8,
    )
    uncertain = UncertainSVGP(svgp, x, np.full((n, 1), 1e-6), y)
    want = svgp.elbo((x, y), scale=1.0)
    values = [uncertain.elbo(RngState(s)) + uncertain.input_kl() for s in range(200)]
    gap = abs(float(np.mean(values)) - want)
    assert gap < 0.01, gap
    report(10, f"collapsed input posteriors reproduce the shallow bound (gap {gap:.1e})")


def test_11_end_to_end_training():
    started = time.perf_counter()
    x, y = desk_regression()

    def negative_marginal(theta):
        v, l, s = np.exp(theta)
        try:
            return -GPRModel(SquaredExponential(v, l), s, x, y).log_marginal()
        except Exception:
            return 1e10

    opt = minimize(negative_marginal, np.log([1.0, 0.8, 0.02]), method="Nelder-Mead")
    variance, lengthscale, noise = np.exp(opt.x)

    m = 10
    z = np.linspace(x.min(), x.max(), m)[:, None]
    kernel = SquaredExponential(variance, lengthscale)
    model = SVGPModel(
        kernel, Gaussian(noise), InducingPoints(z),
        VariationalGaussian(np.zeros(m), np.eye(m), whiten=True),
        num_data=30, jitter=1e-10,
    )
    best = optimal_q(model, x, y)
    target = SVGPModel(
        kernel, Gaussian(noise), InducingPoints(z), best,
        num_data=30, jitter=1e-10,
    ).elbo((x, y))

    store, _ = parameterize(model)
    frozen = tuple(name for name in store.names() if not name.startswith("q"))
    config = FitConfig(steps=2000, learning_rate=1e-2, seed=0, freeze=frozen)
    result = fit(model, (x, y), config)
    final = result.model.elbo((x, y))
    elapsed = time.perf_counter() - started
    gap = abs(target - final)
    assert gap < 0.5, gap
    assert elapsed < 60.0, elapsed
    report(
        11,
        f"2000-step fit within {gap:.3f} nats of the closed-form optimum "
        f"({elapsed:.1f} s)",
    )


def test_12_convolutional_sanity():
    from sparsegp import Convolutional

    rng = RngState(12)
    kernel = Convolutional(SquaredExponential(1.0, 1.5), (3, 3), (2, 2))
    x = standard_normal(rng, (4, 9))
    gram = k_full(kernel, x)
    patches = kernel.patches(x)
    worst = 0.0
    for i in range(4):
        for j in range(4):
            brute = sum(
                kernel.kernel.K(patches[i, a : a + 1], patches[j, b : b + 1])[0, 0]
                for a in range(4)
                for b in range(4)
            )
            worst = max(worst, abs(gram[i, j] - brute))
            assert abs(gram[i, j] - brute) < 1e-10

    constants = np.array([[1.0] * 9, [2.0] * 9, [1.0] * 9])
    cgram = k_full(kernel, constants)
    np.testing.assert_allclose(cgram[0], cgram[2], atol=1e-12)
    assert np.linalg.matrix_rank(cgram, tol=1e-10) == 2
    single = kernel.kernel.K(np.full((1, 4), 1.0), np.full((1, 4), 2.0))[0, 0]
    assert cgram[0, 1] == pytest.approx(16.0 * single, abs=1e-10)
    report(
        12,
        f"patch-sum Gram matches the brute-force double sum (err {worst:.1e}); "
        "constant images give rank-consistent rows",
    )
