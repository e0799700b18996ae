"""Exact q gradients against their slow twin, central differences.

Every registered pair of ``tests/test_conditionals.py``'s ``_paths``, in
both whitening modes, on homotopic and heterotopic rows and as a deep GP's
last layer: the chain through each likelihood's ∂E/∂(mean, var) and each
posterior's backward must agree with ``training._fd_coordinate`` on the q
slots, and on W where a latent set mixes with one.  Each likelihood's
∂E/∂(mean, var) is checked against differenced quadrature with more nodes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sparsegp
from sparsegp import (
    Bernoulli,
    CorrelatedGaussian,
    DGPModel,
    FitConfig,
    Gaussian,
    GPLayer,
    InducingPoints,
    IntrinsicCoregionalization,
    LinearCoregionalization,
    Matern32,
    Poisson,
    RngState,
    SharedIndependent,
    SharedIndependentInducingVariables,
    SquaredExponential,
    SVGPModel,
    VariationalGaussian,
    fit,
    gauss_hermite_expectations,
    parameterize,
    standard_normal,
    variational_expectations,
)
from sparsegp import conditionals, training
from sparsegp.conditionals import create_posterior
from sparsegp.likelihoods import expectation_gradients
from sparsegp.training import gradient

from conftest import random_lower
from test_conditionals import ALL_PATHS, _build_q, _paths
from test_posteriors import chunks_of

STEP = 1e-5  # differences on the moments themselves


def _assert_close(exact, fd, what):
    denom = np.maximum(np.abs(fd), 1e-3)
    rel = float(np.max(np.abs(exact - fd) / denom, initial=0.0))
    assert rel < 1e-4, (what, rel)


# ---------------------------------------------------------------------------
# Likelihoods


def _moments(seed, n, p, lik):
    rng = RngState(seed)
    mu = standard_normal(rng, (n, p))
    var = rng.generator.uniform(0.01, 2.0, (n, p))
    if isinstance(lik, Bernoulli):
        y = (rng.generator.uniform(size=(n, p)) < 0.5).astype(float)
    elif isinstance(lik, Poisson):
        y = rng.generator.integers(0, 5, (n, p)).astype(float)
    else:
        y = standard_normal(rng.derive(1), (n, p))
    return mu, var, y


@pytest.mark.parametrize(
    "lik", [Gaussian(0.3), Poisson(), Bernoulli()], ids=["gaussian", "poisson", "bernoulli"]
)
@pytest.mark.parametrize("seed", range(5))
def test_factorized_gradients_match_differenced_quadrature(lik, seed):
    # 60 nodes: the oracle's own quadrature error is far below the bound.
    mu, var, y = _moments(seed, 7, 3, lik)
    dmu, dvar = expectation_gradients(lik, mu, var, y)

    def quad(m, v):  # per (point, output): each output differenced alone
        return np.stack(
            [gauss_hermite_expectations(lik, m[:, [j]], v[:, [j]], y[:, [j]], 60)
             for j in range(m.shape[1])], axis=1,
        )

    fd_mu = (quad(mu + STEP, var) - quad(mu - STEP, var)) / (2 * STEP)
    fd_var = (quad(mu, var + STEP) - quad(mu, var - STEP)) / (2 * STEP)
    _assert_close(dmu, fd_mu, "mean")
    _assert_close(dvar, fd_var, "variance")


def test_bernoulli_gradients_hold_in_the_tails():
    lik = Bernoulli()
    mu = np.array([[-12.0], [-3.0], [0.0], [4.0], [15.0]])
    var = np.array([[0.5], [1e-8], [3.0], [0.1], [2.0]])
    y = np.array([[1.0], [1.0], [0.0], [0.0], [1.0]])
    dmu, dvar = expectation_gradients(lik, mu, var, y)
    assert np.all(np.isfinite(dmu)) and np.all(np.isfinite(dvar))

    def quad(m, v):
        return gauss_hermite_expectations(lik, m, v, y, 60)

    h = np.minimum(STEP, var / 2)  # the variance stays positive
    fd_mu = (quad(mu + h, var) - quad(mu - h, var))[:, None] / (2 * h)
    fd_var = (quad(mu, var + h) - quad(mu, var - h))[:, None] / (2 * h)
    _assert_close(dmu, fd_mu, "mean")
    _assert_close(dvar, fd_var, "variance")


@pytest.mark.parametrize("seed", range(3))
def test_correlated_gaussian_gradients_match_differences(seed):
    # The correlated expectation has no factorized quadrature; its closed
    # form is differenced instead, per mean entry and per covariance entry.
    rng = RngState(40 + seed)
    n, p = 4, 3
    a = standard_normal(rng, (p, p))
    lik = CorrelatedGaussian(a @ a.T + p * np.eye(p))
    mu = standard_normal(rng.derive(1), (n, p))
    y = standard_normal(rng.derive(2), (n, p))
    half = standard_normal(rng.derive(3), (n, p, p))
    cov = np.einsum("npq,nrq->npr", half, half)
    dmu, dcov = expectation_gradients(lik, mu, cov, y)

    def total(m, c):
        return float(np.sum(variational_expectations(lik, m, c, y)))

    for arg, exact in ((0, dmu), (1, dcov)):
        fd = np.zeros_like(exact)
        for idx in np.ndindex(exact.shape):
            args = [mu.copy(), cov.copy()]
            args[arg][idx] += STEP
            upper = total(*args)
            args[arg][idx] -= 2 * STEP
            fd[idx] = (upper - total(*args)) / (2 * STEP)
        _assert_close(exact, fd, arg)


# ---------------------------------------------------------------------------
# Pairs


LIKELIHOODS = ("gaussian", "poisson", "bernoulli", "correlated")


def _likelihood(name, p, rng):
    if name == "gaussian":
        return Gaussian(0.4)
    if name == "poisson":
        return Poisson()
    if name == "bernoulli":
        return Bernoulli()
    a = 0.3 * standard_normal(rng, (p, p))
    return CorrelatedGaussian(a @ a.T + 0.5 * np.eye(p))


def _targets(lik, shape, rng):
    if isinstance(lik, Bernoulli):
        return (rng.generator.uniform(size=shape) < 0.5).astype(float)
    if isinstance(lik, Poisson):
        return rng.generator.integers(0, 4, shape).astype(float)
    return standard_normal(rng, shape)


def _q_slots(model, prefix=""):
    """The slots the exact chain covers: q, and W of a mixing latent set."""
    gp = model.layers[-1] if isinstance(model, DGPModel) else model
    store, _ = parameterize(model)
    names = [n for n in store.names() if n.startswith(prefix + "q_")]
    latent_mix = isinstance(gp.kernel, LinearCoregionalization) and gp.layout.latent
    return sorted(names + ([prefix + "kernel.w"] if latent_mix else []))


def _check_against_differences(model, batch, slots, seed=0):
    """The model's exact gradients on ``slots`` against central differences
    of its objective on the same slots (the others frozen)."""
    store, build = parameterize(model)
    for name in store.names():
        store.set_trainable(name, name in slots)
    rng = lambda: RngState(seed).derive(1, 0)  # noqa: E731

    def objective(s):
        return -build(s).objective(batch, rng, 1.0)

    def exact(s):
        return {k: -g for k, g in build(s).objective_gradients(batch, rng, 1.0).items()}

    # Differences round off about 1e-11 of the objective per coordinate, so
    # a random q whose exp-link objective is astronomically large leaves
    # the oracle no digits on its small coordinates.
    assume(abs(objective(store)) < 1e4)
    assert sorted(exact(store)) == slots
    fd = gradient(objective, store)
    an = gradient(objective, store, exact)
    for name, lo, hi in store.spans():
        _assert_close(an[lo:hi], fd[lo:hi], name)


SHAPES = dict(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 6),
    m=st.integers(1, 3),
    p=st.integers(1, 3),
    lik=st.sampled_from(LIKELIHOODS),
)
# Kuu of random, possibly close inducing inputs, conditioned well enough
# that the exp link of a random q stays finite
JITTER = 1e-3


@pytest.mark.parametrize("name", ALL_PATHS)
@pytest.mark.parametrize("whiten", [False, True])
@settings(max_examples=5, deadline=None)
@given(heterotopic=st.booleans(), **SHAPES)
def test_svgp_q_gradients_match_differences(name, whiten, heterotopic, seed, n, m, p, lik):
    rng = RngState(seed)
    x, iv, kernel, q_builder, outputs = _paths(rng, n=n, m=m, p=p, images=n)[name]
    q = _build_q(name, iv, kernel, q_builder, whiten)
    likelihood = _likelihood(lik, outputs, rng.derive(5))
    model = SVGPModel(kernel, likelihood, iv, q, num_data=x.shape[0], jitter=JITTER)
    if heterotopic:
        observed = rng.generator.integers(0, outputs, x.shape[0])
        y = _targets(likelihood, (x.shape[0],), rng.derive(6))
        batch = (x, observed, y)
    else:
        batch = (x, _targets(likelihood, (x.shape[0], outputs), rng.derive(6)))
    _check_against_differences(model, batch, _q_slots(model))


@pytest.mark.parametrize("name", [n for n in ALL_PATHS if n != "conv"])
@pytest.mark.parametrize("whiten", [False, True])
@settings(max_examples=3, deadline=None)
@given(num_samples=st.integers(1, 2), **SHAPES)
def test_deep_gp_last_layer_q_gradients_match_differences(
    name, whiten, num_samples, seed, n, m, p, lik
):
    # The step's seed fixes the propagated inputs of the last layer.
    rng = RngState(seed)
    x, iv, kernel, q_builder, outputs = _paths(rng, n=n, m=m, p=p)[name]
    z = standard_normal(rng.derive(7), (3, 1))
    first = GPLayer(
        SquaredExponential(1.0, 0.9),
        InducingPoints(z),
        VariationalGaussian(
            standard_normal(rng.derive(8), 3), random_lower(rng.derive(9), 3), whiten
        ),
    )
    last = GPLayer(kernel, iv, _build_q(name, iv, kernel, q_builder, whiten))
    likelihood = _likelihood(lik, outputs, rng.derive(5))
    model = DGPModel([first, last], likelihood, n, num_samples, jitter=JITTER)
    y = _targets(likelihood, (n, outputs), rng.derive(6))
    _check_against_differences(model, (x, y), _q_slots(model, "layers.1."), seed)


@pytest.mark.parametrize("name", ALL_PATHS)
@pytest.mark.parametrize("whiten", [False, True])
@pytest.mark.parametrize("full_cov", [False, True])
@pytest.mark.parametrize("full_output_cov", [False, True])
def test_every_mode_pulls_back_to_q_and_w(name, whiten, full_cov, full_output_cov):
    # The pullback of Σ G_m·mean + Σ G_c·cov for random G, in every mode.
    rng = RngState(61)
    x, iv, kernel, q_builder, _ = _paths(rng)[name]
    q = _build_q(name, iv, kernel, q_builder, whiten)
    model = SVGPModel(kernel, Gaussian(1.0), iv, q, jitter=1e-6)
    mean, cov, _ = create_posterior(iv, kernel, q, 1e-6)._chunk_vjp(
        x, full_cov, full_output_cov
    )
    g_mean = standard_normal(rng.derive(1), mean.shape)
    g_cov = standard_normal(rng.derive(2), cov.shape)

    def objective(s):
        post = build(s).posterior
        m, c = post._chunk(x, full_cov, full_output_cov)
        return float(np.sum(g_mean * m) + np.sum(g_cov * c))

    store, build = parameterize(model)
    slots = _q_slots(model)
    for slot in store.names():
        store.set_trainable(slot, slot in slots)

    def exact(s):
        post = build(s).posterior
        grads = post._chunk_vjp(x, full_cov, full_output_cov)[2](g_mean, g_cov)
        out = {"q_mu": grads.q_mu}
        if isinstance(grads.q_sqrt, tuple):
            out.update({f"q_sqrt.{i}": b for i, b in enumerate(grads.q_sqrt)})
        else:
            out["q_sqrt"] = grads.q_sqrt
        if grads.w is not None:
            out["kernel.w"] = grads.w
        assert sorted(out) == slots
        return out

    fd = gradient(objective, store)
    an = gradient(objective, store, exact)
    for slot, lo, hi in store.spans():
        _assert_close(an[lo:hi], fd[lo:hi], slot)


def test_streamed_backward_sums_its_chunks():
    rng = RngState(62)
    x, iv, kernel, q_builder, _ = _paths(rng, n=37)["lmc"]
    q = _build_q("lmc", iv, kernel, q_builder, False)
    model = SVGPModel(kernel, Gaussian(0.5), iv, q, num_data=37)
    y = standard_normal(rng.derive(1), (37, 3))
    whole = model.objective_gradients((x, y), None, None)
    with chunks_of(8, model.posterior._row_floats()):
        streamed = SVGPModel(kernel, Gaussian(0.5), iv, q, num_data=37)
        parts = streamed.objective_gradients((x, y), None, None)
    assert sorted(parts) == sorted(whole)
    for name in whole:
        np.testing.assert_allclose(parts[name], whole[name], rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Latents that share one pair


def _shared_pair(kind, whiten):
    """Two latents over one shared set of 8 points and one latent kernel."""
    rng = RngState(63)
    base = SquaredExponential(1.0, 0.7)
    if kind == "imc":
        kernel = IntrinsicCoregionalization(base, standard_normal(rng, (3, 2)))
    else:
        kernel = SharedIndependent(base, 2)
    iv = SharedIndependentInducingVariables(InducingPoints(np.linspace(-2, 2, 8)[:, None]))
    q = VariationalGaussian(
        standard_normal(rng.derive(1), 16),
        tuple(random_lower(rng.derive(2 + i), 8) for i in range(2)),
        whiten,
    )
    return SVGPModel(kernel, Gaussian(0.2), iv, q, num_data=40, jitter=1e-6)


@pytest.mark.parametrize("kind", ["imc", "shared_independent"])
@pytest.mark.parametrize("whiten", [False, True])
def test_latents_sharing_a_pair_evaluate_kuf_once_per_chunk(monkeypatch, kind, whiten):
    model = _shared_pair(kind, whiten)
    x = np.linspace(-3.0, 3.0, 40)[:, None]
    y = np.sin(x) @ np.ones((1, model.num_outputs))
    calls = []
    original = conditionals.kuf

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(conditionals, "kuf", counting)
    with chunks_of(16, model.posterior._row_floats()):
        got = model.predict_f(x)
        assert len(calls) == 3  # 16 + 16 + 8 rows
        elbo = model.elbo((x, y))
        assert len(calls) == 6
        model.objective_gradients((x, y), None, None)
        assert len(calls) == 9

        # The same numbers as each latent on its own, mixed by the kernel.
        own = [post.predict(x) for post in model.posterior.latents]
        mean = np.concatenate([m.mean for m in own], axis=1)
        var = np.concatenate([m.cov for m in own], axis=1)
    want_mean, want_var = model.kernel.mix_mean(mean), model.kernel.mix(var, False, False)
    np.testing.assert_array_equal(got.mean, want_mean)
    np.testing.assert_array_equal(got.cov, want_var)
    ve = variational_expectations(model.likelihood, want_mean, want_var, y)
    assert elbo == float(np.sum(ve)) - model.prior_kl()


# ---------------------------------------------------------------------------
# Training


def test_fit_step_differences_only_the_slots_without_a_backward(monkeypatch):
    # A hetero_lmc-shaped model: every q and W coordinate is exact, so one
    # step's gradient makes two objective calls per remaining coordinate.
    rng = RngState(64)
    n = 30
    kernel = LinearCoregionalization(
        [SquaredExponential(1.0, 1.0), Matern32(1.0, 1.0)],
        np.array([[1.0, 0.0], [0.5, 0.5], [0.2, 0.8]]),
    )
    z = np.linspace(0.3, 5.7, 4)[:, None]
    iv = SharedIndependentInducingVariables(InducingPoints(z))
    q = VariationalGaussian(np.zeros(8), (np.eye(4), np.eye(4)), whiten=False)
    model = SVGPModel(kernel, Gaussian(0.1), iv, q, num_data=n)
    x = rng.generator.uniform(0.0, 6.0, (n, 1))
    outputs = rng.generator.integers(0, 3, n)
    y = standard_normal(rng.derive(1), n)

    store, _ = parameterize(model)
    exact_slots = set(_q_slots(model))
    others = sum(hi - lo for name, lo, hi in store.spans() if name not in exact_slots)
    assert others == 4 + 4 + 1  # kernels 4, Z 4, noise 1

    inside, calls = [False], []
    real_gradient, real_elbo = training.gradient, SVGPModel.elbo_heterotopic

    def traced_gradient(*args):
        inside[0] = True
        try:
            return real_gradient(*args)
        finally:
            inside[0] = False

    def counted_elbo(self, *args):
        calls.append(inside[0])
        return real_elbo(self, *args)

    monkeypatch.setattr(training, "gradient", traced_gradient)
    monkeypatch.setattr(SVGPModel, "elbo_heterotopic", counted_elbo)
    fit(model, (x, outputs, y), FitConfig(steps=1, learning_rate=0.01))
    assert sum(calls) == 2 * others
    assert len(calls) == 2 * others + 1  # and the step's trace value


def test_exact_gradients_are_evaluated_inside_gradient():
    store = sparsegp.ParameterStore()
    store.add("a", np.array([1.0, 2.0]))
    seen = []

    def exact(s):
        seen.append(s.get("a").copy())
        return {"a": 2.0 * s.get("a")}

    grad = gradient(lambda s: float(s.get("a") @ s.get("a")), store, exact)
    np.testing.assert_array_equal(grad, [2.0, 4.0])
    assert len(seen) == 1 and np.array_equal(seen[0], [1.0, 2.0])
