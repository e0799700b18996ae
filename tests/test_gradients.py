"""Exact gradients against their slow twin, central differences.

Every registered pair of ``tests/test_conditionals.py``'s ``_paths``, in
both whitening modes, on homotopic and heterotopic rows and as a deep GP's
last layer: the chain through each likelihood's ∂E/∂(mean, var) and each
posterior's backward must agree with the derivatives of the objective
(Ridders' tableau of central differences) on every slot it covers
(``_exact_slots``): q, W where a latent set mixes with one, Z and the
kernel's where the pair is points with a stationary kernel, also as a
latent set's member with its latent kernel (and through them, a deep GP's
layers below), a Gaussian likelihood's variance and, on homotopic rows, a
correlated Gaussian's covariance.  The exact GP's kernel and noise are
checked the same way.  Each likelihood's ∂E/∂(mean, var) is checked
against differenced quadrature with more nodes.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sparsegp
from sparsegp import (
    Bernoulli,
    CorrelatedGaussian,
    DGPModel,
    FitConfig,
    Gaussian,
    GPLayer,
    GPRModel,
    InducingPoints,
    IntrinsicCoregionalization,
    LinearCoregionalization,
    Matern12,
    Matern32,
    Matern52,
    Multiscale,
    Poisson,
    RngState,
    SharedIndependent,
    SeparateIndependent,
    SeparateIndependentInducingVariables,
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
from sparsegp.conditionals import SingleOutputPosterior, UnwindowedMultiscale, create_posterior
from sparsegp.covariances import PAIRS
from sparsegp.kernels import Stationary, k_full
from sparsegp.models import Constant
from sparsegp.likelihoods import expectation_gradients
from sparsegp.modelio import load_model
from sparsegp.numerics import allocation_probe
from sparsegp.training import gradient

from conftest import random_lower
from test_conditionals import ALL_PATHS, _build_q, _paths
from test_formats import CASES, golden_path
from test_posteriors import chunks_of

STEP = 1e-5  # differences on the moments themselves
# An exact gradient must match its differences to GATE, relative to the
# differences' magnitude or to FLOOR where they are smaller.
GATE, FLOOR = 1e-4, 1e-3
# The differences' own error estimate may be at most a tenth of that.
ORACLE_ERROR = GATE / 10
# Ridders' tableau: its first step (times 1 + |coordinate|), the factor each
# row shrinks the step by, and its most rows.
RIDDERS_STEP, RIDDERS_SHRINK, RIDDERS_ROWS = 1e-3, 2.0, 10


def _assert_close(exact, fd, what):
    denom = np.maximum(np.abs(fd), FLOOR)
    rel = float(np.max(np.abs(exact - fd) / denom, initial=0.0))
    assert rel < GATE, (what, rel)


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
    values, dmu, dvar = expectation_gradients(lik, mu, var, y)
    assert values.tobytes() == variational_expectations(lik, mu, var, y).tobytes()

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
    _, dmu, dvar = expectation_gradients(lik, mu, var, y)
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
    values, dmu, dcov = expectation_gradients(lik, mu, cov, y)
    assert values.tobytes() == variational_expectations(lik, mu, cov, y).tobytes()

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
    """The slots every pair's backward covers: q, and W of a mixing latent set."""
    gp = model.layers[-1] if isinstance(model, DGPModel) else model
    store, _ = parameterize(model)
    names = [n for n in store.names() if n.startswith(prefix + "q_")]
    latent_mix = isinstance(gp.kernel, LinearCoregionalization) and gp.layout.latent
    return sorted(names + ([prefix + "kernel.w"] if latent_mix else []))


def _pair_slots(gp):
    """((Z's slot prefix, the kernel's), whether the pair is points with a
    stationary kernel) of each pair of a GP layer: its own, or under a
    latent set each latent's (member, latent kernel) pair, at the prefixes
    of the set's and the kernel's declarations."""
    iv, kernel = gp.inducing, gp.kernel

    def exact(member, k):
        return type(member) is InducingPoints and isinstance(k, Stationary)

    if not gp.layout.latent:
        return [(("inducing.", "kernel."), exact(iv, kernel))]
    shared_set = isinstance(iv, SharedIndependentInducingVariables)
    shared_kernel = isinstance(kernel, (SharedIndependent, IntrinsicCoregionalization))
    members = iv.per_latent(len(kernel.latent_kernels))
    pairs = []
    for i, (member, k) in enumerate(zip(members, kernel.latent_kernels)):
        where = "inducing.base." if shared_set else f"inducing.members.{i}."
        which = "kernel.base." if shared_kernel else f"kernel.latents.{i}."
        pairs.append(((where, which), exact(member, k)))
    return pairs


def _exact_slots(model, heterotopic=False):
    """The slots the exact chain covers: each layer's q slots (and W), its
    Constant mean's value and the Z and kernel slots of its pairs that are
    points with a stationary kernel, but for those that a pair without
    them reaches too, from the last layer down to the first that has such
    a pair or whose outputs correlate; a Gaussian likelihood's variance,
    and on homotopic rows a correlated Gaussian's covariance."""
    store, _ = parameterize(model)
    names = store.names()
    if isinstance(model, DGPModel):
        layers = [(f"layers.{i}.", gp) for i, gp in enumerate(model.layers)][::-1]
    else:
        layers = [("", model)]
    covered = []
    for j, (prefix, gp) in enumerate(layers):
        mixing = isinstance(gp.kernel, LinearCoregionalization) and gp.layout.latent
        correlated = gp.layout.outputs > 1 and (mixing or not gp.layout.latent)
        if j and correlated:  # a hidden state drawn with correlated outputs
            break
        covered += [n for n in names if n.startswith(prefix + "q_") or n == prefix + "mean.value"]
        if mixing:
            covered.append(prefix + "kernel.w")
        pairs = _pair_slots(gp)
        gaps = tuple(prefix + p for where, exact in pairs if not exact for p in where)
        reached = tuple(prefix + p for where, exact in pairs if exact for p in where)
        covered += [n for n in names if n.startswith(reached) and not n.startswith(gaps)]
        if gaps:
            break
    if isinstance(model.likelihood, Gaussian):
        covered.append("likelihood.variance")
    elif isinstance(model.likelihood, CorrelatedGaussian) and not heterotopic:
        covered.append("likelihood.cov_sqrt")
    return sorted(covered)


def _check_against_differences(
    model, batch, slots, seed=0, screen=assume, step=RIDDERS_STEP
):
    """The model's exact gradients on ``slots`` against the derivatives of
    its objective on the same slots (the others frozen), each taken by
    Ridders' method from ``step``, with an error estimate that must stay
    within :data:`ORACLE_ERROR`, else the oracle fails.  ``screen``
    (hypothesis's ``assume`` in a property) drops the cases where the
    differences have no digits to compare; a fixed case passes
    ``assert``."""
    store, build = parameterize(model)
    for name in store.names():
        store.set_trainable(name, name in slots)
    rng = lambda: RngState(seed).derive(1, 0)  # noqa: E731

    def objective(s):
        return -build(s).objective(batch, rng, 1.0)

    def exact(s):
        _, grads = build(s).objective_gradients(batch, rng, 1.0)
        return {k: -g for k, g in grads.items()}

    # Differences round off about 1e-16 / step of the objective per
    # coordinate, so a random q whose exp-link objective is astronomically
    # large, or overflows, leaves the oracle no digits on its small
    # coordinates.
    with np.errstate(over="ignore", invalid="ignore"):
        screen(abs(objective(store)) < 1e4)
    assert sorted(exact(store)) == slots
    fd, err = _ridders_gradient(objective, store, step)
    an = gradient(objective, store, exact)
    for name, lo, hi in store.spans():
        if name.endswith("inducing.z") and not _spaced(store.get(name)):
            continue
        bound = ORACLE_ERROR * np.maximum(np.abs(fd[lo:hi]), FLOOR)
        assert np.all(err[lo:hi] <= bound), ("oracle", name, err[lo:hi], bound)
        _assert_close(an[lo:hi], fd[lo:hi], name)


def _ridders(f, h):
    """The derivative of ``f`` at 0 and an estimate of its error, by
    Ridders' method (Ridders 1982, "Accurate computation of F'(x) and
    F'(x)F''(x)"; Numerical Recipes 3rd ed. §5.7): central differences at
    steps h, h / RIDDERS_SHRINK, ..., each row of the tableau extrapolating
    them further toward step 0 (Richardson).  An entry's estimate is the
    larger change from its two parents, and the entry with the smallest
    one is returned, once that is within :data:`ORACLE_ERROR` of the
    derivative (or of FLOOR), or after :data:`RIDDERS_ROWS` rows."""
    shrink2 = RIDDERS_SHRINK**2
    prev = [(f(h) - f(-h)) / (2.0 * h)]
    best, err = prev[0], np.inf
    for _ in range(1, RIDDERS_ROWS):
        h /= RIDDERS_SHRINK
        row = [(f(h) - f(-h)) / (2.0 * h)]
        fac = shrink2
        for j in range(1, len(prev) + 1):
            row.append((row[j - 1] * fac - prev[j - 1]) / (fac - 1.0))
            fac *= shrink2
            change = max(abs(row[j] - row[j - 1]), abs(row[j] - prev[j - 1]))
            if change <= err:
                best, err = row[j], change
        if err <= ORACLE_ERROR * max(abs(best), FLOOR):
            break
        prev = row
    return best, err


def _ridders_gradient(objective, store, step):
    """Ridders' derivative of ``objective`` along each trainable free
    coordinate of ``store``, from ``step`` times 1 + |coordinate|, and the
    error estimate of each."""
    free = store.free_vector()
    grad, err = np.zeros_like(free), np.zeros_like(free)

    def along(i):
        def f(t):
            moved = free.copy()
            moved[i] += t
            store.set_free_vector(moved)
            value = objective(store)
            assert np.isfinite(value), ("objective is not finite near coordinate", i)
            return value

        return f

    try:
        for i in range(free.size):
            grad[i], err[i] = _ridders(along(i), step * (1.0 + abs(free[i])))
    finally:
        store.set_free_vector(free)
    return grad, err


def _spaced(z, gap=1e-2):
    """Whether inducing inputs are ``gap`` apart: closer ones curve the
    objective so sharply in Z that the differences' truncation error
    exceeds the bound, so their Z is not compared."""
    dist = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=-1)
    return bool(np.min(dist + gap * np.eye(z.shape[0])) >= gap)


def _screen(condition):
    """``_check_against_differences``'s screen for a fixed case."""
    assert condition


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
    _check_against_differences(model, batch, _exact_slots(model, heterotopic))


@pytest.mark.parametrize("name", [n for n in ALL_PATHS if n != "conv"])
@pytest.mark.parametrize("whiten", [False, True])
@settings(max_examples=3, deadline=None)
@given(num_samples=st.integers(1, 2), **SHAPES)
def test_deep_gp_last_layer_q_gradients_match_differences(
    name, whiten, num_samples, seed, n, m, p, lik
):
    # The step's seed fixes the propagated inputs of the last layer; the
    # first layer's slots are exact through them where the last layer's
    # pair has an input VJP.
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
    _check_against_differences(model, (x, y), _exact_slots(model), seed)


@pytest.mark.parametrize("whiten", [False, True])
@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("num_samples", [1, 3])
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 6),
    m=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(range(4)), min_size=3, max_size=3),
    means=st.lists(st.booleans(), min_size=3, max_size=3),
    lik=st.sampled_from(LIKELIHOODS[:3]),
)
# Two inducing inputs 0.024 apart: central differences at a fixed step of
# 1e-5 were off by 4.28e-4 relative in the first layer's Z.
@example(seed=62, n=1, m=3, kinds=[0, 0, 0], means=[False] * 3, lik="gaussian")
def test_deep_gp_gradients_through_every_layer_match_differences(
    whiten, depth, num_samples, seed, n, m, kinds, means, lik
):
    # Layers of points with stationary kernels, some with a Constant mean:
    # every layer's slots are exact, through the sampled hidden states.
    rng = RngState(seed)
    stationary = [SquaredExponential, Matern12, Matern32, Matern52]
    layers = []
    for i in range(depth):
        q = VariationalGaussian(
            standard_normal(rng.derive(i, 1), m), random_lower(rng.derive(i, 2), m), whiten
        )
        kernel = stationary[kinds[i]](float(rng.generator.uniform(0.5, 1.5)), 0.9)
        mean = Constant(float(standard_normal(rng.derive(i, 3), 1)[0])) if means[i] else None
        z = standard_normal(rng.derive(i, 4), (m, 1))
        layers.append(GPLayer(kernel, InducingPoints(z), q, mean))
    likelihood = _likelihood(lik, 1, rng.derive(5))
    model = DGPModel(layers, likelihood, n, num_samples, jitter=JITTER)
    x = standard_normal(rng.derive(6), (n, 1))
    y = _targets(likelihood, (n, 1), rng.derive(7))
    # A difference step moves the hidden states by up to a few times its
    # size; where one crosses Matérn-1/2's kink at an inducing input of the
    # layer it feeds, the differences are not the derivative.
    draws, record = RngState(seed).derive(1, 0), []
    last = np.concatenate([model.propagate(x, draws, None, record) for _ in range(num_samples)])
    hidden = [np.concatenate([r[0] for r in record[i::depth - 1]]) for i in range(1, depth - 1)]
    for layer, inputs in zip(layers, [x, *hidden, last]):
        if isinstance(layer.kernel, Matern12):
            assume(np.min(np.abs(inputs - layer.inducing.z.T)) > 1e-2)
    slots = _exact_slots(model)
    assert all(f"layers.{i}.q_mu" in slots for i in range(depth))
    _check_against_differences(model, (x, y), slots, seed)


@pytest.mark.parametrize("whiten", [False, True])
@pytest.mark.parametrize("heterotopic", [False, True])
def test_constant_mean_value_gradient_matches_differences(whiten, heterotopic):
    # The sum of the data term's mean gradient, on homotopic rows and on
    # heterotopic rows of a latent set, whose other slots are exact too.
    rng = RngState(70)
    n = 7
    x = standard_normal(rng, (n, 1))
    if heterotopic:
        _, iv, kernel, q_builder, outputs = _paths(rng, n=n)["lmc"]
        q = _build_q("lmc", iv, kernel, q_builder, whiten)
        observed = rng.generator.integers(0, outputs, n)
        batch = (x, observed, standard_normal(rng.derive(1), n))
    else:
        iv, kernel = InducingPoints(standard_normal(rng.derive(2), (3, 1))), Matern52(1.1, 0.8)
        q = VariationalGaussian(
            standard_normal(rng.derive(3), 3), random_lower(rng.derive(4), 3), whiten
        )
        batch = (x, standard_normal(rng.derive(1), (n, 1)))
    model = SVGPModel(kernel, Gaussian(0.3), iv, q, Constant(0.4), num_data=n, jitter=JITTER)
    slots = _exact_slots(model)
    assert "mean.value" in slots
    _check_against_differences(model, batch, slots, screen=_screen)


def _row_marginals(cov, full_output_cov):
    # The marginal-mode covariance on the row diagonal of a full_cov one:
    # [P, N, N] -> [N, P], or [N, P, N, P] -> [N, P, P].
    if full_output_cov:
        return np.einsum("npnq->npq", cov)
    return np.diagonal(cov, axis1=1, axis2=2).T


@pytest.mark.parametrize("name", ALL_PATHS)
@pytest.mark.parametrize("whiten", [False, True])
@pytest.mark.parametrize("full_cov", [False, True])
@pytest.mark.parametrize("full_output_cov", [False, True])
def test_every_mode_pulls_back_to_q_and_w(name, whiten, full_cov, full_output_cov):
    # The pullback of Σ G_m·mean + Σ G_c·cov for random G in the marginal
    # modes, the ones the backward streams. With full_cov the differences run
    # through the full-covariance forward, read on its row diagonal: the
    # marginal pullback must be its exact gradient there too.
    rng = RngState(61)
    x, iv, kernel, q_builder, _ = _paths(rng)[name]
    q = _build_q(name, iv, kernel, q_builder, whiten)
    model = SVGPModel(kernel, Gaussian(1.0), iv, q, jitter=1e-6)
    post = create_posterior(iv, kernel, q, 1e-6)
    mean, cov, _ = post._chunk_vjp(x, full_output_cov)
    g_mean = standard_normal(rng.derive(1), mean.shape)
    g_cov = standard_normal(rng.derive(2), cov.shape)
    if full_cov:
        full_mean, full = post._chunk(x, True, full_output_cov)
        np.testing.assert_allclose(full_mean, mean, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(
            _row_marginals(full, full_output_cov), cov, rtol=1e-10, atol=1e-12
        )

    def objective(s):
        post = build(s).posterior
        m, c = post._chunk(x, full_cov, full_output_cov)
        if full_cov:
            c = _row_marginals(c, full_output_cov)
        return float(np.sum(g_mean * m) + np.sum(g_cov * c))

    store, build = parameterize(model)
    slots = _q_slots(model)
    for slot in store.names():
        store.set_trainable(slot, slot in slots)

    def exact(s):
        grads = build(s).posterior._chunk_vjp(x, full_output_cov)[2](g_mean, g_cov)
        assert sorted(grads) == slots
        return grads

    fd = gradient(objective, store)
    an = gradient(objective, store, exact)
    for slot, lo, hi in store.spans():
        _assert_close(an[lo:hi], fd[lo:hi], slot)


def test_every_registered_pair_has_its_pullback_checked():
    # Each registered class but the refusal is the class of some case of
    # ALL_PATHS, so that a new pair cannot ship with its pullback untested.
    paths = _paths(RngState(0))
    checked = {PAIRS.resolve(type(paths[name][1]), type(paths[name][2])) for name in ALL_PATHS}
    assert set(PAIRS._table.values()) - {UnwindowedMultiscale} <= checked


def test_streamed_backward_sums_its_chunks():
    rng = RngState(62)
    x, iv, kernel, q_builder, _ = _paths(rng, n=37)["lmc"]
    q = _build_q("lmc", iv, kernel, q_builder, False)
    model = SVGPModel(kernel, Gaussian(0.5), iv, q, num_data=37)
    y = standard_normal(rng.derive(1), (37, 3))
    _, whole = model.objective_gradients((x, y), None, None)
    with chunks_of(8, model.posterior._row_floats()):
        streamed = SVGPModel(kernel, Gaussian(0.5), iv, q, num_data=37)
        _, parts = streamed.objective_gradients((x, y), None, None)
    assert sorted(parts) == sorted(whole)
    for name in whole:
        np.testing.assert_allclose(parts[name], whole[name], rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Coincident inputs
#
# One input column, where the kernels' r² is exactly 0 on coincident pairs.
# At r = 0 Matérn-1/2 has a kink, whose central difference is 0 by symmetry;
# the exact gradients must take that value there, not NaN.

STATIONARY = [SquaredExponential, Matern12, Matern32, Matern52]


def _coincident(kind, whiten):
    """An SVGP whose third training row is its second inducing input."""
    rng = RngState(68)
    z = np.array([[-1.0], [0.3], [1.4]])
    x = np.array([[-2.0], [-0.4], [0.3], [0.9], [2.1]])
    q = VariationalGaussian(standard_normal(rng, 3), random_lower(rng.derive(1), 3), whiten)
    model = SVGPModel(
        kind(1.3, 0.9), Gaussian(0.2), InducingPoints(z), q, num_data=5, jitter=1e-6
    )
    return model, x, standard_normal(rng.derive(2), (5, 1))


@pytest.mark.parametrize("kind", STATIONARY)
def test_kernel_vjp_at_zero_distance_is_the_central_difference(kind):
    k = kind(1.3, 0.9)
    x = np.array([[0.3]])
    dx, dx2, params = k.K_vjp(x, x, np.ones((1, 1)))
    h = 1e-6
    central = (k.K(x + h, x) - k.K(x - h, x))[0, 0] / (2 * h)
    assert dx[0, 0] == dx2[0, 0] == central == 0.0
    assert params["variance"] == 1.0 and params["lengthscales"][0] == 0.0


@pytest.mark.parametrize("kind", STATIONARY)
@pytest.mark.parametrize("whiten", [False, True])
def test_coincident_inputs_give_finite_exact_gradients(kind, whiten):
    # Z, the kernel's slots and every other exact slot, through Kuu's own
    # diagonal and a Kuf entry at r = 0.  At Matérn-1/2's kink the central
    # difference is first-order accurate only (its error in Z is 1.9e-4
    # relative at a step of 1e-5, proportional to the step), which the
    # tableau's even-order extrapolation does not remove, so it starts at
    # 1e-5 and shrinks the step instead.
    model, x, y = _coincident(kind, whiten)
    _, grads = model.objective_gradients((x, y), None, 1.0)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    assert {"inducing.z", "kernel.variance", "kernel.lengthscales"} <= set(grads)
    slots = _exact_slots(model)
    _check_against_differences(model, (x, y), slots, screen=_screen, step=1e-5)


@pytest.mark.parametrize("kind", STATIONARY)
@pytest.mark.parametrize("whiten", [False, True])
def test_coincident_inputs_give_finite_input_gradients(kind, whiten):
    # The gradient with respect to the rows, for fixed gradients of the
    # marginal moments, against central differences of those rows.
    model, x, _ = _coincident(kind, whiten)
    post = model.posterior
    rng = RngState(69)
    g_mean, g_var = standard_normal(rng, (5, 1)), standard_normal(rng.derive(1), (5, 1))
    _, inputs, _ = post.backward(x, lambda rows, mean, cov: (g_mean[rows], g_var[rows]))
    assert np.all(np.isfinite(inputs))

    def objective(rows):
        moments = post.predict(rows)
        return float(np.sum(g_mean * moments.mean) + np.sum(g_var * moments.cov))

    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        h = training.FD_STEP * (1.0 + abs(x[i, 0]))
        up, down = x.copy(), x.copy()
        up[i, 0] += h
        down[i, 0] -= h
        fd[i, 0] = (objective(up) - objective(down)) / (2.0 * h)
    _assert_close(inputs, fd, "inputs")


# ---------------------------------------------------------------------------
# A third-party pair: whether its backward reaches Z and the kernel follows
# from its class


class DoubledPoints(InducingPoints):
    """Test-only inducing points whose covariances are twice the kernel's."""


class DoubledPosterior(SingleOutputPosterior):
    """The pair as the README extends one: its own kuu and kuf, no VJPs."""

    @classmethod
    def kuu(cls, iv, kernel):
        return 2.0 * k_full(kernel, iv.z)

    @classmethod
    def kuf(cls, iv, kernel, xnew):
        return 2.0 * k_full(kernel, iv.z, xnew)


class DoubledPosteriorWithVJPs(SingleOutputPosterior):
    """The same pair with the VJPs of its covariances beside them."""

    @classmethod
    def kuu(cls, iv, kernel):
        return 2.0 * k_full(kernel, iv.z)

    @classmethod
    def kuu_vjp(cls, iv, kernel, dkuu):
        return super().kuu_vjp(iv, kernel, 2.0 * dkuu)

    @classmethod
    def kuf(cls, iv, kernel, xnew):
        return 2.0 * k_full(kernel, iv.z, xnew)

    @classmethod
    def kuf_vjp(cls, iv, kernel, xnew, dkuf):
        return super().kuf_vjp(iv, kernel, xnew, 2.0 * dkuf)


@contextlib.contextmanager
def _doubled_svgp(posterior):
    """An unwhitened SE SVGP on 40 rows and 5 doubled points, with the pair
    registered as ``posterior`` while it is in use."""
    PAIRS.register(DoubledPoints, SquaredExponential, posterior)
    try:
        rng = RngState(73)
        x = np.linspace(0.0, 6.0, 40)[:, None]
        y = np.sin(x) + 0.1 * standard_normal(rng, (40, 1))
        q = VariationalGaussian(
            0.3 * standard_normal(rng.derive(1), 5), random_lower(rng.derive(2), 5), False
        )
        iv = DoubledPoints(np.linspace(0.5, 5.5, 5)[:, None])
        model = SVGPModel(SquaredExponential(1.2, 0.9), Gaussian(0.1), iv, q, num_data=40)
        assert type(model.posterior) is posterior
        yield model, x, y
    finally:
        del PAIRS._table[(DoubledPoints, SquaredExponential)]
        PAIRS._cache.clear()


def test_a_pair_without_the_vjps_of_its_covariances_leaves_z_and_the_kernel_to_differences():
    with _doubled_svgp(DoubledPosterior) as (model, x, y):
        assert not model.posterior.input_vjp
        _, grads = model.objective_gradients((x, y), None, 1.0)
        assert {"q_mu", "q_sqrt", "likelihood.variance"} <= set(grads)
        assert not [k for k in grads if k.startswith(("inducing.", "kernel."))]


def test_a_pair_with_the_vjps_of_its_covariances_trains_z_and_the_kernel_exactly():
    with _doubled_svgp(DoubledPosteriorWithVJPs) as (model, x, y):
        assert model.posterior.input_vjp
        slots = sorted(
            ["q_mu", "q_sqrt", "likelihood.variance", "inducing.z"]
            + ["kernel.variance", "kernel.lengthscales"]
        )
        _check_against_differences(model, (x, y), slots, screen=_screen)


# ---------------------------------------------------------------------------
# Exact GP regression


@pytest.mark.parametrize("kind", STATIONARY)
@pytest.mark.parametrize("dim", [1, 2])
def test_gpr_gradients_match_differences(kind, dim):
    # The kernel's slots and the noise through the factor of Kff + noise I;
    # at D = 2 Kff's diagonal is exact only because r² is 0 there.
    rng = RngState(71 + dim)
    x = standard_normal(rng, (9, dim))
    y = np.sin(x.sum(axis=1, keepdims=True)) + 0.3 * standard_normal(rng.derive(1), (9, 1))
    model = GPRModel(kind(1.2, [0.8, 1.3][:dim]), 0.05, x, y)
    slots = ["kernel.lengthscales", "kernel.variance", "likelihood.variance"]
    _check_against_differences(model, (x, y), slots, screen=_screen)


# ---------------------------------------------------------------------------
# Latents that share one pair


def _shared_pair(kind, whiten):
    """Two latents over one shared set of 8 points and one latent kernel
    (for ``lmc``, a kernel per latent)."""
    rng = RngState(63)
    base = SquaredExponential(1.0, 0.7)
    if kind == "imc":
        kernel = IntrinsicCoregionalization(base, standard_normal(rng, (3, 2)))
    elif kind == "lmc":
        kernel = LinearCoregionalization([base, Matern32(0.8, 1.1)], standard_normal(rng, (3, 2)))
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
    # The ELBO sums its data term chunk by chunk, as the backward does.
    chunks = (slice(0, 16), slice(16, 32), slice(32, 40))
    assert elbo == sum(float(np.sum(ve[rows])) for rows in chunks) - model.posterior.kl()


@pytest.mark.parametrize("kind", ["imc", "shared_independent", "lmc"])
@pytest.mark.parametrize("whiten", [False, True])
def test_latents_sharing_a_pair_run_its_vjps_once(monkeypatch, kind, whiten):
    # One Kuf K_vjp per chunk and one Kuu K_vjp and Cholesky backward per
    # factor, whatever the number of latents holding the pair: imc and
    # shared_independent have one pair of two latents, lmc two pairs.
    model = _shared_pair(kind, whiten)
    pairs = len(model.posterior.groups)
    assert pairs == (2 if kind == "lmc" else 1)
    x = np.linspace(-3.0, 3.0, 40)[:, None]
    y = np.sin(x) @ np.ones((1, model.num_outputs))
    grams, factors = [], []
    real_k_vjp, real_cholesky_vjp = Stationary.K_vjp, conditionals.cholesky_vjp

    def counted_k_vjp(self, a, b, dk):
        grams.append(dk.shape)
        return real_k_vjp(self, a, b, dk)

    def counted_cholesky_vjp(*args):
        factors.append(1)
        return real_cholesky_vjp(*args)

    monkeypatch.setattr(Stationary, "K_vjp", counted_k_vjp)
    monkeypatch.setattr(conditionals, "cholesky_vjp", counted_cholesky_vjp)
    with chunks_of(16, model.posterior._row_floats()):
        _, grads = model.objective_gradients((x, y), None, None)
    assert "inducing.base.z" in grads
    assert sorted(grams) == sorted([(8, 16), (8, 16), (8, 8), (8, 8)] * pairs)
    assert len(factors) == pairs


def test_the_latent_backward_allocates_nothing_of_stacked_output_size():
    # Acceptance test 03's rule, on the backward of its LMC: a correlated
    # likelihood pulls full output covariances back through mix_adjoint,
    # and no array of output count times inducing size per side appears.
    rng = RngState(40)
    m, n, p, l = 4, 6, 3, 2
    x = standard_normal(rng, (n, 1))
    w = standard_normal(rng.derive(2), (p, l))
    kernel = LinearCoregionalization([SquaredExponential(1.0, 0.6), Matern32(0.8, 1.1)], w)
    z = standard_normal(rng.derive(1), (m, 1))
    iv = SharedIndependentInducingVariables(InducingPoints(z))
    q = VariationalGaussian(
        standard_normal(rng.derive(3), m * l),
        tuple(random_lower(rng.derive(4 + i), m) for i in range(l)),
        whiten=False,
    )
    lik = CorrelatedGaussian(0.3 * np.eye(p) + 0.1)
    model = SVGPModel(kernel, lik, iv, q, num_data=n, jitter=1e-6)
    y = standard_normal(rng.derive(5), (n, p))
    with allocation_probe() as forward:
        model.objective((x, y), None, 1.0)
    with allocation_probe() as shapes:
        _, grads = model.objective_gradients((x, y), None, 1.0)
    assert {"inducing.base.z", "kernel.latents.1.lengthscales"} <= set(grads)
    assert len(shapes) > len(forward)  # the backward's own arrays are seen
    assert max(max(s) for s in shapes) <= max(m * l, n * p), shapes
    assert not any(sum(d >= m * p for d in shape) >= 2 for shape in shapes), shapes


# ---------------------------------------------------------------------------
# Latent inducing sets: Z and the latent kernels through each member's pair


def _latent_set(kind, rng):
    """(kernel, inducing set, outputs) of a latent set over one column."""
    z = np.linspace(-2.0, 2.0, 5)[:, None]
    w = standard_normal(rng, (3, 2))
    points, other = InducingPoints(z), InducingPoints(np.linspace(-1.7, 1.9, 4)[:, None])
    shared = SharedIndependentInducingVariables(points)
    if kind == "lmc/shared":
        kernel = LinearCoregionalization([SquaredExponential(1.0, 0.7), Matern32(0.8, 1.1)], w)
        return kernel, shared, 3
    if kind == "imc/shared":
        return IntrinsicCoregionalization(SquaredExponential(1.0, 0.8), w), shared, 3
    if kind == "imc/separate":
        separate = SeparateIndependentInducingVariables([points, other])
        return IntrinsicCoregionalization(Matern52(1.1, 0.9), w), separate, 3
    if kind == "shared_independent/shared":
        return SharedIndependent(SquaredExponential(0.9, 0.8), 2), shared, 2
    windows = Multiscale(z, np.full((5, 1), 0.3))  # the member without VJPs
    separate = SeparateIndependentInducingVariables([windows, other])
    if kind == "imc/separate+multiscale":  # its pair reaches the shared kernel too
        return IntrinsicCoregionalization(SquaredExponential(1.0, 0.8), w), separate, 3
    return SeparateIndependent([SquaredExponential(1.0, 0.8), Matern32(0.9, 1.2)]), separate, 2


def _latent_q(iv, kernel, whiten, rng):
    blocks = conditionals.layout(iv, kernel).blocks
    return VariationalGaussian(
        0.5 * standard_normal(rng, sum(blocks)),
        tuple(random_lower(rng.derive(i), size) for i, size in enumerate(blocks)),
        whiten,
    )


LATENT_SETS = [
    "lmc/shared", "imc/shared", "imc/separate", "shared_independent/shared",
    "separate_independent/separate+multiscale", "imc/separate+multiscale",
]


@pytest.mark.parametrize("kind", LATENT_SETS)
@pytest.mark.parametrize("whiten", [False, True])
@pytest.mark.parametrize("heterotopic", [False, True])
def test_latent_set_gradients_match_differences(kind, whiten, heterotopic):
    rng = RngState(74)
    kernel, iv, p = _latent_set(kind, rng)
    q = _latent_q(iv, kernel, whiten, rng.derive(1))
    model = SVGPModel(kernel, Gaussian(0.3), iv, q, num_data=9, jitter=1e-6)
    x = rng.generator.uniform(-2.5, 2.5, (9, 1))
    if heterotopic:
        batch = (x, rng.generator.integers(0, p, 9), standard_normal(rng.derive(2), 9))
    else:
        batch = (x, standard_normal(rng.derive(2), (9, p)))
    slots = _exact_slots(model, heterotopic)
    assert ("inducing.members.1.z" if "separate" in kind else "inducing.base.z") in slots
    kernels = [s for s in slots if s.startswith("kernel.") and s != "kernel.w"]
    # Two slots per latent kernel.  A multiscale member leaves its latent's
    # kernel to differences, and imc's shared one whole, though the other
    # member's pair reaches it too.
    assert len(kernels) == {"lmc/shared": 4, "imc/separate+multiscale": 0}.get(kind, 2)
    _check_against_differences(model, batch, slots, screen=_screen)


@pytest.mark.parametrize("whiten", [False, True])
def test_lmc_under_a_correlated_gaussian_matches_differences(whiten):
    # The full output covariances go back through mix_adjoint's
    # full_output_cov path; the noise covariance's factor is exact too.
    rng = RngState(75)
    kernel, iv, p = _latent_set("lmc/shared", rng)
    q = _latent_q(iv, kernel, whiten, rng.derive(1))
    a = 0.3 * standard_normal(rng.derive(3), (p, p))
    lik = CorrelatedGaussian(a @ a.T + 0.4 * np.eye(p))
    model = SVGPModel(kernel, lik, iv, q, num_data=9, jitter=1e-6)
    x = rng.generator.uniform(-2.5, 2.5, (9, 1))
    batch = (x, standard_normal(rng.derive(2), (9, p)))
    slots = _exact_slots(model)
    assert {"inducing.base.z", "likelihood.cov_sqrt"} <= set(slots)
    _check_against_differences(model, batch, slots, screen=_screen)


@pytest.mark.parametrize("whiten", [False, True])
def test_deep_gp_chain_runs_through_a_latent_hidden_layer(whiten):
    # A shared_independent hidden layer over shared points: its outputs do
    # not correlate, so the chain goes on through its rows' gradient to
    # the first layer's slots.
    rng = RngState(76)
    first = GPLayer(
        SquaredExponential(1.0, 0.9),
        InducingPoints(np.linspace(-2.0, 2.0, 4)[:, None]),
        VariationalGaussian(standard_normal(rng, 4), random_lower(rng.derive(1), 4), whiten),
    )
    kernel = SharedIndependent(SquaredExponential(0.9, 0.8), 2)
    iv = SharedIndependentInducingVariables(InducingPoints(np.linspace(-1.5, 1.5, 4)[:, None]))
    hidden = GPLayer(kernel, iv, _latent_q(iv, kernel, whiten, rng.derive(2)))
    z = standard_normal(rng.derive(3), (4, 2))
    last = GPLayer(
        Matern52(1.0, [0.9, 1.1]),
        InducingPoints(z),
        VariationalGaussian(
            standard_normal(rng.derive(4), 4), random_lower(rng.derive(5), 4), whiten
        ),
    )
    model = DGPModel([first, hidden, last], Gaussian(0.3), 6, 2, jitter=1e-6)
    x = rng.generator.uniform(-2.0, 2.0, (6, 1))
    y = standard_normal(rng.derive(6), (6, 1))
    slots = _exact_slots(model)
    chain = ["layers.0.inducing.z", "layers.1.inducing.base.z", "layers.1.kernel.base.variance"]
    assert set(chain) <= set(slots)
    _check_against_differences(model, (x, y), slots, seed=3, screen=_screen)


# ---------------------------------------------------------------------------
# Training


def test_fit_step_differences_only_the_slots_without_a_backward(monkeypatch):
    # A hetero_lmc-shaped model whose first latent's member is multiscale,
    # a pair without the VJPs of its covariances: that member's Z and
    # scales and that latent's kernel are differenced, and every other slot
    # is exact, so one step's gradient makes two objective calls per
    # coordinate of those four slots.
    rng = RngState(64)
    n = 30
    kernel = LinearCoregionalization(
        [SquaredExponential(1.0, 1.0), Matern32(1.0, 1.0)],
        np.array([[1.0, 0.0], [0.5, 0.5], [0.2, 0.8]]),
    )
    z = np.linspace(0.3, 5.7, 4)[:, None]
    members = [Multiscale(z, np.full((4, 1), 0.4)), InducingPoints(z + 0.1)]
    iv = SeparateIndependentInducingVariables(members)
    q = VariationalGaussian(np.zeros(8), (np.eye(4), np.eye(4)), whiten=False)
    model = SVGPModel(kernel, Gaussian(0.1), iv, q, num_data=n)
    x = rng.generator.uniform(0.0, 6.0, (n, 1))
    outputs = rng.generator.integers(0, 3, n)
    y = standard_normal(rng.derive(1), n)

    store, _ = parameterize(model)
    vjps, real_vjp = [], Stationary.K_vjp

    def counted_vjp(self, *args):
        vjps.append(self)
        return real_vjp(self, *args)

    monkeypatch.setattr(Stationary, "K_vjp", counted_vjp)
    _, grads = model.objective_gradients((x, outputs, y), None, 1.0)
    monkeypatch.setattr(Stationary, "K_vjp", real_vjp)
    assert sorted(grads) == _exact_slots(model, heterotopic=True)
    # the pair without VJPs runs none: only the points latent's kernel does
    assert vjps and all(k is kernel.latent_kernels[1] for k in vjps)
    differenced = sorted(set(store.names()) - set(grads))
    assert differenced == [
        "inducing.members.0.scales",
        "inducing.members.0.z",
        "kernel.latents.0.lengthscales",
        "kernel.latents.0.variance",
    ]
    others = sum(hi - lo for name, lo, hi in store.spans() if name in differenced)
    assert others == 4 + 4 + 2  # Z 4, scales 4, the kernel 2

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


def _deep_classify_shaped(whiten, n=30, m=10):
    """Two layers of points with a squared-exponential kernel, Bernoulli."""
    rng = RngState(65)
    z = np.linspace(-2.7, 2.7, m)[:, None]
    layers = [
        GPLayer(
            SquaredExponential(1.0, 1.0),
            InducingPoints(z),
            VariationalGaussian(np.zeros(m), np.eye(m), whiten),
        )
        for _ in range(2)
    ]
    x = rng.generator.uniform(-3.0, 3.0, (n, 1))
    y = (np.sin(1.2 * x) + 0.3 * standard_normal(rng.derive(1), (n, 1)) > 0).astype(float)
    return DGPModel(layers, Bernoulli(), n), (x, y), ()


def _regress_shaped(whiten, n=60):
    """A Gaussian SVGP over two input columns, its 16 inducing inputs frozen."""
    rng = RngState(66)
    g = np.linspace(-2.8, 2.8, 4)
    z = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    q = VariationalGaussian(np.zeros(16), np.eye(16), whiten)
    model = SVGPModel(
        SquaredExponential(1.0, [1.0, 1.0]), Gaussian(0.3), InducingPoints(z), q, num_data=n
    )
    x = rng.generator.uniform(-3.0, 3.0, (n, 2))
    y = np.sin(1.3 * x[:, :1]) + 0.5 * standard_normal(rng.derive(1), (n, 1))
    return model, (x, y), ("inducing.z",)


def _hetero_lmc_shaped(whiten, n=30, m=10):
    """Three outputs mixing two latents over one shared set of 10 points."""
    rng = RngState(67)
    kernel = LinearCoregionalization(
        [SquaredExponential(1.0, 1.0), Matern32(1.0, 1.0)],
        np.array([[1.0, 0.0], [0.5, 0.5], [0.2, 0.8]]),
    )
    iv = SharedIndependentInducingVariables(InducingPoints(np.linspace(0.3, 5.7, m)[:, None]))
    q = VariationalGaussian(np.zeros(2 * m), (np.eye(m), np.eye(m)), whiten)
    model = SVGPModel(kernel, Gaussian(0.1), iv, q, num_data=n)
    x = rng.generator.uniform(0.0, 6.0, (n, 1))
    outputs = rng.generator.integers(0, 3, n)
    return model, (x, outputs, standard_normal(rng.derive(1), n)), ()


def _gpr_shaped(whiten, n=30):
    """The shipped exact GP: a squared-exponential kernel on one column
    (``whiten`` does not apply)."""
    rng = RngState(72)
    x = np.sort(rng.generator.uniform(0.0, 6.0, (n, 1)), axis=0)
    y = np.sin(1.2 * x) + 0.15 * standard_normal(rng.derive(1), (n, 1))
    return GPRModel(SquaredExponential(1.0, 0.8), 0.02, x, y), (x, y), ()


@pytest.mark.parametrize("whiten", [False, True])
@pytest.mark.parametrize(
    "shaped",
    [_deep_classify_shaped, _regress_shaped, _hetero_lmc_shaped, _gpr_shaped],
    ids=["deep_classify", "regress", "hetero_lmc", "gpr"],
)
def test_one_fit_step_differences_only_what_no_vjp_reaches(monkeypatch, shaped, whiten):
    # Objective calls inside one step's gradient, two per coordinate that
    # no exact gradient covers: every slot of these workloads' models that
    # trains is exact, so there are none.
    model, data, frozen = shaped(whiten)
    inside, calls = [False], []
    real_gradient, real_objective = training.gradient, type(model).objective

    def traced_gradient(*args):
        inside[0] = True
        try:
            return real_gradient(*args)
        finally:
            inside[0] = False

    def counted_objective(self, *args):
        calls.append(inside[0])
        return real_objective(self, *args)

    monkeypatch.setattr(training, "gradient", traced_gradient)
    monkeypatch.setattr(type(model), "objective", counted_objective)
    fit(model, data, FitConfig(steps=1, learning_rate=0.01, freeze=frozen))
    assert calls == [False]  # the step's trace value alone


@pytest.mark.parametrize(
    "shaped, pair_slots",
    [
        (_regress_shaped, {"inducing.z", "kernel.lengthscales", "kernel.variance"}),
        (
            _hetero_lmc_shaped,
            {
                "inducing.base.z",
                "kernel.latents.0.lengthscales", "kernel.latents.0.variance",
                "kernel.latents.1.lengthscales", "kernel.latents.1.variance",
            },
        ),
    ],
    ids=["regress", "hetero_lmc"],
)
def test_frozen_pair_slots_skip_the_kernel_vjps(monkeypatch, shaped, pair_slots):
    # With everything but q (and a latent set's W, which its mixing
    # alone reaches) frozen no Kuu or Kuf VJP runs, and their gradients
    # are the ones computed with every slot trained.
    model, data, _ = shaped(True)
    store, _ = parameterize(model)
    trained = [name for name in store.names() if name.startswith("q_") or name == "kernel.w"]
    frozen = tuple(name for name in store.names() if name not in trained)
    calls, real = [], Stationary.K_vjp

    def counted(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(Stationary, "K_vjp", counted)
    fit(model, data, FitConfig(steps=1, learning_rate=0.01, freeze=frozen))
    assert calls == []
    _, some = model.objective_gradients(data, None, 1.0, trained)
    assert calls == []
    _, every = model.objective_gradients(data, None, 1.0)
    assert calls and pair_slots <= set(every)
    for name in trained:
        np.testing.assert_array_equal(some[name], every[name])


_MULTISCALE = "a multiscale pair has no VJPs of its Kuu and Kuf"
_POINTS_KERNEL = ("inducing.z", "kernel.variance")
# Golden model -> (trainable slots its exact gradients leave to differences,
# why).  Each entry is an open gap; the list may only shrink.
GRADIENT_GAPS = {
    "svgp_conv_patches": (
        ("inducing.z", "kernel.base.lengthscales", "kernel.base.variance"),
        "the patch pair has no VJPs of its Kuu and Kuf",
    ),
    "svgp_linear": (_POINTS_KERNEL, "a linear kernel has no K_vjp"),
    "svgp_white": (_POINTS_KERNEL, "a white kernel has no K_vjp"),
    "svgp_separate_independent_separate": (
        (
            "inducing.members.0.scales", "inducing.members.0.z",
            "kernel.latents.0.lengthscales", "kernel.latents.0.variance",
        ),
        "latent 0's member is multiscale: " + _MULTISCALE,
    ),
    "svgp_shared_independent_points": (
        ("inducing.z", "kernel.base.lengthscales", "kernel.base.variance"),
        "the fully-correlated multioutput points pair has no VJPs of its Kuu and Kuf",
    ),
    "svgp_sqexp_multiscale_bernoulli": (
        ("inducing.scales", "inducing.z", "kernel.lengthscales", "kernel.variance"), _MULTISCALE
    ),
    "svgp_sqexp_multiscale_given": (
        ("inducing.scales", "inducing.z", "kernel.lengthscales", "kernel.variance"), _MULTISCALE
    ),
    "svgp_uncertain": (
        (
            "inducing.z", "inputs.mu", "inputs.s", "kernel.lengthscales", "kernel.variance",
            "likelihood.variance", "q_mu", "q_sqrt",
        ),
        "svgp_uncertain has no objective_gradients",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_models_give_gradients_only_for_their_slots(name):
    # ``gradient`` ignores a key that names no slot, which would silently
    # leave that slot on differences; and a trainable slot without a key is
    # differenced, which only the gaps above may be.
    model, _ = load_model(golden_path(name))
    x, y = CASES[name][0].x, CASES[name][0].y
    outputs = model.predict_moments(x)[0].shape[1]  # the case's y, once per output
    rng = lambda: RngState(0).derive(1, 0)  # noqa: E731
    _, grads = model.objective_gradients((x, np.tile(y, (1, outputs))), rng, 1.0)
    store, _ = parameterize(model)
    gaps, _ = GRADIENT_GAPS.get(name, ((), None))
    assert sorted(grads) == sorted(set(store.names(trainable_only=True)) - set(gaps))
    for slot, g in grads.items():
        assert np.shape(g) == store.get(slot).shape, slot


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
