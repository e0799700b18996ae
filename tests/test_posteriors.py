"""Posterior objects: Kuu factored once, marginal modes streamed over rows.

The streamed moments are checked against one-shot references: the
posterior's moment routine run once on precomputed blocks
(``conftest.block_conditional``) for dense pairs, one such run per latent
for latent inducing sets, and a single pass of the same code for the exact
GP and the deep GP.  Chunks are made small by lowering
``conditionals.CHUNK_FLOATS`` for the test.
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsegp
from sparsegp import (
    Convolutional,
    DGPModel,
    Gaussian,
    GPLayer,
    GPRModel,
    InducingPatches,
    InducingPoints,
    IntrinsicCoregionalization,
    LinearCoregionalization,
    Matern32,
    Multiscale,
    RngState,
    SeparateIndependent,
    SeparateIndependentInducingVariables,
    SharedIndependentInducingVariables,
    SquaredExponential,
    SVGPModel,
    VariationalGaussian,
    allocation_probe,
    k_diag,
    kuf,
    kuu,
    mo_k_diag,
    optimal_q,
    prior_kl,
    standard_normal,
    variational_expectations,
)
from sparsegp import conditionals
from sparsegp.conditionals import chunk_rows, create_posterior

from conftest import block_conditional, random_lower

JITTER = 1e-6
RTOL = 1e-12


@contextlib.contextmanager
def chunk_floats(value: int):
    saved = conditionals.CHUNK_FLOATS
    conditionals.CHUNK_FLOATS = value
    try:
        yield
    finally:
        conditionals.CHUNK_FLOATS = saved


@contextlib.contextmanager
def chunks_of(rows: int, row_floats: int):
    """Streamed predictions use chunks of ``rows`` rows (a power of two)."""
    with chunk_floats(rows * row_floats):
        assert chunk_rows(row_floats) == rows
        yield


def one_pass():
    return chunk_floats(2**40)


# Input row counts around a chunk of ``rows`` rows.
NUM_ROWS = {
    "chunk-1": lambda rows: rows - 1,
    "chunk": lambda rows: rows,
    "chunk+1": lambda rows: rows + 1,
    "2*chunk+7": lambda rows: 2 * rows + 7,
}


@contextlib.contextmanager
def counted_cholesky():
    """Count calls to ``numerics.cholesky`` from every module that holds it."""
    original = sparsegp.numerics.cholesky
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    patched = []
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("sparsegp"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, counting)
                    patched.append((module, attr))
    try:
        yield calls
    finally:
        for module, attr in patched:
            setattr(module, attr, original)


def _q(rng, sizes, whiten, block):
    mu = standard_normal(rng, sum(sizes))
    lowers = [0.5 * random_lower(rng.derive(i + 1), n) for i, n in enumerate(sizes)]
    return VariationalGaussian(mu, tuple(lowers) if block else lowers[0], whiten=whiten)


def _mix(w, means, variances, full_output_cov):
    """Latent marginals [N, L] mixed into outputs by W [P, L]."""
    mean = means @ w.T
    if full_output_cov:
        return mean, np.einsum("pl,nl,ql->npq", w, variances, w)
    return mean, variances @ (w * w).T


# ---------------------------------------------------------------------------
# One case per pair: (posterior, one-shot reference moments at x).


def _points(rng, whiten):
    kernel = SquaredExponential(1.1, 0.7)
    iv = InducingPoints(standard_normal(rng, (4, 1)))
    q = _q(rng.derive(9), [4], whiten, block=False)

    def reference(x, foc):
        n = x.shape[0]
        knn = k_diag(kernel, x).reshape((n, 1, 1) if foc else (n, 1))
        pm = block_conditional(
            kuf(iv, kernel, x)[:, :, None], kuu(iv, kernel, JITTER), knn, q,
            full_cov=False, full_output_cov=foc,
        )
        return pm.mean, pm.cov

    return create_posterior(iv, kernel, q, JITTER), reference


def _multioutput_points(rng, whiten):
    kernel = LinearCoregionalization(
        [SquaredExponential(1.0, 0.6), Matern32(0.8, 1.1)],
        standard_normal(rng, (3, 2)),
    )
    m = 3
    iv = InducingPoints(standard_normal(rng.derive(1), (m, 1)))
    q = _q(rng.derive(9), [m * 3], whiten, block=False)

    def reference(x, foc):
        kmn = kuf(iv, kernel, x)
        pm = block_conditional(
            kmn.reshape(m * 3, x.shape[0], 3), kuu(iv, kernel, JITTER),
            mo_k_diag(kernel, x, full_output_cov=foc), q,
            full_cov=False, full_output_cov=foc,
        )
        return pm.mean, pm.cov

    return create_posterior(iv, kernel, q, JITTER), reference


def _latent_reference(iv, kernel, q, w):
    members = iv.per_latent(len(kernel.latent_kernels))

    def reference(x, foc):
        means, variances, offset = [], [], 0
        for k, member, sqrt in zip(kernel.latent_kernels, members, q.q_sqrt):
            m = member.num_rows
            q_l = VariationalGaussian(q.q_mu[offset : offset + m], sqrt, whiten=q.whiten)
            offset += m
            pm = block_conditional(
                kuf(member, k, x)[:, :, None], kuu(member, k, JITTER),
                k_diag(k, x)[:, None], q_l, full_cov=False, full_output_cov=False,
            )
            means.append(pm.mean[:, 0])
            variances.append(pm.cov[:, 0])
        return _mix(w, np.stack(means, 1), np.stack(variances, 1), foc)

    return reference


def _lmc_shared(rng, whiten):
    w = standard_normal(rng, (3, 2))
    kernel = LinearCoregionalization([SquaredExponential(1.0, 0.6), Matern32(0.8, 1.1)], w)
    iv = SharedIndependentInducingVariables(InducingPoints(standard_normal(rng.derive(1), (4, 1))))
    q = _q(rng.derive(9), [4, 4], whiten, block=True)
    return create_posterior(iv, kernel, q, JITTER), _latent_reference(iv, kernel, q, w)


def _separate_sets(rng, whiten):
    kernel = SeparateIndependent([SquaredExponential(1.0, 0.6), Matern32(0.8, 1.1)])
    z1 = standard_normal(rng.derive(1), (3, 1))
    iv = SeparateIndependentInducingVariables(
        [Multiscale(z1, np.full_like(z1, 0.3)), InducingPoints(standard_normal(rng.derive(2), (5, 1)))]
    )
    q = _q(rng.derive(9), [3, 5], whiten, block=True)
    return create_posterior(iv, kernel, q, JITTER), _latent_reference(iv, kernel, q, np.eye(2))


def _conv_latent(rng, whiten):
    conv = Convolutional(SquaredExponential(0.5, 1.5), (3, 3), (2, 2))
    kernel = SeparateIndependent([conv, Matern32(0.8, 2.0)])
    z = conv.patches(standard_normal(rng, (3, 9))).reshape(-1, 4)[:5]
    members = [InducingPatches(z), InducingPoints(standard_normal(rng.derive(1), (3, 9)))]
    iv = SeparateIndependentInducingVariables(members)
    q = _q(rng.derive(9), [5, 3], whiten, block=True)
    return create_posterior(iv, kernel, q, JITTER), _latent_reference(iv, kernel, q, np.eye(2))


def _conv_patches(rng, whiten):
    kernel = Convolutional(SquaredExponential(0.5, 1.5), (3, 3), (2, 2))
    z = kernel.patches(standard_normal(rng, (3, 9))).reshape(-1, 4)[:5]
    iv = InducingPatches(z)
    q = _q(rng.derive(9), [5], whiten, block=False)

    def reference(x, foc):
        n = x.shape[0]
        knn = k_diag(kernel, x).reshape((n, 1, 1) if foc else (n, 1))
        pm = block_conditional(
            kuf(iv, kernel, x)[:, :, None], kuu(iv, kernel, JITTER), knn, q,
            full_cov=False, full_output_cov=foc,
        )
        return pm.mean, pm.cov

    return create_posterior(iv, kernel, q, JITTER), reference


PAIRS = {
    "points": (_points, 1),
    "multioutput_points": (_multioutput_points, 1),
    "lmc_shared": (_lmc_shared, 1),
    "separate_sets": (_separate_sets, 1),
    "conv_patches": (_conv_patches, 9),
    "conv_latent": (_conv_latent, 9),
}


@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from(sorted(PAIRS)),
    whiten=st.booleans(),
    full_output_cov=st.booleans(),
    rows=st.sampled_from([4, 8]),
    size=st.sampled_from(sorted(NUM_ROWS)),
    seed=st.integers(0, 2**16),
)
def test_streamed_pair_moments_match_one_shot(pair, whiten, full_output_cov, rows, size, seed):
    make, width = PAIRS[pair]
    rng = RngState(seed)
    post, reference = make(rng, whiten)
    n = NUM_ROWS[size](rows)
    x = standard_normal(rng.derive(50), (n, width))
    with chunks_of(rows, post._row_floats()):
        got = post.predict(x, full_cov=False, full_output_cov=full_output_cov)
    want_mean, want_cov = reference(x, full_output_cov)
    assert got.mean.shape == want_mean.shape and got.cov.shape == want_cov.shape
    np.testing.assert_allclose(got.mean, want_mean, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(got.cov, want_cov, rtol=RTOL, atol=0.0)


@settings(max_examples=20, deadline=None)
@given(size=st.sampled_from(sorted(NUM_ROWS)), seed=st.integers(0, 2**16))
def test_streamed_gpr_marginals_match_one_pass(size, seed):
    rng = RngState(seed)
    x_train = standard_normal(rng, (6, 1))
    y = np.sin(x_train)
    model = GPRModel(SquaredExponential(1.0, 0.8), 0.1, x_train, y)
    rows = 8
    n = NUM_ROWS[size](rows)
    x = standard_normal(rng.derive(1), (n, 1))
    with chunks_of(rows, 6):
        got = model.predict(x)
    with one_pass():
        want = GPRModel(model.kernel, 0.1, x_train, y).predict(x)
    np.testing.assert_allclose(got.mean, want.mean, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(got.cov, want.cov, rtol=RTOL, atol=0.0)


def _two_layer_dgp(rng, whiten):
    layers = []
    for i in range(2):
        z = np.linspace(-2.0, 2.0, 4)[:, None]
        q = _q(rng.derive(i), [4], whiten, block=False)
        layers.append(GPLayer(SquaredExponential(1.0, 0.9), InducingPoints(z), q))
    return DGPModel(layers, Gaussian(0.1), num_data=10, jitter=JITTER)


@settings(max_examples=20, deadline=None)
@given(
    whiten=st.booleans(),
    size=st.sampled_from(sorted(NUM_ROWS)),
    seed=st.integers(0, 2**16),
)
def test_streamed_dgp_final_layer_matches_one_pass(whiten, size, seed):
    rng = RngState(seed)
    dgp = _two_layer_dgp(rng, whiten)
    rows = 8
    n = NUM_ROWS[size](rows)
    x = standard_normal(rng.derive(7), (n, 1))
    with chunks_of(rows, 4):
        got = dgp.predict_f(x, RngState(3), 4)
    with one_pass():
        want = dgp.predict_f(x, RngState(3), 4)
    np.testing.assert_allclose(got[0], want[0], rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(got[1], want[1], rtol=RTOL, atol=0.0)


# ---------------------------------------------------------------------------
# Factor sharing


def _svgp(whiten, m=5):
    rng = RngState(31)
    z = np.linspace(-2.0, 2.0, m)[:, None]
    q = _q(rng, [m], whiten, block=False)
    return SVGPModel(
        SquaredExponential(1.0, 0.8), Gaussian(0.1), InducingPoints(z), q, num_data=20
    )


@pytest.mark.parametrize("whiten", [False, True])
def test_svgp_elbo_factors_kuu_once(whiten):
    x = np.linspace(-2.0, 2.0, 20)[:, None]
    model = _svgp(whiten)
    with counted_cholesky() as calls:
        model.elbo((x, np.sin(x)))
        assert len(calls) == 1
        _, grads = model.objective_gradients((x, np.sin(x)), None, None)
        model.predict_f(x, full_cov=True)
    assert sorted(grads) == [
        "inducing.z", "kernel.lengthscales", "kernel.variance",
        "likelihood.variance", "q_mu", "q_sqrt",
    ]
    assert len(calls) == 1  # the snapshot's factor serves all three


def test_svgp_prediction_over_ten_chunks_factors_kuu_once(monkeypatch):
    model = _svgp(whiten=False)
    x = np.linspace(-3.0, 3.0, 81)[:, None]
    blocks = []

    def recording_kuf(iv, kernel, rows):
        blocks.append(rows.shape[0])
        return kuf(iv, kernel, rows)

    monkeypatch.setattr(conditionals, "kuf", recording_kuf)
    with chunks_of(8, 5), counted_cholesky() as calls:
        model.predict_f(x)
    assert len(calls) == 1
    assert blocks == [8] * 9 + [9]  # a lone last row joins the chunk before it


@pytest.mark.parametrize("samples", [10, 100])
def test_dgp_predict_f_factors_each_layer_once_at_any_sample_count(samples):
    dgp = _two_layer_dgp(RngState(5), whiten=False)
    x = np.linspace(-2.0, 2.0, 6)[:, None]
    with counted_cholesky() as calls:
        dgp.predict_f(x, RngState(0), samples)
    assert len(calls) == 2


@pytest.mark.parametrize("samples", [1, 5])
def test_unwhitened_dgp_elbo_shares_its_factors_with_the_kl(samples):
    dgp = _two_layer_dgp(RngState(6), whiten=False)
    dgp.num_samples = samples
    x = np.linspace(-2.0, 2.0, 6)[:, None]
    with counted_cholesky() as calls:
        dgp.elbo((x, np.sin(x)), RngState(0))
    assert len(calls) == 2


@pytest.mark.parametrize("whiten", [False, True])
def test_dgp_elbo_over_stacked_samples_is_the_per_sample_average(whiten):
    # The ELBO predicts all of its propagations in one stacked pass; it must
    # be the average over samples of each propagation's expectation.
    dgp = _two_layer_dgp(RngState(8), whiten)
    dgp.num_samples = 3
    x = np.linspace(-2.0, 2.0, 6)[:, None]
    y = np.sin(x)
    posteriors = [
        create_posterior(layer.inducing, layer.kernel, layer.q, JITTER)
        for layer in dgp.layers
    ]
    rng = RngState(4)
    data = np.zeros(x.shape[0])
    for _ in range(3):
        h = dgp.propagate(x, rng)
        moments = posteriors[-1].predict(h)
        mean = moments.mean + dgp.layers[-1].mean_function(h)
        data += variational_expectations(dgp.likelihood, mean, moments.cov, y)
    kl = sum(post.kl() for post in posteriors)
    want = (10 / 6) * float(np.sum(data / 3)) - kl
    got = dgp.elbo((x, y), RngState(4))
    assert got == pytest.approx(want, rel=RTOL, abs=0.0)


@pytest.mark.parametrize("whiten", [False, True])
def test_imc_over_one_shared_set_factors_kuu_once_per_elbo(whiten):
    rng = RngState(12)
    kernel = IntrinsicCoregionalization(SquaredExponential(1.0, 0.8), standard_normal(rng, (3, 2)))
    iv = SharedIndependentInducingVariables(InducingPoints(np.linspace(-2.0, 2.0, 5)[:, None]))
    q = _q(rng.derive(1), [5, 5], whiten, block=True)
    model = SVGPModel(kernel, Gaussian(0.1), iv, q, num_data=20)
    x = np.linspace(-2.0, 2.0, 20)[:, None]
    y = np.column_stack([np.sin(x[:, 0]), np.cos(x[:, 0]), x[:, 0]])
    with counted_cholesky() as calls:
        model.elbo((x, y))
    assert len(calls) == 1
    first, second = model.posterior.latents
    assert first.factor is second.factor


def test_prior_kl_factors_a_shared_set_once_for_all_latents():
    kernel = IntrinsicCoregionalization(SquaredExponential(1.0, 0.8), np.ones((3, 4)))
    iv = SharedIndependentInducingVariables(InducingPoints(np.linspace(-2.0, 2.0, 5)[:, None]))
    q = _q(RngState(3), [5] * 4, False, block=True)
    with counted_cholesky() as calls:
        prior_kl(iv, kernel, q)
    assert len(calls) == 1


def test_optimal_q_reads_the_built_factor():
    model = _svgp(whiten=False)
    x = np.linspace(-2.0, 2.0, 20)[:, None]
    model.posterior  # Kuu factored here, once
    with counted_cholesky() as calls:
        optimal_q(model, x, np.sin(x))
    assert len(calls) == 2  # B and S*; Kuu's factor is read, not redone


def test_posterior_kl_equals_prior_kl_from_scratch():
    model = _svgp(whiten=False)
    assert model.posterior.kl() == prior_kl(model.inducing, model.kernel, model.q)


# ---------------------------------------------------------------------------
# Bounded memory


@pytest.mark.parametrize("make", [_points, _lmc_shared])
def test_marginal_prediction_records_nothing_wider_than_a_chunk(make):
    post, _ = make(RngState(8), whiten=True)
    model = SVGPModel(post.kernel, Gaussian(0.1), post.inducing, post.q)
    rows = 16
    x = standard_normal(RngState(9), (5 * rows, 1))
    with chunks_of(rows, post._row_floats()), allocation_probe() as shapes:
        model.predict_f(x, full_output_cov=True)
    assert shapes
    assert max(max(s) for s in shapes) <= rows, shapes
    assert sum(1 for s in shapes if rows in s) >= 5


def test_full_cov_runs_in_one_pass():
    post, _ = _points(RngState(10), whiten=True)
    x = standard_normal(RngState(11), (40, 1))
    with chunks_of(8, post._row_floats()), allocation_probe() as shapes:
        pm = post.predict(x, full_cov=True)
    assert pm.cov.shape == (1, 40, 40)
    assert (40, 40) in [s[-2:] for s in shapes]
