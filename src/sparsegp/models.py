"""Model objects: exact GP regression, sparse variational GPs, deep GPs,
and uncertain-input wrappers.

Models are immutable snapshots of their parameters; every objective is a
pure function of (parameters, batch, random state).  Training (see the
``training`` module) rebuilds models from a parameter store rather than
mutating them.
"""

from __future__ import annotations

import numpy as np

from .conditionals import (
    PosteriorMoments,
    VariationalGaussian,
    conditional,
    sample_conditional,
)
from .covariances import kuf, kuu
from .divergences import prior_kl
from .errors import ShapeMismatch, UnsupportedCombination
from .inducing import (
    InducingPatches,
    InducingPoints,
    InducingVariable,
    num_inducing,
)
from .kernels import (
    Convolutional,
    Kernel,
    MultioutputKernel,
    k_diag,
    k_full,
)
from .likelihoods import (
    Gaussian,
    Likelihood,
    marginalize_outputs,
    variational_expectations,
)
from .numerics import (
    RngState,
    cholesky,
    densify,
    standard_normal,
    tri_solve,
)


class MeanFunction:
    def __call__(self, x) -> np.ndarray:
        raise NotImplementedError


class Zero(MeanFunction):
    def __call__(self, x):
        return 0.0


class Constant(MeanFunction):
    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def __call__(self, x):
        return self.value


def _as_column_targets(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    return y


# ---------------------------------------------------------------------------
# Exact Gaussian process regression


class GPRModel:
    """Exact GP regression with a Gaussian likelihood; the reference model."""

    def __init__(self, kernel: Kernel, noise_variance: float, x, y):
        noise_variance = float(noise_variance)
        if noise_variance < 0:
            raise ValueError("noise variance must be non-negative")
        self.kernel = kernel
        self.noise_variance = noise_variance
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        self.y = _as_column_targets(y)
        if self.y.shape != (self.x.shape[0], 1):
            raise ShapeMismatch(
                f"targets must be [N, 1], got {self.y.shape} for N={self.x.shape[0]}"
            )

    def _noisy_chol(self):
        kyy = k_full(self.kernel, self.x) + self.noise_variance * np.eye(
            self.x.shape[0]
        )
        return cholesky(kyy, jitter=0.0)

    def log_marginal(self) -> float:
        """log N(y; 0, Kff + noise I) via Cholesky."""
        n = self.x.shape[0]
        l = self._noisy_chol()
        alpha = tri_solve(l, self.y[:, 0])
        return float(
            -0.5 * n * np.log(2.0 * np.pi)
            - np.sum(np.log(np.diag(l)))
            - 0.5 * (alpha @ alpha)
        )

    def predict(self, xnew, full_cov: bool = False) -> PosteriorMoments:
        xnew = np.asarray(xnew, dtype=float)
        if xnew.ndim == 1:
            xnew = xnew[:, None]
        l = self._noisy_chol()
        kmn = k_full(self.kernel, self.x, xnew)
        a = tri_solve(l, kmn)
        mean = a.T @ tri_solve(l, self.y[:, 0])
        if full_cov:
            cov = k_full(self.kernel, xnew) - a.T @ a
            return PosteriorMoments(mean[:, None], cov[None, :, :], True, False)
        var = k_diag(self.kernel, xnew) - np.sum(a * a, axis=0)
        return PosteriorMoments(mean[:, None], var[:, None], False, False)


# ---------------------------------------------------------------------------
# Sparse variational GP


class SVGPModel:
    """Sparse variational GP defined by (kernel, likelihood, inducing, q)."""

    def __init__(
        self,
        kernel: Kernel,
        likelihood: Likelihood,
        inducing: InducingVariable,
        q: VariationalGaussian,
        mean_function: MeanFunction | None = None,
        num_data: int | None = None,
        jitter: float | None = None,
    ):
        expected = num_inducing(inducing, kernel)
        if q.num_inducing != expected:
            raise ShapeMismatch(
                f"q has {q.num_inducing} entries, pair requires {expected}"
            )
        self.kernel = kernel
        self.likelihood = likelihood
        self.inducing = inducing
        self.q = q
        self.mean_function = mean_function if mean_function is not None else Zero()
        self.num_data = num_data
        self.jitter = jitter

    @property
    def num_outputs(self) -> int:
        if isinstance(self.kernel, Convolutional) and isinstance(
            self.inducing, InducingPatches
        ):
            return 1  # summed-patch response
        if isinstance(self.kernel, MultioutputKernel):
            return self.kernel.num_outputs
        return 1

    def prior_kl(self) -> float:
        return prior_kl(self.inducing, self.kernel, self.q, self.jitter)

    def predict_f(
        self, xnew, full_cov: bool = False, full_output_cov: bool = False
    ) -> PosteriorMoments:
        moments = conditional(
            xnew,
            self.inducing,
            self.kernel,
            self.q,
            full_cov=full_cov,
            full_output_cov=full_output_cov,
            jitter=self.jitter,
        )
        moments.mean = moments.mean + self.mean_function(xnew)
        return moments

    def _scale(self, batch_size: int, scale) -> float:
        if scale is not None:
            return float(scale)
        total = self.num_data if self.num_data is not None else batch_size
        return total / batch_size

    def elbo(self, batch, scale: float | None = None) -> float:
        """Scaled expected log-likelihood minus the KL to the prior."""
        x, y = batch
        x = np.asarray(x, dtype=float)
        y = _as_column_targets(y)
        foc = self.likelihood.requires_full_output_cov
        moments = self.predict_f(x, full_cov=False, full_output_cov=foc)
        ve = variational_expectations(self.likelihood, moments.mean, moments.cov, y)
        return self._scale(x.shape[0], scale) * float(np.sum(ve)) - self.prior_kl()

    def elbo_heterotopic(self, x, outputs, y, scale: float | None = None) -> float:
        """ELBO for rows observing one output index each.

        ``outputs`` holds the observed output index per row.  Rows are
        grouped by that index: each group needs only its column of the
        posterior marginals and the likelihood marginalized to that output,
        so every group costs one vectorized expectation.
        """
        x = np.asarray(x, dtype=float)
        outputs = np.asarray(outputs, dtype=int)
        y = np.asarray(y, dtype=float).reshape(-1)
        if not (x.shape[0] == outputs.shape[0] == y.shape[0]):
            raise ShapeMismatch("heterotopic rows must align")
        bad = outputs[(outputs < 0) | (outputs >= self.num_outputs)]
        if bad.size:
            raise ShapeMismatch(
                f"output index {bad[0]} is outside [0, {self.num_outputs})"
            )
        moments = self.predict_f(x, full_cov=False, full_output_cov=False)
        total = 0.0
        for p in np.flatnonzero(np.bincount(outputs)):  # outputs present
            rows = np.flatnonzero(outputs == p)
            ve = variational_expectations(
                marginalize_outputs(self.likelihood, (p,)),
                moments.mean[rows, p],
                moments.cov[rows, p],
                y[rows],
            )
            total += float(np.sum(ve))
        return self._scale(x.shape[0], scale) * total - self.prior_kl()


def optimal_q(model: SVGPModel, x, y) -> VariationalGaussian:
    """Closed-form optimal q(u) for a Gaussian likelihood at fixed parameters.

    With A = Luu⁻¹Kuf and B = I + A Aᵀ / noise:
    S* = Luu B⁻¹ Luuᵀ and m* = Luu B⁻¹ A y / noise.
    """
    if not isinstance(model.likelihood, Gaussian):
        raise UnsupportedCombination("the optimum is closed form only for Gaussian noise")
    if model.q.is_block:
        raise UnsupportedCombination(
            "closed-form optimum is implemented for dense posteriors"
        )
    x = np.asarray(x, dtype=float)
    y = _as_column_targets(y)

    kmm = kuu(model.inducing, model.kernel, model.jitter)
    kmn = kuf(model.inducing, model.kernel, x)
    if kmn.ndim == 4:  # [M, P, N, P] -> stacked [MP, NP]
        m, p, n, p2 = kmn.shape
        kmn = kmn.reshape(m * p, n * p2)
        targets = y.reshape(-1)
    elif kmn.ndim == 2:
        targets = y[:, 0]
    else:
        raise UnsupportedCombination(
            "closed-form optimum is implemented for dense posteriors"
        )
    mean_offset = model.mean_function(x)
    targets = targets - mean_offset

    noise = model.likelihood.variance
    luu = cholesky(densify(kmm), jitter=0.0)
    a = tri_solve(luu, kmn)
    b = np.eye(a.shape[0]) + (a @ a.T) / noise
    lb = cholesky(b, jitter=0.0)

    ay = a @ targets
    b_inv_ay = tri_solve(lb, tri_solve(lb, ay), transpose=True)
    c = tri_solve(lb, luu.T)  # S* = Cᵀ C

    if model.q.whiten:
        mu = b_inv_ay / noise
        s = tri_solve(lb, tri_solve(lb, np.eye(a.shape[0])), transpose=True)
    else:
        mu = luu @ b_inv_ay / noise
        s = c.T @ c
    return VariationalGaussian(mu, cholesky(s, jitter=0.0), whiten=model.q.whiten)


# ---------------------------------------------------------------------------
# Deep GP


class GPLayer:
    """One SVGP-style layer of a deep GP."""

    def __init__(
        self,
        kernel: Kernel,
        inducing: InducingVariable,
        q: VariationalGaussian,
        mean_function: MeanFunction | None = None,
    ):
        expected = num_inducing(inducing, kernel)
        if q.num_inducing != expected:
            raise ShapeMismatch(
                f"layer q has {q.num_inducing} entries, pair requires {expected}"
            )
        self.kernel = kernel
        self.inducing = inducing
        self.q = q
        self.mean_function = mean_function if mean_function is not None else Zero()

    @property
    def output_width(self) -> int:
        if isinstance(self.kernel, MultioutputKernel):
            return self.kernel.num_outputs
        return 1

    def prior_kl(self, jitter=None) -> float:
        return prior_kl(self.inducing, self.kernel, self.q, jitter)


def _layer_input_width(layer: "GPLayer") -> int | None:
    """Input dimension a layer expects, where its inducing inputs reveal it."""
    iv = layer.inducing
    while not isinstance(iv, InducingPoints):
        if hasattr(iv, "base"):
            iv = iv.base
        elif hasattr(iv, "members"):
            iv = iv.members[0]
        else:
            return None
    if isinstance(iv, InducingPatches):
        return None  # patch length, not the image length
    return iv.z.shape[1]


class DGPModel:
    """Deep GP: layers chained by sampling, final layer handled analytically.

    The inter-layer transitions are noiseless; each hidden state is a
    reparameterized draw from that layer's posterior marginals, and the
    expected log-likelihood is evaluated in closed form (or by quadrature)
    on the final layer's moments.
    """

    def __init__(
        self,
        layers,
        likelihood: Likelihood,
        num_data: int | None = None,
        num_samples: int = 1,
        jitter: float | None = None,
    ):
        layers = list(layers)
        if not layers:
            raise ShapeMismatch("a deep GP needs at least one layer")
        for below, above in zip(layers, layers[1:]):
            needed = _layer_input_width(above)
            if needed is not None and needed != below.output_width:
                raise ShapeMismatch(
                    f"layer producing {below.output_width} columns feeds a "
                    f"layer expecting {needed}"
                )
        self.layers = layers
        self.likelihood = likelihood
        self.num_data = num_data
        self.num_samples = int(num_samples)
        self.jitter = jitter

    def propagate(self, x, rng: RngState):
        """Sample hidden states through all but the last layer."""
        h = np.asarray(x, dtype=float)
        for layer in self.layers[:-1]:
            draw = sample_conditional(
                h, layer.inducing, layer.kernel, layer.q, rng, 1, self.jitter
            )[0]
            h = draw + layer.mean_function(h)
        return h

    def _final_moments(self, h):
        last = self.layers[-1]
        foc = self.likelihood.requires_full_output_cov
        moments = conditional(
            h,
            last.inducing,
            last.kernel,
            last.q,
            full_cov=False,
            full_output_cov=foc,
            jitter=self.jitter,
        )
        moments.mean = moments.mean + last.mean_function(h)
        return moments

    def elbo(self, batch, rng: RngState, scale: float | None = None) -> float:
        x, y = batch
        x = np.asarray(x, dtype=float)
        y = _as_column_targets(y)
        if scale is None:
            total = self.num_data if self.num_data is not None else x.shape[0]
            scale = total / x.shape[0]

        data_terms = np.zeros(x.shape[0])
        for _ in range(self.num_samples):
            h = self.propagate(x, rng)
            moments = self._final_moments(h)
            data_terms += variational_expectations(
                self.likelihood, moments.mean, moments.cov, y
            )
        data_terms /= self.num_samples

        kl = sum(layer.prior_kl(self.jitter) for layer in self.layers)
        return float(scale) * float(np.sum(data_terms)) - kl

    def predict_f(self, xnew, rng: RngState, num_samples: int = 100):
        """Posterior marginals by mixing over propagated samples."""
        means = []
        variances = []
        for _ in range(num_samples):
            h = self.propagate(xnew, rng)
            moments = self._final_moments(h)
            means.append(moments.mean)
            var = moments.cov
            if var.ndim == 3:  # [N, P, P] -> per-output marginals
                var = np.einsum("npp->np", var)
            variances.append(var)
        means = np.stack(means)
        variances = np.stack(variances)
        mean = means.mean(axis=0)
        var = variances.mean(axis=0) + means.var(axis=0)
        return mean, var


# ---------------------------------------------------------------------------
# Uncertain inputs


class UncertainSVGP:
    """SVGP whose training inputs carry per-point Gaussian posteriors.

    Each input has q_n(x_n) = N(mu_n, diag(s_n)) against a standard-normal
    prior; the data-fit term is estimated at reparameterized input samples
    while both KL terms stay in closed form.
    """

    def __init__(self, svgp: SVGPModel, input_mean, input_var, y):
        self.svgp = svgp
        self.input_mean = np.asarray(input_mean, dtype=float)
        self.input_var = np.asarray(input_var, dtype=float)
        self.y = _as_column_targets(y)
        if self.input_mean.ndim == 1:
            self.input_mean = self.input_mean[:, None]
        if self.input_var.ndim == 1:
            self.input_var = self.input_var[:, None]
        if self.input_var.shape != self.input_mean.shape:
            raise ShapeMismatch("input means and variances must align")
        if np.any(self.input_var <= 0):
            raise ValueError("input variances must be strictly positive")

    def input_kl(self) -> float:
        """Sum of per-point KL(N(mu, diag(s)) || N(0, I)) in closed form."""
        s = self.input_var
        mu = self.input_mean
        return float(0.5 * np.sum(s + mu * mu - 1.0 - np.log(s)))

    def elbo(self, rng: RngState) -> float:
        eps = standard_normal(rng, self.input_mean.shape)
        x_tilde = self.input_mean + np.sqrt(self.input_var) * eps
        foc = self.svgp.likelihood.requires_full_output_cov
        moments = self.svgp.predict_f(x_tilde, full_cov=False, full_output_cov=foc)
        ve = variational_expectations(
            self.svgp.likelihood, moments.mean, moments.cov, self.y
        )
        return float(np.sum(ve)) - self.input_kl() - self.svgp.prior_kl()
