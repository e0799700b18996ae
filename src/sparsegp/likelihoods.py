"""Observation models and expected log-likelihoods under the posterior.

``variational_expectations`` integrates log p(y | f) against the marginal
posterior N(f; Fmu, Fvar) per data point.  Factorized likelihoods take
per-output variances Fvar of shape [N, P]; the correlated Gaussian takes
full per-point covariances [N, P, P].  Each likelihood computes the
expectation one way, in its ``expectations``: in closed form where one
exists, else (Bernoulli) by its own Gauss-Hermite sum.
``gauss_hermite_expectations`` and ``variational_expectations_mc`` are the
quadrature and sampling oracles the closed forms and that sum are checked
against.  ``predict_observation_moments`` gives the moments of y; a
Gaussian adds its noise in every covariance mode.  The probit's normal CDF
and its log, the Poisson's log y! and the log-sum-exp of mixtures are the
``numerics`` special functions, built on the standard library's erfc and
lgamma.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, EmptySubset, ShapeMismatch, UnsupportedCombination
from .numerics import (
    RngState,
    cholesky,
    gauss_hermite_nodes,
    log_factorial,
    log_ndtr,
    logsumexp,
    ndtr,
    standard_normal,
    tri_solve,
)
from .schema import Param, Schema

DEFAULT_QUADRATURE_NODES = 20


class Likelihood:
    requires_full_output_cov = False

    def log_density(self, f, y):
        """Pointwise log p(y | f), broadcasting elementwise."""
        raise NotImplementedError

    def expectations(self, fmu, fvar, y, grads=False):
        """E[log p(y|f)] summed over outputs, one value per point; the
        shapes are those ``variational_expectations`` checked.  With
        ``grads``, also the gradients of their sum with respect to ``fmu``
        and ``fvar``, in their shapes."""
        raise NotImplementedError

    def parameter_gradients(self, fmu, fvar, y) -> dict:
        """The gradients of the summed expectations with respect to the
        likelihood's own parameters, keyed by their schema names; empty
        where training takes differences for them."""
        return {}

    def check_targets(self, y):
        """Raise ``DataError`` for targets outside the likelihood's support."""


def _as_rows(a, name) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ShapeMismatch(f"{name} must be [N, P], got shape {a.shape}")
    return a


def _as_moments(fmu, fvar):
    """Fmu as [N, P] rows, and Fvar with [N] variances as [N, 1]."""
    fvar = np.asarray(fvar, dtype=float)
    return _as_rows(fmu, "Fmu"), (fvar[:, None] if fvar.ndim == 1 else fvar)


class Gaussian(Likelihood):
    schema = Schema("gaussian", Param("variance", "positive", scalar=True, default=1.0))

    def __init__(self, variance: float = 1.0):
        variance = float(variance)
        if variance <= 0:
            raise ValueError("noise variance must be positive")
        self.variance = variance

    def log_density(self, f, y):
        return -0.5 * np.log(2.0 * np.pi * self.variance) - (y - f) ** 2 / (
            2.0 * self.variance
        )

    def expectations(self, fmu, fvar, y, grads=False):
        per_output = (
            -0.5 * np.log(2.0 * np.pi * self.variance)
            - ((y - fmu) ** 2 + fvar) / (2.0 * self.variance)
        )
        values = per_output.sum(axis=1)
        if not grads:
            return values
        return values, (y - fmu) / self.variance, np.full_like(fvar, -0.5 / self.variance)

    def parameter_gradients(self, fmu, fvar, y):
        # d/dσ² of -1/2 log(2πσ²) - ((y - μ)² + v) / 2σ², summed
        squares = float(np.sum((y - fmu) ** 2 + fvar))
        return {"variance": 0.5 * (squares / self.variance - fmu.size) / self.variance}

    def predict_moments(self, fmu, fvar):
        """Adds the noise to [N, P] variances, or to the diagonal of [N, P, P]
        and [P, N, N] blocks and of an [N, P, N, P] covariance."""
        if fvar.ndim < 3:
            return fmu, fvar + self.variance
        m = fvar.shape[-1] if fvar.ndim == 3 else fvar.shape[0] * fvar.shape[1]
        blocks = fvar.reshape(-1, m, m) + self.variance * np.eye(m)
        return fmu, blocks.reshape(fvar.shape)

    def predictive_log_density(self, fmu, fvar, y):
        var = fvar + self.variance
        return (-0.5 * np.log(2.0 * np.pi * var) - (y - fmu) ** 2 / (2.0 * var)).sum(
            axis=1
        )


class CorrelatedGaussian(Likelihood):
    """Gaussian observation noise correlated across the P outputs."""

    requires_full_output_cov = True
    schema = Schema("correlated_gaussian", Param("cov", "tril", factored=True))

    def __init__(self, cov):
        cov = np.asarray(cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ShapeMismatch(f"noise covariance must be [P, P], got {cov.shape}")
        self.cov = cov
        self._chol = cholesky(cov)

    @property
    def num_outputs(self) -> int:
        return self.cov.shape[0]

    def log_density(self, f, y):
        diff = np.asarray(y, dtype=float) - np.asarray(f, dtype=float)
        alpha = tri_solve(self._chol, diff.T)
        logdet = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        p = self.cov.shape[0]
        return -0.5 * (p * np.log(2.0 * np.pi) + logdet + np.sum(alpha * alpha, axis=0))

    def _precision(self) -> np.ndarray:
        eye = np.eye(self.cov.shape[0])
        return tri_solve(self._chol, tri_solve(self._chol, eye), transpose=True)

    def expectations(self, fmu, fvar, y, grads=False):
        # -1/2 log|2 pi S| - 1/2 (y-mu)ᵀS⁻¹(y-mu) - 1/2 Tr(S⁻¹ V_n)
        diff = y - fmu
        alpha = tri_solve(self._chol, diff.T)  # [P, N]
        p = self.cov.shape[0]
        logdet = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        precision = self._precision()
        traces = np.einsum("pq,npq->n", precision, fvar)
        quad = np.sum(alpha * alpha, axis=0)
        values = -0.5 * (p * np.log(2.0 * np.pi) + logdet + quad + traces)
        if not grads:
            return values
        dmu = tri_solve(self._chol, alpha, transpose=True).T  # S⁻¹(y - mu) per row
        return values, dmu, np.broadcast_to(-0.5 * precision, fvar.shape).copy()

    def parameter_gradients(self, fmu, fvar, y):
        # d/dS of the summed expectations is G = S⁻¹ R S⁻¹ / 2 − N S⁻¹ / 2,
        # with R = Σ (y − mu)(y − mu)ᵀ + V_n; the slot is S's factor L, so
        # (G + Gᵀ) L.
        diff = y - fmu
        precision = self._precision()
        spread = diff.T @ diff + np.sum(fvar, axis=0)
        g = 0.5 * (precision @ spread @ precision - fmu.shape[0] * precision)
        return {"cov_sqrt": (g + g.T) @ self._chol}

    def predict_moments(self, fmu, fvar):
        """Adds the noise to [N, P, P] covariances, or its diagonal to [N, P]
        marginal variances."""
        if fvar.shape[-1] != self.num_outputs:
            raise ShapeMismatch(
                f"correlated noise over {self.num_outputs} outputs, got {fvar.shape}"
            )
        if fvar.ndim == 3:
            return fmu, fvar + self.cov[None, :, :]
        return fmu, fvar + np.diag(self.cov)[None, :]

    def predictive_log_density(self, fmu, fvar, y):
        out = np.empty(fmu.shape[0])
        p = self.cov.shape[0]
        for n in range(fmu.shape[0]):
            total = fvar[n] + self.cov
            l = cholesky(total)
            alpha = tri_solve(l, y[n] - fmu[n])
            out[n] = -0.5 * (
                p * np.log(2.0 * np.pi)
                + 2.0 * np.sum(np.log(np.diag(l)))
                + alpha @ alpha
            )
        return out


class Bernoulli(Likelihood):
    """Binary observations in {0, 1} through a probit link."""

    schema = Schema("bernoulli")

    def log_density(self, f, y):
        sign = 2.0 * np.asarray(y, dtype=float) - 1.0
        return log_ndtr(sign * np.asarray(f, dtype=float))

    def expectations(self, fmu, fvar, y, grads=False):
        # Gauss-Hermite quadrature on 20 nodes per output, the sum that
        # ``gauss_hermite_expectations`` computes through ``log_density``.
        nodes, weights = gauss_hermite_nodes(DEFAULT_QUADRATURE_NODES)
        root = np.sqrt(fvar)
        f = fmu[..., None] + root[..., None] * nodes  # [N, P, Q]
        sign = 2.0 * y[..., None] - 1.0
        t = sign * f
        log_cdf = log_ndtr(t)
        values = (log_cdf @ weights).sum(axis=1)
        if not grads:
            return values
        # The derivatives of the quadrature sum itself, so that they are
        # those of the objective: with g(f) = log Phi(s f), g' = s r and
        # g'' = -r (s f + r) for r = phi(s f) / Phi(s f).  dE/dmu = E[g']
        # (Bonnet) and dE/dvar = E[g' x] / (2 sqrt(var)) on the nodes x,
        # which tends to Price's E[g'']/2 as var -> 0 and is that at 0.  On
        # 20 nodes the two forms of dE/dvar differ once var is large (about
        # 1 % at var = 16), and only this one is the sum's derivative.
        ratio = np.exp(-0.5 * t * t - 0.5 * np.log(2.0 * np.pi) - log_cdf)
        slope = sign * ratio
        with np.errstate(divide="ignore", invalid="ignore"):
            dvar = ((slope * nodes) @ weights) / (2.0 * root)
        price = -0.5 * ((ratio * (t + ratio)) @ weights)
        return values, slope @ weights, np.where(root > 0.0, dvar, price)

    def check_targets(self, y):
        if not np.all((y == 0.0) | (y == 1.0)):
            raise DataError("bernoulli targets must be 0 or 1")

    def predict_moments(self, fmu, fvar):
        prob = ndtr(fmu / np.sqrt(1.0 + fvar))
        return prob, prob * (1.0 - prob)

    def predictive_log_density(self, fmu, fvar, y):
        prob, _ = self.predict_moments(fmu, fvar)
        return np.log(np.where(y > 0.5, prob, 1.0 - prob)).sum(axis=1)


class Poisson(Likelihood):
    """Count observations with an exponential link, rate = exp(f)."""

    schema = Schema("poisson")

    def log_density(self, f, y):
        f = np.asarray(f, dtype=float)
        y = np.asarray(y, dtype=float)
        return y * f - np.exp(f) - log_factorial(y)

    def expectations(self, fmu, fvar, y, grads=False):
        rate = np.exp(fmu + 0.5 * fvar)  # E[exp(f)]
        values = (y * fmu - rate - log_factorial(y)).sum(axis=1)
        if not grads:
            return values
        return values, y - rate, -0.5 * rate

    def check_targets(self, y):
        if not np.all(np.isfinite(y) & (y >= 0.0) & (y == np.floor(y))):
            raise DataError("poisson targets must be counts: whole numbers >= 0")

    def predict_moments(self, fmu, fvar):
        mean = np.exp(fmu + 0.5 * fvar)
        var = mean + (np.exp(fvar) - 1.0) * np.exp(2.0 * fmu + fvar)
        return mean, var

    def predictive_log_density(self, fmu, fvar, y):
        nodes, weights = gauss_hermite_nodes(DEFAULT_QUADRATURE_NODES)
        f = fmu[..., None] + np.sqrt(fvar)[..., None] * nodes
        logp = self.log_density(f, y[..., None])
        return logsumexp(logp + np.log(weights), axis=-1).sum(axis=1)


# ---------------------------------------------------------------------------
# Operations


def _validate_factorized(lik, fmu, fvar, y):
    fmu, fvar = _as_moments(fmu, fvar)
    y = _as_rows(y, "Y")
    if fvar.ndim == 3:
        raise ShapeMismatch(
            f"{type(lik).__name__} factorizes over outputs and needs [N, P] "
            "variances, not per-point covariance matrices"
        )
    if fmu.shape != fvar.shape or fmu.shape != y.shape:
        raise ShapeMismatch(
            f"Fmu {fmu.shape}, Fvar {fvar.shape} and Y {y.shape} must agree"
        )
    return fmu, fvar, y


def gauss_hermite_expectations(
    lik: Likelihood, fmu, fvar, y, num_nodes: int = DEFAULT_QUADRATURE_NODES
) -> np.ndarray:
    """E[log p(y_n | f_n)] per point by ``num_nodes``-point Gauss-Hermite
    quadrature per output, for a factorized likelihood and [N, P] arrays."""
    nodes, weights = gauss_hermite_nodes(num_nodes)
    f = fmu[..., None] + np.sqrt(fvar)[..., None] * nodes  # [N, P, Q]
    values = lik.log_density(f, y[..., None])
    return (values @ weights).sum(axis=1)


def _validate(lik, fmu, fvar, y):
    """(Fmu, Fvar, Y) in the shapes ``lik.expectations`` takes."""
    if not lik.requires_full_output_cov:
        return _validate_factorized(lik, fmu, fvar, y)
    fmu = _as_rows(fmu, "Fmu")
    y = _as_rows(y, "Y")
    fvar = np.asarray(fvar, dtype=float)
    p = lik.num_outputs
    if fvar.shape != (fmu.shape[0], p, p):
        raise ShapeMismatch(
            f"correlated Gaussian needs [N, {p}, {p}] covariances, got {fvar.shape}"
        )
    return fmu, fvar, y


def variational_expectations(lik: Likelihood, fmu, fvar, y) -> np.ndarray:
    """E[log p(y_n | f_n)] under N(f_n; Fmu_n, Fvar_n), one value per point."""
    return lik.expectations(*_validate(lik, fmu, fvar, y))


def expectation_gradients(lik: Likelihood, fmu, fvar, y):
    """``variational_expectations`` and, from the same pass, the gradients
    of their sum with respect to Fmu [N, P] and Fvar ([N, P], or [N, P, P]
    for a likelihood that needs full output covariances): one row per
    point, in the form of Opper and Archambeau 2009, "The variational
    Gaussian approximation revisited"."""
    return lik.expectations(*_validate(lik, fmu, fvar, y), grads=True)


def variational_expectations_mc(
    lik: Likelihood, fmu, fvar, y, num_samples: int, rng: RngState
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate with its standard error, per data point."""
    if lik.requires_full_output_cov:
        raise UnsupportedCombination(
            "sampling is defined for factorized likelihoods only"
        )
    fmu, fvar, y = _validate_factorized(lik, fmu, fvar, y)
    eps = standard_normal(rng, (num_samples,) + fmu.shape)
    f = fmu[None] + np.sqrt(fvar)[None] * eps
    values = lik.log_density(f, y[None]).sum(axis=2)  # [S, N]
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(num_samples)
    return mean, se


def marginalize_outputs(lik: Likelihood, observed):
    """Restrict the likelihood to a subset of observed output indices."""
    observed = tuple(int(i) for i in observed)
    if not observed:
        raise EmptySubset("at least one output must be observed")
    if isinstance(lik, CorrelatedGaussian):
        idx = np.asarray(observed)
        sub = lik.cov[np.ix_(idx, idx)]
        if len(observed) == 1:
            return Gaussian(float(sub[0, 0]))
        return CorrelatedGaussian(sub)
    # Factorized likelihoods marginalize trivially.
    return lik


def predict_observation_moments(lik: Likelihood, fmu, fvar):
    """Mean and variance of y given the posterior moments of f."""
    return lik.predict_moments(*_as_moments(fmu, fvar))


def predictive_log_density(lik: Likelihood, fmu, fvar, y) -> np.ndarray:
    """log E[p(y_n | f_n)] under the posterior marginal, per data point: on
    [N, P, P] covariances for a likelihood that needs them, as checked for
    the expectations."""
    if lik.requires_full_output_cov:
        return lik.predictive_log_density(*_validate(lik, fmu, fvar, y))
    return lik.predictive_log_density(*_as_moments(fmu, fvar), _as_rows(y, "Y"))
