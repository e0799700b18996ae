"""Model objects: exact GP regression, sparse variational GPs, deep GPs,
and uncertain-input wrappers.

Models are immutable snapshots of their parameters; every objective is a
pure function of (parameters, batch, random state).  Training (see the
``training`` module) rebuilds models from a parameter store rather than
mutating them.

An SVGP is a GP layer (``GPLayer``: kernel, inducing variable, q and mean
function) observed through a likelihood, and a deep GP is a chain of GP
layers.  Either states its data term once (``_data_term``); its ELBO
(``_elbo``) and its exact gradients (``_backward``, seeded with the term's
gradients) both read it.  The exact GP's posterior is a dense posterior too
(``ExactPosterior``).
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from .conditionals import (
    Posterior,
    PosteriorMoments,
    SingleOutputPosterior,
    VariationalGaussian,
    accumulate,
    check_q,
    create_posterior,
    layout,
)
from .covariances import kuf
from .errors import (
    ConfigError,
    DataError,
    NonFiniteValue,
    ShapeMismatch,
    UnsupportedCombination,
)
from .inducing import InducingPoints, InducingVariable
from .kernels import Convolutional, Kernel, MultioutputKernel, k_diag, k_full
from .likelihoods import (
    Gaussian,
    Likelihood,
    expectation_gradients,
    marginalize_outputs,
    predictive_log_density,
    variational_expectations,
)
from .numerics import (
    RngState,
    cholesky,
    cholesky_vjp,
    logsumexp,
    standard_normal,
    tri_solve,
    tri_solve_vjp,
)
from .schema import (
    Child,
    Param,
    Schema,
    Setting,
    check_keys,
    from_spec,
    read_settings,
)

PREDICT_SAMPLES = 100  # least propagated samples a deep GP predicts with


class MeanFunction:
    def __call__(self, x) -> np.ndarray:
        raise NotImplementedError


class Zero(MeanFunction):
    schema = Schema("zero")

    def __call__(self, x):
        return 0.0


class Constant(MeanFunction):
    schema = Schema("constant", Param("value", scalar=True, default=0.0))

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def __call__(self, x):
        return self.value


def _as_columns(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a[:, None] if a.ndim == 1 else a


class Model:
    """A model kind.  Each one declares

    - ``schema``: the model file (its tag is the file's ``kind``) and the
      parameter slots;
    - ``settings``: the keys of its config block, and ``from_config(node,
      dataset)``, the model that a block describes (``node`` maps each key
      to its value) initialized on a dataset;
    - ``objective(batch, rng, scale)``: the training objective on (x, y), or
      on (x, outputs, y) for heterotopic rows.  ``rng()`` returns the step's
      random stream afresh, so every evaluation in a step sees the same
      draws; ``scale`` weights the data term of a minibatch;
    - ``objective_gradients(batch, rng, scale, trainable=None)``: (the
      objective's value, its exact gradients), at the same ``rng``, the
      gradients with respect to the values of named parameter slots (slot
      name -> array of the value's shape), both from the forward pass that
      the gradients are taken from, which is the objective's own; training
      takes finite differences for every other slot.  A value that is not
      finite raises :class:`NonFiniteValue` before any gradient is taken
      from it.  ``trainable``, when given, names the slots that train: work
      that reaches only frozen ones may be skipped.  ``(None, {})`` by
      default: no value, and differences for every slot;
    - ``predict_moments(x, full_cov=False, full_output_cov=False)``: the
      posterior (mean, cov) of the latent outputs, marginal [N, P] by default,
      and ``predict_log_density(x, y)``: its marginals with the log
      predictive density of each row of ``y``;
      ``check_modes(full_cov, full_output_cov)`` refuses, before anything is
      computed, a mode the kind does not predict (none by default);
    - ``likelihood``, and ``input_dim``: input columns, None when free;
    - ``full_batch``: training takes every row at each step; ``heterotopic``:
      it trains on rows observing one of its ``num_outputs`` each;
      ``mixture``: predictions mix over sampled propagations, so they are
      marginal only and their density does not split by output.
    """

    settings: tuple = ()
    full_batch = False
    heterotopic = False
    mixture = False

    def objective_gradients(self, batch, rng, scale, trainable=None):
        return None, {}

    def check_modes(self, full_cov, full_output_cov):
        pass

    def predict_log_density(self, x, y):
        """The marginals (mean, var) that ``predict_moments`` gives at
        ``x``, and the log predictive density of each row of ``y``."""
        lik = self.likelihood
        foc = lik.requires_full_output_cov
        mean, cov = self.predict_moments(x, full_output_cov=foc)
        var = np.einsum("npp->np", cov) if foc else cov
        return mean, var, predictive_log_density(lik, mean, cov, y)


# Fields of a GP layer, which an SVGP is too.  q's entries sit in the model
# document and at the model's slot prefix; the mean function is filed as
# ``mean_function`` but its slots sit under ``mean.``.
KERNEL = Child("kernel", "kernel", family=Kernel)
INDUCING = Child("inducing", "inducing", family=InducingVariable)
Q = Child("", "q", family=VariationalGaussian)
MEAN = Child(
    "mean_function", "mean_function", family=MeanFunction, slot="mean", default="zero"
)
LIKELIHOOD = Child("likelihood", "likelihood", family=Likelihood)
NUM_DATA = Setting("num_data", int, None, ">= 1")
# Fields that are config keys too
JITTER = Setting("jitter", float, None, ">= 0")
NUM_SAMPLES = Setting("num_samples", int, 1, ">= 1")

# Config keys
KERNEL_KEY = Setting("kernel", Kernel)
LIKELIHOOD_KEY = Setting("likelihood", Likelihood)
LAYER_KEYS = (
    KERNEL_KEY,
    Setting("inducing", InducingVariable),
    Setting("mean", MeanFunction, "zero"),
)
Q_KEYS = (Setting("whiten", bool, True), JITTER)


def _initial_q(iv, kernel, whiten) -> VariationalGaussian:
    """q(u) at the prior: zero mean, identity factor (per latent if needed)."""
    shape = layout(iv, kernel)
    if shape.latent:
        q_sqrt = tuple(np.eye(size) for size in shape.blocks)
    else:
        q_sqrt = np.eye(shape.total)
    return VariationalGaussian(np.zeros(shape.total), q_sqrt, whiten=whiten)


class GPLayer:
    """A sparse GP over an (inducing variable, kernel) pair, with its q and
    mean function: one layer of a deep GP, and the latent GP of an SVGP."""

    schema = Schema(None, KERNEL, INDUCING, Q, MEAN)

    def __init__(
        self,
        kernel: Kernel,
        inducing: InducingVariable,
        q: VariationalGaussian,
        mean_function: MeanFunction | None = None,
    ):
        self.layout = check_q(q, inducing, kernel)
        self.kernel = kernel
        self.inducing = inducing
        self.q = q
        self.mean_function = mean_function if mean_function is not None else Zero()


def _posterior_moments(
    layer: GPLayer, post: Posterior, x, full_cov, full_output_cov
) -> PosteriorMoments:
    """Moments of a GP layer at ``x``, mean function added."""
    moments = post.predict(x, full_cov, full_output_cov)
    return PosteriorMoments(moments.mean + layer.mean_function(x), moments.cov)


def output_groups(outputs, lik: Likelihood):
    """(output index, its rows, ``lik`` marginalized to that output) for
    each output present, in index order: a heterotopic row is scored under
    its output's marginal likelihood."""
    for p in np.flatnonzero(np.bincount(outputs)):
        yield p, np.flatnonzero(outputs == p), marginalize_outputs(lik, (p,))


def _data_term(layer: GPLayer, lik, x, y, weight, outputs=None):
    """``weight`` times the expected log-likelihood of (x, y) under a GP
    layer, as ``term(rows, mean, cov, grads=False)`` of the posterior's
    marginal moments at ``x[rows]``.  With ``grads`` it returns that value,
    from the likelihood's pass that gives the term's gradients with respect
    to (mean, cov), the seed of ``Posterior.backward``, with those and the
    gradients with respect to the likelihood's parameters that have them
    (schema name -> gradient); a value that is not finite raises
    :class:`NonFiniteValue` before the latter are taken or the former
    returned.

    Heterotopic rows (``outputs`` holds the output each row observes) are
    grouped by output (``output_groups``): each group reads its output's
    column under its output's marginal likelihood, so it costs one
    vectorized expectation, and its gradients sit in that column alone."""

    def groups(rows):
        """(likelihood, index into mean and cov, targets) per row group."""
        if outputs is None:
            yield lik, slice(None), y[rows]
            return
        for p, group, part in output_groups(outputs[rows], lik):
            yield part, (group, slice(p, p + 1)), y[rows][group]

    def term(rows, mean, cov, grads=False):
        mean = mean + layer.mean_function(x[rows])
        if not grads:
            return weight * sum(
                float(np.sum(variational_expectations(part, mean[i], cov[i], t)))
                for part, i, t in groups(rows)
            )
        parts, sums = list(groups(rows)), []
        dmean, dcov, dlik = np.zeros_like(mean), np.zeros_like(cov), {}
        for part, i, t in parts:
            values, dmean[i], dcov[i] = expectation_gradients(part, mean[i], cov[i], t)
            sums.append(float(np.sum(values)))
        value = weight * sum(sums)  # the sum the objective takes
        if not np.isfinite(value):
            raise NonFiniteValue(f"the data term is {value}")
        for part, i, t in parts:
            if part is lik:  # not a correlated likelihood's one-output marginal
                accumulate(dlik, part.parameter_gradients(mean[i], cov[i], t))
        return value, weight * dmean, weight * dcov, {k: weight * g for k, g in dlik.items()}

    return term


def _elbo(posteriors, x, term, foc) -> float:
    """The data term on the last posterior's marginals at ``x`` (with full
    output covariances if ``foc``), summed over the chunks that its
    backward walks too, minus every posterior's KL."""
    data = sum(term(*chunk) for chunk in posteriors[-1].stream(x, foc))
    return data - sum(post.kl() for post in posteriors)


def _backward(prefix, layer: GPLayer, post: Posterior, x, seed, foc, prior=True):
    """Slot name -> gradient of an objective of the marginal moments at
    ``x`` of a GP layer, minus its KL: the layer's slots under ``prefix``
    and the likelihood's; the gradient with respect to the rows ``x``
    (None where the pair has no input VJP); and the objective's value, the
    data term summed over the chunks as ``_elbo`` sums it, and the KL.
    ``seed(rows, mean, cov)`` returns the data term's value (0 for a hidden
    layer) and its gradients with respect to the moments, as for
    ``Posterior.backward``, and with respect to the likelihood's parameters
    (``_data_term`` with ``grads``; ``{}`` for a hidden layer).  Its mean
    gradient is also the one of the mean function's output, so a
    ``Constant`` mean's value takes its sum; ``prior`` is as for
    ``Posterior.backward``."""
    values, dvalue, lik = [], [], {}

    def seeded(rows, mean, cov):
        value, dmean, dcov, dlik = seed(rows, mean, cov)
        values.append(value)
        dvalue.append(np.sum(dmean))
        accumulate(lik, dlik, "likelihood.")
        return dmean, dcov

    slots, inputs, kl = post.backward(x, seeded, foc, prior)
    out = accumulate({}, slots, prefix)
    if isinstance(layer.mean_function, Constant):
        out[prefix + "mean.value"] = float(np.sum(dvalue))
    return {**out, **lik}, inputs, sum(values), kl


def _scale(num_data, batch_size, scale) -> float:
    """The weight of a batch's data term: ``scale``, else N / batch size."""
    if scale is not None:
        return float(scale)
    return (num_data if num_data is not None else batch_size) / batch_size


def _layer_parts(node, x, whiten):
    """(kernel, inducing, q, mean function) of a config block."""
    kernel = from_spec(node["kernel"], Kernel)
    iv = from_spec(node["inducing"], InducingVariable, (x, kernel))
    mean = from_spec(node["mean"], MeanFunction)
    return kernel, iv, _initial_q(iv, kernel, whiten), mean


# ---------------------------------------------------------------------------
# Exact Gaussian process regression


class ExactPosterior(SingleOutputPosterior):
    """The exact GP's posterior as the points pair at Z = X (Titsias 2009):
    Kuu = Kff + noise I, factored here with no jitter (an escalated one is
    kept in ``factor_jitter``), and whitened, deterministic q = (L⁻¹y, no
    factor).  Its moments, in every mode, and their backward are the
    single-output pair's.  It is not registered: its Kuf is the kernel's
    own gram, where a ``conv`` kernel is its summed-patch process."""

    def __init__(self, kernel, noise_variance, x, y):
        applied = []
        kyy = k_full(kernel, x) + noise_variance * np.eye(x.shape[0])
        factor = cholesky(kyy, applied=applied)
        q = VariationalGaussian(tri_solve(factor, y[:, 0]), None, whiten=True)
        super().__init__(InducingPoints(x), kernel, q, factor=factor)
        self.factor_jitter = applied[0]

    def _blocks(self, x, full_cov, full_output_cov):
        kmn = k_full(self.kernel, self.inducing.z, x)[:, :, None]  # [N, Nnew, 1]
        knn = k_full(self.kernel, x)[None] if full_cov else k_diag(self.kernel, x)[:, None]
        return kmn, knn


class GPRModel(Model):
    """Exact GP regression with a Gaussian likelihood; the reference model."""

    schema = Schema(
        "gpr",
        KERNEL,
        Param("noise_variance", "positive", scalar=True, slot="likelihood.variance"),
        Setting("x"),
        Setting("y"),
    )
    settings = (KERNEL_KEY, Setting("likelihood", Likelihood, "gaussian"))
    full_batch = True

    def __init__(self, kernel: Kernel, noise_variance: float, x, y):
        noise_variance = float(noise_variance)
        if noise_variance < 0:
            raise ValueError("noise variance must be non-negative")
        if isinstance(kernel, MultioutputKernel) and not isinstance(kernel, Convolutional):
            raise UnsupportedCombination(
                f"gpr needs a single-output kernel or conv, got {type(kernel).__name__}"
            )
        self.kernel = kernel
        self.noise_variance = noise_variance
        self.x = _as_columns(x)
        self.y = _as_columns(y)
        if self.y.shape != (self.x.shape[0], 1):
            raise ShapeMismatch(
                f"targets must be [N, 1], got {self.y.shape} for N={self.x.shape[0]}"
            )

    @cached_property
    def posterior(self) -> ExactPosterior:
        """The factor of Kff + noise I, built once for this snapshot."""
        return ExactPosterior(self.kernel, self.noise_variance, self.x, self.y)

    def log_marginal(self) -> float:
        """log N(y; 0, Kff + noise I) via Cholesky."""
        n = self.x.shape[0]
        post = self.posterior
        alpha = post.q.q_mu
        return float(
            -0.5 * n * np.log(2.0 * np.pi)
            - np.sum(np.log(np.diag(post.factor)))
            - 0.5 * (alpha @ alpha)
        )

    def predict(self, xnew, full_cov: bool = False) -> PosteriorMoments:
        return self.posterior.predict(_as_columns(xnew), full_cov)

    def objective_gradients(self, batch, rng, scale, trainable=None):
        """The log marginal likelihood and its gradients (Rasmussen &
        Williams 2006, eq. 5.9) where the kernel is stationary with dk/dr²:
        the kernel's slots and the noise's.  log p = −Σ log Lᵢᵢ − ½αᵀα + c
        with α = L⁻¹y gives ∂L = −diag(1/Lᵢᵢ) plus the triangular solve's
        pullback of −α; the Cholesky backward carries it to Kff + noise I,
        whose gradient goes to the kernel through ``kuu_vjp`` and whose
        trace is the noise's."""
        value, post = self.log_marginal(), self.posterior
        if not np.isfinite(value):
            raise NonFiniteValue(f"the log marginal likelihood is {value}")
        if not post.input_vjp:
            return value, {}
        factor, alpha = post.factor, post.q.q_mu
        dl, _ = tri_solve_vjp(factor, alpha, -alpha)
        dkyy = cholesky_vjp(factor, dl - np.diag(1.0 / np.diag(factor)), post.factor_jitter)
        grads = post.kuu_vjp(post.inducing, self.kernel, dkyy)
        del grads["inducing.z"]  # the training inputs, which are data
        return value, {**grads, "likelihood.variance": float(np.trace(dkyy))}

    @classmethod
    def from_config(cls, node, dataset):
        kernel = from_spec(node["kernel"], Kernel)
        likelihood = from_spec(node["likelihood"], Likelihood)
        if not isinstance(likelihood, Gaussian):
            raise ConfigError("gpr supports a Gaussian likelihood only")
        if dataset.y is None or dataset.y.shape[1] != 1:
            raise DataError("gpr needs a single y0 output column")
        return cls(kernel, likelihood.variance, dataset.x, dataset.y)

    @property
    def likelihood(self):
        return Gaussian(max(self.noise_variance, 1e-300))

    @property
    def input_dim(self):
        return self.x.shape[1]

    def objective(self, batch, rng, scale):
        return self.log_marginal()

    def check_modes(self, full_cov, full_output_cov):
        if full_output_cov:
            raise ConfigError("gpr supports --full-cov without output modes")

    def predict_moments(self, x, full_cov=False, full_output_cov=False):
        self.check_modes(full_cov, full_output_cov)
        pm = self.predict(x, full_cov)
        return pm.mean, pm.cov


# ---------------------------------------------------------------------------
# Sparse variational GP


class SVGPModel(GPLayer, Model):
    """Sparse variational GP: a GP layer observed through a likelihood."""

    schema = Schema("svgp", KERNEL, INDUCING, Q, LIKELIHOOD, MEAN, NUM_DATA, JITTER)
    settings = (*LAYER_KEYS, LIKELIHOOD_KEY, *Q_KEYS)
    heterotopic = True

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
        super().__init__(kernel, inducing, q, mean_function)
        self.likelihood = likelihood
        self.num_data = num_data
        self.jitter = jitter

    @property
    def num_outputs(self) -> int:
        return self.layout.outputs

    @classmethod
    def from_config(cls, node, dataset):
        kernel, iv, q, mean = _layer_parts(node, dataset.x, node["whiten"])
        likelihood = from_spec(node["likelihood"], Likelihood)
        return cls(kernel, likelihood, iv, q, mean, dataset.x.shape[0], node["jitter"])

    @property
    def input_dim(self):
        return self.layout.columns

    def objective(self, batch, rng, scale):
        if len(batch) == 3:
            return self.elbo_heterotopic(*batch, scale)
        return self.elbo(batch, scale)

    def predict_moments(self, x, full_cov=False, full_output_cov=False):
        pm = self.predict_f(x, full_cov, full_output_cov)
        return pm.mean, pm.cov

    def objective_gradients(self, batch, rng, scale, trainable=None):
        """The ELBO and its gradients: the chain rule of Hensman et al.
        2013 (arXiv:1309.6835) from the data term's gradients with respect
        to the marginal moments, through the posterior's backward, minus the
        KL's.  q's, and W's for a latent set that mixes with one; Z's and
        the kernel's where the pair has the VJPs of its kuu and kuf (points
        with a stationary kernel, also as a latent set's member with its
        latent kernel) and one of them trains; a Gaussian likelihood's
        variance, a correlated Gaussian's covariance on homotopic rows and a
        ``Constant`` mean's value."""
        posteriors, x, term, foc = self._data(batch, scale)
        prior = trainable is None or any(
            name.startswith(("inducing.", "kernel.")) and name != "kernel.w"
            for name in trainable
        )
        seed = partial(term, grads=True)
        grads, _, data, kl = _backward("", self, posteriors[-1], x, seed, foc, prior)
        return data - kl, grads

    def _data(self, batch, scale):
        """(posteriors, x, the data term, whether it reads full output
        covariances) of homotopic (x, y) rows, or of heterotopic
        (x, outputs, y) rows, which must align and each observe an output
        index of the model."""
        x = np.asarray(batch[0], dtype=float)
        if len(batch) == 2:
            y, outputs = _as_columns(batch[1]), None
        else:
            outputs = np.asarray(batch[1], dtype=int)
            y = np.asarray(batch[2], dtype=float).reshape(-1, 1)
            if not (x.shape[0] == outputs.shape[0] == y.shape[0]):
                raise ShapeMismatch("heterotopic rows must align")
            bad = outputs[(outputs < 0) | (outputs >= self.num_outputs)]
            if bad.size:
                raise ShapeMismatch(
                    f"output index {bad[0]} is outside [0, {self.num_outputs})"
                )
        foc = outputs is None and self.likelihood.requires_full_output_cov
        weight = _scale(self.num_data, x.shape[0], scale)
        term = _data_term(self, self.likelihood, x, y, weight, outputs)
        return [self.posterior], x, term, foc

    @cached_property
    def posterior(self) -> Posterior:
        """Kuu factored once for this snapshot; the ELBO's data term and KL,
        the exact gradients and every prediction read it."""
        return create_posterior(self.inducing, self.kernel, self.q, self.jitter)

    def predict_f(
        self, xnew, full_cov: bool = False, full_output_cov: bool = False
    ) -> PosteriorMoments:
        return _posterior_moments(self, self.posterior, xnew, full_cov, full_output_cov)

    def elbo(self, batch, scale: float | None = None) -> float:
        """Scaled expected log-likelihood minus the KL to the prior."""
        return _elbo(*self._data(batch, scale))

    def elbo_heterotopic(self, x, outputs, y, scale: float | None = None) -> float:
        """ELBO for rows observing one output index each; ``outputs`` holds
        the observed output index per row."""
        return _elbo(*self._data((x, outputs, y), scale))


def optimal_q(model: SVGPModel, x, y) -> VariationalGaussian:
    """Closed-form optimal q(u) for a Gaussian likelihood at fixed parameters.

    With A = Luu⁻¹Kuf and B = I + A Aᵀ / noise:
    S* = Luu B⁻¹ Luuᵀ and m* = Luu B⁻¹ A y / noise.
    """
    if not isinstance(model.likelihood, Gaussian):
        raise UnsupportedCombination("the optimum is closed form only for Gaussian noise")
    if model.layout.latent:
        raise UnsupportedCombination(
            "closed-form optimum is implemented for dense posteriors"
        )
    x = np.asarray(x, dtype=float)
    y = _as_columns(y)

    luu = model.posterior.factor
    # Kuf stacked as [M~, NP] against the point-major targets
    kmn = kuf(model.inducing, model.kernel, x).reshape(model.layout.total, -1)
    targets = y.reshape(-1) - model.mean_function(x)

    noise = model.likelihood.variance
    a = tri_solve(luu, kmn)
    b = np.eye(a.shape[0]) + (a @ a.T) / noise
    lb = cholesky(b)

    ay = a @ targets
    b_inv_ay = tri_solve(lb, tri_solve(lb, ay), transpose=True)
    c = tri_solve(lb, luu.T)  # S* = Cᵀ C

    if model.q.whiten:
        mu = b_inv_ay / noise
        s = tri_solve(lb, tri_solve(lb, np.eye(a.shape[0])), transpose=True)
    else:
        mu = luu @ b_inv_ay / noise
        s = c.T @ c
    return VariationalGaussian(mu, cholesky(s), whiten=model.q.whiten)


# ---------------------------------------------------------------------------
# Deep GP


class DGPModel(Model):
    """Deep GP: layers chained by sampling, final layer handled analytically.

    The inter-layer transitions are noiseless; each hidden state is a
    reparameterized draw from that layer's posterior marginals, and the
    expected log-likelihood is evaluated in closed form (or by quadrature)
    on the final layer's moments.
    """

    schema = Schema(
        "dgp",
        Child("layers", "layers", many=True, family=GPLayer),
        LIKELIHOOD,
        NUM_DATA,
        NUM_SAMPLES,
        JITTER,
    )
    settings = (
        LIKELIHOOD_KEY,
        Setting("layers", GPLayer),
        *Q_KEYS,
        NUM_SAMPLES,
    )
    mixture = True

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
            width, needed = below.layout.outputs, above.layout.columns
            if needed is not None and needed != width:
                raise ShapeMismatch(
                    f"layer producing {width} columns feeds a layer expecting {needed}"
                )
        self.layers = layers
        self.likelihood = likelihood
        self.num_data = num_data
        self.num_samples = int(num_samples)
        self.jitter = jitter

    @classmethod
    def from_config(cls, node, dataset):
        specs = node["layers"]
        if not isinstance(specs, list) or not specs:
            raise ConfigError("dgp needs a non-empty layers list")
        layers = []
        for spec in specs:
            if not isinstance(spec, dict):
                raise ConfigError(f"dgp layer {spec!r} must be a block")
            check_keys(spec, [s.key for s in LAYER_KEYS], "layer")
            spec = read_settings(spec, LAYER_KEYS, "layer")
            layers.append(GPLayer(*_layer_parts(spec, dataset.x, node["whiten"])))
        likelihood = from_spec(node["likelihood"], Likelihood)
        try:
            return cls(
                layers, likelihood, dataset.x.shape[0], node["num_samples"], node["jitter"]
            )
        except ShapeMismatch as err:  # the layers' widths, as configured
            raise ConfigError(str(err)) from err

    @property
    def input_dim(self):
        return self.layers[0].layout.columns

    def objective(self, batch, rng, scale):
        return self.elbo(batch, rng(), scale)

    def objective_gradients(self, batch, rng, scale, trainable=None):
        """The ELBO and its gradients by reverse mode through the
        reparameterized samples (Salimbeni & Deisenroth 2017,
        arXiv:1705.08933), at the draws that ``rng()`` makes, the ones the
        objective sees.  The ELBO is the last layer's data term minus every
        layer's KL, each from the layer's backward where the chain reaches
        it.

        The last layer's slots are an SVGP's, at the propagated inputs.  A
        hidden state h = mean + sqrt(var)·eps (+ the mean function) pulls
        its gradient back to that layer's marginal moments, with
        ∂var = ∂h·eps / 2 sqrt(var) (0 where var was floored), and its
        layer's backward gives that layer's slots and the gradient with
        respect to the layer below.  A layer with a pair that has no input
        VJP (of a latent set, any member's), or whose outputs correlate,
        stops the chain: the layers below it keep finite differences."""
        record = []
        posteriors, h, term, foc = self._data(batch, rng(), scale, record)
        last = len(self.layers) - 1
        kls = [None] * len(self.layers)
        seed = partial(term, grads=True)
        grads, dh, data, kls[last] = _backward(
            f"layers.{last}.", self.layers[-1], posteriors[-1], h, seed, foc
        )
        for i in reversed(range(last)):
            draws = record[i::last]  # this layer's, one per sample
            if dh is None or any(var is None for _, _, var in draws):
                break
            inputs, eps, var = (np.concatenate(parts) for parts in zip(*draws))

            def seed(rows, mean, cov, dh=dh, eps=eps, var=var):
                with np.errstate(divide="ignore", invalid="ignore"):
                    dvar = dh[rows] * eps[rows] / (2.0 * np.sqrt(var[rows]))
                return 0.0, dh[rows], np.where(var[rows] > 0.0, dvar, 0.0), {}

            layer, dh, _, kls[i] = _backward(
                f"layers.{i}.", self.layers[i], posteriors[i], inputs, seed, False
            )
            grads.update(layer)
        kl = sum(post.kl() if k is None else k for k, post in zip(kls, posteriors))
        return data - kl, grads

    def _data(self, batch, rng, scale, record=None):
        """(the layers' posteriors, inputs, data term, full output
        covariances) of the last layer: the batch's ``num_samples``
        propagations stacked, each row weighted by 1 / ``num_samples``.
        ``record`` is as for ``propagate``."""
        x, y = batch
        x = np.asarray(x, dtype=float)
        posteriors = self._posteriors()
        h = np.concatenate(
            [self.propagate(x, rng, posteriors, record) for _ in range(self.num_samples)]
        )
        y = np.tile(_as_columns(y), (self.num_samples, 1))
        weight = _scale(self.num_data, x.shape[0], scale) / self.num_samples
        lik = self.likelihood
        term = _data_term(self.layers[-1], lik, h, y, weight)
        return posteriors, h, term, lik.requires_full_output_cov

    def check_modes(self, full_cov, full_output_cov):
        if full_cov or full_output_cov:
            raise ConfigError("deep models emit marginal predictions only")

    def predict_moments(self, x, full_cov=False, full_output_cov=False):
        self.check_modes(full_cov, full_output_cov)
        samples = max(self.num_samples, PREDICT_SAMPLES)
        return self.predict_f(x, RngState(0), samples)

    def predict_log_density(self, x, y):
        """``predict_moments``'s mixture marginals and the log density of
        the mixture, from one pass over the propagated samples."""
        samples = max(self.num_samples, PREDICT_SAMPLES)
        return self._mixture(x, RngState(0), samples, y)

    def _posteriors(self) -> list[Posterior]:
        """Each layer's posterior; built once per ``elbo``, ``predict_f`` or
        ``predict_log_density`` call and shared by every propagated sample."""
        return [
            create_posterior(layer.inducing, layer.kernel, layer.q, self.jitter)
            for layer in self.layers
        ]

    def propagate(self, x, rng: RngState, posteriors=None, record=None):
        """Sample hidden states through all but the last layer; pass the
        layers' ``posteriors`` when they are built already.  ``record``, a
        list when given, receives each hidden layer's (inputs, eps,
        variances) as ``Posterior.draw`` gives them."""
        posteriors = self._posteriors() if posteriors is None else posteriors
        h = np.asarray(x, dtype=float)
        for layer, post in zip(self.layers[:-1], posteriors):
            draws, eps, var = post.draw(h, rng, 1)
            if record is not None:
                record.append((h, eps[0], var))
            h = draws[0] + layer.mean_function(h)
        return h

    def elbo(self, batch, rng: RngState, scale: float | None = None) -> float:
        return _elbo(*self._data(batch, rng, scale))

    def predict_f(self, xnew, rng: RngState, num_samples: int = 100):
        """Posterior marginals by mixing over propagated samples."""
        return self._mixture(xnew, rng, num_samples)

    def _mixture(self, x, rng, num_samples, y=None):
        """Mean and variance of the equal-weight mixture of the last layer's
        marginals at ``num_samples`` propagations and, given ``y``, the log
        density of each of its rows under the mixture: one pass over the
        draws, each written into one [S, ...] array per quantity.  Each draw
        is scored on the covariances the likelihood reads, [N, P, P] for
        correlated noise, before they are reduced to marginals."""
        posteriors = self._posteriors()
        foc = self.likelihood.requires_full_output_cov
        for i in range(num_samples):
            h = self.propagate(x, rng, posteriors)
            mean, cov = _posterior_moments(self.layers[-1], posteriors[-1], h, False, foc)
            if i == 0:
                means = np.empty((num_samples, *mean.shape))
                variances = np.empty_like(means)
                parts = np.empty((num_samples, mean.shape[0]))
            means[i] = mean
            variances[i] = np.einsum("npp->np", cov) if foc else cov
            if y is not None:
                parts[i] = predictive_log_density(self.likelihood, mean, cov, y)
        mixed = means.mean(axis=0), variances.mean(axis=0) + means.var(axis=0)
        if y is None:
            return mixed
        del means, variances  # before logsumexp's own [S, N] temporaries
        return (*mixed, logsumexp(parts, axis=0) - np.log(num_samples))


# ---------------------------------------------------------------------------
# Uncertain inputs


class UncertainSVGP(Model):
    """SVGP whose training inputs carry per-point Gaussian posteriors.

    Each input has q_n(x_n) = N(mu_n, diag(s_n)) against a standard-normal
    prior; the data-fit term is estimated at reparameterized input samples
    while both KL terms stay in closed form.
    """

    # The inner SVGP is a whole model document in the file, while its slots
    # keep their unprefixed names.
    schema = Schema(
        "svgp_uncertain",
        Child("svgp", "svgp", family=SVGPModel, slot="", document=True),
        Param("input_mean", slot="inputs.mu"),
        Param("input_var", "positive", slot="inputs.s"),
        Setting("y"),
    )
    settings = (
        *SVGPModel.settings,
        Setting("input_variance", float, 0.01, "> 0"),
    )
    full_batch = True

    def __init__(self, svgp: SVGPModel, input_mean, input_var, y):
        self.svgp = svgp
        self.input_mean = _as_columns(input_mean)
        self.input_var = _as_columns(input_var)
        self.y = _as_columns(y)
        if self.input_var.shape != self.input_mean.shape:
            raise ShapeMismatch("input means and variances must align")
        if np.any(self.input_var <= 0):
            raise ValueError("input variances must be strictly positive")

    @classmethod
    def from_config(cls, node, dataset):
        svgp = SVGPModel.from_config(node, dataset)
        if dataset.y is None:
            raise DataError("uncertain-input training needs output columns")
        input_var = np.full(dataset.x.shape, node["input_variance"])
        return cls(svgp, dataset.x, input_var, dataset.y)

    @property
    def likelihood(self):
        return self.svgp.likelihood

    @property
    def input_dim(self):
        return self.input_mean.shape[1]

    def objective(self, batch, rng, scale):
        return self.elbo(rng())

    def predict_moments(self, x, full_cov=False, full_output_cov=False):
        return self.svgp.predict_moments(x, full_cov, full_output_cov)

    def input_kl(self) -> float:
        """Sum of per-point KL(N(mu, diag(s)) || N(0, I)) in closed form."""
        s = self.input_var
        mu = self.input_mean
        return float(0.5 * np.sum(s + mu * mu - 1.0 - np.log(s)))

    def elbo(self, rng: RngState) -> float:
        """The SVGP's ELBO at inputs drawn from their posteriors, each row
        weighted 1, minus the inputs' KL."""
        eps = standard_normal(rng, self.input_mean.shape)
        x_tilde = self.input_mean + np.sqrt(self.input_var) * eps
        return self.svgp.elbo((x_tilde, self.y), 1.0) - self.input_kl()
