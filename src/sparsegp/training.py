"""Parameter store, gradients, and the stochastic training loop.

Every trainable quantity lives in a named slot of a :class:`ParameterStore`
together with a transform that maps an unconstrained free vector to the
constrained value (softplus for positive scalars and vectors, softplus on
the diagonal of lower-triangular factors).  Optimization happens entirely in
free space; models are rebuilt from the store at each objective evaluation.

Gradients come from central finite differences by default.  Analytic
gradients exist for the variational parameters of a single-output SVGP with
Gaussian noise and are cross-checked against finite differences in the test
suite; they are an optimization, never a requirement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .conditionals import VariationalGaussian
from .covariances import kuf, kuu
from .errors import NonFiniteObjective, ShapeMismatch, UnsupportedCombination
from .inducing import (
    InducingPoints,
    Multiscale,
    SeparateIndependentInducingVariables,
    SharedIndependentInducingVariables,
)
from .kernels import (
    Convolutional,
    IntrinsicCoregionalization,
    Linear,
    LinearCoregionalization,
    SeparateIndependent,
    SharedIndependent,
    Stationary,
    White,
)
from .likelihoods import CorrelatedGaussian, Gaussian
from .models import (
    Constant,
    DGPModel,
    GPLayer,
    GPRModel,
    SVGPModel,
    UncertainSVGP,
)
from .numerics import RngState, cholesky, densify, tri_solve

FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# Transforms


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("softplus inverse needs positive values")
    return y + np.log(-np.expm1(-y))


class Identity:
    name = "identity"

    def free_size(self, value):
        return np.asarray(value).size

    def to_free(self, value):
        return np.asarray(value, dtype=float).reshape(-1).copy()

    def to_value(self, free, like):
        return free.reshape(np.shape(like)).copy()


class Positive:
    name = "positive"

    def free_size(self, value):
        return np.asarray(value).size

    def to_free(self, value):
        return softplus_inv(np.asarray(value, dtype=float)).reshape(-1)

    def to_value(self, free, like):
        return softplus(free).reshape(np.shape(like))


class TriangularPositiveDiag:
    """Packed lower triangle; the diagonal runs through softplus."""

    name = "tril"

    def free_size(self, value):
        m = np.asarray(value).shape[0]
        return m * (m + 1) // 2

    def to_free(self, value):
        value = np.asarray(value, dtype=float)
        m = value.shape[0]
        if value.shape != (m, m):
            raise ShapeMismatch(f"triangular slot must be square, got {value.shape}")
        rows, cols = np.tril_indices(m)
        packed = value[rows, cols].copy()
        diag_positions = rows == cols
        packed[diag_positions] = softplus_inv(packed[diag_positions])
        return packed

    def to_value(self, free, like):
        m = np.asarray(like).shape[0]
        rows, cols = np.tril_indices(m)
        out = np.zeros((m, m))
        entries = free.copy()
        diag_positions = rows == cols
        entries[diag_positions] = softplus(entries[diag_positions])
        out[rows, cols] = entries
        return out


IDENTITY = Identity()
POSITIVE = Positive()


# ---------------------------------------------------------------------------
# Parameter store


@dataclass(eq=False)
class Slot:
    value: np.ndarray
    transform: object
    trainable: bool = True


class ParameterStore:
    """Named constrained values with free-space packing."""

    def __init__(self):
        self._slots: dict[str, Slot] = {}

    def add(self, name, value, transform=IDENTITY, trainable=True):
        if name in self._slots:
            raise KeyError(f"slot {name!r} already exists")
        value = np.asarray(value, dtype=float)
        self._slots[name] = Slot(value, transform, trainable)

    def __contains__(self, name):
        return name in self._slots

    def names(self, trainable_only: bool = False):
        return [
            n
            for n, s in self._slots.items()
            if s.trainable or not trainable_only
        ]

    def get(self, name) -> np.ndarray:
        return self._slots[name].value

    def set_value(self, name, value):
        slot = self._slots[name]
        slot.value = np.asarray(value, dtype=float).reshape(slot.value.shape)

    def set_trainable(self, name, flag: bool):
        self._slots[name].trainable = bool(flag)

    def spans(self) -> list[tuple[str, int, int]]:
        """(name, start, stop) layout of the trainable free vector."""
        out, offset = [], 0
        for name in self.names(trainable_only=True):
            slot = self._slots[name]
            size = slot.transform.free_size(slot.value)
            out.append((name, offset, offset + size))
            offset += size
        return out

    def free_vector(self) -> np.ndarray:
        parts = [
            self._slots[name].transform.to_free(self._slots[name].value)
            for name in self.names(trainable_only=True)
        ]
        return np.concatenate(parts) if parts else np.zeros(0)

    def set_free_vector(self, free: np.ndarray):
        for name, start, stop in self.spans():
            slot = self._slots[name]
            slot.value = slot.transform.to_value(free[start:stop], slot.value)


# ---------------------------------------------------------------------------
# Gradient providers


@dataclass
class FiniteDifference:
    """Central differences in free space with relative step scaling."""

    step: float = FD_STEP


@dataclass
class Analytic:
    """Analytic gradients per slot name, finite differences elsewhere."""

    entries: dict = field(default_factory=dict)
    step: float = FD_STEP


def _fd_coordinate(objective, store, free, i, step):
    h = step * (1.0 + abs(free[i]))
    bumped = free.copy()
    bumped[i] = free[i] + h
    store.set_free_vector(bumped)
    upper = objective(store)
    bumped[i] = free[i] - h
    store.set_free_vector(bumped)
    lower = objective(store)
    if not (np.isfinite(upper) and np.isfinite(lower)):
        raise NonFiniteObjective(f"objective is not finite near coordinate {i}")
    return (upper - lower) / (2.0 * h)


def gradient(objective, store: ParameterStore, strategy=None) -> np.ndarray:
    """Free-space gradient over the trainable slots.

    The objective must be deterministic for the duration of the call;
    stochastic objectives fix their seed per evaluation (common random
    numbers), so the differences are well defined.
    """
    if strategy is None:
        strategy = FiniteDifference()
    free = store.free_vector()
    grad = np.zeros_like(free)
    entries = strategy.entries if isinstance(strategy, Analytic) else {}
    step = strategy.step

    analytic_values = {name: fn(store) for name, fn in entries.items()}
    try:
        for name, start, stop in store.spans():
            if name in analytic_values:
                value = np.asarray(analytic_values[name], dtype=float).reshape(-1)
                if value.shape[0] != stop - start:
                    raise ShapeMismatch(
                        f"analytic gradient for {name!r} has {value.shape[0]} "
                        f"entries, slot has {stop - start}"
                    )
                grad[start:stop] = value
                continue
            for i in range(start, stop):
                grad[i] = _fd_coordinate(objective, store, free, i, step)
    finally:
        store.set_free_vector(free)
    return grad


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    t: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, size: int):
        return cls(0, np.zeros(size), np.zeros(size))


def adam_step(
    store: ParameterStore,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """One descent step on the free vector; returns the updated state."""
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    free = store.free_vector() - lr * m_hat / (np.sqrt(v_hat) + eps)
    store.set_free_vector(free)
    return AdamState(t, m, v)


# ---------------------------------------------------------------------------
# Model parameterization
#
# parameterize(model) returns (store, build) where build(store) reconstructs
# the model from the current slot values.  Slot names mirror the structure,
# e.g. kernel.latents.0.variance or q_sqrt.1.


def _add_kernel_slots(store, prefix, kernel):
    if isinstance(kernel, Stationary):
        store.add(f"{prefix}.variance", kernel.variance, POSITIVE)
        store.add(f"{prefix}.lengthscales", kernel.lengthscales, POSITIVE)
    elif isinstance(kernel, (Linear, White)):
        store.add(f"{prefix}.variance", kernel.variance, POSITIVE)
    elif isinstance(kernel, SharedIndependent):
        _add_kernel_slots(store, f"{prefix}.base", kernel.kernel)
    elif isinstance(kernel, IntrinsicCoregionalization):
        store.add(f"{prefix}.w", kernel.w, IDENTITY)
        _add_kernel_slots(store, f"{prefix}.base", kernel.kernel)
    elif isinstance(kernel, LinearCoregionalization):
        store.add(f"{prefix}.w", kernel.w, IDENTITY)
        for i, k in enumerate(kernel.kernels):
            _add_kernel_slots(store, f"{prefix}.latents.{i}", k)
    elif isinstance(kernel, SeparateIndependent):
        for i, k in enumerate(kernel.kernels):
            _add_kernel_slots(store, f"{prefix}.latents.{i}", k)
    elif isinstance(kernel, Convolutional):
        _add_kernel_slots(store, f"{prefix}.base", kernel.kernel)
    else:
        raise UnsupportedCombination(
            f"no parameterization for kernel {type(kernel).__name__}"
        )


def _rebuild_kernel(store, prefix, kernel):
    if isinstance(kernel, Stationary):
        return type(kernel)(
            variance=float(store.get(f"{prefix}.variance")),
            lengthscales=store.get(f"{prefix}.lengthscales"),
        )
    if isinstance(kernel, (Linear, White)):
        return type(kernel)(variance=float(store.get(f"{prefix}.variance")))
    if isinstance(kernel, SharedIndependent):
        return SharedIndependent(
            _rebuild_kernel(store, f"{prefix}.base", kernel.kernel),
            kernel.output_dim,
        )
    if isinstance(kernel, IntrinsicCoregionalization):
        return IntrinsicCoregionalization(
            _rebuild_kernel(store, f"{prefix}.base", kernel.kernel),
            store.get(f"{prefix}.w"),
        )
    if isinstance(kernel, LinearCoregionalization):
        latents = [
            _rebuild_kernel(store, f"{prefix}.latents.{i}", k)
            for i, k in enumerate(kernel.kernels)
        ]
        return LinearCoregionalization(latents, store.get(f"{prefix}.w"))
    if isinstance(kernel, SeparateIndependent):
        return SeparateIndependent(
            [
                _rebuild_kernel(store, f"{prefix}.latents.{i}", k)
                for i, k in enumerate(kernel.kernels)
            ]
        )
    if isinstance(kernel, Convolutional):
        return Convolutional(
            _rebuild_kernel(store, f"{prefix}.base", kernel.kernel),
            kernel.image_shape,
            kernel.patch_shape,
        )
    raise UnsupportedCombination(
        f"no parameterization for kernel {type(kernel).__name__}"
    )


def _add_inducing_slots(store, prefix, iv):
    if isinstance(iv, Multiscale):
        store.add(f"{prefix}.z", iv.z, IDENTITY)
        store.add(f"{prefix}.scales", iv.scales, POSITIVE)
    elif isinstance(iv, InducingPoints):  # covers InducingPatches
        store.add(f"{prefix}.z", iv.z, IDENTITY)
    elif isinstance(iv, SharedIndependentInducingVariables):
        _add_inducing_slots(store, f"{prefix}.base", iv.base)
    elif isinstance(iv, SeparateIndependentInducingVariables):
        for i, member in enumerate(iv.members):
            _add_inducing_slots(store, f"{prefix}.members.{i}", member)
    else:
        raise UnsupportedCombination(
            f"no parameterization for inducing variable {type(iv).__name__}"
        )


def _rebuild_inducing(store, prefix, iv):
    if isinstance(iv, Multiscale):
        return Multiscale(store.get(f"{prefix}.z"), store.get(f"{prefix}.scales"))
    if isinstance(iv, InducingPoints):
        return type(iv)(store.get(f"{prefix}.z"))
    if isinstance(iv, SharedIndependentInducingVariables):
        return SharedIndependentInducingVariables(
            _rebuild_inducing(store, f"{prefix}.base", iv.base)
        )
    if isinstance(iv, SeparateIndependentInducingVariables):
        return SeparateIndependentInducingVariables(
            [
                _rebuild_inducing(store, f"{prefix}.members.{i}", member)
                for i, member in enumerate(iv.members)
            ]
        )
    raise UnsupportedCombination(
        f"no parameterization for inducing variable {type(iv).__name__}"
    )


def _add_likelihood_slots(store, prefix, lik):
    if isinstance(lik, Gaussian):
        store.add(f"{prefix}.variance", lik.variance, POSITIVE)
    elif isinstance(lik, CorrelatedGaussian):
        store.add(
            f"{prefix}.cov_sqrt", cholesky(lik.cov, jitter=0.0), TriangularPositiveDiag()
        )
    # Bernoulli and Poisson carry no parameters.


def _rebuild_likelihood(store, prefix, lik):
    if isinstance(lik, Gaussian):
        return Gaussian(float(store.get(f"{prefix}.variance")), lik.strategy)
    if isinstance(lik, CorrelatedGaussian):
        sqrt = store.get(f"{prefix}.cov_sqrt")
        return CorrelatedGaussian(sqrt @ sqrt.T, lik.strategy)
    return lik


def _add_q_slots(store, prefix, q):
    store.add(f"{prefix}_mu", q.q_mu, IDENTITY)
    if q.q_sqrt is None:
        raise UnsupportedCombination("training needs an explicit q_sqrt factor")
    if q.is_block:
        for i, block in enumerate(q.q_sqrt):
            store.add(f"{prefix}_sqrt.{i}", block, TriangularPositiveDiag())
    else:
        store.add(f"{prefix}_sqrt", q.q_sqrt, TriangularPositiveDiag())


def _rebuild_q(store, prefix, q):
    mu = store.get(f"{prefix}_mu")
    if q.is_block:
        sqrt = tuple(
            store.get(f"{prefix}_sqrt.{i}") for i in range(len(q.q_sqrt))
        )
    else:
        sqrt = store.get(f"{prefix}_sqrt")
    return VariationalGaussian(mu, sqrt, whiten=q.whiten)


def _add_mean_slots(store, prefix, mean):
    if isinstance(mean, Constant):
        store.add(f"{prefix}.value", mean.value, IDENTITY)


def _rebuild_mean(store, prefix, mean):
    if isinstance(mean, Constant):
        return Constant(float(store.get(f"{prefix}.value")))
    return mean


def parameterize(model):
    """Slots and a rebuild closure for a model; see the module docstring."""
    store = ParameterStore()
    if isinstance(model, GPRModel):
        _add_kernel_slots(store, "kernel", model.kernel)
        store.add("likelihood.variance", model.noise_variance, POSITIVE)

        def build(s):
            return GPRModel(
                _rebuild_kernel(s, "kernel", model.kernel),
                float(s.get("likelihood.variance")),
                model.x,
                model.y,
            )

        return store, build

    if isinstance(model, SVGPModel):
        _add_kernel_slots(store, "kernel", model.kernel)
        _add_inducing_slots(store, "inducing", model.inducing)
        _add_q_slots(store, "q", model.q)
        _add_likelihood_slots(store, "likelihood", model.likelihood)
        _add_mean_slots(store, "mean", model.mean_function)

        def build(s):
            return SVGPModel(
                _rebuild_kernel(s, "kernel", model.kernel),
                _rebuild_likelihood(s, "likelihood", model.likelihood),
                _rebuild_inducing(s, "inducing", model.inducing),
                _rebuild_q(s, "q", model.q),
                _rebuild_mean(s, "mean", model.mean_function),
                model.num_data,
                model.jitter,
            )

        return store, build

    if isinstance(model, DGPModel):
        for i, layer in enumerate(model.layers):
            _add_kernel_slots(store, f"layers.{i}.kernel", layer.kernel)
            _add_inducing_slots(store, f"layers.{i}.inducing", layer.inducing)
            _add_q_slots(store, f"layers.{i}.q", layer.q)
            _add_mean_slots(store, f"layers.{i}.mean", layer.mean_function)
        _add_likelihood_slots(store, "likelihood", model.likelihood)

        def build(s):
            layers = [
                GPLayer(
                    _rebuild_kernel(s, f"layers.{i}.kernel", layer.kernel),
                    _rebuild_inducing(s, f"layers.{i}.inducing", layer.inducing),
                    _rebuild_q(s, f"layers.{i}.q", layer.q),
                    _rebuild_mean(s, f"layers.{i}.mean", layer.mean_function),
                )
                for i, layer in enumerate(model.layers)
            ]
            return DGPModel(
                layers,
                _rebuild_likelihood(s, "likelihood", model.likelihood),
                model.num_data,
                model.num_samples,
                model.jitter,
            )

        return store, build

    if isinstance(model, UncertainSVGP):
        inner_store, inner_build = parameterize(model.svgp)
        store = inner_store
        store.add("inputs.mu", model.input_mean, IDENTITY)
        store.add("inputs.s", model.input_var, POSITIVE)

        def build(s):
            return UncertainSVGP(
                inner_build(s), s.get("inputs.mu"), s.get("inputs.s"), model.y
            )

        return store, build

    raise UnsupportedCombination(f"cannot parameterize {type(model).__name__}")


# ---------------------------------------------------------------------------
# Analytic gradients for SVGP variational parameters (Gaussian noise, P = 1)


def analytic_q_entries(model: SVGPModel, build, x, y, scale: float) -> dict:
    """Analytic free-space ELBO gradients for q_mu and q_sqrt.

    Valid for a single-output SVGP with Gaussian noise and a dense q; these
    follow from the quadratic dependence of the Gaussian expected
    log-likelihood and the KL on (m, S).
    """
    if not isinstance(model.likelihood, Gaussian) or model.q.is_block:
        raise UnsupportedCombination(
            "analytic q gradients cover dense single-output Gaussian models"
        )

    def common(store):
        m = build(store)
        kmm = kuu(m.inducing, m.kernel, m.jitter)
        kmn = kuf(m.inducing, m.kernel, np.asarray(x, dtype=float))
        luu = cholesky(densify(kmm), jitter=0.0)
        a = tri_solve(luu, kmn)
        proj = a if m.q.whiten else tri_solve(luu, a, transpose=True)
        mean = proj.T @ m.q.mean_vector + m.mean_function(x)
        resid = np.asarray(y, dtype=float).reshape(-1) - mean
        noise = m.likelihood.variance
        return m, luu, proj, resid, noise

    def grad_q_mu(store):
        m, luu, proj, resid, noise = common(store)
        data_term = scale * (proj @ resid) / noise
        if m.q.whiten:
            kl_term = m.q.mean_vector
        else:
            kl_term = tri_solve(
                luu, tri_solve(luu, m.q.mean_vector), transpose=True
            )
        return -(data_term - kl_term)  # descent direction on -ELBO

    def grad_q_sqrt(store):
        m, luu, proj, resid, noise = common(store)
        l_s = m.q.dense_sqrt()
        gram = proj @ proj.T
        data_term = -(scale / noise) * (gram @ l_s)
        diag = np.diag(l_s)
        inv_diag_term = np.zeros_like(l_s)
        np.fill_diagonal(inv_diag_term, 1.0 / diag)
        if m.q.whiten:
            kl_term = -inv_diag_term + l_s
        else:
            kuu_inv_ls = tri_solve(luu, tri_solve(luu, l_s), transpose=True)
            kl_term = kuu_inv_ls - inv_diag_term
        elbo_grad = data_term - kl_term
        rows, cols = np.tril_indices(l_s.shape[0])
        packed = elbo_grad[rows, cols]
        diag_positions = rows == cols
        packed[diag_positions] *= -np.expm1(-diag)  # softplus chain rule
        return -packed

    return {"q_mu": grad_q_mu, "q_sqrt": grad_q_sqrt}


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class FitConfig:
    steps: int = 1000
    learning_rate: float = 1e-2
    batch_size: int = 0  # 0 means full batch
    seed: int = 0
    whiten: bool = True
    freeze: tuple[str, ...] = ()
    use_analytic: bool = True


@dataclass
class TraceRecord:
    step: int
    elbo: float
    wall_ms: float
    warning: str | None = None


@dataclass
class FitResult:
    trace: list[TraceRecord]
    model: object
    store: ParameterStore


def divergence_warning(recent, value) -> str | None:
    """Flag a drop bigger than ten trailing standard deviations."""
    if len(recent) < 5:
        return None
    trailing_std = float(np.std(recent))
    if trailing_std > 0 and value < recent[-1] - 10.0 * trailing_std:
        return "objective dropped more than ten trailing deviations"
    return None


def _analytic_applicable(model, config) -> bool:
    return (
        config.use_analytic
        and isinstance(model, SVGPModel)
        and isinstance(model.likelihood, Gaussian)
        and not model.q.is_block
        and model.num_outputs == 1
    )


def _objective_factory(model, build, x, y, outputs, config):
    """Per-step (objective, strategy) pairs; objectives fix their own seeds."""
    n = x.shape[0]
    batch_size = config.batch_size if config.batch_size > 0 else n
    batch_rng = RngState(config.seed).derive(0)
    analytic = _analytic_applicable(model, config) and outputs is None

    def batches():
        while True:
            order = batch_rng.generator.permutation(n)
            for start in range(0, n, batch_size):
                yield order[start : start + batch_size]

    batch_iter = batches()

    def make(step):
        idx = next(batch_iter)
        xb, yb = x[idx], y[idx]
        scale = n / xb.shape[0]
        strategy = FiniteDifference()
        if isinstance(model, GPRModel):
            objective = lambda s: -build(s).log_marginal()  # noqa: E731
        elif isinstance(model, SVGPModel):
            if outputs is None:
                objective = lambda s: -build(s).elbo((xb, yb), scale)  # noqa: E731
                if analytic:
                    strategy = Analytic(
                        analytic_q_entries(model, build, xb, yb, scale)
                    )
            else:
                pb = outputs[idx]
                objective = lambda s: -build(s).elbo_heterotopic(  # noqa: E731
                    xb, pb, yb[:, 0], scale
                )
        elif isinstance(model, DGPModel):
            objective = lambda s: -build(s).elbo(  # noqa: E731
                (xb, yb), RngState(config.seed).derive(1, step), scale
            )
        elif isinstance(model, UncertainSVGP):
            objective = lambda s: -build(s).elbo(  # noqa: E731
                RngState(config.seed).derive(1, step)
            )
        else:
            raise UnsupportedCombination(f"cannot train {type(model).__name__}")
        return objective, strategy

    return make


def fit(model, data, config: FitConfig) -> FitResult:
    """Adam on the negative objective; returns the trace and fitted model.

    ``data`` is (X, Y), or (X, output_indices, y) for heterotopic rows.
    The trace carries the per-step objective as an ELBO estimate (the
    optimizer minimizes its negation).  A warning is recorded when the
    estimate drops by more than ten trailing standard deviations.  A step
    that makes the objective non-finite is rejected: the parameters and the
    Adam state are restored, the learning rate is halved for the rest of
    the run, and the trace records the restored value with a warning.
    """
    if len(data) == 3:
        x, outputs, y = data
        outputs = np.asarray(outputs, dtype=int)
    else:
        x, y = data
        outputs = None
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]

    store, build = parameterize(model)
    for name in config.freeze:
        store.set_trainable(name, False)

    make_step = _objective_factory(model, build, x, y, outputs, config)
    state = AdamState.zeros(store.free_vector().shape[0])
    trace: list[TraceRecord] = []
    recent: list[float] = []
    lr = config.learning_rate

    for step in range(config.steps):
        started = time.perf_counter()
        objective, strategy = make_step(step)
        grad = gradient(objective, store, strategy)
        free, previous = store.free_vector(), state
        state = adam_step(store, grad, state, lr)
        elbo_estimate = -objective(store)
        if np.isfinite(elbo_estimate):
            warning = divergence_warning(recent, elbo_estimate)
        else:
            store.set_free_vector(free)
            state = previous
            lr *= 0.5
            elbo_estimate = -objective(store)
            warning = f"non-finite step rejected; learning rate halved to {lr:g}"
        wall_ms = (time.perf_counter() - started) * 1000.0

        recent.append(elbo_estimate)
        if len(recent) > 20:
            recent.pop(0)
        trace.append(TraceRecord(step, float(elbo_estimate), wall_ms, warning))

    return FitResult(trace, build(store), store)
