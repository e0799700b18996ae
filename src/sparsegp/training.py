"""Parameter store, gradients, and the stochastic training loop.

Every trainable quantity lives in a named slot of a :class:`ParameterStore`
together with a transform that maps an unconstrained free vector to the
constrained value (softplus for positive scalars and vectors, softplus on
the diagonal of lower-triangular factors).  Optimization happens entirely in
free space; models are rebuilt from the store at each objective evaluation.

Gradients come from central finite differences, except for the slots
whose exact gradients the model supplies (``Model.objective_gradients``),
by reverse mode: q (through the backward that every pair's posterior
takes from its blocks), and the mixing matrix W of a latent set, of every
SVGP and deep-GP layer the chain reaches; Z and the kernel's slots where the
pair's class gives the VJPs of its kuu and kuf beside them (inducing points
with a stationary kernel); a Gaussian likelihood's
variance and a ``Constant`` mean's value; and ``gpr``'s kernel and noise
where its kernel is stationary.  A deep GP's chain runs from its last
layer down through its sampled hidden states, and stops at a layer whose
pair has no input VJP or whose outputs correlate.  Latent inducing sets'
kernels and Z, multiscale and patch pairs, the fully-correlated points
pair's kernel, ``linear``/``white`` kernels (in ``gpr`` too),
``svgp_uncertain`` and a correlated Gaussian's covariance stay on
differences (``_fd_coordinate``), which are also the test oracle of every
exact slot.  ``gradient`` evaluates the exact gradients inside its own
call; the model is told which slots train, so that it skips the work that
reaches only frozen ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteObjective, ShapeMismatch
from .numerics import RngState
from .schema import compile_slots

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
    def free_size(self, value):
        return np.asarray(value).size

    def to_free(self, value):
        return np.asarray(value, dtype=float).reshape(-1).copy()

    def to_value(self, free, like):
        return free.reshape(np.shape(like)).copy()

    def free_gradient(self, grad, value):
        """The free-space gradient, given the gradient at the value."""
        return np.asarray(grad, dtype=float).reshape(-1)


class Positive:
    def free_size(self, value):
        return np.asarray(value).size

    def to_free(self, value):
        return softplus_inv(np.asarray(value, dtype=float)).reshape(-1)

    def to_value(self, free, like):
        return softplus(free).reshape(np.shape(like))

    def free_gradient(self, grad, value):
        return (grad * -np.expm1(-value)).reshape(-1)  # softplus' = 1 - e^-value


class TriangularPositiveDiag:
    """Packed lower triangle; the diagonal runs through softplus."""

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

    def free_gradient(self, grad, value):
        rows, cols = np.tril_indices(value.shape[0])
        packed = grad[rows, cols]
        packed[rows == cols] *= -np.expm1(-np.diag(value))  # softplus chain rule
        return packed


IDENTITY = Identity()
POSITIVE = Positive()
# Component declarations name their transforms (see the schema module).
TRANSFORMS = {
    "identity": IDENTITY, "positive": POSITIVE, "tril": TriangularPositiveDiag()
}


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
        """Add a slot; ``transform`` is a transform or its name."""
        if name in self._slots:
            raise KeyError(f"slot {name!r} already exists")
        value = np.asarray(value, dtype=float)
        if isinstance(transform, str):
            transform = TRANSFORMS[transform]
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

    def free_gradient(self, name, grad) -> np.ndarray:
        """A gradient with respect to the slot's value, in free space."""
        slot = self._slots[name]
        if np.shape(grad) != slot.value.shape:
            raise ShapeMismatch(
                f"gradient for {name!r} has shape {np.shape(grad)}, "
                f"slot has {slot.value.shape}"
            )
        return slot.transform.free_gradient(grad, slot.value)


# ---------------------------------------------------------------------------
# Gradients


def _fd_coordinate(objective, store, free, i):
    h = FD_STEP * (1.0 + abs(free[i]))
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


def gradient(objective, store: ParameterStore, exact=None) -> np.ndarray:
    """Free-space gradient of ``objective`` over the trainable slots.

    ``exact(store)`` maps slot names to the objective's gradient with
    respect to each slot's constrained value.  It is called once, at the
    current values, before any coordinate moves; the slot's transform
    carries each gradient into free space.  Every other coordinate takes a
    central difference.  The objective must be deterministic for the
    duration of the call; stochastic objectives fix their seed per
    evaluation (common random numbers), so the differences are well defined.
    """
    free = store.free_vector()
    grad = np.zeros_like(free)
    spans = store.spans()
    given = exact(store) if exact is not None else {}
    exact = {
        name: store.free_gradient(name, given[name])
        for name, _, _ in spans
        if name in given
    }
    try:
        for name, start, stop in spans:
            if name in exact:
                grad[start:stop] = exact[name]
                continue
            for i in range(start, stop):
                grad[i] = _fd_coordinate(objective, store, free, i)
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


def parameterize(model):
    """Slots and a rebuild closure for a model; see the module docstring."""
    store = ParameterStore()
    return store, compile_slots(model, "", store)


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class FitConfig:
    steps: int = 1000
    learning_rate: float = 1e-2
    batch_size: int = 0  # 0 means full batch
    seed: int = 0
    freeze: tuple[str, ...] = ()


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


def _objective_factory(build, x, y, outputs, config):
    """Per-step (objective, exact gradients) pairs of functions of the store;
    objectives fix their own seeds."""
    n = x.shape[0]
    batch_size = config.batch_size if config.batch_size > 0 else n
    batch_rng = RngState(config.seed).derive(0)

    def batches():
        while True:
            order = batch_rng.generator.permutation(n)
            for start in range(0, n, batch_size):
                yield order[start : start + batch_size]

    batch_iter = batches()

    def make(step):
        idx = next(batch_iter)
        if outputs is None:
            batch = (x[idx], y[idx])
        else:
            batch = (x[idx], outputs[idx], y[idx, 0])
        scale = n / idx.shape[0]
        rng = lambda: RngState(config.seed).derive(1, step)  # noqa: E731
        objective = lambda s: -build(s).objective(batch, rng, scale)  # noqa: E731

        def exact(s):
            trainable = s.names(trainable_only=True)
            grads = build(s).objective_gradients(batch, rng, scale, trainable)
            return {name: -g for name, g in grads.items()}

        return objective, exact

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
    unknown = [name for name in config.freeze if name not in store]
    if unknown:
        raise ConfigError(
            f"freeze names no slot {unknown[0]!r}; slots: " + ", ".join(store.names())
        )
    for name in config.freeze:
        store.set_trainable(name, False)

    make_step = _objective_factory(build, x, y, outputs, config)
    state = AdamState.zeros(store.free_vector().shape[0])
    trace: list[TraceRecord] = []
    recent: list[float] = []
    lr = config.learning_rate

    for step in range(config.steps):
        started = time.perf_counter()
        objective, exact = make_step(step)
        grad = gradient(objective, store, exact)
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
