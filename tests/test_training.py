import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegp import (
    FitConfig,
    Gaussian,
    GPRModel,
    InducingPoints,
    ParameterStore,
    RngState,
    SquaredExponential,
    SVGPModel,
    VariationalGaussian,
    adam_step,
    fit,
    gradient,
    optimal_q,
    parameterize,
    standard_normal,
)
from sparsegp.errors import NonFiniteObjective
from sparsegp.training import (
    IDENTITY,
    POSITIVE,
    AdamState,
    TriangularPositiveDiag,
    softplus,
    softplus_inv,
)

from conftest import desk_regression, random_lower


class TestTransforms:
    def test_softplus_round_trip(self):
        values = np.array([1e-6, 0.1, 1.0, 50.0, 1e3])
        np.testing.assert_allclose(softplus(softplus_inv(values)), values, rtol=1e-12)

    def test_triangular_round_trip(self):
        rng = RngState(0)
        l = random_lower(rng, 5)
        tr = TriangularPositiveDiag()
        np.testing.assert_allclose(tr.to_value(tr.to_free(l), l), l, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.floats(-50, 50))
    def test_positive_transform_survives_any_free_step(self, seed, step):
        store = ParameterStore()
        store.add("v", np.array([0.5, 2.0]), POSITIVE)
        store.set_free_vector(store.free_vector() + step)
        assert np.all(store.get("v") > 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_triangular_transform_survives_random_steps(self, seed):
        rng = RngState(seed)
        store = ParameterStore()
        store.add("l", random_lower(rng, 4), TriangularPositiveDiag())
        free = store.free_vector()
        store.set_free_vector(free + 10.0 * standard_normal(rng.derive(1), free.shape))
        value = store.get("l")
        assert np.all(np.diag(value) > 0)
        assert np.allclose(value, np.tril(value))


class TestStore:
    def test_frozen_slots_leave_the_free_vector(self):
        store = ParameterStore()
        store.add("a", np.zeros(3))
        store.add("b", np.ones(2))
        assert store.free_vector().shape == (5,)
        store.set_trainable("a", False)
        assert store.free_vector().shape == (2,)
        assert [name for name, *_ in store.spans()] == ["b"]

    def test_duplicate_slot_rejected(self):
        store = ParameterStore()
        store.add("a", np.zeros(1))
        with pytest.raises(KeyError):
            store.add("a", np.zeros(1))

    def test_unknown_transform_name_rejected_at_add(self):
        store = ParameterStore()
        with pytest.raises(KeyError, match="postive"):
            store.add("a", np.ones(1), "postive")
        assert "a" not in store


class TestGradient:
    def test_exact_on_quadratic(self):
        store = ParameterStore()
        store.add("theta", np.array([1.0, -2.0, 0.5]))
        h = np.diag([2.0, 1.0, 3.0])

        def objective(s):
            t = s.get("theta")
            return 0.5 * t @ h @ t

        grad = gradient(objective, store)
        np.testing.assert_allclose(grad, h @ np.array([1.0, -2.0, 0.5]), atol=1e-9)

    def test_frozen_parameters_are_excluded(self):
        store = ParameterStore()
        store.add("a", np.array([1.0]))
        store.add("b", np.array([2.0]))
        store.set_trainable("a", False)
        grad = gradient(lambda s: float(s.get("a")[0] ** 2 + s.get("b")[0] ** 2), store)
        assert grad.shape == (1,)
        assert grad[0] == pytest.approx(4.0, abs=1e-8)

    def test_nonfinite_objective_reported(self):
        store = ParameterStore()
        store.add("a", np.array([1.0]))
        with pytest.raises(NonFiniteObjective):
            gradient(lambda s: float("nan"), store)

    def test_exact_gradients_enter_through_the_slot_transforms(self):
        rng = RngState(4)
        store = ParameterStore()
        store.add("a", standard_normal(rng, 3))
        store.add("v", np.array([0.3, 2.0]), POSITIVE)
        store.add("l", random_lower(rng.derive(1), 3), TriangularPositiveDiag())
        w = standard_normal(rng.derive(2), (3, 3))

        def objective(s):
            return float(
                s.get("a") @ s.get("a") + np.sum(np.log(s.get("v")))
                + np.sum(w * s.get("l"))
            )

        exact = {"a": 2.0 * store.get("a"), "v": 1.0 / store.get("v"), "l": w}
        np.testing.assert_allclose(
            gradient(objective, store, lambda s: exact), gradient(objective, store),
            atol=1e-8,
        )

    def test_store_restored_after_evaluation(self):
        store = ParameterStore()
        store.add("a", np.array([1.5]))
        gradient(lambda s: float(s.get("a")[0] ** 2), store)
        assert store.get("a")[0] == 1.5


def _svgp_for_gradients(seed, whiten):
    rng = RngState(seed)
    n, m = 9, 4
    x = np.sort(rng.generator.uniform(0, 4, n))[:, None]
    y = np.sin(x) + 0.1 * standard_normal(rng.derive(1), (n, 1))
    z = np.linspace(0.2, 3.8, m)[:, None]
    q = VariationalGaussian(
        standard_normal(rng.derive(2), m),
        random_lower(rng.derive(3), m),
        whiten=whiten,
    )
    model = SVGPModel(
        SquaredExponential(
            float(rng.generator.uniform(0.5, 1.5)),
            float(rng.generator.uniform(0.4, 1.2)),
        ),
        Gaussian(float(rng.generator.uniform(0.05, 0.3))),
        InducingPoints(z),
        q,
        num_data=n,
        jitter=1e-8,
    )
    return model, x, y


class TestAnalyticGradients:
    @pytest.mark.parametrize("whiten", [False, True])
    def test_q_gradients_match_finite_differences(self, whiten):
        # Twenty random configurations per parameter group.
        for seed in range(20):
            model, x, y = _svgp_for_gradients(seed, whiten)
            store, build = parameterize(model)

            def objective(s):
                return -build(s).elbo((x, y), scale=1.0)

            _, grads = model.objective_gradients((x, y), None, 1.0)
            exact = {name: -g for name, g in grads.items()}
            fd = gradient(objective, store)
            an = gradient(objective, store, lambda s: exact)
            spans = {name: (a, b) for name, a, b in store.spans()}
            for group in ("q_mu", "q_sqrt"):
                lo, hi = spans[group]
                denom = np.maximum(np.abs(fd[lo:hi]), 1e-7 / 1e-4)
                rel = np.abs(an[lo:hi] - fd[lo:hi]) / denom
                assert rel.max() < 1e-4, (group, seed, rel.max())


class TestAdam:
    def test_zero_gradient_is_a_no_op(self):
        store = ParameterStore()
        store.add("a", np.array([1.0, 2.0]))
        state = AdamState.start(store)
        adam_step(store, np.zeros(2), state, lr=0.1)
        np.testing.assert_array_equal(store.get("a"), [1.0, 2.0])

    def test_constant_gradient_moves_against_it(self):
        store = ParameterStore()
        store.add("a", np.array([0.0]))
        state = AdamState.start(store)
        for _ in range(10):
            state = adam_step(store, np.array([3.0]), state, lr=0.05)
        assert store.get("a")[0] < 0

    def test_converges_on_quadratic(self):
        store = ParameterStore()
        store.add("theta", np.array([4.0, -3.0]))
        h = np.diag([1.0, 5.0])
        target = np.array([1.0, 2.0])

        def objective(s):
            d = s.get("theta") - target
            return 0.5 * d @ h @ d

        state = AdamState.start(store)
        for _ in range(5000):
            grad = gradient(objective, store)
            state = adam_step(store, grad, state, lr=1e-2)
        np.testing.assert_allclose(store.get("theta"), target, atol=1e-4)


class TestFit:
    def test_all_frozen_gives_flat_trace(self):
        model, x, y = _svgp_for_gradients(0, whiten=True)
        store, _ = parameterize(model)
        config = FitConfig(
            steps=5, learning_rate=1e-2, seed=0,
            freeze=tuple(store.names()),
        )
        result = fit(model, (x, y), config)
        values = [r.elbo for r in result.trace]
        assert np.ptp(values) == 0.0

    def test_trace_is_seed_deterministic(self):
        model, x, y = _svgp_for_gradients(1, whiten=True)
        config = FitConfig(steps=8, learning_rate=1e-2, batch_size=4, seed=3)
        a = fit(model, (x, y), config)
        b = fit(model, (x, y), config)
        assert [r.elbo for r in a.trace] == [r.elbo for r in b.trace]

    def test_converges_to_the_closed_form_optimum(self):
        x, y = desk_regression()
        m = 10
        z = np.linspace(x.min(), x.max(), m)[:, None]
        kernel = SquaredExponential(1.0, 0.8)
        q0 = VariationalGaussian(np.zeros(m), np.eye(m), whiten=True)
        model = SVGPModel(
            kernel, Gaussian(0.01), InducingPoints(z), q0, num_data=30, jitter=1e-10
        )
        best = optimal_q(model, x, y)
        target = SVGPModel(
            kernel, Gaussian(0.01), InducingPoints(z), best,
            num_data=30, jitter=1e-10,
        ).elbo((x, y))

        store, _ = parameterize(model)
        hyper = tuple(n for n in store.names() if not n.startswith("q"))
        # Constant-rate Adam limit-cycles around the optimum; a short
        # decaying schedule settles it.
        current = model
        for lr, steps in [(5e-2, 800), (1e-2, 800), (2e-3, 1200)]:
            config = FitConfig(steps=steps, learning_rate=lr, seed=0, freeze=hyper)
            current = fit(current, (x, y), config).model
        final = current.elbo((x, y))
        assert final <= target + 1e-9
        assert abs(final - target) < 1e-3

    def test_gpr_hyperparameters_can_be_fit(self):
        x, y = desk_regression()
        model = GPRModel(SquaredExponential(0.5, 0.3), 0.5, x, y)
        before = model.log_marginal()
        result = fit(model, (x, y), FitConfig(steps=150, learning_rate=0.05, seed=0))
        assert result.model.log_marginal() > before

    @pytest.mark.parametrize("path", ["fused", "fallback"])
    def test_non_finite_step_is_rejected(self, monkeypatch, path):
        import sparsegp.training as training

        model, x, y = _svgp_for_gradients(2, whiten=True)
        real_factory, real_adam = training._objective_factory, training.adam_step
        real_expectations = Gaussian.expectations
        rates = []
        pending_nan = [False]

        def adam_spy(store, grad, state, lr):
            rates.append(lr)
            # Poison the first evaluation after the third update only: the
            # next gradient call's forward when fused, else the objective.
            pending_nan[0] = len(rates) == 3
            return real_adam(store, grad, state, lr)

        def poisoned(self, *args, **kwargs):
            out = real_expectations(self, *args, **kwargs)
            if pending_nan[0]:  # the values, with or without their gradients
                pending_nan[0] = False
                if isinstance(out, tuple):
                    return (np.full_like(out[0], np.nan), *out[1:])
                return np.full_like(out, np.nan)
            return out

        def factory(*args):
            make = real_factory(*args)

            def make_step(step):
                objective, exact, value = make(step)
                return objective, exact, (value if path == "fused" else lambda: None)

            return make_step

        monkeypatch.setattr(Gaussian, "expectations", poisoned)
        monkeypatch.setattr(training, "_objective_factory", factory)
        monkeypatch.setattr(training, "adam_step", adam_spy)
        config = FitConfig(steps=5, learning_rate=1e-2, seed=0)
        result = fit(model, (x, y), config)

        assert not pending_nan[0]  # the poison was taken
        assert len(result.trace) == 5
        assert all(np.isfinite(r.elbo) for r in result.trace)
        assert rates == [1e-2, 1e-2, 1e-2, 5e-3, 5e-3]
        assert [r.warning for r in result.trace] == [
            None,
            None,
            "non-finite step rejected; learning rate halved to 0.005",
            None,
            None,
        ]
        # The rejected step leaves the parameters where step 1 put them.
        assert result.trace[2].elbo == pytest.approx(result.trace[1].elbo, rel=1e-12)
        assert result.trace[3].elbo != pytest.approx(result.trace[2].elbo, rel=1e-12)

    def test_divergence_heuristic(self):
        from sparsegp.training import divergence_warning

        steady = [10.0, 10.1, 9.9, 10.05, 9.95]
        assert divergence_warning(steady, 9.9) is None
        assert divergence_warning(steady, 10.0 - 11 * np.std(steady)) is not None
        assert divergence_warning(steady[:3], -100.0) is None  # warm-up window


# ---------------------------------------------------------------------------
# One forward per step


def _two_forward_fit(model, data, config):
    """The training loop as it ran before steps were fused, the oracle of
    ``fit``'s trace: each step takes the gradient, updates, then evaluates
    the objective again for the trace value and the non-finite check."""
    import sparsegp.training as training

    store, build = parameterize(model)
    for name in config.freeze:
        store.set_trainable(name, False)
    x, *rest = data
    outputs, y = (None, rest[0]) if len(rest) == 1 else (rest[0], rest[1][:, None])
    make = training._objective_factory(build, x, y, outputs, config)
    state = AdamState.start(store)
    lr, values = config.learning_rate, []
    for step in range(config.steps):
        objective, exact, _ = make(step)
        grad = gradient(objective, store, exact)
        previous = state
        state = adam_step(store, grad, state, lr)
        value = -objective(store)
        if not np.isfinite(value):
            store.set_free_vector(previous.free)
            state, lr = previous, lr * 0.5
            value = -objective(store)
        values.append(value)
    return values, store.free_vector()


def _dgp_for_fit():
    from sparsegp import DGPModel, GPLayer

    rng = RngState(5)
    n, m = 12, 4
    x = np.sort(rng.generator.uniform(0, 4, n))[:, None]
    y = np.sin(x) + 0.1 * standard_normal(rng.derive(1), (n, 1))
    layers = [
        GPLayer(
            SquaredExponential(1.0, 0.8),
            InducingPoints(np.linspace(0.3, 3.7, m)[:, None]),
            VariationalGaussian(
                0.1 * standard_normal(rng.derive(2 + i), m),
                0.5 * np.eye(m),
                whiten=True,
            ),
        )
        for i in range(2)
    ]
    return DGPModel(layers, Gaussian(0.2), num_data=n, num_samples=2, jitter=1e-8), x, y


def _hetero_for_fit():
    from sparsegp import LinearCoregionalization, Matern32, SharedIndependentInducingVariables

    rng = RngState(6)
    n = 20
    kernel = LinearCoregionalization(
        [SquaredExponential(1.0, 1.0), Matern32(1.0, 1.0)],
        np.array([[1.0, 0.0], [0.5, 0.5], [0.2, 0.8]]),
    )
    iv = SharedIndependentInducingVariables(InducingPoints(np.linspace(0.3, 5.7, 4)[:, None]))
    q = VariationalGaussian(np.zeros(8), (np.eye(4), np.eye(4)), whiten=False)
    model = SVGPModel(kernel, Gaussian(0.1), iv, q, num_data=n, jitter=1e-8)
    x = rng.generator.uniform(0.0, 6.0, (n, 1))
    outputs = rng.generator.integers(0, 3, n)
    y = np.sin(x[:, 0] + outputs) + 0.1 * standard_normal(rng.derive(1), n)
    return model, (x, outputs, y)


def _fit_case(case):
    """(model, data, config) of a short fit; only ``svgp``, ``gpr`` and
    ``hetero`` take every row without drawing from the step's stream."""
    from sparsegp import UncertainSVGP

    config = FitConfig(steps=4, learning_rate=2e-2, seed=1)
    if case == "gpr":
        x, y = desk_regression()
        return GPRModel(SquaredExponential(0.5, 0.3), 0.5, x, y), (x, y), config
    if case == "dgp":
        model, x, y = _dgp_for_fit()
        return model, (x, y), config
    if case == "hetero":
        return (*_hetero_for_fit(), config)
    model, x, y = _svgp_for_gradients(3, whiten=True)
    if case == "svgp_uncertain":
        return UncertainSVGP(model, x, np.full_like(x, 0.01), y), (x, y), config
    if case == "minibatch":
        config.batch_size = 4
    return model, (x, y), config


def _count_forwards(monkeypatch, cls):
    counts = {"objective": 0, "objective_gradients": 0}
    for name in counts:
        method = getattr(cls, name)

        def counting(*args, name=name, method=method, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    return counts


class TestFusedStep:
    @pytest.mark.parametrize(
        "case", ["svgp", "gpr", "hetero", "dgp", "svgp_uncertain", "minibatch"]
    )
    def test_forwards_per_fit_and_the_two_forward_oracle(self, monkeypatch, case):
        model, data, config = _fit_case(case)
        counts = _count_forwards(monkeypatch, type(model))
        result = fit(model, data, config)
        fused = dict(counts)
        counts.update(objective=0, objective_gradients=0)
        values, free = _two_forward_fit(model, data, config)
        steps = config.steps
        if case in ("svgp", "gpr"):
            # One gradient call per step and one objective after the last.
            assert fused == {"objective": 1, "objective_gradients": steps}
            assert counts == {"objective": steps, "objective_gradients": steps}
        elif case == "hetero":  # its kernels and Z take differences
            assert fused["objective_gradients"] == steps
            assert fused["objective"] == counts["objective"] - steps + 1
        else:
            assert fused == counts
        # The same trace and iterate as the loop that evaluates twice.
        assert [r.elbo for r in result.trace] == values
        assert all(r.warning is None for r in result.trace)
        np.testing.assert_array_equal(result.store.free_vector(), free)

    @pytest.mark.parametrize("case", ["svgp", "gpr", "hetero"])
    def test_reused_values_are_the_objective_at_the_same_parameters(self, monkeypatch, case):
        import sparsegp.training as training

        model, data, config = _fit_case(case)
        real_factory = training._objective_factory
        reused = []

        def factory(*args):
            make = real_factory(*args)

            def make_step(step):
                objective, exact, value = make(step)

                def spied(store):
                    grads = exact(store)  # before any coordinate moves
                    if value() is not None:
                        reused.append(value())
                        assert value() == -objective(store)  # bit for bit
                    return grads

                return objective, spied, value

            return make_step

        monkeypatch.setattr(training, "_objective_factory", factory)
        result = fit(model, data, config)
        assert len(reused) == config.steps
        # Step t's trace value is what step t + 1's gradient call found.
        assert [r.elbo for r in result.trace[:-1]] == reused[1:]

    @pytest.mark.parametrize("case", ["svgp", "hetero", "gpr", "dgp"])
    def test_objective_gradients_value_is_the_objective(self, case):
        from test_posteriors import chunks_of

        model, data, _ = _fit_case(case)
        x, *rest = data
        batch = (x, rest[0]) if len(rest) == 1 else (x, *rest)
        rng = lambda: RngState(2).derive(1, 0)  # noqa: E731
        value, _ = model.objective_gradients(batch, rng, 1.0)
        assert value == model.objective(batch, rng, 1.0)
        if case in ("svgp", "hetero"):  # and over chunks of rows
            with chunks_of(4, model.posterior._row_floats()):
                streamed = type(model)(
                    model.kernel, model.likelihood, model.inducing, model.q,
                    num_data=model.num_data, jitter=model.jitter,
                )
                value, _ = streamed.objective_gradients(batch, rng, 1.0)
                assert value == streamed.objective(batch, rng, 1.0)
                assert value == pytest.approx(model.objective(batch, rng, 1.0), rel=1e-12)

    def test_a_non_finite_value_is_raised_before_the_backward(self, monkeypatch):
        from sparsegp.errors import NonFiniteValue

        model, x, y = _svgp_for_gradients(4, whiten=False)
        post, real_chunk_vjp = model.posterior, model.posterior._chunk_vjp

        def chunk_vjp(*args):
            mean, cov, _ = real_chunk_vjp(*args)
            return mean, cov, lambda *a, **k: pytest.fail("a pullback took the value")

        real = Gaussian.expectations

        def infinite(self, *args, **kwargs):
            out = real(self, *args, **kwargs)
            if isinstance(out, tuple):
                return (np.full_like(out[0], np.inf), *out[1:])
            return np.full_like(out, np.inf)

        monkeypatch.setattr(post, "_chunk_vjp", chunk_vjp)
        monkeypatch.setattr(Gaussian, "expectations", infinite)
        with pytest.raises(NonFiniteValue):
            model.objective_gradients((x, y), None, 1.0)
        assert model.objective((x, y), None, 1.0) == np.inf
