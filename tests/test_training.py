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

            grads = model.objective_gradients((x, y), None, 1.0)
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
        state = AdamState.zeros(2)
        adam_step(store, np.zeros(2), state, lr=0.1)
        np.testing.assert_array_equal(store.get("a"), [1.0, 2.0])

    def test_constant_gradient_moves_against_it(self):
        store = ParameterStore()
        store.add("a", np.array([0.0]))
        state = AdamState.zeros(1)
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

        state = AdamState.zeros(2)
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

    def test_non_finite_step_is_rejected(self, monkeypatch):
        import sparsegp.training as training

        model, x, y = _svgp_for_gradients(2, whiten=True)
        real_factory, real_adam = training._objective_factory, training.adam_step
        rates = []
        pending_nan = [False]

        def adam_spy(store, grad, state, lr):
            rates.append(lr)
            # Poison the first evaluation after the third update only.
            pending_nan[0] = len(rates) == 3
            return real_adam(store, grad, state, lr)

        def factory(*args):
            make = real_factory(*args)

            def make_step(step):
                objective, exact = make(step)

                def poisoned(store):
                    if pending_nan[0]:
                        pending_nan[0] = False
                        return np.nan
                    return objective(store)

                return poisoned, exact

            return make_step

        monkeypatch.setattr(training, "_objective_factory", factory)
        monkeypatch.setattr(training, "adam_step", adam_spy)
        config = FitConfig(steps=5, learning_rate=1e-2, seed=0)
        result = fit(model, (x, y), config)

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
