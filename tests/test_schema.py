"""Component declarations: coverage, strategies, and a kernel added from
its declaration alone."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import sparsegp
from sparsegp import (
    Bernoulli,
    FitConfig,
    GaussHermite,
    Gaussian,
    InducingPoints,
    SVGPModel,
    VariationalGaussian,
    fit,
    parameterize,
)
from sparsegp.errors import ConfigError
from sparsegp.inducing import InducingVariable
from sparsegp.kernels import Kernel, MultioutputKernel, Stationary
from sparsegp.likelihoods import Likelihood
from sparsegp.modelio import load_model, save_model
from sparsegp.models import MeanFunction
from sparsegp.schema import Schema

from conftest import desk_regression

FAMILIES = (Kernel, InducingVariable, Likelihood, MeanFunction)
ABSTRACT = {Kernel, MultioutputKernel, InducingVariable}


def test_every_exported_component_declares_a_unique_tag():
    problems, seen = [], {}
    for name, cls in sorted(vars(sparsegp).items()):
        if not inspect.isclass(cls) or cls in ABSTRACT:
            continue
        family = next((f for f in FAMILIES if issubclass(cls, f)), None)
        if family is None:
            continue
        schema = cls.__dict__.get("schema")
        if not isinstance(schema, Schema) or schema.tag is None:
            problems.append(f"{name} has no declaration of its own")
            continue
        other = seen.setdefault((family, schema.tag), name)
        if other != name:
            problems.append(f"{name} repeats the tag {schema.tag!r} of {other}")
    assert not problems, "; ".join(problems)


def _svgp(likelihood, kernel=None, m=6):
    x, y = desk_regression(n=20)
    model = SVGPModel(
        kernel if kernel is not None else sparsegp.SquaredExponential(1.0, 0.8),
        likelihood,
        InducingPoints(x[:m]),
        VariationalGaussian(np.zeros(m), np.eye(m), whiten=True),
        num_data=x.shape[0],
    )
    return model, x, y


class TestStrategy:
    def test_training_keeps_a_non_default_strategy(self):
        model, x, y = _svgp(Bernoulli(GaussHermite(50)))
        result = fit(model, (x, (y > 0).astype(float)), FitConfig(steps=1))
        assert result.model.likelihood.strategy == GaussHermite(50)

    def test_saving_a_non_default_strategy_is_refused(self, tmp_path):
        model, x, y = _svgp(Bernoulli(GaussHermite(50)))
        result = fit(model, (x, (y > 0).astype(float)), FitConfig(steps=1))
        path = tmp_path / "model.json"
        with pytest.raises(ConfigError, match="strategy"):
            save_model(result.model, path)
        assert not path.exists()

    def test_the_default_strategy_saves(self, tmp_path):
        model, _, _ = _svgp(Bernoulli(GaussHermite(20)))
        save_model(model, tmp_path / "model.json")
        loaded, _ = load_model(tmp_path / "model.json")
        assert loaded.likelihood.strategy == GaussHermite(20)


class Cauchy(Stationary):
    """Declared here only: k(r) = variance / (1 + r^2)."""

    schema = Schema("test_cauchy", *Stationary.fields)

    def _from_r2(self, r2):
        return self.variance / (1.0 + r2)


class TestNewKernel:
    def test_trains_and_round_trips_from_its_declaration(self, tmp_path):
        model, x, y = _svgp(Gaussian(0.1), kernel=Cauchy(1.3, [0.7]))
        store, _ = parameterize(model)
        assert store.names()[:2] == ["kernel.variance", "kernel.lengthscales"]

        result = fit(model, (x, y), FitConfig(steps=2, learning_rate=0.05))
        assert isinstance(result.model.kernel, Cauchy)
        assert result.model.kernel.variance != 1.3
        assert np.isfinite(result.trace[-1].elbo)

        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(result.model, first)
        loaded, metadata = load_model(first)
        assert isinstance(loaded.kernel, Cauchy)
        save_model(loaded, second, metadata)
        assert first.read_bytes() == second.read_bytes()
