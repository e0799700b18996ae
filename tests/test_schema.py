"""Component and model declarations: coverage, strategies, and a kernel and
a model kind added from their declarations alone."""

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
from sparsegp.cli import build_model, main
from sparsegp.config import parse_config
from sparsegp.errors import ConfigError
from sparsegp.inducing import InducingVariable
from sparsegp.kernels import Kernel, MultioutputKernel, Stationary
from sparsegp.likelihoods import Likelihood
from sparsegp.modelio import Dataset, load_model, save_model
from sparsegp.models import MeanFunction, Model
from sparsegp.schema import Param, Schema, Setting, Static

from conftest import desk_regression

FAMILIES = (Kernel, InducingVariable, Likelihood, MeanFunction, Model)
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


def test_an_integer_beyond_the_float_range_is_a_config_error():
    with pytest.raises(ConfigError, match="steps must be an integer >= 0"):
        Setting("steps", int, 500, ">= 0").coerce(int("9" * 400))


class ConstantNoise(Model):
    """Declared here only: y ~ N(offset, noise), whatever the inputs."""

    schema = Schema(
        "test_constant",
        Param("offset", scalar=True),
        Param("noise", "positive", scalar=True),
        Static("width", "input_dim"),
    )
    settings = (Setting("noise", float, 1.0, "> 0"),)

    def __init__(self, offset, noise, input_dim):
        self.offset, self.noise, self.input_dim = float(offset), float(noise), input_dim

    @classmethod
    def from_config(cls, node, dataset):
        return cls(0.0, node["noise"], dataset.x.shape[1])

    @property
    def likelihood(self):
        return Gaussian(self.noise)

    def objective(self, batch, rng, scale):
        _, y = batch
        return scale * float(np.sum(self.likelihood.log_density(self.offset, y)))

    def predict_moments(self, x, full_cov=False, full_output_cov=False):
        return np.full((x.shape[0], 1), self.offset), np.zeros((x.shape[0], 1))


class TestNewModelKind:
    def test_builds_trains_and_round_trips_from_its_declaration(self, tmp_path):
        x, y = desk_regression()
        config = parse_config("model { kind = test_constant, noise = 0.5 }")
        model = build_model(config, Dataset(x, y, None))
        assert isinstance(model, ConstantNoise) and model.noise == 0.5
        assert parameterize(model)[0].names() == ["offset", "noise"]

        result = fit(model, (x, y), FitConfig(steps=30, learning_rate=0.05))
        assert abs(result.model.offset - np.mean(y)) < abs(np.mean(y))
        assert result.trace[-1].elbo > result.trace[0].elbo

        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(result.model, first)
        loaded, metadata = load_model(first)
        assert isinstance(loaded, ConstantNoise)
        save_model(loaded, second, metadata)
        assert first.read_bytes() == second.read_bytes()

    def test_the_commands_need_nothing_else(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("steps = 3\nmodel { kind = test_constant }\n")
        model, data = str(tmp_path / "m.json"), "data/regression_30.csv"
        train = ["train", "--config", str(conf), "--data", data, "--out", model]
        assert main(train) == 0
        metrics = str(tmp_path / "metrics.json")
        assert main(["eval", "--model", model, "--data", data, "--out", metrics]) == 0
        preds = str(tmp_path / "p.csv")
        assert main(["predict", "--model", model, "--data", data, "--out", preds]) == 0
