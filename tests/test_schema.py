"""Component and model declarations: coverage, typed statics, and a kernel
and a model kind added from their declarations alone."""

from __future__ import annotations

import inspect
import json

import numpy as np
import pytest

import sparsegp
from sparsegp import (
    FitConfig,
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
from sparsegp.schema import Param, Schema, Setting

from conftest import desk_regression, write_dataset
from test_formats import golden_path

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


@pytest.mark.parametrize(
    "case, key, value",
    [
        ("svgp_sqexp_points_gaussian", "whiten", "maybe"),
        ("svgp_sqexp_points_gaussian", "whiten", None),
        ("svgp_sqexp_points_gaussian", "jitter", "abc"),
        ("svgp_sqexp_points_gaussian", "jitter", -1e-6),
        ("svgp_sqexp_points_gaussian", "num_data", "x"),
        ("svgp_sqexp_points_gaussian", "num_data", 2.5),
        ("svgp_sqexp_points_gaussian", "num_data", 0),
        ("dgp_two_layers", "num_samples", "two"),
        ("dgp_two_layers", "num_samples", 0),
        ("dgp_two_layers", "jitter", [1e-5]),
    ],
)
def test_a_mistyped_static_in_a_model_file_is_a_config_error(
    case, key, value, tmp_path, capsys
):
    with open(golden_path(case), encoding="utf-8") as handle:
        doc = json.load(handle)
    doc[key] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=key):
        load_model(model)
    data = tmp_path / "x.csv"
    write_dataset(data, np.zeros((2, 1)))
    out = tmp_path / "p.csv"
    args = ["predict", "--model", str(model), "--data", str(data), "--out", str(out)]
    assert main(args) == 2
    assert key in capsys.readouterr().err


class ConstantNoise(Model):
    """Declared here only: y ~ N(offset, noise), whatever the inputs."""

    schema = Schema(
        "test_constant",
        Param("offset", scalar=True),
        Param("noise", "positive", scalar=True),
        Setting("width", attr="input_dim"),
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
