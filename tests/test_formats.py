"""Pinned model-file bytes and slot names for every component tag.

Each case builds a model from a config, moves every trainable slot a little
in free space, rebuilds the model from the store and saves it.  The golden
files under ``tests/golden/`` hold what that produced when the format was
pinned, together with each model's ordered ``store.names()``; the tests
require the same bytes and names from the current code.

Regenerate the fixtures (only when a format change is intended) with

    PYTHONPATH=src python tests/test_formats.py
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from sparsegp.cli import build_model
from sparsegp.config import parse_config
from sparsegp.modelio import Dataset, load_model, save_model
from sparsegp.models import Model
from sparsegp.schema import tags
from sparsegp.training import parameterize

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
NAMES = os.path.join(GOLDEN, "slot_names.json")

LINE = Dataset(
    np.linspace(0.0, 3.0, 12)[:, None], np.sin(np.linspace(0.0, 3.0, 12))[:, None], None
)
PLANE = Dataset(
    np.column_stack([np.linspace(0.0, 2.0, 10), np.cos(np.arange(10.0))]),
    np.arange(10.0)[:, None] % 2,
    None,
)
COUNTS = Dataset(LINE.x, np.arange(12.0)[:, None] % 4, None)
LABELS = Dataset(LINE.x, np.arange(12.0)[:, None] % 2, None)
IMAGES = Dataset(
    np.sin(np.arange(6 * 9, dtype=float)).reshape(6, 9), np.ones((6, 1)), None
)

# name -> (dataset, model block of the config)
CASES = {
    "gpr_sqexp": (
        LINE,
        """kind = gpr
        kernel = sqexp { variance = 1.3, lengthscales = [0.7] }
        likelihood = gaussian { variance = 0.1 }""",
    ),
    "svgp_sqexp_points_gaussian": (
        LINE,
        """kind = svgp
        kernel = sqexp { variance = 1.0, lengthscales = [0.8] }
        likelihood = gaussian { variance = 0.2 }
        inducing = points { from_data = 5 }
        mean = zero""",
    ),
    "svgp_sqexp_multiscale_bernoulli": (
        PLANE,
        """kind = svgp
        whiten = false
        jitter = 1e-5
        kernel = sqexp { lengthscales = [0.5, 2.0] }
        likelihood = bernoulli
        inducing = multiscale { from_data = 4 }
        mean = constant { value = 0.3 }""",
    ),
    "svgp_matern32_points_poisson": (
        COUNTS,
        """kind = svgp
        kernel = matern32 {}
        likelihood = poisson
        inducing = points { z = [[0.0], [1.0], [2.5]] }""",
    ),
    "svgp_sqexp_multiscale_given": (
        PLANE,
        """kind = svgp
        kernel = sqexp { variance = 2.0, lengthscales = 0.9 }
        likelihood = gaussian
        inducing = multiscale {
          z = [[0.0, 0.5], [1.0, -0.5]]
          scales = [[0.3, 0.4], [0.6, 0.2]]
        }""",
    ),
    "svgp_linear": (
        LINE,
        """kind = svgp
        kernel = linear { variance = 0.5 }
        likelihood = gaussian { variance = 0.3 }
        inducing = points { from_data = 3 }""",
    ),
    "svgp_white": (
        LINE,
        """kind = svgp
        kernel = white {}
        likelihood = gaussian { variance = 0.3 }
        inducing = points { from_data = 3 }""",
    ),
    "svgp_shared_independent_points": (
        LINE,
        """kind = svgp
        kernel = shared_independent { base = sqexp { variance = 0.7 }, outputs = 2 }
        likelihood = gaussian { variance = 0.1 }
        inducing = points { from_data = 4 }""",
    ),
    "svgp_separate_independent_separate": (
        LINE,
        """kind = svgp
        kernel = separate_independent { latents = [sqexp {}, matern32 {}] }
        likelihood = correlated_gaussian { cov = [[1.0, 0.3], [0.3, 0.5]] }
        inducing = separate {
          members = [multiscale { from_data = 3 }, points { from_data = 4 }]
        }""",
    ),
    "svgp_lmc_shared": (
        LINE,
        """kind = svgp
        kernel = lmc {
          w = [[1.0, 0.2], [0.5, 0.5], [0.1, 0.9]]
          latents = [sqexp { lengthscales = [0.6] }, matern52 {}]
        }
        likelihood = gaussian { variance = 0.05 }
        inducing = shared { base = points { from_data = 4 } }""",
    ),
    "svgp_imc_separate_unwhitened": (
        LINE,
        """kind = svgp
        whiten = false
        kernel = imc { w = [[1.0, 0.4], [0.2, 0.8]], base = matern12 {} }
        likelihood = correlated_gaussian { cov = [[0.4, 0.1], [0.1, 0.3]] }
        inducing = separate { members = [points { from_data = 3 }, points { from_data = 2 }] }""",
    ),
    "svgp_conv_patches": (
        IMAGES,
        """kind = svgp
        kernel = conv { base = sqexp { lengthscales = [1.5] }, image = [3, 3], patch = [2, 2] }
        likelihood = gaussian { variance = 0.1 }
        inducing = patches { from_data = 3 }""",
    ),
    "dgp_two_layers": (
        LABELS,
        """kind = dgp
        num_samples = 2
        jitter = 1e-5
        likelihood = bernoulli
        layers = [
          layer {
            kernel = sqexp { lengthscales = [0.8] }
            inducing = points { from_data = 3 }
            mean = constant { value = 0.1 }
          },
          layer { kernel = matern32 {}, inducing = points { from_data = 4 } }
        ]""",
    ),
    "svgp_uncertain": (
        LINE,
        """kind = svgp_uncertain
        input_variance = 0.02
        kernel = sqexp { variance = 1.1 }
        likelihood = gaussian { variance = 0.2 }
        inducing = points { from_data = 4 }""",
    ),
}


def moved_model(name):
    """The case's model after a fixed step of every slot in free space."""
    dataset, block = CASES[name]
    model = build_model(parse_config("model {\n" + block + "\n}\n"), dataset)
    store, build = parameterize(model)
    free = store.free_vector()
    store.set_free_vector(free + 0.05 * np.sin(1.0 + np.arange(free.shape[0])))
    return model, store, build(store)


def golden_path(name):
    return os.path.join(GOLDEN, f"{name}.json")


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def golden_names():
    with open(NAMES, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_build_and_rebuild_reproduce_the_golden_file(name, tmp_path):
    _, _, moved = moved_model(name)
    path = tmp_path / "model.json"
    save_model(moved, path, {"case": name})
    assert read_bytes(path) == read_bytes(golden_path(name))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_file_load_save_is_byte_identical(name, tmp_path):
    model, metadata = load_model(golden_path(name))
    path = tmp_path / "model.json"
    save_model(model, path, metadata)
    assert read_bytes(path) == read_bytes(golden_path(name))


@pytest.mark.parametrize("name", sorted(CASES))
def test_slot_names_are_pinned(name, golden_names):
    _, store, _ = moved_model(name)
    assert store.names() == golden_names[name]
    loaded, _ = load_model(golden_path(name))
    assert parameterize(loaded)[0].names() == golden_names[name]


def test_every_case_has_a_fixture(golden_names):
    assert sorted(golden_names) == sorted(CASES)
    pinned = {parse_config(block)["kind"] for _, block in CASES.values()}
    shipped = {
        kind
        for kind, cls in tags(Model).items()
        if cls.__module__.startswith("sparsegp.")
    }
    assert shipped <= pinned, f"model kinds with no golden case: {shipped - pinned}"


def write_fixtures():
    os.makedirs(GOLDEN, exist_ok=True)
    names = {}
    for name in sorted(CASES):
        _, store, moved = moved_model(name)
        save_model(moved, golden_path(name), {"case": name})
        names[name] = store.names()
    with open(NAMES, "w", encoding="utf-8") as handle:
        json.dump(names, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    write_fixtures()
