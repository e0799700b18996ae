"""Fast tests of the benchmark itself, at tiny sizes.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import filecmp
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _files(work):
    return sorted(os.listdir(work))


@pytest.mark.parametrize("name", ["regress", "hetero_lmc", "deep_classify"])
def test_same_seed_writes_identical_files_and_another_seed_differs(tmp_path, name):
    a, b, c = (str(tmp_path / d) for d in "abc")
    workloads.make_workload(name, 7, a, ROOT, tiny=True)
    workloads.make_workload(name, 7, b, ROOT, tiny=True)
    workloads.make_workload(name, 8, c, ROOT, tiny=True)
    names = _files(a)
    assert names == _files(b) == _files(c)
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == [] and match == names
    csvs = [n for n in names if n.endswith(".csv")]
    _, differ, _ = filecmp.cmpfiles(a, c, csvs, shallow=False)
    assert differ == csvs


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] holds A [1, 4] and B [5, 9]; A holds C [2, 3]; B holds
    # D [6, 8] and E [7, 9.5], which overlap and run past B's end.
    parent = [-1, 0, 0, 1, 2, 2]
    start = [0.0, 1.0, 5.0, 2.0, 6.0, 7.0]
    end = [10.0, 4.0, 9.0, 3.0, 8.0, 9.5]
    own = tracing.self_times(parent, start, end)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 1.0, 2.0, 2.5])

    nested = tracing.self_times(parent[:5], start[:5], end[:5])
    np.testing.assert_allclose(nested, [3.0, 2.0, 2.0, 1.0, 2.0])
    assert nested.sum() == pytest.approx(end[0] - start[0])


def test_ancestor_flags():
    names = ["command", "training.gradient", "models.elbo"]
    parent, name = [-1, 0, 1, 0], [0, 1, 2, 2]
    inside = tracing.ancestors_in(parent, name, names, {"training.gradient"})
    assert inside.tolist() == [False, False, True, False]


def _tiny_pass(tmp_path, name, traced, corrupt=None):
    """One pass at tiny sizes; ``corrupt`` = (op kind, function of the op)."""
    bench = run.Bench(ROOT, str(tmp_path / "out"), time.monotonic())
    work = str(tmp_path / "work")
    ops = workloads.make_workload(name, 3, work, ROOT, tiny=True)
    if corrupt is not None:
        command = bench.run_command
        kind, damage = corrupt

        def run_then_corrupt(op, work, traced):
            result = command(op, work, traced)
            if op.kind == kind:
                damage(op)
            return result

        bench.run_command = run_then_corrupt
    return run.run_pass(bench, ops, work, traced)


def _corrupt_first_value(op):
    with open(op.out, encoding="utf-8") as handle:
        lines = handle.readlines()
    cells = lines[2].split(",")
    cells[-2] = repr(float(cells[-2]) + 0.5)  # one mean value
    lines[2] = ",".join(cells)
    with open(op.out, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def _truncate_model(op):
    with open(op.model, "r+", encoding="utf-8") as handle:
        handle.truncate(len(handle.read()) // 2)


def test_clean_pass_has_no_failures(tmp_path):
    passed = _tiny_pass(tmp_path, "regress", traced=False)
    assert [r["problems"] for r in passed["ops"]] == [[]] * 4
    values = run.pass_metrics(passed)
    assert values["ops_ok_ratio"] == 1.0
    assert all(values[k] > 0 for k in ("setup_s", "train_s", "predict_s", "peak_rss_mb"))


def test_corrupted_prediction_counts_as_a_failed_operation(tmp_path):
    passed = _tiny_pass(tmp_path, "regress", traced=False,
                        corrupt=("predict", _corrupt_first_value))
    failed = [r["op"] for r in passed["ops"] if r["problems"]]
    assert failed == ["predict"]
    assert run.pass_metrics(passed)["ops_ok_ratio"] == 0.75


def test_unreadable_model_file_counts_as_a_failed_operation(tmp_path):
    passed = _tiny_pass(tmp_path, "regress", traced=False,
                        corrupt=("train", _truncate_model))
    train = passed["ops"][0]
    assert train["op"] == "train"
    assert train["problems"] and "ConfigError" in train["problems"][0]
    assert run.pass_metrics(passed)["ops_ok_ratio"] < 1.0


def test_traced_pass_reports_every_layer_metric(tmp_path):
    untraced = _tiny_pass(tmp_path / "u", "hetero_lmc", traced=False)
    traced = _tiny_pass(tmp_path / "t", "hetero_lmc", traced=True)
    specs = run.load_spec()["per_layer"]
    metrics = layers.per_layer(untraced, traced, specs)
    assert list(metrics) == [m["name"] for m in specs]
    assert all(r["problems"] == [] for r in traced["ops"])
    assert metrics["likelihoods.ve_rows_per_call"]["value"] == 1.0
    assert metrics["models.elbo_heterotopic.calls"]["value"] > 0
    assert metrics["training.grad_over_objective"]["value"] > 1.0
    assert 0.0 < metrics["trace.outside_spans_ms"]["value"]


def test_wrappers_are_restored_after_a_traced_run():
    import sparsegp
    import sparsegp.numerics
    import sparsegp.training
    from sparsegp.models import SVGPModel

    originals = {
        "cholesky": sparsegp.numerics.cholesky,
        "gradient": sparsegp.training.gradient,
        "fit": sparsegp.fit,
        "elbo": SVGPModel.__dict__["elbo"],
        "linalg": np.linalg.cholesky,
    }
    assert tracing.installed_wrappers() == []
    recorder = tracing.Recorder(time.monotonic())
    installation = tracing.install(recorder)
    try:
        assert "sparsegp.numerics.cholesky" in tracing.installed_wrappers()
        x = np.linspace(0.0, 6.0, 12)[:, None]
        model = sparsegp.SVGPModel(
            sparsegp.SquaredExponential(),
            sparsegp.Gaussian(0.1),
            sparsegp.InducingPoints(x[:4]),
            sparsegp.VariationalGaussian(np.zeros(4), np.eye(4), whiten=True),
            num_data=12,
        )
        sparsegp.fit(model, (x, np.sin(x)), sparsegp.FitConfig(steps=2))
    finally:
        installation.restore()
    recorder.close()
    assert tracing.installed_wrappers() == []
    assert sparsegp.numerics.cholesky is originals["cholesky"]
    assert sparsegp.training.gradient is originals["gradient"]
    assert sparsegp.fit is originals["fit"]
    assert SVGPModel.__dict__["elbo"] is originals["elbo"]
    assert np.linalg.cholesky is originals["linalg"]

    spans = recorder.arrays()
    names = {recorder.names[i] for i in spans["name"]}
    assert {"training.fit", "training.gradient", "training.build", "models.elbo"} <= names
    own = tracing.self_times(spans["parent"], spans["start"], spans["end"])
    assert own.sum() == pytest.approx(spans["end"][0] - spans["start"][0], rel=1e-9)

