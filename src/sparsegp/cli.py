"""Batch command-line interface: train, predict, evaluate, plot data.

Exit codes: 0 success; 2 configuration error, including a combination of
components that is not supported; 3 data validation error; 4 numerical
failure (the failing error class is printed).  The environment variable
SPARSEGP_JITTER overrides the default jitter, the absolute amount added to
Kuu's diagonal, for debugging.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import load_config
from .errors import ConfigError, DataError, SparseGPError, UnsupportedCombination
from .likelihoods import (
    CorrelatedGaussian,
    Gaussian,
    marginalize_outputs,
    predict_observation_moments,
    predictive_log_density,
)
from .modelio import Dataset, load_model, read_dataset, save_model
from .models import Model, output_groups
from .schema import Setting, check_keys, read_settings, tags
from .training import FitConfig, TraceRecord, fit


# ---------------------------------------------------------------------------
# Model construction from a parsed config tree

# Top-level config keys besides ``model``; every model block may also name
# ``kind`` and ``freeze``.
TRAINING = (
    Setting("steps", int, 500, ">= 0"),
    Setting("learning_rate", float, 1e-2, "> 0"),
    Setting("batch_size", int, 0, ">= 0"),
    Setting("seed", int, 0, ">= 0"),
)
FREEZE = Setting("freeze", list, ())


def _require(node, key, context):
    if key not in node:
        raise ConfigError(f"{context} is missing the {key!r} entry")
    return node[key]


def build_model(config: dict, dataset: Dataset):
    check_keys(config, ["model", *(s.key for s in TRAINING)], "config")
    node = _require(config, "model", "config")
    if not isinstance(node, dict):
        raise ConfigError("model must be a block")
    kind = _require(node, "kind", "model")
    cls = tags(Model).get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown model kind {kind!r}")
    keys = ["kind", FREEZE.key, *(s.key for s in cls.settings)]
    check_keys(node, keys, f"model kind = {kind}")
    return cls.from_config(read_settings(node, cls.settings, "model"), dataset)


def _fit_config(config: dict, model) -> FitConfig:
    settings = read_settings(config, TRAINING, "config")
    if settings["batch_size"] > 0 and model.full_batch:
        raise ConfigError(
            f"kind = {model.schema.tag} trains on the full dataset; batch_size "
            "must be 0 or absent"
        )
    freeze = read_settings(config["model"], (FREEZE,), "model")["freeze"]
    return FitConfig(freeze=freeze, **settings)


# ---------------------------------------------------------------------------
# Shared prediction helpers


def _check_input_dim(model, x):
    want = model.input_dim
    if want is not None and x.shape[1] != want:
        raise DataError(
            f"dataset has {x.shape[1]} input columns, model expects {want}"
        )


def _check_output_indices(dataset: Dataset, num_outputs: int):
    if dataset.num_outputs > num_outputs:
        raise DataError(
            f"output_index {dataset.num_outputs - 1} is out of range for a "
            f"model with P = {num_outputs} outputs"
        )


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args) -> int:
    config = load_config(args.config)
    dataset = read_dataset(args.data)
    model = build_model(config, dataset)
    fit_config = _fit_config(config, model)

    if dataset.y is None:
        raise DataError("training data needs output columns")
    if dataset.heterotopic:
        if not model.heterotopic:
            raise ConfigError("heterotopic data requires an svgp model")
        _check_output_indices(dataset, model.num_outputs)
        data = (dataset.x, dataset.outputs, dataset.y[:, 0])
    else:
        data = (dataset.x, dataset.y)
    model.likelihood.check_targets(dataset.y)

    result = fit(model, data, fit_config)
    metadata = {"seed": fit_config.seed, "steps": fit_config.steps}
    save_model(result.model, args.out, metadata)

    trace_path = args.trace if args.trace else args.out + ".trace.jsonl"
    with open(trace_path, "w", encoding="utf-8") as handle:
        for record in result.trace:
            handle.write(_trace_line(record) + "\n")
    return 0


def _trace_line(record: TraceRecord) -> str:
    doc = {"step": record.step, "elbo": record.elbo, "wall_ms": record.wall_ms}
    if record.warning:
        doc["warning"] = record.warning
    return json.dumps(doc, sort_keys=True)


def _observation_noise(lik, full_cov, full_output_cov):
    """``(mean, cov) -> (mean, cov)`` of y in the mode; raises before
    anything is predicted when the likelihood has no noise for the mode."""
    if not (full_cov or full_output_cov):
        return lambda mean, cov: predict_observation_moments(lik, mean, cov)
    if isinstance(lik, Gaussian):
        noise = lik.variance

        def add_noise(mean, cov):
            if full_cov and full_output_cov:
                n, p = cov.shape[0], cov.shape[1]
                flat = cov.reshape(n * p, n * p) + noise * np.eye(n * p)
                return mean, flat.reshape(n, p, n, p)
            return mean, cov + noise * np.eye(cov.shape[-1])  # [N, P, P] or [P, N, N]

        return add_noise
    if isinstance(lik, CorrelatedGaussian):
        if not full_cov:  # [N, P, P]
            return lambda mean, cov: (mean, cov + lik.cov[None, :, :])
        raise ConfigError(
            "correlated observation noise is defined for the per-point modes"
        )
    raise ConfigError(
        "--observation-noise needs a Gaussian or correlated Gaussian likelihood"
    )


def _write_rows(handle, table):
    """One CSV line per row of ``table``, each float as its ``repr``.  Rows
    are converted to lists one at a time: a list of the whole table would
    hold a Python float per cell."""
    for row in table:
        handle.write(",".join(map(repr, row.tolist())) + "\n")


def _write_tensor_section(handle, name, tensor):
    shape = " ".join(str(d) for d in tensor.shape)
    handle.write(f"# {name} shape: {shape}\n")
    _write_rows(handle, tensor.reshape(tensor.shape[0], -1))


def cmd_predict(args) -> int:
    model, _ = load_model(args.model)
    dataset = read_dataset(args.data)
    _check_input_dim(model, dataset.x)
    full_cov = bool(args.full_cov)
    full_output_cov = bool(args.full_output_cov)
    model.check_modes(full_cov, full_output_cov)
    noisy = (
        _observation_noise(model.likelihood, full_cov, full_output_cov)
        if args.observation_noise
        else lambda mean, cov: (mean, cov)
    )

    mean, cov = noisy(*model.predict_moments(dataset.x, full_cov, full_output_cov))

    n, p = mean.shape
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(
            f"# mode full_cov={str(full_cov).lower()} "
            f"full_output_cov={str(full_output_cov).lower()}\n"
        )
        if full_cov:
            _write_tensor_section(handle, "mean", mean)
            _write_tensor_section(handle, "cov", cov)
        else:
            if full_output_cov:
                var_names = [f"cov_{i}_{j}" for i in range(p) for j in range(p)]
                var_rows = cov.reshape(n, p * p)
            else:
                var_names = [f"var_{i}" for i in range(p)]
                var_rows = cov
            x_names = [f"x{d}" for d in range(dataset.x.shape[1])]
            mu_names = [f"mu_{i}" for i in range(p)]
            handle.write(",".join(x_names + mu_names + var_names) + "\n")
            _write_rows(handle, np.hstack([dataset.x, mean, var_rows]))
    return 0


def _eval_metrics(model, dataset: Dataset) -> dict:
    lik = model.likelihood
    if dataset.y is None:
        raise DataError("evaluation data needs output columns")
    if dataset.heterotopic:
        if model.mixture:
            raise ConfigError("heterotopic evaluation supports shallow models")
        mean, var = model.predict_moments(dataset.x)
        _check_output_indices(dataset, mean.shape[1])
        y = dataset.y
        logdens = np.empty(y.shape[0])
        errors = np.empty(y.shape[0])
        per_output = []
        for p, rows in output_groups(dataset.outputs):
            lik_p = marginalize_outputs(lik, (p,))
            mu_p, var_p = mean[rows, p : p + 1], var[rows, p : p + 1]
            logdens[rows] = predictive_log_density(lik_p, mu_p, var_p, y[rows])
            ymu_p, _ = predict_observation_moments(lik_p, mu_p, var_p)
            errors[rows] = y[rows, 0] - ymu_p[:, 0]
            per_output.append(
                {
                    "output": int(p),
                    "count": rows.size,
                    "mlpd": float(logdens[rows].mean()),
                    "rmse": float(np.sqrt(np.mean(errors[rows] ** 2))),
                }
            )
        return {
            "mlpd": float(logdens.mean()),
            "rmse": float(np.sqrt(np.mean(errors**2))),
            "per_output": per_output,
        }

    y = dataset.y
    mean, var, logdens = model.predict_log_density(dataset.x, y)
    ymu, _ = predict_observation_moments(lik, mean, var)
    if y.shape != ymu.shape:
        raise DataError(
            f"dataset has {y.shape[1]} outputs, model predicts {ymu.shape[1]}"
        )
    errors = y - ymu

    def output_mlpd(p):
        if y.shape[1] == 1:
            return float(np.mean(logdens))
        if model.mixture or lik.requires_full_output_cov:
            return None  # joint density does not factorize per output
        column = predictive_log_density(
            lik, mean[:, p : p + 1], var[:, p : p + 1], y[:, p : p + 1]
        )
        return float(np.mean(column))

    per_output = [
        {
            "output": p,
            "count": int(y.shape[0]),
            "mlpd": output_mlpd(p),
            "rmse": float(np.sqrt(np.mean(errors[:, p] ** 2))),
        }
        for p in range(y.shape[1])
    ]
    return {
        "mlpd": float(np.mean(logdens)),
        "rmse": float(np.sqrt(np.mean(errors**2))),
        "per_output": per_output,
    }


def cmd_eval(args) -> int:
    model, _ = load_model(args.model)
    dataset = read_dataset(args.data)
    _check_input_dim(model, dataset.x)
    if dataset.y is not None:
        model.likelihood.check_targets(dataset.y)
    metrics = _eval_metrics(model, dataset)
    text = json.dumps(metrics, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid {spec!r} must be min:max:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"grid {spec!r} must be numeric") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"grid {spec!r} must be finite")
    if steps < 1 or hi < lo:
        raise ConfigError(f"grid {spec!r} is degenerate")
    return np.linspace(lo, hi, steps)


def cmd_plotdata(args) -> int:
    model, _ = load_model(args.model)
    grids = [_parse_grid(g) for g in args.grid]
    if len(grids) > 2:
        raise ConfigError("plot grids support at most two dimensions")
    if len(grids) == 1:
        x = grids[0][:, None]
    else:
        a, b = np.meshgrid(grids[0], grids[1], indexing="ij")
        x = np.column_stack([a.reshape(-1), b.reshape(-1)])
    _check_input_dim(model, x)

    mean, var = model.predict_moments(x)
    if args.observation_noise:
        mean, var = predict_observation_moments(model.likelihood, mean, var)
    band = 2.0 * np.sqrt(np.clip(var, 0.0, None))

    p = mean.shape[1]
    names = [f"x{d}" for d in range(x.shape[1])]
    names += [f"mu_{i}" for i in range(p)]
    names += [f"var_{i}" for i in range(p)]
    names += [f"lo_{i}" for i in range(p)]
    names += [f"hi_{i}" for i in range(p)]
    table = np.hstack([x, mean, var, mean - band, mean + band])
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(names) + "\n")
        _write_rows(handle, table)
    return 0


# ---------------------------------------------------------------------------
# Entry point


class _Once(argparse.Action):
    """Reject a repeated occurrence of the same option."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest, None) is not None:
            parser.error(f"{option_string} given more than once")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsegp",
        description="Train and query sparse variational GP models in batch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model described by a config file")
    train.add_argument("--config", required=True, action=_Once)
    train.add_argument("--data", required=True, action=_Once)
    train.add_argument("--out", required=True, action=_Once, help="model file to write")
    train.add_argument(
        "--trace", action=_Once, help="trace file (default: <out>.trace.jsonl)"
    )
    train.set_defaults(handler=cmd_train)

    predict = sub.add_parser("predict", help="posterior moments at new inputs")
    predict.add_argument("--model", required=True, action=_Once)
    predict.add_argument("--data", required=True, action=_Once)
    predict.add_argument("--out", required=True, action=_Once)
    predict.add_argument("--full-cov", action="store_true", dest="full_cov")
    predict.add_argument(
        "--full-output-cov", action="store_true", dest="full_output_cov"
    )
    predict.add_argument(
        "--observation-noise", action="store_true", dest="observation_noise"
    )
    predict.set_defaults(handler=cmd_predict)

    evaluate = sub.add_parser("eval", help="predictive metrics on labelled data")
    evaluate.add_argument("--model", required=True, action=_Once)
    evaluate.add_argument("--data", required=True, action=_Once)
    evaluate.add_argument("--out", action=_Once)
    evaluate.set_defaults(handler=cmd_eval)

    plotdata = sub.add_parser("plotdata", help="posterior bands on a grid")
    plotdata.add_argument("--model", required=True, action=_Once)
    plotdata.add_argument(
        "--grid", action="append", required=True, help="min:max:steps (per dim)"
    )
    plotdata.add_argument("--out", required=True, action=_Once)
    plotdata.add_argument(
        "--observation-noise", action="store_true", dest="observation_noise"
    )
    plotdata.set_defaults(handler=cmd_plotdata)
    return parser


def _attach_grid_values(argv):
    """``--grid -1:1:5`` as ``--grid=-1:1:5``: argparse reads a separate
    value that starts with a dash as an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--grid" and arg.startswith("-") and ":" in arg:
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_grid_values(argv))
    try:
        return args.handler(args)
    except (ConfigError, UnsupportedCombination) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except FileNotFoundError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except SparseGPError as err:
        print(f"numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
