"""Batch command-line interface: train, predict, evaluate, plot data.

Exit codes: 0 success, 2 configuration error, 3 data validation error,
4 numerical failure (the failing error class is printed).  The environment
variable SPARSEGP_JITTER overrides the default jitter for debugging.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
from scipy.special import logsumexp

from .config import load_config
from .inducing import InducingPoints
from .kernels import Convolutional, IndependentLatent
from .errors import ConfigError, DataError, SparseGPError
from .likelihoods import (
    CorrelatedGaussian,
    Gaussian,
    marginalize_outputs,
    predict_observation_moments,
    predictive_log_density,
)
from .modelio import (
    Dataset,
    load_model,
    read_dataset,
    save_model,
    spec_to_inducing,
    spec_to_kernel,
    spec_to_likelihood,
    spec_to_mean,
)
from .models import DGPModel, GPLayer, GPRModel, SVGPModel, UncertainSVGP
from .numerics import RngState
from .training import FitConfig, TraceRecord, fit
from .conditionals import VariationalGaussian
from .inducing import num_inducing as count_inducing


# ---------------------------------------------------------------------------
# Model construction from a parsed config tree


def _require(node, key, context):
    if key not in node:
        raise ConfigError(f"{context} is missing the {key!r} entry")
    return node[key]


def _initial_q(iv, kernel, whiten) -> VariationalGaussian:
    total = count_inducing(iv, kernel)
    if isinstance(kernel, IndependentLatent) and not (
        isinstance(iv, InducingPoints)
    ):
        l = kernel.num_latent
        size = total // l
        return VariationalGaussian(
            np.zeros(total), tuple(np.eye(size) for _ in range(l)), whiten=whiten
        )
    return VariationalGaussian(np.zeros(total), np.eye(total), whiten=whiten)


def _build_inducing(spec, x, kernel):
    if not isinstance(spec, dict) or "tag" not in spec:
        raise ConfigError(f"malformed inducing spec: {spec!r}")
    spec = dict(spec)
    tag = spec["tag"]
    if tag in ("points", "multiscale", "patches") and "from_data" in spec:
        m = int(spec.pop("from_data"))
        if m < 1:
            raise ConfigError(f"from_data = {m} must be positive")
        if tag == "patches":
            if not isinstance(kernel, Convolutional):
                raise ConfigError("inducing patches need a convolutional kernel")
            pool = kernel.patches(x).reshape(-1, kernel.patch_len)
            if m > pool.shape[0]:
                raise ConfigError(f"from_data = {m} exceeds available patches")
            spec["z"] = pool[:m].tolist()
        else:
            if m > x.shape[0]:
                raise ConfigError(f"from_data = {m} exceeds the dataset size")
            spec["z"] = x[:m].tolist()
            if tag == "multiscale" and "scales" not in spec:
                spec["scales"] = np.full((m, x.shape[1]), 0.5).tolist()
    if tag == "shared":
        spec["base"] = _built_spec(spec.get("base"), x, kernel)
    if tag == "separate":
        spec["members"] = [
            _built_spec(member, x, kernel) for member in spec.get("members", [])
        ]
    return spec_to_inducing(spec)


def _built_spec(spec, x, kernel):
    # Resolve nested from_data entries, then hand back a plain spec.
    from .modelio import inducing_to_spec

    return inducing_to_spec(_build_inducing(spec, x, kernel))


def _build_svgp(node, dataset: Dataset) -> SVGPModel:
    kernel = spec_to_kernel(_require(node, "kernel", "model"))
    likelihood = spec_to_likelihood(_require(node, "likelihood", "model"))
    iv = _build_inducing(_require(node, "inducing", "model"), dataset.x, kernel)
    whiten = bool(node.get("whiten", True))
    q = _initial_q(iv, kernel, whiten)
    jitter = node.get("jitter")
    return SVGPModel(
        kernel,
        likelihood,
        iv,
        q,
        spec_to_mean(node.get("mean")),
        num_data=dataset.x.shape[0],
        jitter=float(jitter) if jitter is not None else None,
    )


def build_model(config: dict, dataset: Dataset):
    node = _require(config, "model", "config")
    if not isinstance(node, dict):
        raise ConfigError("model must be a block")
    kind = _require(node, "kind", "model")

    if kind == "gpr":
        kernel = spec_to_kernel(_require(node, "kernel", "model"))
        likelihood = spec_to_likelihood(node.get("likelihood", "gaussian"))
        if not isinstance(likelihood, Gaussian):
            raise ConfigError("gpr supports a Gaussian likelihood only")
        if dataset.y is None or dataset.y.shape[1] != 1:
            raise DataError("gpr needs a single y0 output column")
        return GPRModel(kernel, likelihood.variance, dataset.x, dataset.y)

    if kind == "svgp":
        return _build_svgp(node, dataset)

    if kind == "dgp":
        layer_specs = _require(node, "layers", "model")
        if not isinstance(layer_specs, list) or not layer_specs:
            raise ConfigError("dgp needs a non-empty layers list")
        whiten = bool(node.get("whiten", True))
        layers = []
        for spec in layer_specs:
            kernel = spec_to_kernel(_require(spec, "kernel", "layer"))
            iv = _build_inducing(_require(spec, "inducing", "layer"), dataset.x, kernel)
            layers.append(
                GPLayer(kernel, iv, _initial_q(iv, kernel, whiten),
                        spec_to_mean(spec.get("mean")))
            )
        jitter = node.get("jitter")
        return DGPModel(
            layers,
            spec_to_likelihood(_require(node, "likelihood", "model")),
            num_data=dataset.x.shape[0],
            num_samples=int(node.get("num_samples", 1)),
            jitter=float(jitter) if jitter is not None else None,
        )

    if kind == "svgp_uncertain":
        svgp = _build_svgp(node, dataset)
        if dataset.y is None:
            raise DataError("uncertain-input training needs output columns")
        input_var = float(node.get("input_variance", 0.01))
        return UncertainSVGP(
            svgp,
            dataset.x,
            np.full(dataset.x.shape, input_var),
            dataset.y,
        )

    raise ConfigError(f"unknown model kind {kind!r}")


def _fit_config(config: dict) -> FitConfig:
    node = config.get("model", {})
    freeze = node.get("freeze", []) if isinstance(node, dict) else []
    if isinstance(freeze, str):
        freeze = [freeze]
    batch_size = int(config.get("batch_size", 0))
    kind = node.get("kind") if isinstance(node, dict) else None
    if batch_size > 0 and kind in ("gpr", "svgp_uncertain"):
        raise ConfigError(
            f"kind = {kind} trains on the full dataset; batch_size must be 0 "
            "or absent"
        )
    return FitConfig(
        steps=int(config.get("steps", 500)),
        learning_rate=float(config.get("learning_rate", 1e-2)),
        batch_size=batch_size,
        seed=int(config.get("seed", 0)),
        whiten=bool(node.get("whiten", True)) if isinstance(node, dict) else True,
        freeze=tuple(freeze),
    )


# ---------------------------------------------------------------------------
# Shared prediction helpers


def _model_input_dim(model) -> int:
    if isinstance(model, GPRModel):
        return model.x.shape[1]
    if isinstance(model, UncertainSVGP):
        return model.input_mean.shape[1]
    if isinstance(model, DGPModel):
        iv = model.layers[0].inducing
    else:
        iv = model.inducing
    while not isinstance(iv, InducingPoints):
        iv = iv.base if hasattr(iv, "base") else iv.members[0]
    if isinstance(model, SVGPModel) and isinstance(model.kernel, Convolutional):
        return model.kernel.image_shape[0] * model.kernel.image_shape[1]
    return iv.z.shape[1]


def _check_input_dim(model, x):
    want = _model_input_dim(model)
    if x.shape[1] != want:
        raise DataError(
            f"dataset has {x.shape[1]} input columns, model expects {want}"
        )


def _check_output_indices(dataset: Dataset, num_outputs: int):
    if dataset.num_outputs > num_outputs:
        raise DataError(
            f"output_index {dataset.num_outputs - 1} is out of range for a "
            f"model with P = {num_outputs} outputs"
        )


def _marginal_moments(model, x, rng_seed=0):
    """Posterior marginals [N, P] for any model kind."""
    if isinstance(model, GPRModel):
        pm = model.predict(x)
        return pm.mean, pm.cov
    if isinstance(model, UncertainSVGP):
        model = model.svgp
    if isinstance(model, SVGPModel):
        pm = model.predict_f(x)
        return pm.mean, pm.cov
    if isinstance(model, DGPModel):
        samples = max(model.num_samples, 100)  # evaluation default
        return model.predict_f(x, RngState(rng_seed), samples)
    raise ConfigError(f"cannot predict with {type(model).__name__}")


def _model_likelihood(model):
    if isinstance(model, GPRModel):
        return Gaussian(max(model.noise_variance, 1e-300))
    if isinstance(model, UncertainSVGP):
        return model.svgp.likelihood
    return model.likelihood


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args) -> int:
    config = load_config(args.config)
    dataset = read_dataset(args.data)
    model = build_model(config, dataset)
    fit_config = _fit_config(config)

    if dataset.heterotopic:
        if not isinstance(model, SVGPModel):
            raise ConfigError("heterotopic data requires an svgp model")
        _check_output_indices(dataset, model.num_outputs)
        data = (dataset.x, dataset.outputs, dataset.y[:, 0])
    else:
        if dataset.y is None:
            raise DataError("training data needs output columns")
        data = (dataset.x, dataset.y)

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


def _apply_observation_noise(model, cov, full_cov, full_output_cov):
    lik = _model_likelihood(model)
    if isinstance(lik, Gaussian):
        noise = lik.variance
        if not full_cov and not full_output_cov:
            return cov + noise
        if not full_cov:  # [N, P, P]
            return cov + noise * np.eye(cov.shape[-1])
        if not full_output_cov:  # [P, N, N]
            return cov + noise * np.eye(cov.shape[-1])
        n, p = cov.shape[0], cov.shape[1]
        flat = cov.reshape(n * p, n * p) + noise * np.eye(n * p)
        return flat.reshape(n, p, n, p)
    if isinstance(lik, CorrelatedGaussian):
        if not full_cov and full_output_cov:
            return cov + lik.cov[None, :, :]
        if not full_cov and not full_output_cov:
            return cov + np.diag(lik.cov)[None, :]
        raise ConfigError(
            "correlated observation noise is defined for the per-point modes"
        )
    raise ConfigError(
        "--observation-noise needs a Gaussian or correlated Gaussian likelihood"
    )


def _write_tensor_section(handle, name, tensor):
    shape = " ".join(str(d) for d in tensor.shape)
    handle.write(f"# {name} shape: {shape}\n")
    lead = tensor.shape[0]
    flat = tensor.reshape(lead, -1)
    for row in flat:
        handle.write(",".join(repr(float(v)) for v in row) + "\n")


def cmd_predict(args) -> int:
    model, _ = load_model(args.model)
    dataset = read_dataset(args.data)
    _check_input_dim(model, dataset.x)
    full_cov = bool(args.full_cov)
    full_output_cov = bool(args.full_output_cov)

    if isinstance(model, DGPModel) and (full_cov or full_output_cov):
        raise ConfigError("deep models emit marginal predictions only")

    if full_cov or full_output_cov:
        inner = model.svgp if isinstance(model, UncertainSVGP) else model
        if isinstance(inner, GPRModel):
            if full_output_cov or not full_cov:
                raise ConfigError("gpr supports --full-cov without output modes")
            pm = inner.predict(dataset.x, full_cov=True)
        else:
            pm = inner.predict_f(
                dataset.x, full_cov=full_cov, full_output_cov=full_output_cov
            )
        mean, cov = pm.mean, pm.cov
    else:
        mean, cov = _marginal_moments(model, dataset.x)

    if args.observation_noise:
        lik = _model_likelihood(model)
        if not full_cov and not full_output_cov:
            if isinstance(lik, CorrelatedGaussian):
                cov = cov + np.diag(lik.cov)[None, :]
            else:
                mean, cov = predict_observation_moments(lik, mean, cov)
        else:
            cov = _apply_observation_noise(model, cov, full_cov, full_output_cov)

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
            table = np.hstack([dataset.x, mean, var_rows])
            for row in table:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
    return 0


def _dgp_log_densities(model, x, y, seed=0):
    # Mixture predictive density over propagated samples.
    samples = max(model.num_samples, 100)
    rng = RngState(seed)
    log_parts = []
    for _ in range(samples):
        h = model.propagate(x, rng)
        pm = model._final_moments(h)
        cov = pm.cov
        if cov.ndim == 3:
            cov = np.einsum("npp->np", cov)
        log_parts.append(predictive_log_density(model.likelihood, pm.mean, cov, y))
    return logsumexp(np.stack(log_parts), axis=0) - np.log(samples)


def _eval_metrics(model, dataset: Dataset) -> dict:
    lik = _model_likelihood(model)
    if dataset.heterotopic:
        if isinstance(model, (DGPModel,)):
            raise ConfigError("heterotopic evaluation supports shallow models")
        mean, var = _marginal_moments(model, dataset.x)
        _check_output_indices(dataset, mean.shape[1])
        y = dataset.y
        logdens = np.empty(y.shape[0])
        errors = np.empty(y.shape[0])
        per_output = []
        for p in np.flatnonzero(np.bincount(dataset.outputs)):
            mask = dataset.outputs == p
            lik_p = marginalize_outputs(lik, (p,))
            mu_p, var_p = mean[mask, p : p + 1], var[mask, p : p + 1]
            logdens[mask] = predictive_log_density(lik_p, mu_p, var_p, y[mask])
            ymu_p, _ = predict_observation_moments(lik_p, mu_p, var_p)
            errors[mask] = y[mask, 0] - ymu_p[:, 0]
            per_output.append(
                {
                    "output": int(p),
                    "count": int(mask.sum()),
                    "mlpd": float(logdens[mask].mean()),
                    "rmse": float(np.sqrt(np.mean(errors[mask] ** 2))),
                }
            )
        return {
            "mlpd": float(logdens.mean()),
            "rmse": float(np.sqrt(np.mean(errors**2))),
            "per_output": per_output,
        }

    if dataset.y is None:
        raise DataError("evaluation data needs output columns")
    y = dataset.y
    if isinstance(model, DGPModel):
        mean, var = _marginal_moments(model, dataset.x)
        logdens = _dgp_log_densities(model, dataset.x, y)
    else:
        mean, var = _marginal_moments(model, dataset.x)
        if getattr(lik, "requires_full_output_cov", False):
            inner = model.svgp if isinstance(model, UncertainSVGP) else model
            pm = inner.predict_f(dataset.x, full_output_cov=True)
            logdens = predictive_log_density(lik, pm.mean, pm.cov, y)
        else:
            logdens = predictive_log_density(lik, mean, var, y)
    ymu, _ = predict_observation_moments(lik, mean, var)
    if y.shape != ymu.shape:
        raise DataError(
            f"dataset has {y.shape[1]} outputs, model predicts {ymu.shape[1]}"
        )
    errors = y - ymu

    def output_mlpd(p):
        if y.shape[1] == 1:
            return float(np.mean(logdens))
        if isinstance(model, DGPModel) or getattr(
            lik, "requires_full_output_cov", False
        ):
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

    mean, var = _marginal_moments(model, x)
    if args.observation_noise:
        mean, var = predict_observation_moments(_model_likelihood(model), mean, var)
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
        for row in table:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
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
