"""Model file and dataset file input/output.

The model file is JSON with a fixed schema version.  Save -> load -> save is
byte-identical: documents are emitted with sorted keys and arrays as nested
lists, and loading validates every constituent invariant by rebuilding the
real objects.

Datasets are delimited text with a header row: input columns ``x0..x{D-1}``
followed by outputs ``y0..y{P-1}``, or a single ``output_index`` column plus
``y0`` for heterotopic data (one scalar observation of one output per row).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .conditionals import VariationalGaussian
from .errors import ConfigError, DataError
from .inducing import InducingVariable
from .kernels import Kernel
from .likelihoods import Likelihood
from .models import (
    DGPModel,
    GPLayer,
    GPRModel,
    MeanFunction,
    SVGPModel,
    UncertainSVGP,
)
from .schema import as_list, construct, from_spec, to_spec

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Model files


def _gp_spec(gp) -> dict:
    """The parts an SVGP shares with a deep-GP layer."""
    return {
        "kernel": to_spec(gp.kernel),
        "inducing": to_spec(gp.inducing),
        "mean_function": to_spec(gp.mean_function),
        **to_spec(gp.q),
    }


def _gp_parts(doc):
    """(kernel, inducing, q, mean function) from an SVGP or layer document."""
    return (
        from_spec(doc["kernel"], Kernel),
        from_spec(doc["inducing"], InducingVariable),
        construct(VariationalGaussian, doc),
        from_spec(doc.get("mean_function", "zero"), MeanFunction),
    )


def model_to_document(model, metadata: dict | None = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "metadata": metadata or {}}
    if isinstance(model, GPRModel):
        doc.update(
            kind="gpr",
            kernel=to_spec(model.kernel),
            noise_variance=float(model.noise_variance),
            x=as_list(model.x),
            y=as_list(model.y),
        )
        return doc
    if isinstance(model, SVGPModel):
        doc.update(
            kind="svgp",
            likelihood=to_spec(model.likelihood),
            num_data=model.num_data,
            jitter=model.jitter,
            **_gp_spec(model),
        )
        return doc
    if isinstance(model, DGPModel):
        doc.update(
            kind="dgp",
            layers=[_gp_spec(layer) for layer in model.layers],
            likelihood=to_spec(model.likelihood),
            num_data=model.num_data,
            num_samples=model.num_samples,
            jitter=model.jitter,
        )
        return doc
    if isinstance(model, UncertainSVGP):
        doc.update(
            kind="svgp_uncertain",
            svgp=model_to_document(model.svgp),
            input_mean=as_list(model.input_mean),
            input_var=as_list(model.input_var),
            y=as_list(model.y),
        )
        return doc
    raise ConfigError(f"model {type(model).__name__} has no file representation")


def document_to_model(doc: dict):
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported model file schema: {doc.get('schema_version')!r}"
        )
    kind = doc.get("kind")
    if kind == "gpr":
        return GPRModel(
            from_spec(doc["kernel"], Kernel),
            float(doc["noise_variance"]),
            np.asarray(doc["x"], float),
            np.asarray(doc["y"], float),
        )
    if kind == "svgp":
        kernel, inducing, q, mean = _gp_parts(doc)
        likelihood = from_spec(doc["likelihood"], Likelihood)
        return SVGPModel(
            kernel, likelihood, inducing, q, mean, doc.get("num_data"), doc.get("jitter")
        )
    if kind == "dgp":
        return DGPModel(
            [GPLayer(*_gp_parts(layer)) for layer in doc["layers"]],
            from_spec(doc["likelihood"], Likelihood),
            doc.get("num_data"),
            doc.get("num_samples", 1),
            doc.get("jitter"),
        )
    if kind == "svgp_uncertain":
        return UncertainSVGP(
            document_to_model(doc["svgp"]),
            np.asarray(doc["input_mean"], float),
            np.asarray(doc["input_var"], float),
            np.asarray(doc["y"], float),
        )
    raise ConfigError(f"unknown model kind {kind!r}")


def save_model(model, path, metadata: dict | None = None) -> None:
    doc = model_to_document(model, metadata)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise ConfigError(f"model file is not valid JSON: {err}") from err
    model = document_to_model(doc)
    return model, doc.get("metadata", {})


# ---------------------------------------------------------------------------
# Dataset files


@dataclass
class Dataset:
    x: np.ndarray  # [N, D]
    y: np.ndarray | None  # [N, P] for homotopic files
    outputs: np.ndarray | None  # [N] observed output index, heterotopic files

    @property
    def heterotopic(self) -> bool:
        return self.outputs is not None

    @property
    def num_outputs(self) -> int:
        if self.heterotopic:
            return int(self.outputs.max()) + 1
        return 0 if self.y is None else self.y.shape[1]


def _parse_header(header):
    x_cols, y_cols = [], []
    output_col = None
    for i, name in enumerate(header):
        name = name.strip()
        if name.startswith("x") and name[1:].isdigit():
            x_cols.append((int(name[1:]), i))
        elif name.startswith("y") and name[1:].isdigit():
            y_cols.append((int(name[1:]), i))
        elif name == "output_index":
            output_col = i
        else:
            raise DataError(f"unrecognized column {name!r}")
    x_cols.sort()
    y_cols.sort()
    if [k for k, _ in x_cols] != list(range(len(x_cols))) or not x_cols:
        raise DataError("input columns must be x0..x{D-1}")
    if [k for k, _ in y_cols] != list(range(len(y_cols))):
        raise DataError("output columns must be y0..y{P-1}")
    if output_col is not None and len(y_cols) > 1:
        raise DataError("heterotopic files carry a single y0 column")
    return [i for _, i in x_cols], [i for _, i in y_cols], output_col


def read_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row and any(c.strip() for c in row)]
    if not rows:
        raise DataError("dataset file is empty")
    x_idx, y_idx, output_col = _parse_header(rows[0])
    width = len(rows[0])
    x, y, outputs = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise DataError(f"line {lineno}: expected {width} cells, got {len(row)}")
        try:
            x.append([float(row[i]) for i in x_idx])
            if y_idx:
                y.append([float(row[i]) for i in y_idx])
            if output_col is not None:
                index = float(row[output_col])
                if index != int(index) or index < 0:
                    raise ValueError
                outputs.append(int(index))
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric cell") from None
    return Dataset(
        np.asarray(x, float),
        np.asarray(y, float) if y_idx else None,
        np.asarray(outputs, int) if output_col is not None else None,
    )


def write_dataset(path, x, y=None, outputs=None) -> None:
    x = np.asarray(x, float)
    header = [f"x{d}" for d in range(x.shape[1])]
    columns = [x]
    if outputs is not None:
        header.append("output_index")
        columns.append(np.asarray(outputs)[:, None])
    if y is not None:
        y = np.asarray(y, float)
        if y.ndim == 1:
            y = y[:, None]
        header.extend(f"y{p}" for p in range(y.shape[1]))
        columns.append(y)
    table = np.hstack(columns)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for lineno in range(table.shape[0]):
            writer.writerow([repr(float(v)) for v in table[lineno]])
