"""Model file and dataset file input/output.

The model file is JSON with a fixed schema version; its document follows
from the model kind's declaration (see the ``schema`` module).  Save ->
load -> save is byte-identical: documents are emitted with sorted keys and
arrays as nested lists, and loading validates every constituent invariant
by rebuilding the real objects.

Datasets are delimited text with a header row: input columns ``x0..x{D-1}``
followed by outputs ``y0..y{P-1}``, or a single ``output_index`` column plus
``y0`` for heterotopic data (one scalar observation of one output per row).
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .models import Model
from .schema import from_document, to_document


# ---------------------------------------------------------------------------
# Model files


def save_model(model, path, metadata: dict | None = None) -> None:
    doc = to_document(model, metadata)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise ConfigError(f"model file is not valid JSON: {err}") from err
    model = from_document(doc, Model)
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
    """The dataset in a file: one bulk pass over a regular file, else each
    row parsed as it is read.  Blank rows are skipped, and error line
    numbers count the rows that are not blank, the header being line 1."""
    return _read_table(path) or _read_rows(path)


def _read_table(path) -> Dataset | None:
    """A regular file in one ``np.loadtxt`` pass over the rows below its
    header, else None: a blank, ragged, quoted or non-numeric row, a cell
    that is not finite or an output index that is not a count sends the
    file to ``_read_rows``, which refuses it with its line number (or reads
    what only Python's ``float`` parses, such as ``1_000``)."""
    with open(path, "r", encoding="utf-8") as handle, warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns of a file with no rows
        try:
            header = handle.readline()
            if '"' in header or not header.strip():
                return None
            x_idx, y_idx, output_col = _parse_header(next(csv.reader([header])))
            table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
        except (DataError, ValueError, UserWarning):
            return None
    if table.shape[1] != len(x_idx) + len(y_idx) + (output_col is not None):
        return None
    if not np.isfinite(table).all():
        return None
    outputs = None
    if output_col is not None:
        index = table[:, output_col]
        if not ((index >= 0) & (index < 2.0**63) & (index == np.floor(index))).all():
            return None
        outputs = index.astype(int)
    x = np.ascontiguousarray(table[:, x_idx])
    y = np.ascontiguousarray(table[:, y_idx]) if y_idx else None
    return Dataset(x, y, outputs)


def _read_rows(path) -> Dataset:
    """Parse each row as it is read, then refuse non-finite cells."""
    x, y, outputs = [], [], []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = (row for row in csv.reader(handle) if row and any(c.strip() for c in row))
        header = next(rows, None)
        if header is None:
            raise DataError("dataset file is empty")
        x_idx, y_idx, output_col = _parse_header(header)
        width = len(header)
        for lineno, row in enumerate(rows, start=2):
            if len(row) != width:
                raise DataError(f"line {lineno}: expected {width} cells, got {len(row)}")
            try:
                x.append([float(row[i]) for i in x_idx])
                if y_idx:
                    y.append([float(row[i]) for i in y_idx])
                if output_col is not None:
                    index = float(row[output_col])
                    if math.isfinite(index):  # a non-finite one is refused below
                        if index != int(index) or index < 0:
                            raise ValueError
                        if index >= 2.0**63:  # beyond the index array's int64
                            raise DataError(f"line {lineno}: output_index out of range")
                        index = int(index)
                    outputs.append(index)
            except ValueError:
                raise DataError(f"line {lineno}: non-numeric cell") from None
    if not x:
        raise DataError("dataset file has a header but no rows")
    x, y = np.asarray(x, float), (np.asarray(y, float) if y_idx else None)
    index = None if output_col is None else np.asarray(outputs, float)[:, None]
    finite = np.isfinite(np.hstack([c for c in (x, y, index) if c is not None])).all(axis=1)
    if not finite.all():
        raise DataError(f"line {int(np.argmin(finite)) + 2}: non-finite cell")
    return Dataset(x, y, None if index is None else np.asarray(outputs, int))

