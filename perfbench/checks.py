"""Output checks for each CLI operation.

Each check returns a list of problems; an empty list means the operation's
output is correct.  The model file is loaded with ``sparsegp`` itself, so
predictions can be compared with the loaded model on the same inputs.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# A prediction row must match the loaded model's own prediction on the same
# input within this tolerance (numpy.allclose: |a - b| <= ATOL + RTOL * |b|).
RTOL = 1e-8
ATOL = 1e-10
# At most this many evenly spaced rows are recomputed per prediction file.
RECHECK_ROWS = 2000


def check(op) -> list[str]:
    from sparsegp.errors import SparseGPError

    if not os.path.exists(op.out):
        return [f"{op.kind} wrote no {os.path.basename(op.out)}"]
    try:
        return CHECKS[op.kind](op)
    except (ValueError, KeyError, IndexError, OSError, SparseGPError,
            np.linalg.LinAlgError) as err:
        return [f"{op.kind} output unreadable: {type(err).__name__}: {err}"]


def check_train(op) -> list[str]:
    from sparsegp.modelio import load_model, save_model

    problems = []
    with open(op.out, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    steps = op.expect["steps"]
    if [r["step"] for r in records] != list(range(steps)):
        problems.append(f"trace has {len(records)} records for {steps} steps")
    elbos = [r["elbo"] for r in records]
    if not all(math.isfinite(e) for e in elbos):
        problems.append("trace holds a non-finite ELBO")
    elif elbos and not elbos[-1] > elbos[0]:
        problems.append(f"ELBO did not rise: first {elbos[0]}, last {elbos[-1]}")

    model, metadata = load_model(op.model)
    again = op.model + ".resaved"
    save_model(model, again, metadata)
    with open(op.model, "rb") as a, open(again, "rb") as b:
        if a.read() != b.read():
            problems.append("load -> save does not reproduce the model file bytes")
    os.remove(again)
    return problems


def final_elbo(op) -> float:
    with open(op.out, encoding="utf-8") as handle:
        last = [line for line in handle if line.strip()][-1]
    return float(json.loads(last)["elbo"])


def _read_table(path: str, skip: int):
    with open(path, encoding="utf-8") as handle:
        lines = [handle.readline() for _ in range(skip)]
    table = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return lines, table


def _read_inputs(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, [i for i, h in enumerate(header) if h.startswith("x")]]


def check_predict(op) -> list[str]:
    from sparsegp.modelio import load_model
    from sparsegp.models import DGPModel, GPRModel

    foc = op.expect["full_output_cov"]
    (mode, header), table = _read_table(op.out, 2)
    want_mode = f"# mode full_cov=false full_output_cov={str(foc).lower()}"
    if mode.strip() != want_mode:
        return [f"prediction mode line is {mode.strip()!r}"]
    names = header.strip().split(",")
    x = _read_inputs(op.expect["query"])
    if table.shape[0] != op.expect["rows"] or x.shape[0] != op.expect["rows"]:
        return [f"prediction has {table.shape[0]} rows for {op.expect['rows']} inputs"]
    d = x.shape[1]
    mu = table[:, [i for i, n in enumerate(names) if n.startswith("mu_")]]
    p = mu.shape[1]
    spread = table[:, d + p :]
    problems = []
    if not np.array_equal(table[:, :d], x):
        problems.append("prediction x columns differ from the query inputs")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(spread))):
        problems.append("prediction holds non-finite values")
    cov = spread.reshape(-1, p, p) if foc else None
    var = np.einsum("npp->np", cov) if foc else spread
    if np.any(var < 0):
        problems.append("prediction holds a negative variance")
    if foc and not np.allclose(cov, np.swapaxes(cov, 1, 2), rtol=RTOL, atol=ATOL):
        problems.append("per-point output covariances are not symmetric")

    model, _ = load_model(op.model)
    if isinstance(model, DGPModel):
        return problems  # a mixture over one shared sample stream: no per-row oracle
    rows = np.unique(np.linspace(0, x.shape[0] - 1, RECHECK_ROWS).astype(int))
    if isinstance(model, GPRModel):
        moments = model.predict(x[rows])
    else:
        moments = model.predict_f(x[rows], full_output_cov=foc)
    want = moments.cov.reshape(len(rows), -1)
    if not np.allclose(mu[rows], moments.mean, rtol=RTOL, atol=ATOL):
        problems.append("prediction means differ from the loaded model's")
    if not np.allclose(spread[rows], want, rtol=RTOL, atol=ATOL):
        problems.append("prediction variances differ from the loaded model's")
    return problems


def eval_metrics(op) -> dict:
    with open(op.out, encoding="utf-8") as handle:
        return json.load(handle)


def check_eval(op) -> list[str]:
    metrics = eval_metrics(op)
    problems = []
    for key in ("mlpd", "rmse"):
        if not math.isfinite(metrics[key]):
            problems.append(f"eval {key} is {metrics[key]}")
    for entry in metrics["per_output"]:
        if not all(
            v is None or math.isfinite(v) for v in (entry["mlpd"], entry["rmse"])
        ):
            problems.append(f"eval metrics of output {entry['output']} are not finite")
    counts = [e["count"] for e in metrics["per_output"]]
    rows = op.expect["rows"]
    if sum(counts) != rows and set(counts) != {rows}:
        problems.append(f"eval counted {counts} rows for {rows}")
    return problems


def check_plotdata(op) -> list[str]:
    (header,), table = _read_table(op.out, 1)
    names = header.strip().split(",")
    axes = [np.linspace(lo, hi, n) for lo, hi, n in op.expect["grids"]]
    mesh = np.meshgrid(*axes, indexing="ij")
    x = np.column_stack([m.reshape(-1) for m in mesh])
    if table.shape[0] != x.shape[0]:
        return [f"plot data has {table.shape[0]} rows for a {x.shape[0]}-point grid"]

    def columns(prefix):
        return table[:, [i for i, n in enumerate(names) if n.startswith(prefix)]]

    mu, var, lo, hi = columns("mu_"), columns("var_"), columns("lo_"), columns("hi_")
    problems = []
    if not np.array_equal(table[:, : x.shape[1]], x):
        problems.append("plot data x columns differ from the grid")
    if not np.all(np.isfinite(table)):
        problems.append("plot data holds non-finite values")
    if np.any(var < 0):
        problems.append("plot data holds a negative variance")
    if not (np.all(lo <= mu) and np.all(mu <= hi)):
        problems.append("plot data band does not satisfy lo <= mu <= hi")
    return problems


CHECKS = {
    "train": check_train,
    "predict": check_predict,
    "eval": check_eval,
    "plotdata": check_plotdata,
}
