"""Seeded workload inputs and the CLI operations that run on them.

Each workload writes its CSV and config files into a work directory and
returns the list of operations one pass runs.  An operation is one
``sparsegp`` command plus what its output checks need to know.  The same
seed writes byte-identical files; the program only ever sees those files
(and, for ``shipped``, the files under ``data/``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("regress", "hetero_lmc", "deep_classify", "shipped")

# Sizes per workload.  ``tiny`` keeps every code path but shrinks every
# dimension, for the benchmark's own tests.
SIZES = {
    "regress": dict(n=2000, m=128, steps=15, query=50_000, test=20_000, grid=150),
    "hetero_lmc": dict(n=300, m=10, steps=2, query=20_000, test=4_000, grid=20_000),
    "deep_classify": dict(n=300, m=10, steps=5, query=4_000, test=4_000, grid=4_000),
    "shipped": dict(query=30, grid=200),
}
TINY = {
    "regress": dict(n=60, m=8, steps=3, query=200, test=100, grid=10),
    "hetero_lmc": dict(n=30, m=4, steps=2, query=100, test=60, grid=50),
    "deep_classify": dict(n=30, m=4, steps=2, query=50, test=50, grid=40),
    "shipped": dict(query=30, grid=20),
}


@dataclass
class Op:
    """One CLI command and what its checks expect of its output."""

    kind: str  # train | predict | eval | plotdata
    argv: list[str]
    out: str  # the file the command writes
    model: str  # the model file it reads or writes
    expect: dict = field(default_factory=dict)


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(name)])


def _write_csv(path: str, header: list[str], table: np.ndarray) -> None:
    # %.17g round-trips every float64 exactly, so checks can compare inputs
    # with the x columns the CLI echoes back.
    np.savetxt(
        path, table, delimiter=",", header=",".join(header), comments="", fmt="%.17g"
    )


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _points(z: np.ndarray) -> str:
    """Inducing inputs as a config list.  They sit on a fixed grid, not on
    seeded rows, so every seed starts from the same well-conditioned Kuu."""
    return "[" + ", ".join("[" + ", ".join(f"{v:.6g}" for v in row) + "]" for row in z) + "]"


def _train(work, config, data, steps, name="model"):
    model = os.path.join(work, f"{name}.json")
    trace = os.path.join(work, f"{name}.trace.jsonl")
    argv = ["train", "--config", config, "--data", data, "--out", model, "--trace", trace]
    return Op("train", argv, trace, model, {"steps": steps})


def _predict(work, model, query, rows, name="pred", full_output_cov=False):
    out = os.path.join(work, f"{name}.csv")
    argv = ["predict", "--model", model, "--data", query, "--out", out]
    if full_output_cov:
        argv.append("--full-output-cov")
    expect = {"query": query, "rows": rows, "full_output_cov": full_output_cov}
    return Op("predict", argv, out, model, expect)


def _eval(work, model, data, rows, name="metrics"):
    out = os.path.join(work, f"{name}.json")
    argv = ["eval", "--model", model, "--data", data, "--out", out]
    return Op("eval", argv, out, model, {"rows": rows})


def _plotdata(work, model, grids, name="band"):
    out = os.path.join(work, f"{name}.csv")
    # "--grid=-3:3:200": argparse reads a separate "-3:3:200" as an option.
    argv = ["plotdata", "--model", model, "--out", out]
    argv += [f"--grid={lo:g}:{hi:g}:{n}" for lo, hi, n in grids]
    return Op("plotdata", argv, out, model, {"grids": grids})


# ---------------------------------------------------------------------------
# regress: single-output Gaussian SVGP, D = 2


def _regress_f(x):
    return np.sin(1.3 * x[:, 0]) * np.cos(0.9 * x[:, 1]) + 0.25 * x[:, 0]


REGRESS_CONF = """\
seed = 0
steps = {steps}
learning_rate = 0.02
batch_size = 0

model {{
  kind = svgp
  whiten = true
  kernel = sqexp {{ variance = 1.0, lengthscales = [1.0, 1.0] }}
  likelihood = gaussian {{ variance = 0.3 }}
  inducing = points {{ z = {z} }}
  freeze = [inducing.z]
}}
"""


def _regress(work, seed, s):
    rng = _rng("regress", seed)
    noise = 0.5

    def labelled(n):
        x = rng.uniform(-3.0, 3.0, size=(n, 2))
        y = _regress_f(x) + noise * rng.standard_normal(n)
        return np.column_stack([x, y])

    train = os.path.join(work, "train.csv")
    test = os.path.join(work, "test.csv")
    query = os.path.join(work, "query.csv")
    config = os.path.join(work, "svgp.conf")
    _write_csv(train, ["x0", "x1", "y0"], labelled(s["n"]))
    _write_csv(test, ["x0", "x1", "y0"], labelled(s["test"]))
    _write_csv(query, ["x0", "x1"], rng.uniform(-3.0, 3.0, size=(s["query"], 2)))
    rows = max(r for r in range(1, s["m"] + 1) if s["m"] % r == 0 and r * r <= s["m"])
    z = np.stack(np.meshgrid(np.linspace(-2.8, 2.8, rows),
                             np.linspace(-2.8, 2.8, s["m"] // rows), indexing="ij"), -1)
    _write_text(config, REGRESS_CONF.format(steps=s["steps"], z=_points(z.reshape(-1, 2))))
    t = _train(work, config, train, s["steps"])
    grid = (-3.0, 3.0, s["grid"])
    return [
        t,
        _predict(work, t.model, query, s["query"]),
        _eval(work, t.model, test, s["test"]),
        _plotdata(work, t.model, [grid, grid]),
    ]


# ---------------------------------------------------------------------------
# hetero_lmc: heterotopic rows for a 3-output linear coregionalization model

LMC_W = np.array([[1.0, 0.2], [0.5, 0.8], [-0.3, 1.0]])

LMC_CONF = """\
seed = 0
steps = {steps}
learning_rate = 0.05
batch_size = 0

model {{
  kind = svgp
  whiten = false
  kernel = lmc {{
    w = [[1.0, 0.0], [0.5, 0.5], [0.2, 0.8]]
    latents = [sqexp {{ variance = 1.0, lengthscales = [1.0] }}, matern32 {{ variance = 1.0, lengthscales = [1.0] }}]
  }}
  likelihood = gaussian {{ variance = 0.1 }}
  inducing = shared {{ base = points {{ z = {z} }} }}
}}
"""


def _lmc_outputs(x):
    g = np.column_stack([np.sin(1.5 * x), 0.8 * np.cos(0.7 * x)])
    return g @ LMC_W.T  # [N, 3]


def _hetero_lmc(work, seed, s):
    rng = _rng("hetero_lmc", seed)
    noise = 0.2

    def rows(n):
        x = rng.uniform(0.0, 6.0, size=n)
        p = rng.integers(0, LMC_W.shape[0], size=n)
        y = _lmc_outputs(x)[np.arange(n), p] + noise * rng.standard_normal(n)
        return np.column_stack([x, p, y])

    train = os.path.join(work, "train.csv")
    test = os.path.join(work, "test.csv")
    query = os.path.join(work, "query.csv")
    config = os.path.join(work, "lmc.conf")
    header = ["x0", "output_index", "y0"]
    _write_csv(train, header, rows(s["n"]))
    _write_csv(test, header, rows(s["test"]))
    _write_csv(query, ["x0"], rng.uniform(0.0, 6.0, size=(s["query"], 1)))
    z = _points(np.linspace(0.3, 5.7, s["m"])[:, None])
    _write_text(config, LMC_CONF.format(steps=s["steps"], z=z))
    t = _train(work, config, train, s["steps"])
    return [
        t,
        _predict(work, t.model, query, s["query"], full_output_cov=True),
        _eval(work, t.model, test, s["test"]),
        _plotdata(work, t.model, [(0.0, 6.0, s["grid"])]),
    ]


# ---------------------------------------------------------------------------
# deep_classify: two-layer deep GP with a Bernoulli likelihood

DGP_CONF = """\
seed = 0
steps = {steps}
learning_rate = 0.05
batch_size = 0

model {{
  kind = dgp
  num_samples = 1
  likelihood = bernoulli
  layers = [
    layer {{ kernel = sqexp {{ variance = 1.0, lengthscales = [1.0] }}, inducing = points {{ z = {z} }} }},
    layer {{ kernel = sqexp {{ variance = 1.0, lengthscales = [1.0] }}, inducing = points {{ z = {z} }} }}
  ]
}}
"""


def _deep_classify(work, seed, s):
    rng = _rng("deep_classify", seed)

    def labelled(n):
        x = rng.uniform(-3.0, 3.0, size=n)
        latent = 2.5 * np.sin(1.2 * x)
        y = (latent + rng.standard_normal(n) > 0.0).astype(float)
        return np.column_stack([x, y])

    train = os.path.join(work, "train.csv")
    test = os.path.join(work, "test.csv")
    query = os.path.join(work, "query.csv")
    config = os.path.join(work, "dgp.conf")
    _write_csv(train, ["x0", "y0"], labelled(s["n"]))
    _write_csv(test, ["x0", "y0"], labelled(s["test"]))
    _write_csv(query, ["x0"], rng.uniform(-3.0, 3.0, size=(s["query"], 1)))
    z = _points(np.linspace(-2.7, 2.7, s["m"])[:, None])
    _write_text(config, DGP_CONF.format(steps=s["steps"], z=z))
    t = _train(work, config, train, s["steps"])
    return [
        t,
        _predict(work, t.model, query, s["query"]),
        _eval(work, t.model, test, s["test"]),
        _plotdata(work, t.model, [(-3.0, 3.0, s["grid"])]),
    ]


# ---------------------------------------------------------------------------
# shipped: the configs and dataset under data/, unchanged


def _shipped(work, s, root):
    from sparsegp.config import load_config

    data = os.path.join(root, "data", "regression_30.csv")
    ops = []
    for name in ("svgp", "gpr"):
        config = os.path.join(root, "data", f"{name}.conf")
        t = _train(work, config, data, int(load_config(config)["steps"]), name=name)
        ops += [
            t,
            _predict(work, t.model, data, s["query"], name=f"{name}.pred"),
            _eval(work, t.model, data, 30, name=f"{name}.metrics"),
            _plotdata(work, t.model, [(0.0, 6.0, s["grid"])], name=f"{name}.band"),
        ]
    return ops


def make_workload(name: str, seed: int, work: str, root: str, tiny=False) -> list[Op]:
    """Write the workload's inputs into ``work``; return one pass's operations."""
    sizes = (TINY if tiny else SIZES)[name]
    os.makedirs(work, exist_ok=True)
    if name == "shipped":
        return _shipped(work, sizes, root)  # fixed files: the seed selects nothing
    build = {"regress": _regress, "hetero_lmc": _hetero_lmc, "deep_classify": _deep_classify}
    return build[name](work, seed, sizes)
