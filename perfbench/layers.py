"""Per-layer metrics from the spans of a traced pass.

A layer is a ``sparsegp`` module; each metric is named after the module and,
where it is about one function, the function.  ``.calls`` counts are exact,
``.ms`` is inclusive span time, ``.self_ms`` is span time minus the time of
child spans, and ``computed_*`` amounts are worked out from array shapes.
All values sum over every command of the pass.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

import tracing

OBJECTIVES = {"models.elbo", "models.elbo_heterotopic", "models.log_marginal"}

# Interpreter start-up before the root span opens plus exit after it closes
# (restore the wrappers, write the spans, tear down).  A command whose spans
# leave more of its wall time than this uncovered, or cover more than all
# of it, fails.
OUTSIDE_LIMIT_S = 1.0


class Totals:
    """Span statistics summed over the commands of a pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.amounts = defaultdict(list)
        self.retries = 0
        self.objectives_in_gradient = 0
        self.cholesky_in_objective = 0
        self.outside_s = 0.0

    def add_command(self, path: str, wall_s: float) -> list[str]:
        """Fold in one command's spans; return problems with their timing.

        ``wall_s`` is the command's wall time as the parent measured it,
        from spawning the child to its exit.
        """
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            name, parent = data["name"], data["parent"]
            start, end = data["start"], data["end"]
            self.retries += int(data["retries"])
            for key in data.files:
                if key.startswith("amount:"):
                    self.amounts[key[len("amount:"):]].extend(data[key].tolist())
        own = tracing.self_times(parent, start, end)
        outside = wall_s - float(own.sum())
        self.outside_s += outside
        problems = []
        if not 0.0 <= outside <= OUTSIDE_LIMIT_S:
            problems.append(f"span self times sum to {own.sum():.6f} s "
                            f"of the command's {wall_s:.6f} s wall time")
        if np.any(own < -1e-9):
            problems.append("a span has negative self time")

        duration = end - start
        calls = np.bincount(name, minlength=len(names))
        totals = np.bincount(name, weights=duration, minlength=len(names))
        selfs = np.bincount(name, weights=own, minlength=len(names))
        for i, n in enumerate(names):
            self.calls[n] += int(calls[i])
            self.total_s[n] += float(totals[i])
            self.self_s[n] += float(selfs[i])

        is_objective = np.isin(name, [i for i, n in enumerate(names) if n in OBJECTIVES])
        in_gradient = tracing.ancestors_in(parent, name, names, {"training.gradient"})
        in_objective = tracing.ancestors_in(parent, name, names, OBJECTIVES)
        cholesky = np.isin(name, [i for i, n in enumerate(names) if n == "numerics.cholesky"])
        self.objectives_in_gradient += int(np.sum(is_objective & in_gradient))
        self.cholesky_in_objective += int(np.sum(cholesky & in_objective))
        return problems

    def layer_self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return 1e3 * sum(v for n, v in self.self_s.items() if n.startswith(prefix))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(untraced: dict, traced: dict, specs: list[dict]) -> dict:
    """The metrics named in ``specs`` (name and unit) for the traced pass.

    Marks the operations whose spans are inconsistent as failed.
    """
    t = Totals()
    for res in traced["ops"]:
        if res["code"] == 0 and res["spans"]:
            res["problems"] += t.add_command(res["spans"], res["wall_s"])

    def ms(name):
        return 1e3 * t.total_s[name]

    def self_ms(name):
        return 1e3 * t.self_s[name]

    objectives = sum(t.calls[n] for n in OBJECTIVES)
    objective_s = sum(t.total_s[n] for n in OBJECTIVES)
    gradients = t.calls["training.gradient"]
    ve_rows = t.amounts["likelihoods.variational_expectations:rows"]
    walls = [sum(r["wall_s"] for r in p["ops"]) for p in (untraced, traced)]

    values = {
        "cli.self_ms": t.layer_self_ms("cli"),
        "modelio.read_dataset.rows": sum(t.amounts["modelio.read_dataset:rows"]),
        "training.objective_evals_per_gradient": _ratio(t.objectives_in_gradient, gradients),
        "training.grad_over_objective": _ratio(
            _ratio(t.total_s["training.gradient"], gradients),
            _ratio(objective_s, objectives),
        ),
        "covariances.kuf.computed_mb_max": max(t.amounts["covariances.kuf:mb"], default=0.0),
        "numerics.cholesky.computed_gflop": sum(t.amounts["numerics.cholesky:gflop"]),
        "numerics.cholesky.retries": t.retries,
        "numerics.tri_solve.computed_gflop": sum(t.amounts["numerics.tri_solve:gflop"]),
        "numerics.cholesky_per_objective": _ratio(t.cholesky_in_objective, objectives),
        "likelihoods.ve_rows_per_call": _ratio(sum(ve_rows), len(ve_rows)),
        "trace.overhead_pct": 100.0 * _ratio(walls[1] - walls[0], walls[0]),
        "trace.outside_spans_ms": 1e3 * t.outside_s,
    }
    by_kind = {"calls": t.calls.__getitem__, "ms": ms, "self_ms": self_ms}
    report = {}
    for spec in specs:
        name = spec["name"]
        if name not in values:  # <span>.calls, <span>.ms or <span>.self_ms
            span, _, kind = name.rpartition(".")
            values[name] = by_kind[kind](span)
        report[name] = {"value": values[name], "unit": spec["unit"]}
    return report
