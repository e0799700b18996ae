"""Span recording for the traced run, from outside the program.

``install`` rebinds each listed public function of ``sparsegp`` to a wrapper
that records a span (name, start, end, parent), in every ``sparsegp.*``
namespace that holds the function, and rebinds each listed method on its
class.  ``restore`` puts every original back.  Nothing under ``src/`` is
edited; an untraced process never calls ``install``.

Spans are kept in flat arrays in memory and written out once, at the end of
the command.  ``self_times`` turns one command's spans into per-span self
time: the span's duration minus the part of its interval its children cover.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

MARK = "_perfbench_span"

# module -> public functions wrapped in that module's layer
FUNCTIONS = {
    "cli": ["main"],
    "config": ["load_config"],
    "modelio": ["read_dataset", "save_model", "load_model"],
    "training": ["fit", "gradient", "adam_step", "parameterize"],
    "conditionals": ["conditional", "sample_conditional"],
    "covariances": ["kuu", "kuf"],
    "kernels": ["k_full", "k_diag", "mo_k", "mo_k_diag"],
    "numerics": ["cholesky", "tri_solve"],
    "divergences": ["prior_kl"],
    "likelihoods": [
        "variational_expectations",
        "marginalize_outputs",
        "predictive_log_density",
        "predict_observation_moments",
    ],
}
# module -> class -> methods; the span is named after the module and method
METHODS = {
    "models": {
        "SVGPModel": ["elbo", "elbo_heterotopic", "predict_f"],
        "DGPModel": ["elbo", "propagate", "predict_f"],
        "GPRModel": ["log_marginal", "predict"],
    },
    "dispatch": {"DispatchRegistry": ["resolve"]},
}
ROOT = "command"
BUILD = "training.build"  # the closure that parameterize returns


def _numbers(fn):
    """Per-call amounts worked out from argument and result shapes."""
    if fn == "modelio.read_dataset":
        return lambda a, k, r: {"rows": r.x.shape[0]}
    if fn == "covariances.kuf":
        return lambda a, k, r: {"mb": r.nbytes / 1e6}
    if fn == "numerics.cholesky":
        return lambda a, k, r: {"gflop": r.shape[0] ** 3 / 3e9}
    if fn == "numerics.tri_solve":

        def solve_flops(a, k, r):
            n = r.shape[0]
            return {"gflop": n * n * (r.size // n) / 1e9}

        return solve_flops
    if fn == "likelihoods.variational_expectations":
        return lambda a, k, r: {"rows": np.shape(r)[0]}
    return None


class Recorder:
    """Flat span arrays for one command; index 0 is the command's root."""

    def __init__(self, started: float):
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self.name = array("i", [0])
        self.parent = array("i", [-1])
        self.start = array("d", [started])
        self.end = array("d", [0.0])
        self.stack = [0]
        self.amounts: dict[str, dict[str, list[float]]] = {}
        self.retries = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        ident = self.name_id(name)
        measure = _numbers(name)
        clock = time.monotonic
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack
        )
        amounts = self.amounts.setdefault(name, {})

        def span(*args, **kwargs):
            index = len(starts)
            names.append(ident)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if measure is not None:
                for key, value in measure(args, kwargs, result).items():
                    amounts.setdefault(key, []).append(float(value))
            return result

        span.__wrapped__ = fn
        setattr(span, MARK, name)
        return span

    def close(self) -> None:
        self.end[0] = time.monotonic()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def dump(self, path: str, command: int) -> None:
        amounts = {
            f"amount:{fn}:{key}": np.asarray(values)
            for fn, per_key in self.amounts.items()
            for key, values in per_key.items()
        }
        np.savez(
            path,
            names=np.asarray(self.names),
            command=np.asarray(command),
            retries=np.asarray(self.retries),
            **self.arrays(),
            **amounts,
        )


def _sparsegp_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "sparsegp" or n.startswith("sparsegp."))
    ]


class Installation:
    """What ``install`` replaced, so that ``restore`` can put it back."""

    def __init__(self):
        self.bindings: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr, value):
        self.bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.bindings:
            owner, attr, original = self.bindings.pop()
            setattr(owner, attr, original)


def install(recorder: Recorder) -> Installation:
    """Wrap every listed function and method; call ``restore`` to undo."""
    import numpy.linalg
    import sparsegp.cli  # noqa: F401  (loads every module that gets wrapped)

    done = Installation()
    modules = _sparsegp_modules()
    for short, names in FUNCTIONS.items():
        home = sys.modules[f"sparsegp.{short}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapper = recorder.wrap(original, f"{short}.{fn_name}")
            if fn_name == "parameterize":
                wrapper = _wrap_build(recorder, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        done.rebind(module, attr, wrapper)
    for short, classes in METHODS.items():
        home = sys.modules[f"sparsegp.{short}"]
        for cls_name, methods in classes.items():
            cls = getattr(home, cls_name)
            for method in methods:
                original = cls.__dict__[method]
                done.rebind(cls, method, recorder.wrap(original, f"{short}.{method}"))

    # Each LinAlgError of the inner factorization is one jitter retry.
    inner = numpy.linalg.cholesky

    def counted_cholesky(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except numpy.linalg.LinAlgError:
            recorder.retries += 1
            raise

    setattr(counted_cholesky, MARK, "numpy.linalg.cholesky")
    done.rebind(numpy.linalg, "cholesky", counted_cholesky)
    return done


def _wrap_build(recorder: Recorder, parameterize):
    traced = recorder.wrap(parameterize, "training.parameterize")

    def parameterize_and_trace_build(model):
        store, build = traced(model)
        return store, recorder.wrap(build, BUILD)

    setattr(parameterize_and_trace_build, MARK, "training.parameterize")
    return parameterize_and_trace_build


def installed_wrappers() -> list[str]:
    """Names of span wrappers still bound anywhere they could be called."""
    import numpy.linalg

    found = []
    owners = list(_sparsegp_modules())
    for short, classes in METHODS.items():
        module = sys.modules.get(f"sparsegp.{short}")
        if module is not None:
            owners += [getattr(module, c) for c in classes]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if hasattr(value, MARK):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    if hasattr(numpy.linalg.cholesky, MARK):
        found.append("numpy.linalg.cholesky")
    return found


# ---------------------------------------------------------------------------
# Analysis


def self_times(parent, start, end) -> np.ndarray:
    """Duration minus the union of its children's intervals, clipped to it."""
    order = np.lexsort((np.asarray(start), np.asarray(parent))).tolist()
    parent = np.asarray(parent).tolist()
    start = np.asarray(start, dtype=float).tolist()
    end = np.asarray(end, dtype=float).tolist()
    covered = [0.0] * len(start)
    group, reach = None, 0.0
    for i in order:  # grouped by parent, each group sorted by start
        p = parent[i]
        if p < 0:
            continue
        if p != group:
            group, reach = p, start[p]
        lo = max(start[i], reach)
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return np.asarray(end) - np.asarray(start) - np.asarray(covered)


def ancestors_in(parent, name, names: list[str], wanted: set[str]) -> np.ndarray:
    """Whether each span has an ancestor whose name is in ``wanted``."""
    wanted_ids = {i for i, n in enumerate(names) if n in wanted}
    parent = np.asarray(parent).tolist()
    name = np.asarray(name).tolist()
    inside = [False] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            inside[i] = inside[p] or name[p] in wanted_ids
    return np.asarray(inside, dtype=bool)
