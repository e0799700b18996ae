"""End-to-end benchmark of the sparsegp CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload regress --seed 1 --seconds 32 --trace 0

One client runs one command at a time (a closed loop).  Each command runs in
a fresh child process with BLAS pinned to one thread, so import cost and peak
RSS are those a user sees.  A pass runs every operation of the workload once
and checks its output; passes repeat until ``--seconds`` is used up, and each
timing is the median over passes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass.  Every run also writes a results file
under .bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# A run must end within 180 s; a pass that would overrun this is not started
# and a command still running at the limit is stopped.
HARD_LIMIT_S = 150.0
CHILD_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Metric names, units and report order come from here.
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Bench:
    """Paths, environment and clock shared by every command of one run."""

    def __init__(self, root: str, out: str, started: float):
        self.started = started
        self.pycache = os.path.join(out, "pycache")
        env = dict(os.environ)
        env.pop("SPARSEGP_JITTER", None)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.update({name: "1" for name in CHILD_THREADS})
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONPYCACHEPREFIX"] = self.pycache  # bytecode stays out of src/
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self.commands = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def run_command(self, op, work: str, traced: bool) -> dict:
        """Run one CLI command in a child process; return its timings."""
        self.commands += 1
        tag = f"{self.commands:03d}"
        meta_path = os.path.join(work, f"cmd{tag}.meta.json")
        spans = os.path.join(work, f"cmd{tag}.spans.npz") if traced else "-"
        argv = [sys.executable, os.path.join(HERE, "child.py"), meta_path, spans,
                str(self.commands), "--", *op.argv]
        log = os.path.join(work, f"cmd{tag}.log")
        with open(log, "wb") as handle:
            cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=work, env=self.env,
                                    stdout=handle, stderr=subprocess.STDOUT)
            # wait() without a timeout blocks in waitpid; with one it polls
            # in sleeps of up to 50 ms, which would quantize every timing.
            limit = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            limit.start()
            try:
                code = proc.wait()
            finally:
                limit.cancel()
            ended = time.monotonic()
            cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_s = sum(getattr(cpu_after, f) - getattr(cpu_before, f)
                    for f in ("ru_utime", "ru_stime"))
        result = {"op": op.kind, "argv": op.argv, "code": code,
                  "wall_s": ended - spawned, "cpu_s": cpu_s, "log": log,
                  "spans": spans if traced else None}
        if os.path.exists(meta_path):
            with open(meta_path, encoding="utf-8") as handle:
                meta = json.load(handle)
            result["rss_mb"] = meta["maxrss_kb"] / 1024.0
            if meta["fit_started"] is not None:
                result["setup_s"] = meta["fit_started"] - spawned
                result["fit_s"] = ended - meta["fit_started"]
            result["left_installed"] = meta.get("left_installed", [])
        return result


def run_pass(bench: Bench, ops, work: str, traced: bool) -> dict:
    """Every operation once: command plus output checks."""
    results = []
    for op in ops:
        if bench.remaining() <= 0:
            raise TimeoutError("run exceeded its time limit")
        res = bench.run_command(op, work, traced)
        problems = []
        if res["code"] != 0:
            problems.append(f"exit code {res['code']} (log {res['log']})")
        elif res.get("left_installed"):
            problems.append(f"wrappers left installed: {res['left_installed']}")
        else:
            checked = time.monotonic()
            problems = checks.check(op)
            res["check_s"] = time.monotonic() - checked
        res["problems"] = problems
        if not problems and op.kind == "train":
            res["final_elbo"] = checks.final_elbo(op)
        if not problems and op.kind == "eval":
            metrics = checks.eval_metrics(op)
            res["mlpd"], res["rmse"] = metrics["mlpd"], metrics["rmse"]
        results.append(res)
    return {"ops": results, "traced": traced}


def pass_metrics(passed: dict) -> dict:
    """End-to-end values of one pass; sums over a workload's commands."""
    ops = passed["ops"]

    def total(kind):
        return sum(r["wall_s"] for r in ops if r["op"] == kind)

    trains = [r for r in ops if r["op"] == "train"]
    evals = [r for r in ops if r["op"] == "eval"]
    ok = [r for r in ops if not r["problems"]]
    return {
        "setup_s": sum(r.get("setup_s", 0.0) for r in trains),
        "train_s": sum(r.get("fit_s", 0.0) for r in trains),
        "predict_s": total("predict"),
        "eval_s": total("eval"),
        "plotdata_s": total("plotdata"),
        "peak_rss_mb": max((r.get("rss_mb", 0.0) for r in ops), default=0.0),
        "final_elbo": sum(r.get("final_elbo", 0.0) for r in trains),
        "test_mlpd": statistics.fmean([r.get("mlpd", float("nan")) for r in evals]),
        "test_rmse": statistics.fmean([r.get("rmse", float("nan")) for r in evals]),
        "ops_ok_ratio": len(ok) / len(ops),
    }


def environment(root: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": 1,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sparsegp", "cli.py")):
        print("perfbench: run from the root of a sparsegp checkout "
              "(src/sparsegp/cli.py not found)", file=sys.stderr)
        return 2
    spec = load_spec()
    out = os.path.join(root, ".bench_build", "perfbench")
    bench = Bench(root, out, started)
    sys.pycache_prefix = bench.pycache
    sys.path.insert(0, os.path.join(root, "src"))

    # Compile and import the program once before anything is timed.
    warm = subprocess.run(
        [sys.executable, "-c", "import sparsegp.cli; print(sparsegp.cli.__file__)"],
        env=bench.env, capture_output=True, text=True, timeout=120,
    )
    expected = os.path.join(root, "src", "sparsegp", "cli.py")
    if warm.returncode != 0 or os.path.realpath(warm.stdout.strip()) != os.path.realpath(expected):
        print(f"perfbench: cannot import sparsegp from {expected}:\n{warm.stderr}",
              file=sys.stderr)
        return 2

    work = os.path.join(out, "work", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.make_workload(args.workload, args.seed, work, root)
    setup_done = time.monotonic()

    passes = []
    try:
        if args.trace:
            passes.append(run_pass(bench, ops, work, traced=False))
            passes.append(run_pass(bench, ops, work, traced=True))
        else:
            while True:
                passes.append(run_pass(bench, ops, work, traced=False))
                used = time.monotonic() - setup_done
                typical = used / len(passes)
                if used + typical > args.seconds or 2 * typical > bench.remaining():
                    break
        if args.trace:
            metrics = layers.per_layer(passes[0], passes[1], spec["per_layer"])
        else:
            per_pass = [pass_metrics(p) for p in passes]
            metrics = {
                m["name"]: {"value": statistics.median(p[m["name"]] for p in per_pass),
                            "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_ops = [r for p in passes for r in p["ops"]]
    failed = [r for r in all_ops if r["problems"]]
    report = {
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, args.seed),
        "setup_wall_s": setup_done - started,
        "passes": [
            {"traced": p["traced"], "ops": [
                {k: v for k, v in r.items() if k not in ("log", "spans")}
                for r in p["ops"]
            ]}
            for p in passes
        ],
        "failures": [{"op": r["op"], "problems": r["problems"]} for r in failed],
        **report,
    }
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for r in failed:
        print(f"FAILED {r['op']}: {'; '.join(r['problems'])}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{key} = {value['value']:.6g} {value['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
