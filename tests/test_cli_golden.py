"""Pinned CLI outputs for every golden model file.

For each case of ``test_formats.CASES`` the golden model file is run through
``predict`` with every flag combination, ``eval`` and ``plotdata`` on the
case's dataset.  ``tests/golden_cli/<case>.json`` holds each command's exit
code, its stderr and its output file as they were when pinned.  Headers and
messages must match exactly, numbers to a relative 1e-12.

Regenerate the fixtures (only when an output change is intended) with

    PYTHONPATH=src:tests python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os

import pytest

from sparsegp.cli import main

from conftest import write_dataset
from test_formats import CASES, golden_path

PINNED = os.path.join(os.path.dirname(__file__), "golden_cli")
RTOL = 1e-12
FLAGS = ("--full-cov", "--full-output-cov", "--observation-noise")


def _commands():
    """Command id -> (subcommand, extra arguments)."""
    commands = {}
    for picked in itertools.product((False, True), repeat=len(FLAGS)):
        flags = [f for f, on in zip(FLAGS, picked) if on]
        commands["predict" + "".join(flags)] = ("predict", flags)
    commands["eval"] = ("eval", [])
    commands["plotdata"] = ("plotdata", [])
    commands["plotdata--observation-noise"] = ("plotdata", ["--observation-noise"])
    return commands


COMMANDS = _commands()


def run(case, command, workdir):
    """Exit code, stderr and output text of one command on one case."""
    dataset, _ = CASES[case]
    data = os.path.join(workdir, f"{case}.csv")
    if not os.path.exists(data):
        write_dataset(data, dataset.x, dataset.y)
    out = os.path.join(workdir, f"{case}.{command}.out")
    sub, extra = COMMANDS[command]
    args = [sub, "--model", golden_path(case), "--out", out, *extra]
    if sub == "plotdata":
        for column in dataset.x.T:
            args.append(f"--grid={float(column.min())!r}:{float(column.max())!r}:5")
    else:
        args += ["--data", data]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except Exception as crash:  # pinned too, so that a change shows
            code = f"uncaught {type(crash).__name__}"
    text = None
    if code == 0:
        with open(out, encoding="utf-8") as handle:
            text = handle.read()
    return {"code": code, "stderr": err.getvalue(), "out": text}


def _same_number(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def _same_json(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and isinstance(got, float):
        assert _same_number(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


def _numbers(line):
    try:
        return [float(cell) for cell in line.split(",")]
    except ValueError:
        return None  # a header or a "#" line


def _same_table(got, want):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for n, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        w_cells = _numbers(w)
        if w_cells is None:
            assert g == w, f"line {n}"
            continue
        g_cells = _numbers(g)
        assert g_cells is not None and len(g_cells) == len(w_cells), f"line {n}"
        for gc, wc in zip(g_cells, w_cells):
            assert _same_number(gc, wc), f"line {n}: {gc!r} != {wc!r}"


def assert_same_output(command, got, want):
    assert (got["code"], got["stderr"]) == (want["code"], want["stderr"])
    if want["out"] is None:
        assert got["out"] is None
    elif command == "eval":
        _same_json(json.loads(got["out"]), json.loads(want["out"]))
    else:
        _same_table(got["out"], want["out"])


def pinned(case):
    with open(os.path.join(PINNED, f"{case}.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli_golden"))


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_pinned(case, command, workdir):
    assert_same_output(command, run(case, command, workdir), pinned(case)[command])


def test_every_case_and_command_is_pinned():
    assert sorted(os.listdir(PINNED)) == sorted(f"{case}.json" for case in CASES)
    for case in CASES:
        assert sorted(pinned(case)) == sorted(COMMANDS)


def write_fixtures(workdir):
    os.makedirs(PINNED, exist_ok=True)
    for case in sorted(CASES):
        outputs = {command: run(case, command, workdir) for command in sorted(COMMANDS)}
        path = os.path.join(PINNED, f"{case}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(outputs, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_fixtures(scratch)
