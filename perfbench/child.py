"""Run one ``sparsegp`` CLI command in a fresh process and report on it.

Usage: child.py META SPANS COMMAND_ID -- <sparsegp arguments>

META is a JSON file this writes: the exit code, the monotonic time of the
first call into ``training.fit`` and the peak RSS.  SPANS is "-" for an
untraced command; otherwise the command runs with span wrappers installed
(see tracing.py) and the spans are written there when it ends.  The parent
(run.py) times the process itself, from spawn to exit.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    meta_path, spans_path, command = argv[0], argv[1], int(argv[2])
    if argv[3] != "--":
        raise SystemExit("usage: child.py META SPANS COMMAND_ID -- ARGS...")
    cli_args = argv[4:]

    import sparsegp.cli as cli
    import tracing

    recorder = installation = None
    if spans_path == "-":
        leftover = tracing.installed_wrappers()
        if leftover:
            raise SystemExit(f"span wrappers installed in an untraced run: {leftover}")
    else:
        recorder = tracing.Recorder(STARTED)
        installation = tracing.install(recorder)

    fit_started = []
    traced_fit = cli.fit

    def first_fit_call(*args, **kwargs):
        if not fit_started:
            fit_started.append(time.monotonic())
        return traced_fit(*args, **kwargs)

    cli.fit = first_fit_call
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        cli.fit = traced_fit

    meta = {
        "code": code,
        "fit_started": fit_started[0] if fit_started else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        installation.restore()
        meta["left_installed"] = tracing.installed_wrappers()
        recorder.close()
        recorder.dump(spans_path, command)
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
