"""Run one ``riffle`` CLI call as a child process of the benchmark.

Usage: python child.py SIDECAR TRACE_OUT ARGS...

Once ``riffle.cli`` is imported, writes SIDECAR: a JSON object holding the
CLOCK_MONOTONIC instant at which ``main`` is about to run (the parent stamps
the spawn on the same clock, which gives the CLI's set-up time) and the
environment the call ran in. Then runs ``riffle.cli.main`` on ARGS exactly as
``python -m riffle.cli ARGS`` would. With TRACE_OUT other than ``-``, the
layers are wrapped by :mod:`tracer` and the spans are written to TRACE_OUT
when ``main`` has ended.
"""

import json
import sys
import time


def main() -> None:
    sidecar, trace_out, *cli_args = sys.argv[1:]
    import riffle.cli

    ready_ns = time.monotonic_ns()
    import numpy
    from riffle import _kernels

    with open(sidecar, "w") as handle:
        json.dump(
            {
                "ready_ns": ready_ns,
                "riffle_file": riffle.__file__,
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "numba_enabled": _kernels.NUMBA_ENABLED,
            },
            handle,
        )

    run = riffle.cli.main
    tracer = None
    if trace_out != "-":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        run = tracer.wrap("cli", run)
    try:
        run(args=cli_args, prog_name="riffle")
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    main()
