"""Run one matrixweyl CLI operation in this fresh interpreter, timed from inside.

Usage: python3 perfbench/child.py <trace 0|1> <matrixweyl arguments...>

The CLI's output goes to stdout untouched and the process exits with the
CLI's exit code.  After the operation the last line of stderr is a JSON
envelope: setup_s (first line of this file until matrixweyl.cli is imported
and its parser built), run_s and cpu_s (wall and user+sys CPU seconds of
cli.main), rc, maxrss_kb and, with trace 1, the tracer's aggregate.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    from matrixweyl import cli

    cli.build_parser()
    setup_s = time.perf_counter() - T0

    import json
    import resource

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # usage errors leave through parser.exit
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    sys.stdout.flush()
    run_s = time.perf_counter() - w0
    cpu_s = time.process_time() - c0
    envelope = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    sys.stderr.write("\n" + json.dumps(envelope) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
