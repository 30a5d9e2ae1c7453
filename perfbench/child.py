"""One gwsurf command-line invocation, timed from inside its own process.

    python3 child.py RESULT_JSON TRACE(0|1) GWSURF_ARGS...

Imports `gwsurf` (timed on its own), then runs `gwsurf.cli.main(args)`
exactly as the `gwsurf` console script does. The only addition is a
timestamp taken when `build_family` returns inside the command, which
splits set-up from the run. With TRACE=1 every gwsurf layer is wrapped by
`tracing.Tracer` first and the spans go into RESULT_JSON as well. All
timestamps are CLOCK_MONOTONIC, which the parent process shares.
"""
import json
import sys
import time


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t_start = time.monotonic()
    import gwsurf
    t_imported = time.monotonic()
    import gwsurf.cli as cli

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    marks = {}
    build = cli.build_family

    def timed_build(*args, **kwargs):
        fam = build(*args, **kwargs)
        marks.setdefault("t_built", time.monotonic())
        return fam

    cli.build_family = timed_build
    rc = cli.main(argv)
    t_end = time.monotonic()
    sys.stdout.flush()

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "t_start": t_start, "t_imported": t_imported,
                   "t_built": marks.get("t_built"), "t_end": t_end,
                   "gwsurf_file": gwsurf.__file__,
                   "spans": tracer.spans if tracer else None}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
