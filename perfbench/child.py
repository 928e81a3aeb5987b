"""Run one ffil CLI command in this fresh process and write timings as JSON.

Usage: python3 child.py RESULT_JSON TRACE(0|1) -- ARGV...

`import_done` is CLOCK_MONOTONIC, which every process on the host shares, so
the parent subtracts its own spawn time to get set-up time. With TRACE=1 the
outside-in tracer is installed after the import and its raw spans are written
out at the end.
"""

import time
import ffil.cli

import_done = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main():
    out_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"import_done": import_done, "raised": None}
    start = time.perf_counter()
    try:
        code = ffil.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the benchmark records the traceback and counts a failure
        code = None
        result["raised"] = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - start
    result["exit"] = code
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
