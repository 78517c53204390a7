"""One measured process: import qgbsde, then run `qgbsde.cli.main` once.

usage: python3 child.py MODE RESULT_JSON [-- CLI ARGS...]

MODE is `setup` (stop at the entry to cli.main), `run` (call it untraced) or
`trace` (call it with every layer wrapped, and write the spans). The result
file gets the perf_counter reading at the entry to cli.main (CLOCK_MONOTONIC
on Linux, so the parent can subtract its own spawn time), the reading at its
return, the exit code and the process's peak RSS.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    mode, result_path = argv[0], argv[1]
    cli_args = argv[3:] if len(argv) > 2 and argv[2] == "--" else argv[2:]
    src = os.environ["PERFBENCH_SRC"]

    import qgbsde.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"qgbsde imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {"mode": mode}
    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer, leftover_wrappers
        tracer = Tracer()
        tracer.install()
    result["entry"] = time.perf_counter()
    result["cpu_entry"] = time.process_time()
    if mode != "setup":
        try:
            result["rc"] = cli.main(cli_args)
        finally:
            result["exit"] = time.perf_counter()
            result["cpu_exit"] = time.process_time()
            if tracer is not None:
                tracer.uninstall()
                result["leftover_wrappers"] = leftover_wrappers()
                result["spans"] = tracer.spans
                result["counters"] = tracer.counters
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0 if result.get("rc", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
