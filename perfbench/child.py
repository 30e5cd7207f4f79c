"""One measured process: `python3 child.py import` or `python3 child.py JOB.json`.

Both record the monotonic clock when `import tikbary.cli` has completed, so
the parent can time start-up; `import` prints it and exits.  A job file names a
workload; the child imports the package, then times the workload from the
first call into tikbary to the return of the last: the CLI workloads go through
`tikbary.cli.main(argv)` once per config, `bounds` through the library loop.
With `trace` set, the tracer is installed before the clock starts and its
summary is written with the result.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(arg):
    import tikbary.cli

    imported = time.perf_counter()
    if arg == "import":
        print(repr(imported))
        return 0
    with open(arg, encoding="utf-8") as fh:
        job = json.load(fh)
    import workloads

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"exit_codes": [], "imported": imported}
    start = time.perf_counter()
    if job["workload"] == "bounds":
        found = workloads.run_bounds(job["seed"])
    else:
        for argv in job["argvs"]:
            result["exit_codes"].append(tikbary.cli.main(argv))
    result["wall_s"] = time.perf_counter() - start
    if job["workload"] == "bounds":
        result["bounds"] = found
    if tracer is not None:
        result["trace"] = tracer.summary(result["wall_s"])
        result["spans"] = tracer.spans
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
