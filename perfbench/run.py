"""Benchmark of the tikbary reproduction: paper-scale workloads, end to end.

    python3 perfbench/run.py --workload fig3-paper --seed 12345 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Each workload runs in a fresh Python
process, the way a user runs `tikbary run`, again and again while another
run is expected to end within --seconds (at least once).  `--trace 0` reports the end-to-end metrics (wall_s, peak_rss_mb,
setup_s, exactness_residual); `--trace 1` runs the workload once untraced
and once under the span tracer and reports the per-layer metrics.  Every
output is checked (see checks.py).  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
CORNERS = {
    "quadrature.corner.jacobi20_m0.9_n300.exactness_residual": (20.0, -0.9, 300),
    "quadrature.corner.jacobim0.99_m0.99_n1000.exactness_residual": (-0.99, -0.99, 1000),
}
COVERAGE_FLOOR = 0.95


class Run:
    """Work directory, deadline and operation counts of one benchmark run."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.work = os.path.join(ROOT, ".perfbench_tmp", f"{workload}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = self.failed = 0
        self.problems = []
        self.first_hashes = None
        self.expected_ops = 0

    def spawn_import(self):
        """Seconds from spawning a child to its `import tikbary.cli` returning."""
        start = time.perf_counter()
        done = subprocess.run([sys.executable, CHILD, "import"], check=True,
                              capture_output=True, text=True,
                              timeout=self.deadline - time.monotonic())
        return float(done.stdout.strip()) - start

    def spawn_workload(self, trace):
        """One measured child; returns (result dict, peak RSS in MiB, out_dir)."""
        # the same paths every time: the output directory is echoed into the CSVs
        out_dir = os.path.join(self.work, "run")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        job = {"workload": self.workload, "seed": self.seed, "trace": trace,
               "result": os.path.join(out_dir, "result.json")}
        if self.workload != "bounds":
            cfgs = workloads.configs(self.workload, self.seed, os.path.join(out_dir, "out"))
            job["argvs"] = workloads.write_configs(cfgs, out_dir)
        job_path = os.path.join(out_dir, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        with open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD, job_path],
                                    stdout=subprocess.DEVNULL, stderr=err)
            status, rusage = _wait(proc, self.deadline)
        if status != 0:
            with open(os.path.join(out_dir, "stderr.txt"), encoding="utf-8",
                      errors="replace") as fh:
                raise RuntimeError(f"child exited with {status}: {fh.read()[-2000:]}")
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["imported"] - spawned
        return result, rusage.ru_maxrss / 1024.0, out_dir

    def count(self, problems_per_op):
        for problems in problems_per_op:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += problems

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


def _wait(proc, deadline):
    """Reap the child with its resource usage; kill it past the deadline."""
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, rusage
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RuntimeError("child passed the run deadline and was killed")
        time.sleep(0.005)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def verify(*args):
    """Run verify.py (NumPy side, own process) and return its JSON answer."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "verify.py"), *map(str, args)],
                          check=True, capture_output=True, text=True, timeout=DEADLINE_S)
    return json.loads(done.stdout)


def check_outputs(run, result, out_dir):
    """Count and check the operations of one child: the output tables of a
    CLI workload, the bound checks of `bounds`.  The first child's outputs
    are checked in full; every later one must reproduce their bytes."""
    if run.workload == "bounds":
        hashes = {"bounds": hashlib.sha256(
            json.dumps(result["bounds"], sort_keys=True).encode()).hexdigest()}
        failed_exit = []
    else:
        out = os.path.join(out_dir, "out")
        names = sorted(os.listdir(out)) if os.path.isdir(out) else []
        hashes = {n: _sha256(os.path.join(out, n)) for n in names}
        failed_exit = [f"exit code {c}" for c in result["exit_codes"] if c != 0]
    if run.first_hashes is None:
        run.first_hashes = hashes
        if run.workload == "bounds":
            per_op = verify("bounds", run.seed, os.path.join(out_dir, "result.json"))
        else:
            per_op = verify("tables", run.workload, run.seed, os.path.join(out_dir, "out"))
        run.expected_ops = len(per_op)
        run.count([failed_exit + problems for problems in per_op])
        return
    same = hashes == run.first_hashes
    problem = [] if same else ["outputs differ from the first run's bytes"]
    run.count([failed_exit + problem] * run.expected_ops)


def worst_residual(rules):
    """max exactness_residual(rule, 2N+1) over rules given as (a, b, points).

    The value depends only on the package source, so it is cached in the
    checkout under a hash of src/tikbary and the rule list.
    """
    src = os.path.join(ROOT, "src", "tikbary")
    digest = hashlib.sha256(repr(sorted(rules)).encode())
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    cache = os.path.join(ROOT, ".perfbench_tmp", "cache", digest.hexdigest() + ".json")
    if not os.path.exists(cache):
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        with open(cache + ".rules", "w", encoding="utf-8") as fh:
            json.dump(rules, fh)
        value = verify("residual", cache + ".rules")
        os.remove(cache + ".rules")
        with open(cache, "w", encoding="utf-8") as fh:
            json.dump(value, fh)
    with open(cache, encoding="utf-8") as fh:
        return json.load(fh)


def measure_end_to_end(run, seconds):
    run.spawn_import()  # warm the page cache and bytecode; users do not pay this per run
    setup, walls, rss, spent, last = [], [], [], 0.0, 0.0
    # start another child only while it is expected to end within `seconds`
    # of child time; output checks between children are not counted
    while not walls or spent + last <= seconds:
        started = time.monotonic()
        result, peak, out_dir = run.spawn_workload(trace=False)
        last = time.monotonic() - started
        spent += last
        walls.append(result["wall_s"])
        rss.append(peak)
        setup.append(result["setup_s"])
        check_outputs(run, result, out_dir)
    # every child times its start-up; top up with import-only children
    setup += [run.spawn_import() for _ in range(SETUP_SAMPLES - len(setup))]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
        "exactness_residual": (worst_residual(workloads.rules_built(run.workload)), "1"),
    }, {"runs": len(walls), "wall_s": walls, "peak_rss_mb": rss, "setup_s": setup}


def measure_layers(run):
    """One untraced and one traced child; per-layer metrics from the trace."""
    untraced, _, out_dir = run.spawn_workload(trace=False)
    check_outputs(run, untraced, out_dir)
    traced, _, out_dir = run.spawn_workload(trace=True)
    check_outputs(run, traced, out_dir)
    t = traced["trace"]
    calls, self_s, counts = t["calls"], t["self_s"], t["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("quadrature", "basis.eval", "fit", "evaluate", "lebesgue",
                  "barycentric.weights", "barycentric.interp", "signals.f2",
                  "signals.noise", "metrics.bounds", "metrics.surrogates",
                  "csvio.render", "csvio.parse"):
        m[layer + ".calls"] = (calls.get(layer, 0), "count")
    for layer in ("quadrature", "basis.eval", "fit", "evaluate", "lebesgue",
                  "barycentric.weights", "barycentric.interp", "signals.f2",
                  "signals.fn", "signals.noise", "metrics.bounds",
                  "metrics.surrogates", "csvio.render", "csvio.parse", "svgplot.render"):
        m[layer + ".self_s"] = (self_s.get(layer, 0.0), "s")
    m["quadrature.points"] = (counts.get("quadrature.points", 0), "count")
    m["quadrature.unique_ratio"] = (
        ratio(calls.get("quadrature", 0) - counts.get("quadrature.repeats", 0),
              calls.get("quadrature", 0)), "1")
    m["quadrature.mass_rel_err"] = (t["maxima"].get("quadrature.mass_rel_err", 0.0), "1")
    for key in ("basis.eval.terms", "fit.terms", "evaluate.terms", "lebesgue.terms",
                "barycentric.interp.pairs", "signals.f2.points"):
        m[key] = (counts.get(key, 0), "count")
    for layer in ("fit", "evaluate", "lebesgue"):
        m[layer + ".lambda_reuse"] = (
            ratio(counts.get(layer + ".repeats", 0), calls.get(layer, 0)), "1")
    m["barycentric.interp.table_reuse"] = (
        ratio(counts.get("barycentric.interp.repeats", 0),
              calls.get("barycentric.interp", 0)), "1")
    m["metrics.bounds.min_slack"] = (t["minima"].get("metrics.bounds.min_slack", 0.0), "1")
    m["csvio.render.bytes"] = (counts.get("csvio.render.bytes", 0), "bytes")
    m["svgplot.render.bytes"] = (counts.get("svgplot.render.bytes", 0), "bytes")
    m["experiments.self_s"] = (t["uncovered_s"], "s")
    m["trace.span_coverage"] = (t["span_coverage"], "1")
    m["trace.overhead_frac"] = (traced["wall_s"] / untraced["wall_s"] - 1.0, "1")
    for name, rule in CORNERS.items():
        m[name] = (worst_residual([rule]), "1")
    if t["span_coverage"] < COVERAGE_FLOOR:
        print(f"warning: named spans cover {t['span_coverage']:.3f} of the traced "
              f"wall time, under {COVERAGE_FLOOR}", file=sys.stderr)
    return m, {"traced_wall_s": traced["wall_s"], "untraced_wall_s": untraced["wall_s"]}


def measure(workload, seed, seconds, trace):
    run = Run(workload, seed)
    try:
        if trace:
            metrics, extra = measure_layers(run)
        else:
            metrics, extra = measure_end_to_end(run, seconds)
    finally:
        run.close()
    return run, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="workload seed, written into the generated configs")
    parser.add_argument("--seconds", type=float, default=34.0,
                        help="child time to spend measuring the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.exists(os.path.join(ROOT, "src", "tikbary", "cli.py")):
        print(f"error: no tikbary package under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    report = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run, metrics, extra = measure(name, args.seed, args.seconds, args.trace)
        report["attempted"] += run.attempted
        report["failed"] += run.failed
        for problem in run.problems[:10]:
            print(f"FAILED {name}: {problem}", file=sys.stderr)
        print(f"== {name} (seed {args.seed}, {run.attempted} operations, "
              f"{run.failed} failed) {json.dumps(extra)}")
        for key, (value, unit) in metrics.items():
            print(f"   {key:<66} {value:.6g} {unit}")
            label = key if len(names) == 1 else f"{name}.{key}"
            report["metrics"][label] = {"value": value, "unit": unit}
    report["correct"] = report["failed"] == 0 and report["attempted"] > 0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
