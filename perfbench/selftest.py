"""Self-test of the tracer and the output checks.

    python3 perfbench/selftest.py            # tiny fig3, then every workload
    python3 perfbench/selftest.py --quick    # tiny fig3 only

On a tiny fig3 (N = 20 and 40, a 101 + 51 point grid) the tracer must count
exactly what the experiment does: per N one fitting rule and one discrete-L2
rule of 2N+2 points, and eight quotient-form evaluations, two sample vectors
times two lambdas times two point sets, of which six repeat a (nodes, x)
pair.  The checks must pass the real output, and fail a copy with one cell
moved by 1e-5 relative against the recomputation and by 1e-8 against a
reference.  Without --quick, every workload is then traced
through run.py and its named spans must cover at least 95% of the traced
wall time.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = dict(workloads.CLI_WORKLOADS["fig3-paper"][0], l_values=[20, 40],
            n_values=[20, 40], grid_equispaced=101, grid_chebyshev=51,
            seed=workloads.DEFAULT_SEED)


def expect(what, got, want):
    if got != want:
        raise AssertionError(f"{what}: got {got!r}, expected {want!r}")
    print(f"ok  {what} = {got!r}")


def tiny_fig3(tmp):
    import tikbary.cli

    cfg = dict(TINY, out_dir=os.path.join(tmp, "out"))
    (argv,) = workloads.write_configs([cfg], tmp)
    tracer = Tracer()
    tracer.install()
    try:
        expect("exit code", tikbary.cli.main(argv), 0)
    finally:
        tracer.uninstall()
    t = tracer.summary(wall_s=1.0)
    calls, counts = t["calls"], t["counts"]
    grid = checks.uniform_grid(TINY).size
    expect("quadrature.calls", calls["quadrature"], 4)
    expect("quadrature.points", counts["quadrature.points"], 21 + 42 + 41 + 82)
    expect("barycentric.weights.calls", calls["barycentric.weights"], 2)
    expect("barycentric.interp.calls", calls["barycentric.interp"], 16)
    expect("barycentric.interp.table_reuse",
           counts["barycentric.interp.repeats"] / calls["barycentric.interp"], 0.75)
    expect("barycentric.interp.pairs", counts["barycentric.interp.pairs"],
           sum(4 * (grid + 2 * n + 2) * (n + 1) for n in (20, 40)))
    expect("signals.noise.calls", calls["signals.noise"], 2)
    expect("csvio.render.calls", calls["csvio.render"], 1)
    expect("svgplot.render.calls", calls["svgplot.render"], 1)
    expect("fit.calls", calls.get("fit", 0), 0)

    columns, rows = checks.read_table(os.path.join(cfg["out_dir"], "fig3.csv"))
    expected = checks.expected_tables([cfg])["fig3"]
    expect("problems in the real table",
           checks.check_table("fig3", columns, rows, expected, None), [])
    moved = [list(r) for r in rows]
    moved[5][6] = repr(float(moved[5][6]) * (1.0 + 1e-5))
    expect("a cell moved by 1e-5 fails the recomputation",
           len(checks.check_table("fig3", columns, moved, expected, None)), 1)
    reference = {"tables": {"fig3": {"columns": columns,
                                      "digest": checks.digest(checks.numeric_rows(rows))}}}
    moved[5][6] = repr(float(rows[5][6]) * (1.0 + 1e-8))
    expect("a cell moved by 1e-8 fails the reference",
           len(checks.check_table("fig3", columns, moved, expected, reference)), 1)


def coverage_of_every_workload():
    root = os.path.dirname(HERE)
    for name in workloads.WORKLOADS:
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                              "--workload", name, "--trace", "1"],
                             cwd=root, check=True, capture_output=True, text=True)
        report = json.loads(out.stdout.strip().splitlines()[-1])
        coverage = report["metrics"]["trace.span_coverage"]["value"]
        if coverage < 0.95 or not report["correct"]:
            raise AssertionError(f"{name}: coverage {coverage:.4f}, correct {report['correct']}")
        print(f"ok  {name}: named spans cover {coverage:.4f} of the traced wall time")


def main():
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tiny_fig3(tmp)
    if "--quick" not in sys.argv:
        coverage_of_every_workload()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
