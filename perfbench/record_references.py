"""Record the reference outputs the benchmark compares against.

    python3 perfbench/record_references.py

Runs every workload in this process at the default seed and at the held-out
seed and writes references/<workload>-<seed>.json: every cell of the small
tables, strided rows plus column sums and maxima of the dense ones, and for
`bounds` every bound check with the Lebesgue constants and surrogates.
Re-record only at a commit whose outputs are known to be right.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def record(workload, seed, tmp):
    import tikbary.cli

    if workload == "bounds":
        return dict(workloads.run_bounds(seed), workload=workload, seed=seed)
    out_dir = os.path.join(tmp, workload)
    cfgs = workloads.configs(workload, seed, out_dir)
    for argv in workloads.write_configs(cfgs, tmp):
        if tikbary.cli.main(argv) != 0:
            raise SystemExit(f"{workload}: tikbary exited non-zero")
    tables = {}
    for name in checks.expected_tables(cfgs):
        columns, rows = checks.read_table(os.path.join(out_dir, name + ".csv"))
        tables[name] = {"columns": columns, "digest": checks.digest(checks.numeric_rows(rows))}
    return {"workload": workload, "seed": seed, "tables": tables}


def main():
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        for workload in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                reference = record(workload, seed, tmp)
            path = checks.reference_path(workload, seed)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, indent=1)
                fh.write("\n")
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
