"""The numerical side of the benchmark, run in its own process.

    python3 verify.py tables WORKLOAD SEED OUT_DIR
    python3 verify.py bounds SEED RESULT_JSON
    python3 verify.py residual RULES_JSON

Prints one JSON value: a list of problem lists, one per operation, for
`tables` and `bounds`; the worst exactness residual for `residual`.  It runs
apart from run.py so that the process which spawns the measured children
never holds NumPy or the package: a child's peak RSS includes the RSS of its
parent at the moment of the spawn.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def tables(workload, seed, out_dir):
    cfgs = workloads.configs(workload, seed, out_dir)
    reference = checks.load_reference(workload, seed)
    per_table = []
    for name, rows in checks.expected_tables(cfgs).items():
        path = os.path.join(out_dir, name + ".csv")
        if not os.path.exists(path):
            per_table.append([f"{name}.csv missing"])
            continue
        columns, got = checks.read_table(path)
        problems = checks.check_table(name, columns, got, rows, reference)
        if not os.path.exists(os.path.join(out_dir, name + ".svg")):
            problems.append(f"{name}.svg missing")
        per_table.append(problems)
    return per_table


def bounds(seed, result_path):
    with open(result_path, encoding="utf-8") as fh:
        found = json.load(fh)["bounds"]
    per_check, shared = checks.check_bounds(
        found, checks.load_reference("bounds", seed),
        checks.load_reference("bounds", workloads.DEFAULT_SEED))
    return per_check + [shared]


def residual(rules_path):
    from tikbary.basis import BasisSpec
    from tikbary.quadrature import exactness_residual, gauss_rule

    with open(rules_path, encoding="utf-8") as fh:
        rules = json.load(fh)
    worst = 0.0
    for a, b, points in rules:
        rule = gauss_rule(BasisSpec(a, b), points)
        worst = max(worst, exactness_residual(rule, 2 * rule.degree + 1))
    return worst


def main(argv):
    command, args = argv[0], argv[1:]
    if command == "tables":
        out = tables(args[0], int(args[1]), args[2])
    elif command == "bounds":
        out = bounds(int(args[0]), args[1])
    elif command == "residual":
        out = residual(args[0])
    else:
        raise SystemExit(f"unknown command {command!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
