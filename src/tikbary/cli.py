"""Command-line front end.

Subcommands expose the library pieces on user-supplied inputs and drive the
experiment families:

    tikbary quadrature-dump --basis chebyshev1 --points 4
    tikbary fit --basis legendre --L 8 --N 16 --lambda 0 --fn f1
    tikbary interp --basis chebyshev1 --N 60 --lambda 0.1995 --fn f1
    tikbary sweep --basis chebyshev1 --L 100 --N 100 --fn f1 --seed 7
    tikbary run --config src/tikbary/configs/fig1-desk.cfg
    tikbary run --experiment fig3 --scale paper --out results

Commands that take data accept --fn NAME or --data FILE, the file being CSV
rows of (x, f(x)) with or without a header; fit and interp require the x
values to be the Gauss nodes of the requested rule.  Flags given alongside
--config override the file's values.  Exit status is 0 on success, 2 on any
error, with a message on stderr.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from ._version import __version__
from .barycentric import BarycentricData, _quotient_weights, interp_barycentric
from .basis import BasisSpec
from .configfile import read_config
from .csvio import read_table, render_table
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    desk_config,
    paper_config,
    run,
)
from .metrics import default_lambda_grid
from .quadrature import gauss_rule
from .regularized_fit import fit as fit_op
from .signals import FUNCTIONS

__all__ = ["main", "build_parser"]


def _write_table(args, name, columns, rows, meta, hints=()) -> int:
    """The table as CSV under (table, version, basis) and meta, to --out or stdout."""
    meta = [("table", name), ("version", __version__), ("basis", args.basis), *meta]
    text = render_table(columns, rows, meta, hints)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


def _read_xy(path):
    """CSV rows of (x, y), tolerant of a missing header."""
    table = read_table(path)
    rows = table.rows
    try:
        float(table.columns[0])
        rows = [table.columns] + rows  # headerless file, first line is data
    except ValueError:
        pass
    if any(len(r) < 2 for r in rows) or not rows:
        raise ValueError(f"{path}: expected rows of x, f(x)")
    data = np.array([[float(r[0]), float(r[1])] for r in rows])
    order = np.argsort(data[:, 0])
    return data[order, 0], data[order, 1]


def _samples_for_rule(args, rule):
    if args.fn is not None:
        return np.asarray(FUNCTIONS[args.fn](rule.nodes), dtype=float)
    if args.data is None:
        raise ValueError("give --fn NAME or --data FILE")
    x, y = _read_xy(args.data)
    if x.size != len(rule):
        raise ValueError(
            f"{args.data}: {x.size} rows, but the rule has {len(rule)} nodes; "
            "generate matching abscissae with quadrature-dump")
    dev = float(np.max(np.abs(x - rule.nodes)))
    if dev > 1e-12:
        raise ValueError(
            f"{args.data}: abscissae deviate from the Gauss nodes by {dev:.3g}; "
            "samples must be taken at the rule's nodes")
    return y


def _cmd_quadrature_dump(args) -> int:
    rule = gauss_rule(BasisSpec.from_name(args.basis), args.points)
    rows = [[j, rule.nodes[j], rule.weights[j]] for j in range(len(rule))]
    return _write_table(args, "quadrature", ("j", "node", "weight"), rows,
                        [("points", args.points)])


def _single_lambda(args) -> float:
    if not args.lam:
        return 0.0
    if len(args.lam) > 1:
        raise ValueError(
            "fit and interp take a single --lambda; use sweep for several")
    return args.lam[0]


def _cmd_fit(args) -> int:
    n = args.L if args.N is None else args.N
    for flag, degree in (("--L", args.L), ("--N", n)):
        if degree < 0:
            raise ValueError(f"{flag} must be >= 0, got {degree}")
    rule = gauss_rule(BasisSpec.from_name(args.basis), n + 1)
    lam = _single_lambda(args)
    approx = fit_op(rule, args.L, lam, _samples_for_rule(args, rule))
    rows = [[l, approx.coefficients[l]] for l in range(args.L + 1)]
    return _write_table(args, "coefficients", ("l", "beta"), rows,
                        [("L", args.L), ("N", n), ("lambda", lam)])


def _cmd_interp(args) -> int:
    if args.eval_points < 1:
        raise ValueError(f"--eval-points must be >= 1, got {args.eval_points}")
    if args.N < 1:  # interpolation needs two nodes
        raise ValueError(f"--N must be >= 1, got {args.N}")
    rule = gauss_rule(BasisSpec.from_name(args.basis), args.N + 1)
    [weights] = _quotient_weights([rule])
    lam = _single_lambda(args)
    values = _samples_for_rule(args, rule)
    data = BarycentricData(rule.nodes, weights, values, lam)
    grid = np.linspace(-1.0, 1.0, args.eval_points)
    rows = np.column_stack([grid, interp_barycentric(data, grid)]).tolist()
    return _write_table(args, "interpolant", ("x", "value"), rows,
                        [("N", args.N), ("lambda", lam)], ["x = x", "y = value"])


def _run_with_flags(config: ExperimentConfig, args) -> int:
    """Run config with every config flag that was given applied in one
    replace, and print the written paths; a flag left out is None and keeps
    its field, so the defaults live in ExperimentConfig alone."""
    given = {"basis": args.basis, "fn": args.fn, "seed": args.seed,
             "out_dir": args.out, "snr_db": args.snr_db,
             "l_values": None if args.L is None else (args.L,),
             "n_values": None if args.N is None else (args.N,),
             "lambdas": None if args.lam is None else tuple(args.lam)}
    for path in run(replace(config, **{k: v for k, v in given.items() if v is not None})):
        print(path)
    return 0


def _cmd_sweep(args) -> int:
    noise_kind = None if args.no_noise else "additive-white-snr"
    config = ExperimentConfig("sweep", l_values=(args.L,), n_values=(args.L,),
                              lambdas=tuple(default_lambda_grid()),
                              noise_kind=noise_kind)
    return _run_with_flags(config, args)


def _cmd_run(args) -> int:
    if args.config is not None:
        config = ExperimentConfig.from_mapping(read_config(args.config))
        if args.experiment is not None:
            config = replace(config, experiment=args.experiment)
    elif args.experiment == "custom":
        # no shipped scale for custom: the ExperimentConfig defaults plus L, N
        if args.L is None or args.N is None:
            raise ValueError("--experiment custom without --config needs --L and --N")
        config = ExperimentConfig("custom", l_values=(args.L,), n_values=(args.N,))
    elif args.experiment is not None:
        factory = paper_config if args.scale == "paper" else desk_config
        config = factory(args.experiment)
    else:
        raise ValueError("give --config FILE or --experiment ID")
    return _run_with_flags(config, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tikbary",
        description="Regularized polynomial fitting and barycentric "
                    "interpolation in Gauss points")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--basis", default="chebyshev1",
                       help="chebyshev1, legendre, or jacobi(a,b)")
        p.add_argument("--lambda", dest="lam", type=float, action="append",
                       help="shrinkage parameter (default 0)")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--fn", choices=sorted(FUNCTIONS), default=None)
        p.add_argument("--data", default=None,
                       help="CSV of (x, f(x)) rows sampled at the nodes")

    def add_config_flags(p):
        # ExperimentConfig overrides for _run_with_flags, None when not given
        p.add_argument("--basis")
        p.add_argument("--fn", choices=sorted(FUNCTIONS))
        p.add_argument("--lambda", dest="lam", type=float, action="append",
                       help="lambda values (repeatable; default the config's, "
                            "for sweep the 21-point grid)")
        p.add_argument("--N", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--snr-db", type=float)
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("quadrature-dump", help="print a Gauss rule as CSV")
    p.add_argument("--basis", default="chebyshev1")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_quadrature_dump)

    p = sub.add_parser("fit", help="fit and print the coefficients")
    add_common(p)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--N", type=int, default=None, help="rule degree (default L)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("interp", help="evaluate the barycentric interpolant")
    add_common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eval-points", type=int, default=1001)
    p.set_defaults(func=_cmd_interp)

    p = sub.add_parser("sweep", help="sweep lambda at fixed L, N")
    add_config_flags(p)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--no-noise", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("run", help="run an experiment family")
    p.add_argument("--config", default=None, help="config file path")
    p.add_argument("--experiment", choices=EXPERIMENTS, default=None)
    p.add_argument("--scale", choices=("desk", "paper"), default="desk")
    add_config_flags(p)
    p.add_argument("--L", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the failed allocation; a bare one is empty
        print("error: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
