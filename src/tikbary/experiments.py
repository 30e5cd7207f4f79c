"""The noise-experiment families, reproducible end to end.

Each runner takes an ExperimentConfig, computes error tables or interpolant
curves, and writes CSV plus an SVG rendered from the CSV text alone.  All
randomness flows from the config seed through a counter-based generator:
grid point i of a run draws its noise from derive_seed(seed, i), so reruns
are byte-identical and any single cell can be reproduced in isolation.

Throughout, N is the degree of the quadrature rule (N+1 nodes) and L the
degree of the fitted polynomial; fitting requires L <= N.
"""

import math
import os
from dataclasses import astuple, dataclass, fields
from importlib.resources import files
from itertools import groupby

import numpy as np

from ._version import __version__
from .barycentric import (
    BarycentricData,
    _quotient_weights,
    check_lambda,
    interp_barycentric,
)
from .basis import BasisSpec
from .configfile import parse_config_text, render_value
from .csvio import render_table
from .metrics import (
    LAMBDA_STAR,
    REPORT_COLUMNS,
    _fit_cells,
    _max_errors,
    _reports,
    default_l2_rule,
    default_uniform_grid,
    lambda_sweep,
)
from .quadrature import gauss_rule
from .signals import FUNCTIONS, NoiseSpec, add_noise, derive_seed
from .svgplot import render_csv_text

__all__ = [
    "ExperimentConfig",
    "EXPERIMENTS",
    "paper_config",
    "desk_config",
    "run",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig45",
    "run_sweep",
    "run_custom",
]

_NOISE_KINDS = (None, "additive-white-snr", "multiplicative-uniform")


def _whole(key: str, value) -> int:
    """value as an int if it is a whole number (2001 or 2001.0), else ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{key}: expected a whole number, got {value!r}")
    return int(value)


def _number(value) -> bool:
    """True for an int or a float, NumPy's too; false for true and false,
    which Python counts as 1 and 0."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _real(key: str, value) -> float:
    """value as a float if it is a number, else ValueError."""
    if not _number(value):
        raise ValueError(f"{key}: expected a number, got {value!r}")
    return float(value)


def _items(key: str, values) -> tuple:
    """values as a tuple if it is one-dimensional (a list, tuple or array), else ValueError."""
    if np.ndim(values) != 1:
        raise ValueError(f"{key}: expected a list, got {values!r}")
    return tuple(values)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; round-trips losslessly through a config file."""

    experiment: str
    basis: str = "chebyshev1"
    fn: str = "f1"
    seed: int = 12345
    out_dir: str = "results"
    l_values: tuple = ()
    n_values: tuple = ()
    lambdas: tuple = (0.0, LAMBDA_STAR)
    noise_kind: str | None = "additive-white-snr"
    snr_db: float = 5.0
    noise_c: float = 0.3
    grid_equispaced: int = 10001
    grid_chebyshev: int = 2001

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        BasisSpec.from_name(self.basis)  # raises on a bad name
        if self.fn not in FUNCTIONS:
            raise ValueError(f"unknown function {self.fn!r}")
        for key, least in (("l_values", 0), ("n_values", 1)):
            values = tuple(_whole(key, v) for v in _items(key, getattr(self, key)))
            if not values:
                raise ValueError(f"{key} must be nonempty")
            if min(values) < least:
                raise ValueError(f"{key} must be >= {least}, got {min(values)}")
            object.__setattr__(self, key, values)
        lambdas = tuple(_real("lambdas", v) for v in _items("lambdas", self.lambdas))
        if not lambdas:
            raise ValueError("lambdas must be nonempty")
        for lam in lambdas:
            check_lambda(lam)
        object.__setattr__(self, "lambdas", lambdas)
        if self.noise_kind not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        # checked whatever the noise kind, since the metadata echoes both
        if not (_number(self.snr_db) and math.isfinite(self.snr_db)):
            raise ValueError(f"snr_db must be finite, got {self.snr_db!r}")
        if not (_number(self.noise_c)
                and math.isfinite(self.noise_c) and self.noise_c >= 0.0):
            raise ValueError(f"noise_c must be finite and >= 0, got {self.noise_c!r}")
        for key, least in (("seed", 0), ("grid_equispaced", 2), ("grid_chebyshev", 2)):
            value = _whole(key, getattr(self, key))
            if value < least:
                raise ValueError(f"{key} must be >= {least}, got {value}")
            object.__setattr__(self, key, value)
        # the CSV metadata echoes out_dir on one line, and a config file
        # must give it back: no line break ("" is no line at all), no
        # comment, no value of another type such as 12, true, none or [a],
        # no outer blanks
        out_dir = self.out_dir
        echoed = isinstance(out_dir, str) and out_dir.splitlines() == [out_dir]
        if echoed:
            try:
                text = f"out_dir = {render_value(out_dir)}"
                echoed = parse_config_text(text) == {"out_dir": out_dir}
            except ValueError:  # "[a" is an unterminated array
                echoed = False
        if not echoed:
            raise ValueError(f"out_dir must be a nonempty path on one line that a "
                             f"config file gives back unchanged, got {out_dir!r}")

    def to_mapping(self) -> dict:
        out = {}
        for key in _CONFIG_KEYS:
            value = getattr(self, key)
            out[key] = "none" if value is None else value
        return out

    @staticmethod
    def from_mapping(mapping: dict) -> "ExperimentConfig":
        kwargs = {}
        for key, value in mapping.items():
            if key in ("l_range", "n_range"):
                value = _items(key, value)
                if len(value) != 3:
                    raise ValueError(f"{key} must be [start, stop, step]")
                start, stop, step = (_whole(key, v) for v in value)
                if step < 1:
                    raise ValueError(f"{key}: step must be >= 1, got {step}")
                kwargs[key[0] + "_values"] = tuple(range(start, stop + 1, step))
            elif key in _CONFIG_KEYS:
                kwargs[key] = None if value == "none" else value
            else:
                raise ValueError(f"unknown config key {key!r}")
        for short in ("l", "n"):
            if f"{short}_range" in mapping and f"{short}_values" in mapping:
                raise ValueError(f"give {short}_values or {short}_range, not both")
        return ExperimentConfig(**kwargs)


_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def _shipped_config(experiment: str, scale: str, out_dir: str) -> ExperimentConfig:
    """configs/<experiment>-<scale>.cfg from the package, writing to out_dir."""
    if experiment not in EXPERIMENTS or experiment == "custom":
        raise ValueError(f"no {scale} configuration for {experiment!r}")
    text = (files(__package__) / "configs" / f"{experiment}-{scale}.cfg").read_text(
        encoding="utf-8")
    return ExperimentConfig.from_mapping({**parse_config_text(text), "out_dir": out_dir})


def paper_config(experiment: str, out_dir: str = "results") -> ExperimentConfig:
    """Full-scale runs matching the published figures (minutes, not seconds)."""
    return _shipped_config(experiment, "paper", out_dir)


def desk_config(experiment: str, out_dir: str = "results-desk") -> ExperimentConfig:
    """Reduced runs with the same schema, for quick checks and CI."""
    return _shipped_config(experiment, "desk", out_dir)


def _grid(config: ExperimentConfig) -> np.ndarray:
    return default_uniform_grid(config.grid_equispaced, config.grid_chebyshev)


def _metadata(config: ExperimentConfig, table_name: str) -> list:
    # config values rendered in the config-file syntax, so the echoed lines
    # paste straight back into a .cfg
    meta = [("table", table_name), ("version", __version__)]
    meta.extend((k, render_value(v)) for k, v in config.to_mapping().items())
    return meta


def _emit(config, name, columns, rows, plot_hints, extra_meta=()) -> list:
    """Write name.csv and its SVG; returns the written paths.  extra_meta
    lines follow the echoed config in the CSV's metadata block."""
    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, f"{name}.csv")
    meta = _metadata(config, name) + list(extra_meta)
    text = render_table(columns, rows, meta, plot_hints)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    svg_path = os.path.join(config.out_dir, f"{name}.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(render_csv_text(text))
    return [csv_path, svg_path]


def _emit_reports(config, name, reports, plot_hints, extra_meta) -> list:
    """_emit for a table of ErrorReports, one row each."""
    return _emit(config, name, REPORT_COLUMNS, [astuple(r) for r in reports],
                 plot_hints, extra_meta)


def _noise_from_config(config: ExperimentConfig, index: int) -> NoiseSpec | None:
    if config.noise_kind is None:
        return None
    seed = derive_seed(config.seed, index)
    if config.noise_kind == "additive-white-snr":
        return NoiseSpec("additive-white-snr", seed, snr_db=config.snr_db)
    return NoiseSpec("multiplicative-uniform", seed, c=config.noise_c)


def _fit_tables(config: ExperimentConfig, fnames, cells) -> list:
    """Least-squares ErrorReports for each function in fnames, one list each.

    cells are (L, N, noise index) triples, grouped by N: consecutive cells
    with the same N share one Gauss rule, and each (N, L) one L2 rule, for
    every function.  For each function, metrics._fit_cells fits every
    cell's sample vector once at lambda = 0 and scores the whole table in
    one blocked GEMM pass over the grid (regularized_fit._blocked_values),
    so the last bits depend on the BLAS kernel and reruns on one machine
    are bitwise equal.  Reports follow the order of cells, then of
    config.lambdas.
    """
    spec = BasisSpec.from_name(config.basis)
    grid = _grid(config)
    scored = []
    for N, same_n in groupby(cells, key=lambda cell: cell[1]):
        rule = gauss_rule(spec, N + 1)
        scored += [(rule, L, default_l2_rule(rule, L), _noise_from_config(config, index))
                   for L, _, index in same_n]
    return [_fit_cells(f, np.asarray(f(grid), dtype=float), scored, config.lambdas, grid)
            for f in (FUNCTIONS[fname] for fname in fnames)]


def _one(config: ExperimentConfig, key: str) -> int:
    """The single value of a degree axis that the runner holds fixed."""
    values = getattr(config, key)
    if len(values) != 1:
        raise ValueError(f"{config.experiment} takes one {key} value, got {list(values)}")
    return values[0]


def _check_l_equals_n(config: ExperimentConfig) -> None:
    """Interpolation is the fit at L = N, so l_values must equal n_values."""
    if config.l_values != config.n_values:
        raise ValueError(
            f"{config.experiment} interpolates at L = N: l_values must equal "
            "n_values (on the command line, give --L with the same value as "
            f"--N), got {list(config.l_values)} and {list(config.n_values)}")


def _emit_fig12(config: ExperimentConfig, cells, x, fixed) -> list:
    written = []
    for fname, reports in zip(("f1", "f2"), _fit_tables(config, ("f1", "f2"), cells)):
        hints = [f"x = {x}", "y = uniform_error, l2_error", "group-by = lambda",
                 "logy = true", f"title = errors vs {x}, {fname}, {fixed}"]
        written += _emit_reports(config, f"{config.experiment}_{fname}",
                                 reports, hints, ())
    return written


def run_fig1(config: ExperimentConfig) -> list:
    """Errors versus fitted degree L at fixed N, noisy data, for f1 and f2."""
    N = _one(config, "n_values")
    for L in config.l_values:
        if L > N:
            raise ValueError(f"L={L} exceeds N={N}")
    cells = [(L, N, i) for i, L in enumerate(config.l_values)]
    return _emit_fig12(config, cells, "L", f"N={N}")


def run_fig2(config: ExperimentConfig) -> list:
    """Errors versus rule degree N at fixed L, noisy data, for f1 and f2."""
    L = _one(config, "l_values")
    if min(config.n_values) < L:
        raise ValueError("every N must be >= L, the quadrature identity needs it")
    cells = [(L, N, i) for i, N in enumerate(config.n_values)]
    return _emit_fig12(config, cells, "N", f"L={L}")


def run_fig3(config: ExperimentConfig) -> list:
    """Classical vs shrunk barycentric interpolation of f3 as N grows,
    noise-free and, unless noise_kind is none, noisy."""
    _check_l_equals_n(config)
    spec = BasisSpec.from_name(config.basis)
    f = FUNCTIONS[config.fn]
    grid = _grid(config)
    f_grid = np.asarray(f(grid), dtype=float)
    reports = []
    rules = [gauss_rule(spec, N + 1) for N in config.n_values]
    # every rule checked, then every rule's weights from one recurrence sweep
    weights = _quotient_weights(rules)
    for i, (N, rule) in enumerate(zip(config.n_values, rules)):
        clean = np.asarray(f(rule.nodes), dtype=float)
        noise = _noise_from_config(config, i)
        noises = (None,) if noise is None else (None, noise)
        l2r = default_l2_rule(rule, N)
        f_l2 = clean if l2r is rule else np.asarray(f(l2r.nodes), dtype=float)
        # every sample vector in one pass per point set, at lambda = 0; each
        # lambda is then the scalar 1/(1+lambda)
        samples = [clean if n is None else add_noise(clean, n) for n in noises]
        data = BarycentricData(rule.nodes, weights[i], np.column_stack(samples))
        p_grid = interp_barycentric(data, grid)
        p_l2 = interp_barycentric(data, l2r.nodes)
        for c, column_noise in enumerate(noises):
            uniform = _max_errors(f_grid, p_grid[:, c], config.lambdas)
            reports += _reports(rule, N, config.lambdas, column_noise, uniform, l2r,
                                f_l2, p_l2[:, c])
    hints = ["x = N", "y = l2_error, uniform_error",
             "group-by = lambda, snr_db", "logy = true",
             f"title = interpolation of {config.fn} vs N"]
    return _emit_reports(config, config.experiment, reports, hints, ())


def run_fig45(config: ExperimentConfig) -> list:
    """Interpolants of exact, scaled, and multiplicatively perturbed samples.

    Emits the sampled data per variant, both interpolants (lambda = 0 and the
    configured shrinkage) on the dense grid, and pointwise deviations from
    the clean target function, at one degree L = N.  lambdas is
    (lambda,) or (0.0, lambda).  The multiplicative variants use the
    paper's fixed c = 0.3 and 0.4: noise_c and noise_kind are not read.
    """
    _check_l_equals_n(config)
    N = _one(config, "n_values")
    if config.lambdas[:-1] not in ((), (0.0,)):
        raise ValueError(f"{config.experiment} takes lambdas (lambda,) or (0.0, lambda), "
                         f"got {list(config.lambdas)}")
    spec = BasisSpec.from_name(config.basis)
    f = FUNCTIONS[config.fn]
    rule = gauss_rule(spec, N + 1)
    [weights] = _quotient_weights([rule])
    clean = np.asarray(f(rule.nodes), dtype=float)
    lam_t = config.lambdas[-1]
    grid = _grid(config)
    f_grid = np.asarray(f(grid), dtype=float)

    variants = [("true", clean), ("scale-1.2", 1.2 * clean)]
    for idx, c in ((2, 0.3), (3, 0.4)):
        noise = NoiseSpec("multiplicative-uniform", derive_seed(config.seed, idx),
                          c=c)
        variants.append((f"mult-{c}", add_noise(clean, noise)))

    data_cols = ["j", "x"] + [name for name, _ in variants]
    data_rows = [[j, rule.nodes[j]] + [v[j] for _, v in variants]
                 for j in range(len(rule))]
    written = _emit(config, f"{config.experiment}_data", data_cols, data_rows,
                    ["x = x", "y = " + ", ".join(n for n, _ in variants),
                     f"title = sampled data, {config.fn}"])

    # every variant in one grid pass at lambda = 0, shrunk by a scalar after
    stacked = BarycentricData(rule.nodes, weights, np.column_stack([v for _, v in variants]))
    p_all = interp_barycentric(stacked, grid)
    curve_cols, curve_series = ["x", "target"], [f_grid]
    err_cols, err_series = ["x"], []
    for c, (name, _) in enumerate(variants):
        for tag, lam in (("classical", 0.0), ("tikhonov", lam_t)):
            p = p_all[:, c] / (1.0 + lam)
            curve_cols.append(f"{tag}-{name}")
            curve_series.append(p)
            err_cols.append(f"err-{tag}-{name}")
            err_series.append(np.abs(p - f_grid))
    curve_rows = np.column_stack([grid] + curve_series).tolist()
    written += _emit(config, f"{config.experiment}_curves", curve_cols, curve_rows,
                     ["x = x", "y = " + ", ".join(curve_cols[1:]),
                      f"title = interpolants, {config.fn}, N={N}"])
    err_rows = np.column_stack([grid] + err_series).tolist()
    written += _emit(config, f"{config.experiment}_errors", err_cols, err_rows,
                     ["x = x", "y = " + ", ".join(err_cols[1:]), "logy = true",
                      f"title = pointwise deviation from {config.fn}"])
    return written


def run_sweep(config: ExperimentConfig) -> list:
    """One lambda sweep at fixed (L, N) by metrics.lambda_sweep; reports the
    argmin per metric, the first lambda reaching the minimum."""
    L, N = _one(config, "l_values"), _one(config, "n_values")
    rule = gauss_rule(BasisSpec.from_name(config.basis), N + 1)
    sweep = lambda_sweep(rule, L, FUNCTIONS[config.fn], config.lambdas,
                         _noise_from_config(config, 0), _grid(config))
    hints = ["x = lambda", "y = uniform_error, l2_error", "logx = true",
             "logy = true", f"title = lambda sweep, {config.fn}, L={L}"]
    best = [(f"best-lambda-{metric}", lam) for metric, lam in sweep.best_lambda.items()]
    return _emit_reports(config, config.experiment, sweep.reports, hints, best)


def run_custom(config: ExperimentConfig) -> list:
    """Cross product of the configured L, N, lambda values (cells with L > N
    are skipped); one noise draw per (L, N) cell shared across lambdas."""
    pairs = [(L, N) for N in config.n_values for L in config.l_values if L <= N]
    if not pairs:
        raise ValueError("no runnable (L, N) cells, every L exceeds every N")
    cells = [(L, N, index) for index, (L, N) in enumerate(pairs)]
    [reports] = _fit_tables(config, (config.fn,), cells)
    xcol = "N" if len(config.n_values) > 1 else "L"
    hints = [f"x = {xcol}", "y = uniform_error, l2_error", "group-by = lambda",
             "logy = true", f"title = custom run, {config.fn}"]
    return _emit_reports(config, config.experiment, reports, hints, ())


_RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig45,
    "fig5": run_fig45,
    "sweep": run_sweep,
    "custom": run_custom,
}

EXPERIMENTS = tuple(_RUNNERS)


def run(config: ExperimentConfig) -> list:
    """Dispatch to the runner for config.experiment; returns written paths."""
    return _RUNNERS[config.experiment](config)
