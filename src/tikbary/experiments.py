"""The noise-experiment families, reproducible end to end.

Each runner takes an ExperimentConfig, computes error tables or interpolant
curves, and writes CSV plus an SVG rendered from the CSV text alone.  All
randomness flows from the config seed through a counter-based generator:
grid point i of a run draws its noise from derive_seed(seed, i), so reruns
are byte-identical and any single cell can be reproduced in isolation.

Throughout, N is the degree of the quadrature rule (N+1 nodes) and L the
degree of the fitted polynomial; fitting requires L <= N.
"""

import os
from dataclasses import dataclass, replace

import numpy as np

from ._version import __version__
from .barycentric import BarycentricData, interp_barycentric, weights_gauss
from .basis import BasisSpec
from .configfile import render_value
from .csvio import REPORT_COLUMNS, render_table
from .metrics import (
    LAMBDA_STAR,
    default_l2_rule,
    default_lambda_grid,
    default_uniform_grid,
    lambda_sweep,
)
from .quadrature import gauss_rule
from .regularized_fit import check_lambda, evaluate, fit
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

EXPERIMENTS = ("fig1", "fig2", "fig3", "fig4", "fig5", "sweep", "custom")

_NOISE_KINDS = (None, "additive-white-snr", "multiplicative-uniform")

_CONFIG_KEYS = (
    "experiment", "basis", "fn", "seed", "out_dir", "l_values", "n_values",
    "lambdas", "noise_kind", "snr_db", "noise_c", "grid_equispaced",
    "grid_chebyshev",
)


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
        object.__setattr__(self, "l_values", tuple(int(v) for v in self.l_values))
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        if not self.l_values or not self.n_values:
            raise ValueError("l_values and n_values must be nonempty")
        if min(self.l_values) < 0 or min(self.n_values) < 1:
            raise ValueError("degrees must be sensible")
        if not self.lambdas:
            raise ValueError("lambdas must be nonempty")
        for lam in self.lambdas:
            check_lambda(lam)
        if self.noise_kind not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if self.grid_equispaced < 2 or self.grid_chebyshev < 2:
            raise ValueError("grid sizes must be >= 2")

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
                if len(value) != 3:
                    raise ValueError(f"{key} must be [start, stop, step]")
                start, stop, step = (int(v) for v in value)
                kwargs[key[0] + "_values"] = tuple(range(start, stop + 1, step))
            elif key in _CONFIG_KEYS:
                kwargs[key] = None if value == "none" else value
            else:
                raise ValueError(f"unknown config key {key!r}")
        for short in ("l", "n"):
            if f"{short}_range" in mapping and f"{short}_values" in mapping:
                raise ValueError(f"give {short}_values or {short}_range, not both")
        return ExperimentConfig(**kwargs)


def paper_config(experiment: str, out_dir: str = "results",
                 seed: int = 12345) -> ExperimentConfig:
    """Full-scale runs matching the published figures (minutes, not seconds)."""
    base = dict(experiment=experiment, seed=seed, out_dir=out_dir)
    if experiment == "fig1":
        return ExperimentConfig(**base, n_values=(500,),
                                l_values=tuple(range(10, 501, 10)))
    if experiment == "fig2":
        return ExperimentConfig(**base, l_values=(500,),
                                n_values=tuple(range(500, 2001, 100)))
    if experiment == "fig3":
        n = tuple(range(20, 1001, 20))
        return ExperimentConfig(**base, fn="f3", l_values=n, n_values=n)
    if experiment in ("fig4", "fig5"):
        fn = "f1" if experiment == "fig4" else "f1-plus-sin10x"
        return ExperimentConfig(**base, fn=fn, l_values=(60,), n_values=(60,),
                                noise_kind="multiplicative-uniform")
    if experiment == "sweep":
        return ExperimentConfig(**base, l_values=(500,), n_values=(500,),
                                lambdas=tuple(default_lambda_grid()))
    raise ValueError(f"no paper configuration for {experiment!r}")


def desk_config(experiment: str, out_dir: str = "results-desk",
                seed: int = 12345) -> ExperimentConfig:
    """Reduced runs with the same schema, for quick checks and CI."""
    cfg = paper_config(experiment, out_dir=out_dir, seed=seed)
    small = dict(grid_equispaced=2001, grid_chebyshev=501)
    if experiment == "fig1":
        return replace(cfg, n_values=(200,), l_values=tuple(range(10, 201, 10)),
                       **small)
    if experiment == "fig2":
        return replace(cfg, l_values=(100,), n_values=tuple(range(100, 401, 20)),
                       **small)
    if experiment == "fig3":
        n = tuple(range(20, 201, 20))
        return replace(cfg, l_values=n, n_values=n, **small)
    if experiment in ("fig4", "fig5"):
        return replace(cfg, **small)
    if experiment == "sweep":
        return replace(cfg, l_values=(100,), n_values=(100,), **small)
    raise ValueError(f"no desk configuration for {experiment!r}")


def _grid(config: ExperimentConfig) -> np.ndarray:
    return default_uniform_grid(config.grid_equispaced, config.grid_chebyshev)


def _metadata(config: ExperimentConfig, table_name: str) -> list:
    # config values rendered in the config-file syntax, so the echoed lines
    # paste straight back into a .cfg
    meta = [("table", table_name), ("version", __version__)]
    meta.extend((k, render_value(v)) for k, v in config.to_mapping().items())
    return meta


def _emit(config, name, columns, rows, plot_hints) -> list:
    """Write name.csv and its SVG; returns the written paths."""
    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, f"{name}.csv")
    text = render_table(columns, rows, _metadata(config, name), plot_hints)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    svg_path = os.path.join(config.out_dir, f"{name}.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(render_csv_text(text))
    return [csv_path, svg_path]


def _additive_noise(config, index) -> NoiseSpec:
    return NoiseSpec("additive-white-snr", derive_seed(config.seed, index),
                     snr_db=config.snr_db)


def _error_row(spec_name, L, N, lam, seed, snr_db, f_grid, approx_grid,
               l2_rule, f_l2, approx_l2):
    err_u = float(np.max(np.abs(f_grid - approx_grid)))
    resid = f_l2 - approx_l2
    err_2 = float(np.sqrt(np.sum(l2_rule.weights * resid * resid)))
    return [spec_name, L, N, lam, seed, snr_db, err_u, err_2]


def run_fig1(config: ExperimentConfig) -> list:
    """Errors versus fitted degree L at fixed N, noisy data, for f1 and f2."""
    spec = BasisSpec.from_name(config.basis)
    N = config.n_values[0]
    rule = gauss_rule(spec, N + 1)
    grid = _grid(config)
    written = []
    for fname in ("f1", "f2"):
        f = FUNCTIONS[fname]
        f_grid = np.asarray(f(grid), dtype=float)
        f_nodes = np.asarray(f(rule.nodes), dtype=float)
        rows = []
        for i, L in enumerate(config.l_values):
            if L > N:
                raise ValueError(f"L={L} exceeds N={N}")
            noise = _additive_noise(config, i)
            noisy = add_noise(f_nodes, noise)
            l2r = default_l2_rule(rule, L)
            f_l2 = f_nodes if l2r is rule else np.asarray(f(l2r.nodes), dtype=float)
            for lam in config.lambdas:
                approx = fit(rule, L, lam, noisy)
                rows.append(_error_row(
                    spec.name, L, N, lam, noise.seed, config.snr_db,
                    f_grid, evaluate(approx, grid),
                    l2r, f_l2, evaluate(approx, l2r.nodes)))
        hints = ["x = L", "y = uniform_error, l2_error", "group-by = lambda",
                 "logy = true", f"title = errors vs L, {fname}, N={N}"]
        written += _emit(config, f"{config.experiment}_{fname}",
                         REPORT_COLUMNS, rows, hints)
    return written


def run_fig2(config: ExperimentConfig) -> list:
    """Errors versus rule degree N at fixed L, noisy data, for f1 and f2."""
    spec = BasisSpec.from_name(config.basis)
    L = config.l_values[0]
    if min(config.n_values) < L:
        raise ValueError("every N must be >= L, the quadrature identity needs it")
    grid = _grid(config)
    written = []
    for fname in ("f1", "f2"):
        f = FUNCTIONS[fname]
        f_grid = np.asarray(f(grid), dtype=float)
        rows = []
        for i, N in enumerate(config.n_values):
            rule = gauss_rule(spec, N + 1)
            f_nodes = np.asarray(f(rule.nodes), dtype=float)
            noise = _additive_noise(config, i)
            noisy = add_noise(f_nodes, noise)
            l2r = default_l2_rule(rule, L)
            f_l2 = f_nodes if l2r is rule else np.asarray(f(l2r.nodes), dtype=float)
            for lam in config.lambdas:
                approx = fit(rule, L, lam, noisy)
                rows.append(_error_row(
                    spec.name, L, N, lam, noise.seed, config.snr_db,
                    f_grid, evaluate(approx, grid),
                    l2r, f_l2, evaluate(approx, l2r.nodes)))
        hints = ["x = N", "y = uniform_error, l2_error", "group-by = lambda",
                 "logy = true", f"title = errors vs N, {fname}, L={L}"]
        written += _emit(config, f"{config.experiment}_{fname}",
                         REPORT_COLUMNS, rows, hints)
    return written


def run_fig3(config: ExperimentConfig) -> list:
    """Classical vs shrunk barycentric interpolation of f3 as N grows,
    noise-free and noisy."""
    spec = BasisSpec.from_name(config.basis)
    f = FUNCTIONS[config.fn]
    grid = _grid(config)
    f_grid = np.asarray(f(grid), dtype=float)
    rows = []
    for i, N in enumerate(config.n_values):
        rule = gauss_rule(spec, N + 1)
        clean = np.asarray(f(rule.nodes), dtype=float)
        noise = _additive_noise(config, i)
        noisy = add_noise(clean, noise)
        l2r = default_l2_rule(rule, N)
        f_l2 = clean if l2r is rule else np.asarray(f(l2r.nodes), dtype=float)
        # both sample vectors in one pass per point set, at lambda = 0; each
        # lambda is then the scalar 1/(1+lambda)
        data = BarycentricData(rule.nodes, weights_gauss(rule),
                               np.column_stack([clean, noisy]))
        p_grid = interp_barycentric(data, grid)
        p_l2 = interp_barycentric(data, l2r.nodes)
        for c, seed, snr in ((0, None, None), (1, noise.seed, config.snr_db)):
            for lam in config.lambdas:
                rows.append(_error_row(
                    spec.name, N, N, lam, seed, snr,
                    f_grid, p_grid[:, c] / (1.0 + lam),
                    l2r, f_l2, p_l2[:, c] / (1.0 + lam)))
    hints = ["x = N", "y = l2_error, uniform_error",
             "group-by = lambda, snr_db", "logy = true",
             f"title = interpolation of {config.fn} vs N"]
    return _emit(config, config.experiment, REPORT_COLUMNS, rows, hints)


def run_fig45(config: ExperimentConfig) -> list:
    """Interpolants of exact, scaled, and multiplicatively perturbed samples.

    Emits the sampled data per variant, both interpolants (lambda = 0 and the
    configured shrinkage) on the dense grid, and pointwise deviations from
    the clean target function.
    """
    spec = BasisSpec.from_name(config.basis)
    f = FUNCTIONS[config.fn]
    N = config.n_values[0]
    rule = gauss_rule(spec, N + 1)
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
    data_rows = []
    for j in range(len(rule)):
        data_rows.append([j, rule.nodes[j]] + [v[j] for _, v in variants])
    written = _emit(config, f"{config.experiment}_data", data_cols, data_rows,
                    ["x = x", "y = " + ", ".join(n for n, _ in variants),
                     f"title = sampled data, {config.fn}"])

    # every variant in one grid pass at lambda = 0, shrunk by a scalar after
    stacked = BarycentricData(rule.nodes, weights_gauss(rule),
                              np.column_stack([v for _, v in variants]))
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


def _noise_from_config(config: ExperimentConfig, index: int) -> NoiseSpec | None:
    if config.noise_kind is None:
        return None
    if config.noise_kind == "additive-white-snr":
        return _additive_noise(config, index)
    return NoiseSpec("multiplicative-uniform", derive_seed(config.seed, index),
                     c=config.noise_c)


def run_sweep(config: ExperimentConfig) -> list:
    """One lambda sweep at fixed (L, N); reports the argmin per metric."""
    spec = BasisSpec.from_name(config.basis)
    rule = gauss_rule(spec, config.n_values[0] + 1)
    L = config.l_values[0]
    result = lambda_sweep(rule, L, FUNCTIONS[config.fn], config.lambdas,
                          noise=_noise_from_config(config, 0), grid=_grid(config))
    rows = [[r.spec_name, r.L, r.N, r.lam, r.seed, r.snr_db,
             r.uniform_error, r.l2_error] for r in result.reports]
    hints = ["x = lambda", "y = uniform_error, l2_error", "logx = true",
             "logy = true", f"title = lambda sweep, {config.fn}, L={L}"]
    os.makedirs(config.out_dir, exist_ok=True)
    meta = _metadata(config, config.experiment)
    meta.append(("best-lambda-uniform_error", result.best_lambda["uniform_error"]))
    meta.append(("best-lambda-l2_error", result.best_lambda["l2_error"]))
    csv_path = os.path.join(config.out_dir, f"{config.experiment}.csv")
    text = render_table(REPORT_COLUMNS, rows, meta, hints)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    svg_path = os.path.join(config.out_dir, f"{config.experiment}.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(render_csv_text(text))
    return [csv_path, svg_path]


def run_custom(config: ExperimentConfig) -> list:
    """Cross product of the configured L, N, lambda values (cells with L > N
    are skipped); one noise draw per (L, N) cell shared across lambdas."""
    spec = BasisSpec.from_name(config.basis)
    f = FUNCTIONS[config.fn]
    grid = _grid(config)
    f_grid = np.asarray(f(grid), dtype=float)
    rows = []
    index = 0
    for N in config.n_values:
        rule = gauss_rule(spec, N + 1)
        f_nodes = np.asarray(f(rule.nodes), dtype=float)
        for L in config.l_values:
            if L > N:
                continue
            noise = _noise_from_config(config, index)
            index += 1
            samples = f_nodes if noise is None else add_noise(f_nodes, noise)
            seed = noise.seed if noise is not None else None
            snr = noise.snr_db if noise is not None else None
            l2r = default_l2_rule(rule, L)
            f_l2 = f_nodes if l2r is rule else np.asarray(f(l2r.nodes), dtype=float)
            for lam in config.lambdas:
                approx = fit(rule, L, lam, samples)
                rows.append(_error_row(
                    spec.name, L, N, lam, seed, snr,
                    f_grid, evaluate(approx, grid),
                    l2r, f_l2, evaluate(approx, l2r.nodes)))
    if not rows:
        raise ValueError("no runnable (L, N) cells, every L exceeds every N")
    xcol = "N" if len(config.n_values) > 1 else "L"
    hints = [f"x = {xcol}", "y = uniform_error, l2_error", "group-by = lambda",
             "logy = true", f"title = custom run, {config.fn}"]
    return _emit(config, config.experiment, REPORT_COLUMNS, rows, hints)


_RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig45,
    "fig5": run_fig45,
    "sweep": run_sweep,
    "custom": run_custom,
}


def run(config: ExperimentConfig) -> list:
    """Dispatch to the runner for config.experiment; returns written paths."""
    return _RUNNERS[config.experiment](config)
