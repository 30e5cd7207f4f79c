"""Error measurement, regularization sweeps, and empirical bound checks.

Two error estimators: the maximum deviation over a dense point set, and the
quadrature-weighted root sum of squares at a rule's nodes.  On top of those,
a sweep over the shrinkage parameter with one shared noise draw, and checks
that fitted approximants actually sit inside the theoretical error bounds,
using computable surrogates for the best-approximation quantities.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule, gauss_rule
from .regularized_fit import (_blocked_values, _check_grid, _check_samples, _values,
                              check_lambda, continuum_limit_fit, evaluate, fit,
                              lebesgue_constant)
from .signals import NoiseSpec, add_noise

__all__ = [
    "ErrorReport",
    "BoundCheck",
    "Surrogates",
    "SweepResult",
    "LAMBDA_STAR",
    "default_lambda_grid",
    "default_uniform_grid",
    "default_l2_rule",
    "uniform_error",
    "l2_error",
    "lambda_sweep",
    "truncation_surrogates",
    "bound_check_stability",
    "bound_check_l2_noise",
    "bound_check_uniform_noise",
]

# 10^(-0.7), the sweet spot the 5 dB sweeps keep landing on
LAMBDA_STAR = 10.0**-0.7


def default_lambda_grid() -> np.ndarray:
    """The 21-point grid 10^-2, 10^-1.9, ..., 10^-0.1, 1."""
    return 10.0 ** (np.arange(-20, 1) / 10.0)


def default_uniform_grid(equispaced: int = 10001, chebyshev: int = 2001) -> np.ndarray:
    """Equispaced plus Chebyshev-distributed points on [-1, 1], merged sorted."""
    eq = np.linspace(-1.0, 1.0, equispaced)
    ch = np.cos(np.linspace(np.pi, 0.0, chebyshev))
    return np.union1d(eq, ch)


def default_l2_rule(rule: QuadratureRule, L: int):
    """Rule for the discrete L2 error: the fitting rule itself when it has 100
    points or more, else a fresh one with max(N+1, 2L+2) points, so that
    (f - p)^2 is integrated exactly whenever f is a polynomial of degree <= L."""
    if len(rule) >= 100:
        return rule
    points = max(len(rule), 2 * L + 2)
    if points == len(rule):
        return rule
    return gauss_rule(rule.spec, points)


REPORT_COLUMNS = ("spec", "L", "N", "lambda", "seed", "snr_db",
                  "uniform_error", "l2_error")


@dataclass(frozen=True)
class ErrorReport:
    """The two errors of one (L, N, lambda) fit, with the noise it was drawn
    from; the fields are the columns of REPORT_COLUMNS in order."""

    spec_name: str
    L: int
    N: int
    lam: float
    seed: int | None
    snr_db: float | None
    uniform_error: float
    l2_error: float

    def __post_init__(self):
        if not (self.uniform_error >= 0.0) or not (self.l2_error >= 0.0):
            raise ValueError(f"errors must be >= 0, got {self.uniform_error, self.l2_error}")


def uniform_error(f, approx, grid) -> float:
    """max |f(x) - approx(x)| over the grid."""
    grid = _check_grid(grid)
    return float(np.max(np.abs(np.asarray(f(grid)) - np.asarray(approx(grid)))))


def l2_error(f, approx, rule: QuadratureRule) -> float:
    """sqrt(sum_j w_j (f(x_j) - approx(x_j))^2) at the rule's nodes."""
    r = np.asarray(f(rule.nodes)) - np.asarray(approx(rule.nodes))
    return math.sqrt(float(np.sum(rule.weights * r * r)))


def _max_errors(f, p, lambdas) -> np.ndarray:
    """max |f - p / (1 + lambda)| over the last axis, one column per lambda:
    shape p.shape[:-1] + (len(lambdas),).  np.max passes NaN through."""
    return np.stack([np.max(np.abs(f - p / (1.0 + lam)), axis=-1) for lam in lambdas],
                    axis=-1)


def _reports(rule: QuadratureRule, L: int, lambdas, noise: NoiseSpec | None,
             uniform, l2_rule: QuadratureRule, f_l2, p_l2) -> list:
    """An ErrorReport per lambda for p, the lambda = 0 output of degree L on
    rule: uniform holds its uniform error at each lambda, and p_l2 its values
    at the L2 rule's nodes; the output at lambda is p / (1 + lambda).  Seed
    and snr_db come from noise, None without it."""
    seed = None if noise is None else noise.seed
    snr_db = None if noise is None else noise.snr_db
    out = []
    for lam, err_u in zip(lambdas, uniform):
        resid = f_l2 - p_l2 / (1.0 + lam)
        err_2 = math.sqrt(float(np.sum(l2_rule.weights * resid * resid)))
        out.append(ErrorReport(rule.spec.name, L, rule.degree, lam, seed, snr_db,
                               float(err_u), err_2))
    return out


def _fit_cells(f, f_grid, cells, lambdas, grid) -> list:
    """The ErrorReports of f on every cell, in the order of cells and then
    of lambdas: one table.

    A cell is (rule, L, l2_rule, noise), and all cells share one basis;
    f_grid is f on the 1-d grid.  The samples of f at each cell's nodes,
    noisy if noise is given, are fitted once at lambda = 0 by fit, and the
    coefficient vectors become the zero-padded columns of one matrix.  One
    blocked GEMM pass over the grid (regularized_fit._blocked_values) gives
    every column's uniform error at every lambda, reduced block by block
    with np.maximum, which passes NaN through; the columns that share an L2
    rule get their values at its nodes from one more call.  The output at
    lambda is the lambda = 0 output times 1/(1+lambda).  The values' last
    bits depend on the BLAS kernel and on the number of columns.
    """
    columns, f_l2 = [], []
    f_at = {}  # f at the nodes of each rule, by id
    for rule, L, l2_rule, noise in cells:
        for r in (rule, l2_rule):
            if id(r) not in f_at:
                f_at[id(r)] = np.asarray(f(r.nodes), dtype=float)
        f_nodes = f_at[id(rule)]
        samples = f_nodes if noise is None else add_noise(f_nodes, noise)
        columns.append(fit(rule, L, 0.0, samples).coefficients)
        f_l2.append(f_at[id(l2_rule)])
    spec = cells[0][0].spec
    coefficients = np.zeros((max(c.size for c in columns), len(columns)))
    for c, beta in enumerate(columns):
        coefficients[:beta.size, c] = beta
    uniform = np.zeros((len(columns), len(lambdas)))
    for start, values in _blocked_values(spec, coefficients, grid):
        block = _max_errors(f_grid[start:start + values.shape[1]], values, lambdas)
        np.maximum(uniform, block, out=uniform)
    shared = {}  # column indices by L2 rule
    for c, cell in enumerate(cells):
        shared.setdefault(id(cell[2]), []).append(c)
    p_l2 = [None] * len(columns)
    for cols in shared.values():
        depth = max(columns[c].size for c in cols)
        values = _values(spec, coefficients[:depth, cols], cells[cols[0]][2].nodes)
        for c, row in zip(cols, values):
            p_l2[c] = row
    reports = []
    for (rule, L, l2_rule, noise), err_u, f_c, p_c in zip(cells, uniform, f_l2, p_l2):
        reports += _reports(rule, L, lambdas, noise, err_u, l2_rule, f_c, p_c)
    return reports


@dataclass(frozen=True)
class SweepResult:
    reports: tuple
    best_lambda: dict

    def __iter__(self):
        return iter(self.reports)

    def __len__(self):
        return len(self.reports)


def lambda_sweep(
    rule: QuadratureRule,
    L: int,
    f,
    lambdas,
    noise: NoiseSpec | None = None,
    grid=None,
) -> SweepResult:
    """Measure both errors, against the clean f, of the fit at every lambda
    to a single shared noise draw.  The samples are fitted once, at lambda =
    0, and evaluated by one blocked GEMM pass over the grid and one call at
    the L2 rule's nodes (_fit_cells, through regularized_fit._blocked_values),
    so the last bits depend on the BLAS kernel and reruns on one machine are
    bitwise equal.  The fit at lambda is that output times 1/(1+lambda).
    best_lambda holds, under each metric, the lambda of the first report at
    which that error is least."""
    lambdas = [float(v) for v in np.atleast_1d(lambdas)]
    if not lambdas:
        raise ValueError("need at least one lambda")
    for lam in lambdas:
        check_lambda(lam)
    grid = default_uniform_grid() if grid is None else _check_grid(grid)
    reports = _fit_cells(f, np.asarray(f(grid), dtype=float),
                         [(rule, L, default_l2_rule(rule, L), noise)], lambdas, grid)
    best = {metric: reports[int(np.argmin([getattr(r, metric) for r in reports]))].lam
            for metric in ("uniform_error", "l2_error")}
    return SweepResult(reports=tuple(reports), best_lambda=best)


@dataclass(frozen=True)
class Surrogates:
    """Computable stand-ins for the best-approximation quantities.

    e_uniform bounds the degree-L best uniform error from above; p_star_l2
    and p_star_inf bound the norms of a near-best polynomial.  All three are
    the corresponding quantities of the continuum-limit truncation of f,
    inflated by a safety factor of 4, which keeps every bound check on the
    guaranteed side for the functions and degrees exercised here.
    """

    e_uniform: float
    p_star_l2: float
    p_star_inf: float


def truncation_surrogates(spec, L: int, f, grid=None) -> Surrogates:
    """Surrogates from the lambda=0 continuum-limit truncation of degree L,
    each times the safety factor 4.

    The grid should contain every point later used on the left side of a
    bound check (including the fitting nodes) so the maxima dominate.
    """
    grid = default_uniform_grid() if grid is None else _check_grid(grid)
    trunc = continuum_limit_fit(spec, L, 0.0, f)
    f_grid = np.asarray(f(grid), dtype=float)
    t_grid = evaluate(trunc, grid)
    return Surrogates(
        e_uniform=4.0 * float(np.max(np.abs(f_grid - t_grid))),
        p_star_l2=4.0 * trunc.l2_norm,
        p_star_inf=4.0 * float(np.max(np.abs(t_grid))),
    )


@dataclass(frozen=True)
class BoundCheck:
    passed: bool
    slack: float
    lhs: float
    rhs: float


_SLACK_TOL = -1e-9


def bound_check_stability(approx, samples) -> BoundCheck:
    """L2 norm of the fit against sqrt(V) max|samples| / (1 + lambda).

    ValueError unless the samples are finite and at least degree + 1 of
    them, as many as the smallest rule a fit of that degree takes."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < approx.degree + 1:
        raise ValueError(
            f"need one sample per node of the fitted rule, at least degree + 1 "
            f"= {approx.degree + 1}; got shape {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    lhs = approx.l2_norm
    rhs = math.sqrt(approx.spec.mass) * float(np.max(np.abs(samples))) / (1.0 + approx.lam)
    slack = rhs - lhs
    return BoundCheck(slack >= _SLACK_TOL, slack, lhs, rhs)


def _noise_sup(f, noisy_samples, rule: QuadratureRule) -> float:
    """max_j |f(x_j) - noisy_j| over the rule's nodes; ValueError unless the
    samples are finite and one per node."""
    noisy_samples = _check_samples(rule, noisy_samples)
    return float(np.max(np.abs(np.asarray(f(rule.nodes)) - noisy_samples)))


def bound_check_l2_noise(
    f, noisy_samples, approx, rule: QuadratureRule, e_surrogate: float, p_norm: float,
) -> BoundCheck:
    """L2 error of the fit from noisy data against
    sqrt(V)/(1+lam) * sup-noise + (1 + 1/(1+lam)) E + lam/(1+lam) ||p*||,
    with lam the approximant's and E and ||p*|| replaced by their surrogates."""
    lam = approx.lam
    noise_sup = _noise_sup(f, noisy_samples, rule)
    lhs = l2_error(f, approx, rule)
    rhs = (
        math.sqrt(rule.mass) / (1.0 + lam) * noise_sup
        + (1.0 + 1.0 / (1.0 + lam)) * e_surrogate
        + lam / (1.0 + lam) * p_norm
    )
    slack = rhs - lhs
    return BoundCheck(slack >= _SLACK_TOL, slack, lhs, rhs)


def bound_check_uniform_noise(
    f, noisy_samples, approx, rule: QuadratureRule, e_surrogate: float,
    p_norm_inf: float, grid=None, lebesgue: float | None = None,
) -> BoundCheck:
    """Uniform error of the fit from noisy data against
    Lam * sup-noise + (1 + Lam) E + lam/(1+lam) ||p*||_inf, Lam the Lebesgue
    constant at the same lambda.  Passing clean samples gives the noise-free
    version of the bound.  The grid defaults to the dense uniform-error grid joined
    with the rule's nodes, and the Lebesgue constant is taken over that same
    grid so the pointwise chain behind the bound holds exactly as measured.
    """
    if grid is None:
        grid = np.union1d(default_uniform_grid(), rule.nodes)
    else:
        grid = np.asarray(grid, dtype=float)
    lam = approx.lam
    noise_sup = _noise_sup(f, noisy_samples, rule)
    if lebesgue is None:
        lebesgue = lebesgue_constant(rule, approx.degree, lam, grid=grid)
    lhs = uniform_error(f, approx, grid)
    rhs = (
        lebesgue * noise_sup
        + (1.0 + lebesgue) * e_surrogate
        + lam / (1.0 + lam) * p_norm_inf
    )
    slack = rhs - lhs
    return BoundCheck(slack >= _SLACK_TOL, slack, lhs, rhs)
