"""Regularized least-squares fitting in Gauss points.

The objective  sum_j w_j (p(x_j) - f_j)^2 + lambda sum_l beta_l^2  over
polynomials p of degree L has a closed-form minimizer when the x_j are Gauss
nodes: the design matrix satisfies A'WA = I, so

    beta_l = (1/(1+lambda)) sum_j w_j p_l(x_j) f_j.

lambda = 0 recovers the plain discrete least-squares projection, which is
interpolation when L = N.  Fitting never solves a linear system.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, _orthonormal_rows, eval_orthonormal
from .quadrature import QuadratureRule, gauss_rule

__all__ = [
    "check_lambda",
    "RegularizedApproximant",
    "fit",
    "evaluate",
    "gram_matrix_residual",
    "continuum_limit_fit",
    "lebesgue_constant",
    "default_lebesgue_grid",
]


# kernel-table entries per grid block of lebesgue_constant at L < N: 4 MiB
# of doubles.  Smaller blocks pay the basis recurrence's per-block Python
# overhead more often: at (L, N) = (200, 400) on the 12.8k-point bounds grid,
# on a 2-core Xeon VM, 512 / 1024 / 2048 / 4096 rows took 104 / 87 / 75 /
# 72 ms with traced peaks of 4.5 / 8.5 / 16.3 / 32.0 MiB, all to the same bits
_KERNEL_BLOCK_ENTRIES = 524288

# basis rows per GEMM of _blocked_values, and the doubles one of its row
# blocks may hold, values and chunk together.  For one vector at L = 800 on
# the 12.8k-point bounds grid, on a 2-core Xeon VM, best of 5: 33 ms, where
# the former row-by-row sum took 44 ms and a (L+1)-row basis table blocked
# by grid rows at 2^17 entries took 450 ms, its blocks being 163 points
# wide.  2^18 keeps that grid in one block for k = 1
_DEGREE_CHUNK = 16
_BLOCK_ENTRIES = 2**18


def check_lambda(lam) -> None:
    """Raise ValueError unless lam is a finite number >= 0.

    A NaN passes a plain lam < 0 test and would flow through every division
    by 1 + lambda, so finiteness is checked explicitly.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")


def _check_grid(grid) -> np.ndarray:
    """grid as a 1-d float array; ValueError if it is empty or not finite."""
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid entries must be finite")
    return grid


@dataclass(frozen=True, eq=False)
class RegularizedApproximant:
    """Coefficient vector beta against the orthonormal basis of spec."""

    spec: BasisSpec
    degree: int
    lam: float
    coefficients: np.ndarray

    def __post_init__(self):
        check_lambda(self.lam)
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != (self.degree + 1,):
            raise ValueError("coefficient vector must have length degree + 1")
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x):
        return evaluate(self, x)

    @property
    def l2_norm(self) -> float:
        """Exact L2 norm of the polynomial: sqrt of the coefficient sum of squares."""
        return float(np.sqrt(np.sum(self.coefficients**2)))


def _check_samples(rule: QuadratureRule, samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.shape != rule.nodes.shape:
        raise ValueError(
            f"sample vector length {samples.size} does not match rule size {len(rule)}"
        )
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    return samples


def fit(rule: QuadratureRule, L: int, lam: float, samples) -> RegularizedApproximant:
    """Closed-form coefficients from weighted sums against the basis.

    One recurrence sweep over the basis degree; per degree the weighted
    samples are folded in, so nothing of size (N+1) x (L+1) is stored.
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    if L > rule.degree:
        raise ValueError(
            f"degree L={L} exceeds rule degree N={rule.degree}; "
            "the quadrature identity needs L <= N"
        )
    check_lambda(lam)
    samples = _check_samples(rule, samples)
    wf = rule.weights * samples
    beta = np.array([wf @ p for p in _orthonormal_rows(rule.spec, L, rule.nodes)])
    beta /= 1.0 + lam
    return RegularizedApproximant(spec=rule.spec, degree=L, lam=lam, coefficients=beta)


def _blocked_values(spec: BasisSpec, coefficients: np.ndarray, x: np.ndarray):
    """Yield (start, values) for consecutive row blocks of the 1-d x: values
    is the (k, rows) array of the k polynomials whose coefficients against
    the basis of spec are the columns of the (L+1, k) matrix, at
    x[start:start + rows].  Columns of lower degree are zero-padded.

    Inside a block the recurrence fills a chunk of _DEGREE_CHUNK basis rows
    in place, and each full chunk, and the last partial one, is folded in
    with one GEMM, values += coefficients[l0:l1].T @ chunk.  A block has
    _BLOCK_ENTRIES // (k + _DEGREE_CHUNK) rows, so its values and its chunk
    together hold at most _BLOCK_ENTRIES doubles, and nothing of size
    |x| x k or |x| x (L+1) is built.  Both constants are fixed, so reruns
    are bitwise equal; the last bits depend on the BLAS that NumPy is
    linked against, and on k, through the block's row count.  An empty x
    still yields one empty block.
    """
    L, k = coefficients.shape[0] - 1, coefficients.shape[1]
    rows = max(1, _BLOCK_ENTRIES // (k + _DEGREE_CHUNK))
    for start in range(0, max(x.size, 1), rows):
        block = x[start:start + rows]
        chunk = np.empty((min(_DEGREE_CHUNK, L + 1), block.size))
        values = np.zeros((k, block.size))
        for l, _ in enumerate(_orthonormal_rows(spec, L, block, out=chunk)):
            i = l % _DEGREE_CHUNK
            if i == _DEGREE_CHUNK - 1 or l == L:
                values += coefficients[l - i:l + 1].T @ chunk[:i + 1]
        yield start, values


def _values(spec: BasisSpec, coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every block of _blocked_values at once: the (k, |x|) values at the 1-d x."""
    blocks = [values for _, values in _blocked_values(spec, coefficients, x)]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def evaluate(approx: RegularizedApproximant, x):
    """Evaluate sum_l beta_l p_l(x): the one-column case of _blocked_values.

    Degree rows are folded in by chunks of _DEGREE_CHUNK with one BLAS
    product each, in blocks of at most _BLOCK_ENTRIES // (1 + _DEGREE_CHUNK)
    points, so the last bits depend on the BLAS kernel; reruns on one
    machine are bitwise equal.  x may have any shape; a scalar gives a float.
    """
    x = np.asarray(x, dtype=float)
    values = _values(approx.spec, approx.coefficients[:, None], x.ravel())[0]
    return float(values[0]) if x.ndim == 0 else values.reshape(x.shape)


def gram_matrix_residual(rule: QuadratureRule, L: int) -> float:
    """Max-norm of A'WA - I, the discrete orthonormality defect."""
    if L > rule.degree:
        raise ValueError("degree L exceeds rule degree N")
    A = eval_orthonormal(rule.spec, L, rule.nodes).T
    G = A.T @ (rule.weights[:, None] * A)
    return float(np.max(np.abs(G - np.eye(L + 1))))


def continuum_limit_fit(spec: BasisSpec, L: int, lam: float, f) -> RegularizedApproximant:
    """Limit approximant with coefficients from near-exact integrals.

    Integrals int w p_l f are evaluated with a Gauss rule of 4L+16 points,
    far past the exactness needed for smooth f, then shrunk by 1/(1+lambda).
    Demonstrates that fits converge to this limit as the node count grows.
    """
    rule = gauss_rule(spec, 4 * L + 16)
    return fit(rule, L, lam, f(rule.nodes))


def default_lebesgue_grid(rule: QuadratureRule) -> np.ndarray:
    """2001 Chebyshev-spaced scan points plus the rule's own nodes."""
    scan = np.cos(np.linspace(0.0, math.pi, 2001))
    return np.union1d(scan, rule.nodes)


def lebesgue_constant(
    rule: QuadratureRule, L: int, lam: float, grid=None
) -> float:
    """Operator sup-norm restricted to a grid.

    At each grid point x the operator's pointwise norm is the Lebesgue
    function sum_j w_j |K_L(x, x_j)|, with K_L the reproducing kernel of
    degree L.  Two formulas compute it, chosen by L:

    - L = N, interpolation: the kernel terms are the Lagrange polynomials,
      and the function is sum_j |l_j(x)| in first-kind barycentric form,
      |l(x)| sum_j |W_j|/|x - x_j| with the explicit Gauss-Jacobi weights
      (barycentric._lebesgue_function).  O(G N) for G grid points, and no
      term cancels.
    - L < N: the kernel product, the G x (L+1) basis table times the
      (L+1) x (N+1) table at the nodes, O(G L N), in grid blocks of about
      _KERNEL_BLOCK_ENTRIES kernel entries.

    The constant is the grid maximum divided by (1+lambda).  The division
    happens exactly once, last, so constants for different lambda on the
    same grid satisfy the scaling law to rounding.  Raises ValueError for
    L outside 0..N, a negative or non-finite lambda, an empty grid, or grid
    entries that are not finite or lie outside [-1, 1].
    """
    # barycentric imports check_lambda from this module, so it is loaded here
    from .barycentric import _lebesgue_function

    if not 0 <= L <= rule.degree:
        raise ValueError(f"degree L must lie in 0..N = 0..{rule.degree}, got {L}")
    check_lambda(lam)
    grid = _check_grid(default_lebesgue_grid(rule) if grid is None else grid)
    if np.any(np.abs(grid) > 1.0):
        raise ValueError("grid entries must lie in [-1, 1]")
    if L == rule.degree:
        return float(np.max(_lebesgue_function(rule, grid))) / (1.0 + lam)
    node_vals = eval_orthonormal(rule.spec, L, rule.nodes)  # (L+1, N+1)
    step = max(1, _KERNEL_BLOCK_ENTRIES // len(rule))
    peak = 0.0
    for start in range(0, grid.size, step):
        kernel = eval_orthonormal(rule.spec, L, grid[start : start + step]).T @ node_vals
        lebesgue_fn = np.abs(kernel, out=kernel) @ rule.weights
        peak = max(peak, float(np.max(lebesgue_fn)))
    return peak / (1.0 + lam)
