"""Regularized least-squares fitting in Gauss points.

The objective  sum_j w_j (p(x_j) - f_j)^2 + lambda sum_l beta_l^2  over
polynomials p of degree L has a closed-form minimizer when the x_j are Gauss
nodes: the design matrix satisfies A'WA = I, so

    beta_l = (1/(1+lambda)) sum_j w_j p_l(x_j) f_j.

lambda = 0 recovers the plain discrete least-squares projection, which is
interpolation when L = N.  Fitting never solves a linear system.

Every lambda-dependent output is its lambda = 0 value times 1/(1+lambda):
fit, evaluate and lebesgue_constant each compute the lambda = 0 value and
divide by (1 + lambda) last.  evaluate and lebesgue_constant keep theirs in
an LRU cache per input; fit keeps nothing, and its approximant carries the
lambda = 0 sums, so evaluate at any lambda reuses the values at lambda = 0.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .barycentric import _kernel_lebesgue_function, _lebesgue_function, check_lambda
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


# basis rows per GEMM of _blocked_values, and the doubles one of its row
# blocks may hold, values and chunk together.  For one vector at L = 800 on
# the 12.8k-point bounds grid, on a 2-core Xeon VM, best of 5: 33 ms, where
# the former row-by-row sum took 44 ms and a (L+1)-row basis table blocked
# by grid rows at 2^17 entries took 450 ms, its blocks being 163 points
# wide.  2^18 keeps that grid in one block for k = 1
_DEGREE_CHUNK = 16
_BLOCK_ENTRIES = 2**18

# lambda = 0 grid maxima of lebesgue_constant, in an LRU cache of this many
# entries.  Keys hold the bytes of every input array, never an id: ids are
# reused after garbage collection, and arrays are mutable.  For the bound
# checks at N <= 800 on the 12.8k-point bounds grid, the keys hold at most
# 0.51 MiB of input bytes
_LAMBDA_FREE_ENTRIES = 16

# lambda = 0 values of evaluate, in an LRU cache of their own.  The bound
# checks of one rule evaluate seven (vector, points) pairs at lambda = 0 and
# again at lambda > 0: the clean fit on the grid, and three noisy fits on the
# grid and at the nodes.  On the 12.8k-point bounds grid at N <= 800 a grid
# entry holds 0.2 MiB, key and values, so the cache holds at most 1.4 MiB;
# in the bound checks' loop at most four of its entries are grid entries,
# 0.8 MiB
_EVALUATE_ENTRIES = 7


def _check_degree(L, N: int) -> None:
    """Raise ValueError unless the degree L is an integer, not a bool, in 0..N."""
    if isinstance(L, bool) or not isinstance(L, numbers.Integral) or not 0 <= L <= N:
        raise ValueError(f"degree L must be an integer in 0..N = 0..{N}, got {L!r}")


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
    """Coefficient vector beta against the orthonormal basis of spec.

    It also carries the lambda-free coefficients, beta times (1 + lambda),
    and evaluate computes the values at lambda as their lambda = 0 values
    divided by (1 + lambda).  fit attaches its exact lambda = 0 sums; a
    directly constructed approximant gets coefficients * (1 + lambda), which
    is exact at lambda = 0, so evaluate sees the coefficients as they were
    at construction.  Raises ValueError for a degree that is not an integer
    >= 0, a coefficient vector not of length degree + 1 or not finite, also
    times 1 + lambda, and a negative or non-finite lambda.
    """

    spec: BasisSpec
    degree: int
    lam: float
    coefficients: np.ndarray

    def __post_init__(self):
        check_lambda(self.lam)
        if (isinstance(self.degree, bool) or not isinstance(self.degree, numbers.Integral)
                or self.degree < 0):
            raise ValueError(f"degree must be an integer >= 0, got {self.degree!r}")
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != (self.degree + 1,):
            raise ValueError("coefficient vector must have length degree + 1")
        with np.errstate(over="ignore"):
            lambda_free = coeffs * (1.0 + self.lam)
        # finite times (1 + lambda) implies finite, NaN staying NaN
        if not np.all(np.isfinite(lambda_free)):
            raise ValueError("coefficients must be finite, also times 1 + lambda")
        object.__setattr__(self, "coefficients", coeffs)
        lambda_free.setflags(write=False)
        object.__setattr__(self, "_lambda_free", lambda_free)

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

    The sums do not depend on lambda, and every call computes them afresh
    and divides them by (1 + lambda) last, into a new array.  The
    approximant carries the sums themselves, read-only, as its lambda-free
    coefficients, so evaluate at any lambda reuses its values at lambda = 0.
    """
    _check_degree(L, rule.degree)
    check_lambda(lam)
    samples = _check_samples(rule, samples)
    wf = rule.weights * samples
    sums = np.array([wf @ p for p in _orthonormal_rows(rule.spec, L, rule.nodes)])
    sums.setflags(write=False)
    approx = RegularizedApproximant(spec=rule.spec, degree=L, lam=lam,
                                    coefficients=sums / (1.0 + lam))
    object.__setattr__(approx, "_lambda_free", sums)
    return approx


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


@functools.lru_cache(maxsize=_EVALUATE_ENTRIES)
def _lambda_free_values(spec: BasisSpec, coefficients: bytes, x: bytes) -> np.ndarray:
    """The lambda = 0 values sum_l beta_l p_l(x), read-only, from the bytes
    of the lambda-free coefficients and of the 1-d x."""
    values = _values(spec, np.frombuffer(coefficients)[:, None], np.frombuffer(x))[0]
    values.setflags(write=False)
    return values


def evaluate(approx: RegularizedApproximant, x):
    """Evaluate sum_l beta_l p_l(x) as the lambda = 0 values of the
    approximant's lambda-free coefficients divided by (1 + lambda), as
    metrics._fit_cells does; the one-column case of _blocked_values.

    Degree rows are folded in by chunks of _DEGREE_CHUNK with one BLAS
    product each, in blocks of at most _BLOCK_ENTRIES // (1 + _DEGREE_CHUNK)
    points, so the last bits depend on the BLAS kernel; reruns on one
    machine are bitwise equal.  The lambda = 0 values do not depend on
    lambda: an LRU cache keeps the 7 most recently used, at most 1.4 MiB
    on the 12.8k-point bound-check grid, keyed by the spec and the bytes of
    the lambda-free coefficients and of the raveled x, and is thread-safe.
    Every call divides by (1 + lambda) last, into a new array, so a cached
    result has the bits of a fresh computation.  x may have any shape; a
    scalar gives a float.
    """
    x = np.asarray(x, dtype=float)
    values = _lambda_free_values(approx.spec, approx._lambda_free.tobytes(),
                                 x.ravel().tobytes()) / (1.0 + approx.lam)
    return float(values[0]) if x.ndim == 0 else values.reshape(x.shape)


def gram_matrix_residual(rule: QuadratureRule, L: int) -> float:
    """Max-norm of A'WA - I, the discrete orthonormality defect."""
    _check_degree(L, rule.degree)
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


@functools.lru_cache(maxsize=_LAMBDA_FREE_ENTRIES)
def _lebesgue_peak(spec: BasisSpec, L: int, nodes: bytes, weights: bytes,
                   grid: bytes) -> float:
    """Grid maximum of the lambda = 0 Lebesgue function of lebesgue_constant,
    from the bytes of the nodes, the weights and the grid.  At L = N it skips
    the nodes, where the function is 1, its minimum; at L < N it is the
    maximum of barycentric._kernel_lebesgue_function."""
    rule = QuadratureRule(spec, np.frombuffer(nodes), np.frombuffer(weights))
    grid = np.frombuffer(grid)
    if L == rule.degree:
        off_node = np.setdiff1d(grid, rule.nodes)
        return float(np.max(_lebesgue_function(rule, off_node), initial=1.0))
    return float(np.max(_kernel_lebesgue_function(rule, L, grid)))


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
      (barycentric._lebesgue_function), O(G N) for G grid points.  No term
      cancels, and the maximum skips the nodes, where the function is 1.
    - L < N: the Christoffel-Darboux form, a rank-2 numerator over the
      same Cauchy table, O(G N) (barycentric._kernel_lebesgue_function).
      Near a node or +-1, where its numerator would lose too much, a row
      takes the kernel product sum_l p_l(x) p_l(x_j) instead, O(L N) a
      row, one ddot an entry.  At (L, N) = (200, 400) on the 12.4k-point
      bounds grid, 1224 rows take it, and the call traces 2.3 MiB where
      the kernel product on every row, in GEMM blocks of 4 MiB, traced
      10.7 MiB.

    The constant is the grid maximum divided by (1+lambda).  The maximum
    does not depend on lambda: an LRU cache of its own keeps the 16 most
    recently used, keyed by the spec, L and the bytes of the nodes, the
    weights and the validated grid, and is thread-safe.  The division
    happens last, on every call, so a cached maximum gives the bits of a
    fresh computation.  Inputs are validated on every call.  Raises
    ValueError for L not an integer in 0..N, a negative or non-finite
    lambda, an empty grid, or grid entries that are not finite or lie
    outside [-1, 1].
    """
    _check_degree(L, rule.degree)
    check_lambda(lam)
    grid = _check_grid(default_lebesgue_grid(rule) if grid is None else grid)
    if np.any(np.abs(grid) > 1.0):
        raise ValueError("grid entries must lie in [-1, 1]")
    return _lebesgue_peak(rule.spec, L, rule.nodes.tobytes(), rule.weights.tobytes(),
                          grid.tobytes()) / (1.0 + lam)
