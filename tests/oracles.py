"""Independent reference computations the tests compare the package against.

None of these is on a path the package runs: the dense normal-equations
solve cross-checks the closed-form fit, the degree-by-degree sum cross-checks
the blocked GEMM values of evaluate, the Christoffel-Darboux kernel in
direct and quotient form cross-checks the basis recurrence, and the 50-digit
quotient form cross-checks the barycentric kernel.
"""

import math

import mpmath
import numpy as np
import scipy.linalg

from tikbary.basis import eval_orthonormal, recurrence_coefficients


def normal_equations_oracle(rule, L: int, lam: float, samples) -> np.ndarray:
    """Dense route: build A and W, solve (A'WA + lambda I) beta = A'W f.

    Cholesky on the (L+1) x (L+1) system.
    """
    if L > rule.degree:
        raise ValueError("degree L exceeds rule degree N")
    samples = np.asarray(samples, dtype=float)
    A = eval_orthonormal(rule.spec, L, rule.nodes).T
    M = A.T @ (rule.weights[:, None] * A) + lam * np.eye(L + 1)
    rhs = A.T @ (rule.weights * samples)
    factor = scipy.linalg.cho_factor(M)
    return scipy.linalg.cho_solve(factor, rhs)


def per_column_values_oracle(spec, coefficients, x) -> np.ndarray:
    """The (k, |x|) values at the 1-d x of the columns of the (L+1, k)
    coefficient matrix, degree by degree: every column adds beta_l p_l(x) to
    its sum one basis row at a time, the loop evaluate ran per vector before
    its sums became blocked GEMMs."""
    coefficients = np.asarray(coefficients, dtype=float)
    rows = eval_orthonormal(spec, coefficients.shape[0] - 1, x)
    acc = coefficients[0][:, None] * rows[0]
    for beta, p in zip(coefficients[1:], rows[1:]):
        acc += beta[:, None] * p
    return acc


def norm_ratio(spec, n: int) -> float:
    """Leading-coefficient ratio ||P_{n+1}|| / ||P_n|| = sqrt(b_{n+1})."""
    table = recurrence_coefficients(spec, n + 2)
    return math.sqrt(table.b[n + 1])


def cd_kernel(spec, L: int, x, y) -> np.ndarray:
    """Reproducing kernel K_L(x,y) = sum_{l<=L} p_l(x) p_l(y), direct summation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.sum(eval_orthonormal(spec, L, x) * eval_orthonormal(spec, L, y), axis=0)


def cd_kernel_quotient(spec, L: int, x, y) -> np.ndarray:
    """K_L(x,y) in quotient form; ill-conditioned as x -> y, exact elsewhere.

    K_L(x,y) = sqrt(b_{L+1}) (p_{L+1}(x) p_L(y) - p_L(x) p_{L+1}(y)) / (x - y).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    px = eval_orthonormal(spec, L + 1, x)
    py = eval_orthonormal(spec, L + 1, y)
    num = px[L + 1] * py[L] - px[L] * py[L + 1]
    return norm_ratio(spec, L) * num / (x - y)


def quotient_form_oracle(nodes, weights, values, x, dps: int = 50) -> np.ndarray:
    """sum_j W_j f_j/(x - x_j) / sum_j W_j/(x - x_j) at dps significant digits.

    The float nodes, weights, (N+1, k) values and points are taken as exact,
    so the result isolates the rounding of a float evaluation of the same
    data.  A point equal to a node gives that node's samples.  Returns the
    (|x|, k) values rounded to doubles.
    """
    values = np.asarray(values, dtype=float).reshape(len(nodes), -1)
    out = np.empty((len(x), values.shape[1]))
    with mpmath.workdps(dps):
        xs = [mpmath.mpf(float(v)) for v in nodes]
        ws = [mpmath.mpf(float(v)) for v in weights]
        columns = [[mpmath.mpf(float(v)) for v in col] for col in values.T]
        for i, point in enumerate(x):
            t = mpmath.mpf(float(point))
            if t in xs:
                out[i] = values[xs.index(t)]
                continue
            cauchy = [w / (t - x_j) for w, x_j in zip(ws, xs)]
            denominator = mpmath.fsum(cauchy)
            out[i] = [float(mpmath.fdot(cauchy, f) / denominator) for f in columns]
    return out
