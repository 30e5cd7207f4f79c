"""Independent reference computations the tests compare the package against.

None of these is on a path the package runs: the dense normal-equations
solve cross-checks the closed-form fit, the degree-by-degree sum cross-checks
the blocked GEMM values of evaluate, the Christoffel-Darboux kernel in
direct and quotient form cross-checks the basis recurrence, the 50-digit
quotient and first-kind forms cross-check the barycentric kernels, and the
50-digit quadrature sums cross-check exactness_residual.
"""

import decimal
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


def first_kind_oracle(nodes, weights, values, x, dps: int = 50) -> np.ndarray:
    """l(x) sum_j V_j f_j/(x - x_j) at dps significant digits.

    l(x) = prod_j (x - x_j), and V_j are the weights carried to the
    product-formula scale by one factor: at the index k of the largest
    |W_j|, V_k = 1/prod_{j != k}(x_k - x_j).  That is the interpolant
    interp_modified_lagrange evaluates, with the float nodes, weights,
    (N+1, k) values and points taken as exact, so the result isolates the
    rounding of a float evaluation of the same data.  A point equal to a
    node gives that node's samples.  Returns the (|x|, k) values rounded to
    doubles.
    """
    values = np.asarray(values, dtype=float).reshape(len(nodes), -1)
    out = np.empty((len(x), values.shape[1]))
    with mpmath.workdps(dps):
        xs = [mpmath.mpf(float(v)) for v in nodes]
        k = int(np.argmax(np.abs(weights)))
        anchor = 1 / mpmath.fprod(xs[k] - x_j for j, x_j in enumerate(xs) if j != k)
        anchor /= mpmath.mpf(float(weights[k]))
        ws = [anchor * mpmath.mpf(float(v)) for v in weights]
        columns = [[mpmath.mpf(float(v)) for v in col] for col in values.T]
        for i, point in enumerate(x):
            t = mpmath.mpf(float(point))
            if t in xs:
                out[i] = values[xs.index(t)]
                continue
            node_poly = mpmath.fprod(t - x_j for x_j in xs)
            terms = [w / (t - x_j) for w, x_j in zip(ws, xs)]
            out[i] = [float(node_poly * mpmath.fdot(terms, f)) for f in columns]
    return out


def quadrature_sums_oracle(rule, l_max: int, digits: int = 50):
    """(defects, scales) at digits significant digits, for l = 0..l_max.

    defects[l] = sum_j w_j p_l(x_j) - sqrt(V) delta_{l0} and scales[l] =
    sum_j w_j |p_l(x_j)|, on the rule's float nodes and weights taken as
    exact, so the defects are those of the float rule itself and a float
    evaluation of the same sums differs from them by its own rounding.  The
    recurrence coefficients come afresh from their closed forms at that
    precision, the mass from mpmath's beta function.  decimal's C arithmetic
    runs the recurrence one degree at a time over object arrays of all the
    nodes.  Both arrays are returned rounded to doubles.
    """
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=digits)):
        al, be = D(float(rule.spec.jacobi_a)), D(float(rule.spec.jacobi_b))
        with mpmath.workdps(digits + 10):
            a_mp, b_mp = mpmath.mpf(rule.spec.jacobi_a), mpmath.mpf(rule.spec.jacobi_b)
            mass = 2 ** (a_mp + b_mp + 1) * mpmath.beta(a_mp + 1, b_mp + 1)
            mass = +D(mpmath.nstr(mass, digits + 10))
        # monic coefficients a_k and sqrt(b_k), b_0 = V, as in Gautschi (2004)
        a = [(be - al) / (al + be + 2)]
        root_b = [mass.sqrt(), (4 * (al + 1) * (be + 1)
                                / ((al + be + 2) ** 2 * (al + be + 3))).sqrt()]
        for k in range(1, l_max + 1):
            s = 2 * k + al + be
            a.append((be * be - al * al) / (s * (s + 2)))
            t = s + 2  # 2(k+1) + al + be
            root_b.append((4 * (k + 1) * (k + 1 + al) * (k + 1 + be) * (k + 1 + al + be)
                           / (t * t * (t + 1) * (t - 1))).sqrt())
        x = np.array([D(float(v)) for v in rule.nodes], dtype=object)
        w = np.array([D(float(v)) for v in rule.weights], dtype=object)
        p_prev = np.full(x.size, D(0), dtype=object)
        p = np.full(x.size, 1 / root_b[0], dtype=object)
        defects, scales = [], []
        for l in range(l_max + 1):
            wp = w * p
            defects.append(wp.sum())
            scales.append(np.abs(wp).sum())
            if l < l_max:
                p_prev, p = p, ((x - a[l]) * p - root_b[l] * p_prev) / root_b[l + 1]
        defects[0] -= mass.sqrt()
    return np.array(defects, dtype=float), np.array(scales, dtype=float)
