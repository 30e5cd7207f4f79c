"""Gauss quadrature rules for Jacobi weights.

Nodes are the zeros of the degree-n orthonormal polynomial p_n, n = N+1.
Chebyshev first kind short-circuits to the closed-form rule.  Legendre
nodes start from Tricomi's asymptotic guesses and take Newton steps with
the closed-form derivative (1-x^2) p_n' = n (c p_{n-1} - x p_n),
c = sqrt((2n+1)/(2n-1)) (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013);
they are computed on x >= 0 and mirrored, so the rule is exactly
symmetric.  Every other spec starts from the eigenvalues of the Jacobi
matrix (Golub & Welsch, 1969), which numpy.linalg.eigvalsh finds by a
dense solve: O(n^3) time and two n x n doubles, 61 MiB at 2001 points.
Either way one more Newton step polishes the nodes, and the weights are
the Christoffel numbers 1 / sum_{l<n} p_l(x_j)^2 at the polished nodes.
Both come from sweeps of basis._orthonormal_rows, which hold three rows
at a time, so neither builds an n x n table: a sweep gives p_n, p_{n-1}
and that sum, and at a zero of p_n the Christoffel-Darboux formula turns
them into the derivative p_n' = sum_{l<n} p_l^2 / (sqrt(b_n) p_{n-1}) of
the polishing step.  Of the specs that reach the sweeps, only Chebyshev
second kind, jacobi(0.5,0.5), takes the recurrence's two-pass step
(x/s) p_k - p_{k-1}, from k = 1 on; exactness_residual also takes it for
Chebyshev first kind from k = 2 on.  Either way the bits are those of the
general step.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, _orthonormal_rows, recurrence_coefficients

__all__ = ["QuadratureRule", "gauss_rule", "exactness_residual"]

# two nodes closer than this signal a broken rule
_NODE_GAP_FLOOR = 1e-14

# Newton steps from Tricomi's guesses before the polishing step.  The
# guesses are off by up to 0.1/n^2 near the ends; two quadratic steps take
# every node to within 1e-12 for n <= 3000, where the polishing step lands
# it at rounding (test_newton_has_converged_before_the_polish)
_NEWTON_STEPS = 2


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes (ascending, inside (-1,1)) and positive weights for a BasisSpec."""

    spec: BasisSpec
    nodes: np.ndarray
    weights: np.ndarray
    mass: float = field(init=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ValueError("nodes and weights must be equal-length 1-d arrays")
        # NaN fails every comparison below, so it must be caught here
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("nodes and weights must be finite")
        if np.any(nodes <= -1.0) or np.any(nodes >= 1.0):
            raise ValueError("nodes must lie strictly inside (-1,1)")
        if nodes.size > 1 and np.min(np.diff(nodes)) < _NODE_GAP_FLOOR:
            raise ValueError("nodes not strictly increasing or closer than 1e-14")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "mass", self.spec.mass)

    def __len__(self):
        return self.nodes.size

    @property
    def degree(self) -> int:
        """N, so the rule has N+1 points and is exact through degree 2N+1."""
        return self.nodes.size - 1


def gauss_rule(spec: BasisSpec, points: int) -> QuadratureRule:
    """The unique (N+1)-point Gauss rule for the spec, N+1 = points.

    Chebyshev first kind uses the closed-form nodes and equal weights,
    Legendre goes through _legendre_rule and everything else through
    _gauss_rule_recurrence.
    """
    if points < 1:
        raise ValueError("points must be >= 1")
    if spec.name == "chebyshev1":
        j = np.arange(points)
        # ascending -cos((2j+1)pi/(2n)) written through sin so the node set
        # is exactly mirror-symmetric and an odd count gets an exact zero
        nodes = np.sin((2.0 * j + 1.0 - points) * (math.pi / (2.0 * points)))
        weights = np.full(points, math.pi / points)
        return QuadratureRule(spec=spec, nodes=nodes, weights=weights)
    if spec.name == "legendre":
        return _legendre_rule(points)
    return _gauss_rule_recurrence(spec, points)


def _gauss_rule_recurrence(spec: BasisSpec, points: int) -> QuadratureRule:
    """Generic path, valid for any spec: eigenvalue nodes, Newton-polished.

    numpy.linalg.eigvalsh reads only the lower triangle of the dense Jacobi
    matrix, so it holds a on the diagonal and sqrt(b[1:]) below; the solve
    takes O(n^3) time and two n x n doubles (61 MiB at 2001 points).  The
    weights 1 / sum_{l<points} p_l^2 start from p_0 = 1/sqrt(V), so even a
    one-point rule gets the mass V only to rounding: 1 ulp off for
    Legendre's V = 2.  An outermost node that rounds to -1 or 1, as for
    some exponents near -1, raises a ValueError naming the spec and count.
    """
    table = recurrence_coefficients(spec, points)
    matrix = np.diag(table.a)
    matrix[range(1, points), range(points - 1)] = np.sqrt(table.b[1:])
    nodes, weights = _polished(spec, np.linalg.eigvalsh(matrix), points)
    return QuadratureRule(spec=spec, nodes=nodes, weights=weights)


def _legendre_rule(points: int) -> QuadratureRule:
    """Legendre nodes by Newton iteration, no eigensolver.

    Only the nodes x >= 0 are computed.  With a_k = +0.0 the recurrence
    gives p_l(-x) = (-1)^l p_l(x) to the bit, so the polishing step and
    the weights of the mirrored nodes are those of the computed ones, and
    an odd rule's middle node is an exact zero, where p_n vanishes exactly.
    """
    spec = BasisSpec.legendre()
    half, weights = _polished(spec, _legendre_newton(points, _legendre_guess(points)), points)
    mirror = slice(None, 0, -1) if points % 2 else slice(None, None, -1)
    return QuadratureRule(spec=spec, nodes=np.concatenate([-half[mirror], half]),
                          weights=np.concatenate([weights[mirror], weights]))


def _legendre_guess(n: int) -> np.ndarray:
    """Tricomi's x_k = (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k-1)/(4n+2)), x_k >= 0.

    Ascending; the cosine is written as sin(pi j/(2n+1)), j = n+1-2k, so
    an odd n's middle guess is an exact zero.
    """
    j = np.arange(1 - n % 2, n, 2, dtype=float)
    return (1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n**3)) * np.sin(j * (math.pi / (2 * n + 1)))


def _legendre_newton(n: int, x: np.ndarray, steps: int = _NEWTON_STEPS) -> np.ndarray:
    """steps Newton steps on the orthonormal Legendre p_n from x."""
    spec, c = BasisSpec.legendre(), math.sqrt((2 * n + 1) / (2 * n - 1))
    for _ in range(steps):
        p_n, p_prev = _sweep(spec, x, n, squares=False)[:2]
        x = x - p_n * ((1.0 - x) * (1.0 + x)) / (n * (c * p_prev - x * p_n))
    return x


def _polished(spec: BasisSpec, nodes: np.ndarray, n: int):
    """One Newton step on p_n from nodes near its zeros, and the weights there.

    The step takes p_n' = sum_{l<n} p_l^2 / (sqrt(b_n) p_{n-1}), its value
    at a zero; the weights are 1 / sum_{l<n} p_l^2 at the stepped nodes.
    """
    p_n, p_prev, sum_sq = _sweep(spec, nodes, n)
    nodes = nodes - p_n * math.sqrt(recurrence_coefficients(spec, n + 1).b[n]) * p_prev / sum_sq
    if np.max(np.abs(nodes)) >= 1.0:
        raise ValueError(f"the {n}-point {spec.name} rule has an outermost "
                         "node that rounds to -1 or 1 in double precision")
    return nodes, 1.0 / _sweep(spec, nodes, n)[2]


def _sweep(spec: BasisSpec, x, n: int, squares: bool = True):
    """p_n(x), p_{n-1}(x) and sum_{l<n} p_l(x)^2 (None unless squares)."""
    sum_sq = np.zeros_like(x) if squares else None
    for l, p in enumerate(_orthonormal_rows(spec, n, x)):
        if l < n:
            if squares:
                sum_sq += p * p
            p_prev = p
    return p, p_prev, sum_sq


def exactness_residual(rule: QuadratureRule, degree: int) -> float:
    """Worst quadrature defect over the orthonormal basis of P_degree.

    Exact integrals are sqrt(V) for l = 0 and zero otherwise, so the
    residual is max_l |sum_j w_j p_l(x_j) - sqrt(V) delta_{l0}|.  One sweep
    of basis._orthonormal_rows reduces each row p_l as it is drawn, one
    ddot against the weights, so the memory is O(N + degree): the three-row
    ring and one sum per degree, never the (degree+1) x (N+1) table (61 MiB
    at N = 2000, degree 2N+1).

    The value is that of the float recurrence, which also placed the
    nodes.  At extreme exponents it is the evaluation's own rounding, not
    the rule's error: through degree 2N+1 the 300-point jacobi(20, -0.9)
    rule reads 1.0e-10, while the same sums on the same float nodes and
    weights at 50 digits reach 3.5e-9, and the 40-digit rule rounded to
    doubles reads 6.2e-9.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    sums = [p @ rule.weights for p in _orthonormal_rows(rule.spec, degree, rule.nodes)]
    sums[0] -= math.sqrt(rule.mass)
    return float(np.max(np.abs(sums)))
