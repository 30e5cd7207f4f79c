"""Gauss quadrature rules for Jacobi weights.

Nodes are the zeros of the degree-(N+1) orthonormal polynomial p_{N+1}.
LAPACK finds them as the eigenvalues of the symmetric tridiagonal Jacobi
matrix (Golub & Welsch, 1969), and one Newton step on p_{N+1}, evaluated by
the three-term recurrence, polishes them (as in Hale & Townsend, SIAM J.
Sci. Comput. 35, 2013).  The weights are the Christoffel numbers
1 / sum_{l<=N} p_l(x_j)^2 at the polished nodes.  The same recurrence sweep
gives p_{N+1}, its derivative and that sum, three rows at a time, so no
(N+1)^2 table is built.  Chebyshev first kind short-circuits to the
closed-form rule.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import BasisSpec, eval_orthonormal, recurrence_coefficients

__all__ = ["QuadratureRule", "gauss_rule", "exactness_residual"]

# two nodes closer than this signal a broken rule
_NODE_GAP_FLOOR = 1e-14


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

    Chebyshev first kind uses the closed-form nodes and equal weights;
    everything else goes through _gauss_rule_recurrence.
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
    return _gauss_rule_recurrence(spec, points)


def _gauss_rule_recurrence(spec: BasisSpec, points: int) -> QuadratureRule:
    """Generic path, valid for any spec: LAPACK nodes, Newton-polished.

    The Christoffel numbers are written V / sum_{l<points} (sqrt(V) p_l)^2,
    so that a one-point rule gets the mass V exactly.
    """
    table = recurrence_coefficients(spec, points + 1)
    nodes = scipy.linalg.eigvalsh_tridiagonal(table.a[:points], np.sqrt(table.b[1:points]))
    p, dp, _ = _recurrence_pass(table, points, nodes)
    nodes = nodes - p / dp
    _, _, sum_sq = _recurrence_pass(table, points, nodes)
    return QuadratureRule(spec=spec, nodes=nodes, weights=table.b[0] / sum_sq)


def exactness_residual(rule: QuadratureRule, degree: int) -> float:
    """Worst quadrature defect over the orthonormal basis of P_degree.

    Exact integrals are sqrt(V) for l = 0 and zero otherwise, so the
    residual is max_l |sum_j w_j p_l(x_j) - sqrt(V) delta_{l0}|.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    values = eval_orthonormal(rule.spec, degree, rule.nodes)
    sums = values @ rule.weights
    sums[0] -= math.sqrt(rule.mass)
    return float(np.max(np.abs(sums)))


def _recurrence_pass(table, n: int, x):
    """sqrt(V) times p_n(x) and p_n'(x), and sum_{l<n} (sqrt(V) p_l(x))^2.

    One sweep of the orthonormal recurrence started from sqrt(V) p_0 = 1,
    holding three rows at a time, so memory is O(x.size) whatever n is.
    """
    sqb = np.sqrt(table.b)
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    dp_prev = np.zeros_like(x)
    dp = np.zeros_like(x)
    sum_sq = np.zeros_like(x)
    for k in range(n):
        sum_sq += p * p
        p_next = ((x - table.a[k]) * p - sqb[k] * p_prev) / sqb[k + 1]
        dp_next = (p + (x - table.a[k]) * dp - sqb[k] * dp_prev) / sqb[k + 1]
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
    return p, dp, sum_sq
