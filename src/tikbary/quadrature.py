"""Gauss quadrature rules for Jacobi weights.

Nodes are the zeros of the degree-n orthonormal polynomial p_n, n = N+1.
LAPACK finds them as the eigenvalues of the symmetric tridiagonal Jacobi
matrix (Golub & Welsch, 1969), and one Newton step on p_n polishes them (as
in Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  The weights are the
Christoffel numbers 1 / sum_{l<n} p_l(x_j)^2 at the polished nodes.  Both
come from sweeps of basis._orthonormal_rows, which hold three rows at a
time, so no n x n table is built: a sweep gives p_n, p_{n-1} and that sum,
and at a zero of p_n the Christoffel-Darboux formula turns them into the
derivative p_n' = sum_{l<n} p_l^2 / (sqrt(b_n) p_{n-1}).  Chebyshev first
kind short-circuits to the closed-form rule.  Of the specs that reach the
sweeps, only Chebyshev second kind, jacobi(0.5,0.5), takes the
recurrence's two-pass step (x/s) p_k - p_{k-1}, from k = 1 on;
exactness_residual also takes it for Chebyshev first kind from k = 2 on.
Either way the bits are those of the general step.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import (BasisSpec, _orthonormal_rows, eval_orthonormal,
                    recurrence_coefficients)

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

    The weights 1 / sum_{l<points} p_l^2 start from p_0 = 1/sqrt(V), so even
    a one-point rule gets the mass V only to rounding: 1 ulp off for
    Legendre's V = 2.  An outermost node that rounds to -1 or 1, as happens
    for some exponents near -1, raises a ValueError that names the spec and
    the point count.
    """
    table = recurrence_coefficients(spec, points + 1)
    nodes = scipy.linalg.eigvalsh_tridiagonal(table.a[:points], np.sqrt(table.b[1:points]))
    p_n, p_prev, sum_sq = _sweep(spec, nodes)
    # Newton step with p_n' = sum_sq / (sqrt(b_n) p_{n-1}), its value at a zero
    nodes = nodes - p_n * math.sqrt(table.b[points]) * p_prev / sum_sq
    if np.max(np.abs(nodes)) >= 1.0:
        raise ValueError(f"the {points}-point {spec.name} rule has an outermost "
                         "node that rounds to -1 or 1 in double precision")
    weights = 1.0 / _sweep(spec, nodes)[2]
    return QuadratureRule(spec=spec, nodes=nodes, weights=weights)


def _sweep(spec: BasisSpec, x):
    """p_n(x), p_{n-1}(x) and sum_{l<n} p_l(x)^2 at the n = |x| points x."""
    sum_sq = np.zeros_like(x)
    for l, p in enumerate(_orthonormal_rows(spec, x.size, x)):
        if l < x.size:
            sum_sq += p * p
            p_prev = p
    return p, p_prev, sum_sq


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
