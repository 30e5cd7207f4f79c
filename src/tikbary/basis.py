"""Orthonormal Jacobi-family polynomials.

The weight function is w(x) = (1-x)^a (1+x)^b on [-1,1] with a, b > -1.
Everything downstream (quadrature, fitting, barycentric weights) is built
on the three-term recurrence evaluated here.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisSpec",
    "RecurrenceTable",
    "recurrence_coefficients",
    "eval_orthonormal",
]

# a decimal literal, as BasisSpec.name writes an exponent
_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?"


@dataclass(frozen=True)
class BasisSpec:
    """Jacobi weight w(x) = (1-x)^jacobi_a (1+x)^jacobi_b, exponents > -1."""

    jacobi_a: float = 0.0
    jacobi_b: float = 0.0

    def __post_init__(self):
        if not (-1.0 < self.jacobi_a < math.inf and -1.0 < self.jacobi_b < math.inf):
            raise ValueError(
                "weight exponents must be finite and exceed -1, "
                f"got a={self.jacobi_a}, b={self.jacobi_b}"
            )
        try:
            self.mass  # overflows a double for a = 1100, b = 0, for example
        except OverflowError:
            raise ValueError(f"the weight's mass overflows at a={self.jacobi_a}, "
                             f"b={self.jacobi_b}") from None

    @staticmethod
    def chebyshev1() -> "BasisSpec":
        return BasisSpec(-0.5, -0.5)

    @staticmethod
    def legendre() -> "BasisSpec":
        return BasisSpec(0.0, 0.0)

    @staticmethod
    def from_name(name: str) -> "BasisSpec":
        key = name.strip().lower() if isinstance(name, str) else ""
        if key in ("chebyshev1", "chebyshev-1st", "cheb1"):
            return BasisSpec.chebyshev1()
        if key == "legendre":
            return BasisSpec.legendre()
        match = re.fullmatch(rf"jacobi\(({_NUMBER}),({_NUMBER})\)", key.replace(" ", ""))
        if match:
            return BasisSpec(float(match[1]), float(match[2]))
        raise ValueError(
            f"unknown basis name: {name!r} (use chebyshev1, legendre or jacobi(a,b))")

    @property
    def name(self) -> str:
        if (self.jacobi_a, self.jacobi_b) == (-0.5, -0.5):
            return "chebyshev1"
        if (self.jacobi_a, self.jacobi_b) == (0.0, 0.0):
            return "legendre"
        # repr, not :g, so that from_name(name) gives back the same exponents
        return f"jacobi({float(self.jacobi_a)!r},{float(self.jacobi_b)!r})"

    @property
    def is_symmetric(self) -> bool:
        return self.jacobi_a == self.jacobi_b

    @property
    def mass(self) -> float:
        """V = integral of w over [-1,1]; pi for chebyshev1, 2 for legendre.

        The log-gamma terms cancel as the exponents grow.  Against 40 digits,
        at a = b the relative error is 5.6e-15 at 10, 1.1e-13 at 1000,
        1.2e-10 at 1e5 and 6.9e-7 at 1e8.
        """
        a, b = self.jacobi_a, self.jacobi_b
        # 2^(a+b+1) B(a+1, b+1), via log-gamma to stay in range for large exponents
        return math.exp(
            (a + b + 1.0) * math.log(2.0)
            + math.lgamma(a + 1.0)
            + math.lgamma(b + 1.0)
            - math.lgamma(a + b + 2.0)
        )


@dataclass(frozen=True, eq=False)
class RecurrenceTable:
    """Monic three-term recurrence coefficients; b[0] stores the mass V."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError("coefficient arrays must be 1-d and equally sized")
        if self.b.size > 1 and not np.all(self.b[1:] > 0):
            raise ValueError("b[k] must be positive for k >= 1")

    def __len__(self):
        return self.a.size


def recurrence_coefficients(spec: BasisSpec, n: int) -> RecurrenceTable:
    """Monic Jacobi recurrence coefficients a_0..a_{n-1}, b_0..b_{n-1}.

    The monic family satisfies P_{k+1} = (x - a_k) P_k - b_k P_{k-1}, with
    b_0 = V by convention.  Closed forms in the weight exponents; the k = 1
    entry has its own expression because the generic one degenerates there.
    For a symmetric weight every a_k is +0.0: both numerators are exact zeros
    over a positive denominator.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha, beta = spec.jacobi_a, spec.jacobi_b
    a = np.zeros(n)
    b = np.zeros(n)
    b[0] = spec.mass
    s0 = alpha + beta + 2.0
    a[0] = (beta - alpha) / s0
    if n > 1:
        b[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / (s0 * s0 * (s0 + 1.0))
        k = np.arange(1, n, dtype=float)
        s = 2.0 * k + alpha + beta
        a[1:] = (beta * beta - alpha * alpha) / (s * (s + 2.0))
    if n > 2:
        k = np.arange(2, n, dtype=float)
        s = 2.0 * k + alpha + beta
        b[2:] = (
            4.0 * k * (k + alpha) * (k + beta) * (k + alpha + beta)
            / (s * s * (s + 1.0) * (s - 1.0))
        )
    return RecurrenceTable(a=a, b=b)


def _orthonormal_rows(spec: BasisSpec, l_max: int, x: np.ndarray, out=None):
    """Yield p_0(x), ..., p_l_max(x) from the normalized recurrence.

    The one copy of the recurrence in the package: eval_orthonormal, fit,
    evaluate, weights_gauss and the Gauss rules all iterate it.  Row l is
    computed in out[l % m, ...], out being an (m,) + x.shape array, and
    yielded as that view, so the caller must use it before m more rows are
    drawn; m >= 3 unless m > l_max.  With no out a 3-row ring is allocated,
    so a caller that needs only the last rows never builds the
    (l_max+1) x |x| table.  The bits are those of the expression
    ((x - a_k) p_k - sqrt(b_k) p_{k-1}) / sqrt(b_{k+1}).

    A step k with a_k = 0 and sqrt(b_k) = sqrt(b_{k+1}) = s, s a power of
    two, is taken in two passes as (x/s) p_k - p_{k-1}: Chebyshev first kind
    from k = 2 on (s = 1/2, T_{k+1} = 2x T_k - T_{k-1}), second kind from
    k = 1.  Scaling by a power of two is exact, so this gives the bits of
    the expression above wherever no operation of either form has a
    nonzero exact result below 2^-1022 in magnitude or one that overflows.
    Such a tiny result is often absorbed by the difference that follows:
    at l_max = 400, x = 0, +-1 and 100 random x per binade of
    [2^-1020, 1] all gave the same bits, which covers every grid and node
    set the package evaluates.  Closer to zero, rows differed by subnormal
    amounts (at most 6.4e-320 over 10^4 such x).  x/s lives in the
    scratch array that the long step also uses, so a short step after a
    long one recomputes it.
    """
    table = recurrence_coefficients(spec, l_max + 2)
    sqb = np.sqrt(table.b)
    short = ((table.a[:-1] == 0.0) & (sqb[:-1] == sqb[1:])
             & (np.frexp(sqb[1:])[0] == 0.5)).tolist()
    if out is None:
        out = np.empty((3,) + x.shape)
    m = len(out)
    p_prev = np.zeros_like(x)
    p_curr = out[0, ...]
    p_curr.fill(1.0 / sqb[0])
    yield p_curr
    scratch = np.empty_like(x)
    scaled_by = None  # the s for which scratch holds x / s
    for k in range(l_max):
        p_next = out[(k + 1) % m, ...]
        if short[k]:
            if scaled_by != sqb[k + 1]:
                scaled_by = sqb[k + 1]
                np.divide(x, scaled_by, out=scratch)
            np.multiply(scratch, p_curr, out=p_next)
            p_next -= p_prev
        else:
            scaled_by = None
            np.subtract(x, table.a[k], out=scratch)
            scratch *= p_curr
            np.multiply(sqb[k], p_prev, out=p_next)
            np.subtract(scratch, p_next, out=p_next)
            p_next /= sqb[k + 1]
        yield p_next
        p_prev, p_curr = p_curr, p_next


def eval_orthonormal(spec: BasisSpec, l_max: int, x) -> np.ndarray:
    """Values of the orthonormal family at x, rows l = 0..l_max.

    Uses the normalized recurrence
        sqrt(b_{k+1}) p_{k+1} = (x - a_k) p_k - sqrt(b_k) p_{k-1},
    which keeps values O(1) on [-1,1].  x may be a scalar or an array;
    the result has shape (l_max+1,) + shape(x).
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    x = np.asarray(x, dtype=float)
    out = np.empty((l_max + 1,) + x.shape)
    for _ in _orthonormal_rows(spec, l_max, x, out=out):
        pass
    return out
