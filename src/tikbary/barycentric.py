"""Barycentric interpolation with a shrinkage factor.

Two evaluation forms of the same degree-N interpolant through N+1 nodes:

    modified Lagrange   p(x) = l(x)/(1+lambda) * sum_j W_j f_j / (x - x_j)
    quotient form       p(x) = [sum_j W_j f_j/(x-x_j)] / [(1+lambda) sum_j W_j/(x-x_j)]

with l(x) the node polynomial and W_j the barycentric weights
1/prod_{k != j}(x_j - x_k).  The quotient form is invariant under common
rescaling of the weights; the modified Lagrange form is not, so it re-anchors
whatever weights it is given to the product-formula scale.  lambda = 0 gives
the classical interpolant; lambda > 0 multiplies it by 1/(1+lambda).

The quotient form also takes k sample vectors at once, stacked as the
columns of an (N+1, k) values array: one pass over the Cauchy table
W_j/(x - x_j) serves every column.

Both forms walk x in row blocks of about _BLOCK_ENTRIES table entries, so
the work table stays cache-sized at any N.  The block size does not change a
bit of the output: each row of the table is reduced on its own whatever block
it sits in, the quotient form's denominator by NumPy's pairwise sum and each
of its numerators by one BLAS ddot against a contiguous copy of the column.
For the same reason the blocks are cut into contiguous row shares, one per
worker, and the shares run side by side on a small thread pool (NumPy
releases the GIL inside each op).  The worker count is the number of CPUs
the process may run on, at most two; the output has the same bits whatever
it is.
Points equal to a node never enter the table; their values, the division by
the denominator and the zero check are done once per call over all of x.
The numerators' last bits therefore depend on the ddot kernel of the BLAS
NumPy is linked against, as the coefficients of regularized_fit.fit
(wf @ p) already do: reruns on one machine are bitwise equal.

The Lebesgue function of interpolation in Gauss points, sum_j |l_j(x)|,
uses the same difference blocks and node polynomial in first-kind form.

One rule gives every sign: the nodes are finite and strictly increasing,
as BarycentricData checks, so sign l(x) = (-1)^(number of nodes above x).
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .basis import _orthonormal_rows
from .quadrature import QuadratureRule
from .regularized_fit import check_lambda

__all__ = [
    "BarycentricData",
    "weights_product",
    "weights_gauss",
    "interp_modified_lagrange",
    "interp_barycentric",
]

# beyond this many nodes raw products of ~N factors risk leaving double range
_DIRECT_PRODUCT_LIMIT = 513

# entries per (points x nodes) work table, one table per worker: 448 KiB of
# doubles.  Serially, 32k to 128k entries ran fig3 at paper scale within 7 %
# of each other.  Every NumPy op hands the GIL over once, so two threads
# gain more on larger tables.  The block kernel at N = 1000, two threads
# against one on a 2-core VM (numpy 2.4.6, OpenBLAS 0.3.31): 1.13x at 16k
# entries, 1.39x at 32k, 1.48x at 56k, 1.63x at 64k, 1.80x at 128k.  Per op
# at 56k: subtract 1.97x, divide 1.79x, row sum 1.46x, the ddots 0.76x.
# Two workers' tables and temporaries stay under the 2 MiB of the
# work-table tests; at 64k entries the Lebesgue function's did not.
_BLOCK_ENTRIES = 57344


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# row shares per call.  Two at most: every worker holds a work table and
# its temporaries, which for four workers broke the 2 MiB work-table tests,
# and only two cores were measured
_WORKERS = min(2, _cpus())
_pool = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The shared pool, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="tikbary")
        return _pool


def _forget_pool():
    """A forked child inherits the pool but none of its threads: start afresh."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def weights_product(nodes) -> np.ndarray:
    """Barycentric weights 1/prod_{k != j}(x_j - x_k) from the definition.

    Up to 513 nodes the products are formed directly and returned at their
    natural scale.  Past that the magnitudes can overflow doubles, so the
    products are accumulated as log-magnitude plus sign and the result is
    rescaled to max |W_j| = 1.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("need at least two nodes")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("nodes must be finite")
    diffs = nodes[:, None] - nodes[None, :]
    off = ~np.eye(nodes.size, dtype=bool)
    if np.any(diffs[off] == 0.0):
        raise ValueError("nodes must be pairwise distinct")
    if nodes.size <= _DIRECT_PRODUCT_LIMIT:
        prod = np.prod(np.where(off, diffs, 1.0), axis=1)
        return 1.0 / prod
    signs = np.where(np.sum(diffs < 0.0, axis=1) % 2 == 0, 1.0, -1.0)
    logs = -np.sum(np.log(np.abs(np.where(off, diffs, 1.0))), axis=1)
    return signs * np.exp(logs - np.max(logs))


def weights_gauss(rule: QuadratureRule) -> np.ndarray:
    """Weights from the quadrature relation W_j proportional to w_j p_N(x_j).

    One recurrence sweep over the N+1 nodes, O(N^2) operations like the
    product formula but holding only the three-row ring of
    basis._orthonormal_rows, never the (N+1) x (N+1) table.  The output
    shares only a common scalar factor with weights_product, which is all
    the quotient form needs; the modified Lagrange form re-anchors the scale
    itself.  For Chebyshev first kind the sweep takes the two-pass step
    T_{k+1} = 2x T_k - T_{k-1} from k = 2 on (second kind from k = 1),
    which gives the bits of the general step at the nodes.
    """
    for phi_n in _orthonormal_rows(rule.spec, rule.degree, rule.nodes):
        pass
    return rule.weights * phi_n


@dataclass(frozen=True, eq=False)
class BarycentricData:
    """Nodes, weights, samples and the shrinkage parameter, validated once.

    values has shape (N+1,) for one sample vector or (N+1, k) for k of them
    side by side.  Weights are normalized to max |W_j| = 1 on construction;
    both evaluation forms are indifferent to that common factor.
    """

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if weights.shape != nodes.shape:
            raise ValueError("weights must align with nodes")
        if values.ndim not in (1, 2) or values.shape[0] != nodes.size:
            raise ValueError(
                "values must have shape (N+1,) or (N+1, k), aligned with nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodes must be finite")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights == 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be nonzero and finite")
        # sign bits, not products: neighbours near 1e-170 would underflow
        if np.any(np.signbit(weights[:-1]) == np.signbit(weights[1:])):
            raise ValueError("weights must strictly alternate in sign")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        check_lambda(self.lam)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights / np.max(np.abs(weights)))
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.nodes.size


def _product_scale_anchor(nodes: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Log-magnitude and sign of the factor mapping stored weights to product scale.

    Computed at the index j of largest stored weight: the true product-formula
    weight there, over the stored one.  For finite, strictly increasing nodes
    the true weight has sign (-1)^(N - j), one flip per node above x_j.
    """
    j = int(np.argmax(np.abs(weights)))
    diffs = np.delete(nodes[j] - nodes, j)
    log_true = -np.sum(np.log(np.abs(diffs)))
    sign_true = -1.0 if (nodes.size - 1 - j) % 2 else 1.0
    return log_true - np.log(abs(weights[j])), sign_true * np.sign(weights[j])


def _node_hits(nodes: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices (rows of x, nodes) of the points of x equal to a node exactly.

    A binary search on the strictly increasing nodes, O(x log N) instead of a
    scan of the whole (x, nodes) difference table.
    """
    cols = np.minimum(np.searchsorted(nodes, x), nodes.size - 1)
    rows = np.flatnonzero(nodes[cols] == x)
    return rows, cols[rows]


def _block_rows(points: int, nodes: int) -> int:
    """Rows per block: about _BLOCK_ENTRIES table entries, at least one row."""
    return max(1, min(points, _BLOCK_ENTRIES // nodes))


def _difference_blocks(nodes: np.ndarray, x: np.ndarray, hit_rows: np.ndarray):
    """Yield (rows, table): x[rows] - x_j for consecutive row blocks of x.

    rows indexes x and skips hit_rows, the sorted points equal to a node, so
    no entry is zero and callers write each block straight into their output.
    It is a slice where the block holds no hit, which spares the index array
    and its gather and scatters, a measurable share of the work at small N.
    Every table is a view of one work array of _block_rows rows, overwritten
    by the next block; a block of hits only yields nothing.
    """
    step = _block_rows(x.size, nodes.size)
    work = np.empty((step, nodes.size))
    starts = range(0, x.size, step)
    # hit_rows[first:last] fall in the block at start
    lasts = np.searchsorted(hit_rows, starts[1:]).tolist() + [hit_rows.size]
    first = 0
    for start, last in zip(starts, lasts):
        stop = min(start + step, x.size)
        if first == last:
            rows = slice(start, stop)
        else:
            keep = np.ones(stop - start, dtype=bool)
            keep[hit_rows[first:last] - start] = False
            rows = start + np.flatnonzero(keep)
        first = last
        points = x[rows]
        if points.size:
            yield rows, np.subtract(points[:, None], nodes, out=work[: points.size])


def _each_block(nodes: np.ndarray, x: np.ndarray, hit_rows: np.ndarray, body):
    """Call body(rows, table) for every block of _difference_blocks.

    x is cut into at most _WORKERS contiguous shares of x.size / _WORKERS
    rows, rounded up, or of one block where that is more, so a call of one
    block never reaches the pool.  The caller's thread runs the first share
    and the pool the others, each share with a work table of its own, so
    body must only write the rows it is given.  Every share is waited for
    before an exception is raised.
    """
    share = max(_block_rows(x.size, nodes.size), -(-x.size // _WORKERS))

    def run(start):
        stop = min(start + share, x.size)
        first, last = np.searchsorted(hit_rows, (start, stop))
        for rows, table in _difference_blocks(nodes, x[start:stop],
                                              hit_rows[first:last] - start):
            if isinstance(rows, slice):
                rows = slice(rows.start + start, rows.stop + start)
            else:
                rows += start
            body(rows, table)

    futures = [_executor().submit(run, start) for start in range(share, x.size, share)]
    try:
        run(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _node_polynomial(diffs: np.ndarray, log_c: float) -> np.ndarray:
    """|l(x)| exp(log_c), l(x) = prod_j (x - x_j), for the rows of a difference table.

    Up to _DIRECT_PRODUCT_LIMIT nodes the product is formed directly; past
    that its log-magnitude meets the scale anchor in log space, so neither
    factor leaves double range on its own.  For finite, strictly increasing
    nodes callers sign it by (-1)^(number of nodes above x), an exact flip.
    """
    if diffs.shape[1] <= _DIRECT_PRODUCT_LIMIT:
        return np.abs(np.prod(diffs, axis=1)) * np.exp(log_c)
    logs = np.abs(diffs)
    return np.exp(np.sum(np.log(logs, out=logs), axis=1) + log_c)


def interp_modified_lagrange(data: BarycentricData, x):
    """Evaluate l(x)/(1+lambda) * sum_j W_j f_j/(x - x_j) at x.

    A point that equals a node exactly returns f_j/(1+lambda); there is no
    epsilon ball, nearby points go through the formula, which is stable.
    The node polynomial and the scale anchor are carried in log space when
    the node count is large; a binary search gives the sign.  Takes one
    sample vector; stacked values go through interp_barycentric.  x must
    be finite.  Off [-1, 1] this is the form to use: it is backward stable
    at any x (Higham 2004), the quotient form only on the interval.
    """
    if data.values.ndim != 1:
        raise ValueError(
            "interp_modified_lagrange takes one sample vector of shape (N+1,); "
            "use interp_barycentric for stacked values")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    scalar = x.ndim == 0
    xv = np.atleast_1d(x).ravel()
    shrink = 1.0 + data.lam
    log_c, sign_c = _product_scale_anchor(data.nodes, data.weights)
    hit_rows, hit_cols = _node_hits(data.nodes, xv)
    out = np.empty(xv.size)

    def body(rows, diffs):
        above = len(data) - np.searchsorted(data.nodes, xv[rows])
        sign = np.where(above % 2, -sign_c, sign_c)
        inner = (data.weights * data.values / diffs).sum(axis=1)
        out[rows] = sign * _node_polynomial(diffs, log_c) * inner / shrink

    _each_block(data.nodes, xv, hit_rows, body)
    out[hit_rows] = data.values[hit_cols] / shrink
    return float(out[0]) if scalar else out.reshape(np.atleast_1d(x).shape)


def interp_barycentric(data: BarycentricData, x):
    """Evaluate the quotient form at x; scale of the weights is immaterial.

    The form is meant for x in [-1, 1]; use interp_modified_lagrange off it.
    |x| > 1 is not rejected, since BarycentricData accepts nodes anywhere.
    x must be finite.  A point equal to a node returns f_j/(1+lambda).  For
    real distinct nodes with alternating weights the denominator cannot
    vanish off the nodes; a zero there means corrupted data and raises.

    With values of shape (N+1, k) the result has shape x.shape + (k,), and
    column c is bitwise the result for values[:, c] alone: every numerator
    is one per-row ddot in a single vecdot call, each against a row of the
    contiguous copy of values.T, so ddot sees unit stride whatever k is.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    xv = x.ravel()
    shrink = 1.0 + data.lam
    values = data.values.reshape(len(data), -1)
    hit_rows, hit_cols = _node_hits(data.nodes, xv)
    columns = np.ascontiguousarray(values.T)
    out = np.empty((xv.size, len(columns)))  # numerators until the division
    denom = np.empty(xv.size)

    def body(rows, diffs):
        ratios = np.divide(data.weights, diffs, out=diffs)
        denom[rows] = ratios.sum(axis=1)
        out[rows] = np.vecdot(ratios[:, None, :], columns)

    _each_block(data.nodes, xv, hit_rows, body)
    # a node hit is f_j over a denominator of 1
    out[hit_rows] = values[hit_cols]
    denom[hit_rows] = 1.0
    if np.any(denom == 0.0):
        raise RuntimeError(
            "barycentric denominator vanished off-node; weights are inconsistent"
        )
    denom *= shrink
    out /= denom[:, None]
    out = out.reshape(x.shape + data.values.shape[1:])
    return float(out) if out.ndim == 0 else out


def _lebesgue_function(rule: QuadratureRule, x: np.ndarray) -> np.ndarray:
    """Lebesgue function sum_j |l_j(x)| of interpolation in the rule's nodes.

    First-kind (modified Lagrange) form |l(x)| sum_j |W_j| / |x - x_j|, with
    the explicit Gauss-Jacobi weights |W_j| proportional to
    sqrt((1 - x_j^2) w_j) (Wang, Huybrechs & Vandewalle, Math. Comp. 83,
    2014), O(N) from the rule, anchored to the product-formula scale.  Every
    term is positive, so nothing cancels, also at points far from the nodes
    such as x = +-1.  A point equal to a node gives 1.  x is 1-D.

    The quotient form sum_j |W_j/(x - x_j)| / |sum_j W_j/(x - x_j)| is not
    used: its denominator cancels at x = +-1, costing up to 9.3e-4 relative
    at jacobi(20, -0.9), N = 20, against a 50-digit reference.
    """
    nodes = rule.nodes
    weights = np.sqrt((1.0 - nodes) * (1.0 + nodes) * rule.weights)
    log_c, _ = _product_scale_anchor(nodes, weights)
    hit_rows, _ = _node_hits(nodes, x)
    out = np.ones(x.size)

    def body(rows, diffs):
        node_poly = _node_polynomial(diffs, log_c)
        terms = np.abs(np.divide(weights, diffs, out=diffs), out=diffs)
        out[rows] = node_poly * terms.sum(axis=1)

    _each_block(nodes, x, hit_rows, body)
    return out
