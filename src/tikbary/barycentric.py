"""Barycentric interpolation with a shrinkage factor.

Two evaluation forms of the same degree-N interpolant through N+1 nodes:

    modified Lagrange   p(x) = l(x) sum_j W_j f_j/(x - x_j)              / (1+lambda)
    quotient form       p(x) = sum_j W_j f_j/(x-x_j) / sum_j W_j/(x-x_j)  / (1+lambda)

with l(x) the node polynomial and W_j the barycentric weights
1/prod_{k != j}(x_j - x_k).  The quotient form is invariant under common
rescaling of the weights; the modified Lagrange form is not, so it re-anchors
whatever weights it is given to the product-formula scale.  Each form
divides its classical (lambda = 0) result by 1 + lambda last, as every
lambda-dependent output does, so it is bitwise that result over 1 + lambda.

Both forms and the Lebesgue function are one Cauchy kernel, two
normalizations: _each_block alone forms the table c_j = 1/(x - x_j), and
each kernel is one vecdot of its rows against contiguous rows, W and
W * f_c (quotient form), W * f_c (modified Lagrange form) or |W| (Lebesgue
function), the last two times the node polynomial 1/prod_j c_j.  Both
forms take k sample vectors stacked as the columns of an (N+1, k) values
array, column c bitwise the call on values[:, c].  The Lebesgue function of
the degree-L fit, L < N, takes the same table in Christoffel-Darboux form
(_kernel_lebesgue_function).

Points within _hit_radius of a node count as that node and never enter
the table; their values are set once per call.  The others are walked in
blocks of consecutive points, about _BLOCK_ENTRIES table entries each, so
the work table stays cache-sized at any N.  A block's differences x - x_j
are one exact K = 2 matrix product, [x, 1] @ [1; -x_j], and the reciprocal
follows in place.  Each row is reduced on its own, so neither the block
size nor the row shares on threads change a bit.  The last bits depend on
the BLAS ddot kernel, as those of regularized_fit.fit (wf @ p) do: reruns
on one machine are bitwise equal.

One rule gives every sign: the nodes are finite and strictly increasing,
as BarycentricData checks, so sign l(x) = (-1)^(number of nodes above x).
The package takes the quotient form's weights only from _quotient_weights,
which refuses rules where that form is unstable, and the first kind sets
its own power-of-two frame (_frame_exponent).
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .basis import _orthonormal_rows, recurrence_coefficients
from .quadrature import QuadratureRule

__all__ = [
    "check_lambda",
    "BarycentricData",
    "weights_product",
    "weights_gauss",
    "interp_modified_lagrange",
    "interp_barycentric",
]

# beyond this many nodes that span about 2 (a rule's on [-1, 1], or any in
# the frame of _frame_exponent) raw products of ~N factors risk leaving double range
_DIRECT_PRODUCT_LIMIT = 513

# entries per (points x nodes) work table, one table per worker: 448 KiB of
# doubles.  Serially, 32k to 128k entries ran fig3 at paper scale within 7 %
# of each other.  Every NumPy op hands the GIL over once, so two threads
# gain more on larger tables.  The block kernel at N = 1000, two threads
# against one on a 2-core VM (numpy 2.4.6, OpenBLAS 0.3.31): 1.13x at 16k
# entries, 1.39x at 32k, 1.48x at 56k, 1.63x at 64k, 1.80x at 128k.  Per op
# on 57 x 1001 tables, each thread looping over its own: the K = 2 GEMM that
# builds the differences 1.7-1.9x, reciprocal 1.8-2.0x, row sum 1.1-1.7x,
# but the reductions do not overlap, vecdot 0.8-1.2x and a reduction GEMM
# (@) 0.96-1.06x.  Two workers' tables and temporaries stay under the 2 MiB
# of the work-table tests; at 64k entries the Lebesgue function's did not.
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


def _frame_exponent(nodes: np.ndarray) -> int:
    """k such that nodes / 2^k span [sqrt 2, 2 sqrt 2): 0 for every shipped
    config's rules.  Exact, so nodes times 2^j give k + j."""
    return math.frexp(float(np.ptp(nodes)) / math.sqrt(2.0))[1] - 1


def weights_product(nodes) -> np.ndarray:
    """Barycentric weights 1/prod_{k != j}(x_j - x_k) from the definition.

    Formed in the frame of _frame_exponent.  Up to 513 nodes the products
    are formed directly and returned at their natural scale where that is
    a normal double, else rescaled to max |W_j| = 1.  Past that the
    magnitudes can overflow doubles, so the products are accumulated as
    log-magnitude plus sign and the result is rescaled to max |W_j| = 1.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("need at least two nodes")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("nodes must be finite")
    k = _frame_exponent(nodes)
    framed = np.ldexp(nodes, -k)
    diffs = framed[:, None] - framed[None, :]
    off = ~np.eye(nodes.size, dtype=bool)
    if np.any(diffs[off] == 0.0):
        raise ValueError("nodes must be pairwise distinct")
    if nodes.size <= _DIRECT_PRODUCT_LIMIT:
        weights = 1.0 / np.prod(np.where(off, diffs, 1.0), axis=1)
        shift = -k * (nodes.size - 1)  # the natural weights are these times 2^shift
        exponents = np.frexp(weights)[1] + shift
        if np.all((exponents > -1022) & (exponents <= 1024)):  # normal doubles, exact
            return np.ldexp(weights, shift)
        return weights / np.max(np.abs(weights))
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
    which gives the bits of the general step at the nodes.  This is the
    one-rule case of _weights_gauss_rules.
    """
    return _weights_gauss_rules([rule])[0]


def _weights_gauss_rules(rules) -> list:
    """weights_gauss of every rule, in order, from one recurrence sweep.

    The rules share one spec; their degrees may repeat and come in any
    order.  The sweep runs to the largest degree over all their nodes at
    once and takes each rule's p_N from its own slice at step N.  Every
    step of the recurrence is elementwise, so each result is bitwise the
    sweep over that rule's nodes alone, at the cost of one Python-level
    step per degree instead of one per degree per rule.
    """
    spec = rules[0].spec
    if any(rule.spec != spec for rule in rules):
        raise ValueError("the rules must share one basis spec")
    ends = np.cumsum([len(rule) for rule in rules]).tolist()
    starts = [0] + ends[:-1]
    by_degree = {}
    for i, rule in enumerate(rules):
        by_degree.setdefault(rule.degree, []).append(i)
    x = np.concatenate([rule.nodes for rule in rules])
    out = [None] * len(rules)
    for n, phi_n in enumerate(_orthonormal_rows(spec, max(by_degree), x)):
        for i in by_degree.get(n, ()):
            out[i] = rules[i].weights * phi_n[starts[i]:ends[i]]
    return out


def check_lambda(lam) -> None:
    """Raise ValueError unless lam is a finite number >= 0.

    A NaN passes a plain lam < 0 test and would flow through every division
    by 1 + lambda, so finiteness is checked explicitly.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")


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


def _hit_radius(rows: np.ndarray, log_c: float | None = None) -> float:
    """How near a node a point must lie to count as it: 2^-1000 times the
    largest of 1, max |rows| and, for a direct-product node polynomial,
    exp(log_c).  Further off, every Cauchy entry, every term rows_j c_j and
    prod_j |c_j| = 1/|l(x)| stay under about 2^1000, 2^24 short of overflow,
    for nodes that span about 2, as in _frame_exponent's frame."""
    scale = np.max(np.abs(rows), initial=1.0)
    if log_c is not None and rows.shape[-1] <= _DIRECT_PRODUCT_LIMIT:
        scale = max(scale, np.exp(log_c))
    return float(scale) * 2.0**-1000


def _node_hits(nodes: np.ndarray, x: np.ndarray,
               radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices (rows of x, nodes) of the points of x within radius of a node.

    A binary search on the strictly increasing nodes gives the node on
    either side of each point, O(x log N); both are checked, since nodes may
    lie closer together than radius, and a hit counts as the nearer.
    radius 0 finds the points equal to a node.  17 bytes a point.
    """
    above = np.searchsorted(nodes, x)  # the node above each point, or none
    gap = np.take(nodes, above, mode="clip")
    near = np.abs(np.subtract(gap, x, out=gap), out=gap) <= radius
    np.take(np.concatenate([nodes[:1], nodes]), above, out=gap, mode="clip")  # below
    np.abs(np.subtract(x, gap, out=gap), out=gap)
    gap[near] = 0.0  # near the node above already
    rows = np.flatnonzero(np.less_equal(gap, radius, out=near))
    lo, hi = np.maximum(above[rows] - 1, 0), np.minimum(above[rows], nodes.size - 1)
    return rows, np.where(x[rows] - nodes[lo] <= nodes[hi] - x[rows], lo, hi)


def _block_rows(points: int, nodes: int) -> int:
    """Rows per block: about _BLOCK_ENTRIES table entries, at least one row."""
    return max(1, min(points, _BLOCK_ENTRIES // nodes))


def _each_block(nodes: np.ndarray, x: np.ndarray, hit_rows: np.ndarray, body):
    """Call body(rows, cauchy), cauchy = 1/(x[rows] - x_j), for consecutive row blocks of x.

    The one place the Cauchy table is formed: an exact K = 2 GEMM for the
    differences, then the reciprocal in place; body may overwrite it.  rows
    is a slice of consecutive off-node points: hit_rows, the sorted points
    that count as a node, cut x into runs and each run into blocks, so every
    entry is finite and body writes straight into its output.

    x is cut into contiguous shares of equal size, rounded up: as many as
    hold two blocks of off-node points each, at most _WORKERS, so a call of
    under four such blocks, such as one at the nodes themselves, starts no
    thread.  Two shares against one worker, timed per call in 24
    alternating rounds on a 2-core VM, ran 1.09-1.88x at one block a share;
    at two, 1.19-1.25x at N = 20, 0.91-0.99x at N = 60, and at N = 1000
    1.31-1.52x in the quotient form and 0.91-1.02x in the Lebesgue function.
    They won at every N only from 24 blocks a share, which left fig3 at
    paper scale no faster (0.674 against 0.688 s a run, lower in 5 of 9
    rounds) and gave up the N = 60 calls that win from four (0.76-0.93x).
    The caller's thread runs the first share, and a thread started for this
    call each of the others, in one work table of _block_rows rows of its
    own that each block overwrites, so body must only write the rows it is
    given.  Every thread is joined before an exception is raised.
    """
    step = _block_rows(x.size, nodes.size)
    shares = max(1, min(_WORKERS, (x.size - hit_rows.size) // (2 * step)))
    share = max(1, -(-x.size // shares))
    # [x, 1] @ [1; -x_j]: both products are exact and their sum is rounded
    # once, so every entry has the bits of x - x_j.  While N < _BLOCK_ENTRIES
    # a block's M N K is at most 2 _BLOCK_ENTRIES = 114688, under the
    # 4 x 65536 below which OpenBLAS runs a GEMM on the calling thread
    # alone: its helper thread took no CPU time over 35k products of 57 rows
    # at N = 1000, and half of the work at 4096 rows
    minus_nodes = np.stack([np.ones(nodes.size), -nodes])
    errors = []

    def run(start):
        try:
            stop = min(start + share, x.size)
            hits = hit_rows[slice(*np.searchsorted(hit_rows, [start, stop]))].tolist()
            work = np.empty((step, nodes.size))
            pairs = np.ones((step, 2))  # [x, 1], the points in column 0
            # the runs of off-node points between the hits of this share
            for run_lo, run_hi in zip([start] + [h + 1 for h in hits], hits + [stop]):
                for lo in range(run_lo, run_hi, step):
                    hi = min(lo + step, run_hi)
                    pairs[: hi - lo, 0] = x[lo:hi]
                    table = np.matmul(pairs[: hi - lo], minus_nodes, out=work[: hi - lo])
                    body(slice(lo, hi), np.divide(1.0, table, out=table))
        except BaseException as exc:  # raised once every share has ended
            errors.append(exc)

    threads = []
    try:
        for start in range(share, x.size, share):
            thread = threading.Thread(target=run, args=(start,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _node_polynomial(cauchy: np.ndarray, log_c: float) -> np.ndarray:
    """|l(x)| exp(log_c), l(x) = prod_j (x - x_j), for the rows of a Cauchy table.

    Since |l(x)| = 1/prod_j |c_j|, c_j = 1/(x - x_j), up to
    _DIRECT_PRODUCT_LIMIT nodes it is exp(log_c)/|prod_j c_j|; past that
    exp(log_c - sum_j log|c_j|), so that neither the product nor the scale
    anchor leaves double range on its own; that path overwrites the rows
    with log|c_j|, so callers reduce them first; both for nodes that span
    about 2, as in _frame_exponent's frame.  Callers sign it by
    (-1)^(number of nodes above x), exact for finite, strictly increasing nodes.
    """
    if cauchy.shape[1] <= _DIRECT_PRODUCT_LIMIT:
        return np.exp(log_c) / np.abs(np.prod(cauchy, axis=1))
    logs = np.log(np.abs(cauchy, out=cauchy), out=cauchy)
    return np.exp(log_c - np.sum(logs, axis=1))


def interp_modified_lagrange(data: BarycentricData, x):
    """Evaluate l(x) sum_j W_j f_j/(x - x_j), divided by 1 + lambda last, at x.

    Off [-1, 1] this is the form to use: it is backward stable at any x
    (Higham 2004), the quotient form only on the interval.  x must be
    finite.  It runs on (x / 2^k, nodes / 2^k), the exact frame of
    _frame_exponent, so nodes and x times a power of two give the same
    bits; x is copied only if k != 0.  A point within _hit_radius of a node
    takes f_j; other points go through the classical formula.  Each row
    block is one vecdot of the Cauchy rows against the rows W * f_c, times
    the signed node polynomial of the same rows, whose scale anchor carries
    the weights to the product-formula scale.  Values of shape (N+1, k)
    give x.shape + (k,), column c bitwise the result for values[:, c] alone.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    nodes, xv = data.nodes, x.ravel()
    k = _frame_exponent(nodes)
    if k:
        nodes, xv = np.ldexp(nodes, -k), np.ldexp(xv, -k)
    values = data.values.reshape(len(data), -1)
    weighted = np.empty((values.shape[1], len(data)))  # the rows W * f_c
    np.multiply(values.T, data.weights, out=weighted)
    log_c, sign_c = _product_scale_anchor(nodes, data.weights)
    hit_rows, hit_cols = _node_hits(nodes, xv, _hit_radius(weighted, log_c))
    out = np.empty((xv.size, values.shape[1]))

    def body(rows, cauchy):
        out[rows] = np.vecdot(cauchy[:, None, :], weighted)
        above = len(data) - np.searchsorted(nodes, xv[rows])
        scale = np.where(above % 2, -sign_c, sign_c) * _node_polynomial(cauchy, log_c)
        out[rows] *= scale[:, None]

    _each_block(nodes, xv, hit_rows, body)
    out[hit_rows] = values[hit_cols]
    out /= 1.0 + data.lam
    out = out.reshape(x.shape + data.values.shape[1:])
    return float(out) if out.ndim == 0 else out


def interp_barycentric(data: BarycentricData, x):
    """Evaluate the quotient form at x, divided by 1 + lambda last; weight scale is immaterial.

    The form is meant for x in [-1, 1]; use interp_modified_lagrange off it.
    |x| > 1 is not rejected, since BarycentricData accepts nodes anywhere.
    x must be finite.  A point within _hit_radius of a node takes f_j.  For
    real distinct nodes with alternating weights the exact denominator
    cannot vanish off the nodes; a zero there, from inconsistent weights or
    a sum that cancels in these nodes, raises.

    Each row block costs three full-table ops: the differences x - x_j as
    one exact K = 2 GEMM and the Cauchy entries c_j in their place, both in
    _each_block, and one vecdot of those against the k+1 rows W and W * f_c.
    So the denominator and every numerator are each one ddot.  On 57 x 1001
    blocks with k = 2 they take 0.46, 0.88 and 0.70 ns a table entry.

    With values of shape (N+1, k) the result has shape x.shape + (k,), and
    column c is bitwise the result for values[:, c] alone: the rows are
    contiguous whatever k and the layout of values are, so ddot sees unit
    stride.  The result is a view whose base also holds the denominators,
    8 bytes a point.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    xv = x.ravel()
    values = data.values.reshape(len(data), -1)
    weighted = np.empty((1 + values.shape[1], len(data)))  # W, then W * f_c
    weighted[0] = data.weights
    np.multiply(values.T, data.weights, out=weighted[1:])
    hit_rows, hit_cols = _node_hits(data.nodes, xv, _hit_radius(weighted))
    dots = np.empty((len(weighted), xv.size))

    def body(rows, cauchy):
        dots[:, rows] = np.vecdot(cauchy[:, None, :], weighted).T

    _each_block(data.nodes, xv, hit_rows, body)
    denom, out = dots[0], dots[1:]
    # a node hit is f_j over a denominator of 1
    out[:, hit_rows] = values[hit_cols].T
    denom[hit_rows] = 1.0
    if np.any(denom == 0.0):
        raise RuntimeError(
            "barycentric denominator vanished off-node: the weights are inconsistent, "
            "or the quotient form cancels in these nodes; use interp_modified_lagrange")
    out /= denom
    out /= 1.0 + data.lam
    out = out.T.reshape(x.shape + data.values.shape[1:])
    return float(out) if out.ndim == 0 else out


def _lebesgue_function(rule: QuadratureRule, x: np.ndarray) -> np.ndarray:
    """Lebesgue function sum_j |l_j(x)| of interpolation in the rule's nodes.

    First-kind (modified Lagrange) form |l(x)| sum_j |W_j| |c_j|, with the
    explicit Gauss-Jacobi weights |W_j| proportional to sqrt((1 - x_j^2) w_j)
    (Wang, Huybrechs & Vandewalle, Math. Comp. 83, 2014), O(N) from the
    rule, anchored to the product-formula scale: per block, |c_j| in place,
    one vecdot against |W| and the node polynomial.  Every term is positive,
    so nothing cancels, also at x = +-1.  A point within _hit_radius of a
    node gives 1.  x is 1-D.

    The quotient form sum_j |W_j/(x - x_j)| / |sum_j W_j/(x - x_j)| is not
    used: its denominator cancels at x = +-1, costing up to 9.3e-4 relative
    at jacobi(20, -0.9), N = 20, against a 50-digit reference.
    """
    nodes = rule.nodes
    weights = np.sqrt((1.0 - nodes) * (1.0 + nodes) * rule.weights)
    log_c, _ = _product_scale_anchor(nodes, weights)
    hit_rows, _ = _node_hits(nodes, x, _hit_radius(weights, log_c))
    out = np.ones(x.size)

    def body(rows, cauchy):
        out[rows] = np.vecdot(np.abs(cauchy, out=cauchy), weights)
        out[rows] *= _node_polynomial(cauchy, log_c)

    _each_block(nodes, x, hit_rows, body)
    return out


def _kernel_lebesgue_function(rule: QuadratureRule, L: int, x: np.ndarray) -> np.ndarray:
    """Lebesgue function sum_j w_j |K_L(x, x_j)| of the degree-L fit, L < N.

    K_L is the reproducing kernel sum_{l <= L} p_l(x) p_l(y), here in
    Christoffel-Darboux form (Szego 1939, Thm 3.2.2),

        K_L(x, x_j) = sqrt(b_{L+1}) (p_{L+1}(x) p_L(x_j) - p_L(x) p_{L+1}(x_j)) c_j,

    a rank-2 numerator over the Cauchy table c_j = 1/(x - x_j) of
    _each_block, O(G N) for G points.  p_L and p_{L+1} come from one
    recurrence sweep over x and one over the nodes.  Per block the numerators
    times w_j are one K = 2 product, [p_{L+1}(x), p_L(x)] @ [w p_L(x_j);
    -w p_{L+1}(x_j)], under OpenBLAS's threading threshold like the
    difference table, and one vecdot of their magnitudes against |c| gives
    the function, times sqrt(b_{L+1}).  x is 1-D.

    The numerator cancels as x nears a node, and what it then loses is the
    error of p_L and p_{L+1} themselves: an absolute error, so a zero of p_L
    is all error, which the recurrence grows near +-1.  Each of p_L(y),
    p_{L+1}(y) is taken to be off by eps E(y), E(y) = (|p_L(y)| +
    |p_{L+1}(y)|) min(L + 1, 1/sqrt(1 - y^2)), so a row's error is about
    eps sqrt(b_{L+1}) E(x) sum_j w_j E(x_j) |c_j|, one more vecdot.  A row
    where that exceeds (L + 2) eps times its value, and a point within
    _hit_radius of a node, take the kernel product sum_l p_l(x) p_l(x_j)
    instead, whose own rounding is about (L + 1) eps times sum_j w_j sum_l
    |p_l(x) p_l(x_j)|, no less than (L + 1) eps times the value.  Its rows
    are walked in blocks of _block_rows rows, with one ddot per entry, so
    that neither the blocks nor OpenBLAS's thread count, which change the
    bits of a GEMM row, change a bit.  At points 1 ulp to 1e-6 from the
    nodes of 600 random rules, N <= 300 and Jacobi exponents in (-0.9, 2],
    the function stayed within 5.3 (L + 2) eps of the kernel product's
    value.  Without the factor min(L + 1, ...), a row it let through 1e-6
    from a node of 132 Chebyshev points at L = 130 was 1600 (L + 2) eps
    off; with the products' rounding |p_{L+1}(x) p_L(x_j)| + |p_L(x)
    p_{L+1}(x_j)| in place of E(x) E(x_j), a point 1 ulp from a node of 12
    Chebyshev points at L = 4 came out 10 % low.  Both sides of the test
    scale with the weights, so a common power-of-two factor of the weights
    scales the function exactly.
    """
    spec, nodes, weights = rule.spec, rule.nodes, rule.weights

    def envelope(y, p_next, p):  # E(y) above
        return ((np.abs(p_next) + np.abs(p))
                / np.maximum(np.sqrt((1.0 - y) * (1.0 + y)), 1.0 / (L + 1)))

    by_node = np.empty((nodes.size, L + 2))  # row j: p_0(x_j), ..., p_{L+1}(x_j)
    for _ in _orthonormal_rows(spec, L + 1, nodes, out=by_node.T):
        pass
    minus = np.stack([weights * by_node[:, L], -(weights * by_node[:, L + 1])])
    node_scale = weights * envelope(nodes, by_node[:, L + 1], by_node[:, L])
    ring = np.empty((3, x.size))
    for _ in _orthonormal_rows(spec, L + 1, x, out=ring):
        pass
    pairs = np.stack([ring[(L + 1) % 3], ring[L % 3]], axis=1)  # [p_{L+1}(x), p_L(x)]
    del ring
    scale = envelope(x, pairs[:, 0], pairs[:, 1])
    root_b = math.sqrt(recurrence_coefficients(spec, L + 2).b[L + 1])
    # every term scale_i node_scale_j |c_j| stays under 2^1000
    radius = _hit_radius(node_scale) * max(1.0, float(np.max(scale)))
    hit_rows, _ = _node_hits(nodes, x, radius)
    out = np.empty(x.size)
    redo = np.zeros(x.size, dtype=bool)
    redo[hit_rows] = True

    def body(rows, cauchy):
        np.abs(cauchy, out=cauchy)
        numerators = np.matmul(pairs[rows], minus)
        value = np.vecdot(np.abs(numerators, out=numerators), cauchy)
        error = scale[rows] * np.vecdot(cauchy, node_scale)
        redo[rows] = ~(error <= (L + 2) * value)
        out[rows] = value * root_b

    _each_block(nodes, x, hit_rows, body)
    redo_rows = np.flatnonzero(redo)
    step = _block_rows(redo_rows.size, nodes.size)
    by_point = np.empty((step, L + 1))
    for start in range(0, redo_rows.size, step):
        rows = redo_rows[start:start + step]
        basis = by_point[:rows.size]
        for _ in _orthonormal_rows(spec, L, x[rows], out=basis.T):
            pass
        kernel = np.vecdot(basis[:, None, :], by_node[:, :L + 1])
        out[rows] = np.vecdot(np.abs(kernel, out=kernel), weights)
    return out


# the largest N Lambda(+-1) eps the quotient form is used with, Lambda(+-1)
# the Lebesgue function at x = +-1; jacobi(0.5, 0.5) at N = 2000 reads
# 8.9e-10.  A scan of f1 samples, max over 2001 points of |quotient form -
# fit and evaluate at L = N| / max |fit|, gave at most 0.24 N Lambda(+-1) eps
# at N >= 100 (2.8e-9 at jacobi(1, 1), N = 2000, refused) and 5.2 at N <= 40
# with Jacobi exponents in [-0.5, 20], the largest accepted error being 1.6e-9
# (jacobi(-0.5, 20), N = 7).  Exponents near -1 give 28 at -0.9 and 300 at
# -0.99, through the error of the rule's weights near that endpoint
_QUOTIENT_FORM_LIMIT = 1e-9


def _quotient_weights(rules) -> list:
    """_weights_gauss_rules(rules) for the quotient form, or ValueError at
    the first rule where it is unstable, N Lambda(+-1) eps over _QUOTIENT_FORM_LIMIT."""
    for rule in rules:
        peak = float(np.max(_lebesgue_function(rule, np.array([-1.0, 1.0]))))
        bound = rule.degree * peak * np.finfo(float).eps
        if bound > _QUOTIENT_FORM_LIMIT:
            raise ValueError(f"the quotient form is unstable in {len(rule)} {rule.spec.name} "
                             f"points (N = {rule.degree}): Lebesgue function {peak:.3g} "
                             f"at x = +-1, N Lambda eps = {bound:.3g}, over "
                             f"{_QUOTIENT_FORM_LIMIT:.3g}")
    return _weights_gauss_rules(rules)
