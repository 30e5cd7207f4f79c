"""Correctness of the workload outputs.

Every output table is checked twice:

* against an independent recomputation (`expected_tables`) for the run's
  seed: NumPy's Chebyshev and Legendre modules for rules and bases, the
  coefficient series instead of the barycentric formulas, SciPy's Airy
  function, and the noise regenerated from the documented seed derivation;
* for the seeds with a recorded reference (`references/`), against the
  values the program wrote at the commit that defined the benchmark.

The bounds workload has no table: each bound check is one operation and
fails on slack below -1e-9; its seed-free numbers (Lebesgue constants and
truncation surrogates) are compared with the default-seed reference on
every seed.
"""

import csv
import json
import math
import os

import numpy as np
from numpy.polynomial import chebyshev, legendre
from scipy.special import airy

# Against the recorded references: last-bit changes pass, any wrong result
# fails; replacing the Airy evaluator alone moves f2 by about 1e-12 relative.
RTOL, ATOL = 1e-9, 1e-12
# Against the recomputation, which is exact to ~1e-11 here.  The package's
# quotient-form evaluation at x = +-1, outside the hull of the Chebyshev
# nodes, amplifies the rounding of its barycentric weights: fig3 cells are off
# by up to 1.0e-8 relative (worst of 11 seeds measured), so this tolerance
# leaves a factor of 100.
RECOMPUTE_RTOL, RECOMPUTE_ATOL = 1e-6, 1e-10
SLACK_FLOOR = -1e-9
# tables longer than this are referenced by strided rows, column sums and maxima
DENSE_ROWS = 500
STRIDE = 500

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")


# -- the independent recomputation ---------------------------------------

FUNCTIONS = {
    "f1": lambda x: np.abs(x) + 0.5 * x - x * x,
    "f2": lambda x: airy(40.0 * x)[0],
    "f3": lambda x: np.tanh(20.0 * np.sin(12.0 * x)) + 0.02 * np.exp(3.0 * x) * np.sin(300.0 * x),
    "f1-plus-sin10x": lambda x: np.abs(x) + 0.5 * x - x * x + np.sin(10.0 * x),
}


def gauss(basis, points):
    if basis == "chebyshev1":
        # -cos((2j+1)pi/(2n)) as a sine: exactly mirror-symmetric nodes, the
        # same floats the package uses; a one-ulp node shift moves a degree-1000
        # noisy interpolant by ~1e-10 near the ends
        j = np.arange(points)
        nodes = np.sin((2.0 * j + 1.0 - points) * (math.pi / (2.0 * points)))
        return nodes, np.full(points, math.pi / points)
    nodes, _ = legendre.leggauss(points)
    # NumPy's own weights lose about 1e-9 relative at the ends for n ~ 600;
    # the Christoffel function 1 / sum_l phi_l(x)^2 keeps them to ~1e-13
    return nodes, 1.0 / np.sum(vander(basis, points - 1, nodes) ** 2, axis=1)


def vander(basis, L, x):
    """Orthonormal basis values, shape (len(x), L+1)."""
    if basis == "chebyshev1":
        v = chebyshev.chebvander(x, L)
        v[:, 0] /= math.sqrt(math.pi)
        v[:, 1:] *= math.sqrt(2.0 / math.pi)
        return v
    return legendre.legvander(x, L) * np.sqrt((2.0 * np.arange(L + 1) + 1.0) / 2.0)


def series(basis, coefficients, x, block=1024):
    """Columns of orthonormal coefficients (L+1, k) evaluated at x: (len(x), k)."""
    L = coefficients.shape[0] - 1
    return np.vstack([vander(basis, L, x[i:i + block]) @ coefficients
                      for i in range(0, x.size, block)])


def derive_seed(master, index):
    return int(np.random.SeedSequence([master, index]).generate_state(1, np.uint64)[0])


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def additive(samples, seed, snr_db):
    sigma = math.sqrt(float(np.mean(samples ** 2)) * 10.0 ** (-snr_db / 10.0))
    return samples + sigma * _rng(seed).standard_normal(samples.shape)


def multiplicative_factor(seed, c):
    rng = _rng(seed)
    r = rng.random()
    while r == 0.0:
        r = rng.random()
    return 1.0 + c * r


def uniform_grid(cfg):
    return np.union1d(np.linspace(-1.0, 1.0, cfg["grid_equispaced"]),
                      np.cos(np.linspace(np.pi, 0.0, cfg["grid_chebyshev"])))


def _l2_rule(basis, nodes, weights, L):
    if nodes.size >= 100 or max(nodes.size, 2 * L + 2) == nodes.size:
        return nodes, weights
    return gauss(basis, 2 * L + 2)


def _error_rows(cfg, f, grid, cells):
    """Rows [spec, L, N, lambda, seed, snr_db, err_u, err_2] for a list of
    cells (L, N, nodes, weights, samples, seed, snr) sharing a basis."""
    basis = cfg["basis"]
    f_grid = f(grid)
    lmax = max(c[0] for c in cells)
    coeffs = np.zeros((lmax + 1, len(cells)))
    for k, (L, N, nodes, weights, samples, _, _) in enumerate(cells):
        coeffs[:L + 1, k] = vander(basis, L, nodes).T @ (weights * samples)
    on_grid = series(basis, coeffs, grid)
    rows = []
    for k, (L, N, nodes, weights, samples, seed, snr) in enumerate(cells):
        l2_nodes, l2_weights = _l2_rule(basis, nodes, weights, L)
        if L == N and l2_nodes is nodes:
            on_l2 = samples  # an interpolant takes its samples at the nodes
        else:
            on_l2 = vander(basis, L, l2_nodes) @ coeffs[:L + 1, k]
        for lam in cfg["lambdas"]:
            err_u = float(np.max(np.abs(f_grid - on_grid[:, k] / (1.0 + lam))))
            resid = f(l2_nodes) - on_l2 / (1.0 + lam)
            err_2 = math.sqrt(float(np.sum(l2_weights * resid * resid)))
            rows.append([basis, L, N, lam, seed, snr, err_u, err_2])
    return rows


def _fig12(cfg, grid):
    basis, tables = cfg["basis"], {}
    for fname in ("f1", "f2"):
        f, cells = FUNCTIONS[fname], []
        if cfg["experiment"] == "fig1":
            pairs = [(L, cfg["n_values"][0]) for L in cfg["l_values"]]
        else:
            pairs = [(cfg["l_values"][0], N) for N in cfg["n_values"]]
        for i, (L, N) in enumerate(pairs):
            nodes, weights = gauss(basis, N + 1)
            seed = derive_seed(cfg["seed"], i)
            cells.append((L, N, nodes, weights,
                          additive(f(nodes), seed, cfg["snr_db"]), seed, cfg["snr_db"]))
        tables[f"{cfg['experiment']}_{fname}"] = _error_rows(cfg, f, grid, cells)
    return tables


def _fig3(cfg, grid):
    f, cells = FUNCTIONS[cfg["fn"]], []
    for i, N in enumerate(cfg["n_values"]):
        nodes, weights = gauss(cfg["basis"], N + 1)
        clean = f(nodes)
        seed = derive_seed(cfg["seed"], i)
        cells.append((N, N, nodes, weights, clean, None, None))
        cells.append((N, N, nodes, weights, additive(clean, seed, cfg["snr_db"]),
                      seed, cfg["snr_db"]))
    return {cfg["experiment"]: _error_rows(cfg, f, grid, cells)}


def _fig45(cfg, grid):
    basis, name, N = cfg["basis"], cfg["experiment"], cfg["n_values"][0]
    f = FUNCTIONS[cfg["fn"]]
    nodes, weights = gauss(basis, N + 1)
    clean = f(nodes)
    variants = [clean, 1.2 * clean]
    for idx, c in ((2, 0.3), (3, 0.4)):
        variants.append(clean * multiplicative_factor(derive_seed(cfg["seed"], idx), c))
    data = [[j, nodes[j]] + [v[j] for v in variants] for j in range(N + 1)]
    coeffs = vander(basis, N, nodes).T @ (weights[:, None] * np.column_stack(variants))
    on_grid = series(basis, coeffs, grid)
    f_grid = f(grid)
    curves = []
    for k in range(len(variants)):
        for lam in (0.0, cfg["lambdas"][-1]):
            curves.append(on_grid[:, k] / (1.0 + lam))
    return {
        f"{name}_data": data,
        f"{name}_curves": np.column_stack([grid, f_grid] + curves).tolist(),
        f"{name}_errors": np.column_stack(
            [grid] + [np.abs(c - f_grid) for c in curves]).tolist(),
    }


def expected_tables(cfgs):
    """Table name -> expected rows for the runs of a list of configs."""
    tables = {}
    for cfg in cfgs:
        grid = uniform_grid(cfg)
        if cfg["experiment"] in ("fig1", "fig2"):
            tables.update(_fig12(cfg, grid))
        elif cfg["experiment"] == "fig3":
            tables.update(_fig3(cfg, grid))
        else:
            tables.update(_fig45(cfg, grid))
    return tables


# -- comparisons ----------------------------------------------------------

def read_table(path):
    """(columns, rows) of a program CSV, '#' lines skipped, cells as str."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _cell(text):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def numeric_rows(rows):
    return [[_cell(c) for c in row] for row in rows]


def close(got, want, rtol=RTOL, atol=ATOL):
    if isinstance(want, float) or isinstance(got, float):
        if got is None or want is None or isinstance(got, str) or isinstance(want, str):
            return False
        return abs(got - want) <= max(rtol * abs(want), atol)
    return got == want


def compare_rows(got, want, what, rtol=RTOL, atol=ATOL):
    """Problems found comparing two row lists cell by cell (at most a few)."""
    if len(got) != len(want):
        return [f"{what}: {len(got)} rows, expected {len(want)}"]
    problems = []
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        if len(g_row) != len(w_row):
            problems.append(f"{what} row {i}: {len(g_row)} cells, expected {len(w_row)}")
            continue
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            if not close(g, w, rtol, atol):
                problems.append(f"{what} row {i} col {j}: {g!r}, expected {w!r}")
        if len(problems) >= 5:
            break
    return problems


def digest(rows):
    """What a reference keeps of a table: every row of a small one; strided
    rows plus per-column sums and maxima of a dense one."""
    if len(rows) <= DENSE_ROWS:
        return {"rows": rows}
    cols = np.array(rows, dtype=float)
    return {"strided": rows[::STRIDE] + [rows[-1]],
            "sums": cols.sum(axis=0).tolist(), "maxima": cols.max(axis=0).tolist()}


def compare_digest(got_rows, ref, what):
    mine = digest(got_rows)
    if mine.keys() != ref.keys():
        return [f"{what}: table size changed ({len(got_rows)} rows)"]
    problems = []
    for key in ref:
        want = ref[key] if key in ("rows", "strided") else [ref[key]]
        got = mine[key] if key in ("rows", "strided") else [mine[key]]
        problems += compare_rows(got, want, f"{what} {key}")
    return problems


def reference_path(workload, seed):
    return os.path.join(REFERENCE_DIR, f"{workload}-{seed}.json")


def load_reference(workload, seed):
    path = reference_path(workload, seed)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_table(name, columns, rows, expected, reference):
    """Problems with one program table; empty when it is correct."""
    got = numeric_rows(rows)
    problems = compare_rows(got, expected, f"{name} vs recomputation",
                            RECOMPUTE_RTOL, RECOMPUTE_ATOL)
    if reference is not None:
        ref = reference["tables"].get(name)
        if ref is None:
            problems.append(f"{name}: not in the reference")
        else:
            if columns != ref["columns"]:
                problems.append(f"{name}: columns {columns}, expected {ref['columns']}")
            problems += compare_digest(got, ref["digest"], f"{name} vs reference")
    return problems


def check_bounds(found, reference, seed_free_reference):
    """Per-check problem lists (one list per bound check) plus problems with
    the seed-free quantities."""
    per_check = []
    ref_checks = reference["checks"] if reference is not None else None
    for i, check in enumerate(found["checks"]):
        problems = []
        if check[7] < SLACK_FLOOR:
            problems.append(f"{check[0]} L={check[1]} N={check[2]}: slack {check[7]:.3e}")
        if ref_checks is not None:
            if i >= len(ref_checks):
                problems.append(f"check {i}: not in the reference")
            else:
                problems += compare_rows([check], [ref_checks[i]], f"check {i}")
        per_check.append(problems)
    if ref_checks is not None and len(ref_checks) != len(found["checks"]):
        per_check.append([f"{len(found['checks'])} checks, expected {len(ref_checks)}"])
    shared = []
    if seed_free_reference is not None:
        for key in ("lebesgue", "surrogates"):
            shared += compare_rows(found[key], seed_free_reference[key], key)
    return per_check, shared
