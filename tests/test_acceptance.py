"""End-to-end checks of the package's core guarantees.

Each test prints the quantities it measured, so a verbose run doubles as a
numerical report.

Criterion 8's second clause does not ask the shrunk interpolant of f1 to come
within a fixed tolerance of f1: no correct output can.  The classical
degree-60 interpolant of f1 at the 61 Chebyshev-Gauss nodes is 0.009788 from
f1 in the uniform norm on the dense grid (the kink at x = 0 sets this floor;
NumPy's chebinterpolate and SciPy's BarycentricInterpolator agree), so any
output that meets the first clause, tik = 1.2/(1+lambda) * classical, is at
least 0.009788 - 0.000395 * max|p| > 0.00957 from f1.  Even the best
approximation error of |x| at degree 60 is about 0.2802/60 = 4.7e-3
(Bernstein's constant).  The clause instead checks the package's interpolant
on the whole grid, x = +-1 and the node hit at x = 0 included, against one
computed outside the package with numpy.polynomial.chebyshev.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from oracles import normal_equations_oracle
from tikbary import regularized_fit
from tikbary.barycentric import (
    BarycentricData,
    interp_barycentric,
    interp_modified_lagrange,
    weights_gauss,
    weights_product,
)
from tikbary.basis import BasisSpec, eval_orthonormal
from tikbary.experiments import ExperimentConfig, run
from tikbary.metrics import (
    LAMBDA_STAR,
    bound_check_l2_noise,
    bound_check_stability,
    bound_check_uniform_noise,
    default_uniform_grid,
    l2_error,
    lebesgue_constant,
    truncation_surrogates,
)
from tikbary.quadrature import exactness_residual, gauss_rule
from tikbary.regularized_fit import (
    continuum_limit_fit,
    evaluate,
    fit,
    gram_matrix_residual,
)
from tikbary.signals import NoiseSpec, add_noise, derive_seed, f1, f3, make_generator

CHEB = BasisSpec.chebyshev1()
LEG = BasisSpec.legendre()
SPECS = (CHEB, LEG)
PAIRS = ((8, 8), (16, 32), (50, 50))
LAMBDAS = (0.0, 1e-2, LAMBDA_STAR, 1.0)


def test_criterion_01_gram_identity():
    start = time.perf_counter()
    worst = 0.0
    for spec in SPECS:
        for L, N in PAIRS + ((200, 200),):
            r = gram_matrix_residual(gauss_rule(spec, N + 1), L)
            print(f"gram residual {spec.name} L={L} N={N}: {r:.3e}")
            worst = max(worst, r)
    elapsed = time.perf_counter() - start
    print(f"worst {worst:.3e}, elapsed {elapsed:.2f} s")
    assert worst < 1e-11
    assert elapsed < 5.0


def test_criterion_02_closed_form_vs_dense_oracle():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for spec in SPECS:
        for L, N in PAIRS:
            rule = gauss_rule(spec, N + 1)
            for lam in LAMBDAS:
                for draw in range(2):
                    rng = make_generator(derive_seed(555, count))
                    samples = rng.uniform(-1.0, 1.0, N + 1)
                    beta = fit(rule, L, lam, samples).coefficients
                    ref = normal_equations_oracle(rule, L, lam, samples)
                    rel = np.max(np.abs(beta - ref)) / np.max(np.abs(ref))
                    worst = max(worst, rel)
                    count += 1
    elapsed = time.perf_counter() - start
    print(f"{count} configurations, worst relative deviation {worst:.3e}, "
          f"elapsed {elapsed:.2f} s")
    assert count == 48
    assert worst <= 1e-11
    assert elapsed < 10.0


def test_criterion_03_quadrature_exactness():
    start = time.perf_counter()
    worst = 0.0
    for spec in SPECS:
        for N in (4, 16, 64):
            r = exactness_residual(gauss_rule(spec, N + 1), 2 * N + 1)
            print(f"residual {spec.name} N={N} degree {2 * N + 1}: {r:.3e}")
            worst = max(worst, r)
    assert worst < 1e-11
    for N in (4, 16, 64):
        r = exactness_residual(gauss_rule(LEG, N + 1), 2 * N + 2)
        print(f"residual legendre N={N} degree {2 * N + 2}: {r:.3e}")
        assert r > 1e-6
    elapsed = time.perf_counter() - start
    print(f"elapsed {elapsed:.2f} s")
    assert elapsed < 5.0


def test_criterion_04_formula_equivalence_chain():
    start = time.perf_counter()
    worst = 0.0
    for spec in SPECS:
        for n in (16, 60, 200):
            rule = gauss_rule(spec, n + 1)
            vals = f1(rule.nodes)
            rng = make_generator(derive_seed(77, n))
            x = rng.uniform(-1.0, 1.0, 500)
            assert np.min(np.abs(x[:, None] - rule.nodes[None, :])) > 1e-12
            omega = weights_gauss(rule)
            for lam in (0.0, LAMBDA_STAR):
                data = BarycentricData(rule.nodes, omega, vals, lam)
                a = evaluate(fit(rule, n, lam, vals), x)
                b = interp_modified_lagrange(data, x)
                c = interp_barycentric(data, x)
                dev = max(np.max(np.abs(a - b)), np.max(np.abs(b - c)),
                          np.max(np.abs(a - c)))
                print(f"route deviation {spec.name} L=N={n} "
                      f"lambda={lam:.4g}: {dev:.3e}")
                worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    print(f"worst {worst:.3e}, elapsed {elapsed:.2f} s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_05_barycentric_weight_relation():
    start = time.perf_counter()
    worst = 0.0
    for spec in SPECS:
        for pts in (8, 61, 257):
            rule = gauss_rule(spec, pts)
            ratio = weights_gauss(rule) / weights_product(rule.nodes)
            med = np.median(ratio)
            dev = np.max(np.abs(ratio - med)) / abs(med)
            print(f"ratio deviation {spec.name} {pts} nodes: {dev:.3e}")
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    print(f"worst {worst:.3e}, elapsed {elapsed:.2f} s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_06_lebesgue_scaling():
    start = time.perf_counter()
    worst = 0.0
    for spec, L, N in ((CHEB, 32, 32), (LEG, 16, 32)):
        rule = gauss_rule(spec, N + 1)
        grid = default_uniform_grid(2001, 501)
        base = lebesgue_constant(rule, L, 0.0, grid=grid)
        for lam in (1e-2, LAMBDA_STAR, 1.0):
            scaled = lebesgue_constant(rule, L, lam, grid=grid) * (1.0 + lam)
            rel = abs(scaled - base) / base
            print(f"lebesgue scaling {spec.name} L={L} N={N} "
                  f"lambda={lam:.4g}: {rel:.3e}")
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    print(f"worst {worst:.3e}, elapsed {elapsed:.2f} s")
    assert worst <= 1e-13
    assert elapsed < 10.0


def test_criterion_07_regularized_projection_law():
    start = time.perf_counter()
    worst = 0.0
    grid = np.linspace(-1.0, 1.0, 1000)
    for spec in SPECS:
        rule = gauss_rule(spec, 41)
        basis_grid = eval_orthonormal(spec, 30, grid)
        basis_nodes = eval_orthonormal(spec, 30, rule.nodes)
        for trial in range(20):
            rng = make_generator(derive_seed(901, trial))
            coef = rng.uniform(-1.0, 1.0, 31)
            p_grid = coef @ basis_grid
            p_nodes = coef @ basis_nodes
            for lam in LAMBDAS:
                approx = fit(rule, 30, lam, p_nodes)
                dev = np.max(np.abs(evaluate(approx, grid)
                                    - p_grid / (1.0 + lam)))
                worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    print(f"20 polynomials per spec, worst uniform deviation {worst:.3e}, "
          f"elapsed {elapsed:.2f} s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_08_multiplicative_factor():
    start = time.perf_counter()
    rule = gauss_rule(CHEB, 61)
    clean = f1(rule.nodes)
    omega = weights_gauss(rule)
    grid = default_uniform_grid()
    tik = interp_barycentric(
        BarycentricData(rule.nodes, omega, 1.2 * clean, LAMBDA_STAR), grid)
    classical = interp_barycentric(
        BarycentricData(rule.nodes, omega, clean, 0.0), grid)
    factor = 1.2 / (1.0 + LAMBDA_STAR)
    dev_factor = np.max(np.abs(tik - factor * classical))
    dev_f1 = np.max(np.abs(tik - f1(grid)))
    elapsed = time.perf_counter() - start
    print(f"factor 1.2/(1+lambda) = {factor:.10f}")
    print(f"deviation from factor * classical interpolant: {dev_factor:.3e}")
    print(f"elapsed {elapsed:.2f} s")
    assert factor == pytest.approx(1.0004, abs=5e-5)
    assert dev_factor <= 1e-10
    assert elapsed < 2.0
    # A 5e-3 uniform ceiling on |tik - f1| is out of reach: the degree-60
    # interpolant of f1 is 0.009788 from f1 near the kink at x = 0, and the
    # first clause pins tik to 1.0004 times it (see the module docstring).
    # Check instead, on the same grid, that tik is 1.2/(1+lambda) times the
    # interpolant NumPy computes at the same nodes, and that its distance
    # from f1 is that reference's floor.  The reference is built after the
    # timing so the gate above still times the same work.
    np.testing.assert_allclose(rule.nodes, chebyshev.chebpts1(61),
                               rtol=0.0, atol=1e-15)
    p_ref = chebyshev.chebval(grid, chebyshev.chebinterpolate(f1, 60))
    dev_ref = np.max(np.abs(tik - factor * p_ref))
    floor_f1 = np.max(np.abs(factor * p_ref - f1(grid)))
    print(f"deviation from factor * NumPy interpolant: {dev_ref:.3e}")
    print(f"uniform deviation from f1 itself: {dev_f1:.6f}, "
          f"reference floor {floor_f1:.6f}, within 5e-3: {dev_f1 <= 5e-3}")
    assert dev_ref <= 1e-12
    assert abs(dev_f1 - floor_f1) <= 1e-12


def test_criterion_09_error_plateau():
    start = time.perf_counter()
    rule = gauss_rule(CHEB, 1001)
    samples = f3(rule.nodes)
    err_tik = l2_error(f3, fit(rule, 1000, LAMBDA_STAR, samples), rule)
    err_classical = l2_error(f3, fit(rule, 1000, 0.0, samples), rule)
    elapsed = time.perf_counter() - start
    print(f"noise-free f3, N=1000: tikhonov L2 error {err_tik:.6f}, "
          f"classical {err_classical:.3e}, elapsed {elapsed:.2f} s")
    assert 0.25 <= err_tik <= 0.35
    assert err_classical < 1e-6
    assert elapsed < 30.0


def test_criterion_10_noise_reduction_trend():
    start = time.perf_counter()
    rule = gauss_rule(CHEB, 201)
    clean = f1(rule.nodes)
    wins = 0
    improvements = []
    for trial in range(20):
        noise = NoiseSpec("additive-white-snr", derive_seed(12345, trial),
                          snr_db=5.0)
        noisy = add_noise(clean, noise)
        err_tik = l2_error(f1, fit(rule, 200, LAMBDA_STAR, noisy), rule)
        err_classical = l2_error(f1, fit(rule, 200, 0.0, noisy), rule)
        wins += err_tik < err_classical
        improvements.append((err_classical - err_tik) / err_classical)
    median = float(np.median(improvements))
    elapsed = time.perf_counter() - start
    print(f"tikhonov beats classical in {wins}/20 trials, "
          f"median improvement {100 * median:.1f}%, elapsed {elapsed:.2f} s")
    assert wins >= 17
    assert median >= 0.10
    assert elapsed < 60.0


def test_criterion_11_bound_verification():
    start = time.perf_counter()
    worst = {"stability": math.inf, "l2-noise": math.inf,
             "uniform-noise": math.inf, "uniform-clean": math.inf}

    def note(kind, check):
        worst[kind] = min(worst[kind], check.slack)
        assert check.passed, f"{kind} bound violated, slack {check.slack:.3e}"

    for spec in SPECS:
        for L, N in PAIRS:
            rule = gauss_rule(spec, N + 1)
            clean = f1(rule.nodes)
            grid = np.union1d(default_uniform_grid(), rule.nodes)
            surr = truncation_surrogates(spec, L, f1, grid=grid)
            for lam in LAMBDAS:
                leb = lebesgue_constant(rule, L, lam, grid=grid)
                clean_fit = fit(rule, L, lam, clean)
                note("uniform-clean", bound_check_uniform_noise(
                    f1, clean, clean_fit, rule, surr.e_uniform,
                    surr.p_star_inf, grid=grid, lebesgue=leb))
                for sidx in range(3):
                    noise = NoiseSpec("additive-white-snr",
                                      derive_seed(2026, sidx), snr_db=5.0)
                    noisy = add_noise(clean, noise)
                    approx = fit(rule, L, lam, noisy)
                    note("stability", bound_check_stability(approx, noisy))
                    note("l2-noise", bound_check_l2_noise(
                        f1, noisy, approx, rule, surr.e_uniform,
                        surr.p_star_l2))
                    note("uniform-noise", bound_check_uniform_noise(
                        f1, noisy, approx, rule, surr.e_uniform,
                        surr.p_star_inf, grid=grid, lebesgue=leb))
    elapsed = time.perf_counter() - start
    for kind, slack in worst.items():
        print(f"minimum slack, {kind}: {slack:.3f}")
    print(f"elapsed {elapsed:.2f} s")
    assert all(s >= -1e-9 for s in worst.values())
    assert elapsed < 60.0


def test_criterion_12_continuum_limit():
    start = time.perf_counter()
    limit = continuum_limit_fit(CHEB, 20, 0.0, f1)
    grid = default_uniform_grid()
    limit_grid = evaluate(limit, grid)
    distances = []
    for N in (20, 40, 80, 160):
        rule = gauss_rule(CHEB, N + 1)
        approx = fit(rule, 20, 0.0, f1(rule.nodes))
        distances.append(float(np.max(np.abs(evaluate(approx, grid)
                                              - limit_grid))))
    elapsed = time.perf_counter() - start
    print("distance to the continuum fit at N = 20, 40, 80, 160:",
          ", ".join(f"{d:.6f}" for d in distances))
    print(f"elapsed {elapsed:.2f} s")
    for a, b in zip(distances, distances[1:]):
        assert b < a + 1e-12
    assert elapsed < 10.0


def test_criterion_13_determinism(tmp_path):
    configs = [
        ExperimentConfig("fig3", fn="f3", out_dir=str(tmp_path / "a"),
                         l_values=(8, 16), n_values=(8, 16),
                         grid_equispaced=401, grid_chebyshev=101),
        ExperimentConfig("custom", out_dir=str(tmp_path / "b"),
                         l_values=(8,), n_values=(16,),
                         grid_equispaced=401, grid_chebyshev=101),
    ]
    for config in configs:
        first = {p: Path(p).read_bytes() for p in run(config)}
        regularized_fit._lebesgue_peak.cache_clear()
        regularized_fit._lambda_free_values.cache_clear()
        second = {p: Path(p).read_bytes() for p in run(config)}
        assert first == second
        print(f"{config.experiment}: {len(first)} files byte-identical "
              "across reruns")
