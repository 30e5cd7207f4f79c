"""Closed-form fitting against the dense solver, and the operator's norms.

The central claim under test: with Gauss nodes the penalized least-squares
coefficients are plain weighted sums shrunk by 1/(1+lambda), so fit must
reproduce the Cholesky-solved normal equations to rounding for every
combination of spec, degrees, and lambda.
"""

import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oracles import (kernel_lebesgue_digits, kernel_lebesgue_oracle, normal_equations_oracle,
                     per_column_values_oracle, quadrature_sums_oracle)
from tikbary import barycentric, regularized_fit
from tikbary.basis import BasisSpec, _orthonormal_rows, eval_orthonormal
from tikbary.metrics import (LAMBDA_STAR, bound_check_l2_noise, bound_check_stability,
                             bound_check_uniform_noise, default_uniform_grid,
                             truncation_surrogates)
from tikbary.quadrature import QuadratureRule, gauss_rule
from tikbary.regularized_fit import (
    RegularizedApproximant,
    check_lambda,
    continuum_limit_fit,
    default_lebesgue_grid,
    evaluate,
    fit,
    gram_matrix_residual,
    lebesgue_constant,
)
from tikbary.signals import NoiseSpec, add_noise, f1

CHEB = BasisSpec.chebyshev1()
LEG = BasisSpec.legendre()
LAMBDAS = (0.0, 1e-2, LAMBDA_STAR, 1.0)


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _random_polynomial(spec, degree, seed):
    coef = _rng(seed).uniform(-1.0, 1.0, degree + 1)
    return RegularizedApproximant(spec, degree, 0.0, coef)


class TestFitVsOracle:
    @pytest.mark.parametrize("spec", [CHEB, LEG], ids=["chebyshev1", "legendre"])
    @pytest.mark.parametrize("L,N", [(8, 8), (16, 32), (50, 50)])
    def test_matches_dense_solver(self, spec, L, N):
        rule = gauss_rule(spec, N + 1)
        samples = _rng(1000 + L + N).uniform(-1.0, 1.0, N + 1)
        for lam in LAMBDAS:
            got = fit(rule, L, lam, samples).coefficients
            ref = normal_equations_oracle(rule, L, lam, samples)
            assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_degree_zero_oracle_formula(self):
        rule = gauss_rule(LEG, 12)
        samples = _rng(2).uniform(-1.0, 1.0, 12)
        for lam in (0.0, 0.5):
            expected = np.sum(rule.weights * samples) / math.sqrt(rule.mass) \
                / (1.0 + lam)
            got = normal_equations_oracle(rule, 0, lam, samples)
            assert got[0] == pytest.approx(expected, rel=1e-13)
            assert fit(rule, 0, lam, samples).coefficients[0] == pytest.approx(
                expected, rel=1e-13)


class TestCoefficients:
    def test_constant_samples(self):
        for spec in (CHEB, LEG):
            rule = gauss_rule(spec, 9)
            approx = fit(rule, 3, 0.5, np.ones(9))
            expected = np.array([math.sqrt(spec.mass) / 1.5, 0.0, 0.0, 0.0])
            np.testing.assert_allclose(approx.coefficients, expected,
                                       rtol=1e-14, atol=1e-15)

    def test_basis_function_recovery(self):
        rule = gauss_rule(CHEB, 11)
        samples = eval_orthonormal(CHEB, 2, rule.nodes)[2]
        beta = fit(rule, 6, 0.0, samples).coefficients
        expected = np.zeros(7)
        expected[2] = 1.0
        np.testing.assert_allclose(beta, expected, rtol=1e-13, atol=1e-14)

    def test_shrinkage_factor_across_lambdas(self):
        rule = gauss_rule(LEG, 25)
        samples = _rng(3).uniform(-1.0, 1.0, 25)
        base = fit(rule, 20, 0.0, samples).coefficients
        for lam in (1e-2, LAMBDA_STAR, 1.0):
            scaled = fit(rule, 20, lam, samples).coefficients * (1.0 + lam)
            assert np.max(np.abs(scaled - base)) <= 1e-13 * np.max(np.abs(base))

    def test_linearity(self):
        rule = gauss_rule(CHEB, 17)
        rng = _rng(4)
        fs = rng.uniform(-1.0, 1.0, 17)
        gs = rng.uniform(-1.0, 1.0, 17)
        combo = fit(rule, 10, LAMBDA_STAR, 2.5 * fs - 0.7 * gs).coefficients
        parts = 2.5 * fit(rule, 10, LAMBDA_STAR, fs).coefficients \
            - 0.7 * fit(rule, 10, LAMBDA_STAR, gs).coefficients
        np.testing.assert_allclose(combo, parts, rtol=0, atol=1e-12)

    def test_stability_bound(self):
        for spec in (CHEB, LEG):
            rule = gauss_rule(spec, 33)
            samples = _rng(5).uniform(-2.0, 2.0, 33)
            cap = math.sqrt(spec.mass) * np.max(np.abs(samples))
            for lam in LAMBDAS:
                approx = fit(rule, 32, lam, samples)
                assert approx.l2_norm <= cap / (1.0 + lam) + 1e-12


class TestCoefficientOracle:
    """fit at lambda = 0 against the coefficient sums sum_j w_j p_l(x_j) f_j
    at 50 digits, on the package's float rule and f1 samples at L = N.

    The bound is c eps sum_j |w_j p_l(x_j) f_j|.  The largest ratio measured
    was 7.6 for Legendre (l = 487) and 2.7e4 at the jacobi(20, -0.9) corner
    (l = 300), where the float basis rows near -1 carry the recurrence error
    that TestExactnessOracle of test_quadrature measures; c leaves a factor
    of about two to four."""

    @pytest.mark.parametrize("spec, pts, c", [(LEG, 601, 16.0),
                                              (BasisSpec(20.0, -0.9), 301, 8e4)],
                             ids=["legendre", "jacobi20_m0.9"])
    def test_against_50_digits(self, spec, pts, c):
        rule = gauss_rule(spec, pts)
        samples = f1(rule.nodes)
        sums, scales = quadrature_sums_oracle(rule, rule.degree, samples=samples)
        beta = fit(rule, rule.degree, 0.0, samples).coefficients
        eps = np.finfo(float).eps
        assert np.all(np.abs(beta - sums) <= c * eps * scales)


class TestEvaluate:
    def test_interpolation_reproduces_polynomial(self):
        for spec in (CHEB, LEG):
            p = _random_polynomial(spec, 12, 6)
            rule = gauss_rule(spec, 13)
            approx = fit(rule, 12, 0.0, evaluate(p, rule.nodes))
            x = _rng(7).uniform(-1.0, 1.0, 100)
            np.testing.assert_allclose(evaluate(approx, x), evaluate(p, x),
                                       rtol=0, atol=1e-10)

    def test_polynomial_inputs_are_shrunk_pointwise(self):
        grid = np.linspace(-1.0, 1.0, 200)
        for spec in (CHEB, LEG):
            rule = gauss_rule(spec, 15)
            for lam in LAMBDAS:
                for seed in range(5):
                    p = _random_polynomial(spec, 10, 80 + seed)
                    approx = fit(rule, 10, lam, evaluate(p, rule.nodes))
                    dev = np.abs(evaluate(approx, grid)
                                 - evaluate(p, grid) / (1.0 + lam))
                    assert np.max(dev) < 1e-9

    def test_scalar_matches_array(self):
        approx = _random_polynomial(LEG, 5, 8)
        assert evaluate(approx, 0.3) == evaluate(approx, np.array([0.3]))[0]
        assert callable(approx)
        assert approx(0.3) == evaluate(approx, 0.3)


# Jacobi exponents in (-1, 5]
_EXPONENTS = st.floats(min_value=-1.0, max_value=5.0, exclude_min=True)
_SEEDS = st.integers(0, 2**32 - 1)


def _block_rows(k):
    """Rows per block of _blocked_values for k columns."""
    return regularized_fit._BLOCK_ENTRIES // (k + regularized_fit._DEGREE_CHUNK)


def _term_scale(spec, coefficients, x):
    """Per column, max over x of sum_l |beta_l p_l(x)|: the size of the terms
    a sum of the column's values adds, so rounding scales with it."""
    rows = eval_orthonormal(spec, coefficients.shape[0] - 1, x)
    return np.max(np.abs(coefficients).T @ np.abs(rows), axis=1)


def _assert_columns_close(spec, coefficients, x, got, want, scale=1.0):
    """Each column of got within 1e-13 of want, relative to the column's
    _term_scale times scale.  The terms' sum cancels: with uniform(-1, 1)
    coefficients at L = 300 and exponents near 5, the blocked and the
    per-column sums differed by up to 9.4e-14 of max |p| but never by more
    than 3e-16 of this scale."""
    bound = 1e-13 * scale * _term_scale(spec, coefficients, x)
    assert got.shape == want.shape
    assert np.all(np.max(np.abs(got - want), axis=1) <= bound)


class TestBlockedValues:
    """regularized_fit._blocked_values against the degree-by-degree sum."""

    @settings(max_examples=60, deadline=None)
    @given(a=_EXPONENTS, b=_EXPONENTS, L=st.integers(0, 300), k=st.integers(1, 12),
           n=st.integers(1, 200), ends=st.booleans(), seed=_SEEDS)
    def test_matches_the_per_column_sum(self, a, b, L, k, n, ends, seed):
        spec = BasisSpec(a, b)
        rng = _rng(seed)
        coefficients = rng.uniform(-1.0, 1.0, (L + 1, k))
        x = rng.uniform(-1.0, 1.0, n)
        if ends:  # where the basis is largest
            x[:2] = (-1.0, 1.0)[:n]
        got = regularized_fit._values(spec, coefficients, x)
        _assert_columns_close(spec, coefficients, x, got,
                              per_column_values_oracle(spec, coefficients, x))

    @pytest.mark.parametrize("terms", [15, 16, 17])
    @pytest.mark.parametrize("size", ["one", "rows - 1", "rows", "rows + 1"])
    @settings(max_examples=4, deadline=None)
    @given(a=_EXPONENTS, b=_EXPONENTS, k=st.integers(1, 12), seed=_SEEDS)
    def test_chunk_and_block_edges(self, terms, size, a, b, k, seed):
        # L + 1 on either side of one degree chunk, |x| on either side of
        # one row block
        spec = BasisSpec(a, b)
        rows = _block_rows(k)
        n = {"one": 1, "rows - 1": rows - 1, "rows": rows, "rows + 1": rows + 1}[size]
        rng = _rng(seed)
        coefficients = rng.uniform(-1.0, 1.0, (terms, k))
        x = rng.uniform(-1.0, 1.0, n)
        blocks = list(regularized_fit._blocked_values(spec, coefficients, x))
        assert [start for start, _ in blocks] == list(range(0, n, rows))
        got = np.concatenate([values for _, values in blocks], axis=1)
        _assert_columns_close(spec, coefficients, x, got,
                              per_column_values_oracle(spec, coefficients, x))

    @settings(max_examples=40, deadline=None)
    @given(a=_EXPONENTS, b=_EXPONENTS,
           degrees=st.lists(st.integers(0, 300), min_size=1, max_size=12),
           n=st.integers(1, 200), seed=_SEEDS)
    def test_zero_padded_column_is_the_column_alone(self, a, b, degrees, n, seed):
        # the partial-sum identity: padding a degree-L column with zeros to
        # the matrix's degree leaves its values those of the degree-L sum
        spec = BasisSpec(a, b)
        rng = _rng(seed)
        coefficients = np.zeros((max(degrees) + 1, len(degrees)))
        for c, L in enumerate(degrees):
            coefficients[:L + 1, c] = rng.uniform(-1.0, 1.0, L + 1)
        x = rng.uniform(-1.0, 1.0, n)
        got = regularized_fit._values(spec, coefficients, x)
        alone = np.array([evaluate(RegularizedApproximant(spec, L, 0.0,
                                                          coefficients[:L + 1, c]), x)
                          for c, L in enumerate(degrees)])
        _assert_columns_close(spec, coefficients, x, got, alone)

    @settings(max_examples=30, deadline=None)
    @given(a=_EXPONENTS, b=_EXPONENTS, L=st.integers(0, 300), extra=st.integers(0, 40),
           lam=st.floats(min_value=0.0, max_value=10.0), seed=_SEEDS)
    def test_values_shrink_by_one_plus_lambda(self, a, b, L, extra, lam, seed):
        spec = BasisSpec(a, b)
        try:
            rule = gauss_rule(spec, L + extra + 1)
        except ValueError as err:
            # exponents very near -1 put the outermost node nearer to +-1
            # than a double can hold, and no rule exists
            if "rounds to -1 or 1" not in str(err):
                raise
            reject()
        rng = _rng(seed)
        samples = rng.uniform(-1.0, 1.0, len(rule))
        x = rng.uniform(-1.0, 1.0, 100)
        plain = fit(rule, L, 0.0, samples)
        shrunk = evaluate(fit(rule, L, lam, samples), x)
        _assert_columns_close(spec, plain.coefficients[:, None], x, shrunk[None],
                              evaluate(plain, x)[None] / (1.0 + lam), 1.0 / (1.0 + lam))

    def test_empty_points_give_one_empty_block(self):
        blocks = list(regularized_fit._blocked_values(LEG, np.ones((3, 2)), np.empty(0)))
        assert len(blocks) == 1 and blocks[0][0] == 0
        assert blocks[0][1].shape == (2, 0)
        assert evaluate(_random_polynomial(LEG, 4, 9), np.empty((0, 3))).shape == (0, 3)


class TestValidation:
    def test_fit_preconditions(self):
        rule = gauss_rule(LEG, 9)
        good = np.zeros(9)
        with pytest.raises(ValueError):
            fit(rule, 9, 0.0, good)  # L exceeds N = 8
        with pytest.raises(ValueError):
            fit(rule, -1, 0.0, good)
        with pytest.raises(ValueError):
            fit(rule, 4, -0.1, good)
        with pytest.raises(ValueError):
            fit(rule, 4, 0.0, np.zeros(8))
        bad = good.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError):
            fit(rule, 4, 0.0, bad)

    @pytest.mark.parametrize("entry", [
        lambda rule, L: fit(rule, L, 0.0, np.zeros(len(rule))),
        lambda rule, L: lebesgue_constant(rule, L, 0.0),
        gram_matrix_residual,
    ], ids=["fit", "lebesgue_constant", "gram_matrix_residual"])
    @pytest.mark.parametrize("degree", [2.0, True, -1, 9],
                             ids=["float", "bool", "negative", "above-N"])
    def test_one_degree_check(self, entry, degree):
        # fit(rule, 2.0, ...) raised TypeError inside np.zeros,
        # lebesgue_constant took True as L = 1 and 4.0 as L = 4
        with pytest.raises(ValueError, match=r"degree L must be an integer in 0\.\.N = 0\.\.8, "
                                             f"got {degree!r}$"):
            entry(gauss_rule(LEG, 9), degree)

    def test_approximant_shape_check(self):
        with pytest.raises(ValueError):
            RegularizedApproximant(LEG, 3, 0.0, np.zeros(3))
        with pytest.raises(ValueError):
            RegularizedApproximant(LEG, 3, -1.0, np.zeros(4))

    @pytest.mark.parametrize("degree,coefficients", [
        (-1, np.zeros(0)), (2.0, np.zeros(3)), (True, np.zeros(2)), ("2", np.zeros(3)),
    ], ids=["negative", "float", "bool", "str"])
    def test_approximant_rejects_a_degree_that_is_no_integer_ge_0(self, degree,
                                                                 coefficients):
        # degree -1 with no coefficients, and degree 2.0 with three, were
        # accepted, and evaluate then raised a bare IndexError or TypeError
        with pytest.raises(ValueError, match="degree must be an integer >= 0"):
            RegularizedApproximant(LEG, degree, 0.0, coefficients)

    def test_approximant_accepts_numpy_integer_degrees(self):
        approx = RegularizedApproximant(LEG, np.int64(3), 0.0, np.ones(4))
        assert evaluate(approx, 1.0) == evaluate(
            RegularizedApproximant(LEG, 3, 0.0, np.ones(4)), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_approximant_rejects_non_finite_coefficients(self, bad):
        # evaluate and l2_norm returned NaN for them
        coefficients = np.zeros(4)
        coefficients[2] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            RegularizedApproximant(LEG, 3, 0.0, coefficients)

    def test_approximant_rejects_coefficients_that_overflow_times_one_plus_lambda(self):
        # the lambda-free coefficients are coefficients * (1 + lambda)
        RegularizedApproximant(LEG, 0, 0.0, np.array([1e308]))
        with pytest.raises(ValueError, match="also times 1 \\+ lambda"):
            RegularizedApproximant(LEG, 0, 1.0, np.array([1e308]))

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_nonfinite_lambda_is_rejected(self, lam):
        rule = gauss_rule(LEG, 9)
        with pytest.raises(ValueError, match="finite"):
            fit(rule, 4, lam, np.zeros(9))
        with pytest.raises(ValueError, match="finite"):
            RegularizedApproximant(LEG, 3, lam, np.zeros(4))

    def test_check_lambda(self):
        for good in (0, 0.0, np.float64(LAMBDA_STAR), 1e300):
            check_lambda(good)
        for bad in (-1e-300, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite and >= 0"):
                check_lambda(bad)


class TestGramResidual:
    @pytest.mark.parametrize("spec", [CHEB, LEG], ids=["chebyshev1", "legendre"])
    @pytest.mark.parametrize("L,N", [(16, 16), (32, 32), (16, 32)])
    def test_discrete_orthonormality(self, spec, L, N):
        assert gram_matrix_residual(gauss_rule(spec, N + 1), L) < 1e-12

    def test_generic_weight(self):
        assert gram_matrix_residual(gauss_rule(BasisSpec(0.3, -0.25), 21), 10) \
            < 1e-12

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            gram_matrix_residual(gauss_rule(LEG, 4), 4)


class TestContinuumLimit:
    def test_polynomial_coefficients_recovered(self):
        def f(x):
            return eval_orthonormal(CHEB, 3, x)[3]

        for lam in (0.0, LAMBDA_STAR):
            approx = continuum_limit_fit(CHEB, 5, lam, f)
            expected = np.zeros(6)
            expected[3] = 1.0 / (1.0 + lam)
            np.testing.assert_allclose(approx.coefficients, expected,
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("spec,L,lam", [(CHEB, 5, 0.0), (LEG, 12, LAMBDA_STAR)],
                             ids=["chebyshev1", "legendre"])
    def test_is_the_fit_on_a_rule_of_4L_plus_16_points(self, spec, L, lam):
        # a rule of 4L + 17 points gives other bits
        rule = gauss_rule(spec, 4 * L + 16)
        want = fit(rule, L, lam, f1(rule.nodes)).coefficients
        assert continuum_limit_fit(spec, L, lam, f1).coefficients.tobytes() \
            == want.tobytes()

    def test_fits_approach_the_limit(self):
        limit = continuum_limit_fit(CHEB, 20, 0.0, f1)
        errs = []
        for n in (20, 40, 80):
            rule = gauss_rule(CHEB, n + 1)
            beta = fit(rule, 20, 0.0, f1(rule.nodes)).coefficients
            errs.append(np.max(np.abs(beta - limit.coefficients)))
        assert errs[0] > errs[1] > errs[2]



class TestLebesgueConstant:
    def test_degree_zero_is_one(self):
        for spec in (CHEB, LEG):
            rule = gauss_rule(spec, 15)
            assert lebesgue_constant(rule, 0, 0.0) == pytest.approx(
                1.0, abs=1e-14)

    def test_shrinkage_scaling_same_grid(self):
        for spec, L, N in ((CHEB, 32, 32), (LEG, 16, 32)):
            rule = gauss_rule(spec, N + 1)
            base = lebesgue_constant(rule, L, 0.0)
            for lam in (1e-2, LAMBDA_STAR, 1.0):
                assert lebesgue_constant(rule, L, lam) == base / (1.0 + lam)

    def test_logarithmic_growth(self):
        # log growth: increasing, increments over doublings stay under
        # (2/pi) ln 2, and increments over equal arithmetic steps shrink
        values = {}
        for n in (8, 16, 32, 36, 64):
            rule = gauss_rule(CHEB, n + 1)
            values[n] = lebesgue_constant(rule, n, 0.0)
        doubling = [values[16] - values[8], values[32] - values[16],
                    values[64] - values[32]]
        assert values[8] < values[16] < values[32] < values[64]
        assert all(0.0 < d < 2.0 / math.pi * math.log(2.0) for d in doubling)
        assert values[64] - values[36] < values[36] - values[8]

    def test_grid_superset_can_only_increase(self):
        rule = gauss_rule(LEG, 13)
        coarse = np.linspace(-1.0, 1.0, 101)
        fine = np.union1d(coarse, default_lebesgue_grid(rule))
        assert lebesgue_constant(rule, 12, 0.0, grid=coarse) <= \
            lebesgue_constant(rule, 12, 0.0, grid=fine)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            lebesgue_constant(gauss_rule(LEG, 5), 4, 0.0, grid=np.array([]))

    @pytest.mark.parametrize("lam,grid", [
        (float("nan"), None),
        (-0.5, None),
        (0.0, np.array([-1.0, 0.0, 3.0])),
        (0.0, np.array([-1.0, float("nan"), 1.0])),
        (0.0, np.array([-float("inf"), 0.0])),
    ], ids=["nan-lambda", "negative-lambda", "outside-grid", "nan-grid", "inf-grid"])
    @pytest.mark.parametrize("L", [4, 6], ids=["L<N", "L=N"])
    def test_rejects_bad_inputs(self, lam, grid, L):
        # before validation these returned nan, twice the constant, 2.7e30
        # and a constant with the NaN point silently dropped
        with pytest.raises(ValueError):
            lebesgue_constant(gauss_rule(LEG, 7), L, lam, grid=grid)

    @pytest.mark.parametrize("L", [-1, 7])
    def test_rejects_degree_outside_rule(self, L):
        with pytest.raises(ValueError, match="0..N"):
            lebesgue_constant(gauss_rule(LEG, 7), L, 0.0)


class TestLambdaFreeMemo:
    """lebesgue_constant caches its lambda = 0 result per input, and fit
    computes its sums afresh on every call; a warm call must give the bits
    of a cold one, a changed input must never get a stale result, and
    threads must not break the cache."""

    def test_fit_recomputes_and_evaluate_hits_at_lambda_star(self, monkeypatch):
        # the bound checks' pattern: fit and evaluate at lambda = 0, then at
        # lambda*.  Each fit runs the recurrence over the nodes, and the
        # lambda-free sums of the two are the same bytes, so the lambda*
        # values come from evaluate's cache: no recurrence over the grid
        swept = []

        def spy(spec, L, x, **kwargs):
            swept.append(x.size)
            return _orthonormal_rows(spec, L, x, **kwargs)

        monkeypatch.setattr(regularized_fit, "_orthonormal_rows", spy)
        rule = gauss_rule(CHEB, 41)
        samples = _rng(21).uniform(-1.0, 1.0, 41)
        grid = np.union1d(np.linspace(-1.0, 1.0, 301), rule.nodes)
        plain = fit(rule, 30, 0.0, samples)
        again = fit(rule, 30, 0.0, samples)
        assert swept == [41, 41]
        assert again.coefficients.tobytes() == plain.coefficients.tobytes()
        assert again._lambda_free.tobytes() == plain._lambda_free.tobytes()
        base = evaluate(plain, grid)
        shrunk = fit(rule, 30, LAMBDA_STAR, samples)
        assert shrunk._lambda_free.tobytes() == plain._lambda_free.tobytes()
        hits = regularized_fit._lambda_free_values.cache_info().hits
        values = evaluate(shrunk, grid)
        assert swept == [41, 41, grid.size, 41]
        assert regularized_fit._lambda_free_values.cache_info().hits == hits + 1
        assert values.tobytes() == (base / (1.0 + LAMBDA_STAR)).tobytes()

    @pytest.mark.parametrize("L", [12, 20], ids=["L<N", "L=N"])
    def test_warm_lebesgue_is_bitwise_cold(self, L):
        rule = gauss_rule(LEG, 21)
        cold = lebesgue_constant(rule, L, LAMBDA_STAR)
        regularized_fit._lebesgue_peak.cache_clear()
        lebesgue_constant(rule, L, 0.0)
        warm = lebesgue_constant(rule, L, LAMBDA_STAR)
        assert regularized_fit._lebesgue_peak.cache_info()[:2] == (1, 1)
        assert warm.hex() == cold.hex()

    def test_samples_changed_in_place_are_refitted(self):
        rule = gauss_rule(CHEB, 17)
        samples = _rng(22).uniform(-1.0, 1.0, 17)
        before = fit(rule, 10, 0.0, samples).coefficients
        samples[3] += 0.5
        after = fit(rule, 10, 0.0, samples).coefficients
        want = fit(rule, 10, 0.0, samples.copy()).coefficients
        assert after.tobytes() == want.tobytes()
        assert not np.array_equal(after, before)

    def test_returned_coefficients_belong_to_the_caller(self):
        rule = gauss_rule(CHEB, 17)
        samples = _rng(23).uniform(-1.0, 1.0, 17)
        first = fit(rule, 10, 0.0, samples).coefficients
        want = first.copy()
        first[:] = 7.0
        assert fit(rule, 10, 0.0, samples).coefficients.tobytes() == want.tobytes()

    def test_weights_are_part_of_the_key(self):
        # doubling the weights doubles every sum against them, exactly
        rule = gauss_rule(LEG, 21)
        heavy = QuadratureRule(rule.spec, rule.nodes, 2.0 * rule.weights)
        samples = _rng(24).uniform(-1.0, 1.0, 21)
        beta = fit(rule, 12, 0.0, samples).coefficients
        assert fit(heavy, 12, 0.0, samples).coefficients.tobytes() \
            == (2.0 * beta).tobytes()
        assert lebesgue_constant(heavy, 12, 0.0) == 2.0 * lebesgue_constant(rule, 12, 0.0)

    def test_warm_calls_still_validate(self):
        rule = gauss_rule(LEG, 9)
        samples = _rng(25).uniform(-1.0, 1.0, 9)
        fit(rule, 4, 0.0, samples)
        lebesgue_constant(rule, 4, 0.0)
        with pytest.raises(ValueError, match="finite"):
            fit(rule, 4, math.nan, samples)
        with pytest.raises(ValueError, match="finite"):
            lebesgue_constant(rule, 4, math.nan)
        bad = samples.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit(rule, 4, 0.0, bad)
        with pytest.raises(ValueError, match="does not match"):
            fit(rule, 4, 0.0, samples[:8])

    def test_holds_at_most_16_entries_dropping_the_oldest(self):
        rule = gauss_rule(CHEB, 9)

        def grid(k):
            return np.linspace(-1.0, 1.0 - 0.01 * k, 9)

        for k in range(20):
            lebesgue_constant(rule, 4, 0.0, grid=grid(k))
        info = regularized_fit._lebesgue_peak.cache_info()
        assert info.currsize == info.maxsize == 16
        lebesgue_constant(rule, 4, 0.0, grid=grid(19))
        assert regularized_fit._lebesgue_peak.cache_info().hits == info.hits + 1
        lebesgue_constant(rule, 4, 0.0, grid=grid(0))
        assert regularized_fit._lebesgue_peak.cache_info().misses == info.misses + 1

    def test_threads_get_the_bits_of_a_single_thread(self):
        # 8 threads, each on inputs of its own, switched every microsecond:
        # far more distinct keys than entries, so entries are evicted while
        # other threads look theirs up
        rule = gauss_rule(LEG, 13)

        def rounds(t):
            for r in range(100):
                k = 100 * t + r
                yield k % 13, np.full(13, float(k)), np.linspace(-1.0, 1.0 - 1e-4 * k, 33)

        def at_lambda_star(L, samples, grid):
            return (fit(rule, L, LAMBDA_STAR, samples).coefficients.tobytes(),
                    lebesgue_constant(rule, L, LAMBDA_STAR, grid=grid).hex())

        def results(t):
            out = []
            for L, samples, grid in rounds(t):
                fit(rule, L, 0.0, samples)
                lebesgue_constant(rule, L, 0.0, grid=grid)
                out.append(at_lambda_star(L, samples, grid))
            return out

        # every key is new, so every call here is a cold one
        cold = [at_lambda_star(*args) for t in range(8) for args in rounds(t)]
        regularized_fit._lebesgue_peak.cache_clear()
        got, errors = [None] * 8, []

        def worker(t):
            try:
                got[t] = results(t)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert [pair for out in got for pair in out] == cold


class TestLambdaFreeValues:
    """evaluate keeps the lambda = 0 values of the approximant's lambda-free
    coefficients per x and divides them by (1 + lambda) last: the output at
    lambda must be the lambda = 0 output times 1/(1+lambda), bit for bit, a
    warm call must give the bits of a cold one, and a changed x must never
    get stale values."""

    @pytest.mark.parametrize("spec", [CHEB, LEG], ids=["chebyshev1", "legendre"])
    def test_output_at_lambda_is_the_lambda_free_output_shrunk(self, spec):
        # the coefficients times (1 + lambda) are not the lambda = 0 sums bit
        # for bit, so fit must hand evaluate its sums
        rule = gauss_rule(spec, 41)
        x = _rng(30).uniform(-1.0, 1.0, (7, 11))
        for seed in range(4):
            samples = _rng(31 + seed).uniform(-1.0, 1.0, 41)
            for L in (12, 40):
                base = evaluate(fit(rule, L, 0.0, samples), x)
                for lam in LAMBDAS:
                    regularized_fit._lambda_free_values.cache_clear()
                    cold = evaluate(fit(rule, L, lam, samples), x)
                    assert cold.tobytes() == (base / (1.0 + lam)).tobytes()

    def test_fit_carries_its_lambda_free_sums(self):
        rule = gauss_rule(CHEB, 33)
        samples = _rng(35).uniform(-1.0, 1.0, 33)
        sums = fit(rule, 20, 0.0, samples).coefficients
        approx = fit(rule, 20, LAMBDA_STAR, samples)
        assert approx._lambda_free.tobytes() == sums.tobytes()
        assert approx(0.25) == evaluate(fit(rule, 20, 0.0, samples), 0.25) \
            / (1.0 + LAMBDA_STAR)

    def test_direct_approximant_uses_coefficients_times_one_plus_lambda(self):
        # exact at lambda = 0, where the values are the coefficients' own sum
        coefficients = _rng(36).uniform(-1.0, 1.0, 31)
        x = np.linspace(-1.0, 1.0, 257)
        plain = RegularizedApproximant(LEG, 30, 0.0, coefficients)
        assert evaluate(plain, x).tobytes() \
            == regularized_fit._values(LEG, coefficients[:, None], x)[0].tobytes()
        shrunk = RegularizedApproximant(LEG, 30, LAMBDA_STAR, coefficients)
        scaled = RegularizedApproximant(LEG, 30, 0.0, coefficients * (1.0 + LAMBDA_STAR))
        assert evaluate(shrunk, x).tobytes() \
            == (evaluate(scaled, x) / (1.0 + LAMBDA_STAR)).tobytes()

    @pytest.mark.parametrize("lam", [0.0, LAMBDA_STAR])
    def test_warm_values_are_bitwise_cold_and_belong_to_the_caller(self, lam):
        rule = gauss_rule(CHEB, 33)
        approx = fit(rule, 20, lam, _rng(37).uniform(-1.0, 1.0, 33))
        grid = np.linspace(-1.0, 1.0, 501)
        first = evaluate(approx, grid)
        cold = first.tobytes()
        first[:] = 7.0
        warm = evaluate(approx, grid)
        assert regularized_fit._lambda_free_values.cache_info()[:2] == (1, 1)
        assert warm.tobytes() == cold
        assert warm.flags.writeable and warm is not first

    def test_points_changed_in_place_are_evaluated_afresh(self):
        rule = gauss_rule(LEG, 21)
        approx = fit(rule, 20, LAMBDA_STAR, _rng(38).uniform(-1.0, 1.0, 21))
        x = np.linspace(-1.0, 1.0, 101)
        before = evaluate(approx, x)
        x[3] = 0.123
        warm = evaluate(approx, x)
        regularized_fit._lambda_free_values.cache_clear()
        cold = evaluate(approx, x)
        assert warm.tobytes() == cold.tobytes()
        assert warm[3] != before[3]
        np.testing.assert_array_equal(np.delete(warm, 3), np.delete(before, 3))

    def test_bound_checks_evaluate_each_vector_once_per_points(self):
        # the loop of the bound checks: per rule, the truncation surrogate,
        # then at both lambdas the clean fit on the grid and three noisy fits
        # on the grid and at the nodes.  Eight distinct (vector, points)
        # pairs per rule, seven of them evaluated again at lambda > 0
        for L, N in ((20, 20), (10, 30)):
            rule = gauss_rule(CHEB, N + 1)
            grid = np.union1d(np.linspace(-1.0, 1.0, 301), rule.nodes)
            clean = f1(rule.nodes)
            surr = truncation_surrogates(CHEB, L, f1, grid=grid)
            noisy = [add_noise(clean, NoiseSpec("additive-white-snr", seed, snr_db=5.0))
                     for seed in range(3)]
            for lam in (0.0, LAMBDA_STAR):
                leb = lebesgue_constant(rule, L, lam, grid=grid)
                bound_check_uniform_noise(f1, clean, fit(rule, L, lam, clean), rule,
                                          surr.e_uniform, surr.p_star_inf,
                                          grid=grid, lebesgue=leb)
                for samples in noisy:
                    approx = fit(rule, L, lam, samples)
                    bound_check_stability(approx, samples)
                    bound_check_l2_noise(f1, samples, approx, rule,
                                         surr.e_uniform, surr.p_star_l2)
                    bound_check_uniform_noise(f1, samples, approx, rule,
                                              surr.e_uniform, surr.p_star_inf,
                                              grid=grid, lebesgue=leb)
        info = regularized_fit._lambda_free_values.cache_info()
        assert (info.misses, info.hits) == (2 * 8, 2 * 7)

    def test_threads_get_the_bits_of_a_single_thread(self):
        # 8 threads, each on inputs of its own, switched every microsecond:
        # far more distinct keys than entries, so entries are evicted while
        # other threads look theirs up
        rule = gauss_rule(LEG, 13)

        def rounds(t):
            for r in range(100):
                k = 100 * t + r
                yield k % 13, _rng(k).uniform(-1.0, 1.0, 13), \
                    np.linspace(-1.0, 1.0 - 1e-4 * k, 33)

        def at_lambda_star(L, samples, x):
            return evaluate(fit(rule, L, LAMBDA_STAR, samples), x).tobytes()

        def results(t):
            out = []
            for L, samples, x in rounds(t):
                evaluate(fit(rule, L, 0.0, samples), x)
                out.append(at_lambda_star(L, samples, x))
            return out

        # every key is new, so every call here is a cold one
        cold = [at_lambda_star(*args) for t in range(8) for args in rounds(t)]
        regularized_fit._lambda_free_values.cache_clear()
        got, errors = [None] * 8, []

        def worker(t):
            try:
                got[t] = results(t)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [value for out in got for value in out] == cold


def _lagrange_lebesgue_mp(nodes, x, dps=50):
    """sum_j |l_j(x)| at dps digits, on the given float nodes."""
    with mpmath.workdps(dps):
        xs = [mpmath.mpf(float(v)) for v in nodes]
        at = mpmath.mpf(float(x))
        total = mpmath.mpf(0)
        for j, xj in enumerate(xs):
            term = mpmath.mpf(1)
            for k, xk in enumerate(xs):
                if k != j:
                    term *= (at - xk) / (xj - xk)
            total += abs(term)
        return float(total)


class TestLebesgueInterpolation:
    """L = N: the first-kind barycentric Lebesgue function."""

    @pytest.mark.parametrize("spec,N", [
        (CHEB, 100),
        (BasisSpec(20.0, -0.9), 20),
    ], ids=["chebyshev1-100", "jacobi(20,-0.9)-20"])
    def test_matches_50_digit_reference(self, spec, N):
        # the Lebesgue function of these rules peaks at an end of [-1, 1],
        # and the default grid holds both ends
        rule = gauss_rule(spec, N + 1)
        ref = max(_lagrange_lebesgue_mp(rule.nodes, x) for x in (-1.0, 1.0))
        assert lebesgue_constant(rule, N, 0.0) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        CHEB, LEG, BasisSpec(0.3, -0.25), BasisSpec(-0.99, -0.99),
    ], ids=["chebyshev1", "legendre", "jacobi(0.3,-0.25)", "jacobi(-0.99,-0.99)"])
    @pytest.mark.parametrize("N", [1, 7, 60, 300])
    def test_matches_kernel_product(self, spec, N):
        rule = gauss_rule(spec, N + 1)
        grid = default_lebesgue_grid(rule)
        got = lebesgue_constant(rule, N, 0.0, grid=grid)
        assert got == pytest.approx(np.max(kernel_lebesgue_oracle(rule, N, grid)), rel=1e-11)

    def test_matches_kernel_product_past_direct_products(self):
        # 601 nodes: the node polynomial is carried in log space
        rule = gauss_rule(LEG, 601)
        grid = np.linspace(-1.0, 1.0, 1001)
        got = lebesgue_constant(rule, 600, 0.0, grid=grid)
        assert got == pytest.approx(np.max(kernel_lebesgue_oracle(rule, 600, grid)), rel=1e-11)

    @pytest.mark.parametrize("spec", [CHEB, LEG, BasisSpec(20.0, -0.9)],
                             ids=["chebyshev1", "legendre", "jacobi(20,-0.9)"])
    @pytest.mark.parametrize("lam", [0.0, LAMBDA_STAR])
    def test_one_node_rule(self, spec, lam):
        rule = gauss_rule(spec, 1)
        got = lebesgue_constant(rule, 0, lam)
        assert got == pytest.approx(1.0 / (1.0 + lam), rel=1e-15)

    def test_node_points_give_one(self):
        # the maximum skips the nodes, where the function is 1
        for spec in (CHEB, LEG, BasisSpec(20.0, -0.9)):
            for N in (1, 30, 600):
                rule = gauss_rule(spec, N + 1)
                for grid in (rule.nodes, rule.nodes[::3]):
                    assert lebesgue_constant(rule, N, 0.0, grid=grid) == 1.0

    @pytest.mark.parametrize("spec", [CHEB, LEG, BasisSpec(0.3, -0.25)],
                             ids=["chebyshev1", "legendre", "jacobi(0.3,-0.25)"])
    @pytest.mark.parametrize("N", [1, 7, 60, 800])
    def test_the_nodes_in_the_grid_change_no_bit(self, spec, N):
        rule = gauss_rule(spec, N + 1)
        scan = default_uniform_grid()
        without = lebesgue_constant(rule, N, LAMBDA_STAR, grid=scan)
        regularized_fit._lebesgue_peak.cache_clear()
        with_nodes = lebesgue_constant(rule, N, LAMBDA_STAR,
                                       grid=np.union1d(scan, rule.nodes))
        assert with_nodes.hex() == without.hex()

    def test_the_nodes_cost_no_block(self, monkeypatch):
        # the bounds grid holds every node; without the node skip each node
        # hit would end a block, 802 short blocks in place of 170 full ones,
        # to the same float
        rule = gauss_rule(CHEB, 801)
        grid = np.union1d(default_uniform_grid(), rule.nodes)
        off_node = grid.size - rule.nodes.size
        blocks = []
        each_block = barycentric._each_block

        def counting(nodes, x, hit_rows, body):
            def spy(rows, table):
                blocks.append(table.shape[0])
                body(rows, table)

            each_block(nodes, x, hit_rows, spy)

        monkeypatch.setattr(barycentric, "_WORKERS", 2)
        monkeypatch.setattr(barycentric, "_each_block", counting)
        lebesgue_constant(rule, 800, 0.0, grid=grid)
        assert sum(blocks) == off_node
        step = barycentric._block_rows(off_node, rule.nodes.size)
        assert len(blocks) <= -(-off_node // step) + 2

    def test_work_tables_stay_small(self):
        # L = N = 800 on the bounds grid; the kernel product traced 80 MiB
        rule = gauss_rule(CHEB, 801)
        grid = np.union1d(default_uniform_grid(), rule.nodes)
        tracemalloc.start()
        try:
            lebesgue_constant(rule, 800, 0.0, grid=grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _near_nodes(rule, rng):
    """+-1, 12 of the rule's nodes, the points 1 ulp, 1e-15, 1e-9 and 1e-6
    to either side of each, and 12 uniform points, sorted, in [-1, 1]."""
    picked = rule.nodes[rng.integers(0, len(rule), 12)]
    x = [[-1.0, 1.0], picked, np.nextafter(picked, 2.0), np.nextafter(picked, -2.0),
         rng.uniform(-1.0, 1.0, 12)]
    x += [picked + side * gap for gap in (1e-15, 1e-9, 1e-6) for side in (-1.0, 1.0)]
    return np.unique(np.clip(np.concatenate(x), -1.0, 1.0))


class TestLebesgueKernel:
    """L < N: the Christoffel-Darboux Lebesgue function, and the kernel
    product where it would cancel."""

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["chebyshev1", "legendre", "jacobi"]),
           a=st.floats(-0.9, 2.0, exclude_min=True),
           b=st.floats(-0.9, 2.0, exclude_min=True),
           n=st.integers(1, 300), share=st.floats(0.0, 1.0, exclude_max=True),
           seed=_SEEDS)
    def test_matches_kernel_product(self, kind, a, b, n, share, seed):
        # within 16 (L + 2) eps of the definition at every point; 600 random
        # rules on such points gave at most 5.3 (L + 2) eps.  The rounding
        # of the kernel product itself is about (L + 1) eps of the value
        spec = BasisSpec(a, b) if kind == "jacobi" else BasisSpec.from_name(kind)
        rule = gauss_rule(spec, n + 1)
        L = int(share * n)
        x = _near_nodes(rule, _rng(seed))
        want = kernel_lebesgue_oracle(rule, L, x)
        got = barycentric._kernel_lebesgue_function(rule, L, x)
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - want) <= 16 * (L + 2) * eps * want)

    @pytest.mark.parametrize("spec,L,N", [
        (CHEB, 20, 40), (BasisSpec(20.0, -0.9), 10, 40), (CHEB, 200, 400),
    ], ids=["chebyshev1-20-40", "jacobi(20,-0.9)-10-40", "chebyshev1-200-400"])
    def test_no_farther_from_50_digits_than_the_kernel_product(self, spec, L, N):
        # at +-1, at the maximum on the grid of the bound checks, and midway
        # between the two middle nodes.  +-1 and the maximum take the kernel
        # product, a ddot an entry, and so does every row of jacobi(20, -0.9)
        # at L = 10; the Chebyshev midpoints take the Christoffel-Darboux
        # form.  Both carry the error of the recurrence at the nodes, up to
        # 195 eps at jacobi(20, -0.9), and differ by at most 2 ulp around it
        rule = gauss_rule(spec, N + 1)
        grid = np.union1d(default_uniform_grid(), rule.nodes)
        peak = grid[np.argmax(barycentric._kernel_lebesgue_function(rule, L, grid))]
        x = np.array([-1.0, 1.0, peak, rule.nodes[N // 2:N // 2 + 2].mean()])
        got = barycentric._kernel_lebesgue_function(rule, L, x)
        want = kernel_lebesgue_digits(rule, L, x)
        kernel = kernel_lebesgue_oracle(rule, L, x)
        assert np.all(np.abs(got - want) <= np.abs(kernel - want) + 2 * np.spacing(want))
        assert got[2] == lebesgue_constant(rule, L, 0.0, grid=grid)

    def test_blocks_and_workers_change_no_bit(self, monkeypatch):
        # the bounds pair with L < N on its own grid: blocks of 64 rows, one
        # block for the whole grid, and one worker
        rule = gauss_rule(CHEB, 401)
        grid = np.union1d(default_uniform_grid(), rule.nodes)
        default = barycentric._kernel_lebesgue_function(rule, 200, grid)
        peak = lebesgue_constant(rule, 200, 0.0, grid=grid)
        for name, value in (("_BLOCK_ENTRIES", 64 * 401), ("_BLOCK_ENTRIES", 10**6),
                            ("_WORKERS", 1)):
            with monkeypatch.context() as patch:
                patch.setattr(barycentric, name, value)
                regularized_fit._lebesgue_peak.cache_clear()
                np.testing.assert_array_equal(
                    barycentric._kernel_lebesgue_function(rule, 200, grid), default)
                assert lebesgue_constant(rule, 200, 0.0, grid=grid).hex() == peak.hex()

    def test_work_tables_stay_small(self):
        # the bounds pair with L < N on its own grid; the kernel product in
        # blocks of 2^19 entries traced 10.7 MiB
        rule = gauss_rule(CHEB, 401)
        grid = np.union1d(default_uniform_grid(), rule.nodes)
        tracemalloc.start()
        try:
            lebesgue_constant(rule, 200, 0.0, grid=grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
