"""Error measures, the lambda sweep, and the empirical bound checks."""

import math

import numpy as np
import pytest

from tikbary.basis import BasisSpec, eval_orthonormal
from tikbary.metrics import (
    LAMBDA_STAR,
    BoundCheck,
    ErrorReport,
    bound_check_l2_noise,
    bound_check_stability,
    bound_check_uniform_noise,
    default_l2_rule,
    default_lambda_grid,
    default_uniform_grid,
    l2_error,
    lambda_sweep,
    truncation_surrogates,
    uniform_error,
)
from tikbary.quadrature import gauss_rule
from tikbary.regularized_fit import (RegularizedApproximant, continuum_limit_fit,
                                    evaluate, fit, lebesgue_constant)
from tikbary.signals import NoiseSpec, add_noise, f1, make_generator

CHEB = BasisSpec.chebyshev1()
LEG = BasisSpec.legendre()


def _basis_member(spec, k):
    def f(x):
        return eval_orthonormal(spec, k, x)[k]
    return f


class TestDefaults:
    def test_lambda_grid(self):
        grid = default_lambda_grid()
        assert grid.shape == (21,)
        assert grid[0] == pytest.approx(1e-2, rel=1e-15)
        assert grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0.0)
        assert LAMBDA_STAR == pytest.approx(grid[13], rel=1e-15)

    def test_uniform_grid(self):
        grid = default_uniform_grid()
        assert grid[0] == -1.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0.0)

    def test_l2_rule_small_fit(self):
        rule = gauss_rule(CHEB, 9)
        bigger = default_l2_rule(rule, 20)
        assert len(bigger) == 42
        assert bigger.spec == rule.spec

    def test_l2_rule_reuses_a_large_rule(self):
        rule = gauss_rule(CHEB, 120)
        assert default_l2_rule(rule, 60) is rule

    def test_l2_rule_reuses_on_exact_size_match(self):
        rule = gauss_rule(LEG, 42)
        assert default_l2_rule(rule, 20) is rule


class TestErrorReport:
    def test_rejects_negative_errors(self):
        with pytest.raises(ValueError):
            ErrorReport("chebyshev1", 4, 4, 0.0, None, None, -1e-3, 0.0)
        with pytest.raises(ValueError):
            ErrorReport("chebyshev1", 4, 4, 0.0, None, None, 0.0, -1.0)


class TestUniformError:
    def test_zero_for_a_reproduced_function(self):
        assert uniform_error(f1, f1, np.linspace(-1, 1, 101)) == 0.0

    def test_constant_shrinks_by_the_lambda_factor(self):
        rule = gauss_rule(LEG, 8)
        for lam in (0.0, 0.5, 1.0):
            approx = fit(rule, 3, lam, np.ones(8))
            err = uniform_error(lambda x: np.ones_like(x), approx,
                                np.linspace(-1, 1, 201))
            assert err == pytest.approx(lam / (1.0 + lam), abs=1e-14)

    def test_stable_under_grid_refinement(self):
        rule = gauss_rule(CHEB, 61)
        approx = fit(rule, 60, 0.0, f1(rule.nodes))
        coarse = uniform_error(f1, approx, np.linspace(-1, 1, 1001))
        fine = uniform_error(f1, approx, np.linspace(-1, 1, 10001))
        assert abs(fine - coarse) <= 0.05 * fine

    def test_superset_grid_never_shrinks_the_max(self):
        rule = gauss_rule(CHEB, 13)
        approx = fit(rule, 12, 0.1, f1(rule.nodes))
        small = np.linspace(-1, 1, 101)
        big = np.union1d(small, make_generator(4).uniform(-1, 1, 500))
        assert uniform_error(f1, approx, big) >= uniform_error(f1, approx, small)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            uniform_error(f1, f1, np.array([]))


class TestL2Error:
    def test_zero_for_a_reproduced_function(self):
        rule = gauss_rule(CHEB, 12)
        assert l2_error(f1, f1, rule) == 0.0

    def test_constant_shrinks_by_the_lambda_factor_times_mass(self):
        rule = gauss_rule(CHEB, 10)
        for lam in (0.3, 1.0):
            approx = fit(rule, 4, lam, np.ones(10))
            ref = math.sqrt(CHEB.mass) * lam / (1.0 + lam)
            assert l2_error(lambda x: np.ones_like(x), approx, rule) \
                == pytest.approx(ref, rel=1e-13)

    def test_orthonormal_member_against_zero_has_unit_norm(self):
        # the rule integrates the square of the cubic member exactly
        f = _basis_member(LEG, 3)
        zero = RegularizedApproximant(LEG, 0, 0.0, np.array([0.0]))
        rule = gauss_rule(LEG, 5)
        assert l2_error(f, zero, rule) == pytest.approx(1.0, abs=1e-12)

    def test_matches_a_direct_weighted_sum(self):
        rule = gauss_rule(LEG, 17)
        approx = fit(rule, 9, 0.2, f1(rule.nodes))
        r = f1(rule.nodes) - approx(rule.nodes)
        direct = math.sqrt(np.sum(rule.weights * r * r))
        assert l2_error(f1, approx, rule) == pytest.approx(direct, rel=1e-15)

    def test_lambda_factor_identity_for_basis_members(self):
        # fitting the k-th member with shrinkage leaves exactly the
        # lambda/(1+lambda) fraction of it behind
        rule = gauss_rule(CHEB, 16)
        for k in (0, 3, 7):
            f = _basis_member(CHEB, k)
            for lam in (1e-2, LAMBDA_STAR, 1.0):
                approx = fit(rule, 7, lam, f(rule.nodes))
                assert l2_error(f, approx, rule) \
                    == pytest.approx(lam / (1.0 + lam), abs=1e-10)


class TestLambdaSweep:
    def test_noise_free_polynomial_prefers_the_smallest_lambda(self):
        rule = gauss_rule(LEG, 13)

        def poly(x):
            return 0.3 * x**3 - x + 0.2

        result = lambda_sweep(rule, 5, poly, default_lambda_grid())
        assert len(result) == 21
        assert result.best_lambda["uniform_error"] == pytest.approx(1e-2, rel=1e-15)
        assert result.best_lambda["l2_error"] == pytest.approx(1e-2, rel=1e-15)

    def test_reports_share_one_noise_draw(self):
        rule = gauss_rule(CHEB, 33)
        noise = NoiseSpec("additive-white-snr", seed=14, snr_db=5.0)
        result = lambda_sweep(rule, 32, f1, [1e-2, LAMBDA_STAR, 1.0], noise=noise)
        assert [r.lam for r in result] == [1e-2, LAMBDA_STAR, 1.0]
        assert all(r.seed == 14 and r.snr_db == 5.0 for r in result)
        assert all(r.L == 32 and r.N == 32 for r in result)
        again = lambda_sweep(rule, 32, f1, [1e-2, LAMBDA_STAR, 1.0], noise=noise)
        assert [r.l2_error for r in again] == [r.l2_error for r in result]

    def test_single_lambda(self):
        rule = gauss_rule(CHEB, 9)
        result = lambda_sweep(rule, 8, f1, 0.25)
        assert len(result) == 1
        assert result.reports[0].lam == 0.25
        assert result.best_lambda["uniform_error"] == 0.25

    def test_empty_lambdas_rejected(self):
        rule = gauss_rule(CHEB, 9)
        with pytest.raises(ValueError):
            lambda_sweep(rule, 8, f1, [])

    def test_bad_lambdas_rejected(self):
        # the sweep fits once at lambda = 0, so it must check every lambda itself
        rule = gauss_rule(CHEB, 9)
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                lambda_sweep(rule, 8, f1, [0.1, bad])

    def test_noise_free_reports_carry_no_seed(self):
        rule = gauss_rule(CHEB, 9)
        report = lambda_sweep(rule, 8, f1, 0.0).reports[0]
        assert report.seed is None and report.snr_db is None


class TestSurrogates:
    def test_safety_factor_scales_all_three(self):
        # each surrogate is 4 times the quantity of the continuum-limit
        # truncation, to the bit
        grid = default_uniform_grid(401, 101)
        s = truncation_surrogates(CHEB, 20, f1, grid=grid)
        trunc = continuum_limit_fit(CHEB, 20, 0.0, f1)
        t_grid = evaluate(trunc, grid)
        assert s.e_uniform == 4.0 * float(np.max(np.abs(f1(grid) - t_grid)))
        assert s.p_star_l2 == 4.0 * trunc.l2_norm
        assert s.p_star_inf == 4.0 * float(np.max(np.abs(t_grid)))

    def test_dominates_the_fit_it_is_built_from(self):
        # the unscaled truncation error is the grid max itself, so the
        # safety-4 surrogate sits a clean factor above any best fit
        grid = default_uniform_grid()
        s = truncation_surrogates(LEG, 16, f1, grid=grid)
        rule = gauss_rule(LEG, 33)
        approx = fit(rule, 16, 0.0, f1(rule.nodes))
        assert s.e_uniform > uniform_error(f1, approx, grid) / 4.0


class TestGridValidation:
    """Every public grid argument is checked once, with the same messages."""

    CALLERS = {
        "uniform_error": lambda grid: uniform_error(f1, f1, grid),
        "lambda_sweep": lambda grid: lambda_sweep(gauss_rule(CHEB, 9), 5, f1, [0.0],
                                                  grid=grid),
        "truncation_surrogates": lambda grid: truncation_surrogates(CHEB, 5, f1,
                                                                    grid=grid),
        "lebesgue_constant": lambda grid: lebesgue_constant(gauss_rule(CHEB, 9), 5, 0.0,
                                                            grid=grid),
    }

    # before the shared check, lambda_sweep died in a NumPy reduction on an
    # empty grid and in ErrorReport on a NaN one, and truncation_surrogates
    # returned NaN surrogates
    @pytest.mark.parametrize("grid,message", [
        ([], "grid must be nonempty"),
        ([math.nan], "grid entries must be finite"),
        ([0.0, math.inf], "grid entries must be finite"),
        ([[-math.inf, 0.5]], "grid entries must be finite"),
    ], ids=["empty", "nan", "inf", "2d-minus-inf"])
    @pytest.mark.parametrize("caller", list(CALLERS))
    def test_bad_grid_rejected(self, caller, grid, message):
        with pytest.raises(ValueError, match=message):
            self.CALLERS[caller](np.array(grid, dtype=float))


class TestStabilityBound:
    def test_constant_data(self):
        rule = gauss_rule(CHEB, 8)
        samples = np.full(8, 2.0)
        check = bound_check_stability(fit(rule, 4, 0.5, samples), samples)
        assert isinstance(check, BoundCheck)
        assert check.passed
        # the fit is the constant 2/(1+lam), so lhs = rhs exactly up to
        # rounding: slack is tiny but not negative beyond tolerance
        assert check.lhs == pytest.approx(check.rhs, rel=1e-12)

    def test_random_data(self):
        rule = gauss_rule(LEG, 40)
        samples = make_generator(31).uniform(-1.0, 1.0, 40)
        for lam in (0.0, LAMBDA_STAR, 1.0):
            check = bound_check_stability(fit(rule, 25, lam, samples), samples)
            assert check.passed
            assert check.rhs == pytest.approx(
                math.sqrt(2.0) * np.max(np.abs(samples)) / (1.0 + lam), rel=1e-14)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        rule = gauss_rule(LEG, 21)
        samples = f1(rule.nodes)
        approx = fit(rule, 4, LAMBDA_STAR, samples)
        samples[7] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            bound_check_stability(approx, samples)

    @pytest.mark.parametrize("samples", [[], [0.5], [[0.5] * 21]],
                             ids=["empty", "one", "2d"])
    def test_rejects_too_few_samples(self, samples):
        rule = gauss_rule(LEG, 21)
        approx = fit(rule, 4, LAMBDA_STAR, f1(rule.nodes))
        with pytest.raises(ValueError, match="one sample per node"):
            bound_check_stability(approx, samples)

    def test_degree_plus_one_samples_are_enough(self):
        # as many samples as the smallest rule a degree-4 fit takes; kills
        # degree - 1 and degree + 2 in the guard
        rule = gauss_rule(LEG, 21)
        approx = fit(rule, 4, LAMBDA_STAR, f1(rule.nodes))
        samples = np.array([0.5, -2.0, 1.0, 0.25, -1.5])
        check = bound_check_stability(approx, samples)
        assert check.rhs == pytest.approx(math.sqrt(2.0) * 2.0 / (1.0 + LAMBDA_STAR),
                                          rel=1e-14)
        with pytest.raises(ValueError, match="at least degree \\+ 1 = 5"):
            bound_check_stability(approx, samples[:4])


def _values(approx, x):
    """The approximant at x from the dense basis table, not through evaluate."""
    return approx.coefficients @ eval_orthonormal(approx.spec, approx.degree, x)


def _noisy_fit(spec, points, L, lam):
    rule = gauss_rule(spec, points)
    noisy = add_noise(f1(rule.nodes), NoiseSpec("additive-white-snr", seed=11, snr_db=5.0))
    return rule, noisy, fit(rule, L, lam, noisy)


class TestBoundFormulas:
    """Each bound's rhs against the paper's formula, recomputed here, and its
    slack as rhs - lhs.  E and ||p*|| take arbitrary distinct values, so a
    wrong factor on either term shows; lambda = LAMBDA_STAR tells 1 + lambda
    from 1 - lambda, which lambda = 0 does not."""

    E, P_NORM = 0.0375, 1.625

    @pytest.mark.parametrize("lam", [0.0, LAMBDA_STAR], ids=["lambda=0", "lambda*"])
    def test_stability(self, lam):
        # rhs = sqrt(mass) max|f_j| / (1 + lambda), mass = pi for Chebyshev;
        # kills slack = rhs + lhs and 1/(1 - lambda)
        rule, noisy, approx = _noisy_fit(CHEB, 41, 30, lam)
        check = bound_check_stability(approx, noisy)
        assert check.rhs == pytest.approx(
            math.sqrt(math.pi) * np.max(np.abs(noisy)) / (1.0 + lam), rel=1e-14)
        assert check.lhs == pytest.approx(math.sqrt(math.fsum(approx.coefficients**2)),
                                          rel=1e-14)
        assert check.slack == check.rhs - check.lhs
        assert check.passed

    @pytest.mark.parametrize("lam", [0.0, LAMBDA_STAR], ids=["lambda=0", "lambda*"])
    def test_l2_noise(self, lam):
        # rhs = sqrt(mass)/(1 + lambda) sup-noise + (1 + 1/(1 + lambda)) E
        #       + lambda/(1 + lambda) ||p*||, mass = 2 for Legendre;
        # kills 1/(1 - lambda), (1 - 1/(1 + lambda)) and slack = rhs + lhs
        rule, noisy, approx = _noisy_fit(LEG, 41, 30, lam)
        noise_sup = np.max(np.abs(f1(rule.nodes) - noisy))
        resid = f1(rule.nodes) - _values(approx, rule.nodes)
        check = bound_check_l2_noise(f1, noisy, approx, rule, self.E, self.P_NORM)
        assert check.rhs == pytest.approx(
            math.sqrt(2.0) / (1.0 + lam) * noise_sup + (1.0 + 1.0 / (1.0 + lam)) * self.E
            + lam / (1.0 + lam) * self.P_NORM, rel=1e-14)
        assert check.lhs == pytest.approx(
            math.sqrt(math.fsum(rule.weights * resid * resid)), rel=1e-12)
        assert check.slack == check.rhs - check.lhs

    @pytest.mark.parametrize("lam", [0.0, LAMBDA_STAR], ids=["lambda=0", "lambda*"])
    def test_uniform_noise(self, lam):
        # rhs = Lam sup-noise + (1 + Lam) E + lambda/(1 + lambda) ||p*||_inf,
        # Lam the Lebesgue constant at lambda over the grid; kills (1 - Lam) E,
        # lambda/(1 - lambda) and slack = rhs + lhs
        rule, noisy, approx = _noisy_fit(CHEB, 33, 20, lam)
        grid = np.union1d(np.linspace(-1.0, 1.0, 401), rule.nodes)
        noise_sup = np.max(np.abs(f1(rule.nodes) - noisy))
        lhs = np.max(np.abs(f1(grid) - _values(approx, grid)))
        for lebesgue in (None, 2.75):
            check = bound_check_uniform_noise(f1, noisy, approx, rule, self.E,
                                              self.P_NORM, grid=grid, lebesgue=lebesgue)
            leb = lebesgue_constant(rule, 20, lam, grid=grid) \
                if lebesgue is None else lebesgue
            assert check.rhs == pytest.approx(
                leb * noise_sup + (1.0 + leb) * self.E
                + lam / (1.0 + lam) * self.P_NORM, rel=1e-14)
            assert check.lhs == pytest.approx(lhs, rel=1e-12)
            assert check.slack == check.rhs - check.lhs


class TestNoiseBounds:
    def test_l2_noise_free_polynomial(self):
        rule = gauss_rule(LEG, 21)

        def poly(x):
            return x**4 - 0.5 * x

        s = truncation_surrogates(LEG, 10, poly)
        samples = poly(rule.nodes)
        for lam in (0.0, LAMBDA_STAR):
            approx = fit(rule, 10, lam, samples)
            check = bound_check_l2_noise(poly, samples, approx, rule,
                                         s.e_uniform, s.p_star_l2)
            assert check.passed

    def test_l2_noisy_high_degree(self):
        rule = gauss_rule(CHEB, 201)
        noisy = add_noise(f1(rule.nodes),
                          NoiseSpec("additive-white-snr", seed=6, snr_db=5.0))
        grid = np.union1d(default_uniform_grid(), rule.nodes)
        s = truncation_surrogates(CHEB, 200, f1, grid=grid)
        approx = fit(rule, 200, LAMBDA_STAR, noisy)
        check = bound_check_l2_noise(f1, noisy, approx, rule,
                                     s.e_uniform, s.p_star_l2)
        assert check.passed
        assert check.slack > 0.5

    def test_uniform_noisy_high_degree(self):
        rule = gauss_rule(CHEB, 201)
        noisy = add_noise(f1(rule.nodes),
                          NoiseSpec("additive-white-snr", seed=6, snr_db=5.0))
        grid = np.union1d(default_uniform_grid(), rule.nodes)
        s = truncation_surrogates(CHEB, 200, f1, grid=grid)
        approx = fit(rule, 200, LAMBDA_STAR, noisy)
        check = bound_check_uniform_noise(f1, noisy, approx, rule,
                                          s.e_uniform, s.p_star_inf)
        assert check.passed
        assert check.slack > 1.0

    @pytest.mark.parametrize("check", [bound_check_l2_noise, bound_check_uniform_noise],
                             ids=["l2", "uniform"])
    @pytest.mark.parametrize("bad,message", [
        (lambda clean: clean[:1] + 5.0, "does not match"),
        (lambda clean: np.append(clean, 0.0), "does not match"),
        (lambda clean: np.where(np.arange(clean.size) == 3, np.nan, clean), "finite"),
        (lambda clean: np.full_like(clean, np.inf), "finite"),
    ], ids=["one-sample", "one-too-many", "nan", "inf"])
    def test_rejects_samples_that_do_not_fit_the_rule(self, check, bad, message):
        # one sample broadcast against the 21 nodes passed with slack 9.31;
        # a NaN sample gave slack nan and passed=False with no error
        rule = gauss_rule(LEG, 21)
        clean = f1(rule.nodes)
        s = truncation_surrogates(LEG, 10, f1)
        approx = fit(rule, 10, LAMBDA_STAR, clean)
        with pytest.raises(ValueError, match=message):
            check(f1, bad(clean), approx, rule, s.e_uniform, s.p_star_l2)

    def test_uniform_with_clean_samples_is_the_noise_free_bound(self):
        rule = gauss_rule(LEG, 33)
        grid = np.union1d(default_uniform_grid(), rule.nodes)
        s = truncation_surrogates(LEG, 16, f1, grid=grid)
        samples = f1(rule.nodes)
        for lam in (0.0, LAMBDA_STAR):
            approx = fit(rule, 16, lam, samples)
            check = bound_check_uniform_noise(f1, samples, approx, rule,
                                              s.e_uniform, s.p_star_inf)
            assert check.passed
            assert check.rhs >= (1.0 + 1.0) * s.e_uniform / 4.0
