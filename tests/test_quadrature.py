"""Gauss rules: analytic short-circuit, generic recurrence path, exactness.

Independent oracles: 40-digit rules from mpmath's gauss_quadrature, the
eigenvectors of scipy.linalg.eigh_tridiagonal on the same recurrence
matrix, numpy's leggauss, and closed-form rules worked out by hand.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import numpy.polynomial.legendre as npleg
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tikbary.basis import (BasisSpec, _orthonormal_rows, eval_orthonormal,
                           recurrence_coefficients)
from tikbary.quadrature import (
    QuadratureRule,
    _gauss_rule_recurrence,
    exactness_residual,
    gauss_rule,
)
from tikbary.regularized_fit import gram_matrix_residual

from oracles import quadrature_sums_oracle

CHEB = BasisSpec.chebyshev1()
LEG = BasisSpec.legendre()
JAC = BasisSpec(0.3, -0.25)


class TestKnownRules:
    def test_chebyshev_single_point(self):
        rule = gauss_rule(CHEB, 1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == math.pi

    def test_legendre_two_point(self):
        rule = gauss_rule(LEG, 2)
        r = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(rule.nodes, [-r, r], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-14)

    def test_chebyshev_four_point(self):
        rule = gauss_rule(CHEB, 4)
        expected = np.sort(np.cos((2.0 * np.arange(4) + 1.0) * math.pi / 8.0))
        np.testing.assert_allclose(rule.nodes, expected, atol=1e-15)
        assert np.all(rule.weights == math.pi / 4.0)

    def test_chebyshev_mirror_symmetry_is_exact(self):
        for pts in (6, 7, 61):
            rule = gauss_rule(CHEB, pts)
            assert np.array_equal(rule.nodes, -rule.nodes[::-1])
            if pts % 2:
                assert rule.nodes[pts // 2] == 0.0

    def test_eigensolver_symmetry_to_rounding(self):
        for spec in (LEG, BasisSpec(0.7, 0.7)):
            for pts in (8, 33):
                rule = gauss_rule(spec, pts)
                assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) < 1e-13
                assert np.max(np.abs(rule.weights - rule.weights[::-1])) \
                    < 1e-13 * np.max(rule.weights)


class TestAgainstOracles:
    @pytest.mark.parametrize("pts", [8, 65, 256])
    def test_chebyshev_analytic_matches_eigensolver(self, pts):
        analytic = gauss_rule(CHEB, pts)
        eig = _gauss_rule_recurrence(CHEB, pts)
        np.testing.assert_allclose(eig.nodes, analytic.nodes, atol=1e-13)
        np.testing.assert_allclose(eig.weights, analytic.weights, rtol=1e-11)

    @pytest.mark.parametrize("spec", [LEG, JAC], ids=["legendre", "jacobi"])
    @pytest.mark.parametrize("pts", [8, 201])
    def test_matches_scipy_tridiagonal(self, spec, pts):
        table = recurrence_coefficients(spec, pts + 1)
        evals, evecs = scipy.linalg.eigh_tridiagonal(
            table.a[:pts], np.sqrt(table.b[1:pts]))
        rule = gauss_rule(spec, pts)
        np.testing.assert_allclose(rule.nodes, evals, atol=5e-13)
        np.testing.assert_allclose(rule.weights,
                                   table.b[0] * evecs[0, :] ** 2,
                                   rtol=0, atol=5e-13)

    # measured worst: nodes 2.2e-16 absolute, weights 4.5e-14 relative
    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.3, -0.25), (20.0, -0.9),
                                      (-0.99, -0.99), (20.0, 20.0), (-0.9, 8.0)])
    @pytest.mark.parametrize("pts", [5, 40])
    def test_matches_mpmath_at_40_digits(self, a, b, pts):
        with mpmath.workdps(40):
            x, w = mpmath.gauss_quadrature(pts, "jacobi", a, b)
            x = np.array([float(v) for v in x])
            w = np.array([float(v) for v in w])
        order = np.argsort(x)
        rule = gauss_rule(BasisSpec(a, b), pts)
        assert np.max(np.abs(rule.nodes - x[order])) <= 5e-16
        assert np.max(np.abs(rule.weights / w[order] - 1.0)) <= 1e-13

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (20.0, -0.9)])
    @pytest.mark.parametrize("pts", [5, 40])
    def test_one_newton_step_from_shifted_nodes(self, monkeypatch, a, b, pts):
        # LAPACK's nodes are already within an ulp, which hides a wrong
        # derivative in the Newton step, so start it 1e-10 off the 40-digit
        # nodes.  A right step squares that error times a constant that
        # grows near the ends (from 1e-8 off it lands 2.7e-11 away at 40
        # points of jacobi(20,-0.9)), and here lands within 1e-14
        with mpmath.workdps(40):
            x = mpmath.gauss_quadrature(pts, "jacobi", a, b)[0]
            x = np.sort([float(v) for v in x])
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal",
                            lambda d, e: x + 1e-10)
        rule = gauss_rule(BasisSpec(a, b), pts)
        assert np.max(np.abs(rule.nodes - x)) < 1e-14

    def test_matches_numpy_leggauss(self):
        x, w = npleg.leggauss(64)
        rule = gauss_rule(LEG, 64)
        np.testing.assert_allclose(rule.nodes, x, atol=1e-13)
        np.testing.assert_allclose(rule.weights, w, atol=1e-13)


class TestExactness:
    @pytest.mark.parametrize("spec", [CHEB, LEG, JAC],
                             ids=["chebyshev1", "legendre", "jacobi"])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_exact_through_twice_degree_plus_one(self, spec, n):
        rule = gauss_rule(spec, n + 1)
        assert exactness_residual(rule, 2 * n + 1) < 1e-11

    def test_first_failure_degree(self):
        # five Legendre points integrate degree 9 but not degree 10; the
        # defect there is ||pi_5||^2 / ||pi_10|| in monic norms
        rule = gauss_rule(LEG, 5)
        assert exactness_residual(rule, 9) < 1e-12
        k = np.arange(1.0, 11.0)
        b = np.concatenate([[2.0], k * k / (4.0 * k * k - 1.0)])
        expected = np.prod(b[:6]) / math.sqrt(np.prod(b))
        got = exactness_residual(rule, 10)
        assert got > 1e-6
        assert got == pytest.approx(expected, rel=1e-13)

    def test_degree_zero_residual_is_mass_defect(self):
        for spec in (CHEB, JAC):
            rule = gauss_rule(spec, 9)
            expected = abs(np.sum(rule.weights) - spec.mass) \
                / math.sqrt(spec.mass)
            assert exactness_residual(rule, 0) == pytest.approx(
                expected, abs=1e-15)

    @pytest.mark.parametrize("n", [600, 1000])
    def test_large_exponents_keep_the_end_weights(self, n):
        # the tiny end weights of jacobi(20, 20) must keep their relative
        # accuracy, or the defect through degree 2n-1 grows to O(1)
        rule = gauss_rule(BasisSpec(20.0, 20.0), n)
        assert exactness_residual(rule, 2 * n - 1) < 1e-12

    @pytest.mark.parametrize("a, b, n", [(20.0, -0.9, 300), (-0.99, -0.99, 1000)])
    def test_ill_conditioned_corners(self, a, b, n):
        # measured 1.0e-10 and 7.6e-10.  What is left comes from evaluating
        # p_l up to degree 2n-1 near the endpoints, not from the rule: the
        # 40-digit jacobi(20, -0.9) rule rounded to doubles reads 6.2e-9
        rule = gauss_rule(BasisSpec(a, b), n)
        assert exactness_residual(rule, 2 * n - 1) < 2e-9

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            exactness_residual(gauss_rule(LEG, 3), -1)

    def test_memory_holds_the_three_row_ring(self):
        # the (4002 x 2001) basis table at the nodes would be 61 MiB; the
        # three-row ring, its scratch rows and one sum per degree are 0.3 MiB
        rule = gauss_rule(LEG, 2001)
        tracemalloc.start()
        try:
            exactness_residual(rule, 4001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestExactnessOracle:
    """The sums sum_j w_j p_l(x_j) behind exactness_residual, on the package's
    own float rule, against the same sums at 50 digits.

    The bound is c eps sum_j w_j |p_l(x_j)|.  The largest ratio measured over
    the checked degrees was 4.1 for Legendre and 2.05e4 at the jacobi(20, -0.9)
    corner, where the float rows at the three nodes within 3e-4 of -1 are off
    by up to 4e-9 relative at l = N, an error of the recurrence that the
    scale does not weigh.  So there exactness_residual reads 1.0e-10 while the
    float rule's defect is 3.5e-9; c leaves a factor of about four.
    """

    @pytest.mark.parametrize("spec, pts, c", [(LEG, 201, 16.0),
                                              (BasisSpec(20.0, -0.9), 300, 8e4)],
                             ids=["legendre", "jacobi20_m0.9"])
    def test_sums_against_50_digits(self, spec, pts, c):
        rule = gauss_rule(spec, pts)
        n = rule.degree
        defects, scales = quadrature_sums_oracle(rule, 2 * n + 1)
        sums = [p @ rule.weights for p in _orthonormal_rows(spec, 2 * n + 1, rule.nodes)]
        sums[0] -= math.sqrt(rule.mass)
        eps = np.finfo(float).eps
        for l in (0, 1, n, 2 * n, 2 * n + 1):
            assert abs(sums[l] - defects[l]) <= c * eps * scales[l], l
            # the residual through degree l is the largest of those defects
            worst = np.max(np.abs(defects[: l + 1]))
            assert abs(exactness_residual(rule, l) - worst) \
                <= c * eps * np.max(scales[: l + 1]), l


class TestIdentitiesOverJacobiExponents:
    """Exactness through degree 2N+1 and the Gram identity A'WA = I at L = N,
    for Jacobi exponents a, b in (-0.9, 2] and up to 300 points, each within
    c n eps of its conditioning: max_l sum_j w_j |p_l(x_j)| over l <= 2N+1
    for the exactness sums, and max_l sum_j w_j p_l(x_j)^2 over l <= N for
    the Gram entries, which bounds sum_j w_j |p_l(x_j) p_m(x_j)|.

    Over 1500 random draws biased to exponents near -0.9 and n near 300,
    the largest ratio of a residual to n eps times its conditioning was 23
    for the Gram identity and 32 for exactness, both with one exponent near
    -0.9: there the end weight is near 2, on a node within 3e-6 of the end.
    On benign exponents the ratios stay near 1 or under.  c = 128 leaves a
    factor of four.  The two corners fail a fixed 1e-12: the Gram residual
    of jacobi(-0.9, -0.9) at n = 300 is 1.05e-12 (ratio 16), and the
    exactness residual of jacobi(20, -0.9) at n = 300 is 1.05e-10 on a
    conditioning of 2.8e3 (ratio 0.56).
    """

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-0.9, 2.0, exclude_min=True),
           b=st.floats(-0.9, 2.0, exclude_min=True), n=st.integers(1, 300))
    @example(a=-0.9, b=-0.9, n=300)
    @example(a=20.0, b=-0.9, n=300)
    def test_within_n_eps_of_the_conditioning(self, a, b, n):
        rule = gauss_rule(BasisSpec(a, b), n)
        N = rule.degree
        first = second = 0.0
        for l, p in enumerate(_orthonormal_rows(rule.spec, 2 * N + 1, rule.nodes)):
            first = max(first, np.abs(p) @ rule.weights)
            if l <= N:
                second = max(second, (p * p) @ rule.weights)
        bound = 128.0 * n * np.finfo(float).eps
        assert exactness_residual(rule, 2 * N + 1) <= bound * first
        assert gram_matrix_residual(rule, N) <= bound * second


class TestRuleStructure:
    @pytest.mark.parametrize("spec", [CHEB, LEG, JAC],
                             ids=["chebyshev1", "legendre", "jacobi"])
    def test_weights_positive_and_sum_to_mass(self, spec):
        for pts in (1, 2, 7, 64, 257):
            rule = gauss_rule(spec, pts)
            assert np.all(rule.weights > 0.0)
            assert abs(np.sum(rule.weights) - spec.mass) < 1e-12 * spec.mass

    @pytest.mark.parametrize("a, b", [(1030.0, 0.0), (500.0, -0.5)])
    def test_masses_just_inside_double_range(self, a, b):
        # jacobi(1030, 0) has mass 2.2e307; BasisSpec rejects the overflow
        # a little further out
        spec = BasisSpec(a, b)
        for pts in (1, 3, 8, 40):
            rule = gauss_rule(spec, pts)
            assert np.all(np.isfinite(rule.weights)) and np.all(rule.weights > 0.0)
            assert abs(np.sum(rule.weights) - spec.mass) < 1e-12 * spec.mass

    def test_nodes_sorted_inside_interval(self):
        for spec in (CHEB, LEG, JAC):
            rule = gauss_rule(spec, 40)
            assert np.all(np.diff(rule.nodes) > 0.0)
            assert np.all(np.abs(rule.nodes) < 1.0)

    @pytest.mark.parametrize("pts", [5, 64])
    def test_nodes_are_roots_of_next_basis_polynomial(self, pts):
        scan = np.cos(np.linspace(0.0, math.pi, 2001))
        for spec in (CHEB, LEG, JAC):
            rule = gauss_rule(spec, pts)
            at_nodes = eval_orthonormal(spec, pts, rule.nodes)[pts]
            peak = np.max(np.abs(eval_orthonormal(spec, pts, scan)[pts]))
            assert np.max(np.abs(at_nodes)) <= 1e-10 * peak

    @pytest.mark.parametrize("n", [5, 32, 100])
    def test_consecutive_rules_interlace(self, n):
        for spec in (CHEB, LEG, JAC):
            inner = gauss_rule(spec, n).nodes
            outer = gauss_rule(spec, n + 1).nodes
            assert np.all(outer[:-1] < inner)
            assert np.all(inner < outer[1:])

    def test_degree_len_mass(self):
        rule = gauss_rule(LEG, 9)
        assert len(rule) == 9
        assert rule.degree == 8
        assert rule.mass == LEG.mass


class TestValidation:
    def test_point_count_must_be_positive(self):
        with pytest.raises(ValueError):
            gauss_rule(LEG, 0)

    def test_node_rounding_to_an_endpoint_names_the_rule(self):
        spec = BasisSpec(-0.9999999998476579, -0.9999999990810643)
        with pytest.raises(ValueError, match=r"the 222-point jacobi\(-0\.9999999998476579,"
                           r"-0\.9999999990810643\) rule has an outermost node "
                           r"that rounds to -1 or 1 in double precision"):
            gauss_rule(spec, 222)

    def test_constructor_rejects_bad_data(self):
        w = np.array([1.0, 1.0])
        with pytest.raises(ValueError):
            QuadratureRule(LEG, np.array([0.1, 0.1]), w)  # coincident
        with pytest.raises(ValueError):
            QuadratureRule(LEG, np.array([0.3, 0.1]), w)  # descending
        with pytest.raises(ValueError):
            QuadratureRule(LEG, np.array([-1.0, 0.1]), w)  # endpoint
        with pytest.raises(ValueError):
            QuadratureRule(LEG, np.array([-0.1, 0.1]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            QuadratureRule(LEG, np.array([-0.1, 0.1]), np.array([1.0]))
        with pytest.raises(ValueError):
            QuadratureRule(LEG, np.array([]), np.array([]))

    @pytest.mark.parametrize("nodes, weights", [
        ([math.nan, math.nan], [math.nan, 1.0]),
        ([-0.1, math.nan], [1.0, 1.0]),
        ([-0.1, 0.1], [math.nan, 1.0]),
        ([-0.1, 0.1], [1.0, math.inf]),
    ], ids=["all-nan", "nan-node", "nan-weight", "inf-weight"])
    def test_constructor_rejects_non_finite(self, nodes, weights):
        # NaN fails every ordering and sign comparison, so it needs its own check
        with pytest.raises(ValueError, match="must be finite"):
            QuadratureRule(LEG, np.array(nodes), np.array(weights))
