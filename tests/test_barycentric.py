"""Barycentric weights and the two evaluation formulas.

Weight vectors are checked against hand-computed products, the two formulas
against each other and against the coefficient route, and the shrinkage
semantics at and near nodes.
"""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tikbary.barycentric as barycentric
from tikbary.barycentric import (
    BarycentricData,
    _node_hits,
    _quotient_weights,
    _weights_gauss_rules,
    interp_barycentric,
    interp_modified_lagrange,
    weights_gauss,
    weights_product,
)
from tikbary import experiments
from tikbary.basis import BasisSpec, _orthonormal_rows
from tikbary.metrics import LAMBDA_STAR, default_uniform_grid
from tikbary.quadrature import gauss_rule
from tikbary.regularized_fit import evaluate, fit, lebesgue_constant
from tikbary.signals import add_noise, f1, f3

from oracles import first_kind_oracle, quotient_form_oracle

CHEB = BasisSpec.chebyshev1()
LEG = BasisSpec.legendre()


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestWeightsProduct:
    def test_three_point_hand_values(self):
        np.testing.assert_array_equal(
            weights_product(np.array([-1.0, 0.0, 1.0])),
            np.array([0.5, -1.0, 0.5]))

    def test_two_point_hand_values(self):
        np.testing.assert_array_equal(
            weights_product(np.array([-1.0, 1.0])),
            np.array([-0.5, 0.5]))

    def test_signs_alternate(self):
        # compare signs, not products: adjacent weights near 1e-200 would
        # underflow when multiplied
        for n in (5, 30, 600):
            nodes = np.sort(_rng(n).uniform(-1.0, 1.0, n))
            w = weights_product(nodes)
            assert np.all(w != 0.0)
            assert np.all(np.sign(w[:-1]) == -np.sign(w[1:]))

    def test_log_path_matches_direct_path_in_shape(self):
        # 514 nodes goes through log accumulation; scale differs but the
        # normalized vectors must agree
        nodes = gauss_rule(CHEB, 514).nodes
        direct = 1.0 / np.prod(
            np.where(~np.eye(514, dtype=bool),
                     nodes[:, None] - nodes[None, :], 1.0), axis=1)
        got = weights_product(nodes)
        assert np.max(np.abs(got)) == pytest.approx(1.0)
        np.testing.assert_allclose(got, direct / np.max(np.abs(direct)),
                                   rtol=1e-9)

    def test_rejects_bad_node_sets(self):
        with pytest.raises(ValueError):
            weights_product(np.array([0.3]))
        with pytest.raises(ValueError):
            weights_product(np.array([0.1, 0.5, 0.1]))

    @pytest.mark.parametrize("scale", [1e-3, 2.0**-10, 2.0**10, 1e3])
    @pytest.mark.parametrize("pts", [21, 201, 600])
    def test_any_span(self, scale, pts):
        # 201 Chebyshev nodes times 1e-3 gave +-inf weights and times 1e3
        # gave +-0: the products are formed where the nodes span about 2.
        # The 600-node sums of logs differ from the unit span's by up to
        # 2.1e-12 relative, in the smallest weights
        nodes = gauss_rule(CHEB, pts).nodes
        unit = weights_product(nodes)
        got = weights_product(scale * nodes)
        assert np.all(np.isfinite(got)) and np.all(got != 0.0)
        assert np.all(np.signbit(got[:-1]) != np.signbit(got[1:]))
        np.testing.assert_allclose(got / np.max(np.abs(got)), unit / np.max(np.abs(unit)),
                                   rtol=1e-11, atol=0.0)

    def test_power_of_two_span_keeps_the_natural_scale(self):
        # 21 nodes times 2^10 have weights 2^-200 times the unit ones, exactly
        nodes = gauss_rule(CHEB, 21).nodes
        np.testing.assert_array_equal(weights_product(np.ldexp(nodes, 10)),
                                      np.ldexp(weights_product(nodes), -200))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_nodes(self, bad):
        # [0.0, nan] used to return NaN weights
        with pytest.raises(ValueError, match="nodes must be finite"):
            weights_product(np.array([0.0, bad]))


class TestWeightsGauss:
    @pytest.mark.parametrize("spec", [CHEB, LEG], ids=["chebyshev1", "legendre"])
    @pytest.mark.parametrize("pts", [8, 61])
    def test_proportional_to_product_formula(self, spec, pts):
        rule = gauss_rule(spec, pts)
        ratio = weights_gauss(rule) / weights_product(rule.nodes)
        med = np.median(ratio)
        assert np.max(np.abs(ratio - med)) <= 1e-10 * abs(med)

    def test_chebyshev_closed_form(self):
        # up to one common factor the weights are (-1)^j sin((2j+1)pi/(2n))
        # in ascending node order
        rule = gauss_rule(CHEB, 10)
        j = np.arange(10)
        pattern = (-1.0) ** j * np.sin((2.0 * j + 1.0) * math.pi / 20.0)
        ratio = weights_gauss(rule) / pattern
        med = np.median(ratio)
        assert np.max(np.abs(ratio - med)) <= 1e-12 * abs(med)


class TestWeightsGaussRules:
    """Many rules' weights from one recurrence sweep, bitwise the per-rule
    sweeps: every step of the recurrence is elementwise."""

    @staticmethod
    def _own_sweep(rule):
        for phi_n in _orthonormal_rows(rule.spec, rule.degree, rule.nodes):
            pass
        return rule.weights * phi_n

    # Chebyshev first kind takes the two-pass step from k = 2 on, second kind
    # (jacobi(0.5,0.5)) from k = 1; Legendre and the asymmetric spec never
    @pytest.mark.parametrize("spec", [CHEB, BasisSpec(0.5, 0.5), LEG,
                                      BasisSpec(0.3, -0.25)],
                             ids=["chebyshev1", "jacobi0.5_0.5", "legendre",
                                  "jacobi0.3_m0.25"])
    def test_bitwise_the_per_rule_weights(self, spec):
        # mixed, repeated and unsorted degrees, down to one node
        degrees = [40, 1, 7, 0, 7, 300, 2, 41, 1]
        rules = [gauss_rule(spec, n + 1) for n in degrees]
        got = _weights_gauss_rules(rules)
        assert len(got) == len(rules)
        for rule, weights in zip(rules, got):
            np.testing.assert_array_equal(weights, self._own_sweep(rule))
            np.testing.assert_array_equal(weights, weights_gauss(rule))

    def test_rules_must_share_a_spec(self):
        with pytest.raises(ValueError, match="one basis spec"):
            _weights_gauss_rules([gauss_rule(CHEB, 5), gauss_rule(LEG, 5)])


class TestDataValidation:
    def test_weights_normalized_on_construction(self):
        nodes = np.array([-0.5, 0.0, 0.5])
        data = BarycentricData(nodes, np.array([4.0, -8.0, 4.0]),
                               np.zeros(3))
        np.testing.assert_array_equal(data.weights,
                                      np.array([0.5, -1.0, 0.5]))

    def test_rejects_malformed_inputs(self):
        nodes = np.array([-0.5, 0.0, 0.5])
        w = np.array([0.5, -1.0, 0.5])
        v = np.zeros(3)
        with pytest.raises(ValueError):
            BarycentricData(nodes[::-1], w, v)
        with pytest.raises(ValueError):
            BarycentricData(nodes, np.array([0.5, 0.0, 0.5]), v)
        with pytest.raises(ValueError):
            BarycentricData(nodes, np.array([0.5, 1.0, 0.5]), v)
        with pytest.raises(ValueError):
            BarycentricData(nodes, w, np.array([0.0, np.nan, 0.0]))
        with pytest.raises(ValueError):
            BarycentricData(nodes, w, v, lam=-0.1)
        with pytest.raises(ValueError):
            BarycentricData(nodes, w[:2], v)

    @pytest.mark.parametrize("nodes", [[-0.5, -0.5, 0.5], [-0.5, 0.5, 0.5],
                                       [-0.0, 0.0, 0.5]],
                             ids=["first-pair", "last-pair", "signed-zeros"])
    def test_rejects_repeated_nodes(self, nodes):
        # equal neighbours put a zero x - x_j into every node's table
        w = np.array([0.5, -1.0, 0.5])
        with pytest.raises(ValueError, match="strictly increasing"):
            BarycentricData(np.array(nodes), w, np.ones(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_nodes(self, bad):
        # a NaN node passes the strictly-increasing test, since every
        # comparison with NaN is False, and turned every output into NaN
        w = np.array([0.5, -1.0, 0.5])
        for nodes in ([-0.5, bad, 0.5], [-0.5, 0.0, bad], [bad, 0.0, 0.5]):
            with pytest.raises(ValueError, match="nodes must be finite"):
                BarycentricData(np.array(nodes), w, np.ones(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
    def test_alternation_check_ignores_weight_scale(self, scale):
        # neighbouring weights used to be multiplied: the products underflow
        # to zero at 1e-170 (a false rejection) and overflow at 1e170
        rule = gauss_rule(LEG, 15)
        vals = f1(rule.nodes)
        base = BarycentricData(rule.nodes, weights_gauss(rule), vals)
        scaled = BarycentricData(rule.nodes, scale * weights_gauss(rule), vals)
        x = _rng(6).uniform(-1.0, 1.0, 200)
        for form in (interp_barycentric, interp_modified_lagrange):
            np.testing.assert_allclose(form(scaled, x), form(base, x),
                                       rtol=0.0, atol=1e-15)
        # same-sign neighbours still raise at every scale: one pair at an
        # end, or two around a flipped interior weight
        for j in (0, 7, 14):
            bad = scale * weights_gauss(rule)
            bad[j] = -bad[j]
            with pytest.raises(ValueError, match="alternate"):
                BarycentricData(rule.nodes, bad, vals)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_lambda(self, lam):
        nodes = np.array([-0.5, 0.0, 0.5])
        with pytest.raises(ValueError, match="finite"):
            BarycentricData(nodes, np.array([0.5, -1.0, 0.5]), np.ones(3),
                            lam=lam)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("form", [interp_barycentric, interp_modified_lagrange])
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan,
                                   np.array([-0.3, math.nan, 0.4])])
    def test_rejects_non_finite_x(self, form, x):
        # unchecked, inf reads as a vanished denominator in the quotient
        # form and as inf/inf in the modified Lagrange form, and NaN passes
        # through both
        rule = gauss_rule(CHEB, 21)
        data = BarycentricData(rule.nodes, weights_gauss(rule), f1(rule.nodes))
        with pytest.raises(ValueError, match="x must be finite"):
            form(data, x)

    def test_stacked_values_shapes(self):
        nodes = np.array([-0.5, 0.0, 0.5])
        w = np.array([0.5, -1.0, 0.5])
        assert BarycentricData(nodes, w, np.zeros((3, 4))).values.shape \
            == (3, 4)
        with pytest.raises(ValueError):
            BarycentricData(nodes, w, np.zeros((3, 2, 2)))
        with pytest.raises(ValueError):
            BarycentricData(nodes, w, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            BarycentricData(nodes, w, np.zeros(()))
        with pytest.raises(ValueError):
            BarycentricData(nodes, w, np.array([[0.0], [np.inf], [0.0]]))


class TestFormulas:
    def test_parabola_through_three_points(self):
        nodes = np.array([-1.0, 0.0, 1.0])
        data = BarycentricData(nodes, weights_product(nodes),
                               np.array([1.0, 0.0, 1.0]))
        assert interp_modified_lagrange(data, 0.5) == pytest.approx(
            0.25, abs=1e-15)
        assert interp_barycentric(data, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_constant_data(self):
        rule = gauss_rule(CHEB, 21)
        for lam in (0.0, LAMBDA_STAR):
            data = BarycentricData(rule.nodes, weights_gauss(rule),
                                   np.ones(21), lam)
            x = _rng(1).uniform(-1.0, 1.0, 50)
            np.testing.assert_allclose(interp_barycentric(data, x),
                                       1.0 / (1.0 + lam), rtol=1e-13)
            np.testing.assert_allclose(interp_modified_lagrange(data, x),
                                       1.0 / (1.0 + lam), rtol=1e-12)

    def test_two_formulas_agree(self):
        nodes = np.sort(_rng(2).uniform(-1.0, 1.0, 13))
        vals = _rng(3).uniform(-1.0, 1.0, 13)
        x = _rng(4).uniform(-1.0, 1.0, 500)
        for lam in (0.0, LAMBDA_STAR):
            data = BarycentricData(nodes, weights_product(nodes), vals, lam)
            a = interp_modified_lagrange(data, x)
            b = interp_barycentric(data, x)
            assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-30)) \
                <= 1e-10

    def test_partition_of_unity_on_gauss_nodes(self):
        x = _rng(5).uniform(-1.0, 1.0, 100)
        for spec in (CHEB, LEG):
            for pts in (10, 61):
                nodes = gauss_rule(spec, pts).nodes
                w = weights_product(nodes)
                for xv in x:
                    lx = np.prod(xv - nodes)
                    assert abs(lx * np.sum(w / (xv - nodes)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_common_weight_scaling_is_immaterial(self, scale):
        rule = gauss_rule(LEG, 15)
        vals = f1(rule.nodes)
        base = BarycentricData(rule.nodes, weights_gauss(rule), vals,
                               LAMBDA_STAR)
        scaled = BarycentricData(rule.nodes, scale * weights_gauss(rule),
                                 vals, LAMBDA_STAR)
        x = _rng(6).uniform(-1.0, 1.0, 200)
        for form in (interp_barycentric, interp_modified_lagrange):
            a, b = form(base, x), form(scaled, x)
            assert np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-30)) \
                <= 1e-13

    def test_shrinkage_factor_law(self):
        # every lambda-dependent output is bitwise its lambda = 0 output over
        # 1 + lambda: the fit's coefficients, evaluate, lebesgue_constant
        # (L = N and L < N) and both barycentric forms.  513 and 514 nodes
        # straddle the direct and the log-space node polynomial
        for spec in (CHEB, LEG, BasisSpec(0.3, -0.25)):
            for N in (20, 60, 512, 513):
                rule = gauss_rule(spec, N + 1)
                x = np.union1d(default_uniform_grid(), rule.nodes)
                vals = np.column_stack([f1(rule.nodes), f3(rule.nodes)])
                plain = BarycentricData(rule.nodes, weights_gauss(rule), vals, 0.0)
                fits = [fit(rule, N, 0.0, v) for v in vals.T]
                outputs = {
                    form: form(plain, x)
                    for form in (interp_barycentric, interp_modified_lagrange)}
                constants = {L: lebesgue_constant(rule, L, 0.0, grid=x)
                             for L in (N // 2, N)}
                for lam in (1e-2, LAMBDA_STAR, 1.0):
                    shrunk = BarycentricData(rule.nodes, weights_gauss(rule), vals,
                                             lam)
                    for form, out in outputs.items():
                        np.testing.assert_array_equal(form(shrunk, x),
                                                      out / (1.0 + lam))
                    for L, peak in constants.items():
                        assert lebesgue_constant(rule, L, lam, grid=x) \
                            == peak / (1.0 + lam)
                    for v, approx in zip(vals.T, fits):
                        got = fit(rule, N, lam, v)
                        np.testing.assert_array_equal(
                            got.coefficients, approx.coefficients / (1.0 + lam))
                        np.testing.assert_array_equal(
                            evaluate(got, x), evaluate(approx, x) / (1.0 + lam))

    # 513 is the last node count with a direct product, 514 the first in
    # log space; 1001 is fig3's largest at paper scale
    @pytest.mark.parametrize("pts", [21, 513, 514, 801, 1001])
    def test_modified_lagrange_sign_rule(self, pts):
        # l(x) takes the sign (-1)^(nodes above x): on every gap midpoint,
        # where that count steps through all of 0..N+1, and at +-1 the
        # modified Lagrange form must keep the quotient form's sign and
        # agree with it to the 600-node comparison's tolerance
        rule = gauss_rule(CHEB, pts)
        nodes = rule.nodes
        vals = np.sin(10.0 * nodes + 0.3)
        x = np.concatenate([[-1.0, 1.0], 0.5 * (nodes[:-1] + nodes[1:])])
        a = interp_modified_lagrange(
            BarycentricData(nodes, weights_product(nodes), vals, LAMBDA_STAR), x)
        b = interp_barycentric(
            BarycentricData(nodes, weights_gauss(rule), vals, LAMBDA_STAR), x)
        assert np.min(np.abs(b)) > 1e-4  # no sign is decided by rounding
        np.testing.assert_array_equal(np.sign(a), np.sign(b))
        assert np.max(np.abs(a - b)) <= 1e-9


class TestNodeSemantics:
    def test_exact_node_hit(self):
        rule = gauss_rule(CHEB, 21)
        vals = f1(rule.nodes)
        for lam in (0.0, LAMBDA_STAR):
            data = BarycentricData(rule.nodes, weights_gauss(rule), vals, lam)
            for j in (0, 10, 20):
                expected = vals[j] / (1.0 + lam)
                assert interp_barycentric(data, rule.nodes[j]) == expected
                assert interp_modified_lagrange(data, rule.nodes[j]) == expected

    def test_continuity_approaching_a_node(self):
        rule = gauss_rule(CHEB, 21)
        vals = f1(rule.nodes)
        data = BarycentricData(rule.nodes, weights_gauss(rule), vals,
                               LAMBDA_STAR)
        tol = 1e-4 * np.max(np.abs(vals))
        for j in (0, 7, 20):
            target = vals[j] / (1.0 + LAMBDA_STAR)
            for h in (1e-6, 1e-9, 1e-12):
                x = rule.nodes[j] + h
                assert abs(interp_barycentric(data, x) - target) <= tol
                assert abs(interp_modified_lagrange(data, x) - target) <= tol

    def test_vanishing_denominator_raises(self):
        # unreachable through the validated constructor (alternating signs
        # keep the sum away from zero), so corrupt the weights behind it
        data = BarycentricData(np.array([-1.0, 1.0]), np.array([1.0, -1.0]),
                               np.zeros(2))
        object.__setattr__(data, "weights", np.array([1.0, 1.0]))
        with pytest.raises(RuntimeError):
            interp_barycentric(data, 0.0)

    def test_vanishing_denominator_raises_with_stacked_values(self):
        data = BarycentricData(np.array([-1.0, 1.0]), np.array([1.0, -1.0]),
                               np.ones((2, 3)))
        object.__setattr__(data, "weights", np.array([1.0, 1.0]))
        with pytest.raises(RuntimeError):
            interp_barycentric(data, np.array([-1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("nodes", [
        np.array([-0.75, -0.25, 0.0, 0.5, 1.0]), gauss_rule(LEG, 301).nodes],
        ids=["hand", "legendre-301"])
    def test_node_hits_match_brute_force(self, nodes):
        x = np.concatenate([
            nodes, np.nextafter(nodes, -2.0), np.nextafter(nodes, 2.0),
            [-0.0, -1.0, 1.0, 1.5, -np.inf, np.inf, np.nan], nodes[::-1],
            _rng(10).uniform(-1.0, 1.0, 50)])
        rows, cols = _node_hits(nodes, x, 0.0)
        want_rows, want_cols = np.nonzero(x[:, None] == nodes[None, :])
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(cols, want_cols)
        assert rows.size >= 2 * nodes.size


class TestNextToANode:
    """A point a hair off a node counts as that node.

    The 21- and 201-point Chebyshev rules have a node at 0.0.  Points 1e-310
    or 5e-324 from it once turned the quotient form to NaN, the modified
    Lagrange form and the Lebesgue function to inf or NaN, and 1e-300 did
    so for samples of 1e10: 1/(x - x_j) or W_j f_j/(x - x_j) overflowed.  At
    201 nodes the direct product prod_j c_j = 1/l(x) of the modified Lagrange
    form overflows first, below about 5e-251.  Every distance from 1e-250
    down to the smallest subnormal, on both sides, must give the value at
    the node within Higham's gamma_{3N+4} (the Lebesgue function is 1 at a
    node), with no warning.
    """

    x = np.concatenate([[5e-324, 1e-310, 1e-300], np.logspace(-323, -250, 74)])
    x = np.concatenate([x, -x])

    @staticmethod
    def _rule(pts):
        rule = gauss_rule(CHEB, pts)
        assert rule.nodes[pts // 2] == 0.0
        return rule, (3 * pts + 1) * np.finfo(float).eps / 2.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [0.0, LAMBDA_STAR])
    @pytest.mark.parametrize("scale", [1.0, 1e10])
    @pytest.mark.parametrize("pts", [21, 201])
    def test_every_kernel_gives_the_node_value(self, pts, scale, lam):
        rule, rtol = self._rule(pts)
        vals = scale * (1.0 + f1(rule.nodes))
        one = BarycentricData(rule.nodes, weights_gauss(rule), vals, lam)
        two = BarycentricData(rule.nodes, weights_gauss(rule),
                              np.column_stack([vals, -vals]), lam)
        want = vals[pts // 2] / (1.0 + lam)
        for form in (interp_barycentric, interp_modified_lagrange):
            np.testing.assert_allclose(form(one, self.x), want, rtol=rtol,
                                       err_msg=form.__name__)
            np.testing.assert_allclose(form(two, self.x),
                                       np.tile([want, -want], (self.x.size, 1)),
                                       rtol=rtol, err_msg=form.__name__)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pts", [21, 201])
    def test_lebesgue_function_gives_one(self, pts):
        rule, rtol = self._rule(pts)
        np.testing.assert_allclose(barycentric._lebesgue_function(rule, self.x),
                                   1.0, rtol=rtol)

    def test_nearer_of_two_close_nodes(self):
        # nodes closer together than the radius: a point counts as the nearer
        nodes = np.array([-1.0, 0.0, 1e-310, 3e-310, 1.0])
        x = np.array([4e-311, 6e-311, 2.1e-310, 0.5, -5e-324, 3e-310])
        rows, cols = _node_hits(nodes, x, 1e-300)
        np.testing.assert_array_equal(rows, [0, 1, 2, 4, 5])
        np.testing.assert_array_equal(cols, [1, 2, 3, 1, 3])


class TestStackedValues:
    """Each column of a stacked call is bitwise the call on that column."""

    @staticmethod
    def _data(pts, lam, k=3):
        rule = gauss_rule(CHEB, pts)
        cols = [f1(rule.nodes), np.cos(3.0 * rule.nodes),
                _rng(pts).uniform(-1.0, 1.0, pts)][:k]
        return rule, BarycentricData(rule.nodes, weights_gauss(rule),
                                     np.column_stack(cols), lam)

    @staticmethod
    def _column(data, c):
        return BarycentricData(data.nodes, data.weights, data.values[:, c],
                               data.lam)

    @pytest.mark.parametrize("lam", [0.0, LAMBDA_STAR])
    @pytest.mark.parametrize("pts", [21, 600])
    def test_columns_bitwise_equal_single_calls(self, lam, pts):
        rule, data = self._data(pts, lam)
        inside = _rng(12).uniform(-0.99, 0.99, 2500)  # spans several blocks
        hull = np.array([-1.0, 1.0, 1.0, -1.0])  # outside the Chebyshev nodes
        hits = rule.nodes[::3]
        unsorted = np.concatenate([inside[:40], hits, hull, inside[:40]])
        for form in (interp_barycentric, interp_modified_lagrange):
            for x in (inside, hull, hits, unsorted, unsorted[:80].reshape(8, 10)):
                got = form(data, x)
                assert got.shape == x.shape + (3,)
                for c in range(3):
                    single = form(self._column(data, c), x)
                    np.testing.assert_array_equal(got[..., c], single,
                                                  err_msg=form.__name__)

    @pytest.mark.parametrize("lam", [0.0, LAMBDA_STAR])
    def test_scalar_x(self, lam):
        rule, data = self._data(21, lam)
        for x in (0.3, -1.0, float(rule.nodes[4])):
            got = interp_barycentric(data, x)
            assert got.shape == (3,)
            for c in range(3):
                single = interp_barycentric(self._column(data, c), x)
                assert isinstance(single, float)
                assert got[c] == single

    def test_node_hits_return_the_shrunk_samples(self):
        rule, data = self._data(21, LAMBDA_STAR)
        got = interp_barycentric(data, rule.nodes)
        np.testing.assert_array_equal(got, data.values / (1.0 + LAMBDA_STAR))

    def test_single_column_keeps_a_column_axis(self):
        rule, data = self._data(21, 0.0, k=1)
        x = np.linspace(-1.0, 1.0, 7)
        got = interp_barycentric(data, x)
        assert got.shape == (7, 1)
        np.testing.assert_array_equal(
            got[:, 0], interp_barycentric(self._column(data, 0), x))

    @pytest.mark.parametrize("pts", [21, 600])
    def test_memory_layout_changes_no_bit(self, pts):
        # the numerators are ddot products, whose bits depend on the stride
        # of the column; every layout must reach them as a contiguous copy
        rule, data = self._data(pts, LAMBDA_STAR)
        x = np.concatenate([_rng(15).uniform(-0.99, 0.99, 300), rule.nodes[::7]])
        c_order = np.ascontiguousarray(data.values)
        wide = np.zeros((2 * pts, 6))
        wide[::2, ::2] = c_order
        layouts = {
            "fortran": np.asfortranarray(c_order),
            "transposed view": np.ascontiguousarray(c_order.T).T,
            "strided slice": wide[::2, ::2],
        }
        want = interp_barycentric(
            BarycentricData(data.nodes, data.weights, c_order, data.lam), x)
        for name, values in layouts.items():
            np.testing.assert_array_equal(values, c_order)
            got = interp_barycentric(
                BarycentricData(data.nodes, data.weights, values, data.lam), x)
            np.testing.assert_array_equal(got, want, err_msg=name)
        for c in range(3):
            single = BarycentricData(data.nodes, data.weights,
                                     np.ascontiguousarray(c_order[:, c]),
                                     data.lam)
            np.testing.assert_array_equal(interp_barycentric(single, x),
                                          want[:, c])

    def test_modified_lagrange_takes_stacked_values(self):
        # the shapes of the quotient form: x.shape + (k,), a float for a
        # scalar x and one sample vector, and the shrunk samples at the nodes
        rule, data = self._data(21, LAMBDA_STAR)
        for x in (0.3, np.linspace(-1.0, 1.0, 7), np.zeros((2, 0)),
                  np.linspace(-2.0, 2.0, 12).reshape(3, 4)):
            got = interp_modified_lagrange(data, x)
            assert got.shape == np.shape(x) + (3,)
            assert got.shape == interp_barycentric(data, x).shape
        one = interp_modified_lagrange(self._column(data, 0), 0.3)
        assert isinstance(one, float)
        assert one == interp_modified_lagrange(data, 0.3)[0]
        k1 = BarycentricData(data.nodes, data.weights, data.values[:, :1], data.lam)
        assert interp_modified_lagrange(k1, np.zeros(5)).shape == (5, 1)
        np.testing.assert_array_equal(interp_modified_lagrange(data, rule.nodes),
                                      data.values / (1.0 + LAMBDA_STAR))


class TestBlockIndependence:
    """The row block is a cache-size choice: no budget changes a bit."""

    BUDGETS = (7, 10**9)  # one row per block; one block for every x

    @staticmethod
    def _x(rule):
        step = barycentric._block_rows(10**6, len(rule))
        inside = _rng(13).uniform(-0.99, 0.99, 3 * step + 5)
        # node hits on the first and last row of a default block and just past it
        for row in (0, step - 1, step, 2 * step - 1):
            inside[row] = rule.nodes[row % len(rule)]
        return inside

    @pytest.mark.parametrize("k", [None, 1, 3])
    @pytest.mark.parametrize("pts", [21, 600])
    def test_budget_changes_no_bit(self, monkeypatch, pts, k):
        rule = gauss_rule(CHEB, pts)
        cols = np.column_stack([f1(rule.nodes), np.cos(3.0 * rule.nodes),
                                _rng(pts).uniform(-1.0, 1.0, pts)])
        values = cols[:, 0] if k is None else cols[:, :k]
        data = BarycentricData(rule.nodes, weights_gauss(rule), values,
                               LAMBDA_STAR)
        inside = self._x(rule)
        unsorted = _rng(14).permutation(inside)
        points = (inside, unsorted, unsorted[:80].reshape(8, 10))
        forms = [interp_barycentric]
        if k is None:
            forms.append(interp_modified_lagrange)
        default = [[form(data, x) for x in points] for form in forms]
        for budget in self.BUDGETS:
            monkeypatch.setattr(barycentric, "_BLOCK_ENTRIES", budget)
            for form, want in zip(forms, default):
                for x, expected in zip(points, want):
                    np.testing.assert_array_equal(form(data, x), expected)

    @pytest.mark.parametrize("budget", (barycentric._BLOCK_ENTRIES,) + BUDGETS)
    def test_empty_x(self, monkeypatch, budget):
        monkeypatch.setattr(barycentric, "_BLOCK_ENTRIES", budget)
        rule = gauss_rule(CHEB, 21)
        one = BarycentricData(rule.nodes, weights_gauss(rule), f1(rule.nodes))
        two = BarycentricData(rule.nodes, weights_gauss(rule),
                              np.column_stack([f1(rule.nodes)] * 2))
        assert interp_barycentric(one, np.empty(0)).shape == (0,)
        assert interp_barycentric(two, np.empty(0)).shape == (0, 2)
        assert interp_modified_lagrange(one, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("budget", (barycentric._BLOCK_ENTRIES,) + BUDGETS)
    def test_vanishing_denominator_still_raises(self, monkeypatch, budget):
        monkeypatch.setattr(barycentric, "_BLOCK_ENTRIES", budget)
        data = BarycentricData(np.array([-1.0, 1.0]), np.array([1.0, -1.0]),
                               np.ones((2, 3)))
        object.__setattr__(data, "weights", np.array([1.0, 1.0]))
        x = np.array([-1.0, 0.5, 1.0, 0.0, -1.0])  # the zero after a hit
        with pytest.raises(RuntimeError, match="denominator vanished"):
            interp_barycentric(data, x)

    def test_work_tables_stay_small(self):
        # paper-scale fig3 at its largest N: the work tables must not grow
        # with the number of points (1024-row blocks took about 16 MiB)
        rule = gauss_rule(CHEB, 1001)
        data = BarycentricData(rule.nodes, weights_gauss(rule),
                               np.column_stack([f1(rule.nodes)] * 2))
        x = np.linspace(-1.0, 1.0, 12002)
        tracemalloc.start()
        try:
            got = interp_barycentric(data, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - got.nbytes < 2 * 2**20

    @pytest.mark.parametrize("form", ["modified lagrange", "lebesgue"])
    def test_first_kind_tables_stay_small(self, form):
        # past 513 nodes the node polynomial takes log|c_j| in the rows of
        # the work table, after the vecdot: with a table-sized copy of them
        # for the logs, each worker's block traced 1.87 MB beyond the output
        rule = gauss_rule(CHEB, 1001)
        data = BarycentricData(rule.nodes, weights_gauss(rule), f1(rule.nodes))
        call = {"modified lagrange": lambda x: interp_modified_lagrange(data, x),
                "lebesgue": lambda x: barycentric._lebesgue_function(rule, x)}[form]
        x = np.linspace(-1.0, 1.0, 12002)
        tracemalloc.start()
        try:
            got = call(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - got.nbytes < 1.5 * 2**20

    @pytest.mark.parametrize("form", ["stacked quotient", "quotient",
                                      "modified lagrange", "lebesgue"])
    def test_memory_scales_with_the_output(self, form):
        # far more points than the fig3 grid: beyond the output, only a
        # denominator (8 bytes a point) may grow with x, never a second copy
        # of the points or of the output.  The node-hit search's index, gather
        # and mask arrays (17 bytes a point) are freed before the output is
        # allocated
        rule = gauss_rule(CHEB, 21)
        vals = f1(rule.nodes)
        one = BarycentricData(rule.nodes, weights_gauss(rule), vals)
        two = BarycentricData(rule.nodes, weights_gauss(rule),
                              np.column_stack([vals, -vals]))
        call = {
            "stacked quotient": lambda x: interp_barycentric(two, x),
            "quotient": lambda x: interp_barycentric(one, x),
            "modified lagrange": lambda x: interp_modified_lagrange(one, x),
            "lebesgue": lambda x: barycentric._lebesgue_function(rule, x),
        }[form]
        x = np.concatenate([np.linspace(-1.0, 1.0, 400_000), rule.nodes])
        tracemalloc.start()
        try:
            got = call(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < got.nbytes + 9 * x.size + 2**20


class TestRowShares:
    """Row shares on threads that each call starts and joins are a
    core-count choice: no worker count changes a bit, for one caller, many
    callers or a forked child, and no thread outlives a call."""

    @staticmethod
    def _case(pts):
        rule = gauss_rule(CHEB, pts)
        cols = np.column_stack([f1(rule.nodes), _rng(pts).uniform(-1.0, 1.0, pts)])
        one = BarycentricData(rule.nodes, weights_gauss(rule), cols[:, 0],
                              LAMBDA_STAR)
        two = BarycentricData(rule.nodes, weights_gauss(rule), cols, LAMBDA_STAR)
        step = barycentric._block_rows(10**6, pts)
        x = _rng(pts + 1).uniform(-0.99, 0.99, 7 * step + 5)
        # node hits on the first and last row of every share of 2 or 3
        rows = {0, x.size - 1}
        for workers in (2, 3):
            share = -(-x.size // workers)
            rows.update(row for k in range(1, workers)
                        for row in (k * share - 1, k * share))
        for row in rows:
            x[row] = rule.nodes[row % pts]
        return {
            "quotient": lambda x: interp_barycentric(one, x),
            "stacked quotient": lambda x: interp_barycentric(two, x),
            "modified lagrange": lambda x: interp_modified_lagrange(one, x),
            "lebesgue": lambda x: barycentric._lebesgue_function(rule, x),
        }, x

    @pytest.mark.parametrize("pts", [21, 600, 1001])
    def test_workers_change_no_bit(self, monkeypatch, pts):
        calls, x = self._case(pts)
        monkeypatch.setattr(barycentric, "_WORKERS", 1)
        serial = {name: call(x) for name, call in calls.items()}
        for workers in (2, 3):
            monkeypatch.setattr(barycentric, "_WORKERS", workers)
            for name, call in calls.items():
                np.testing.assert_array_equal(call(x), serial[name],
                                              err_msg=f"{name}, {workers} workers")

    @pytest.mark.parametrize("name", ["quotient", "stacked quotient",
                                      "modified lagrange", "lebesgue"])
    def test_no_thread_outlives_a_call(self, monkeypatch, name):
        calls, x = self._case(600)
        monkeypatch.setattr(barycentric, "_WORKERS", 2)
        each_block = barycentric._each_block
        ran = set()

        def spying(nodes, x, hit_rows, body):
            def spy(rows, table):
                ran.add(threading.current_thread())
                body(rows, table)

            each_block(nodes, x, hit_rows, spy)

        monkeypatch.setattr(barycentric, "_each_block", spying)
        before = threading.active_count()
        for _ in range(3):
            calls[name](x)
            assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in ran - {threading.current_thread()})
        # the caller's thread and one more per call ran the blocks
        assert len(ran) == 4 and threading.current_thread() in ran

    @pytest.mark.parametrize("pts, points, threads", [
        (61, 1001, 1),  # interp's default call: a 940-row block and 61 rows
        (61, 4 * 940 - 1, 1),
        (61, 4 * 940, 2),
        (21, 12001, 2),  # fig3's grid at N = 20: 2.2 blocks a share
    ])
    def test_every_share_holds_two_blocks(self, monkeypatch, pts, points, threads):
        calls, _ = self._case(pts)
        x = np.linspace(-1.0, 1.0, points)
        hits = _node_hits(gauss_rule(CHEB, pts).nodes, x, 0.0)[0].size
        monkeypatch.setattr(barycentric, "_WORKERS", 2)
        each_block = barycentric._each_block
        rows = {}

        def spying(nodes, x, hit_rows, body):
            def spy(block, table):
                thread = threading.current_thread()
                rows[thread] = rows.get(thread, 0) + table.shape[0]
                body(block, table)

            each_block(nodes, x, hit_rows, spy)

        monkeypatch.setattr(barycentric, "_each_block", spying)
        for name, call in calls.items():
            rows.clear()
            call(x)
            assert len(rows) == threads, name
            assert threading.current_thread() in rows, name
            # equal shares, rounded up, less the node hits that skip the table
            assert max(rows.values()) - min(rows.values()) <= 1 + hits, name
            assert sum(rows.values()) == points - hits, name

    def test_shares_are_counted_in_off_node_rows(self, monkeypatch):
        # fig3's L2 pass at N >= 100 evaluates at the rule's own nodes, which
        # are all hits: no table is built, so no thread is started.  fig3's
        # grid at the same N still runs on two shares
        started = []

        class Counting(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(barycentric, "_WORKERS", 2)
        monkeypatch.setattr(threading, "Thread", Counting)
        rule = gauss_rule(CHEB, 1001)
        data = BarycentricData(rule.nodes, weights_gauss(rule),
                               np.column_stack([f3(rule.nodes), f1(rule.nodes)]))
        np.testing.assert_array_equal(interp_barycentric(data, rule.nodes), data.values)
        assert started == []
        interp_barycentric(data, experiments._grid(experiments.paper_config("fig3")))
        assert len(started) == 1

    def test_threads_sharing_the_pool_get_single_thread_bits(self, monkeypatch):
        # 8 callers, each on points of its own, switched every microsecond
        calls, x = self._case(600)
        points = [np.roll(x, 37 * t) for t in range(8)]
        monkeypatch.setattr(barycentric, "_WORKERS", 1)
        serial = [[call(p) for call in calls.values()] for p in points]
        monkeypatch.setattr(barycentric, "_WORKERS", 2)
        got, errors = [None] * 8, []

        def worker(t):
            try:
                got[t] = [[call(points[t]) for call in calls.values()]
                          for _ in range(5)]
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for t in range(8):
            for rounds in got[t]:
                for value, expected in zip(rounds, serial[t]):
                    np.testing.assert_array_equal(value, expected)

    # Python 3.12 and later warn on fork in a process with threads, which
    # is the situation under test
    @pytest.mark.filterwarnings(
        "ignore:This process .* is multi-threaded, use of fork:DeprecationWarning")
    @pytest.mark.skipif(sys.platform != "linux", reason="fork start method")
    def test_forked_child_gets_the_parent_bits(self, monkeypatch):
        # the child is forked after the parent's calls have run their threads
        calls, x = self._case(600)
        monkeypatch.setattr(barycentric, "_WORKERS", 2)
        want = {name: call(x).tobytes() for name, call in calls.items()}
        receive, send = multiprocessing.Pipe(duplex=False)

        def child():
            send.send({name: call(x).tobytes() for name, call in calls.items()})

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        try:
            assert receive.poll(60), "the forked child did not answer"
            got = receive.recv()
        finally:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)
            receive.close()
            send.close()
        assert proc.exitcode == 0
        assert got == want

    def test_every_share_ends_before_an_exception(self, monkeypatch):
        monkeypatch.setattr(barycentric, "_WORKERS", 2)
        nodes = np.array([-1.0, 1.0])
        x = np.linspace(-0.5, 0.5, 4 * barycentric._block_rows(10**6, 2))
        half = x.size // 2
        seen = []

        def fail_first(rows, table):
            if rows.start < half:
                raise ArithmeticError("caller's share")
            time.sleep(0.2)
            seen.append(rows.stop)

        with pytest.raises(ArithmeticError, match="caller's share"):
            barycentric._each_block(nodes, x, np.empty(0, dtype=int), fail_first)
        assert seen == [3 * half // 2, x.size]

        def fail_last(rows, table):
            if rows.start >= half:
                raise ArithmeticError("pool's share")

        with pytest.raises(ArithmeticError, match="pool's share"):
            barycentric._each_block(nodes, x, np.empty(0, dtype=int), fail_last)


class TestBlocksAreSlices:
    """Every block body gets is a slice of consecutive off-node points of x,
    and the blocks cover each point _node_hits leaves exactly once."""

    @staticmethod
    def _check(nodes, x, hit_rows, blocks):
        step = barycentric._block_rows(x.size, nodes.size)
        for rows, height in blocks:
            assert isinstance(rows, slice) and rows.step is None
            assert 0 <= rows.start < rows.stop <= x.size
            assert rows.stop - rows.start == height <= step
        seen = [np.arange(rows.start, rows.stop) for rows, _ in blocks]
        seen = np.sort(np.concatenate(seen)) if seen else np.empty(0, dtype=int)
        # equal to a set of distinct rows: the slices are disjoint
        np.testing.assert_array_equal(seen, np.setdiff1d(np.arange(x.size), hit_rows))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_slices_cover_the_off_node_points(self, monkeypatch, workers):
        monkeypatch.setattr(barycentric, "_WORKERS", workers)
        monkeypatch.setattr(barycentric, "_BLOCK_ENTRIES", 7 * 21)  # 7-row blocks
        nodes = gauss_rule(CHEB, 21).nodes
        step = barycentric._block_rows(10**6, nodes.size)
        x = _rng(17).uniform(-0.99, 0.99, 12 * step + 3)
        share = -(-x.size // 2)  # two shares on two workers
        edges = x.copy()
        # first and last row of x, of blocks and of the shares, and around them
        for row in (0, 1, step - 1, step, 2 * step - 1, share - 1, share,
                    share + 1, x.size - 1):
            edges[row] = nodes[row % nodes.size]
        adjacent = x.copy()
        adjacent[share - 5:share + 12] = nodes[:17]  # across a share and blocks
        cases = {"no hit": x, "edges": edges, "adjacent": adjacent,
                 "only hits": nodes[_rng(18).integers(0, nodes.size, x.size)],
                 "one ulp off": np.nextafter(edges, 2.0)}
        for name, points in cases.items():
            hit_rows = _node_hits(nodes, points,
                                  barycentric._hit_radius(np.ones(nodes.size)))[0]
            blocks = []
            barycentric._each_block(
                nodes, points, hit_rows,
                lambda rows, table: blocks.append((rows, table.shape[0])))
            self._check(nodes, points, hit_rows, blocks)
            if name == "no hit":  # 87 rows in 7-row blocks; or 44 and 43
                assert len(blocks) == {1: 13, 2: 14}[workers]
            if name == "only hits":
                assert blocks == []

    def test_every_kernel_gets_slices(self, monkeypatch):
        # the bounds grid at N = 800, every node among its points: hits in
        # every share and nearly every block
        rule = gauss_rule(CHEB, 801)
        x = np.union1d(np.linspace(-1.0, 1.0, 12001), rule.nodes)
        vals = f1(rule.nodes)
        one = BarycentricData(rule.nodes, weights_gauss(rule), vals, LAMBDA_STAR)
        two = BarycentricData(rule.nodes, weights_gauss(rule),
                              np.column_stack([vals, -vals]), LAMBDA_STAR)
        calls = {
            "quotient": lambda: interp_barycentric(one, x),
            "stacked quotient": lambda: interp_barycentric(two, x),
            "modified lagrange": lambda: interp_modified_lagrange(one, x),
            "lebesgue": lambda: barycentric._lebesgue_function(rule, x),
        }
        each_block = barycentric._each_block
        seen = []

        def spying(nodes, points, hit_rows, body):
            blocks = []

            def spy(rows, table):
                blocks.append((rows, table.shape[0]))
                body(rows, table)

            each_block(nodes, points, hit_rows, spy)
            seen.append((nodes, points, hit_rows, blocks))

        monkeypatch.setattr(barycentric, "_WORKERS", 2)
        monkeypatch.setattr(barycentric, "_each_block", spying)
        for name, call in calls.items():
            seen.clear()
            call()
            [(nodes, points, hit_rows, blocks)] = seen
            assert hit_rows.size == rule.nodes.size, name
            self._check(nodes, points, hit_rows, blocks)


class TestNodeHitsSkipTheTable:
    """Points equal to a node never reach the difference table."""

    def test_rows_reaching_the_table(self, monkeypatch):
        rows = []
        each_block = barycentric._each_block

        def counting(nodes, x, hit_rows, body):
            def spy(block, table):
                assert np.all(table != 0.0)
                rows.append(table.shape[0])
                body(block, table)

            each_block(nodes, x, hit_rows, spy)

        monkeypatch.setattr(barycentric, "_each_block", counting)
        rule = gauss_rule(CHEB, 21)
        vals = f1(rule.nodes)
        one = BarycentricData(rule.nodes, weights_gauss(rule), vals,
                              LAMBDA_STAR)
        two = BarycentricData(rule.nodes, weights_gauss(rule),
                              np.column_stack([vals, -vals]), LAMBDA_STAR)
        calls = {
            "quotient": lambda x: interp_barycentric(one, x),
            "stacked quotient": lambda x: interp_barycentric(two, x),
            "modified lagrange": lambda x: interp_modified_lagrange(one, x),
            "lebesgue": lambda x: barycentric._lebesgue_function(rule, x),
        }
        off = _rng(16).uniform(-0.99, 0.99, 7)
        mixed = np.concatenate([rule.nodes[::2], off, rule.nodes[1::4]])
        for name, call in calls.items():
            rows.clear()
            call(rule.nodes)
            assert rows == [], name
            rows.clear()
            got = call(mixed)
            assert rows == [7], name
            # the off-node rows are bitwise a call on those points alone
            np.testing.assert_array_equal(got[11:18], call(off), err_msg=name)
        np.testing.assert_array_equal(calls["lebesgue"](rule.nodes), np.ones(21))


def _table_mismatches(nodes, x):
    """Entries of the Cauchy tables _each_block hands to body that differ
    from np.divide(1.0, np.subtract.outer(x[rows], nodes)) in any bit,
    compared as int64 so that -0.0 and +0.0 differ, over blocks of one row,
    of seven rows and of _block_rows.

    The points within the kernels' hit radius of a node, 2^-1000 for weights
    and samples of magnitude 1, are the hits; the rows given must cover every
    other point, once each.  It sets the module's block budget and worker
    count itself and restores them, so that a child process can run it as
    it is.
    """
    hit_rows = _node_hits(nodes, x, barycentric._hit_radius(np.ones(nodes.size)))[0]
    off_node = np.setdiff1d(np.arange(x.size), hit_rows)
    saved = barycentric._BLOCK_ENTRIES, barycentric._WORKERS
    bad = 0
    try:
        barycentric._WORKERS = 2
        for budget in (1, 7 * nodes.size, saved[0]):
            barycentric._BLOCK_ENTRIES = budget
            tables = []
            barycentric._each_block(
                nodes, x, hit_rows,
                lambda rows, table: tables.append((rows, table.copy())))
            seen = np.concatenate([np.arange(x.size)[rows] for rows, _ in tables])
            assert np.array_equal(np.sort(seen), off_node), budget
            for rows, table in tables:
                want = np.divide(1.0, np.subtract.outer(x[rows], nodes))
                bad += np.count_nonzero(table.view(np.int64) != want.view(np.int64))
    finally:
        barycentric._BLOCK_ENTRIES, barycentric._WORKERS = saved
    return bad


def _table_cases():
    """(nodes, x) pairs: fig3's Chebyshev rules and nodes down among the
    subnormals, against signed zeros, +-1, one ulp either side of every
    node, |x| up to 1e300 and subnormal points."""
    tiny = np.finfo(float).smallest_subnormal
    cases = []
    for nodes in (gauss_rule(CHEB, 21).nodes, gauss_rule(CHEB, 1001).nodes,
                  np.array([-1.0, -1e-300, -3e-320, 0.0, 7 * tiny, 1e-310,
                            0.5, 1.0])):
        x = np.concatenate([
            [0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1.5e-300, -2.5e16,
             tiny, -tiny, 3 * tiny, 2.2e-308, -1e-310, 4e-320],
            np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf), nodes,
            _rng(nodes.size).uniform(-1.0, 1.0, 3 * nodes.size + 1)])
        cases.append((nodes, x))
    return cases


class TestDifferenceTable:
    """Each block's differences x - x_j are one K = 2 GEMM, [x, 1] @ [1; -x_j]:
    both products are exact and the sum is rounded once, so every entry of
    the Cauchy table 1/(x - x_j) that body gets must have the bits of the
    reciprocal of the subtraction, under every kernel the BLAS dispatches
    to.  Subnormal differences are hits, and never reach the table."""

    def test_every_entry_is_the_subtraction(self):
        for nodes, x in _table_cases():
            assert _table_mismatches(nodes, x) == 0

    @pytest.mark.parametrize("core", ["Haswell", "Prescott"])
    def test_every_entry_is_the_subtraction_under_openblas_core(self, core):
        # OPENBLAS_VERBOSE=2 makes OpenBLAS name the core it runs on, or say
        # it does not know the one asked for
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        probe = ("import sys; sys.path[:0] = sys.argv[1:]; import test_barycentric as t; "
                 "print(sum(t._table_mismatches(*case) for case in t._table_cases()))")
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", probe, here, src],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_VERBOSE": "2"})
        if "Core:" not in done.stderr or "Core not found" in done.stderr:
            pytest.skip(f"{core} is not in this build's OpenBLAS dispatch list")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"


def _exact_products(a, b):
    """(p, e) with p + e == a * b exactly, by Veltkamp splitting (Dekker)."""
    def split(v):
        c = 134217729.0 * v  # 2**27 + 1
        hi = c - (c - v)
        return hi, v - hi

    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class TestNumeratorAccuracy:
    """The ddot numerators against correctly rounded fsum references.

    The references sum the exact products of the same rounded ratios
    r_j = W_j/(x - x_j) and samples, and the ratios themselves, so they
    isolate the reductions.  Each point's error stays within the a priori
    bound of any summation order, and the worst error within twice that of
    the pairwise sum the numerators used before.
    """

    @pytest.mark.parametrize("n", [20, 200, 1000])
    @pytest.mark.parametrize("spec", [CHEB, LEG, BasisSpec(20.0, -0.9)],
                             ids=["chebyshev1", "legendre", "jacobi20_m0.9"])
    def test_against_fsum(self, spec, n):
        rule = gauss_rule(spec, n + 1)
        data = BarycentricData(rule.nodes, weights_gauss(rule),
                               f1(rule.nodes) + np.cos(7.0 * rule.nodes))
        x = _rng(n).uniform(-1.0, 1.0, 400)
        ratios = data.weights / (x[:, None] - data.nodes)
        p, e = _exact_products(ratios, data.values)
        num = np.array([math.fsum(np.concatenate(row)) for row in zip(p, e)])
        den = np.array([math.fsum(row) for row in ratios])
        reference = num / den
        got = interp_barycentric(data, x)

        u = np.finfo(float).eps / 2.0
        gamma = (n + 1) * u / (1.0 - (n + 1) * u)
        pairwise_den = ratios.sum(axis=1)  # bitwise the package's denominator
        bound = (gamma * (np.abs(p).sum(axis=1)
                          + np.abs(reference) * np.abs(ratios).sum(axis=1))
                 / np.abs(pairwise_den) + 2.0 * u * np.abs(got))
        # the bound is itself a sum of N+1 rounded terms
        assert np.all(np.abs(got - reference) <= (1.0 + 2.0 * gamma) * bound)

        pairwise = (ratios * data.values).sum(axis=1) / pairwise_den
        err = np.max(np.abs(got - reference))
        base = np.max(np.abs(pairwise - reference))
        floor = np.finfo(float).eps * np.max(np.abs(reference))
        assert err <= 2.0 * max(base, floor)


class TestCauchyReductions:
    """The quotient form's one vecdot against correctly rounded fsum references.

    The references sum the exact products of the same rounded Cauchy entries
    c_j = 1/(x - x_j) and rows W_j and W_j f_j that the package reduces, so
    they isolate the reductions: each ddot is within gamma_{N+1} of its sum
    of absolute products, whatever order it sums in.
    """

    @pytest.mark.parametrize("n", [20, 200, 1000])
    @pytest.mark.parametrize("spec", [CHEB, LEG, BasisSpec(20.0, -0.9)],
                             ids=["chebyshev1", "legendre", "jacobi20_m0.9"])
    def test_against_fsum(self, spec, n):
        rule = gauss_rule(spec, n + 1)
        data = BarycentricData(rule.nodes, weights_gauss(rule),
                               f1(rule.nodes) + np.cos(7.0 * rule.nodes))
        x = _rng(n).uniform(-1.0, 1.0, 400)
        cauchy = 1.0 / (x[:, None] - data.nodes)
        weighted = data.weights * data.values
        sums = []
        for row in (data.weights, weighted):
            p, e = _exact_products(cauchy, row)
            sums.append((np.array([math.fsum(np.concatenate(t)) for t in zip(p, e)]),
                         np.abs(p).sum(axis=1)))
        (den, den_abs), (num, num_abs) = sums
        reference = num / den
        got = interp_barycentric(data, x)

        u = np.finfo(float).eps / 2.0
        gamma = (n + 1) * u / (1.0 - (n + 1) * u)
        # the bound is itself a sum of N+1 rounded terms, and the computed
        # denominator is within gamma of den
        bound = (gamma * (num_abs + np.abs(reference) * den_abs)
                 / ((1.0 - gamma) * np.abs(den)) + 2.0 * u * np.abs(got))
        assert np.all(np.abs(got - reference) <= (1.0 + 2.0 * gamma) * bound)


class TestQuotientFormOracle:
    """The quotient form against 50 digits at fig3's worst cells.

    The oracle takes the package's own float nodes, weights and samples as
    exact, so only the evaluation's rounding shows.  Chebyshev-1 rules at
    fig3's N = 200, 860 and 1000 sample f3 and f3 plus fig3's noise for
    that N.  The points are x = -1 and 1, the outermost nodes one ulp either
    side, and each column's argmax of |p - f3| on fig3's grid.  Each error
    stays within 2 eps times the Chebyshev Lebesgue constant bound
    (2/pi) log(N+1) + 1 (Rivlin) times max|f| of its column; Higham (IMA J.
    Numer. Anal. 24, 2004) bounds the quotient form's forward error by
    O(N eps) times the Lebesgue constant times max|f|.
    """

    config = experiments.paper_config("fig3")
    grid = experiments._grid(config)

    @pytest.mark.parametrize("lam", [0.0, LAMBDA_STAR])
    @pytest.mark.parametrize("n", [200, 860, 1000])
    def test_worst_cells(self, n, lam):
        rule = gauss_rule(CHEB, n + 1)
        clean = f3(rule.nodes)
        noise = experiments._noise_from_config(self.config,
                                               self.config.n_values.index(n))
        data = BarycentricData(rule.nodes, weights_gauss(rule),
                               np.column_stack([clean, add_noise(clean, noise)]),
                               lam)
        p = interp_barycentric(data, self.grid) * (1.0 + lam)
        worst = self.grid[np.argmax(np.abs(p - f3(self.grid)[:, None]), axis=0)]
        ends = rule.nodes[[0, -1]]
        x = np.concatenate([[-1.0, 1.0], np.nextafter(ends, -2.0),
                            np.nextafter(ends, 2.0), worst])
        want = quotient_form_oracle(data.nodes, data.weights, data.values, x)
        want /= 1.0 + lam
        lebesgue = 2.0 / math.pi * math.log(n + 1) + 1.0
        scale = np.max(np.abs(data.values), axis=0) / (1.0 + lam)
        err = np.abs(interp_barycentric(data, x) - want)
        assert np.all(err <= 2.0 * np.finfo(float).eps * lebesgue * scale)


class TestFirstKindOracle:
    """The modified Lagrange form against 50 digits at fig3's worst cells.

    The oracle takes the package's float nodes, weights and samples as
    exact, and carries the weights to the product-formula scale as the
    package does, so only the evaluation's rounding shows.  Chebyshev-1
    rules at N = 200 and 1000 (the log-space node polynomial) sample f3 and
    f3 plus fig3's noise for that N; the points are x = -1 and 1, the
    outermost nodes one ulp either side, and each column's argmax of
    |p - f3| on fig3's grid.  Higham (IMA J. Numer. Anal. 24, 2004, Thm
    3.1) bounds the form's forward error by gamma_{3N+4} sum_j |l_j(x) f_j|,
    at most (3N + 4) eps/2 times the Lebesgue constant, (2/pi) log(N+1) + 1
    for these nodes (Rivlin), times max|f|.  The errors sit at 0.04-0.14 of
    that bound.
    """

    config = experiments.paper_config("fig3")
    grid = experiments._grid(config)

    @pytest.mark.parametrize("n", [200, 1000])
    def test_worst_cells(self, n):
        rule = gauss_rule(CHEB, n + 1)
        clean = f3(rule.nodes)
        noise = experiments._noise_from_config(self.config,
                                               self.config.n_values.index(n))
        data = BarycentricData(rule.nodes, weights_gauss(rule),
                               np.column_stack([clean, add_noise(clean, noise)]))
        p = interp_modified_lagrange(data, self.grid)
        worst = self.grid[np.argmax(np.abs(p - f3(self.grid)[:, None]), axis=0)]
        ends = rule.nodes[[0, -1]]
        x = np.concatenate([[-1.0, 1.0], np.nextafter(ends, -2.0),
                            np.nextafter(ends, 2.0), worst])
        want = first_kind_oracle(data.nodes, data.weights, data.values, x)
        lebesgue = 2.0 / math.pi * math.log(n + 1) + 1.0
        scale = np.max(np.abs(data.values), axis=0)
        err = np.abs(interp_modified_lagrange(data, x) - want)
        assert np.all(err <= (3 * n + 4) / 2 * np.finfo(float).eps * lebesgue * scale)


class TestScaleLaw:
    """Both forms at any node span.  The first kind works in a power-of-two
    frame where the nodes span about 2, so nodes and points scaled by 2^k
    give its bits at k = 0, as they give the quotient form's; nodes that
    span 2e-3, 6 or 2e3 leave it within 4 N eps of each column's largest
    value against 40 digits.  Measured: at most 1.9 N eps, at 514 nodes,
    the first past the direct node polynomial.  Without the frame, 201
    nodes scaled by 2^10 gave NaN and scaled by 2^-10 overflowed.  The
    points are the scaled +-1, points 1 ulp and 1e-9 times the scale from
    three nodes, and two uniform points."""

    @staticmethod
    def _case(name, pts, scale):
        rule = gauss_rule(BasisSpec.from_name(name), pts)
        rng = _rng(pts)
        picked = scale * rule.nodes[rng.choice(pts, 3, replace=False)]
        nodes = scale * rule.nodes
        x = np.concatenate([[-scale, scale], picked + 1e-9 * scale, picked - 1e-9 * scale,
                            np.nextafter(picked, np.inf), np.nextafter(picked, -np.inf),
                            scale * rng.uniform(-1.0, 1.0, 2)])
        data = BarycentricData(nodes, weights_gauss(rule),
                               np.column_stack([f1(rule.nodes), f3(rule.nodes)]))
        return data, x

    @pytest.mark.parametrize("name", ["chebyshev1", "legendre", "jacobi(0.3,-0.25)"])
    @pytest.mark.parametrize("pts", [21, 201, 513, 514, 1001])
    def test_power_of_two_scaling_changes_no_bit(self, name, pts):
        data, x = self._case(name, pts, 1.0)
        for form in (interp_barycentric, interp_modified_lagrange):
            want = form(data, x)
            for k in (-40, -10, 10, 40):
                scaled = BarycentricData(np.ldexp(data.nodes, k), data.weights, data.values)
                np.testing.assert_array_equal(form(scaled, np.ldexp(x, k)), want,
                                              err_msg=f"{form.__name__}, 2^{k}")

    @pytest.mark.parametrize("name", ["chebyshev1", "legendre", "jacobi(0.3,-0.25)"])
    @pytest.mark.parametrize("pts", [21, 201, 513, 514, 1001])
    @pytest.mark.parametrize("scale", [1e-3, 3.0, 1e3])
    def test_first_kind_against_40_digits(self, name, pts, scale):
        data, x = self._case(name, pts, scale)
        want = first_kind_oracle(data.nodes, data.weights, data.values, x, dps=40)
        err = np.abs(interp_modified_lagrange(data, x) - want)
        n = pts - 1
        assert np.all(err <= 4 * n * np.finfo(float).eps * np.max(np.abs(want), axis=0))


class TestAgainstCoefficientRoute:
    @pytest.mark.parametrize("spec", [CHEB, LEG], ids=["chebyshev1", "legendre"])
    @pytest.mark.parametrize("n", [16, 60])
    def test_full_degree_fit_equals_interpolation(self, spec, n):
        rule = gauss_rule(spec, n + 1)
        vals = f1(rule.nodes)
        x = _rng(8).uniform(-1.0, 1.0, 500)
        for lam in (0.0, LAMBDA_STAR):
            approx = fit(rule, n, lam, vals)
            data = BarycentricData(rule.nodes, weights_gauss(rule), vals, lam)
            assert np.max(np.abs(evaluate(approx, x)
                                 - interp_barycentric(data, x))) <= 1e-9

    def test_large_node_count_log_scale_path(self):
        rule = gauss_rule(CHEB, 601)
        vals = f1(rule.nodes)
        x = _rng(9).uniform(-1.0, 1.0, 200)
        prod_data = BarycentricData(rule.nodes, weights_product(rule.nodes),
                                    vals, LAMBDA_STAR)
        gauss_data = BarycentricData(rule.nodes, weights_gauss(rule), vals,
                                     LAMBDA_STAR)
        approx = fit(rule, 600, LAMBDA_STAR, vals)
        a = interp_modified_lagrange(prod_data, x)
        b = interp_barycentric(gauss_data, x)
        c = evaluate(approx, x)
        assert np.max(np.abs(a - b)) <= 1e-9
        assert np.max(np.abs(a - c)) <= 1e-9


def _explicit_weight_error(rule):
    """max_j |W_j P_m/(W_m P_j) - 1|: the explicit weights W_j proportional
    to sqrt((1 - x_j^2) w_j) that _lebesgue_function takes, against the
    product-formula weights P_j, both scaled at m, the largest W_j.  Next to
    node j the Lebesgue function is about W_j P_m/(W_m P_j), so this is how
    far the rule's weights w_j may pull it below 1."""
    nodes = rule.nodes
    explicit = np.sqrt((1.0 - nodes) * (1.0 + nodes) * rule.weights)
    product = np.abs(weights_product(nodes))
    m = np.argmax(explicit)
    return float(np.max(np.abs(explicit / explicit[m] * product[m] / product - 1.0)))


class TestConstantsProperty:
    """Over Chebyshev, Legendre and Jacobi rules, with x drawn in [-1, 1]
    among nodes and points one ulp either side of them: both forms give a
    constant c back as c/(1+lambda) within (3N + 4) eps Lambda(x) |c|, the
    constant of Higham's bounds (IMA J. Numer. Anal. 24, 2004) taken in
    units of eps, and the Lebesgue function is 1 or more less rounding and
    the rule's weight error.

    The quotient form takes weights_gauss, as the package does; the first
    kind takes weights_product, since with the recurrence weights it misses
    the constant by up to 7.3e3 N eps Lambda(x) |c| (ROADMAP item 3).  The
    Lebesgue function dips below 1 by up to 8.0e-12 = 126 N eps next to the
    outermost node of jacobi(-0.877, 1.21), N = 286, where the explicit
    weight from the rule's w_j is 1.6e-11 off the 40-digit product formula;
    so its bound is 1 - (N + 2) eps - _explicit_weight_error(rule).  c is 0
    or at least 1e-200 in magnitude: a subnormal c misses any relative bound."""

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["chebyshev1", "legendre", "jacobi"]),
           a=st.floats(-0.9, 2.0, exclude_min=True),
           b=st.floats(-0.9, 2.0, exclude_min=True),
           n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           c=st.one_of(st.just(0.0), st.floats(1e-200, 1e3), st.floats(-1e3, -1e-200)),
           lam=st.floats(0.0, 10.0))
    def test_constants_and_lebesgue_function(self, kind, a, b, n, seed, c, lam):
        spec = BasisSpec(a, b) if kind == "jacobi" else BasisSpec.from_name(kind)
        rule = gauss_rule(spec, n + 1)
        rng = _rng(seed)
        picked = rule.nodes[rng.integers(0, n + 1, 12)]
        x = np.concatenate([rng.uniform(-1.0, 1.0, 24), [-1.0, 1.0], picked,
                            np.nextafter(picked, 2.0), np.nextafter(picked, -2.0)])
        rng.shuffle(x)
        eps = np.finfo(float).eps
        lebesgue = barycentric._lebesgue_function(rule, x)
        assert np.all(lebesgue >= 1.0 - (n + 2) * eps - _explicit_weight_error(rule))
        bound = (3 * n + 4) * eps * lebesgue * abs(c)
        want = c / (1.0 + lam)
        for weights, form in ((weights_gauss(rule), interp_barycentric),
                              (weights_product(rule.nodes), interp_modified_lagrange)):
            data = BarycentricData(rule.nodes, weights, np.full(n + 1, c), lam)
            got = form(data, x)
            assert np.all(np.abs(got - want) <= bound), form.__name__


# (spec, N, Lambda(+-1), N Lambda(+-1) eps) of rules the quotient form refuses
_UNSTABLE_RULES = [
    ("jacobi(20,-0.9)", 200, "1.87e+28", "8.32e+14"),
    ("jacobi(5,0)", 200, "5.76e+09", "0.000256"),
    ("jacobi(5,0)", 60, "9.79e+06", "1.3e-07"),
    ("jacobi(2,2)", 1000, "2.78e+06", "6.17e-07"),
    ("jacobi(2,2)", 200, "5.15e+04", "2.29e-09"),
]


class TestQuotientFormCheck:
    """_quotient_weights refuses a rule whose Lebesgue function at
    x = +-1 times N eps exceeds 1e-9, and gives the weights of every rule a
    shipped config or CI run takes, up to N = 2000, bitwise weights_gauss."""

    @pytest.mark.parametrize("name", ["chebyshev1", "legendre", "jacobi(0.3,-0.25)",
                                      "jacobi(0.5,0.5)"])
    @pytest.mark.parametrize("n", [1, 60, 200, 1000, 2000])
    def test_shipped_specs_pass(self, name, n):
        rule = gauss_rule(BasisSpec.from_name(name), n + 1)
        [weights] = _quotient_weights([rule])
        np.testing.assert_array_equal(weights, weights_gauss(rule))

    @pytest.mark.parametrize("name, n, peak, bound", [
        pytest.param(*case, id="-".join(map(str, case[:3]))) for case in _UNSTABLE_RULES])
    def test_unstable_rules_raise(self, name, n, peak, bound):
        spec = BasisSpec.from_name(name)
        with pytest.raises(ValueError) as info:
            _quotient_weights([gauss_rule(spec, n + 1)])
        assert str(info.value) == (
            f"the quotient form is unstable in {n + 1} {spec.name} points "
            f"(N = {n}): Lebesgue function {peak} at x = +-1, N Lambda eps = "
            f"{bound}, over 1e-09")

    def test_the_limit_is_n_lambda_eps_1e_9(self):
        # N Lambda(+-1) eps, not Lambda(+-1) alone: jacobi(-0.5, 20) at N = 7
        # has Lambda(+-1) = 4.9e5 and passes, where jacobi(2, 2) at N = 200
        # has 5.1e4 and is refused; jacobi(0.5, 0.5) at N = 2000 passes just under
        assert barycentric._QUOTIENT_FORM_LIMIT == 1e-9
        eps = np.finfo(float).eps
        for spec, n, lo, hi in ((BasisSpec(-0.5, 20.0), 7, 4.5e5, 1e-9 / (7 * eps)),
                                (BasisSpec(0.5, 0.5), 2000, 1.9e3, 1e-9 / (2000 * eps))):
            rule = gauss_rule(spec, n + 1)
            peak = float(np.max(barycentric._lebesgue_function(rule, np.array([-1.0, 1.0]))))
            assert lo < peak < hi
            [weights] = _quotient_weights([rule])
            np.testing.assert_array_equal(weights, weights_gauss(rule))

    def test_cancelling_quotient_form_is_not_blamed_on_the_weights(self):
        # valid Gauss weights, Lambda(+-1) = 6.7e13: the message blamed the
        # weights alone.  It names the cancellation and the stable form,
        # which evaluates the same data
        rule = gauss_rule(BasisSpec(-0.9, 20.0), 32)
        data = BarycentricData(rule.nodes, weights_gauss(rule), f1(rule.nodes))
        x = np.linspace(-1.0, 1.0, 2001)
        with pytest.raises(RuntimeError) as info:
            interp_barycentric(data, x)
        assert str(info.value) == (
            "barycentric denominator vanished off-node: the weights are "
            "inconsistent, or the quotient form cancels in these nodes; use "
            "interp_modified_lagrange")
        assert np.all(np.isfinite(interp_modified_lagrange(data, x)))


class TestRescaledSamples:
    def test_shrinkage_nearly_cancels_a_known_input_scaling(self):
        # sampling 1.2 f and shrinking with the sweet-spot lambda is the same
        # interpolant as the classical one, times 1.2/(1+lambda) = 1.0004
        rule = gauss_rule(CHEB, 61)
        clean = f1(rule.nodes)
        omega = weights_gauss(rule)
        tik = BarycentricData(rule.nodes, omega, 1.2 * clean, LAMBDA_STAR)
        classical = BarycentricData(rule.nodes, omega, clean, 0.0)
        grid = np.linspace(-1.0, 1.0, 2001)
        factor = 1.2 / (1.0 + LAMBDA_STAR)
        assert factor == pytest.approx(1.0004, abs=1e-4)
        a = interp_barycentric(tik, grid)
        b = factor * interp_barycentric(classical, grid)
        assert np.max(np.abs(a - b)) <= 1e-12
        # at the nodes the rescaled data is reproduced to within the factor
        at_nodes = interp_barycentric(tik, rule.nodes)
        assert np.max(np.abs(at_nodes - clean)) <= abs(factor - 1.0) \
            * np.max(np.abs(clean)) + 1e-12


class TestDomain:
    """The quotient form on [-1, 1], the modified Lagrange form off it,
    against a 50-digit Lagrange sum over the same double nodes and samples."""

    rule = gauss_rule(CHEB, 21)
    data = BarycentricData(rule.nodes, weights_gauss(rule), f1(rule.nodes))

    def _lagrange(self, x):
        with mpmath.workdps(50):
            nodes = [mpmath.mpf(float(v)) for v in self.data.nodes]
            total = mpmath.mpf(0)
            for j, (x_j, f_j) in enumerate(zip(nodes, self.data.values)):
                term = mpmath.mpf(float(f_j))
                for k, x_k in enumerate(nodes):
                    if k != j:
                        term *= (x - x_k) / (x_j - x_k)
                total += term
            return float(total)

    @pytest.mark.parametrize("x", [-1.0, 0.999, 1.0])
    def test_quotient_form_on_the_interval(self, x):
        want = self._lagrange(x)
        assert abs(interp_barycentric(self.data, x) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("x", [2.0, 10.0])
    def test_modified_lagrange_off_the_interval(self, x):
        want = self._lagrange(x)
        assert abs(interp_modified_lagrange(self.data, x) - want) <= 1e-12 * abs(want)
