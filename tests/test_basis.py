"""Recurrence coefficients, orthonormal evaluation, and the reproducing kernel.

The generic-weight recurrence is checked against a moment-based construction
whose integrals come from scipy's QAWS algebraic-weight quadrature, so the
closed forms never test themselves.
"""

import math
import re

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cd_kernel, cd_kernel_quotient, norm_ratio
from tikbary.basis import (
    BasisSpec,
    RecurrenceTable,
    _orthonormal_rows,
    eval_orthonormal,
    recurrence_coefficients,
)
from tikbary.quadrature import gauss_rule

CHEB = BasisSpec.chebyshev1()
LEG = BasisSpec.legendre()
JAC = BasisSpec(0.3, -0.25)
CHEB2 = BasisSpec(0.5, 0.5)  # second kind: the two-pass step starts at k = 1


def _recurrence_expression(spec, l_max, x):
    """Yield rows 0..l_max of the recurrence as its one-line expression."""
    table = recurrence_coefficients(spec, l_max + 2)
    sqb = np.sqrt(table.b)
    p_prev, p_curr = np.zeros_like(x), np.full_like(x, 1.0 / sqb[0])
    yield p_curr
    for k in range(l_max):
        p_prev, p_curr = p_curr, ((x - table.a[k]) * p_curr - sqb[k] * p_prev) / sqb[k + 1]
        yield p_curr


def _assert_bitwise(got, want):
    # bit patterns, so that -0.0 and 0.0 count as different
    np.testing.assert_array_equal(np.array(got).view(np.int64),
                                  np.array(want).view(np.int64))


def _weighted_integral(spec, fn):
    # scipy's 'alg' weight is (x-a)^alpha (b-x)^beta on [a,b], so alpha pairs
    # with the (1+x) exponent and beta with the (1-x) exponent
    val, _ = scipy.integrate.quad(
        fn, -1.0, 1.0, weight="alg",
        wvar=(spec.jacobi_b, spec.jacobi_a), limit=200)
    return val


def _moment_recurrence(spec, n):
    """Monic a_k, b_k by Stieltjes orthogonalization over exact integrals."""
    a = np.zeros(n)
    b = np.zeros(n)
    p_prev = np.array([0.0])
    p_curr = np.array([1.0])
    norm_prev = 1.0
    for k in range(n):
        def inner(q1, q2):
            prod = npp.polymul(q1, q2)
            return _weighted_integral(spec, lambda x: npp.polyval(x, prod))
        norm_curr = inner(p_curr, p_curr)
        a[k] = inner(npp.polymul([0.0, 1.0], p_curr), p_curr) / norm_curr
        b[k] = norm_curr if k == 0 else norm_curr / norm_prev
        p_next = npp.polysub(npp.polymul([-a[k], 1.0], p_curr),
                             (b[k] if k else 0.0) * p_prev)
        p_prev, p_curr, norm_prev = p_curr, p_next, norm_curr
    return a, b


class TestBasisSpec:
    def test_named_masses(self):
        assert CHEB.mass == pytest.approx(math.pi, rel=1e-15)
        assert LEG.mass == pytest.approx(2.0, rel=1e-15)

    def test_generic_mass_matches_beta_integral(self):
        a, b = JAC.jacobi_a, JAC.jacobi_b
        expected = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) \
            * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
        assert JAC.mass == pytest.approx(expected, rel=1e-15)
        assert JAC.mass == pytest.approx(
            _weighted_integral(JAC, lambda x: np.ones_like(x)), rel=1e-12)

    def test_exponents_must_exceed_minus_one(self):
        with pytest.raises(ValueError):
            BasisSpec(-1.0, 0.0)
        with pytest.raises(ValueError):
            BasisSpec(0.0, -1.5)
        with pytest.raises(ValueError, match="finite"):
            BasisSpec(float("inf"), 0.0)

    @pytest.mark.parametrize("a, b", [(1100.0, 0.0), (1e6, 0.0), (1e308, 1.0),
                                      (0.0, 1e6)])
    def test_mass_past_double_range_is_rejected(self, a, b):
        message = re.escape(f"mass overflows at a={a}, b={b}")
        with pytest.raises(ValueError, match=message):
            BasisSpec(a, b)

    def test_names(self):
        assert CHEB.name == "chebyshev1"
        assert LEG.name == "legendre"
        assert JAC.name == "jacobi(0.3,-0.25)"
        assert BasisSpec.from_name("chebyshev1") == CHEB
        assert BasisSpec.from_name(" Legendre ") == LEG
        with pytest.raises(ValueError):
            BasisSpec.from_name("hermite")

    @pytest.mark.parametrize("spec", [CHEB, LEG, BasisSpec(0.3, -0.25),
                                      BasisSpec(0.123456789, 2.5),
                                      BasisSpec(1e-5, 20.0)])
    def test_names_round_trip(self, spec):
        assert BasisSpec.from_name(spec.name) == spec

    def test_jacobi_name_parsing(self):
        assert BasisSpec.from_name(" Jacobi(0.3, -0.25) ") == JAC
        assert BasisSpec.from_name("jacobi(1,2)") == BasisSpec(1.0, 2.0)
        for bad in ("jacobi(0.3)", "jacobi(a,b)", "jacobi(nan,0)",
                    "jacobi(inf,0)", "jacobi(0.3,-0.25"):
            with pytest.raises(ValueError):
                BasisSpec.from_name(bad)
        with pytest.raises(ValueError, match="exceed -1"):
            BasisSpec.from_name("jacobi(-1,0)")

    def test_symmetry_flag(self):
        assert CHEB.is_symmetric and LEG.is_symmetric
        assert not JAC.is_symmetric


class TestRecurrence:
    def test_chebyshev_values(self):
        t = recurrence_coefficients(CHEB, 6)
        assert np.array_equal(t.a, np.zeros(6))
        assert t.b[0] == pytest.approx(math.pi, rel=1e-15)
        assert t.b[1] == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(t.b[2:], 0.25, rtol=1e-15)

    def test_legendre_values(self):
        t = recurrence_coefficients(LEG, 13)
        assert np.array_equal(t.a, np.zeros(13))
        assert t.b[0] == 2.0
        k = np.arange(1.0, 13.0)
        np.testing.assert_allclose(t.b[1:], k * k / (4.0 * k * k - 1.0),
                                   rtol=1e-14)

    def test_generic_weight_matches_moment_oracle(self):
        a_ref, b_ref = _moment_recurrence(JAC, 5)
        t = recurrence_coefficients(JAC, 5)
        np.testing.assert_allclose(t.a, a_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(t.b, b_ref, rtol=1e-12)

    def test_generic_weight_frozen_values(self):
        # pinned from the moment construction, so refactors cannot drift
        t = recurrence_coefficients(JAC, 4)
        np.testing.assert_allclose(t.a, [
            -0.26829268292682934, -0.0033122553447756703,
            -0.0011223344556677889, -0.000564652738565782], rtol=1e-12)
        np.testing.assert_allclose(t.b, [
            2.227708747650433, 0.30426853648784397,
            0.2612813846092608, 0.25488042034377517], rtol=1e-12)

    def test_symmetric_weights_center_the_recurrence(self):
        for spec in (CHEB, LEG, BasisSpec(0.7, 0.7)):
            assert np.all(recurrence_coefficients(spec, 20).a == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(-1.0, 1000.0, exclude_min=True))
    def test_symmetric_weights_give_positive_zeros(self, a):
        # beta - alpha and beta^2 - alpha^2 are exactly +0.0 at a = b, over
        # a positive denominator
        spec = BasisSpec(a, a)
        assert spec.is_symmetric
        got = recurrence_coefficients(spec, 5000).a
        assert np.array_equal(got.view(np.int64), np.zeros(5000).view(np.int64))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            recurrence_coefficients(LEG, 0)
        assert len(recurrence_coefficients(LEG, 1)) == 1

    def test_table_validation(self):
        with pytest.raises(ValueError):
            RecurrenceTable(a=np.zeros(3), b=np.array([2.0, 0.5, -0.1]))
        with pytest.raises(ValueError):
            RecurrenceTable(a=np.zeros(2), b=np.zeros(3))


class TestEvalOrthonormal:
    def test_degree_zero_is_constant(self):
        x = np.linspace(-1.0, 1.0, 7)
        for spec in (CHEB, LEG, JAC):
            np.testing.assert_allclose(
                eval_orthonormal(spec, 0, x)[0],
                1.0 / math.sqrt(spec.mass), rtol=1e-15)

    def test_chebyshev_trig_closed_form(self):
        x = np.linspace(-1.0, 1.0, 401)
        vals = eval_orthonormal(CHEB, 100, x)
        theta = np.arccos(x)
        np.testing.assert_allclose(vals[0], 1.0 / math.sqrt(math.pi),
                                   rtol=1e-14)
        for l in range(1, 101):
            expected = math.sqrt(2.0 / math.pi) * np.cos(l * theta)
            np.testing.assert_allclose(vals[l], expected, rtol=0, atol=1e-12)

    def test_chebyshev_point_value(self):
        got = eval_orthonormal(CHEB, 5, np.array(0.3))[5]
        expected = math.sqrt(2.0 / math.pi) * math.cos(5.0 * math.acos(0.3))
        assert got == pytest.approx(expected, abs=1e-14)

    def test_legendre_endpoint_values(self):
        # P_l(1) = 1, so the orthonormal value at 1 is sqrt((2l+1)/2)
        vals = eval_orthonormal(LEG, 20, np.array(1.0))
        for l in range(21):
            assert vals[l] == pytest.approx(math.sqrt((2.0 * l + 1.0) / 2.0),
                                            rel=1e-13)

    def test_legendre_matches_scipy(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
        x = rng.uniform(-1.0, 1.0, 40)
        vals = eval_orthonormal(LEG, 50, x)
        for l in (0, 1, 2, 7, 25, 50):
            expected = math.sqrt((2.0 * l + 1.0) / 2.0) \
                * scipy.special.eval_legendre(l, x)
            np.testing.assert_allclose(vals[l], expected, rtol=0, atol=1e-12)

    def test_generic_weight_matches_scipy_jacobi(self):
        a, b = JAC.jacobi_a, JAC.jacobi_b
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(6)))
        x = rng.uniform(-1.0, 1.0, 40)
        vals = eval_orthonormal(JAC, 20, x)
        for l in range(21):
            log_h = ((a + b + 1.0) * math.log(2.0)
                     - math.log(2.0 * l + a + b + 1.0)
                     + math.lgamma(l + a + 1.0) + math.lgamma(l + b + 1.0)
                     - math.lgamma(l + a + b + 1.0) - math.lgamma(l + 1.0))
            expected = scipy.special.eval_jacobi(l, a, b, x) \
                * math.exp(-0.5 * log_h)
            np.testing.assert_allclose(vals[l], expected, rtol=0, atol=1e-12)

    def test_scalar_and_array_shapes(self):
        v = eval_orthonormal(LEG, 3, 0.5)
        assert v.shape == (4,)
        v = eval_orthonormal(LEG, 3, np.zeros((2, 5)))
        assert v.shape == (4, 2, 5)

    @pytest.mark.parametrize("spec", [CHEB, LEG, JAC, CHEB2],
                             ids=["cheb", "leg", "jac", "cheb2"])
    def test_rows_are_bitwise_the_recurrence_expression(self, spec):
        # fresh rows, and rows computed in place in a ring of 3 or 16, are
        # all bitwise the one-line expression of the recurrence, also where
        # Chebyshev first and second kind take the two-pass step
        ends_and_nodes = np.concatenate([[-1.0, -0.0, 0.0, 1.0],
                                         gauss_rule(CHEB, 301).nodes])
        for l_max, x in ((40, np.linspace(-1.0, 1.0, 301)), (300, ends_and_nodes)):
            want = list(_recurrence_expression(spec, l_max, x))
            for out in (None, np.empty((3, x.size)), np.empty((16, x.size))):
                got = [row.copy() for row in _orthonormal_rows(spec, l_max, x, out=out)]
                _assert_bitwise(got, want)

    @settings(max_examples=60, deadline=None)
    @given(spec=st.sampled_from([CHEB, CHEB2]), l_max=st.integers(0, 400),
           x=st.lists(st.floats(-1.0, 1.0).filter(lambda v: v == 0.0 or abs(v) >= 2.0**-1020),
                      min_size=1, max_size=50))
    def test_two_pass_step_is_bitwise_the_expression(self, spec, l_max, x):
        # the domain _orthonormal_rows states for the two-pass step: x = 0 or
        # |x| >= 2^-1020 in [-1, 1]
        x = np.array(x)
        got = [row.copy() for row in _orthonormal_rows(spec, l_max, x)]
        _assert_bitwise(got, list(_recurrence_expression(spec, l_max, x)))

    def test_long_steps_between_two_pass_steps(self):
        # from k = 131072 on, the second kind's b_k rounds away from 1/4 at
        # some k, so long steps interleave with two-pass steps there, and
        # every two-pass step after a long one must scale x afresh
        table = recurrence_coefficients(CHEB2, 131102)
        assert not np.all(table.b[131072:] == 0.25)
        x = np.array([-1.0, -0.3, 0.0, 0.7, 1.0])
        rows = zip(_orthonormal_rows(CHEB2, 131100, x),
                   _recurrence_expression(CHEB2, 131100, x))
        for l, (got, want) in enumerate(rows):
            if l >= 131000:
                _assert_bitwise(got, want)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            eval_orthonormal(LEG, -1, 0.0)


class TestNormRatio:
    def test_chebyshev_ratios(self):
        assert norm_ratio(CHEB, 0) == pytest.approx(math.sqrt(0.5), rel=1e-15)
        for n in (1, 5, 40):
            assert norm_ratio(CHEB, n) == pytest.approx(0.5, rel=1e-15)

    def test_matches_moment_oracle(self):
        _, b_ref = _moment_recurrence(JAC, 4)
        for n in (0, 1, 2):
            assert norm_ratio(JAC, n) == pytest.approx(
                math.sqrt(b_ref[n + 1]), rel=1e-12)


class TestKernel:
    def test_degree_zero_is_inverse_mass(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
        x = rng.uniform(-1.0, 1.0, 10)
        y = rng.uniform(-1.0, 1.0, 10)
        for spec in (CHEB, LEG, JAC):
            np.testing.assert_allclose(cd_kernel(spec, 0, x, y),
                                       1.0 / spec.mass, rtol=1e-15)

    def test_symmetric_in_arguments(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
        x = rng.uniform(-1.0, 1.0, 50)
        y = rng.uniform(-1.0, 1.0, 50)
        for spec in (CHEB, JAC):
            assert np.array_equal(cd_kernel(spec, 12, x, y),
                                  cd_kernel(spec, 12, y, x))

    def test_chebyshev_hand_value(self):
        # sum over cosine products: (1 + 2 T1(x)T1(y) + 2 T2(x)T2(y)) / pi
        x, y = 0.5, -0.25
        t2x, t2y = 2.0 * x * x - 1.0, 2.0 * y * y - 1.0
        expected = (1.0 + 2.0 * x * y + 2.0 * t2x * t2y) / math.pi
        assert cd_kernel(CHEB, 2, np.array(x), np.array(y)) == pytest.approx(
            expected, rel=1e-14)

    @pytest.mark.parametrize("L", [5, 50, 200])
    def test_direct_vs_quotient(self, L):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(100 + L)))
        x = rng.uniform(-1.0, 1.0, 300)
        y = rng.uniform(-1.0, 1.0, 300)
        keep = np.abs(x - y) >= 1e-3
        x, y = x[keep], y[keep]
        for spec in (CHEB, LEG, JAC):
            d = cd_kernel(spec, L, x, y)
            q = cd_kernel_quotient(spec, L, x, y)
            np.testing.assert_allclose(q, d, rtol=1e-10, atol=1e-10)

    def test_reproducing_property_via_quadrature(self):
        # integrating K_L(x, .) p(.) against the weight returns p(x) for any
        # polynomial p of degree <= L; check p = each basis element at L = 6
        from tikbary.quadrature import gauss_rule
        for spec in (CHEB, JAC):
            rule = gauss_rule(spec, 10)
            x = np.array([-0.37, 0.0, 0.81])
            kern = cd_kernel(spec, 6, x[:, None], rule.nodes[None, :])
            basis_nodes = eval_orthonormal(spec, 6, rule.nodes)
            basis_x = eval_orthonormal(spec, 6, x)
            for l in range(7):
                got = kern @ (rule.weights * basis_nodes[l])
                np.testing.assert_allclose(got, basis_x[l], rtol=0, atol=1e-12)
