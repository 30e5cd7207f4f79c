"""Airy evaluation, the built-in test functions, and reproducible noise."""

import math

import mpmath
import numpy as np
import pytest

from tikbary.signals import (
    FUNCTIONS,
    NoiseSpec,
    add_noise,
    airy_ai,
    derive_seed,
    f1,
    f1_plus_sin10x,
    f2,
    f3,
    make_generator,
)

# reference values computed with 50-digit arithmetic, rounded to double
AIRY_KNOWN = {
    0.0: 0.35502805388781723926,
    1.0: 0.13529241631288141552,
    -1.0: 0.5355608832923521188,
    8.0: 4.6922076160992316256e-8,
    -8.0: -0.052705050356386202622,
    12.0: 1.393184688875360839e-13,
    -12.0: -0.066555175054373129474,
    40.0: 6.3657426585529149096e-75,
    -40.0: -0.045933923437957249632,
}


class TestAiry:
    def test_known_values(self):
        for t, ref in AIRY_KNOWN.items():
            assert airy_ai(t) == pytest.approx(ref, rel=5e-13)

    def test_value_at_zero_closed_form(self):
        ref = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        assert airy_ai(0.0) == pytest.approx(ref, rel=1e-14)

    def test_against_mpmath_on_a_wide_grid(self):
        # measured 6.1e-15 absolute
        t = np.linspace(-40.0, 40.0, 801)
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.airyai(mpmath.mpf(v))) for v in t])
        assert np.max(np.abs(airy_ai(t) - ref)) < 1e-13

    def test_differential_equation_residual(self):
        # y'' = t y, checked with a central difference
        h = 1e-4
        for t in (-5.0, 0.0, 5.0):
            y = airy_ai(np.array([t - h, t, t + h]))
            residual = (y[0] - 2.0 * y[1] + y[2]) / h**2 - t * y[1]
            assert abs(residual) <= 1e-4

    def test_decay_far_right(self):
        v = airy_ai(40.0)
        assert 0.0 < v < 1e-30

    def test_array_shapes(self):
        t = np.array([[0.0, 1.0], [-1.0, 8.0]])
        out = airy_ai(t)
        assert out.shape == (2, 2)
        assert out[0, 0] == airy_ai(0.0)
        assert isinstance(airy_ai(0.5), float)


class TestFunctions:
    def test_f1_values(self):
        assert f1(0.0) == 0.0
        assert f1(1.0) == 0.5
        assert f1(-1.0) == -0.5
        assert f1(0.5) == pytest.approx(0.5, abs=1e-16)

    def test_f1_odd_part_is_half_x(self):
        x = np.linspace(-1.0, 1.0, 41)
        assert np.max(np.abs(f1(x) - f1(-x) - x)) <= 1e-15

    def test_f2_is_a_squeezed_airy(self):
        assert f2(0.2) == airy_ai(8.0)
        assert f2(-0.2) == airy_ai(-8.0)
        np.testing.assert_array_equal(f2(np.array([0.0, 1.0])),
                                      airy_ai(np.array([0.0, 40.0])))

    def test_f3_values(self):
        assert f3(0.0) == 0.0
        assert abs(f3(math.pi / 12.0)) < 1e-13
        ref = math.tanh(20.0 * math.sin(1.2)) \
            + 0.02 * math.exp(0.3) * math.sin(30.0)
        assert f3(0.1) == pytest.approx(ref, rel=1e-13)

    def test_f1_plus_sin10x(self):
        x = np.linspace(-1.0, 1.0, 17)
        np.testing.assert_array_equal(f1_plus_sin10x(x), f1(x) + np.sin(10.0 * x))

    def test_registry(self):
        assert set(FUNCTIONS) == {"f1", "f2", "f3", "f1-plus-sin10x"}
        assert FUNCTIONS["f1"] is f1
        assert FUNCTIONS["f1-plus-sin10x"] is f1_plus_sin10x


class TestGenerators:
    def test_counter_based_bit_generator(self):
        gen = make_generator(42)
        assert isinstance(gen.bit_generator, np.random.Philox)

    def test_same_seed_same_stream(self):
        a = make_generator(7).standard_normal(8)
        b = make_generator(7).standard_normal(8)
        np.testing.assert_array_equal(a, b)
        c = make_generator(8).standard_normal(8)
        assert np.any(a != c)

    def test_derive_seed_is_stable_and_spreads(self):
        assert derive_seed(2026, 3) == derive_seed(2026, 3)
        seen = {derive_seed(2026, i, j) for i in range(4) for j in range(4)}
        assert len(seen) == 16
        assert derive_seed(2026, 1) != derive_seed(2026)


class TestNoiseSpec:
    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            NoiseSpec("pink", seed=1)
        with pytest.raises(ValueError):
            NoiseSpec("additive-white-snr", seed=1)
        with pytest.raises(ValueError):
            NoiseSpec("additive-white-snr", seed=1, snr_db=math.inf)
        with pytest.raises(ValueError):
            NoiseSpec("multiplicative-uniform", seed=1, c=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec("multiplicative-uniform", seed=1)
        # an infinite c was accepted, and add_noise then gave inf samples
        with pytest.raises(ValueError, match="c must be finite and >= 0, got inf"):
            NoiseSpec("multiplicative-uniform", seed=1, c=math.inf)

    def test_accepts_good_specs(self):
        NoiseSpec("additive-white-snr", seed=1, snr_db=5.0)
        NoiseSpec("multiplicative-uniform", seed=1, c=0.0)


class TestAdditiveNoise:
    def test_deterministic(self):
        spec = NoiseSpec("additive-white-snr", seed=11, snr_db=5.0)
        x = f1(np.linspace(-1.0, 1.0, 64))
        np.testing.assert_array_equal(add_noise(x, spec), add_noise(x, spec))

    def test_noise_variance_tracks_the_requested_snr(self):
        # unit constant signal, snr 5 dB: noise variance 10^(-1/2)
        spec = NoiseSpec("additive-white-snr", seed=5, snr_db=5.0)
        noisy = add_noise(np.ones(100_000), spec)
        assert np.var(noisy - 1.0) == pytest.approx(10.0 ** -0.5, rel=0.05)

    def test_empirical_snr_on_a_real_signal(self):
        x = np.linspace(-1.0, 1.0, 10_000)
        clean = f1(x)
        spec = NoiseSpec("additive-white-snr", seed=17, snr_db=5.0)
        noisy = add_noise(clean, spec)
        measured = 10.0 * math.log10(np.mean(clean**2)
                                     / np.mean((noisy - clean) ** 2))
        assert abs(measured - 5.0) <= 0.5

    def test_zero_power_is_rejected(self):
        spec = NoiseSpec("additive-white-snr", seed=1, snr_db=5.0)
        with pytest.raises(ValueError):
            add_noise(np.zeros(10), spec)

    @pytest.mark.parametrize("snr_db", [-4000.0, -3090.0, -1e300])
    def test_noise_power_past_double_range_is_rejected(self, snr_db):
        # 10^(-snr_db/10) overflows: a ValueError, not an OverflowError
        with pytest.raises(ValueError, match="snr_db"):
            NoiseSpec("additive-white-snr", seed=1, snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [-3000.0, 5.0, 4000.0])
    def test_in_range_noise_keeps_the_formula(self, snr_db):
        clean = f1(np.linspace(-1.0, 1.0, 33))
        noisy = add_noise(clean, NoiseSpec("additive-white-snr", seed=3, snr_db=snr_db))
        sigma = math.sqrt(float(np.mean(clean**2)) * 10.0 ** (-snr_db / 10.0))
        expected = clean + sigma * make_generator(3).standard_normal(clean.shape)
        np.testing.assert_array_equal(noisy, expected)


class TestMultiplicativeNoise:
    def test_c_zero_is_the_identity(self):
        x = f1(np.linspace(-1.0, 1.0, 32))
        spec = NoiseSpec("multiplicative-uniform", seed=3, c=0.0)
        np.testing.assert_array_equal(add_noise(x, spec), x)

    def test_one_shared_factor_in_the_open_interval(self):
        x = f1(np.linspace(0.1, 0.9, 64))  # keep the samples nonzero
        spec = NoiseSpec("multiplicative-uniform", seed=9, c=0.3)
        ratio = add_noise(x, spec) / x
        assert np.max(ratio) - np.min(ratio) <= 1e-15
        assert 1.0 < ratio[0] < 1.3

    def test_deterministic(self):
        x = np.linspace(0.1, 1.0, 16)
        spec = NoiseSpec("multiplicative-uniform", seed=21, c=0.4)
        np.testing.assert_array_equal(add_noise(x, spec), add_noise(x, spec))
