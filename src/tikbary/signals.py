"""Test signals and reproducible noise.

Three benchmark functions on [-1, 1]:

    f1(x) = |x| + x/2 - x^2          kink at 0, analytic elsewhere
    f2(x) = Ai(40 x)                  slow decay on the right, oscillation on the left
    f3(x) = tanh(20 sin(12 x)) + 0.02 exp(3 x) sin(300 x)

plus f1 with a sin(10 x) term added, used to break even symmetry in the
multiplicative-noise experiments.

airy_ai needs only NumPy.  On |t| < 9 it sums degree-32 Taylor expansions
about anchors 0.5 apart, whose coefficients follow from Ai'' = t Ai.  The
anchor values are stepped along the same expansions: from Ai(0) and Ai'(0)
out to -9, and on the right back from the asymptotic series at t = 9
towards 0, the direction in which the recessive Ai is stable.  On
|t| >= 9 the asymptotic series of DLMF 9.7.5 and 9.7.9 take over, with the
phase zeta = (2/3)|t|^(3/2) carried in two doubles.  Against 50-digit
mpmath on the 4037 points t = k/50, |k| <= 2000, and the anchor midpoints
+-0.25, ..., +-8.75, it is off by at most 4.4e-16 absolute, where
scipy.special.airy is off by 7.0e-15, and on t >= 0 by at most 1.6e-15
relative.  Noise is drawn from a counter-based
generator so every sample is reproducible from (seed, index) alone.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "f1",
    "f2",
    "f3",
    "f1_plus_sin10x",
    "FUNCTIONS",
    "airy_ai",
    "NOISE_KINDS",
    "NoiseSpec",
    "add_noise",
    "make_generator",
    "derive_seed",
]


# Ai(0) = 3^(-2/3) / Gamma(2/3) and Ai'(0) = -3^(-1/3) / Gamma(1/3)
_AI0 = 0.35502805388781723926
_DAI0 = -0.25881940379280679841
_TAYLOR_DEGREE = 32
_ANCHOR_STEP = 0.5
_ASYMPTOTIC_FROM = 9.0  # where the series' smallest term falls to 1.5e-17
_ZERO_RIGHT = 128.0  # Ai(t) < 1e-400 for t >= 128: 0.0 is its rounding
_ZERO_LEFT = 2.0**600  # |Ai(t)| < 5e-46 for t <= -2^600, where zeta nears overflow
_TWO_THIRDS, _TWO_THIRDS_LO = 2.0 / 3.0, 3.700743415417188e-17  # 2/3 = hi + lo
_QUARTER_PI, _QUARTER_PI_LO = math.pi / 4.0, 3.061616997868383e-17  # pi/4 = hi + lo


def _series_coefficients(count):
    """u_k and v_k of DLMF 9.7.2, k < count: u_k = (6k-5)(6k-3)(6k-1) /
    (216 k (2k-1)) u_{k-1}, v_k = -(6k+1)/(6k-1) u_k."""
    u = [1.0]
    for k in range(1, count):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1)))
    return np.array(u), np.array([-(6 * k + 1) / (6 * k - 1) * v for k, v in enumerate(u)])


# 36 terms: at zeta = 18 the smallest term is u_36 / 18^36 = 1.5e-17
_U, _V = _series_coefficients(36)


def _split(a):
    """a = hi + lo with hi holding 26 bits (Veltkamp)."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """a b = p + e exactly (Dekker)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _zeta(x):
    """zeta = (2/3) x^(3/2) as hi + lo, to about 2^-100 relative.

    A rounded zeta would shift the phase of Ai(-x) by up to 3e-14 at
    x = 40, and Ai with it by up to 7e-15.
    """
    s = np.sqrt(x)
    ss, ss_err = _two_product(s, s)
    s_lo = ((x - ss) - ss_err) / (2.0 * s)  # sqrt(x) = s + s_lo
    p, p_err = _two_product(x, s)
    z, z_err = _two_product(p, _TWO_THIRDS)
    return z, z_err + p * _TWO_THIRDS_LO + (p_err + x * s_lo) * _TWO_THIRDS


def _alternating(coefficients, r):
    """sum_k (-1)^k coefficients[k] r^k by Horner."""
    total = np.full_like(r, coefficients[-1])
    for c in coefficients[-2::-1]:
        total *= -r
        total += c
    return total


def _decaying(t, coefficients):
    """e^-zeta / (2 sqrt(pi)) sum_k (-1)^k coefficients[k] zeta^-k at t >= 9:
    Ai(t) t^(1/4) with the u_k, -Ai'(t) / t^(1/4) with the v_k (DLMF 9.7.5-6)."""
    z, z_lo = _zeta(t)
    scale = np.exp(-z) * (1.0 - z_lo) / (2.0 * math.sqrt(math.pi))
    return scale * _alternating(coefficients, 1.0 / z)


def _oscillating(x):
    """Ai(-x) at x >= 9 (DLMF 9.7.9), with cos and sin of the two-double
    phase theta = zeta - pi/4 from the angle-sum formulas."""
    z, z_lo = _zeta(x)
    theta = z - _QUARTER_PI
    theta_lo = ((z - theta) - _QUARTER_PI) + (z_lo - _QUARTER_PI_LO)
    cos, sin = np.cos(theta), np.sin(theta)
    cos_lo, sin_lo = np.cos(theta_lo), np.sin(theta_lo)
    r = 1.0 / z
    even = _alternating(_U[0::2], r * r)
    odd = _alternating(_U[1::2], r * r) * r
    return ((cos * cos_lo - sin * sin_lo) * even + (sin * cos_lo + cos * sin_lo) * odd) \
        / (math.sqrt(math.pi) * np.sqrt(np.sqrt(x)))


def _taylor(t0, ai, dai):
    """Coefficients c_0..c_32 of Ai about t0: c_0 = Ai(t0), c_1 = Ai'(t0),
    and Ai'' = t Ai gives c_{k+2} = (t0 c_k + c_{k-1}) / ((k+1)(k+2))."""
    c = [ai, dai, t0 * ai / 2.0]
    for k in range(1, _TAYLOR_DEGREE - 1):
        c.append((t0 * c[k] + c[k - 1]) / ((k + 1) * (k + 2)))
    return c


def _step(t0, ai, dai, h):
    """Ai(t0 + h) and Ai'(t0 + h) from the expansion about t0."""
    c = _taylor(t0, ai, dai)
    value = sum(ck * h**k for k, ck in enumerate(c))
    slope = sum(k * ck * h ** (k - 1) for k, ck in enumerate(c) if k)
    return value, slope


def _anchor_table():
    """Taylor coefficients about t0 = j/2, |j| <= 18, as a (33, 37) array."""
    n = round(_ASYMPTOTIC_FROM / _ANCHOR_STEP)
    values = {0: (_AI0, _DAI0)}
    for j in range(0, -n, -1):
        values[j - 1] = _step(j * _ANCHOR_STEP, *values[j], -_ANCHOR_STEP)
    t = np.array(_ASYMPTOTIC_FROM)
    values[n] = (float(_decaying(t, _U) / t**0.25), float(-_decaying(t, _V) * t**0.25))
    for j in range(n, 1, -1):
        values[j - 1] = _step(j * _ANCHOR_STEP, *values[j], -_ANCHOR_STEP)
    return np.array([_taylor(j * _ANCHOR_STEP, *values[j]) for j in range(-n, n + 1)]).T


_ANCHORS = _anchor_table()


def airy_ai(t):
    """Airy function of the first kind, elementwise; a float for scalar t.

    NaN gives NaN, and t = +-inf gives 0.0, the limit at either end.
    """
    t = np.asarray(t, dtype=float)
    ai = np.full(t.shape, math.nan)
    near = np.abs(t) < _ASYMPTOTIC_FROM
    j = np.rint(t[near] / _ANCHOR_STEP)
    h = t[near] - j * _ANCHOR_STEP  # exact
    c = _ANCHORS[:, j.astype(np.intp) + _ANCHORS.shape[1] // 2]
    value = c[-1].copy()
    for row in c[-2::-1]:
        value *= h
        value += row
    ai[near] = value
    right = (t >= _ASYMPTOTIC_FROM) & (t < _ZERO_RIGHT)
    ai[right] = _decaying(t[right], _U) / t[right] ** 0.25
    left = (t <= -_ASYMPTOTIC_FROM) & (t > -_ZERO_LEFT)
    ai[left] = _oscillating(-t[left])
    ai[(t >= _ZERO_RIGHT) | (t <= -_ZERO_LEFT)] = 0.0
    return float(ai) if ai.ndim == 0 else ai


def f1(x):
    x = np.asarray(x, dtype=float)
    return np.abs(x) + 0.5 * x - x * x


def f2(x):
    return airy_ai(40.0 * np.asarray(x, dtype=float))


def f3(x):
    x = np.asarray(x, dtype=float)
    return np.tanh(20.0 * np.sin(12.0 * x)) + 0.02 * np.exp(3.0 * x) * np.sin(300.0 * x)


def f1_plus_sin10x(x):
    x = np.asarray(x, dtype=float)
    return f1(x) + np.sin(10.0 * x)


FUNCTIONS = {
    "f1": f1,
    "f2": f2,
    "f3": f3,
    "f1-plus-sin10x": f1_plus_sin10x,
}


def make_generator(seed: int) -> np.random.Generator:
    """Counter-based generator; the same seed always yields the same stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derive_seed(master: int, *indices: int) -> int:
    """Independent child seed for (master, i, j, ...), stable across runs."""
    state = np.random.SeedSequence([int(master), *[int(i) for i in indices]])
    return int(state.generate_state(1, np.uint64)[0])


NOISE_KINDS = ("additive-white-snr", "multiplicative-uniform")


@dataclass(frozen=True)
class NoiseSpec:
    """What noise to add and from which seed.

    kind 'additive-white-snr' draws Gaussian noise scaled so the sample
    signal-to-noise ratio is snr_db.  kind 'multiplicative-uniform' draws one
    uniform r from the open interval (0, 1) and multiplies every sample by
    (1 + c r).
    """

    kind: str
    seed: int
    snr_db: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        if self.kind == "additive-white-snr":
            if self.snr_db is None or not math.isfinite(self.snr_db):
                raise ValueError("additive noise needs a finite snr_db")
            try:
                10.0 ** (-self.snr_db / 10.0)  # the noise-to-signal power ratio
            except OverflowError:
                raise ValueError(f"snr_db = {self.snr_db} overflows the noise power") from None
        else:
            if self.c is None or not (math.isfinite(self.c) and self.c >= 0.0):
                raise ValueError(f"c must be finite and >= 0, got {self.c!r}")


def add_noise(samples, noise: NoiseSpec) -> np.ndarray:
    """Perturb samples according to the noise spec, reproducibly."""
    samples = np.asarray(samples, dtype=float)
    rng = make_generator(noise.seed)
    if noise.kind == "additive-white-snr":
        power = float(np.mean(samples**2))
        if power == 0.0:
            raise ValueError("signal power is zero, SNR is undefined")
        sigma = math.sqrt(power * 10.0 ** (-noise.snr_db / 10.0))
        return samples + sigma * rng.standard_normal(samples.shape)
    r = rng.random()
    while r == 0.0:  # open interval (0, 1)
        r = rng.random()
    return samples * (1.0 + noise.c * r)
