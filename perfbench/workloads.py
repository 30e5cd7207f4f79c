"""The five benchmark workloads, generated from a workload seed.

A CLI workload is a list of config files, each run as `tikbary run --config
FILE` in one process.  The configs are the repository's paper-scale figure
configs, held here so the benchmark does not move when `configs/` does; only
the seed and the output directory are filled in per run.  The `bounds`
workload is the criterion-11 bound-verification loop through the library
API, which no experiment calls.
"""

import os

LAMBDA_STAR = 0.19952623149688797
DEFAULT_SEED = 12345
HELD_OUT_SEED = 271828

_COMMON = dict(
    basis="chebyshev1", fn="f1", lambdas=[0.0, LAMBDA_STAR],
    noise_kind="additive-white-snr", snr_db=5.0, noise_c=0.3,
    grid_equispaced=10001, grid_chebyshev=2001,
)


def _cfg(experiment, **overrides):
    cfg = dict(experiment=experiment, **_COMMON)
    cfg.update(overrides)
    return cfg


CLI_WORKLOADS = {
    # fit/evaluate: 100 fits at N = 500, each evaluated on a 12k-point grid
    "fig1-paper": [_cfg("fig1", l_values=list(range(10, 501, 10)), n_values=[500])],
    # quadrature: Golub-Welsch Legendre rules, each built once per function
    "fig2-legendre": [_cfg("fig2", basis="legendre", l_values=[300],
                           n_values=list(range(300, 701, 100)))],
    # barycentric: 400 quotient-form evaluations, N = 20..1000
    "fig3-paper": [_cfg("fig3", fn="f3", l_values=list(range(20, 1001, 20)),
                        n_values=list(range(20, 1001, 20)))],
    # rendering: four 12k x 9 tables plus their SVGs, one N = 60 rule
    "fig45-paper": [
        _cfg("fig4", l_values=[60], n_values=[60], noise_kind="multiplicative-uniform"),
        _cfg("fig5", fn="f1-plus-sin10x", l_values=[60], n_values=[60],
             noise_kind="multiplicative-uniform"),
    ],
}

# (L, N) cells of the bounds workload; every cell runs at both lambdas with
# three noise draws
BOUNDS_PAIRS = ((100, 100), (200, 400), (400, 400), (600, 600), (800, 800))
BOUNDS_LAMBDAS = (0.0, LAMBDA_STAR)
BOUNDS_NOISE_DRAWS = 3

WORKLOADS = tuple(CLI_WORKLOADS) + ("bounds",)


def configs(workload, seed, out_dir):
    """Config mappings for a CLI workload, seeded and pointed at out_dir."""
    return [dict(cfg, seed=seed, out_dir=out_dir) for cfg in CLI_WORKLOADS[workload]]


def _render(value):
    if isinstance(value, list):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_configs(cfgs, cfg_dir):
    """Write config files; returns the `tikbary` argv that runs each."""
    argvs = []
    for i, cfg in enumerate(cfgs):
        path = os.path.join(cfg_dir, f"{cfg['experiment']}-{i}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {_render(v)}\n" for k, v in cfg.items())
        argvs.append(["run", "--config", path])
    return argvs


_EXPONENTS = {"chebyshev1": (-0.5, -0.5), "legendre": (0.0, 0.0)}


def rules_built(workload):
    """(a, b, points) of every Gauss rule the workload builds, deduplicated.

    Mirrors the experiments: the fitting rule of each N, the discrete-L2 rule
    of max(N+1, 2L+2) points when the fitting rule has under 100 points, and
    for `bounds` the 4L+16-point reference rules of the truncation surrogates.
    """
    rules = set()
    if workload == "bounds":
        for L, N in BOUNDS_PAIRS:
            rules.update({(-0.5, -0.5, N + 1), (-0.5, -0.5, 4 * L + 16)})
        return sorted(rules)
    for cfg in CLI_WORKLOADS[workload]:
        a, b = _EXPONENTS[cfg["basis"]]
        ls, ns = cfg["l_values"], cfg["n_values"]
        pairs = [(n, n) for n in ns] if cfg["experiment"] == "fig3" else [
            (L, N) for L in ls for N in ns]
        for L, N in pairs:
            rules.add((a, b, N + 1))
            if N + 1 < 100 and cfg["experiment"] in ("fig1", "fig2", "fig3"):
                rules.add((a, b, max(N + 1, 2 * L + 2)))
    return sorted(rules)


def run_bounds(seed):
    """The bound-verification loop; returns one record per bound check plus
    the seed-free quantities (Lebesgue constants, surrogates).

    Library calls go through module attributes so that a tracer patched into
    the modules sees them.
    """
    import numpy as np

    from tikbary import basis, metrics, quadrature, regularized_fit, signals

    spec = basis.BasisSpec.chebyshev1()
    checks, lebesgue, surrogates = [], [], []
    for L, N in BOUNDS_PAIRS:
        rule = quadrature.gauss_rule(spec, N + 1)
        f = signals.f1
        clean = f(rule.nodes)
        grid = np.union1d(metrics.default_uniform_grid(), rule.nodes)
        surr = metrics.truncation_surrogates(spec, L, f, grid=grid)
        surrogates.append([L, N, surr.e_uniform, surr.p_star_l2, surr.p_star_inf])
        for lam in BOUNDS_LAMBDAS:
            leb = regularized_fit.lebesgue_constant(rule, L, lam, grid=grid)
            lebesgue.append([L, N, lam, leb])
            clean_fit = regularized_fit.fit(rule, L, lam, clean)
            found = [("uniform-clean", -1, metrics.bound_check_uniform_noise(
                f, clean, clean_fit, rule, surr.e_uniform, surr.p_star_inf,
                grid=grid, lebesgue=leb))]
            for sidx in range(BOUNDS_NOISE_DRAWS):
                noise = signals.NoiseSpec("additive-white-snr",
                                          signals.derive_seed(seed, sidx), snr_db=5.0)
                noisy = signals.add_noise(clean, noise)
                approx = regularized_fit.fit(rule, L, lam, noisy)
                found.append(("stability", sidx,
                              metrics.bound_check_stability(approx, noisy)))
                found.append(("l2-noise", sidx, metrics.bound_check_l2_noise(
                    f, noisy, approx, rule, surr.e_uniform, surr.p_star_l2)))
                found.append(("uniform-noise", sidx, metrics.bound_check_uniform_noise(
                    f, noisy, approx, rule, surr.e_uniform, surr.p_star_inf,
                    grid=grid, lebesgue=leb)))
            for kind, sidx, check in found:
                checks.append([kind, L, N, lam, sidx, check.lhs, check.rhs, check.slack])
    return {"checks": checks, "lebesgue": lebesgue, "surrogates": surrogates}
