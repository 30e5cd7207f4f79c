"""Experiment configs and the figure runners, at reduced sizes."""

from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from tikbary.barycentric import (
    BarycentricData,
    interp_barycentric,
    weights_gauss,
)
from tikbary.basis import BasisSpec
from tikbary.configfile import parse_config_text, read_config
from tikbary.csvio import format_value, read_table
from tikbary import experiments, metrics, regularized_fit
from tikbary.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    desk_config,
    paper_config,
    run,
)
from tikbary.metrics import (
    LAMBDA_STAR,
    REPORT_COLUMNS,
    default_l2_rule,
    default_uniform_grid,
    lambda_sweep,
)
from tikbary.quadrature import gauss_rule
from tikbary.regularized_fit import evaluate, fit
from tikbary.signals import FUNCTIONS, NoiseSpec, add_noise, derive_seed


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _tiny(experiment, tmp_path, **overrides):
    cfg = desk_config(experiment, out_dir=str(tmp_path))
    small = dict(grid_equispaced=401, grid_chebyshev=101)
    small.update(overrides)
    return replace(cfg, **small)


class TestConfigValidation:
    def test_experiment_names(self):
        assert set(EXPERIMENTS) == {"fig1", "fig2", "fig3", "fig4", "fig5",
                                    "sweep", "custom"}
        with pytest.raises(ValueError):
            ExperimentConfig("fig9", l_values=(4,), n_values=(8,))

    def test_rejects_bad_fields(self):
        good = dict(l_values=(4,), n_values=(8,))
        with pytest.raises(ValueError):
            ExperimentConfig("custom", basis="hermite", **good)
        with pytest.raises(ValueError):
            ExperimentConfig("custom", fn="f9", **good)
        with pytest.raises(ValueError):
            ExperimentConfig("custom", l_values=(), n_values=(8,))
        with pytest.raises(ValueError):
            ExperimentConfig("custom", lambdas=(-0.1,), **good)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ExperimentConfig("custom", lambdas=(0.0, bad), **good)
        with pytest.raises(ValueError):
            ExperimentConfig("custom", lambdas=(), **good)
        with pytest.raises(ValueError):
            ExperimentConfig("custom", noise_kind="pink", **good)
        with pytest.raises(ValueError):
            ExperimentConfig("custom", grid_equispaced=1, **good)
        with pytest.raises(ValueError):
            ExperimentConfig("custom", l_values=(4,), n_values=(0,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "loud", None])
    def test_snr_db_must_be_finite(self, bad):
        # checked for every noise kind: a noise-free run still echoes snr_db
        for kind in ("additive-white-snr", None):
            with pytest.raises(ValueError, match="snr_db must be finite"):
                ExperimentConfig("custom", l_values=(4,), n_values=(8,),
                                 noise_kind=kind, snr_db=bad)

    @pytest.mark.parametrize("basis", ["jacobi(1e6,0)", "jacobi(1100,0)"])
    def test_basis_mass_must_fit_a_double(self, basis):
        # rejected when the config is built, not when a rule is first made
        with pytest.raises(ValueError, match="mass overflows"):
            ExperimentConfig("custom", basis=basis, l_values=(4,), n_values=(8,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, None])
    def test_noise_c_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="noise_c must be finite"):
            ExperimentConfig("custom", l_values=(4,), n_values=(8,),
                             noise_kind="multiplicative-uniform", noise_c=bad)

    @pytest.mark.parametrize("key", ["grid_equispaced", "grid_chebyshev"])
    @pytest.mark.parametrize("bad", ["many", 2.5, float("nan"), float("inf"), True, None, 1])
    def test_grid_sizes_must_be_whole_numbers(self, key, bad):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig("custom", l_values=(4,), n_values=(8,), **{key: bad})

    @pytest.mark.parametrize("key", ["l_values", "n_values"])
    @pytest.mark.parametrize("bad", [4.7, "4", float("nan"), None])
    def test_degrees_must_be_whole_numbers(self, key, bad):
        # int() would have truncated 4.7 to 4 and run a different degree
        degrees = {"l_values": (4,), "n_values": (8,), key: (bad,)}
        with pytest.raises(ValueError, match=key):
            ExperimentConfig("custom", **degrees)

    @pytest.mark.parametrize("bad", [1.5, True, -1, "7", None, float("nan")])
    def test_seed_must_be_a_whole_number_at_least_zero(self, bad):
        # 1.5 or true would draw seed 1's noise while the CSV echoes the input
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig("custom", l_values=(4,), n_values=(8,), seed=bad)

    def test_value_coercion(self):
        cfg = ExperimentConfig("custom", l_values=[4.0], n_values=[8],
                               lambdas=[0, 1])
        assert cfg.l_values == (4,) and isinstance(cfg.l_values[0], int)
        assert cfg.lambdas == (0.0, 1.0)
        cfg = ExperimentConfig("custom", l_values=(4,), n_values=(8,),
                               grid_equispaced=101.0, grid_chebyshev=np.int64(51))
        assert (cfg.grid_equispaced, cfg.grid_chebyshev) == (101, 51)
        cfg = ExperimentConfig("custom", l_values=(4,), n_values=(8,), seed=7.0)
        assert cfg.seed == 7 and type(cfg.seed) is int
        assert type(cfg.grid_equispaced) is int and type(cfg.grid_chebyshev) is int


class TestConfigMapping:
    def test_round_trip(self):
        cfg = ExperimentConfig("fig3", fn="f3", l_values=(8, 16),
                               n_values=(8, 16), noise_kind=None)
        again = ExperimentConfig.from_mapping(cfg.to_mapping())
        assert again == cfg
        assert cfg.to_mapping()["noise_kind"] == "none"

    def test_round_trip_through_config_text(self):
        from tikbary.configfile import render_config_text
        cfg = desk_config("fig1")
        text = render_config_text(cfg.to_mapping())
        assert ExperimentConfig.from_mapping(parse_config_text(text)) == cfg

    def test_jacobi_basis_round_trips_through_config_text(self):
        from tikbary.configfile import render_config_text
        text = ("experiment = custom\nbasis = jacobi(0.3,-0.25)\n"
                "l_values = [4]\nn_values = [8]\n")
        cfg = ExperimentConfig.from_mapping(parse_config_text(text))
        assert cfg.basis == "jacobi(0.3,-0.25)"
        assert BasisSpec.from_name(cfg.basis) == BasisSpec(0.3, -0.25)
        again = render_config_text(cfg.to_mapping())
        assert "basis = jacobi(0.3,-0.25)\n" in again
        assert ExperimentConfig.from_mapping(parse_config_text(again)) == cfg

    def test_range_expansion(self):
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "custom", "l_range": (10, 50, 10), "n_values": (60,)})
        assert cfg.l_values == (10, 20, 30, 40, 50)

    def test_range_and_values_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            ExperimentConfig.from_mapping(
                {"experiment": "custom", "l_range": (10, 20, 10),
                 "l_values": (10,), "n_values": (60,)})

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_mapping(
                {"experiment": "custom", "l_values": (4,), "n_values": (8,),
                 "colour": "red"})

    def test_bad_range_shape(self):
        with pytest.raises(ValueError, match="start, stop, step"):
            ExperimentConfig.from_mapping(
                {"experiment": "custom", "l_range": (10, 50), "n_values": (60,)})


class TestFactories:
    def test_paper_shapes(self):
        assert paper_config("fig1").l_values == tuple(range(10, 501, 10))
        assert paper_config("fig2").n_values == tuple(range(500, 2001, 100))
        assert paper_config("fig3").fn == "f3"
        assert paper_config("fig4").noise_kind == "multiplicative-uniform"
        assert paper_config("fig5").fn == "f1-plus-sin10x"
        assert len(paper_config("sweep").lambdas) == 21

    def test_desk_is_smaller_but_same_schema(self):
        for experiment in ("fig1", "fig2", "fig3", "fig4", "fig5", "sweep"):
            paper = paper_config(experiment)
            desk = desk_config(experiment)
            assert desk.experiment == paper.experiment
            assert desk.fn == paper.fn
            assert desk.noise_kind == paper.noise_kind
            assert max(desk.n_values) <= max(paper.n_values)
        assert desk_config("fig1").out_dir == "results-desk"

    def test_custom_has_no_factory(self):
        with pytest.raises(ValueError):
            paper_config("custom")

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    @pytest.mark.parametrize("experiment",
                             ["fig1", "fig2", "fig3", "fig4", "fig5", "sweep"])
    def test_shipped_configs_are_the_factories(self, experiment, scale):
        path = _CONFIGS / f"{experiment}-{scale}.cfg"
        shipped = ExperimentConfig.from_mapping(read_config(path))
        factory = paper_config if scale == "paper" else desk_config
        assert shipped == replace(factory(experiment), out_dir=shipped.out_dir)

    def test_every_shipped_config_has_a_factory(self):
        assert sorted(p.name for p in _CONFIGS.iterdir()) == sorted(
            f"{e}-{scale}.cfg" for e in ("fig1", "fig2", "fig3", "fig4", "fig5", "sweep")
            for scale in ("desk", "paper"))


class TestRunners:
    def test_fig1_files_and_schema(self, tmp_path):
        cfg = _tiny("fig1", tmp_path, l_values=(8, 16), n_values=(32,))
        paths = run(cfg)
        assert [p.split("/")[-1] for p in paths] == [
            "fig1_f1.csv", "fig1_f1.svg", "fig1_f2.csv", "fig1_f2.svg"]
        table = read_table(tmp_path / "fig1_f1.csv")
        assert table.columns == list(REPORT_COLUMNS)
        # 2 L values x 2 lambdas
        assert len(table.rows) == 4
        assert table.column("N") == ["32"] * 4
        assert table.metadata["table"] == "fig1_f1"

    def test_metadata_echo_reproduces_the_config(self, tmp_path):
        cfg = _tiny("fig1", tmp_path, l_values=(8,), n_values=(16,))
        run(cfg)
        table = read_table(tmp_path / "fig1_f1.csv")
        echoed = {k: v for k, v in table.metadata.items()
                  if k not in ("table", "version")}
        text = "\n".join(f"{k} = {v}" for k, v in echoed.items())
        assert ExperimentConfig.from_mapping(parse_config_text(text)) == cfg

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _tiny("fig1", tmp_path, l_values=(8, 16), n_values=(32,))
        first = {p: open(p, "rb").read() for p in run(cfg)}
        second = {p: open(p, "rb").read() for p in run(cfg)}
        assert first == second

    def test_fig1_rejects_l_above_n(self, tmp_path):
        cfg = _tiny("fig1", tmp_path, l_values=(40,), n_values=(32,))
        with pytest.raises(ValueError, match="exceeds"):
            run(cfg)

    def test_fig2_rejects_n_below_l(self, tmp_path):
        cfg = _tiny("fig2", tmp_path, l_values=(32,), n_values=(16, 64))
        with pytest.raises(ValueError, match="must be >="):
            run(cfg)

    def test_fig3_rows_cover_clean_and_noisy(self, tmp_path):
        cfg = _tiny("fig3", tmp_path, l_values=(8, 16), n_values=(8, 16))
        paths = run(cfg)
        assert [p.split("/")[-1] for p in paths] == ["fig3.csv", "fig3.svg"]
        table = read_table(tmp_path / "fig3.csv")
        # per N: (clean + noisy) x 2 lambdas
        assert len(table.rows) == 8
        seeds = table.column("seed")
        assert seeds.count("") == 4
        assert table.column("L") == table.column("N")

    def test_fig3_without_noise_keeps_the_clean_column(self, tmp_path):
        # only the clean column, whose rows are those of an additive run
        sizes = dict(l_values=(20, 40), n_values=(20, 40))
        cfg = _tiny("fig3", tmp_path / "none", noise_kind=None, **sizes)
        run(cfg)
        table = read_table(tmp_path / "none" / "fig3.csv")
        assert table.metadata["noise_kind"] == "none"
        assert len(table.rows) == 2 * len(cfg.lambdas)
        assert table.column("seed") == [""] * len(table.rows)
        assert table.column("snr_db") == [""] * len(table.rows)
        run(_tiny("fig3", tmp_path / "additive", **sizes))
        additive = read_table(tmp_path / "additive" / "fig3.csv")
        assert table.rows == [r for r in additive.rows
                              if r[REPORT_COLUMNS.index("seed")] == ""]

    def test_fig3_multiplicative_noise(self, tmp_path):
        cfg = _tiny("fig3", tmp_path, l_values=(20,), n_values=(20,),
                    noise_kind="multiplicative-uniform")
        run(cfg)
        table = read_table(tmp_path / "fig3.csv")
        seeds = table.column("seed")
        assert seeds == [""] * 2 + [str(derive_seed(cfg.seed, 0))] * 2
        assert table.column("snr_db") == [""] * 4
        rule = gauss_rule(BasisSpec.from_name(cfg.basis), 21)
        f = FUNCTIONS[cfg.fn]
        noise = NoiseSpec("multiplicative-uniform", derive_seed(cfg.seed, 0),
                          c=cfg.noise_c)
        data = BarycentricData(rule.nodes, weights_gauss(rule),
                               add_noise(f(rule.nodes), noise))
        grid = experiments._grid(cfg)
        want = np.max(np.abs(f(grid) - interp_barycentric(data, grid)))
        assert float(table.column("uniform_error")[2]) == pytest.approx(want, rel=1e-12)

    def test_fig4_emits_data_curves_errors(self, tmp_path):
        cfg = _tiny("fig4", tmp_path, l_values=(20,), n_values=(20,))
        paths = run(cfg)
        names = [p.split("/")[-1] for p in paths]
        assert names == ["fig4_data.csv", "fig4_data.svg",
                         "fig4_curves.csv", "fig4_curves.svg",
                         "fig4_errors.csv", "fig4_errors.svg"]
        data = read_table(tmp_path / "fig4_data.csv")
        assert data.columns == ["j", "x", "true", "scale-1.2",
                                "mult-0.3", "mult-0.4"]
        assert len(data.rows) == 21
        curves = read_table(tmp_path / "fig4_curves.csv")
        assert curves.columns[:2] == ["x", "target"]
        assert "tikhonov-mult-0.3" in curves.columns
        assert "classical-scale-1.2" in curves.columns
        errors = read_table(tmp_path / "fig4_errors.csv")
        assert "err-classical-true" in errors.columns
        assert len(errors.columns) == 9

    def test_fig4_scaled_variant_is_exactly_1p2_times_clean(self, tmp_path):
        cfg = _tiny("fig4", tmp_path, l_values=(12,), n_values=(12,))
        run(cfg)
        data = read_table(tmp_path / "fig4_data.csv")
        clean = np.array(data.column("true", as_float=True))
        scaled = np.array(data.column("scale-1.2", as_float=True))
        np.testing.assert_allclose(scaled, 1.2 * clean, rtol=1e-15)
        mult = np.array(data.column("mult-0.3", as_float=True))
        nonzero = clean != 0.0  # f1 vanishes at two of the nodes
        ratio = mult[nonzero] / clean[nonzero]
        assert np.max(ratio) - np.min(ratio) <= 1e-12
        assert 1.0 < ratio[0] < 1.3
        np.testing.assert_array_equal(mult[~nonzero], 0.0)

    def test_sweep_records_the_argmin(self, tmp_path):
        cfg = _tiny("sweep", tmp_path, l_values=(16,), n_values=(16,))
        run(cfg)
        table = read_table(tmp_path / "sweep.csv")
        assert len(table.rows) == 21
        best_u = float(table.metadata["best-lambda-uniform_error"])
        best_2 = float(table.metadata["best-lambda-l2_error"])
        lams = [float(v) for v in table.column("lambda")]
        assert best_u in lams and best_2 in lams

    def test_fig1_without_noise_matches_custom(self, tmp_path):
        cfg = _tiny("fig1", tmp_path / "fig1", l_values=(8, 16, 32),
                    n_values=(32,), noise_kind=None)
        run(cfg)
        fig1 = read_table(tmp_path / "fig1" / "fig1_f1.csv")
        assert fig1.metadata["noise_kind"] == "none"
        assert fig1.column("seed") == [""] * 6
        assert fig1.column("snr_db") == [""] * 6
        custom = replace(cfg, experiment="custom", out_dir=str(tmp_path / "custom"))
        run(custom)
        assert read_table(tmp_path / "custom" / "custom.csv").rows == fig1.rows

    def test_custom_skips_unrunnable_cells(self, tmp_path):
        cfg = ExperimentConfig(
            "custom", out_dir=str(tmp_path), l_values=(8, 32),
            n_values=(16,), lambdas=(0.0,), noise_kind=None,
            grid_equispaced=101, grid_chebyshev=51)
        run(cfg)
        table = read_table(tmp_path / "custom.csv")
        assert table.column("L") == ["8"]

    def test_custom_with_no_cells_raises(self, tmp_path):
        cfg = ExperimentConfig(
            "custom", out_dir=str(tmp_path), l_values=(32,), n_values=(16,),
            grid_equispaced=101, grid_chebyshev=51)
        with pytest.raises(ValueError, match="cells"):
            run(cfg)

    def test_custom_noise_free_lambda_zero_is_tiny_error(self, tmp_path):
        # full-degree noise-free fit at lambda 0 reproduces the polynomial
        # part of the grid to rounding; f1 has a kink so just check the
        # ordering against the shrunk fit
        cfg = ExperimentConfig(
            "custom", out_dir=str(tmp_path), l_values=(16,), n_values=(16,),
            lambdas=(0.0, 1.0), noise_kind=None,
            grid_equispaced=101, grid_chebyshev=51)
        run(cfg)
        table = read_table(tmp_path / "custom.csv")
        err = [float(v) for v in table.column("l2_error")]
        assert err[0] < err[1]


def _assert_close_keeping_zeros(got, want, rtol=1e-13):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


class TestLambdaAsAScalar:
    """The runners interpolate once at lambda = 0 and divide by 1 + lambda;
    the results must match one interpolation per (values, lambda) pair."""

    def test_fig3_matches_the_per_lambda_route(self, tmp_path):
        cfg = desk_config("fig3", out_dir=str(tmp_path))
        run(cfg)
        table = read_table(tmp_path / "fig3.csv")
        spec = BasisSpec.from_name(cfg.basis)
        f = FUNCTIONS[cfg.fn]
        grid = default_uniform_grid(cfg.grid_equispaced, cfg.grid_chebyshev)
        f_grid = f(grid)
        want = []
        for i, N in enumerate(cfg.n_values):
            rule = gauss_rule(spec, N + 1)
            clean = f(rule.nodes)
            noisy = add_noise(clean, NoiseSpec(
                "additive-white-snr", derive_seed(cfg.seed, i),
                snr_db=cfg.snr_db))
            l2r = default_l2_rule(rule, N)
            f_l2 = f(l2r.nodes)
            for values in (clean, noisy):
                for lam in cfg.lambdas:
                    data = BarycentricData(rule.nodes, weights_gauss(rule),
                                           values, lam)
                    resid = f_l2 - interp_barycentric(data, l2r.nodes)
                    want.append([
                        np.max(np.abs(f_grid - interp_barycentric(data, grid))),
                        np.sqrt(np.sum(l2r.weights * resid * resid))])
        got = np.column_stack([table.column(name, as_float=True)
                               for name in ("uniform_error", "l2_error")])
        assert len(got) == len(want) == 4 * len(cfg.n_values)
        _assert_close_keeping_zeros(got, want)

    @pytest.mark.parametrize("experiment", ["fig4", "fig5"])
    def test_fig45_curves_match_the_per_lambda_route(self, tmp_path,
                                                     experiment):
        cfg = _tiny(experiment, tmp_path)
        run(cfg)
        curves = read_table(tmp_path / f"{experiment}_curves.csv")
        data = read_table(tmp_path / f"{experiment}_data.csv")
        rule = gauss_rule(BasisSpec.from_name(cfg.basis), cfg.n_values[0] + 1)
        grid = np.array(curves.column("x", as_float=True))
        for name in data.columns[2:]:
            values = np.array(data.column(name, as_float=True))
            for tag, lam in (("classical", 0.0),
                             ("tikhonov", cfg.lambdas[-1])):
                want = interp_barycentric(BarycentricData(
                    rule.nodes, weights_gauss(rule), values, lam), grid)
                got = curves.column(f"{tag}-{name}", as_float=True)
                _assert_close_keeping_zeros(got, want)

    def _per_lambda_rows(self, cfg, fname, cells):
        """One fit and two evaluations per (cell, lambda); cells are
        (L, N, noise) triples."""
        spec = BasisSpec.from_name(cfg.basis)
        f = FUNCTIONS[fname]
        grid = default_uniform_grid(cfg.grid_equispaced, cfg.grid_chebyshev)
        f_grid = f(grid)
        want = []
        for L, N, noise in cells:
            rule = gauss_rule(spec, N + 1)
            samples = f(rule.nodes)
            if noise is not None:
                samples = add_noise(samples, noise)
            l2r = default_l2_rule(rule, L)
            f_l2 = f(l2r.nodes)
            for lam in cfg.lambdas:
                approx = fit(rule, L, lam, samples)
                resid = f_l2 - evaluate(approx, l2r.nodes)
                want.append([
                    np.max(np.abs(f_grid - evaluate(approx, grid))),
                    np.sqrt(np.sum(l2r.weights * resid * resid))])
        return want

    def _check_table(self, path, cfg, cells, want):
        table = read_table(path)
        assert table.column("L") == [str(L) for L, _, _ in cells
                                     for _ in cfg.lambdas]
        assert table.column("N") == [str(N) for _, N, _ in cells
                                     for _ in cfg.lambdas]
        assert table.column("seed") == [
            "" if noise is None else str(noise.seed)
            for _, _, noise in cells for _ in cfg.lambdas]
        assert (table.column("lambda", as_float=True)
                == list(cfg.lambdas) * len(cells))
        got = np.column_stack([table.column(name, as_float=True)
                               for name in ("uniform_error", "l2_error")])
        assert len(got) == len(want)
        _assert_close_keeping_zeros(got, want)

    @pytest.mark.parametrize("experiment", ["fig1", "fig2"])
    def test_fig12_match_the_per_lambda_route(self, tmp_path, experiment):
        cfg = desk_config(experiment, out_dir=str(tmp_path))
        run(cfg)
        if experiment == "fig1":
            pairs = [(L, cfg.n_values[0]) for L in cfg.l_values]
        else:
            pairs = [(cfg.l_values[0], N) for N in cfg.n_values]
        cells = [(L, N, NoiseSpec("additive-white-snr", derive_seed(cfg.seed, i),
                                  snr_db=cfg.snr_db))
                 for i, (L, N) in enumerate(pairs)]
        for fname in ("f1", "f2"):
            self._check_table(tmp_path / f"{experiment}_{fname}.csv", cfg, cells,
                              self._per_lambda_rows(cfg, fname, cells))

    @pytest.mark.parametrize("noise_kind", ["multiplicative-uniform", None])
    def test_custom_matches_the_per_lambda_route(self, tmp_path, noise_kind):
        cfg = ExperimentConfig(
            "custom", fn="f3", out_dir=str(tmp_path), l_values=(8, 16, 40),
            n_values=(16, 40), lambdas=(0.0, 0.1, LAMBDA_STAR, 1.0),
            noise_kind=noise_kind, noise_c=0.4, seed=99,
            grid_equispaced=401, grid_chebyshev=101)
        run(cfg)
        pairs = [(8, 16), (16, 16), (8, 40), (16, 40), (40, 40)]
        cells = [(L, N, None if noise_kind is None else NoiseSpec(
                    noise_kind, derive_seed(cfg.seed, i), c=cfg.noise_c))
                 for i, (L, N) in enumerate(pairs)]
        self._check_table(tmp_path / "custom.csv", cfg, cells,
                          self._per_lambda_rows(cfg, cfg.fn, cells))

    def test_lambda_sweep_matches_the_per_lambda_route(self):
        cfg = ExperimentConfig("sweep", l_values=(20,), n_values=(30,),
                               lambdas=(0.0, 1e-2, LAMBDA_STAR, 0.5, 1.0),
                               grid_equispaced=401, grid_chebyshev=101)
        noise = NoiseSpec("additive-white-snr", 7, snr_db=5.0)
        rule = gauss_rule(BasisSpec.from_name(cfg.basis), 31)
        grid = default_uniform_grid(cfg.grid_equispaced, cfg.grid_chebyshev)
        result = lambda_sweep(rule, 20, FUNCTIONS["f2"], cfg.lambdas,
                              noise=noise, grid=grid)
        want = self._per_lambda_rows(cfg, "f2", [(20, 30, noise)])
        got = [[r.uniform_error, r.l2_error] for r in result]
        _assert_close_keeping_zeros(got, want)
        assert [r.lam for r in result] == list(cfg.lambdas)

    @pytest.mark.parametrize("noise_kind",
                             ["additive-white-snr", "multiplicative-uniform", None])
    def test_sweep_csv_equals_lambda_sweep(self, tmp_path, noise_kind):
        # run_sweep and lambda_sweep take separate routes to the same numbers
        cfg = ExperimentConfig(
            "sweep", fn="f3", out_dir=str(tmp_path), l_values=(40,),
            n_values=(60,), lambdas=(0.0, 1e-2, 0.1, LAMBDA_STAR, 0.5, 1.0),
            noise_kind=noise_kind, snr_db=2.0, noise_c=0.4, seed=31,
            grid_equispaced=401, grid_chebyshev=101)
        run(cfg)
        table = read_table(tmp_path / "sweep.csv")
        noise = None
        if noise_kind == "additive-white-snr":
            noise = NoiseSpec(noise_kind, derive_seed(cfg.seed, 0), snr_db=cfg.snr_db)
        elif noise_kind is not None:
            noise = NoiseSpec(noise_kind, derive_seed(cfg.seed, 0), c=cfg.noise_c)
        result = lambda_sweep(
            gauss_rule(BasisSpec.from_name(cfg.basis), 61), 40, FUNCTIONS[cfg.fn],
            cfg.lambdas, noise=noise,
            grid=default_uniform_grid(cfg.grid_equispaced, cfg.grid_chebyshev))
        # 17 significant digits round-trip, so equal text is equal bits
        assert table.rows == [[format_value(v) for v in astuple(r)] for r in result]
        for metric in ("uniform_error", "l2_error"):
            assert (table.metadata[f"best-lambda-{metric}"]
                    == format_value(result.best_lambda[metric]))

    def test_one_rule_and_one_fit_per_sample_vector(self, tmp_path,
                                                    monkeypatch):
        calls = {"gauss_rule": 0, "fit": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for module, name in ((experiments, "gauss_rule"), (metrics, "fit")):
            monkeypatch.setattr(module, name, counted(module, name))
        cfg = replace(desk_config("fig2", out_dir=str(tmp_path)),
                      lambdas=(0.0, 0.1, LAMBDA_STAR, 1.0))
        run(cfg)
        # one rule per N shared by f1 and f2; one fit per (function, N)
        # whatever the number of lambdas
        assert calls == {"gauss_rule": len(cfg.n_values),
                         "fit": 2 * len(cfg.n_values)}

    def test_one_l2_rule_per_degree_shared_by_both_functions(self, tmp_path,
                                                             monkeypatch):
        points = []
        original = experiments.gauss_rule

        def counted(spec, n):
            points.append(n)
            return original(spec, n)

        for module in (experiments, metrics):
            monkeypatch.setattr(module, "gauss_rule", counted)
        cfg = _tiny("fig1", tmp_path, n_values=(40,), l_values=(10, 20, 30))
        run(cfg)
        # the 41-point fitting rule, which also measures the L2 error at
        # L = 10, then 2L+2 points at L = 20 and 30, for f1 and f2 alike
        assert points == [41, 42, 62]

    def test_one_grid_pass_per_table(self, tmp_path, monkeypatch):
        # the basis recurrence sweeps the grid, in blocks, once per table:
        # doubling the cells or the lambdas adds no sweep
        base = desk_config("fig2", out_dir=str(tmp_path))
        grid_size = default_uniform_grid(base.grid_equispaced, base.grid_chebyshev).size
        original = regularized_fit._orthonormal_rows

        def grid_sweeps(cfg):
            sizes = []

            def counted(spec, l_max, x, out=None):
                sizes.append(x.size)
                return original(spec, l_max, x, out)

            with monkeypatch.context() as patch:
                patch.setattr(regularized_fit, "_orthonormal_rows", counted)
                run(cfg)
            # rules have at most max(N) + 1 points, the grid blocks more
            blocks = [n for n in sizes if n > max(cfg.n_values) + 1]
            assert sum(blocks) == 2 * grid_size  # f1 and f2 cover it once each
            return len(blocks)

        doubled = replace(base, n_values=tuple(range(100, 411, 10)))
        assert len(doubled.n_values) == 2 * len(base.n_values)
        longer = replace(base, lambdas=(0.0, 0.1, LAMBDA_STAR, 1.0))
        assert len(base.lambdas) == 2
        assert grid_sweeps(base) == grid_sweeps(doubled) == grid_sweeps(longer) == 2

    def test_nan_error_is_rejected_before_writing(self, tmp_path, monkeypatch):
        # finite at the nodes, so the fit succeeds, but NaN at the grid's
        # end points x = -1 and 1
        monkeypatch.setitem(experiments.FUNCTIONS, "f1-nan-ends",
                            lambda x: np.where(np.abs(x) == 1.0, np.nan,
                                               FUNCTIONS["f1"](x)))
        cfg = ExperimentConfig("custom", fn="f1-nan-ends", out_dir=str(tmp_path),
                               l_values=(4,), n_values=(8,), noise_kind=None,
                               grid_equispaced=401, grid_chebyshev=101)
        with pytest.raises(ValueError, match=r"errors must be >= 0, got \(nan, "):
            run(cfg)
        assert list(tmp_path.iterdir()) == []
