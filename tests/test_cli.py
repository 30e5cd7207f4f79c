"""Command line interface, driven in process through main(argv)."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import normal_equations_oracle
from tikbary.barycentric import BarycentricData, interp_barycentric, weights_gauss
from tikbary.basis import BasisSpec
from tikbary import cli, experiments, regularized_fit
from tikbary.cli import main
from tikbary.csvio import parse_table, read_table, render_table
from tikbary.experiments import desk_config
from tikbary.metrics import default_uniform_grid
from tikbary.quadrature import gauss_rule
from tikbary.signals import FUNCTIONS, f1


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuadratureDump:
    def test_matches_the_rule(self, capsys):
        code, out, _ = _run(capsys, "quadrature-dump", "--points", "4")
        assert code == 0
        table = parse_table(out)
        assert table.columns == ["j", "node", "weight"]
        rule = gauss_rule(BasisSpec.chebyshev1(), 4)
        np.testing.assert_array_equal(table.column("node", as_float=True),
                                      rule.nodes)
        np.testing.assert_array_equal(table.column("weight", as_float=True),
                                      rule.weights)
        assert table.metadata["table"] == "quadrature"
        assert table.metadata["points"] == "4"

    def test_writes_a_file(self, capsys, tmp_path):
        path = tmp_path / "rule.csv"
        code, out, _ = _run(capsys, "quadrature-dump", "--points", "3",
                            "--basis", "legendre", "--out", str(path))
        assert code == 0 and out == ""
        assert len(read_table(path).rows) == 3

    def test_bad_basis_is_a_clean_error(self, capsys):
        code, _, err = _run(capsys, "quadrature-dump", "--points", "4",
                            "--basis", "hermite")
        assert code == 2
        assert err.startswith("error:")

    def test_node_on_an_endpoint_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "rule.csv"
        code, out, err = _run(
            capsys, "quadrature-dump", "--points", "222", "--basis",
            "jacobi(-0.9999999998476579,-0.9999999990810643)", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: the 222-point jacobi(")
        assert "rounds to -1 or 1" in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_point_count_is_a_clean_error(self, capsys):
        code, _, err = _run(capsys, "quadrature-dump", "--points", "0")
        assert code == 2 and "error:" in err


class TestFit:
    def test_coefficients_match_the_dense_solve(self, capsys):
        code, out, _ = _run(capsys, "fit", "--basis", "legendre", "--L", "8",
                            "--N", "16", "--fn", "f1")
        assert code == 0
        table = parse_table(out)
        assert table.columns == ["l", "beta"]
        betas = np.array(table.column("beta", as_float=True))
        assert betas.shape == (9,)
        rule = gauss_rule(BasisSpec.legendre(), 17)
        ref = normal_equations_oracle(rule, 8, 0.0, f1(rule.nodes))
        np.testing.assert_allclose(betas, ref, rtol=1e-11, atol=1e-13)

    def test_lambda_flag_shrinks(self, capsys):
        _, out0, _ = _run(capsys, "fit", "--L", "4", "--fn", "f1")
        _, out1, _ = _run(capsys, "fit", "--L", "4", "--fn", "f1",
                          "--lambda", "1.0")
        b0 = np.array(parse_table(out0).column("beta", as_float=True))
        b1 = np.array(parse_table(out1).column("beta", as_float=True))
        np.testing.assert_allclose(b1, b0 / 2.0, rtol=1e-14)
        assert parse_table(out1).metadata["lambda"] == "1"

    def test_rule_defaults_to_the_fit_degree(self, capsys):
        _, out, _ = _run(capsys, "fit", "--L", "6", "--fn", "f1")
        assert parse_table(out).metadata["N"] == "6"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-0.5"])
    def test_bad_lambda_is_a_clean_error(self, capsys, bad):
        code, out, err = _run(capsys, "fit", "--L", "4", "--fn", "f1",
                              "--lambda", bad)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "lambda must be finite" in err

    def test_two_lambdas_are_rejected(self, capsys):
        code, _, err = _run(capsys, "fit", "--L", "4", "--fn", "f1",
                            "--lambda", "0.5", "--lambda", "1.0")
        assert code == 2 and "single --lambda" in err

    @pytest.mark.parametrize("degrees, err", [
        (("--L", "-1"), "error: --L must be >= 0, got -1\n"),
        (("--L", "3", "--N", "-2"), "error: --N must be >= 0, got -2\n"),
    ])
    def test_negative_degree_names_its_flag(self, capsys, degrees, err):
        # the rule of degree -1 reported "points must be >= 1"
        code, out, got = _run(capsys, "fit", "--fn", "f1", *degrees)
        assert code == 2 and out == "" and got == err

    def test_needs_a_sample_source(self, capsys):
        code, _, err = _run(capsys, "fit", "--L", "4")
        assert code == 2 and "--fn" in err and "--data" in err


class TestFitFromFile:
    def _write_samples(self, tmp_path, rule, values):
        rows = np.column_stack([rule.nodes, values]).tolist()
        path = tmp_path / "samples.csv"
        path.write_text(render_table(("x", "fx"), rows), encoding="utf-8")
        return str(path)

    def test_file_samples_match_fn_samples(self, capsys, tmp_path):
        rule = gauss_rule(BasisSpec.chebyshev1(), 9)
        path = self._write_samples(tmp_path, rule, f1(rule.nodes))
        code, out_file, _ = _run(capsys, "fit", "--L", "8", "--data", path)
        assert code == 0
        _, out_fn, _ = _run(capsys, "fit", "--L", "8", "--fn", "f1")
        assert parse_table(out_file).rows == parse_table(out_fn).rows

    def test_unsorted_headerless_file_is_accepted(self, capsys, tmp_path):
        rule = gauss_rule(BasisSpec.chebyshev1(), 5)
        values = f1(rule.nodes)
        lines = [f"{x:.17g},{y:.17g}" for x, y in
                 zip(rule.nodes[::-1], values[::-1])]
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = _run(capsys, "fit", "--L", "4", "--data", str(path))
        assert code == 0
        _, out_fn, _ = _run(capsys, "fit", "--L", "4", "--fn", "f1")
        assert parse_table(out).rows == parse_table(out_fn).rows

    def test_wrong_abscissae_give_an_actionable_error(self, capsys, tmp_path):
        rule = gauss_rule(BasisSpec.chebyshev1(), 9)
        shifted = rule.nodes + 1e-6
        rows = np.column_stack([shifted, f1(shifted)]).tolist()
        path = tmp_path / "bad.csv"
        path.write_text(render_table(("x", "fx"), rows), encoding="utf-8")
        code, _, err = _run(capsys, "fit", "--L", "8", "--data", str(path))
        assert code == 2
        assert "Gauss nodes" in err

    def test_wrong_row_count_names_the_fix(self, capsys, tmp_path):
        rule = gauss_rule(BasisSpec.chebyshev1(), 5)
        path = self._write_samples(tmp_path, rule, f1(rule.nodes))
        code, _, err = _run(capsys, "fit", "--L", "8", "--data", path)
        assert code == 2
        assert "quadrature-dump" in err


class TestInterp:
    def test_matches_the_library_interpolant(self, capsys):
        code, out, _ = _run(capsys, "interp", "--N", "12", "--fn", "f1",
                            "--lambda", "0.5", "--eval-points", "51")
        assert code == 0
        table = parse_table(out)
        assert table.plot_hints == ["x = x", "y = value"]
        rule = gauss_rule(BasisSpec.chebyshev1(), 13)
        data = BarycentricData(rule.nodes, weights_gauss(rule),
                               f1(rule.nodes), 0.5)
        expected = interp_barycentric(data, np.linspace(-1.0, 1.0, 51))
        np.testing.assert_array_equal(table.column("value", as_float=True),
                                      expected)

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_eval_points_below_one_is_a_clean_error(self, capsys, points):
        code, out, err = _run(capsys, "interp", "--N", "12", "--fn", "f1",
                              "--eval-points", points)
        assert code == 2 and out == ""
        assert err == f"error: --eval-points must be >= 1, got {points}\n"

    def test_negative_degree_names_its_flag(self, capsys):
        code, out, err = _run(capsys, "interp", "--N", "-1", "--fn", "f1")
        assert code == 2 and out == ""
        assert err == "error: --N must be >= 1, got -1\n"

    def test_degree_zero_names_its_flag(self, capsys):
        # one node passed the flag check and failed in BarycentricData with
        # "need at least two nodes"
        code, out, err = _run(capsys, "interp", "--N", "0", "--fn", "f1")
        assert code == 2 and out == ""
        assert err == "error: --N must be >= 1, got 0\n"

    def test_lambda_divides_the_lambda_0_values_last(self, capsys):
        _, plain, _ = _run(capsys, "interp", "--N", "60", "--fn", "f3")
        code, shrunk, _ = _run(capsys, "interp", "--N", "60", "--fn", "f3",
                               "--lambda", "0.1995")
        assert code == 0
        np.testing.assert_array_equal(
            parse_table(shrunk).column("value", as_float=True),
            np.array(parse_table(plain).column("value", as_float=True)) / 1.1995)


    @pytest.mark.parametrize("basis, peak, bound", [
        pytest.param("jacobi(20,-0.9)", "1.87e+28", "8.32e+14", id="jacobi(20,-0.9)-1.87e+28"),
        pytest.param("jacobi(5,0)", "5.76e+09", "0.000256", id="jacobi(5,0)-5.76e+09")])
    def test_unstable_quotient_form_is_a_clean_error(self, capsys, basis, peak, bound):
        # jacobi(20, -0.9) printed p(1) = -1.139e6 with exit 0, where the
        # interpolant of the same samples is +9.338e21
        code, out, err = _run(capsys, "interp", "--basis", basis, "--N", "200",
                              "--fn", "f1", "--eval-points", "3")
        assert code == 2 and out == ""
        name = BasisSpec.from_name(basis).name
        assert err == (f"error: the quotient form is unstable in 201 {name} points "
                       f"(N = 200): Lebesgue function {peak} at x = +-1, "
                       f"N Lambda eps = {bound}, over 1e-09\n")

    @pytest.mark.parametrize("basis", ["chebyshev1", "legendre", "jacobi(0.3,-0.25)",
                                       "jacobi(0.5,0.5)"])
    def test_shipped_bases_interpolate_up_to_n_2000(self, capsys, basis):
        code, out, err = _run(capsys, "interp", "--basis", basis, "--N", "2000",
                              "--fn", "f1", "--eval-points", "3")
        assert code == 0 and err == ""
        assert len(parse_table(out).rows) == 3

    @pytest.mark.parametrize("message, err", [
        ("Unable to allocate 745. GiB for an array with shape (100000000000,)",
         "error: out of memory: Unable to allocate 745. GiB for an array "
         "with shape (100000000000,)\n"),
        ("", "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_a_clean_error(self, capsys, monkeypatch,
                                            message, err):
        # stands in for an allocation as large as --eval-points 100000000000
        # needs; nothing that large is requested
        def exhausted(data, x):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "interp_barycentric", exhausted)
        code, out, got = _run(capsys, "interp", "--N", "3", "--fn", "f1",
                              "--eval-points", "5")
        assert code == 2 and out == ""
        assert got == err


class TestSweep:
    def test_default_grid_no_noise(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, out, _ = _run(capsys, "sweep", "--L", "16", "--no-noise",
                            "--out", str(out_dir))
        assert code == 0
        paths = out.strip().splitlines()
        assert [p.split("/")[-1] for p in paths] == ["sweep.csv", "sweep.svg"]
        table = read_table(paths[0])
        assert len(table.rows) == 21
        assert table.column("seed") == [""] * 21

    def test_noise_power_past_double_range_is_a_clean_error(self, capsys, tmp_path):
        code, out, err = _run(capsys, "sweep", "--L", "10", "--snr-db", "-4000",
                              "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "snr_db" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_explicit_lambdas(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "sweep", "--L", "8", "--lambda", "0.1",
                            "--lambda", "0.2", "--out", str(tmp_path))
        assert code == 0
        table = read_table(tmp_path / "sweep.csv")
        assert [float(v) for v in table.column("lambda")] == [0.1, 0.2]

    def test_equals_run_at_paper_scale(self, capsys, tmp_path):
        # sweep is run --experiment sweep at the paper grid
        flags = ("--L", "30", "--N", "40", "--fn", "f2", "--seed", "7")
        code, _, _ = _run(capsys, "sweep", *flags, "--out", str(tmp_path / "a"))
        assert code == 0
        code, _, _ = _run(capsys, "run", "--experiment", "sweep", "--scale", "paper",
                          *flags, "--out", str(tmp_path / "b"))
        assert code == 0
        for name in ("sweep.csv", "sweep.svg"):
            a, b = ([line for line in (tmp_path / side / name).read_bytes().splitlines()
                     if not line.startswith(b"# out_dir = ")] for side in "ab")
            assert a == b and len(a) > 20

    def test_bare_flags_echo_the_config_defaults(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = _run(capsys, "sweep", "--L", "8", "--N", "16",
                            "--lambda", "0.1")
        assert code == 0
        assert out.split() == ["results/sweep.csv", "results/sweep.svg"]
        meta = read_table(tmp_path / "results" / "sweep.csv").metadata
        assert {key: meta[key] for key in (
            "seed", "basis", "fn", "snr_db", "noise_kind", "grid_equispaced",
            "grid_chebyshev", "out_dir", "l_values", "n_values", "lambdas")} == {
            "seed": "12345", "basis": "chebyshev1", "fn": "f1", "snr_db": "5.0",
            "noise_kind": "additive-white-snr", "grid_equispaced": "10001",
            "grid_chebyshev": "2001", "out_dir": "results", "l_values": "[8]",
            "n_values": "[16]", "lambdas": "[0.1]"}


class TestParser:
    def test_every_subcommand_keeps_its_flags(self):
        parser = cli.build_parser()
        [sub] = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
        got = {None: sorted(s for a in parser._actions for s in a.option_strings)}
        got.update((name, sorted(s for a in p._actions for s in a.option_strings))
                   for name, p in sub.choices.items())
        want = {
            None: ["-h", "--help", "--version"],
            "quadrature-dump": ["-h", "--help", "--basis", "--points", "--out"],
            "fit": ["-h", "--help", "--basis", "--lambda", "--out", "--fn",
                    "--data", "--L", "--N"],
            "interp": ["-h", "--help", "--basis", "--lambda", "--out", "--fn",
                       "--data", "--N", "--eval-points"],
            "sweep": ["-h", "--help", "--basis", "--fn", "--lambda", "--L", "--N",
                      "--seed", "--snr-db", "--no-noise", "--out"],
            "run": ["-h", "--help", "--config", "--experiment", "--scale",
                    "--basis", "--fn", "--L", "--N", "--lambda", "--snr-db",
                    "--seed", "--out"],
        }
        assert got == {name: sorted(flags) for name, flags in want.items()}


class TestBasisOverflow:
    @pytest.mark.parametrize("argv", [
        ("quadrature-dump", "--points", "3", "--basis", "jacobi(1e6,0)"),
        ("quadrature-dump", "--points", "3", "--basis", "jacobi(1100,0)"),
        ("fit", "--L", "2", "--N", "2", "--fn", "f2", "--basis", "jacobi(1e308,1)"),
        ("run", "--experiment", "custom", "--L", "2", "--N", "2",
         "--basis", "jacobi(1e6,0)"),
    ])
    def test_weight_mass_past_double_range_is_a_clean_error(self, capsys, tmp_path,
                                                             argv):
        if argv[0] == "run":
            argv += ("--out", str(tmp_path))
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "mass overflows" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestRun:
    def test_nan_lambda_is_a_clean_error(self, capsys, tmp_path):
        code, _, err = _run(capsys, "run", "--experiment", "sweep",
                            "--lambda", "nan", "--out", str(tmp_path))
        assert code == 2 and "lambda must be finite" in err

    def test_nan_snr_is_a_clean_error(self, capsys, tmp_path):
        cfg = tmp_path / "custom.cfg"
        cfg.write_text("experiment = custom\nl_values = [4]\nn_values = [8]\n",
                       encoding="utf-8")
        code, out, err = _run(capsys, "run", "--config", str(cfg),
                              "--experiment", "custom", "--snr-db", "nan",
                              "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "snr_db must be finite" in err
        assert not (tmp_path / "custom.csv").exists()

    @pytest.mark.parametrize("value", ["12", "none"])
    def test_out_dir_of_another_type_is_a_clean_error(self, capsys, tmp_path, value):
        # the parser types 12 as an int and none as None, neither a path
        cfg = tmp_path / "custom.cfg"
        cfg.write_text("experiment = custom\nl_values = [4]\nn_values = [8]\n"
                       f"out_dir = {value}\n", encoding="utf-8")
        code, out, err = _run(capsys, "run", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: out_dir must be")
        assert [p.name for p in tmp_path.iterdir()] == ["custom.cfg"]

    def test_out_with_a_line_break_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # the break would split the CSV's out_dir metadata line in two
        monkeypatch.chdir(tmp_path)
        code, out, err = _run(capsys, "run", "--experiment", "fig3", "--out", "a\nb")
        assert code == 2 and out == ""
        assert err.startswith("error: out_dir must be") and "'a\\nb'" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, lines", [
        ("lambdas", "l_values = [4]\nlambdas = 0.1"),
        ("l_values", "l_values = 5"),
        ("lambdas", "l_values = [4]\nlambdas = [true]"),
        ("snr_db", "l_values = [4]\nsnr_db = true"),
        ("noise_c", "l_values = [4]\nnoise_c = true"),
        ("l_range", "l_range = [10, 40, 10.7]"),
        ("basis", "l_values = [4]\nbasis = 5"),
    ])
    def test_number_of_the_wrong_type_is_a_clean_error(self, capsys, tmp_path,
                                                       key, lines):
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(f"experiment = custom\nn_values = [60]\n{lines}\n",
                       encoding="utf-8")
        code, out, err = _run(capsys, "run", "--config", str(cfg),
                              "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and key in err
        assert [p.name for p in tmp_path.iterdir()] == ["custom.cfg"]

    @pytest.mark.parametrize("size", ["many", "2.5"])
    def test_bad_grid_size_is_a_clean_error(self, capsys, tmp_path, size):
        cfg = tmp_path / "custom.cfg"
        cfg.write_text("experiment = custom\nl_values = [4]\nn_values = [8]\n"
                       f"grid_equispaced = {size}\n", encoding="utf-8")
        code, out, err = _run(capsys, "run", "--config", str(cfg),
                              "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "grid_equispaced" in err

    def test_nan_in_an_interior_grid_block_is_a_clean_error(self, capsys, tmp_path,
                                                          monkeypatch):
        # f2 is NaN at one grid point of the middle of three row blocks and
        # finite everywhere else: a running maximum that drops NaN, like >
        # or np.fmax, would write both tables
        cfg = tmp_path / "fig2.cfg"
        cfg.write_text("experiment = fig2\nl_values = [4]\nn_values = [8]\n"
                       "noise_kind = none\ngrid_equispaced = 40001\n"
                       "grid_chebyshev = 101\n", encoding="utf-8")
        grid = default_uniform_grid(40001, 101)
        rows = regularized_fit._BLOCK_ENTRIES // (1 + regularized_fit._DEGREE_CHUNK)
        index = rows + rows // 2
        assert 2 * rows < grid.size <= 3 * rows
        f2 = FUNCTIONS["f2"]
        monkeypatch.setitem(experiments.FUNCTIONS, "f2",
                            lambda x: np.where(x == grid[index], np.nan, f2(x)))
        out = tmp_path / "out"
        code, stdout, err = _run(capsys, "run", "--config", str(cfg), "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and "errors must be >= 0, got (nan, " in err
        assert not out.exists()

    def test_custom_from_flags(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "run", "--experiment", "custom", "--L", "4",
                            "--N", "8", "--fn", "f2", "--out", str(tmp_path))
        assert code == 0
        names = [p.split("/")[-1] for p in out.strip().splitlines()]
        assert names == ["custom.csv", "custom.svg"]
        table = read_table(tmp_path / "custom.csv")
        assert table.column("L") == ["4", "4"] and table.column("N") == ["8", "8"]
        meta = dict(table.metadata)
        assert meta["fn"] == "f2" and meta["grid_equispaced"] == "10001"

    def test_custom_without_degrees_names_them(self, capsys, tmp_path):
        code, out, err = _run(capsys, "run", "--experiment", "custom", "--L", "4",
                              "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--L" in err and "--N" in err

    def test_import_leaves_mpmath_and_scipy_special_out(self, tmp_path):
        # mpmath is a test-only dependency, and scipy.special loads on the
        # first Airy call; either at import would slow every run's start-up.
        # Desk fig3 and fig4 evaluate f3 and f1 alone, so no Airy call
        # loads it on their way either
        probe = ("import contextlib, os, sys, tikbary.cli\n"
                 "def loaded():\n"
                 "    print(any(m in sys.modules for m in ('mpmath', 'scipy.special')))\n"
                 "loaded()\n"
                 "for e in ('fig3', 'fig4'):\n"
                 "    with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
                 "        code = tikbary.cli.main(['run', '--experiment', e, '--scale', 'desk',\n"
                 "                                 '--out', os.path.join(sys.argv[1], e)])\n"
                 "    print(code)\n"
                 "    loaded()\n")
        done = subprocess.run([sys.executable, "-W", "error", "-c", probe, str(tmp_path)],
                              check=True, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": _SRC})
        assert done.stdout.split() == ["False", "0", "False", "0", "False"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig3", "fig4"]

    def test_fig3_needs_equal_degrees(self, capsys, tmp_path):
        code, out, err = _run(capsys, "run", "--experiment", "fig3", "--L", "5",
                              "--N", "4", "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err == ("error: fig3 interpolates at L = N: l_values must equal "
                       "n_values (on the command line, give --L with the same "
                       "value as --N), got [5] and [4]\n")
        assert list(tmp_path.iterdir()) == []
        # --N alone keeps the desk scale's l_values, so it needs --L as well
        code, out, err = _run(capsys, "run", "--experiment", "fig3", "--N", "4",
                              "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert "give --L with the same value as --N" in err
        assert err.endswith(f"got {list(desk_config('fig3').l_values)} and [4]\n")
        assert list(tmp_path.iterdir()) == []
        code, out, _ = _run(capsys, "run", "--experiment", "fig3", "--L", "4",
                            "--N", "4", "--out", str(tmp_path))
        assert code == 0
        table = read_table(tmp_path / "fig3.csv")
        assert set(table.column("L")) == {"4"} and set(table.column("N")) == {"4"}

    def test_experiment_with_overrides(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "run", "--experiment", "fig1",
                            "--L", "16", "--N", "32", "--out", str(tmp_path))
        assert code == 0
        names = [p.split("/")[-1] for p in out.strip().splitlines()]
        assert names == ["fig1_f1.csv", "fig1_f1.svg",
                         "fig1_f2.csv", "fig1_f2.svg"]
        table = read_table(tmp_path / "fig1_f1.csv")
        assert table.column("L") == ["16", "16"]

    def test_config_file_round_trip(self, capsys, tmp_path):
        from tikbary.configfile import render_value
        from tikbary.experiments import ExperimentConfig

        cfg = ExperimentConfig(
            "custom", out_dir=str(tmp_path / "out"), l_values=(8,),
            n_values=(16,), lambdas=(0.0, 0.5), noise_kind=None,
            grid_equispaced=101, grid_chebyshev=51)
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key} = {render_value(value)}\n"
                                for key, value in cfg.to_mapping().items()),
                        encoding="utf-8")
        code, out, _ = _run(capsys, "run", "--config", str(path))
        assert code == 0
        table = read_table(tmp_path / "out" / "custom.csv")
        assert len(table.rows) == 2

    def test_needs_a_target(self, capsys):
        code, _, err = _run(capsys, "run")
        assert code == 2
        assert "--config" in err and "--experiment" in err

    def test_missing_required_flag_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["fit", "--fn", "f1"])
        capsys.readouterr()

    def test_version_flag(self, capsys):
        from tikbary import __version__
        with pytest.raises(SystemExit):
            main(["--version"])
        assert __version__ in capsys.readouterr().out
