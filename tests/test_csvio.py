"""CSV rendering and parsing round trips."""

import dataclasses

import numpy as np
import pytest

from tikbary.csvio import (
    format_value,
    parse_table,
    read_table,
    render_table,
)
from tikbary.metrics import REPORT_COLUMNS, ErrorReport


class TestFormatValue:
    def test_none_is_empty(self):
        assert format_value(None) == ""

    def test_bools(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"

    def test_floats_round_trip_exactly(self):
        for v in (0.1, 1.0 / 3.0, 10.0**-0.7, 1e-300, -2.5):
            assert float(format_value(v)) == v

    def test_ints_and_strings_pass_through(self):
        assert format_value(42) == "42"
        assert format_value("legendre") == "legendre"


class TestRoundTrip:
    COLUMNS = ("x", "value")
    ROWS = [[-1.0, 0.25], [0.0, None], [1.0, 0.75]]
    META = (("version", "1.2"), ("basis", "jacobi(0.3,-0.25)"), ("points", 3))
    HINTS = ("x = x", "y = value")

    def test_render_then_parse(self):
        text = render_table(self.COLUMNS, self.ROWS, self.META, self.HINTS)
        table = parse_table(text)
        assert table.columns == list(self.COLUMNS)
        assert table.metadata == {"version": "1.2",
                                  "basis": "jacobi(0.3,-0.25)", "points": "3"}
        assert table.plot_hints == list(self.HINTS)
        assert table.column("x", as_float=True) == [-1.0, 0.0, 1.0]
        assert table.column("value", as_float=True) == [0.25, None, 0.75]
        assert table.column("value") == ["0.25", "", "0.75"]

    def test_unix_line_endings_only(self):
        text = render_table(self.COLUMNS, self.ROWS, self.META, self.HINTS)
        assert "\r" not in text
        assert text.endswith("\n")

    def test_fields_with_commas_are_quoted(self):
        text = render_table(("name", "v"), [["jacobi(0.3,-0.25)", 1.0]])
        assert '"jacobi(0.3,-0.25)"' in text
        table = parse_table(text)
        assert table.rows[0][0] == "jacobi(0.3,-0.25)"

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        text = render_table(self.COLUMNS, self.ROWS, self.META, self.HINTS)
        path.write_bytes(text.encode("utf-8"))
        table = read_table(path)
        assert table.columns == list(self.COLUMNS)
        assert table.rows == parse_table(text).rows
        assert len(table.rows) == 3
        assert table.metadata["basis"] == "jacobi(0.3,-0.25)"

    def test_float_precision_survives(self):
        v = float(np.nextafter(0.1, 1.0))
        text = render_table(("v",), [[v]])
        assert float(parse_table(text).rows[0][0]) == v

    def test_blank_lines_ignored(self):
        table = parse_table("a,b\n\n1,2\n\n")
        assert table.rows == [["1", "2"]]

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_table("# only = metadata\n")


class TestReportRows:
    def test_column_order(self):
        assert REPORT_COLUMNS == ("spec", "L", "N", "lambda", "seed", "snr_db",
                                  "uniform_error", "l2_error")
        # an ErrorReport's fields are the report columns, in order
        assert [f.name for f in dataclasses.fields(ErrorReport)] == [
            "spec_name", "L", "N", "lam", "seed", "snr_db", "uniform_error",
            "l2_error"]
        report = ErrorReport("legendre", 8, 16, 0.5, 11, 5.0, 0.125, 0.0625)
        row = list(dataclasses.astuple(report))
        assert row == ["legendre", 8, 16, 0.5, 11, 5.0, 0.125, 0.0625]
        table = parse_table(render_table(REPORT_COLUMNS, [row]))
        assert table.columns == list(REPORT_COLUMNS)
        assert table.rows == [["legendre", "8", "16", "0.5", "11", "5",
                               "0.125", "0.0625"]]

    def test_noise_free_report_leaves_blanks(self):
        report = ErrorReport("chebyshev1", 4, 4, 0.0, None, None, 0.1, 0.2)
        text = render_table(REPORT_COLUMNS, [list(dataclasses.astuple(report))])
        table = parse_table(text)
        assert table.column("seed") == [""]
        assert table.column("snr_db", as_float=True) == [None]
