"""SVG rendering from CSV text: determinism, hints, and structure."""

import hashlib

import pytest

from tikbary.csvio import render_table
from tikbary.svgplot import render_csv_text


def _sample_csv(hints=("x = x", "y = value"), rows=None):
    if rows is None:
        rows = [[0.0, 1.0], [0.5, 2.0], [1.0, 4.0]]
    return render_table(("x", "value"), rows, (("title", "demo"),), hints)


class TestRendering:
    def test_is_a_complete_svg_document(self):
        svg = render_csv_text(_sample_csv())
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert "<polyline" in svg

    def test_deterministic(self):
        text = _sample_csv()
        assert render_csv_text(text) == render_csv_text(text)

    def test_missing_hints_rejected(self):
        with pytest.raises(ValueError, match="plot hints"):
            render_csv_text(_sample_csv(hints=()))

    def test_all_filtered_points_yield_placeholder(self):
        text = _sample_csv(hints=("x = x", "y = value", "logy = true"),
                           rows=[[0.0, -1.0], [1.0, -2.0]])
        svg = render_csv_text(text)
        assert "no plottable data" in svg
        assert svg.endswith("</svg>\n")

    def test_log_axis_drops_nonpositive_points_only(self):
        text = _sample_csv(hints=("x = x", "y = value", "logy = true"),
                           rows=[[0.0, -1.0], [0.5, 1.0], [1.0, 10.0]])
        svg = render_csv_text(text)
        assert svg.count("<polyline") == 1

    def test_few_points_get_markers(self):
        svg = render_csv_text(_sample_csv())
        assert "<circle" in svg

    def test_many_points_skip_markers(self):
        rows = [[i / 100.0, float(i)] for i in range(100)]
        svg = render_csv_text(_sample_csv(rows=rows))
        assert "<circle" not in svg


class TestSeries:
    def test_one_polyline_per_y_column_and_group(self):
        text = render_table(
            ("x", "a", "b", "kind"),
            [[0.0, 1.0, 2.0, "p"], [1.0, 2.0, 3.0, "p"],
             [0.0, 4.0, 5.0, "q"], [1.0, 5.0, 6.0, "q"]],
            (),
            ("x = x", "y = a, b", "group-by = kind"))
        svg = render_csv_text(text)
        assert svg.count("<polyline") == 4
        assert "a kind=p" in svg and "b kind=q" in svg

    def test_group_labels_prettify_numbers(self):
        text = render_table(
            ("x", "v", "lambda"),
            [[0.0, 1.0, 0.19952623149688797], [1.0, 2.0, 0.19952623149688797]],
            (),
            ("x = x", "y = v", "group-by = lambda"))
        assert "v lambda=0.1995" in render_csv_text(text)

    def test_blank_cells_are_skipped(self):
        text = render_table(("x", "v"), [[0.0, 1.0], [0.5, None], [1.0, 2.0]],
                            (), ("x = x", "y = v"))
        svg = render_csv_text(text)
        assert svg.count("<polyline") == 1

    def test_bytes_pinned(self):
        # groups (lam, kind) first appear as (0.5, q), (0.1, p), (0.5, p),
        # out of sorted order; (0.5, q) has 76 plottable points of a and at
        # most 64 of b; both log axes see blank and nonpositive cells, and
        # every b of (0.5, p) is blank, so that series is left out
        # the digest is of the bytes the renderer gave before its one-pass
        # rewrite
        rows = []
        for k in range(80):
            x = (k - 3) * 0.25
            rows.append([x, 1.0 + k * k, None if k % 9 == 4 else 2.0 - k / 20, 0.5, "q"])
            if k % 8 == 0:
                rows.append([x + 0.1, 3.0 - k / 10, k - 3.0, 0.1, "p"])
            if k % 16 == 1:
                rows.append([k + 1.0, 0.0 if k == 1 else k * 0.5, None, 0.5, "p"])
        text = render_table(("x", "a", "b", "lam", "kind"), rows, (),
                            ("x = x", "y = a, b", "group-by = lam, kind",
                             "logx = true", "logy = true", "title = pinned"))
        svg = render_csv_text(text)
        assert svg.count("<polyline") == 5
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "9affac978d2f259d09448fd754ccaecd000cdacbd4a2bb2c3833e9a1bcb8e726")


class TestEscaping:
    def test_title_markup_escaped(self):
        text = render_table(("x", "v"), [[0.0, 1.0], [1.0, 2.0]], (),
                            ("x = x", "y = v", "title = a < b & c"))
        svg = render_csv_text(text)
        assert "a &lt; b &amp; c" in svg
        assert "a < b & c" not in svg

