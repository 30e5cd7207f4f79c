"""Key = value config syntax: parsing, rendering, and error reporting."""

import pytest

from tikbary.configfile import parse_config_text, read_config, render_value


def _text(mapping: dict) -> str:
    """mapping as config text, one render_value line per key."""
    return "".join(f"{key} = {render_value(value)}\n" for key, value in mapping.items())


class TestParsing:
    def test_scalar_types(self):
        cfg = parse_config_text(
            "a = 3\n"
            "b = 0.25\n"
            "c = hello\n"
            "d = true\n"
            "e = FALSE\n"
            "f = none\n"
            "g = None\n"
        )
        assert cfg == {"a": 3, "b": 0.25, "c": "hello", "d": True,
                       "e": False, "f": None, "g": None}
        assert isinstance(cfg["a"], int) and not isinstance(cfg["a"], bool)

    def test_arrays_become_tuples(self):
        cfg = parse_config_text("xs = [1, 2, 3]\nys = [0.5, none]\nempty = []\n")
        assert cfg["xs"] == (1, 2, 3)
        assert cfg["ys"] == (0.5, None)
        assert cfg["empty"] == ()

    def test_inline_comments_stripped(self):
        cfg = parse_config_text("n = 8  # number of points\n# whole line\n")
        assert cfg == {"n": 8}

    def test_scientific_notation(self):
        cfg = parse_config_text("lam = 1e-2\n")
        assert cfg["lam"] == 0.01

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("just words\n")

    def test_missing_key(self):
        with pytest.raises(ValueError):
            parse_config_text(" = 3\n")

    def test_unterminated_array(self):
        with pytest.raises(ValueError, match="unterminated"):
            parse_config_text("xs = [1, 2\n")


class TestRendering:
    def test_floats_render_shortest_exact_form(self):
        assert render_value(0.3) == "0.3"
        v = 10.0**-0.7
        assert float(render_value(v)) == v

    def test_round_trip(self):
        mapping = {
            "experiment": "fig3",
            "basis": "chebyshev1",
            "l_values": (8, 16, 32),
            "lambdas": (0.0, 0.19952623149688797, 1.0),
            "snr_db": 5.0,
            "seed": 2026,
            "noise_kind": None,
            "paper_scale": False,
        }
        assert parse_config_text(_text(mapping)) == mapping

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        mapping = {"n": 61, "lam": 0.5, "label": "demo", "flag": True}
        path.write_text(_text(mapping), encoding="utf-8")
        assert read_config(path) == mapping

    def test_rendered_text_shape(self):
        assert [render_value(v) for v in (1, (2, 3), (), None, True, "demo")] == [
            "1", "[2, 3]", "[]", "none", "true", "demo"]
