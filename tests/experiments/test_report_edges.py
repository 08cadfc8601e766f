"""Edge-case tests for the report renderer."""


from repro.experiments.report import _format_cell, render_bars, render_table


class TestFormatCell:
    def test_bool_before_float(self):
        # bool is an int subclass; must render as yes/no, not 1/0.
        assert _format_cell(True) == "yes"
        assert _format_cell(False) == "no"

    def test_zero(self):
        assert _format_cell(0.0) == "0"

    def test_large_and_tiny_scientific(self):
        assert "e" in _format_cell(1.23e7)
        assert "e" in _format_cell(1.23e-5)

    def test_mid_range_compact(self):
        assert _format_cell(0.12345) == "0.1234" or _format_cell(0.12345) == "0.1235"

    def test_strings_pass_through(self):
        assert _format_cell("abc") == "abc"


class TestRenderEdges:
    def test_table_missing_keys_fill_blank(self):
        out = render_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        lines = out.splitlines()
        assert len(lines) == 4

    def test_bars_single_item(self):
        out = render_bars(["only"], [3.5], width=10)
        assert out.count("#") == 10

    def test_bars_all_zero(self):
        out = render_bars(["a", "b"], [0.0, 0.0])
        assert "#" not in out

    def test_table_unicode_labels(self):
        out = render_table([{"ε": 0.05, "δ": 0.05}])
        assert "ε" in out and "δ" in out
