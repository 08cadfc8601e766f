"""Unit tests for result persistence (figure JSON round-trips)."""

import pytest

from repro.experiments.figures import FigureData
# load_figure_json stays in src/ as the round-trip oracle of save_figure_json.
from repro.experiments.persistence import load_figure_json, save_figure_json


class TestFigureJson:
    def test_roundtrip(self, tmp_path):
        data = FigureData(
            figure="figX", title="Title",
            rows=[{"a": 1, "b": 2.5}], meta={"trials": 3},
        )
        path = tmp_path / "fig.json"
        save_figure_json(data, path)
        loaded = load_figure_json(path)
        assert loaded.figure == data.figure
        assert loaded.rows == data.rows
        assert loaded.meta == data.meta

    def test_real_figure(self, tmp_path):
        from repro.experiments.figures import fig5_monotonicity

        data = fig5_monotonicity(n_values=[10_000, 50_000])
        path = tmp_path / "fig5.json"
        save_figure_json(data, path)
        loaded = load_figure_json(path)
        assert loaded.column("f1") == pytest.approx(data.column("f1"))
        assert loaded.meta["f1_monotone_decreasing"] is True
