"""Saving and loading regenerated figure data (JSON round-trips).

Long sweeps are expensive; users want to regenerate tables and plots without
re-running the simulator.  This module serialises
:class:`~repro.experiments.figures.FigureData` to a plain JSON file and reads
it back (the free-form ``meta`` dict goes through JSON).

No third-party serialisation dependency: ``json`` from the standard library,
with NumPy scalars coerced to native Python on the way out.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .figures import FigureData

__all__ = ["save_figure_json", "load_figure_json"]


def _native(value):
    """Coerce NumPy scalars/arrays into JSON-safe native Python values."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    return value


def save_figure_json(data: FigureData, path: str | Path) -> None:
    """Write a figure's regenerated data to JSON."""
    path = Path(path)
    payload = {
        "figure": data.figure,
        "title": data.title,
        "rows": _native(list(data.rows)),
        "meta": _native(dict(data.meta)),
    }
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_figure_json(path: str | Path) -> FigureData:
    """Read a figure written by :func:`save_figure_json`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return FigureData(
        figure=payload["figure"],
        title=payload["title"],
        rows=payload["rows"],
        meta=payload["meta"],
    )
