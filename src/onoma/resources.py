"""Accessors for the data files bundled with the package."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

__all__ = [
    "countries_path",
    "reference_confusion_path",
]


def _data_path(name: str) -> Path:
    with resources.as_file(resources.files("onoma.data").joinpath(name)) as path:
        return Path(path)


def countries_path() -> Path:
    """Bundled 176-entry country registry (code, name)."""
    return _data_path("countries.tsv")


def reference_confusion_path() -> Path:
    """Bundled reference confusion-matrix fixture (counts per guessed/actual origin)."""
    return _data_path("reference_confusion.csv")
