"""Guess-count correction via the prior-reweighted confusion matrix.

Row-normalizing a confusion matrix (rows guessed, columns actual) gives the
probability of the actual origin given a guess. Because those probabilities
depend on the class mix of the evaluation data, the matrix columns are first
rescaled to the given priors (`reweight_priors`); the resulting row-stochastic
operator converts guessed aggregate counts into estimates of the actual
composition. `stages.apply` rescales them to the reference population's
guess shares and applies that one operator to every dataset, so each target
is pulled toward the reference's mix (ROADMAP item 1).
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import InputFormatError
from .util import fmt_float, read_text

__all__ = [
    "ConfusionCounts",
    "CorrectionOperator",
    "reweight_priors",
    "correction_operator",
    "correct_counts",
    "render_confusion_csv",
    "parse_confusion_csv",
]


# What a region label holds that a grid file cannot carry back: a comma
# splits a field, and a quote or a '#' can make the row something else.
_UNWRITABLE = re.compile('[,"#]')


def render_confusion_csv(regions: Sequence[str], matrix: np.ndarray,
                         provenance: Mapping[str, object] | None = None) -> str:
    """`confusion.csv` or `operator.csv`: a sorted `# key: value` line per
    `provenance` key, the header row, a row per region of 17-digit cells."""
    if bad := [label for label in regions if _UNWRITABLE.search(label)]:
        raise ValueError(f"region label {bad[0]!r} holds ',', '\"' or '#'")
    lines = [f"# {key}: {value}" for key, value in sorted((provenance or {}).items())]
    if bad := [line for line in lines if any(c in line for c in "\r\n")]:
        raise ValueError(f"provenance line {bad[0]!r} holds a line break")
    lines.append("guessed," + ",".join(regions))
    for label, row in zip(regions, np.asarray(matrix, dtype=float)):
        lines.append(label + "," + ",".join(map(fmt_float, row)))
    return "\n".join(lines) + "\n"


def parse_confusion_csv(text: str, source: str = "<confusion>"
                        ) -> tuple[tuple[str, ...], np.ndarray, dict[str, str]]:
    """The region labels, square matrix and `# key: value` lines of a grid file; a
    label the writer refuses, which only a quoted field holds, is an input error."""
    provenance: dict[str, str] = {}
    grid = []
    for line in io.StringIO(text):
        if not line.lstrip().startswith("#"):
            grid.append(line)
        elif ":" in line:
            key, _, value = line.lstrip()[1:].partition(":")
            provenance[key.strip()] = value.strip()
    rows = [row for row in csv.reader(grid) if any(cell.strip() for cell in row)]
    if not rows:
        raise InputFormatError(f"{source}: empty matrix")
    regions = tuple(cell.strip() for cell in rows[0][1:])
    if len(regions) < 1 or len(set(regions)) != len(regions):
        raise InputFormatError(f"{source}: bad header region labels")
    if bad := [label for label in regions if _UNWRITABLE.search(label)]:
        raise InputFormatError(f"{source}: region label {bad[0]!r} holds ',', '\"' or '#'")
    if len(rows) - 1 != len(regions):
        raise InputFormatError(
            f"{source}: expected {len(regions)} data rows, got {len(rows) - 1}"
        )
    matrix = np.zeros((len(regions), len(regions)))
    for i, row in enumerate(rows[1:]):
        if len(row) != len(regions) + 1:
            raise InputFormatError(f"{source}: row {i + 2}: wrong field count")
        if row[0].strip() != regions[i]:
            raise InputFormatError(
                f"{source}: row {i + 2}: label {row[0]!r} does not match column order"
            )
        try:
            matrix[i] = [float(cell) for cell in row[1:]]
        except ValueError:
            raise InputFormatError(f"{source}: row {i + 2}: non-numeric cell") from None
        if not np.isfinite(matrix[i]).all():
            raise InputFormatError(f"{source}: row {i + 2}: non-finite cell")
    if np.any(matrix < 0):
        raise InputFormatError(f"{source}: negative counts")
    return regions, matrix, provenance


@dataclass(frozen=True, eq=False)
class ConfusionCounts:
    """Nonnegative guessed-by-actual count matrix; every column has mass."""

    regions: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        n = len(self.regions)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("non-finite confusion entries")
        if np.any(matrix < 0):
            raise ValueError("negative confusion entries")
        empty = [self.regions[j] for j in np.nonzero(matrix.sum(axis=0) == 0)[0]]
        if empty:
            raise ValueError(f"regions with zero actual names: {', '.join(empty)}")

    @property
    def total(self) -> float:
        return float(self.matrix.sum())

    @property
    def column_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    @property
    def row_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    @classmethod
    def from_csv(cls, path: Path | str) -> "ConfusionCounts":
        regions, matrix, _ = parse_confusion_csv(read_text(path), source=str(path))
        try:
            return cls(regions, matrix)
        except ValueError as exc:
            raise InputFormatError(f"{path}: {exc}") from None


def reweight_priors(
    counts: ConfusionCounts, target_priors: Sequence[float]
) -> ConfusionCounts:
    """Rescale columns so their sums are proportional to the target priors.

    Column j is scaled by target_priors[j] * total / colsum(j), so the grand
    total is preserved and the new column shares equal the target priors.
    """
    p = np.asarray(list(target_priors), dtype=float)
    n = len(counts.regions)
    if p.shape != (n,):
        raise ValueError(f"priors have length {p.shape}, expected {n}")
    if np.any(p <= 0):
        raise ValueError("target priors must be strictly positive")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"target priors must sum to 1, got {float(p.sum())!r}")
    scale = p * counts.total / counts.column_sums
    return ConfusionCounts(counts.regions, counts.matrix * scale[None, :])


@dataclass(frozen=True, eq=False)
class CorrectionOperator:
    """Row-stochastic matrix: entry (i, j) is P(actual = j | guessed = i)."""

    regions: tuple[str, ...]
    matrix: np.ndarray
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        n = len(self.regions)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape}, expected {(n, n)}")
        # Written as what is accepted, so a NaN fails each check.
        if not (np.all(matrix >= -1e-12) and np.all(matrix <= 1 + 1e-12)):
            raise ValueError("operator entries must lie in [0, 1]")
        if not np.all(np.abs(matrix.sum(axis=1) - 1.0) <= 1e-9):
            raise ValueError("operator rows must sum to 1")

    def to_csv(self) -> str:
        return render_confusion_csv(self.regions, self.matrix, self.provenance)

    @classmethod
    def from_csv(cls, path: Path | str) -> "CorrectionOperator":
        regions, matrix, provenance = parse_confusion_csv(read_text(path), source=str(path))
        try:
            return cls(regions, matrix, provenance)
        except ValueError as exc:
            raise InputFormatError(f"{path}: {exc}") from None


def correction_operator(
    counts: ConfusionCounts, provenance: Mapping[str, object] | None = None
) -> CorrectionOperator:
    """Row-normalize the (possibly reweighted) confusion counts."""
    row_sums = counts.row_sums
    empty = [counts.regions[i] for i in np.nonzero(row_sums == 0)[0]]
    if empty:
        raise ValueError(f"zero row sum for guessed region(s): {', '.join(empty)}")
    matrix = counts.matrix / row_sums[:, None]
    return CorrectionOperator(counts.regions, matrix, dict(provenance or {}))


def correct_counts(guessed: Sequence[float], operator: CorrectionOperator) -> np.ndarray:
    """corrected[j] = sum_i guessed[i] * P(actual=j | guessed=i).

    Linear in the input and mass preserving: the corrected vector totals the
    same as the guessed one (rows of the operator sum to 1).
    """
    g = np.asarray(list(guessed), dtype=float)
    if g.shape != (len(operator.regions),):
        raise ValueError(
            f"guessed counts have length {g.shape}, expected {len(operator.regions)}"
        )
    if np.any(g < 0):
        raise ValueError("guessed counts must be nonnegative")
    return g @ operator.matrix
