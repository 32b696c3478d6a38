"""One-name and dense references the tests compare the library with.

The library works on columns and sparse rows and no longer calls these; they
moved here verbatim from it (`feature_row` and `dense` were the methods
`FeatureMatrix.row` and `CountryFeatureMatrix.rows`).
"""

import operator
from functools import reduce
from typing import Iterable

import numpy as np

from onoma.corpus import OccurrenceTable
from onoma.features import FeatureMatrix, FeatureVector
from onoma.typology import CountryFeatureMatrix


def _sum_left(values: Iterable[float]) -> float:
    """Left-to-right float sum: `sum()` before Python 3.12 (later ones compensate)."""
    return reduce(operator.add, values, 0.0)


def hhi(shares: Iterable[float]) -> float:
    """Herfindahl-Hirschman concentration: sum of squared shares.

    1.0 is full concentration in one entry; a uniform split over k entries
    gives exactly 1/k. The input must be a probability vector. Sums add
    left to right on every Python version.
    """
    values = [float(s) for s in shares]
    if any(s < 0 for s in values):
        raise ValueError("shares must be nonnegative")
    total = _sum_left(values)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"shares must sum to 1 (got {total!r})")
    return _sum_left(s * s for s in values)


def core_shares(
    table: OccurrenceTable, surname: str, *, basis: str = "frequency"
) -> dict[str, float]:
    """Per-country share vector for one surname, keyed by sorted country code.

    Shares are computed over per-country normalized frequencies by default,
    so heavily sampled countries do not dominate the concentration measure.
    `basis="count"` switches to raw counts. Weights add left to right.
    """
    per_country = table.countries_of(surname)
    if not per_country:
        raise ValueError(f"surname {surname!r} has no occurrences")
    if basis not in ("frequency", "count"):
        raise ValueError(f"unknown share basis {basis!r}")
    countries = sorted(per_country)
    if basis == "frequency":
        weights = [table.frequency(surname, c) for c in countries]
    else:
        weights = [float(per_country[c]) for c in countries]
    total = _sum_left(weights)
    return {c: w / total for c, w in zip(countries, weights)}


def feature_row(matrix: FeatureMatrix, i: int) -> FeatureVector:
    """Row i of a `FeatureMatrix` as a token -> count dict."""
    a, b = matrix.indptr[i], matrix.indptr[i + 1]
    return {matrix.tokens[j]: int(c) for j, c in zip(matrix.ids[a:b], matrix.counts[a:b])}


def dense(matrix: CountryFeatureMatrix) -> np.ndarray:
    """The dense countries x vocabulary array of a country matrix."""
    n = len(matrix.countries)
    return matrix.dense_rows(0, n, np.empty((n, len(matrix.vocabulary))))
