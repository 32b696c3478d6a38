"""Character n-gram decomposition of normalized surnames.

A surname is described by the multiset of its contiguous character n-grams,
optionally padded with boundary markers so that prefixes and suffixes become
distinct features. Multi-word surnames are decomposed word by word: compound
particles carry origin signal and should not blur across word boundaries.

Stages that read many names share one `featurize` pass: each distinct name
is decomposed once into a sparse row of a `FeatureMatrix`, and the country
matrix, training, evaluation and population tallies all read those rows.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

FeatureVector = dict[str, int]

__all__ = [
    "NGramConfig",
    "FeatureVector",
    "extract",
    "FeatureMatrix",
    "featurize",
    "build_vocabulary",
    "write_vocabulary",
    "read_vocabulary",
]


@dataclass(frozen=True)
class NGramConfig:
    """Which n-gram sizes to emit and how word boundaries are marked."""

    n_values: tuple[int, ...] = (2, 3)
    pad_boundaries: bool = True
    start_marker: str = "^"
    end_marker: str = "$"

    def __post_init__(self) -> None:
        values = tuple(sorted({int(n) for n in self.n_values}))
        if not values:
            raise ValueError("n_values must be non-empty")
        if values[0] < 1 or values[-1] > 8:
            raise ValueError(f"each n must be in 1..8, got {values}")
        object.__setattr__(self, "n_values", values)
        for name in ("start_marker", "end_marker"):
            marker = getattr(self, name)
            if not isinstance(marker, str) or len(marker) != 1:
                raise ValueError(f"{name} must be a single character")
        if self.start_marker == self.end_marker:
            raise ValueError("start and end markers must differ")

    def to_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "pad_boundaries": self.pad_boundaries,
            "start_marker": self.start_marker,
            "end_marker": self.end_marker,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "NGramConfig":
        return cls(
            n_values=tuple(data["n_values"]),
            pad_boundaries=bool(data["pad_boundaries"]),
            start_marker=str(data["start_marker"]),
            end_marker=str(data["end_marker"]),
        )


def extract(surname: str, config: NGramConfig = NGramConfig()) -> FeatureVector:
    """Token -> occurrence count for every configured n-gram size.

    For each word of the (already normalized) surname, the padded string
    contributes every contiguous substring of length n with multiplicity;
    words shorter than n contribute nothing for that n. Pure function.
    """
    if not surname:
        raise ValueError("empty surname")
    for marker in (config.start_marker, config.end_marker):
        if marker in surname:
            raise ValueError(f"surname contains reserved marker {marker!r}")
    counts: FeatureVector = {}
    for word in surname.split(" "):
        if not word:
            continue
        padded = (
            config.start_marker + word + config.end_marker if config.pad_boundaries else word
        )
        for n in config.n_values:
            for i in range(len(padded) - n + 1):
                token = padded[i : i + n]
                counts[token] = counts.get(token, 0) + 1
    return counts


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """N-gram counts of distinct names in compressed sparse row layout.

    Row i belongs to names[i]; its entries indptr[i]:indptr[i + 1] hold token
    ids into the sorted `tokens` (each id at most once per row) and the
    token's occurrence count in that name.
    """

    names: tuple[str, ...]
    tokens: tuple[str, ...]
    indptr: np.ndarray  # int64, len(names) + 1
    ids: np.ndarray  # int32
    counts: np.ndarray  # int32
    config: NGramConfig

    def __post_init__(self) -> None:
        index = {name: i for i, name in enumerate(self.names)}
        if len(index) != len(self.names):
            raise ValueError("duplicate names in feature matrix")
        object.__setattr__(self, "index", index)

    def rows_of(self, names: Iterable[str]) -> np.ndarray:
        """Row index of each name, in order; KeyError for a name not featurized."""
        index = self.index  # type: ignore[attr-defined]
        return np.fromiter((index[name] for name in names), dtype=np.int64)

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries of the given rows (repeats allowed), row after row.

        Returns (position of the entry's row within `rows`, token id, count).
        """
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        owner = np.repeat(np.arange(len(rows), dtype=np.int32), lengths)
        positions = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        positions += np.arange(len(positions))
        return owner, self.ids[positions], self.counts[positions]

    def row(self, i: int) -> FeatureVector:
        a, b = self.indptr[i], self.indptr[i + 1]
        return {self.tokens[j]: int(c) for j, c in zip(self.ids[a:b], self.counts[a:b])}


def featurize(names: Sequence[str], config: NGramConfig = NGramConfig()) -> FeatureMatrix:
    """One `extract` pass over distinct names into a shared sparse matrix."""
    names = tuple(names)
    # A token seen for the first time gets the next id.
    token_ids: defaultdict[str, int] = defaultdict()
    token_ids.default_factory = token_ids.__len__
    ids = array("i")
    counts = array("i")
    indptr = np.zeros(len(names) + 1, dtype=np.int64)
    for i, name in enumerate(names):
        row = extract(name, config)
        ids.extend(map(token_ids.__getitem__, row))
        counts.extend(row.values())
        indptr[i + 1] = len(ids)
    tokens = tuple(sorted(token_ids))
    # Ids were handed out in first-seen order; renumber them in token order.
    rank = np.empty(len(tokens), dtype=np.int32)
    rank[[token_ids[token] for token in tokens]] = np.arange(len(tokens), dtype=np.int32)
    return FeatureMatrix(
        names=names,
        tokens=tokens,
        indptr=indptr,
        ids=rank[np.frombuffer(ids, dtype=np.int32)],
        counts=np.frombuffer(counts, dtype=np.int32),
        config=config,
    )


def build_vocabulary(
    corpus: Iterable[str],
    config: NGramConfig = NGramConfig(),
    min_df: int = 1,
    features: FeatureMatrix | None = None,
) -> list[str]:
    """Sorted list of tokens occurring in at least min_df distinct surnames.

    The surnames' rows are read from `features` when given (it must hold
    every surname), otherwise they are featurized here.
    """
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    distinct = list(dict.fromkeys(corpus))
    if not distinct:
        raise ValueError("empty corpus")
    if features is None:
        features = featurize(distinct, config)
    elif features.config != config:
        raise ValueError("feature matrix was built with another n-gram config")
    chosen = np.zeros(len(features.names), dtype=bool)
    chosen[features.rows_of(distinct)] = True
    ids = features.ids[np.repeat(chosen, np.diff(features.indptr))]
    df = np.bincount(ids, minlength=len(features.tokens))
    vocabulary = [features.tokens[j] for j in np.flatnonzero(df >= min_df)]
    if not vocabulary:
        raise ValueError("empty vocabulary: no token passes min_df")
    return vocabulary


def write_vocabulary(vocabulary: Iterable[str], path: Path | str) -> Path:
    """One token per line; line order defines the feature index."""
    from .util import atomic_write

    return atomic_write(path, "".join(f"{token}\n" for token in vocabulary))


def read_vocabulary(path: Path | str) -> list[str]:
    tokens = [
        line for line in Path(path).read_text(encoding="utf-8").splitlines() if line
    ]
    if not tokens:
        raise ValueError(f"{path}: empty vocabulary file")
    return tokens
