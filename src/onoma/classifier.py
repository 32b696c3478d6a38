"""Multinomial naive Bayes over surname n-grams.

Covers the stratified train/eval split, training with additive smoothing,
log-space scoring and confusion-matrix evaluation. Scores are computed in
log space throughout so long names cannot underflow, and every stochastic
step draws from a seed derived per region, making splits independent of
iteration order. A labeled set (`Labeled`) holds rows of a shared
`FeatureMatrix` and region ids, not names; splitting, training and
evaluation read n-gram counts from those rows. `classify_rows` is the one
scorer: `classify_batch` featurizes names for it, and `classify` is
`classify_batch` of one name.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import normalize_surname
from .errors import InputFormatError, SurnameError
from .features import FeatureMatrix, NGramConfig, build_vocabulary, featurize
from .util import (
    atomic_write, check_fields, derive_seed, dumps, intern, parse_json, pick, read_text, setting,
    tsv_lines,
)

__all__ = [
    "Labeled",
    "split",
    "train",
    "TrainedModel",
    "Classification",
    "classify",
    "classify_rows",
    "classify_batch",
    "EvalReport",
    "evaluate",
    "render_labeled_tsv",
]

MODEL_FORMAT_VERSION = 1
# Rows whose entries `train` counts, or `classify_rows` scores, together.
_ROW_CHUNK = 1024


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + math.log(float(np.exp(values - m).sum()))


def _token_columns(features: FeatureMatrix, vocab_index: Mapping[str, int]) -> np.ndarray:
    """Vocabulary column of each matrix token; -1 where out of vocabulary."""
    return np.fromiter(
        (vocab_index.get(token, -1) for token in features.tokens),
        dtype=np.int64,
        count=len(features.tokens),
    )


@dataclass(frozen=True, eq=False)
class Labeled:
    """Surnames with a region each: name i is row rows[i] of a `FeatureMatrix`
    of sorted names, so rows ascend as surnames do, and its region is
    regions[region[i]], `regions` sorted."""

    rows: np.ndarray  # int64
    region: np.ndarray  # int64
    regions: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", np.asarray(self.rows, np.int64))
        object.__setattr__(self, "region", np.asarray(self.region, np.int64))
        if self.rows.shape != self.region.shape or self.rows.ndim != 1:
            raise ValueError("rows and region ids differ in length")
        if list(self.regions) != sorted(set(self.regions)):
            raise ValueError("regions must be sorted and distinct")
        if len(self.region) and not 0 <= self.region.min() <= self.region.max() < len(self.regions):
            raise ValueError("region id out of range")

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, str]]) -> tuple[tuple[str, ...], "Labeled"]:
        """The pairs' sorted distinct surnames, and the pairs as rows among them."""
        names, rows = intern([surname for surname, _ in pairs])
        regions, region = intern([region for _, region in pairs])
        return names, cls(rows, region, regions)


def split(
    labeled: Labeled,
    train_fraction: float = 0.85,
    seed: int = 0,
) -> tuple[Labeled, Labeled]:
    """Stratified split: per region, ceil(fraction * n) names go to training.

    Within each region the ascending rows, so the sorted names, are shuffled
    by a generator seeded from (seed, region): the split is deterministic and
    unaffected by the input order or the order regions are processed in.
    Both parts come sorted by row, then region.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    order = np.lexsort((labeled.region, labeled.rows))
    rows, region, regions = labeled.rows[order], labeled.region[order], labeled.regions
    sizes = np.bincount(region, minlength=len(regions))
    small = [regions[g] for g in np.flatnonzero(sizes == 1)]
    if small:
        raise ValueError(f"regions with fewer than 2 names: {', '.join(small)}")
    to_train = np.zeros(len(rows), dtype=bool)
    for g in np.flatnonzero(sizes).tolist():
        # A region's positions ascend as its sorted names do, and
        # random.shuffle's draws depend only on the list's length.
        members = np.flatnonzero(region == g).tolist()
        random.Random(derive_seed(seed, f"split:{regions[g]}")).shuffle(members)
        to_train[members[: math.ceil(train_fraction * len(members))]] = True
    return (
        Labeled(rows[to_train], region[to_train], regions),
        Labeled(rows[~to_train], region[~to_train], regions),
    )


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Log priors and smoothed per-region token log likelihoods.

    Regions are sorted, so a first-maximum argmax over scores is already the
    lexicographic tie-break.
    """

    regions: tuple[str, ...] = setting(rule="distinct", ok=lambda v: len(set(v)) == len(v))
    vocabulary: tuple[str, ...] = setting(rule="distinct", ok=lambda v: len(set(v)) == len(v))
    log_priors: np.ndarray
    log_likelihoods: np.ndarray
    alpha: float = setting(rule="> 0 and finite", ok=lambda v: 0 < v < math.inf)
    feature_config: NGramConfig
    strip_diacritics: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        log_priors = np.asarray(self.log_priors, dtype=float)
        log_likelihoods = np.asarray(self.log_likelihoods, dtype=float)
        object.__setattr__(self, "log_priors", log_priors)
        object.__setattr__(self, "log_likelihoods", log_likelihoods)
        n_regions, n_tokens = len(self.regions), len(self.vocabulary)
        if log_priors.shape != (n_regions,):
            raise ValueError("log_priors shape mismatch")
        if log_likelihoods.shape != (n_regions, n_tokens):
            raise ValueError("log_likelihoods shape mismatch")
        # Written as what is accepted, so a NaN fails each check.
        if not abs(_logsumexp(log_priors)) <= 1e-9:
            raise ValueError("priors do not sum to 1")
        for i in range(n_regions):
            if not abs(_logsumexp(log_likelihoods[i])) <= 1e-9:
                raise ValueError(f"likelihoods for {self.regions[i]} do not sum to 1")
        object.__setattr__(
            self, "vocab_index", {token: j for j, token in enumerate(self.vocabulary)}
        )
        object.__setattr__(
            self, "region_index", {region: i for i, region in enumerate(self.regions)}
        )

    def to_json(self) -> str:
        doc = {
            "version": MODEL_FORMAT_VERSION,
            "regions": list(self.regions),
            "vocabulary": list(self.vocabulary),
            "log_priors": self.log_priors.tolist(),
            "log_likelihoods": list(self.log_likelihoods),  # arrays: distinct values once
            "alpha": self.alpha,
            "feature_config": {
                **self.feature_config.to_dict(),
                "strip_diacritics": self.strip_diacritics,
            },
        }
        return dumps(doc)

    def save(self, path: Path | str) -> Path:
        return atomic_write(path, self.to_json())

    @classmethod
    def load(cls, path: Path | str) -> "TrainedModel":
        doc = parse_json(read_text(path), path)
        if not isinstance(doc, dict) or doc.get("version") != MODEL_FORMAT_VERSION:
            raise InputFormatError(f"{path}: unsupported model file version")
        try:
            fc = dict(doc["feature_config"])
            strip = fc.pop("strip_diacritics", False)
            # One pass over every cell: a JSON number is an int or a float, not a bool.
            cells = chain(doc["log_priors"], *doc["log_likelihoods"])
            if not set(map(type, cells)) <= {int, float}:
                raise ValueError("log_priors and log_likelihoods must hold JSON numbers")
            named = ("regions", "vocabulary", "log_priors", "log_likelihoods", "alpha")
            return cls(**{key: doc[key] for key in named},
                       feature_config=NGramConfig.from_dict(fc), strip_diacritics=strip)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"{path}: malformed model file: {exc}") from None


def train(
    train_set: Labeled,
    features: FeatureMatrix,
    alpha: float = 0.1,
    *,
    min_df: int = 1,
    strip_diacritics: bool = False,
) -> TrainedModel:
    """Fit priors and smoothed token likelihoods from labeled rows of `features`.

    prior(r) is the share of names labeled r; likelihood(r, g) is
    (count of g in r + alpha) / (in-vocabulary tokens of r + alpha * |V|),
    which sums to 1 over the vocabulary by construction. The model's regions
    are those with training names, and it keeps the matrix's n-gram config.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not len(train_set):
        raise ValueError("empty training set")
    present = np.flatnonzero(np.bincount(train_set.region, minlength=len(train_set.regions)))
    regions = tuple(train_set.regions[g] for g in present)
    vocabulary = tuple(build_vocabulary(train_set.rows, features, min_df))
    columns = _token_columns(features, {token: j for j, token in enumerate(vocabulary)})

    # Row-major (region, column) cells. Token counts are whole numbers, so
    # their float sums are exact in any grouping below 2**53.
    slot = np.full(len(train_set.regions), -1, dtype=np.int64)
    slot[present] = np.arange(len(regions)) * len(vocabulary)
    token_counts = np.zeros(len(regions) * len(vocabulary))
    for lo in range(0, len(train_set), _ROW_CHUNK):
        owner, ids, counts = features.entries(train_set.rows[lo : lo + _ROW_CHUNK])
        cells = columns[ids]
        known = cells >= 0
        cells += slot[train_set.region[lo : lo + _ROW_CHUNK]][owner]
        token_counts += np.bincount(
            cells[known], weights=counts[known], minlength=len(token_counts)
        )
    token_counts = token_counts.reshape(len(regions), len(vocabulary))
    name_counts = np.bincount(train_set.region)[present].astype(float)

    totals = token_counts.sum(axis=1)
    likelihood = (token_counts + alpha) / (totals[:, None] + alpha * len(vocabulary))
    priors = name_counts / name_counts.sum()
    return TrainedModel(
        regions=regions,
        vocabulary=vocabulary,
        log_priors=np.log(priors),
        log_likelihoods=np.log(likelihood),
        alpha=alpha,
        feature_config=features.config,
        strip_diacritics=strip_diacritics,
    )


@dataclass(frozen=True, eq=False)
class Classification:
    """Per-region scores for one surname; label is the argmax region."""

    label: str
    regions: tuple[str, ...]
    scores: np.ndarray  # unnormalized log posterior
    posterior: np.ndarray
    prior_only: bool  # no surname n-gram was in the model vocabulary


def classify(model: TrainedModel, surname: str) -> Classification:
    """Score a surname against every region: `classify_batch` of one name.

    score(r) = log prior(r) + sum over in-vocabulary tokens of
    count * log likelihood(r, token). Out-of-vocabulary tokens are ignored
    (the model's event space is its training vocabulary); a name with no
    known token at all falls back to the priors and is flagged.
    """
    labels, prior_only, scores = classify_batch(model, [surname])
    scores = scores[0]
    shifted = np.exp(scores - scores.max())
    return Classification(
        label=model.regions[labels[0]],
        regions=model.regions,
        scores=scores,
        posterior=shifted / shifted.sum(),
        prior_only=bool(prior_only[0]),
    )


def classify_rows(
    model: TrainedModel, features: FeatureMatrix, rows: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score the given rows of `features`, which has the model's n-gram config.

    Returns each name's label as an index into model.regions (exact ties go
    to the lexicographically first region), its prior-only flag, and the
    (rows x regions) score matrix. The rows are scored _ROW_CHUNK at a time,
    and the in-vocabulary terms of a chunk's names are summed with one
    bincount per region.
    """
    if features.config != model.feature_config:
        raise ValueError("feature matrix was built with another n-gram config")
    rows = features.check_rows(rows)
    columns = _token_columns(features, model.vocab_index)  # type: ignore[attr-defined]
    scores = np.empty((len(model.regions), len(rows)))
    prior_only = np.empty(len(rows), dtype=bool)
    for lo in range(0, len(rows), _ROW_CHUNK):
        chunk = slice(lo, lo + _ROW_CHUNK)
        part = rows[chunk]
        n = len(part)
        owner, ids, counts = features.entries(part)
        cols = columns[ids]
        known = cols >= 0
        owner, cols, weights = owner[known], cols[known], counts[known].astype(float)
        for i in range(len(model.regions)):
            terms = weights * model.log_likelihoods[i, cols]
            scores[i, chunk] = model.log_priors[i] + np.bincount(owner, weights=terms, minlength=n)
        prior_only[chunk] = np.bincount(owner, minlength=n) == 0
    order = np.argsort(model.regions)
    return order[np.argmax(scores[order], axis=0)], prior_only, scores.T


def classify_batch(
    model: TrainedModel, surnames: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score many surnames at once, as `classify_rows` does, in input order.

    Each distinct normalized surname is featurized and scored once. A name
    empty after normalization or holding a boundary marker raises
    `SurnameError`.
    """
    normalized = [normalize_surname(surname, model.strip_diacritics) for surname in surnames]
    if not all(normalized):
        empty = surnames[normalized.index("")]
        raise SurnameError(f"surname {empty!r} is empty after normalization")
    distinct, back = intern(normalized)
    features = featurize(distinct, model.feature_config)
    labels, prior_only, scores = classify_rows(model, features, range(len(distinct)))
    return labels[back], prior_only[back], scores[back]


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Confusion counts (rows guessed, columns actual) with per-region metrics."""

    regions: tuple[str, ...]
    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    support: np.ndarray  # actual names per region (column sums)
    guessed: np.ndarray | None = None  # from `evaluate`: each row's guess, a region index

    @classmethod
    def from_confusion(cls, regions: Sequence[str], confusion: np.ndarray) -> "EvalReport":
        regions = tuple(regions)
        confusion = np.asarray(confusion)
        n = len(regions)
        if confusion.shape != (n, n):
            raise ValueError(f"confusion shape {confusion.shape}, expected {(n, n)}")
        if np.any(confusion < 0):
            raise ValueError("negative confusion counts")
        diag = np.diag(confusion).astype(float)
        row_sums = confusion.sum(axis=1).astype(float)
        col_sums = confusion.sum(axis=0).astype(float)
        precision = np.divide(diag, row_sums, out=np.zeros(n), where=row_sums > 0)
        recall = np.divide(diag, col_sums, out=np.zeros(n), where=col_sums > 0)
        return cls(regions, confusion, precision, recall, col_sums.astype(np.int64))

    @property
    def n_eval(self) -> int:
        return int(self.confusion.sum())

    @property
    def accuracy(self) -> float:
        total = self.confusion.sum()
        return float(np.diag(self.confusion).sum() / total) if total else 0.0

    def to_json(self) -> str:
        doc = {
            "regions": list(self.regions),
            "n_eval": self.n_eval,
            "accuracy": self.accuracy,
            "precision": {r: float(p) for r, p in zip(self.regions, self.precision)},
            "recall": {r: float(p) for r, p in zip(self.regions, self.recall)},
            "support": {r: int(s) for r, s in zip(self.regions, self.support)},
            "confusion": [[int(x) for x in row] for row in self.confusion],
        }
        return dumps(doc)


def evaluate(model: TrainedModel, eval_set: Labeled, features: FeatureMatrix) -> EvalReport:
    """Confusion matrix of guessed vs actual region over labeled rows of
    `features`; the report keeps each row's guess, in `eval_set.rows` order."""
    if not len(eval_set):
        raise ValueError("empty evaluation set")
    region_index = model.region_index  # type: ignore[attr-defined]
    to_model = np.array([region_index.get(r, -1) for r in eval_set.regions], dtype=np.int64)
    actual = to_model[eval_set.region]
    if (actual < 0).any():
        unknown = sorted({eval_set.regions[g] for g in eval_set.region[actual < 0].tolist()})
        raise ValueError(f"evaluation labels unknown to the model: {', '.join(unknown)}")
    guessed, _, _ = classify_rows(model, features, eval_set.rows)
    confusion = np.zeros((len(model.regions), len(model.regions)), dtype=np.int64)
    np.add.at(confusion, (guessed, actual), 1)
    return replace(EvalReport.from_confusion(model.regions, confusion), guessed=guessed)


def render_labeled_tsv(names: Sequence[str], labeled: Labeled) -> str:
    """One surname<TAB>region line per labeled row of a matrix of `names`."""
    return tsv_lines(pick(names, labeled.rows), pick(labeled.regions, labeled.region))
