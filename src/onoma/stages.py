"""The method's settings and its chain, each written once.

Each setting is one `PipelineConfig` field, its JSON kind its annotation and
its default and range declared with `util.setting`. The chain follows the paper's two steps. Building is core names
(`corpus.filter_core_names`), then `build_typology` (a Ward typology of
countries and the relabeled core names), `fit` (the split and the n-gram
naive Bayes model) and `classifier.evaluate`. Applying, `apply`, is each
dataset's guess tally (`diversity.tally_guesses`), the correction operator
from the evaluation confusion and the reference's tally, then the corrected
distributions and representation ratios of the tallies; the correction sees
a dataset only through its tally. Core and labeled names are row positions
in a `FeatureMatrix` of the sorted core names. `run` calls the whole chain
and `apply` the second step; each hands every result to a sink: `cli`'s
writes the files of `pipeline` and `compare`, `synth.score_pipeline`'s keeps
what its scorecard needs. Nothing here reads a path, parses an argument,
writes a file or imports `synth` or `cli`. `build_typology`, `fit`, `apply`
and `run`'s evaluation raise the library's `ValueError`s (settings and data
the method cannot use) as `ConfigError`.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .classifier import Labeled, TrainedModel, evaluate, split, train
from .corpus import CoreSet, OccurrenceTable, filter_core_names
from .correction import ConfusionCounts, correction_operator, reweight_priors
from .diversity import distribution, representation_ratios, tally_guesses
from .errors import ConfigError
from .features import FeatureMatrix, NGramConfig, featurize
from .typology import (
    Dendrogram,
    Override,
    RegionTypology,
    build_country_matrix,
    cut_dendrogram,
    relabel,
    ward_cluster,
)
from .util import check_fields, setting

log = logging.getLogger(__name__)

__all__ = ["PipelineConfig", "feature_config", "build_typology", "fit",
           "check_dataset_names", "apply", "run"]


def feature_config(config: PipelineConfig) -> NGramConfig:
    """The n-gram settings of `config`."""
    return NGramConfig(n_values=config.n_values, pad_boundaries=config.pad_boundaries)


@dataclass
class PipelineConfig:
    """File-based configuration for the all-in-one pipeline command; each
    field declares a setting's default, JSON kind (its annotation) and range,
    and a value of another kind or out of range raises `ConfigError`.
    `run` reads no path: `corpus` may stay None for a caller that hands `run`
    its table, as `synth.score_pipeline` does, but `cli.read_config` needs it."""

    seed: int
    out_dir: Path
    corpus: Path | None = None
    registry: Path | None = None
    header: bool = False
    strict: bool = False
    strip_diacritics: bool = False
    hhi_min: float = setting(0.8, "in (0, 1]", lambda v: 0 < v <= 1)
    freq_min: float = setting(1e-6, ">= 0 and finite", lambda v: 0 <= v < math.inf)
    basis: str = setting("frequency", "frequency or count", lambda v: v in ("frequency", "count"))
    min_core_names: int = setting(20, ">= 1", lambda v: v >= 1)
    min_df: int = setting(1, ">= 1", lambda v: v >= 1)
    n_values: tuple[int, ...] = (2, 3)  # whatever NGramConfig accepts
    pad_boundaries: bool = True
    k_regions: int = setting(7, ">= 1", lambda v: v >= 1)
    overrides: Path | None = None
    alpha: float = setting(0.1, "> 0 and finite", lambda v: 0 < v < math.inf)
    train_fraction: float = setting(0.85, "in (0, 1)", lambda v: 0 < v < 1)
    reference: Path | None = None
    targets: tuple[Path, ...] = ()

    def __post_init__(self) -> None:
        check_fields(self)
        feature_config(self)
        if self.targets and self.reference is None:
            raise ConfigError("targets need a reference path")


@contextmanager
def _config_errors() -> Iterator[None]:
    """A `ValueError` from the block as a `ConfigError`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_typology(
    core: CoreSet,
    features: FeatureMatrix,
    min_core_names: int,
    k: int,
    overrides: Sequence[Override] = (),
) -> tuple[RegionTypology, Dendrogram, Labeled, dict[str, int]]:
    """Cluster the countries with enough core names and relabel the core names.

    Row i of `features` holds core name i. Returns the typology cut at k
    regions (at most one per clustered country), each region named after
    its country with the most core names (a tie to the smallest code), the
    dendrogram, the labeled core rows and the names per region. Core names
    of countries left out of the matrix are dropped with a warning.
    """
    with _config_errors():
        matrix = build_country_matrix(core, features, min_core_names)
    dendrogram = ward_cluster(matrix)
    k = min(k, len(matrix.countries))
    del matrix  # the stage's largest structure; only the tree is cut
    with _config_errors():
        sizes = np.bincount(core.country, minlength=len(core.countries)).tolist()
        typology = cut_dendrogram(dendrogram, k, overrides, dict(zip(core.countries, sizes)))
    in_typology = np.array([c in typology.assignment for c in core.countries], dtype=bool)
    covered = np.flatnonzero(in_typology[core.country])
    if len(covered) < len(core):
        log.warning("%d core names outside the typology dropped", len(core) - len(covered))
    labeled, region_counts = relabel(core, typology, covered)
    return typology, dendrogram, labeled, region_counts


def fit(
    labeled: Labeled,
    features: FeatureMatrix,
    *,
    seed: int,
    train_fraction: float,
    alpha: float,
    min_df: int,
    strip_diacritics: bool,
) -> tuple[TrainedModel, Labeled, Labeled]:
    """Split the labeled rows of `features` and train on the first part.

    Returns the model, the training set and the held-out evaluation set.
    """
    with _config_errors():
        train_set, eval_set = split(labeled, train_fraction, seed)
        model = train(
            train_set, features, alpha, min_df=min_df, strip_diacritics=strip_diacritics
        )
    return model, train_set, eval_set


def check_dataset_names(names: Sequence[str]) -> None:
    """Raise `ConfigError` unless the dataset names are distinct and each
    fits in one field of the report's CSV files: no comma, no line break."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ConfigError(f"duplicate dataset name {name!r}")
        if any(c in name for c in ",\r\n"):
            raise ConfigError(f"dataset name {name!r} holds a comma or a line break")
        seen.add(name)


def apply(
    model: TrainedModel,
    confusion: ConfusionCounts,
    datasets: Sequence[tuple[str, Sequence[str]]],
    sink: Callable[[str, Any], None],
    provenance: Mapping[str, object] | None = None,
) -> None:
    """Apply `model` to (name, surnames) datasets, the reference first, whose
    names must pass `check_dataset_names`, and hand each result to `sink`.

    Each dataset is classified once, into its tally. The operator is
    `confusion` with its columns rescaled to the reference's guess shares,
    which are added to `provenance`, then row-normalized; it corrects every
    tally. The results are "operator", then with datasets "tallies" ((name,
    tally) pairs) and "compare" (the distributions and their ratio
    profiles); with none, the evaluation column shares stand.
    """
    check_dataset_names([name for name, _ in datasets])
    log.info("stage: calibrate")
    # Each dataset is classified once; from here on only its tally is used.
    tallies = [(name, tally_guesses(model, surnames)) for name, surnames in datasets]
    provenance = dict(provenance or {})
    if tallies:
        guesses = tallies[0][1][0]
        if missing := [r for r, g in zip(confusion.regions, guesses) if g == 0]:
            raise ConfigError(
                f"reference population yields zero guesses for: {', '.join(missing)}"
            )
        priors = guesses / guesses.sum()
        confusion = reweight_priors(confusion, priors)
        provenance["priors"] = ",".join(f"{p:.6g}" for p in priors)
    with _config_errors():  # a guessed region with no names
        operator = correction_operator(confusion, provenance)
    sink("operator", operator)
    if tallies:
        log.info("stage: compare")
        sink("tallies", tallies)
        dists = [distribution(tally, operator, name) for name, tally in tallies]
        sink("compare", (dists, [representation_ratios(d, dists[0]) for d in dists]))


def run(
    config: PipelineConfig,
    table: OccurrenceTable,
    datasets: Sequence[tuple[str, Sequence[str]]],
    sink: Callable[[str, Any], None],
    *,
    overrides: Sequence[Override] = (),
    provenance: Mapping[str, object] | None = None,
) -> None:
    """Run the chain on `table` with `config`'s settings and hand each result
    to `sink(name, result)` as soon as it exists.

    `datasets` are (name, surnames) pairs, the reference first, that `apply`
    classifies with the trained model and compares, calibrating on the
    evaluation confusion with `provenance`. In order, the results are
    "core", "typology", "dendrogram", "labeled" and "eval_set" (pairs of the
    core names and a `Labeled`), "model", "eval_report" (with each row's
    guess), `apply`'s "operator", "tallies" and "compare", and last a
    "summary" dict of counts. The table is dropped after the filter, and the
    core names and their n-grams before "model", so a sink that keeps
    neither lets them go.
    """
    log.info("stage: filter-core")
    core = filter_core_names(table, config.hhi_min, config.freq_min, basis=config.basis)
    sink("core", core)
    n_records, n_surnames = len(table), table.n_surnames
    # The run's largest structure; `featurize` reuses its heap. At 1M names
    # `onoma pipeline` peaks at 327 MiB, or 392 MiB if its caller keeps the table.
    del table
    # Every core name's n-grams, extracted once for the country matrix,
    # training and evaluation; row i is core name i.
    core_features = featurize(core.names, feature_config(config))

    log.info("stage: typology")
    typology, dendrogram, labeled, region_counts = build_typology(
        core, core_features, config.min_core_names, config.k_regions, overrides
    )
    sink("typology", typology)
    sink("dendrogram", dendrogram)
    sink("labeled", (core.names, labeled))

    log.info("stage: train")
    model, train_set, eval_set = fit(
        labeled, core_features, seed=config.seed, train_fraction=config.train_fraction,
        alpha=config.alpha, min_df=config.min_df, strip_diacritics=config.strip_diacritics,
    )

    log.info("stage: evaluate")
    with _config_errors():  # too few names for the settings
        report = evaluate(model, eval_set, core_features)
        confusion = ConfusionCounts(report.regions, report.confusion.astype(float))
    sink("eval_set", (core.names, eval_set))
    n_core_names = len(core)
    # Released before the model is serialized, the run's peak of memory.
    del core, core_features
    sink("model", model)
    sink("eval_report", report)

    apply(model, confusion, datasets, sink, provenance)

    sink("summary", {
        "seed": config.seed,
        "n_records": n_records,
        "n_surnames": n_surnames,
        "n_core_names": n_core_names,
        "regions": {r: region_counts[r] for r in typology.regions},
        "n_train": len(train_set),
        "n_eval": len(eval_set),
        "accuracy": report.accuracy,
    })
