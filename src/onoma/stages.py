"""The method's stages as pure functions: objects in, objects out.

The chain is core names (`corpus.filter_core_names`), then `build_typology`
(a Ward typology of countries and the relabeled core names), `fit` (the
split and the n-gram naive Bayes model), `calibrate` (the correction
operator from the evaluation confusion) and `compare` (corrected
distributions and representation ratios). Core and labeled names are row
positions in a `FeatureMatrix` of the sorted core names. The stage commands,
`cli.run_pipeline` and `synth.score_pipeline` are sequences of calls to
these functions; none of them reads a path, parses an argument or writes a
file. `build_typology` and `fit` raise the library's `ValueError`s, which
come from settings such as k or the train fraction, as `ConfigError`.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence

import numpy as np

from .classifier import Labeled, TrainedModel, split, train
from .corpus import CoreSet
from .correction import ConfusionCounts, CorrectionOperator, correction_operator, reweight_priors
from .diversity import (
    OriginDistribution,
    RepresentationProfile,
    distribution,
    representation_ratios,
    tally_guesses,
)
from .errors import ConfigError, SurnameError
from .features import FeatureMatrix
from .typology import (
    Dendrogram,
    Override,
    RegionTypology,
    build_country_matrix,
    cut_dendrogram,
    relabel,
    ward_cluster,
)

log = logging.getLogger(__name__)

__all__ = ["build_typology", "fit", "calibrate", "compare", "check_dataset_names"]

# A population's per-region guess counts and its prior-only count.
Tally = tuple[np.ndarray, int]


@contextmanager
def _config_errors() -> Iterator[None]:
    """A `ValueError` from the block as a `ConfigError`; a bad surname stays one."""
    try:
        yield
    except SurnameError:
        raise
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
    its country with the most core names unless k is 7, the dendrogram, the
    labeled core rows and the names per region. Core names of countries
    left out of the matrix are dropped with a warning.
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


def calibrate(
    confusion: ConfusionCounts,
    model: TrainedModel | None,
    reference_names: Sequence[str] | None,
    provenance: Mapping[str, object],
    *,
    priors: Sequence[float] | None = None,
) -> tuple[CorrectionOperator, Tally | None]:
    """The correction operator, with the confusion reweighted to a population.

    With `reference_names`, the columns are rescaled to the model's guess
    shares on that population, and its tally is returned as well so it need
    not be classified again. Otherwise explicit `priors` are used, and with
    neither the evaluation column shares stand. The priors used are added
    to the operator's `provenance`.
    """
    provenance = dict(provenance)
    tally = None
    if reference_names is not None:
        if model.regions != confusion.regions:
            raise ConfigError("model regions do not match the confusion matrix")
        tally = tally_guesses(model, reference_names)
        guessed = tally[0]
        if np.any(guessed == 0):
            missing = [r for r, g in zip(model.regions, guessed) if g == 0]
            raise ConfigError(
                f"reference population yields zero guesses for: {', '.join(missing)}"
            )
        priors = guessed / guessed.sum()
    if priors is not None:
        confusion = reweight_priors(confusion, priors)
        provenance["priors"] = ",".join(f"{p:.6g}" for p in priors)
    return correction_operator(confusion, provenance), tally


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


def compare(
    datasets: Sequence[tuple[str, Sequence[str], Tally | None]],
    model: TrainedModel,
    operator: CorrectionOperator,
) -> tuple[list[OriginDistribution], list[RepresentationProfile]]:
    """Corrected distributions of (name, surnames, tally) datasets and their ratios.

    The first dataset is the reference every ratio divides by. A tally of
    None is counted here. The names must pass `check_dataset_names`.
    """
    check_dataset_names([name for name, _, _ in datasets])
    dists = [
        distribution(surnames, model, operator, name, tally=tally)
        for name, surnames, tally in datasets
    ]
    return dists, [representation_ratios(d, dists[0]) for d in dists]
