"""Origin distributions, representativeness ratios and comparison reports.

A population of surnames is classified once into its guess tally, and the
tally corrected into the population's origin distribution; dividing a
target's proportions by a reference's gives a representativeness profile
(1 = parity). Profiles are grouped by Canberra distance with average linkage
so datasets that diverge in similar ways end up adjacent in reports.
Everything works at the group level; no per-name output is exposed.
`emit_report` renders the report's three files; nothing here writes one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .classifier import TrainedModel, classify_batch
from .correction import CorrectionOperator, correct_counts
from .typology import Dendrogram, agglomerate
from .util import dumps, fmt_float

log = logging.getLogger(__name__)

__all__ = [
    "OriginDistribution",
    "RepresentationProfile",
    "tally_guesses",
    "distribution",
    "representation_ratios",
    "canberra",
    "order_profiles",
    "emit_report",
]

LOW_COUNT_THRESHOLD = 5.0

# A population's guesses per region and its prior-only count.
Tally = tuple[np.ndarray, int]


@dataclass(frozen=True, eq=False)
class OriginDistribution:
    """Corrected origin composition of one dataset of surnames."""

    dataset_name: str
    regions: tuple[str, ...]
    counts: np.ndarray  # corrected, real-valued
    proportions: np.ndarray
    n_names: int
    n_prior_only: int


@dataclass(frozen=True, eq=False)
class RepresentationProfile:
    """Target / reference proportion ratio per region.

    Regions where the reference proportion is zero are NaN and listed in
    `undefined` rather than silently reported as 0. Regions whose corrected
    target count falls below a small-sample threshold are flagged
    low-confidence.
    """

    dataset_name: str
    regions: tuple[str, ...]
    ratios: np.ndarray
    undefined: tuple[str, ...] = ()
    low_confidence: tuple[str, ...] = ()


def tally_guesses(model: TrainedModel, surnames: Sequence[str]) -> Tally:
    """Raw per-region tally of classifier labels plus the prior-only count."""
    labels, prior_only, _ = classify_batch(model, surnames)
    counts = np.bincount(labels, minlength=len(model.regions)).astype(float)
    return counts, int(prior_only.sum())


def distribution(
    tally: Tally,
    operator: CorrectionOperator,
    dataset_name: str = "dataset",
) -> OriginDistribution:
    """Corrected origin distribution of a dataset from its `tally_guesses`.

    Every name gets one guess, so the guesses count the dataset's names.
    """
    guessed, prior_only = tally
    n_names = int(guessed.sum())
    if not n_names:
        raise ValueError("empty tally: no names guessed")
    corrected = correct_counts(guessed, operator)
    total = float(corrected.sum())
    return OriginDistribution(
        dataset_name=dataset_name,
        regions=operator.regions,
        counts=corrected,
        proportions=corrected / total,
        n_names=n_names,
        n_prior_only=prior_only,
    )


def representation_ratios(
    target: OriginDistribution, reference: OriginDistribution
) -> RepresentationProfile:
    """Per-region ratio target proportion / reference proportion."""
    if target.regions != reference.regions:
        raise ValueError("target and reference disagree on regions")
    ref = reference.proportions
    safe_ref = np.where(ref > 0, ref, 1.0)
    ratios = np.where(ref > 0, target.proportions / safe_ref, np.nan)
    undefined = tuple(r for r, p in zip(target.regions, ref) if p <= 0)
    low = tuple(
        r for r, c in zip(target.regions, target.counts) if c < LOW_COUNT_THRESHOLD
    )
    if low:
        log.warning(
            "dataset %s: corrected count below %g in %s; ratios there are unstable",
            target.dataset_name,
            LOW_COUNT_THRESHOLD,
            ", ".join(low),
        )
    return RepresentationProfile(target.dataset_name, target.regions, ratios, undefined, low)


def canberra(p: Sequence[float], q: Sequence[float]) -> float:
    """Canberra distance: sum of |p-q| / (p+q), 0/0 terms contributing 0."""
    a = np.asarray(list(p), dtype=float)
    b = np.asarray(list(q), dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("entries must be nonnegative")
    den = a + b
    safe = np.where(den > 0, den, 1.0)
    return float(np.where(den > 0, np.abs(a - b) / safe, 0.0).sum())


def _ratio_vectors(profiles: Sequence[RepresentationProfile]) -> tuple[np.ndarray, list[str]]:
    """Ratio matrix over the regions defined in every profile."""
    regions = profiles[0].regions
    stacked = np.vstack([p.ratios for p in profiles])
    defined = np.all(np.isfinite(stacked), axis=0)
    kept = [r for r, keep in zip(regions, defined) if keep]
    if not kept:
        raise ValueError("no region with defined ratios in every profile")
    return stacked[:, defined], kept


def _canberra_tree(labels: Sequence[str], vectors: np.ndarray) -> Dendrogram:
    """Average-linkage tree of `labels` on Canberra distances between the rows of `vectors`."""
    n = len(labels)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = canberra(vectors[i], vectors[j])
    return agglomerate(labels, dist, method="average")


def order_profiles(
    profiles: Sequence[RepresentationProfile],
) -> tuple[list[RepresentationProfile], Dendrogram | None]:
    """Profiles reordered by similarity; also returns the merge tree.

    Average-linkage agglomerative clustering on Canberra distances between
    ratio vectors (restricted to regions defined in every profile); the
    output order is the tree's left-to-right leaf order. Profiles are sorted
    by dataset name before clustering, so the result does not depend on the
    order they are passed in. Fewer than two profiles are returned unchanged.
    """
    if len(profiles) < 2:
        return list(profiles), None
    regions = profiles[0].regions
    names = [p.dataset_name for p in profiles]
    if len(set(names)) != len(names):
        raise ValueError("duplicate dataset names")
    for p in profiles:
        if p.regions != regions:
            raise ValueError("profiles disagree on regions")
    profiles = sorted(profiles, key=lambda p: p.dataset_name)
    names = [p.dataset_name for p in profiles]
    tree = _canberra_tree(names, _ratio_vectors(profiles)[0])
    by_name = {p.dataset_name: p for p in profiles}
    return [by_name[name] for name in tree.leaf_order()], tree


def _region_order(
    profiles: Sequence[RepresentationProfile],
) -> tuple[list[str], Dendrogram | None]:
    """Regions reordered by the similarity of their ratio columns."""
    profiles = sorted(profiles, key=lambda p: p.dataset_name)
    vectors, kept = _ratio_vectors(profiles)
    regions = profiles[0].regions
    missing = [r for r in regions if r not in kept]
    if len(kept) < 2:
        return list(regions), None
    tree = _canberra_tree(kept, vectors.T)
    return tree.leaf_order() + missing, tree


def _merge_list(tree: Dendrogram | None) -> list[dict]:
    if tree is None:
        return []
    return [
        {"a": m.a, "b": m.b, "height": float(m.height), "new_id": m.new_id}
        for m in tree.merges
    ]


def emit_report(
    profiles: Sequence[RepresentationProfile],
    distributions: Sequence[OriginDistribution],
    provenance: Mapping[str, object] | None = None,
) -> dict[str, tuple[str, str]]:
    """The texts of ratios.csv, distributions.csv and report.json.

    Ratio rows (datasets) and columns (regions) both follow clustered order;
    ratios are stored raw, any log-scale display is the plot consumer's
    concern. Returns each file's name and text keyed by artifact name.
    """
    if not profiles or not distributions:
        raise ValueError("nothing to report")
    regions = profiles[0].regions
    for item in (*profiles, *distributions):
        if item.regions != regions:
            raise ValueError("profiles and distributions disagree on regions")
    by_name = {d.dataset_name: d for d in distributions}
    missing = [p.dataset_name for p in profiles if p.dataset_name not in by_name]
    if missing:
        raise ValueError(f"profiles without distributions: {', '.join(missing)}")

    ordered, dataset_tree = order_profiles(profiles)
    region_order, region_tree = _region_order(profiles)
    columns = [regions.index(r) for r in region_order]

    ratio_lines = ["dataset," + ",".join(region_order)]
    dist_lines = [
        "dataset,n_names,n_prior_only,"
        + ",".join(f"count:{r}" for r in region_order)
        + ","
        + ",".join(f"share:{r}" for r in region_order)
    ]
    records = {}
    for p in ordered:
        d = by_name[p.dataset_name]
        ratios = [float(v) if np.isfinite(v) else None for v in p.ratios]
        cells = ["nan" if ratios[i] is None else fmt_float(ratios[i]) for i in columns]
        ratio_lines.append(p.dataset_name + "," + ",".join(cells))
        counts = ",".join(fmt_float(d.counts[i]) for i in columns)
        shares = ",".join(fmt_float(d.proportions[i]) for i in columns)
        dist_lines.append(f"{d.dataset_name},{d.n_names},{d.n_prior_only},{counts},{shares}")
        records[p.dataset_name] = {
            "n_names": d.n_names,
            "n_prior_only": d.n_prior_only,
            "counts": dict(zip(regions, map(float, d.counts))),
            "proportions": dict(zip(regions, map(float, d.proportions))),
            "ratios": dict(zip(regions, ratios)),
            "undefined": list(p.undefined),
            "low_confidence": list(p.low_confidence),
        }

    doc = {
        "distance": "canberra",
        "linkage": "average",
        "dataset_order": [p.dataset_name for p in ordered],
        "region_order": region_order,
        "dataset_tree": _merge_list(dataset_tree),
        "region_tree": _merge_list(region_tree),
        "datasets": records,
        "provenance": dict(provenance or {}),
    }

    return {
        "ratios": ("ratios.csv", "\n".join(ratio_lines) + "\n"),
        "distributions": ("distributions.csv", "\n".join(dist_lines) + "\n"),
        "report": ("report.json", dumps(doc)),
    }
