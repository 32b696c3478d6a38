"""Data-driven country typology from n-gram profiles.

Countries are described by the frequency profile of n-grams over their core
names, clustered agglomeratively (Ward linkage on Euclidean distances via
the Lance-Williams recurrence), and a dendrogram cut plus an explicit,
auditable override list turns the tree into a small set of world regions
used to relabel the training data. Each region is named after its member
country with the most core names: the names come from the data, not
from a fixed list.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .classifier import Labeled
from .corpus import CoreSet
from .errors import InputFormatError, InvariantError
from .features import FeatureMatrix
from .util import fmt_float, read_text

log = logging.getLogger(__name__)

__all__ = [
    "Merge",
    "Dendrogram",
    "agglomerate",
    "CountryFeatureMatrix",
    "build_country_matrix",
    "ward_cluster",
    "Override",
    "load_overrides",
    "RegionTypology",
    "cut_dendrogram",
    "relabel",
]

DELETED_LABEL = "DELETED"


@dataclass(frozen=True)
class Merge:
    a: int
    b: int
    height: float
    new_id: int


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge tree. Leaves are 0..n-1, merge t creates node n+t."""

    leaves: tuple[str, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self) -> None:
        n = len(self.leaves)
        if n < 1:
            raise ValueError("dendrogram needs at least one leaf")
        if len(set(self.leaves)) != n:
            raise ValueError("duplicate leaf labels")
        if len(self.merges) != n - 1:
            raise ValueError(f"expected {n - 1} merges, got {len(self.merges)}")
        used: set[int] = set()
        prev = -np.inf
        for t, m in enumerate(self.merges):
            if m.new_id != n + t:
                raise InvariantError(f"merge {t}: new node id {m.new_id}, expected {n + t}")
            for node in (m.a, m.b):
                if not 0 <= node < m.new_id:
                    raise InvariantError(f"merge {t}: node {node} out of range")
                if node in used:
                    raise InvariantError(f"merge {t}: node {node} merged twice")
                used.add(node)
            if m.height < prev - 1e-9 * max(1.0, abs(prev)):
                raise InvariantError(
                    f"merge heights decrease: {prev!r} then {m.height!r}"
                )
            prev = m.height

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def clusters_at(self, k: int) -> list[frozenset[str]]:
        """The k groups left after undoing the k-1 highest merges.

        Heights are nondecreasing, so this applies the first n-k merges.
        Clusters are ordered by their lexicographically smallest member.
        """
        n = self.n_leaves
        if not 1 <= k <= n:
            raise ValueError(f"k must be in 1..{n}, got {k}")
        members: dict[int, set[int]] = {i: {i} for i in range(n)}
        for m in self.merges[: n - k]:
            merged = members.pop(m.a) | members.pop(m.b)
            members[m.new_id] = merged
        clusters = [frozenset(self.leaves[i] for i in group) for group in members.values()]
        return sorted(clusters, key=min)

    def leaf_order(self) -> list[str]:
        """Left-to-right leaf labels after a depth-first walk of the tree."""
        n = self.n_leaves
        if not self.merges:
            return list(self.leaves)
        children = {m.new_id: (m.a, m.b) for m in self.merges}
        order: list[str] = []
        stack = [self.merges[-1].new_id]
        while stack:
            node = stack.pop()
            if node < n:
                order.append(self.leaves[node])
            else:
                a, b = children[node]
                stack.append(b)
                stack.append(a)
        return order

    def to_tsv(self) -> str:
        lines = [f"# leaf\t{i}\t{label}\n" for i, label in enumerate(self.leaves)]
        lines += [
            f"{m.a}\t{m.b}\t{fmt_float(m.height)}\t{m.new_id}\n" for m in self.merges
        ]
        return "".join(lines)


def agglomerate(labels: Sequence[str], dist: np.ndarray, method: str = "ward") -> Dendrogram:
    """Sequential agglomerative clustering from a full distance matrix.

    Cluster distances are updated with the Lance-Williams recurrence:
    Ward combines squared distances weighted by cluster sizes, average
    linkage takes the size-weighted mean. At every step the minimal-distance
    pair wins, with exact ties broken by the smallest (a, b) node-id pair, so
    the merge tree is fully deterministic.
    """
    if method not in ("ward", "average"):
        raise ValueError(f"unknown linkage method {method!r}")
    n = len(labels)
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (n, n):
        raise ValueError(f"distance matrix shape {dist.shape} does not match {n} labels")
    if not np.all(np.isfinite(dist)):
        raise ValueError("non-finite distances")
    if n < 2:
        return Dendrogram(tuple(labels), ())

    # Upper-triangular distances indexed by node id (leaves 0..n-1, merge t
    # makes node n+t); the diagonal, the lower triangle and merged nodes hold
    # inf. A row-major argmin so finds the smallest (a, b) among exact ties.
    d = np.full((2 * n - 1, 2 * n - 1), np.inf)
    upper = np.triu_indices(n, 1)
    d[upper] = dist[upper]
    size = np.zeros(2 * n - 1, dtype=np.int64)
    size[:n] = 1

    merges: list[Merge] = []
    for step in range(n - 1):
        new_id = n + step
        a, b = divmod(int(np.argmin(d)), len(d))
        best_d = float(d[a, b])
        merges.append(Merge(a, b, best_d, new_id))
        na, nb = int(size[a]), int(size[b])
        size[a] = size[b] = 0
        others = np.flatnonzero(size[:new_id])
        nk = size[others]
        dak = d[np.minimum(others, a), np.maximum(others, a)]
        dbk = d[np.minimum(others, b), np.maximum(others, b)]
        # Elementwise in the scalar formula's order of operations, so the
        # heights equal those of a pair-by-pair update to the last bit.
        if method == "ward":
            d2 = ((na + nk) * dak * dak + (nb + nk) * dbk * dbk - nk * best_d * best_d) / (
                na + nb + nk
            )
            d[others, new_id] = np.sqrt(np.maximum(d2, 0.0))
        else:
            d[others, new_id] = (na * dak + nb * dbk) / (na + nb)
        d[[a, b], :] = np.inf
        d[:, [a, b]] = np.inf
        size[new_id] = na + nb
    return Dendrogram(tuple(labels), tuple(merges))


# Rows of the country matrix that ward_cluster densifies at a time. On the
# 180 x 17,919 matrix of a 12 x 15 x 100 synthetic typology, ward_cluster took
# 0.36 s at 3 rows, 0.34 s at 4 and 6 and 0.37 s at 8 (medians of 11 calls on
# 2 busy vCPUs; 0.61 s with every row subtracted, 8 rows at a time). Four
# rows over 17,919 n-grams take 0.57 MB a buffer.
WARD_BLOCK_ROWS = 4

# ward_cluster patches an earlier row into the block's squares when the row
# stores fewer than one in WARD_PATCH_RATIO of the vocabulary's n-grams, and
# subtracts it from the whole block otherwise. At 18,000 n-grams and 4 rows,
# a patch took 81 us against 137 us for a subtraction at 4% of the n-grams,
# 138 against 146 at 10%, 149 against 146 at 11% and 192 against 148 at 15%
# (medians of 15 x 50 calls).
WARD_PATCH_RATIO = 10

@dataclass(frozen=True, eq=False)
class CountryFeatureMatrix:
    """Row-normalized n-gram frequency profile per country, as sparse rows.

    Row i belongs to countries[i]; its entries indptr[i]:indptr[i + 1] hold
    column ids into `vocabulary` in increasing order and the share of that
    n-gram among the country's n-gram occurrences. No row is empty, and each
    sums to 1.
    """

    countries: tuple[str, ...]
    vocabulary: tuple[str, ...]
    indptr: np.ndarray  # int64, len(countries) + 1
    columns: np.ndarray  # int64
    values: np.ndarray  # float64

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        columns = np.asarray(self.columns, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "values", values)
        n = len(self.countries)
        if (
            indptr.shape != (n + 1,)
            or indptr[0] != 0
            or indptr[-1] != len(columns)
            or values.shape != columns.shape
        ):
            raise ValueError("row pointers inconsistent with the labels or the entries")
        lengths = np.diff(indptr)
        if np.any(lengths < 0):
            raise ValueError("row pointers decrease")
        if np.any(lengths == 0):
            bad = [self.countries[i] for i in np.flatnonzero(lengths == 0)]
            raise ValueError(f"empty rows: {bad}")
        if np.any(columns < 0) or np.any(columns >= len(self.vocabulary)):
            raise ValueError("column id out of range")
        row_start = np.zeros(len(columns), dtype=bool)
        row_start[indptr[:-1]] = True
        if np.any((np.diff(columns) <= 0) & ~row_start[1:]):
            raise ValueError("column ids not strictly increasing within a row")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite cell values")
        sums = np.add.reduceat(values, indptr[:-1])
        if np.any(np.abs(sums - 1.0) > 1e-9):
            bad = [self.countries[i] for i in np.flatnonzero(np.abs(sums - 1.0) > 1e-9)]
            raise InvariantError(f"rows do not sum to 1: {bad}")

    def dense_rows(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Rows start:stop written densely into `out`, a (stop - start) x V array."""
        out.fill(0.0)
        a, b = self.indptr[start], self.indptr[stop]
        owner = np.repeat(np.arange(stop - start), np.diff(self.indptr[start : stop + 1]))
        out[owner, self.columns[a:b]] = self.values[a:b]
        return out


def build_country_matrix(
    core: CoreSet, features: FeatureMatrix, min_core_names: int = 20
) -> CountryFeatureMatrix:
    """Country x n-gram frequency matrix over core names.

    Cell (c, g) is the share of token g among all n-gram occurrences of
    country c's core names. Countries contributing fewer than min_core_names
    names (or no tokens at all) are excluded; at least two must remain.
    Row i of `features` holds core name i.
    """
    if len(features.names) != len(core):
        raise ValueError("the feature matrix does not have one row per core name")
    order = np.argsort(core.country, kind="stable")
    sizes = np.bincount(core.country, minlength=len(core.countries))
    groups = zip(core.countries, np.split(order, np.cumsum(sizes)[:-1]))
    by_country = {country: rows for country, rows in groups if len(rows)}
    selected = {c: rows for c, rows in by_country.items() if len(rows) >= min_core_names}
    # Per kept country: the token ids it uses and their summed counts.
    kept: list[tuple[str, np.ndarray, np.ndarray]] = []
    seen = np.zeros(len(features.tokens), dtype=bool)
    for country, rows in selected.items():
        _, ids, counts = features.entries(rows)
        totals = np.bincount(ids, weights=counts, minlength=len(features.tokens))
        present = np.flatnonzero(totals)
        if not len(present):
            log.warning("country %s produced no n-gram tokens, excluded", country)
            continue
        kept.append((country, present, totals[present]))
        seen[present] = True
    used = np.flatnonzero(seen)

    indptr = np.zeros(len(kept) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(present) for _, present, _ in kept])
    log.info(
        "country-matrix: %d countries with core names, %d below min_core_names, "
        "%d without n-grams, %d kept, %d n-grams, %d non-zero cells",
        len(by_country),
        len(by_country) - len(selected),
        len(selected) - len(kept),
        len(kept),
        len(used),
        indptr[-1],
    )
    if len(kept) < 2:
        raise ValueError(
            f"need at least 2 countries with >= {min_core_names} core names, got {len(kept)}"
        )
    countries = tuple(country for country, _, _ in kept)
    vocabulary = tuple(features.tokens[j] for j in used)
    columns = np.empty(indptr[-1], dtype=np.int64)
    values = np.empty(indptr[-1])
    for i, (_, present, totals) in enumerate(kept):
        columns[indptr[i] : indptr[i + 1]] = np.searchsorted(used, present)
        # The totals are whole numbers, so their sum is exact in any order
        # and equals the sum of the dense row.
        values[indptr[i] : indptr[i + 1]] = totals / totals.sum()
    return CountryFeatureMatrix(countries, vocabulary, indptr, columns, values)


def ward_cluster(matrix: CountryFeatureMatrix) -> Dendrogram:
    """Ward-linkage dendrogram over the matrix rows (Euclidean geometry).

    Pairwise distances are computed WARD_BLOCK_ROWS rows at a time, so the
    work space is two block x vocabulary buffers and one vocabulary-long
    row, not a dense copy of the matrix.
    """
    if len(matrix.countries) < 2:
        raise ValueError("need at least 2 rows to cluster")
    return agglomerate(matrix.countries, _distance_blocks(matrix), method="ward")


def _distance_blocks(matrix: CountryFeatureMatrix) -> np.ndarray:
    """The n x n Euclidean distances between the matrix rows, from each
    block of WARD_BLOCK_ROWS rows to every earlier row."""
    n = len(matrix.countries)
    dist = np.zeros((n, n))
    width = len(matrix.vocabulary)
    indptr, columns, values = matrix.indptr, matrix.columns, matrix.values
    block = np.empty((WARD_BLOCK_ROWS, width))
    squares = np.empty((WARD_BLOCK_ROWS, width))
    row = np.zeros(width)
    flat_block, flat_squares = block.reshape(-1), squares.reshape(-1)
    row_start = np.arange(WARD_BLOCK_ROWS, dtype=np.int64)[:, None] * width
    patched = np.diff(indptr) * WARD_PATCH_RATIO < width
    # Rows lo:hi are densified once, and every earlier row i is compared with
    # the ones after it. A sparse row i is patched into the block's squares:
    # off its support (b - 0.0)^2 = b * b, so `squares` then holds the same
    # squared differences as a subtraction of the whole row, cell for cell.
    # A denser row is subtracted from the block into `squares`, which is
    # squared again before the next patch. Either way the differences fill a
    # C-contiguous slice: the row sums, and so the heights, depend on the layout.
    for lo in range(1, n, WARD_BLOCK_ROWS):
        hi = min(lo + WARD_BLOCK_ROWS, n)
        matrix.dense_rows(lo, hi, block[: hi - lo])
        squared = False
        for i in range(hi - 1):
            j = max(lo, i + 1)
            cols, vals = columns[indptr[i] : indptr[i + 1]], values[indptr[i] : indptr[i + 1]]
            rows = block[j - lo : hi - lo]
            diffs = squares[j - lo : hi - lo]
            if patched[i]:
                if not squared:
                    np.multiply(rows, rows, out=diffs)
                    squared = True
                cells = row_start[j - lo : hi - lo] + cols
                b = flat_block[cells]
                patch = b - vals
                patch *= patch
                flat_squares[cells] = patch
                d = np.sqrt(diffs.sum(axis=1))
                b *= b
                flat_squares[cells] = b
            else:
                row[cols] = vals
                np.subtract(rows, row, out=diffs)
                np.multiply(diffs, diffs, out=diffs)
                d = np.sqrt(diffs.sum(axis=1))
                row[cols] = 0.0
                squared = False
            dist[i, j:hi] = d
            dist[j:hi, i] = d
    return dist


@dataclass(frozen=True)
class Override:
    """One manual correction applied after the automatic cut."""

    action: str  # REASSIGN or DELETE
    country: str
    region: str | None = None


def load_overrides(path: Path | str) -> tuple[Override, ...]:
    """Parse REASSIGN<TAB>country<TAB>region / DELETE<TAB>country rows; the
    country and the region, which is named after a country, are upper-cased."""
    out: list[Override] = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.rstrip("\r\n").split("\t")
        action = fields[0].strip().upper()
        if action == "REASSIGN" and len(fields) == 3:
            out.append(Override("REASSIGN", fields[1].strip().upper(), fields[2].strip().upper()))
        elif action == "DELETE" and len(fields) == 2:
            out.append(Override("DELETE", fields[1].strip().upper()))
        else:
            raise InputFormatError(
                f"{path}: line {lineno}: expected REASSIGN<TAB>country<TAB>region"
                " or DELETE<TAB>country"
            )
    return tuple(out)


@dataclass(frozen=True)
class RegionTypology:
    """Country -> region assignment; None marks a deleted country."""

    regions: tuple[str, ...]
    assignment: Mapping[str, str | None]
    overrides: tuple[Override, ...] = ()

    def __post_init__(self) -> None:
        for country, region in self.assignment.items():
            if region is not None and region not in self.regions:
                raise ValueError(f"{country} assigned to unknown region {region!r}")

    def countries(self) -> list[str]:
        return sorted(self.assignment)

    def members(self, region: str) -> list[str]:
        return sorted(c for c, r in self.assignment.items() if r == region)

    def to_tsv(self) -> str:
        lines = []
        for o in self.overrides:
            if o.action == "REASSIGN":
                lines.append(f"# override\tREASSIGN\t{o.country}\t{o.region}\n")
            else:
                lines.append(f"# override\tDELETE\t{o.country}\n")
        for country in self.countries():
            region = self.assignment[country]
            lines.append(f"{country}\t{region if region is not None else DELETED_LABEL}\n")
        return "".join(lines)


def cut_dendrogram(
    dendrogram: Dendrogram,
    k: int,
    overrides: Sequence[Override] = (),
    leaf_weights: Mapping[str, float] | None = None,
) -> RegionTypology:
    """Region typology from the k-cluster cut plus manual overrides.

    The baseline removes the k-1 highest merges. Each cluster, at every k,
    is named after its member country of the largest leaf weight (the most
    core names), a tie going to the smallest country code; a country
    absent from `leaf_weights` weighs 0. Overrides then apply in file
    order and are recorded for provenance.
    """
    clusters = dendrogram.clusters_at(k)
    weights = leaf_weights or {}
    labels = [max(sorted(cluster), key=lambda c: weights.get(c, 0.0)) for cluster in clusters]

    assignment: dict[str, str | None] = {}
    for label, cluster in zip(labels, clusters):
        for country in cluster:
            assignment[country] = label

    for o in overrides:
        if o.country not in assignment:
            raise ValueError(f"override names unknown country {o.country!r}")
        if o.action == "REASSIGN":
            if o.region not in labels:
                raise ValueError(f"override names unknown region {o.region!r}")
            assignment[o.country] = o.region
        elif o.action == "DELETE":
            assignment[o.country] = None
        else:
            raise ValueError(f"unknown override action {o.action!r}")

    return RegionTypology(tuple(labels), assignment, tuple(overrides))


def relabel(
    core: CoreSet, typology: RegionTypology, rows: np.ndarray
) -> tuple[Labeled, dict[str, int]]:
    """The core names in the given rows labeled with their country's region.

    Names of deleted countries are dropped. Every country of the rows must
    be covered by the typology; offenders are reported together. Also
    returns the per-region name counts.
    """
    rows = np.asarray(rows, dtype=np.int64)
    present = np.bincount(core.country[rows], minlength=len(core.countries)) > 0
    missing = [c for c, p in zip(core.countries, present) if p and c not in typology.assignment]
    if missing:
        raise ValueError(f"countries not covered by typology: {', '.join(missing)}")
    regions = tuple(sorted(typology.regions))
    region_id = {region: g for g, region in enumerate(regions)}
    # Country id -> region id; -1 for a deleted or an uncovered country.
    lookup = [region_id.get(typology.assignment.get(c), -1) for c in core.countries]
    region = np.array(lookup, dtype=np.int64)[core.country[rows]]
    labeled = Labeled(rows[region >= 0], region[region >= 0], regions)
    sizes = np.bincount(labeled.region, minlength=len(regions)).tolist()
    return labeled, {region: sizes[region_id[region]] for region in typology.regions}
