"""Country matrix, Ward clustering, dendrogram cuts and relabeling."""

import math
import random

import numpy as np
import pytest

from onoma.corpus import CoreName
from onoma.errors import InvariantError
from onoma.features import NGramConfig, extract, featurize
from onoma.typology import (
    DEFAULT_REGION_LABELS,
    CountryFeatureMatrix,
    Dendrogram,
    Merge,
    Override,
    RegionTypology,
    agglomerate,
    build_country_matrix,
    cut_dendrogram,
    load_overrides,
    relabel,
    ward_cluster,
)

UNPADDED2 = NGramConfig(n_values=(2,), pad_boundaries=False)


def names_for(country, surnames):
    return [CoreName(s, country, 1.0, 0.01) for s in surnames]


def ward_oracle(points):
    """Brute-force Ward: recompute the merge objective from raw coordinates.

    The cost of merging clusters A and B is sqrt(2 |A||B| / (|A|+|B|)) times
    the distance between their centroids; no incremental update is used.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    clusters = {i: [i] for i in range(n)}
    merges = []
    for step in range(n - 1):
        best = None
        ids = sorted(clusters)
        for pos, a in enumerate(ids):
            for b in ids[pos + 1 :]:
                pa, pb = points[clusters[a]], points[clusters[b]]
                mu_a, mu_b = pa.mean(axis=0), pb.mean(axis=0)
                na, nb = len(pa), len(pb)
                d = math.sqrt(2.0 * na * nb / (na + nb)) * float(
                    np.linalg.norm(mu_a - mu_b)
                )
                if best is None or d < best[0]:
                    best = (d, a, b)
        d, a, b = best
        new_id = n + step
        clusters[new_id] = clusters.pop(a) + clusters.pop(b)
        merges.append((a, b, d, new_id))
    return merges


def euclidean_matrix(points):
    points = np.asarray(points, dtype=float)
    n = len(points)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = float(np.linalg.norm(points[i] - points[j]))
    return dist


# ---------------------------------------------------------------- matrix


def test_matrix_needs_two_countries():
    with pytest.raises(ValueError, match="at least 2"):
        build_country_matrix(names_for("AA", ["ab"]), UNPADDED2, min_core_names=1)


def test_matrix_disjoint_tokens():
    core = names_for("AA", ["aa"]) + names_for("BB", ["bb"])
    matrix = build_country_matrix(core, UNPADDED2, min_core_names=1)
    assert matrix.countries == ("AA", "BB")
    assert matrix.vocabulary == ("aa", "bb")
    assert np.array_equal(matrix.rows, np.eye(2))


def test_matrix_row_normalization():
    # aaa -> aa:2, aab -> aa:1 ab:1, so counts aa:3 ab:1 -> row (0.75, 0.25)
    core = names_for("AA", ["aaa", "aab"]) + names_for("BB", ["bb"])
    matrix = build_country_matrix(core, UNPADDED2, min_core_names=1)
    row = matrix.rows[list(matrix.countries).index("AA")]
    by_token = dict(zip(matrix.vocabulary, row))
    assert by_token["aa"] == pytest.approx(0.75)
    assert by_token["ab"] == pytest.approx(0.25)


def test_matrix_min_core_names_filter():
    core = (
        names_for("AA", ["aa", "ab", "ba"])
        + names_for("BB", ["bb", "bc", "cb"])
        + names_for("CC", ["cc"])  # below the threshold
    )
    matrix = build_country_matrix(core, UNPADDED2, min_core_names=2)
    assert matrix.countries == ("AA", "BB")


def reference_country_matrix(core, config, min_core_names):
    """Per-name construction: one extract call per core name, dict sums."""
    by_country = {}
    for name in core:
        by_country.setdefault(name.assigned_country, []).append(name.surname)
    counters = {}
    for country, names in sorted(by_country.items()):
        if len(names) < min_core_names:
            continue
        counts = {}
        for surname in names:
            for token, c in extract(surname, config).items():
                counts[token] = counts.get(token, 0) + c
        counters[country] = counts
    countries = sorted(counters)
    vocabulary = sorted(set().union(*counters.values()))
    rows = np.zeros((len(countries), len(vocabulary)))
    for i, country in enumerate(countries):
        for token, c in counters[country].items():
            rows[i, vocabulary.index(token)] = c
        rows[i] /= rows[i].sum()
    return tuple(countries), tuple(vocabulary), rows


def test_matrix_equals_per_name_reference():
    rng = random.Random(21)
    config = NGramConfig()
    core = []
    seen = set()
    for country, letters, n in (("AA", "abc", 40), ("BB", "cde", 35), ("CC", "aeiou", 30),
                                ("DD", "xyz", 4)):
        while sum(1 for c in core if c.assigned_country == country) < n:
            surname = " ".join("".join(rng.choice(letters) for _ in range(rng.randint(2, 8)))
                               for _ in range(rng.randint(1, 2)))
            if surname not in seen:
                seen.add(surname)
                core += names_for(country, [surname])
    countries, vocabulary, rows = reference_country_matrix(core, config, 10)
    shared = featurize([c.surname for c in core], config)
    for matrix in (build_country_matrix(core, config, 10),
                   build_country_matrix(core, config, 10, shared)):
        assert matrix.countries == countries == ("AA", "BB", "CC")
        assert matrix.vocabulary == vocabulary
        assert not any("x" in token for token in matrix.vocabulary)  # DD is below the bar
        assert np.array_equal(matrix.rows, rows)
        assert matrix.rows.flags.c_contiguous


# ---------------------------------------------------------------- clustering


def test_ward_two_rows_merges_at_euclidean_distance():
    core = names_for("AA", ["aa"]) + names_for("BB", ["bb"])
    matrix = build_country_matrix(core, UNPADDED2, min_core_names=1)
    dendrogram = ward_cluster(matrix)
    assert len(dendrogram.merges) == 1
    merge = dendrogram.merges[0]
    assert (merge.a, merge.b, merge.new_id) == (0, 1, 2)
    assert merge.height == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_ward_three_collinear_points():
    points = [[0.0], [1.0], [10.0]]
    dendrogram = agglomerate(["a", "b", "c"], euclidean_matrix(points), "ward")
    first, second = dendrogram.merges
    assert (first.a, first.b, first.height) == (0, 1, 1.0)
    # Merging {0,1} (centroid 0.5) with {10}: sqrt(2*2*1/3) * 9.5 = sqrt(361/3)
    assert second.height == pytest.approx(math.sqrt(361.0 / 3.0), abs=1e-12)


def test_ward_matches_brute_force_oracle():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(2, 10)
        dims = rng.randint(1, 4)
        points = [[rng.gauss(0, 1) for _ in range(dims)] for _ in range(n)]
        got = agglomerate([f"p{i}" for i in range(n)], euclidean_matrix(points), "ward")
        expected = ward_oracle(points)
        for merge, (a, b, height, new_id) in zip(got.merges, expected):
            assert (merge.a, merge.b, merge.new_id) == (a, b, new_id)
            assert merge.height == pytest.approx(height, abs=1e-9)


def test_ward_heights_nondecreasing():
    rng = random.Random(22)
    for _ in range(10):
        points = [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(rng.randint(2, 12))]
        dendrogram = agglomerate(
            [f"p{i}" for i in range(len(points))], euclidean_matrix(points), "ward"
        )
        heights = [m.height for m in dendrogram.merges]
        assert all(heights[i] <= heights[i + 1] + 1e-12 for i in range(len(heights) - 1))


def agglomerate_reference(labels, dist, method="ward"):
    """The dict-based agglomeration loop, kept verbatim as the oracle."""
    n = len(labels)
    active: dict[int, int] = {i: 1 for i in range(n)}
    d: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            d[(i, j)] = float(dist[i, j])

    merges: list[Merge] = []
    for step in range(n - 1):
        ids = sorted(active)
        best_d = np.inf
        best_pair = (-1, -1)
        for ai, a in enumerate(ids):
            for b in ids[ai + 1 :]:
                dv = d[(a, b)]
                if dv < best_d:
                    best_d = dv
                    best_pair = (a, b)
        a, b = best_pair
        new_id = n + step
        merges.append(Merge(a, b, best_d, new_id))
        na = active.pop(a)
        nb = active.pop(b)
        del d[(a, b)]
        for k, nk in active.items():
            dak = d.pop((min(a, k), max(a, k)))
            dbk = d.pop((min(b, k), max(b, k)))
            if method == "ward":
                d2 = (
                    (na + nk) * dak * dak + (nb + nk) * dbk * dbk - nk * best_d * best_d
                ) / (na + nb + nk)
                d[(k, new_id)] = float(np.sqrt(max(d2, 0.0)))
            else:
                d[(k, new_id)] = (na * dak + nb * dbk) / (na + nb)
        active[new_id] = na + nb
    return merges


def oracle_matrices():
    """Distance matrices of 2 to 60 leaves, many of them full of exact ties."""
    rng = np.random.default_rng(31)
    for case in range(36):
        n = int(rng.integers(2, 61))
        kind = case % 4
        if kind == 0:  # generic Euclidean points
            points = rng.normal(size=(n, int(rng.integers(1, 6))))
        elif kind == 1:  # repeated points: zero distances and tied merges
            base = rng.normal(size=(max(1, n // 3), 3))
            points = base[rng.integers(0, len(base), size=n)]
        elif kind == 2:  # integer grid: many equal distances
            points = rng.integers(0, 3, size=(n, 2)).astype(float)
        else:  # integer dissimilarities, not Euclidean
            upper = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
            yield upper + upper.T
            continue
        diffs = points[:, None, :] - points[None, :, :]
        yield np.sqrt((diffs * diffs).sum(axis=2))


@pytest.mark.parametrize("method", ["ward", "average"])
def test_agglomerate_matches_dict_reference(method):
    for dist in oracle_matrices():
        labels = [f"p{i}" for i in range(len(dist))]
        got = agglomerate(labels, dist, method).merges
        assert list(got) == agglomerate_reference(labels, dist, method)


def test_ward_cluster_distances_match_per_row_temporaries():
    # Reference distances from fresh (n-i) x V temporaries, as before the
    # buffer: the dendrogram must match to the last bit.
    rng = np.random.default_rng(8)
    for n, width in ((2, 5), (17, 40), (45, 300)):
        rows = rng.random((n, width))
        rows /= rows.sum(axis=1, keepdims=True)
        matrix = CountryFeatureMatrix(
            tuple(f"C{i:02d}" for i in range(n)), tuple(f"t{j}" for j in range(width)), rows
        )
        dist = np.zeros((n, n))
        for i in range(n - 1):
            diffs = rows[i + 1 :] - rows[i]
            dist[i, i + 1 :] = dist[i + 1 :, i] = np.sqrt((diffs * diffs).sum(axis=1))
        assert ward_cluster(matrix).merges == agglomerate(matrix.countries, dist).merges


def test_agglomerate_validation():
    with pytest.raises(ValueError, match="linkage"):
        agglomerate(["a", "b"], np.zeros((2, 2)), "single")
    with pytest.raises(ValueError, match="shape"):
        agglomerate(["a", "b", "c"], np.zeros((2, 2)), "ward")
    assert agglomerate(["a"], np.zeros((1, 1)), "average").merges == ()


def test_ward_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        agglomerate(["a", "b"], np.array([[0.0, np.nan], [np.nan, 0.0]]), "ward")


def test_dendrogram_validation():
    with pytest.raises(InvariantError, match="decrease"):
        Dendrogram(("a", "b", "c"), (Merge(0, 1, 5.0, 3), Merge(2, 3, 1.0, 4)))
    with pytest.raises(InvariantError, match="twice"):
        Dendrogram(("a", "b", "c"), (Merge(0, 1, 1.0, 3), Merge(1, 3, 2.0, 4)))


def test_dendrogram_tsv_round_trip():
    points = [[0.0], [1.0], [10.0], [11.0]]
    dendrogram = agglomerate(["w", "x", "y", "z"], euclidean_matrix(points), "ward")
    again = Dendrogram.from_tsv(dendrogram.to_tsv())
    assert again.leaves == dendrogram.leaves
    assert again.merges == dendrogram.merges


def test_leaf_order_groups_tight_pairs():
    points = [[0.0], [100.0], [1.0], [101.0]]
    dendrogram = agglomerate(["a", "far1", "b", "far2"], euclidean_matrix(points), "ward")
    order = dendrogram.leaf_order()
    assert set(order[:2]) in ({"a", "b"}, {"far1", "far2"})
    assert set(order[2:]) in ({"a", "b"}, {"far1", "far2"})


# ---------------------------------------------------------------- cuts


def cluster_line_dendrogram(groups):
    """Tight clusters far apart on a line, one per group of labels."""
    labels = []
    points = []
    for g, group in enumerate(groups):
        for i, label in enumerate(group):
            labels.append(label)
            points.append([100.0 * g + 0.1 * i])
    return agglomerate(labels, euclidean_matrix(points), "ward")


def test_cut_degenerate_k():
    dendrogram = cluster_line_dendrogram([["AA"], ["BB"], ["CC"]])
    singletons = cut_dendrogram(dendrogram, 3)
    assert all(
        singletons.assignment[c] == c for c in ("AA", "BB", "CC")
    )  # own label each
    one = cut_dendrogram(dendrogram, 1)
    assert len({one.assignment[c] for c in ("AA", "BB", "CC")}) == 1


def test_cut_produces_k_nonempty_groups():
    rng = random.Random(30)
    points = [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(9)]
    labels = [f"C{i}" for i in range(9)]
    dendrogram = agglomerate(labels, euclidean_matrix(points), "ward")
    for k in range(1, 10):
        clusters = dendrogram.clusters_at(k)
        assert len(clusters) == k
        assert all(clusters)
        assert sorted(c for group in clusters for c in group) == sorted(labels)


def test_cut_seven_uses_default_labels_and_overrides():
    groups = [
        ["ET", "NG"],
        ["DZ", "EG"],
        ["JP", "PH", "ID", "CN"],
        ["FR", "IT"],
        ["IN", "PK"],
        ["DE", "SE"],
        ["PL", "RU", "PG", "MG", "JM", "TD", "AM"],
    ]
    dendrogram = cluster_line_dendrogram(groups)
    overrides = (
        Override("REASSIGN", "PH", "Asian"),
        Override("REASSIGN", "JP", "Asian"),
        Override("REASSIGN", "ID", "Asian"),
        Override("REASSIGN", "ET", "African"),
        Override("DELETE", "PG"),
        Override("DELETE", "MG"),
        Override("DELETE", "JM"),
        Override("DELETE", "TD"),
        Override("DELETE", "AM"),
    )
    typology = cut_dendrogram(dendrogram, 7, overrides)
    assert typology.regions == DEFAULT_REGION_LABELS
    # Baseline labels: clusters ordered by smallest member (AM.., CN.., DE..,
    # DZ.., ET.., FR.., IN..) get the seven labels alphabetically.
    assert typology.assignment["RU"] == "African"
    assert typology.assignment["CN"] == "Arabian"
    assert typology.assignment["SE"] == "Asian"
    assert typology.assignment["EG"] == "CS-European"
    assert typology.assignment["NG"] == "Indian"
    assert typology.assignment["IT"] == "N-European"
    assert typology.assignment["PK"] == "Slavic"
    # Explicit reassignments land on the named regions.
    for country in ("PH", "JP", "ID"):
        assert typology.assignment[country] == "Asian"
    assert typology.assignment["ET"] == "African"
    for deleted in ("PG", "MG", "JM", "TD", "AM"):
        assert typology.assignment[deleted] is None
    assert typology.overrides == overrides


def test_cut_override_validation():
    dendrogram = cluster_line_dendrogram([["AA"], ["BB"]])
    with pytest.raises(ValueError, match="unknown country"):
        cut_dendrogram(dendrogram, 2, (Override("DELETE", "ZZ"),))
    with pytest.raises(ValueError, match="unknown region"):
        cut_dendrogram(dendrogram, 2, (Override("REASSIGN", "AA", "Nowhere"),))


def test_cut_auto_labels_by_weight():
    dendrogram = cluster_line_dendrogram([["AA", "AB"], ["BA", "BB"]])
    typology = cut_dendrogram(dendrogram, 2, leaf_weights={"AB": 10.0, "AA": 1.0})
    assert typology.assignment["AA"] == "AB"
    typology = cut_dendrogram(dendrogram, 2)  # falls back to first member
    assert typology.assignment["AB"] == "AA"


def test_load_overrides(tmp_path):
    path = tmp_path / "overrides.tsv"
    path.write_text("REASSIGN\tPH\tAsian\nDELETE\tPG\n", encoding="utf-8")
    assert load_overrides(path) == (
        Override("REASSIGN", "PH", "Asian"),
        Override("DELETE", "PG"),
    )


def test_typology_tsv_round_trip():
    typology = RegionTypology(
        regions=("Asian", "African"),
        assignment={"JP": "Asian", "ET": "African", "PG": None},
        overrides=(Override("DELETE", "PG"),),
    )
    again = RegionTypology.from_tsv(typology.to_tsv())
    assert again.assignment == dict(typology.assignment)
    assert again.overrides == typology.overrides


# ---------------------------------------------------------------- relabel


def test_relabel_maps_and_drops():
    typology = RegionTypology(
        regions=("R",), assignment={"AA": "R", "BB": None}, overrides=()
    )
    core = names_for("AA", ["aa", "ab"]) + names_for("BB", ["bb"])
    labeled, counts = relabel(core, typology)
    assert labeled == [("aa", "R"), ("ab", "R")]
    assert counts == {"R": 2}


def test_relabel_uncovered_country_listed():
    typology = RegionTypology(regions=("R",), assignment={"AA": "R"}, overrides=())
    core = names_for("AA", ["aa"]) + names_for("XX", ["xx"]) + names_for("YY", ["yy"])
    with pytest.raises(ValueError, match="XX, YY"):
        relabel(core, typology)


def test_relabel_preserves_totals_minus_deleted():
    rng = random.Random(40)
    countries = ["AA", "BB", "CC", "DD"]
    core = []
    for i in range(200):
        core.append(CoreName(f"s{i}", rng.choice(countries), 1.0, 0.01))
    typology = RegionTypology(
        regions=("R1", "R2"),
        assignment={"AA": "R1", "BB": "R1", "CC": "R2", "DD": None},
        overrides=(),
    )
    labeled, counts = relabel(core, typology)
    deleted = sum(1 for n in core if n.assigned_country == "DD")
    assert len(labeled) == len(core) - deleted
    assert sum(counts.values()) == len(labeled)
