"""Country matrix, Ward clustering, dendrogram cuts and relabeling."""

import logging
import math
import os
import random
import signal
import threading
import time
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from onoma.corpus import CoreSet
from onoma.errors import InvariantError
from onoma.features import FeatureMatrix, NGramConfig, featurize
from onoma.typology import (
    WARD_BLOCK_ROWS,
    WARD_PATCH_RATIO,
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
import reference
from reference import dense

UNPADDED2 = NGramConfig(n_values=(2,), pad_boundaries=False)


# A core name as the reference loops read it.
Core = namedtuple("Core", "surname assigned_country")


def names_for(country, surnames):
    return [Core(s, country) for s in surnames]


def core_set(names):
    """A `CoreSet` of `Core` rows, sorted by surname."""
    names = sorted(names)
    countries = tuple(sorted({n.assigned_country for n in names}))
    ids = [countries.index(n.assigned_country) for n in names]
    return CoreSet(
        tuple(n.surname for n in names), countries, np.array(ids, dtype=np.int64),
        np.ones(len(names)), np.full(len(names), 0.01),
    )


def labeled_pairs(core, labeled):
    """A `Labeled` over core rows as (surname, region) pairs."""
    return [(core.names[r], labeled.regions[g]) for r, g in zip(labeled.rows, labeled.region)]


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


def sparse_matrix(rows):
    """CountryFeatureMatrix holding the nonzero cells of the dense `rows`."""
    rows = np.asarray(rows, dtype=float)
    n, width = rows.shape
    nonzero = rows != 0
    return CountryFeatureMatrix(
        tuple(f"C{i:02d}" for i in range(n)),
        tuple(f"t{j:05d}" for j in range(width)),
        np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))]),
        np.nonzero(nonzero)[1],
        rows[nonzero],
    )


def euclidean_matrix(points):
    points = np.asarray(points, dtype=float)
    n = len(points)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = float(np.linalg.norm(points[i] - points[j]))
    return dist


# ---------------------------------------------------------------- matrix


def country_matrix(core, config, min_core_names):
    """`build_country_matrix` over a feature matrix of exactly the core names."""
    core = core if isinstance(core, CoreSet) else core_set(core)
    return build_country_matrix(core, featurize(core.names, config), min_core_names)


def test_matrix_needs_two_countries():
    with pytest.raises(ValueError, match="at least 2"):
        country_matrix(names_for("AA", ["ab"]), UNPADDED2, 1)


def test_matrix_disjoint_tokens():
    core = names_for("AA", ["aa"]) + names_for("BB", ["bb"])
    matrix = country_matrix(core, UNPADDED2, 1)
    assert matrix.countries == ("AA", "BB")
    assert matrix.vocabulary == ("aa", "bb")
    assert np.array_equal(dense(matrix), np.eye(2))


def test_matrix_row_normalization():
    # aaa -> aa:2, aab -> aa:1 ab:1, so counts aa:3 ab:1 -> row (0.75, 0.25)
    core = names_for("AA", ["aaa", "aab"]) + names_for("BB", ["bb"])
    matrix = country_matrix(core, UNPADDED2, 1)
    row = dense(matrix)[list(matrix.countries).index("AA")]
    by_token = dict(zip(matrix.vocabulary, row))
    assert by_token["aa"] == pytest.approx(0.75)
    assert by_token["ab"] == pytest.approx(0.25)


def test_matrix_min_core_names_filter():
    core = (
        names_for("AA", ["aa", "ab", "ba"])
        + names_for("BB", ["bb", "bc", "cb"])
        + names_for("CC", ["cc"])  # below the threshold
    )
    matrix = country_matrix(core, UNPADDED2, 2)
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
            for token, c in reference.extract(surname, config).items():
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
    for seed, config in ((21, NGramConfig()), (22, UNPADDED2),
                         (23, NGramConfig(n_values=(1, 2, 3, 4)))):
        check_matrix_against_per_name_reference(seed, config)


def check_matrix_against_per_name_reference(seed, config):
    rng = random.Random(seed)
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
    matrix = country_matrix(core, config, 10)
    assert matrix.countries == countries == ("AA", "BB", "CC")
    assert matrix.vocabulary == vocabulary
    assert not any("x" in token for token in matrix.vocabulary)  # DD is below the bar
    assert np.array_equal(dense(matrix), rows)
    assert dense(matrix).flags.c_contiguous
    assert len(matrix.values) == np.count_nonzero(rows)
    # Row i of the feature matrix is core name i, so it has one row per name.
    core = core_set(core)
    larger = featurize(["0qq", *core.names], config)
    with pytest.raises(ValueError, match="one row per core name"):
        build_country_matrix(core, larger, 10)


def test_matrix_logs_funnel_counts(caplog):
    core = (
        names_for("AA", ["aa", "ab"])
        + names_for("BB", ["bb", "abb"])  # shares "ab" with AA
        + names_for("CC", ["cc"])  # below min_core_names
        + names_for("DD", ["d", "e"])  # no bigram in a one-letter name
    )
    caplog.set_level(logging.INFO, logger="onoma.typology")
    matrix = country_matrix(core, UNPADDED2, 2)
    assert matrix.countries == ("AA", "BB")
    funnel = [r.getMessage() for r in caplog.records if r.getMessage().startswith("country-")]
    assert funnel == [
        "country-matrix: 4 countries with core names, 1 below min_core_names, "
        "1 without n-grams, 2 kept, 3 n-grams, 4 non-zero cells"
    ]
    # Logged before the check that too few countries are left.
    caplog.clear()
    with pytest.raises(ValueError, match="at least 2"):
        country_matrix(core[2:], UNPADDED2, 2)
    funnel = [r.getMessage() for r in caplog.records if r.getMessage().startswith("country-")]
    assert funnel == [
        "country-matrix: 3 countries with core names, 1 below min_core_names, "
        "1 without n-grams, 1 kept, 2 n-grams, 2 non-zero cells"
    ]


def test_matrix_sparse_layout_and_dense_rows():
    matrix = sparse_matrix([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    assert matrix.indptr.tolist() == [0, 2, 3]
    assert matrix.columns.tolist() == [0, 2, 1]
    assert np.array_equal(dense(matrix), [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    out = np.full((1, 3), 7.0)
    assert matrix.dense_rows(1, 2, out) is out
    assert np.array_equal(out, [[0.0, 1.0, 0.0]])


@pytest.mark.parametrize(
    "indptr, columns, values, error, match",
    [
        ([0, 3, 2, 4], [0, 1, 2, 0], [0.5, 0.25, 0.25, 1.0], ValueError, "decrease"),
        ([0, 2, 2, 4], [0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5], ValueError, "empty"),
        ([0, 2, 3, 4], [0, 3, 1, 2], [0.5, 0.5, 1.0, 1.0], ValueError, "out of range"),
        ([0, 2, 3, 4], [-1, 1, 1, 2], [0.5, 0.5, 1.0, 1.0], ValueError, "out of range"),
        ([0, 2, 3, 4], [1, 1, 1, 2], [0.5, 0.5, 1.0, 1.0], ValueError, "increasing"),
        ([0, 2, 3, 4], [2, 1, 1, 2], [0.5, 0.5, 1.0, 1.0], ValueError, "increasing"),
        ([0, 2, 3, 4], [0, 1, 1, 2], [np.nan, 0.5, 1.0, 1.0], ValueError, "non-finite"),
        ([0, 2, 3, 4], [0, 1, 1, 2], [np.inf, 0.5, 1.0, 1.0], ValueError, "non-finite"),
        ([0, 2, 3, 4], [0, 1, 1, 2], [0.5, 0.25, 1.0, 1.0], InvariantError, "sum to 1: .'C00'"),
        ([0, 2, 3], [0, 1, 1], [0.5, 0.5, 1.0], ValueError, "inconsistent"),
        ([1, 2, 3, 4], [0, 1, 1, 2], [0.5, 0.5, 1.0, 1.0], ValueError, "inconsistent"),
        ([0, 2, 3, 4], [0, 1, 1, 2], [0.5, 0.5, 1.0], ValueError, "inconsistent"),
    ],
)
def test_matrix_rejects_malformed_rows(indptr, columns, values, error, match):
    labels = ("C00", "C01", "C02")
    vocabulary = ("t0", "t1", "t2")
    valid = CountryFeatureMatrix(labels, vocabulary, [0, 2, 3, 4], [0, 1, 1, 2],
                                 [0.5, 0.5, 1.0, 1.0])
    assert dense(valid).shape == (3, 3)
    with pytest.raises(error, match=match):
        CountryFeatureMatrix(labels, vocabulary, indptr, columns, values)


# ---------------------------------------------------------------- clustering


def test_ward_two_rows_merges_at_euclidean_distance():
    core = names_for("AA", ["aa"]) + names_for("BB", ["bb"])
    matrix = country_matrix(core, UNPADDED2, 1)
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
        matrix = sparse_matrix(rows)
        dist = np.zeros((n, n))
        for i in range(n - 1):
            diffs = rows[i + 1 :] - rows[i]
            dist[i, i + 1 :] = dist[i + 1 :, i] = np.sqrt((diffs * diffs).sum(axis=1))
        assert ward_cluster(matrix).merges == agglomerate(matrix.countries, dist).merges


def parent_ward_cluster(countries, rows):
    """ward_cluster over dense rows with one (n-1) x V buffer, kept verbatim
    as the reference for the blocked distances over sparse rows."""
    n = len(countries)
    if n < 2:
        raise ValueError("need at least 2 rows to cluster")
    dist = np.zeros((n, n))
    # One buffer for every row's squared differences. Its slices are
    # C-contiguous: the row sums, and so the heights, depend on the layout.
    buf = np.empty((n - 1, rows.shape[1]))
    for i in range(n - 1):
        diffs = buf[: n - 1 - i]
        np.subtract(rows[i + 1 :], rows[i], out=diffs)
        np.multiply(diffs, diffs, out=diffs)
        d = np.sqrt(diffs.sum(axis=1))
        dist[i, i + 1 :] = d
        dist[i + 1 :, i] = d
    return agglomerate(countries, dist, method="ward"), dist


def ward_rows():
    """Row-normalized dense rows of 2 to 35 countries around the block size."""
    rng = np.random.default_rng(41)
    block = WARD_BLOCK_ROWS
    for n in sorted({2, max(2, block - 1), block, block + 1, 2 * block + 1, 35}):
        width = int(rng.integers(20, 400))
        rows = rng.random((n, width)) * (rng.random((n, width)) < 0.1)
        rows[np.arange(n), rng.integers(0, width, size=n)] += 0.5
        yield rows / rows.sum(axis=1, keepdims=True)
        # Disjoint supports: no two rows share a column.
        columns = rng.permutation(n * 6).reshape(n, 6)
        rows = np.zeros((n, n * 6))
        rows[np.arange(n)[:, None], columns] = rng.random((n, 6)) + 0.01
        yield rows / rows.sum(axis=1, keepdims=True)
        # Repeated rows: zero distances and exact ties.
        base = rng.random((3, 50)) * (rng.random((3, 50)) < 0.3)
        base[:, 0] += 1.0
        base /= base.sum(axis=1, keepdims=True)
        yield base[rng.integers(0, 3, size=n)]
        # One fully dense row among sparse ones.
        rows = rng.random((n, width)) * (rng.random((n, width)) < 0.05)
        rows[:, 0] += 0.25
        rows[int(rng.integers(0, n))] = rng.random(width) + 0.01
        yield rows / rows.sum(axis=1, keepdims=True)


def test_ward_cluster_matches_one_buffer_reference(monkeypatch):
    from onoma import typology

    seen = []

    def recording_agglomerate(labels, dist, method="ward"):
        seen.append(dist.copy())
        return agglomerate(labels, dist, method)

    monkeypatch.setattr(typology, "agglomerate", recording_agglomerate)
    for rows in ward_rows():
        matrix = sparse_matrix(rows)
        expected, dist = parent_ward_cluster(matrix.countries, rows)
        assert ward_cluster(matrix).merges == expected.merges
        assert seen.pop().tobytes() == dist.tobytes()


def generated_matrix():
    """The country matrix of a generated 25-country typology."""
    from onoma.corpus import filter_core_names
    from onoma.synth import generate, standard_spec

    table, _ = generate(standard_spec(5, 5, 60, 0.3, 4))
    return country_matrix(filter_core_names(table), NGramConfig(), 5)


def test_ward_cluster_matches_reference_on_generated_typology():
    matrix = generated_matrix()
    assert len(matrix.countries) == 25
    expected, _ = parent_ward_cluster(matrix.countries, dense(matrix))
    assert ward_cluster(matrix).merges == expected.merges


def crossover_rows():
    """Rows on both sides of the patch crossover, in several orders, for
    2, WARD_BLOCK_ROWS - 1, WARD_BLOCK_ROWS, + 1 and 2 x + 1 of them."""
    rng = np.random.default_rng(43)
    block, width = WARD_BLOCK_ROWS, 24 * WARD_PATCH_RATIO
    limit = width // WARD_PATCH_RATIO  # the fewest entries a subtracted row stores
    for n in sorted({2, max(2, block - 1), block, block + 1, 2 * block + 1}):
        for dense in (
            np.arange(n) % 2 == 1,
            np.arange(n) % 3 == 1,
            np.arange(n) % 2 == 0,
            rng.random(n) < 0.5,
        ):
            sizes = np.where(dense, rng.integers(limit, 4 * limit, size=n), 0)
            sizes[~dense] = rng.integers(1, limit, size=int((~dense).sum()))
            # Rows at the crossover itself and just below it.
            sizes[dense & (np.arange(n) % 4 == 3)] = limit
            sizes[~dense & (np.arange(n) % 4 == 2)] = limit - 1
            rows = np.zeros((n, width))
            for i, size in enumerate(sizes):
                # Columns drawn from a narrow range, so most supports overlap.
                columns = rng.choice(8 * limit, size=size, replace=False)
                rows[i, columns] = rng.random(size) + 0.01
            yield rows / rows.sum(axis=1, keepdims=True)


@pytest.fixture
def ward_distances(monkeypatch):
    """The distance matrices ward_cluster hands to agglomerate, in call order."""
    from onoma import typology

    seen = []

    def recording_agglomerate(labels, dist, method="ward"):
        seen.append(dist.copy())
        return agglomerate(labels, dist, method)

    monkeypatch.setattr(typology, "agglomerate", recording_agglomerate)
    return seen


def test_ward_cluster_patch_and_subtract_match_reference(ward_distances):
    branches = set()
    for rows in crossover_rows():
        matrix = sparse_matrix(rows)
        width = len(matrix.vocabulary)
        branches.update(np.diff(matrix.indptr) * WARD_PATCH_RATIO < width)
        expected, dist = parent_ward_cluster(matrix.countries, rows)
        assert ward_cluster(matrix).merges == expected.merges
        assert ward_distances.pop().tobytes() == dist.tobytes()
    assert branches == {False, True}


def test_ward_cluster_matches_reference_on_sparse_generated_typology(ward_distances):
    from onoma.corpus import filter_core_names
    from onoma.synth import generate, standard_spec

    table, _ = generate(standard_spec(6, 6, 60, 0.3, 1))
    matrix = country_matrix(filter_core_names(table), NGramConfig(), 5)
    assert len(matrix.countries) == 36 > 2 * WARD_BLOCK_ROWS
    # Every row is below the crossover, so each distance comes from a patch.
    assert np.all(np.diff(matrix.indptr) * WARD_PATCH_RATIO < len(matrix.vocabulary))
    expected, dist = parent_ward_cluster(matrix.countries, dense(matrix))
    assert ward_cluster(matrix).merges == expected.merges
    assert ward_distances.pop().tobytes() == dist.tobytes()


# ward_cluster forks only on Linux, counting threads in /proc/self/task.
FORK_ROUTE = pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self/task"),
    reason="needs os.fork and /proc/self/task",
)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked in a test, with two CPUs usable and
    ward_cluster splitting at any size."""
    from onoma import typology

    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(typology, "WARD_FORK_CELLS", 0)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@FORK_ROUTE
def test_ward_cluster_split_matches_one_process_and_reference(
    monkeypatch, ward_distances, forks
):
    from onoma import typology

    cases = [(sparse_matrix(rows), rows) for rows in ward_rows()]
    matrix = generated_matrix()
    cases.append((matrix, dense(matrix)))
    for matrix, rows in cases:
        expected, dist = parent_ward_cluster(matrix.countries, rows)
        split = ward_cluster(matrix)
        monkeypatch.setattr(typology, "WARD_FORK_CELLS", math.inf)
        serial = ward_cluster(matrix)
        monkeypatch.setattr(typology, "WARD_FORK_CELLS", 0)
        assert split.merges == serial.merges == expected.merges
        serial_dist, split_dist = ward_distances.pop(), ward_distances.pop()
        assert split_dist.tobytes() == serial_dist.tobytes() == dist.tobytes()
    assert len(forks) == len(cases)
    assert_no_child_left()


@FORK_ROUTE
@pytest.mark.parametrize(
    "case", ["control", "below-the-size", "one-cpu", "second-thread", "no-affinity-call"]
)
def test_ward_cluster_stays_in_one_process(monkeypatch, forks, case):
    from onoma import typology

    matrix = generated_matrix()
    n = len(matrix.countries)
    # At the constant itself the control splits; each case changes one thing.
    monkeypatch.setattr(typology, "WARD_FORK_CELLS", n * (n - 1) // 2 * len(matrix.vocabulary))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "below-the-size":
        monkeypatch.setattr(typology, "WARD_FORK_CELLS", typology.WARD_FORK_CELLS + 1)
    elif case == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif case == "second-thread":
        thread.start()
    elif case == "no-affinity-call":
        monkeypatch.delattr(os, "sched_getaffinity")
    try:
        dendrogram = ward_cluster(matrix)
    finally:
        stop.set()
        if case == "second-thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(forks) == (case == "control")
    expected, _ = parent_ward_cluster(matrix.countries, dense(matrix))
    assert dendrogram.merges == expected.merges
    assert_no_child_left()


def fail_in(monkeypatch, side):
    """Make `side` ("child" or "parent") of the split raise in its blocks.
    The other side computes its own; with side "parent" the child first
    sleeps 60 s, so it is still running when the parent fails."""
    from onoma import typology

    parent, blocks = os.getpid(), typology._distance_blocks

    def failing(matrix, dist, block_starts):
        in_child = os.getpid() != parent
        if in_child == (side == "child"):
            raise RuntimeError(f"{side} half")
        if in_child:
            time.sleep(60)
        blocks(matrix, dist, block_starts)

    monkeypatch.setattr(typology, "_distance_blocks", failing)


@FORK_ROUTE
def test_a_failed_child_raises_invariant_error(monkeypatch, forks):
    fail_in(monkeypatch, "child")
    with pytest.raises(InvariantError, match="Ward distance child exited with code 1"):
        ward_cluster(generated_matrix())
    assert len(forks) == 1
    assert_no_child_left()


@FORK_ROUTE
def test_a_failure_in_this_process_kills_and_reaps_the_child(monkeypatch, forks):
    kills = []
    kill = os.kill

    def recording_kill(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(os, "kill", recording_kill)
    fail_in(monkeypatch, "parent")
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="parent half"):
        ward_cluster(generated_matrix())
    assert time.monotonic() - start < 30  # the child's 60 s sleep was cut short
    assert kills == [(forks[0], signal.SIGKILL)]
    assert_no_child_left()


@FORK_ROUTE
def test_onoma_typology_exits_4_when_the_child_fails(tmp_path, monkeypatch, forks, capsys):
    """`onoma pipeline` reports a failed Ward child as an internal error and
    writes no result of the typology stage or after it."""
    import json

    from onoma.cli import main
    from onoma.corpus import render_corpus_tsv
    from onoma.synth import generate, registry_for, standard_spec

    spec = standard_spec(5, 5, 60, 0.3, 4)
    table, _ = generate(spec)
    (tmp_path / "corpus.tsv").write_text(render_corpus_tsv(table), encoding="utf-8")
    (tmp_path / "countries.tsv").write_text(registry_for(spec).to_tsv(), encoding="utf-8")
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "out_dir": str(out), "corpus": "corpus.tsv",
                                  "registry": "countries.tsv", "min_core_names": 5}),
                      encoding="utf-8")
    fail_in(monkeypatch, "child")
    assert main(["pipeline", "--config", str(config)]) == 4
    assert capsys.readouterr().err == "internal error: Ward distance child exited with code 1\n"
    assert len(forks) == 1
    assert_no_child_left()
    for name in ("typology.tsv", "dendrogram.tsv", "model.json"):
        assert not (out / name).exists(), name


def random_sparse_matrix(n, width, per_row, seed):
    """n x width shares with per_row nonzero cells a row; every column used."""
    rng = np.random.default_rng(seed)
    owner = rng.permutation(np.arange(width) % n)
    indptr, columns = [0], []
    for i in range(n):
        own = np.flatnonzero(owner == i)
        extra = rng.choice(np.flatnonzero(owner != i), size=per_row - len(own), replace=False)
        columns.append(np.union1d(own, extra))
        indptr.append(indptr[-1] + len(columns[-1]))
    columns = np.concatenate(columns)
    values = rng.random(len(columns)) + 0.01
    values /= np.add.reduceat(values, indptr[:-1]).repeat(np.diff(indptr))
    return CountryFeatureMatrix(
        tuple(f"C{i:02d}" for i in range(n)),
        tuple(f"t{j:05d}" for j in range(width)),
        indptr,
        columns,
        values,
    )


def traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc (numpy's buffers included) during fn."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result


N_TRACED, V_TRACED = 60, 30_000  # 3% dense: 900 nonzero cells a row


def test_ward_cluster_memory_stays_within_blocks():
    matrix = random_sparse_matrix(N_TRACED, V_TRACED, 900, seed=5)
    peak, dendrogram = traced_peak(ward_cluster, matrix)
    assert dendrogram.n_leaves == N_TRACED
    # Design: two block x V float buffers (the densified rows and their
    # squares) and the V-float row a denser row is subtracted through; per
    # patched row three block x 900 arrays (the flat cell ids, the block's
    # values there and their squared differences); the n x n distances and
    # agglomerate's (2n-1)^2 node distances. 512 KiB covers the small arrays
    # and the Python objects. A dense (n-1) x V buffer alone is 14 MB here.
    blocks = 2 * WARD_BLOCK_ROWS * V_TRACED * 8 + V_TRACED * 8
    patch = 3 * WARD_BLOCK_ROWS * 900 * 8
    pairs = N_TRACED**2 * 8 + (2 * N_TRACED - 1) ** 2 * 8
    bound = blocks + patch + pairs + 512 * 1024
    assert peak <= bound, (peak, bound)
    assert peak < (N_TRACED - 1) * V_TRACED * 8 / 2


def test_build_country_matrix_memory_is_linear_in_nonzeros():
    rng = np.random.default_rng(6)
    sparse = random_sparse_matrix(N_TRACED, V_TRACED, 900, seed=6)
    # One name per group of 90 cells of a country's row, 10 names a country.
    names, indptr, ids = [], [0], []
    for i, country in enumerate(sparse.countries):
        row = sparse.columns[sparse.indptr[i] : sparse.indptr[i + 1]]
        for part in np.array_split(rng.permutation(row), 10):
            names.append(f"{country.lower()}{len(names)}")
            ids.append(np.sort(part))
            indptr.append(indptr[-1] + len(part))
    ids = np.concatenate(ids).astype(np.int32)
    features = FeatureMatrix(
        names=tuple(names),
        tokens=sparse.vocabulary,
        indptr=np.array(indptr, dtype=np.int64),
        ids=ids,
        counts=rng.integers(1, 4, size=len(ids)).astype(np.int32),
        config=NGramConfig(),
    )
    core = core_set(Core(name, name[:3].upper()) for name in names)
    assert core.names == features.names
    nnz = len(ids)
    peak, matrix = traced_peak(build_country_matrix, core, features, 10)
    assert matrix.countries == sparse.countries and len(matrix.vocabulary) == V_TRACED
    assert len(matrix.values) == nnz == N_TRACED * 900
    # Design: per country a bincount over the featurized tokens (V floats);
    # the mask of used tokens and the vocabulary tuple (a byte and a pointer
    # per column); the kept ids and totals and the result's columns and
    # values (a few 8-byte words per nonzero cell). 512 KiB covers the
    # Python objects. The dense n x V array alone is 14.4 MB here.
    bound = 4 * V_TRACED * 8 + 8 * nnz * 8 + 512 * 1024
    assert peak <= bound, (peak, bound)
    assert peak < N_TRACED * V_TRACED * 8 / 2


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


def test_dendrogram_tsv_text():
    """A `# leaf` line per leaf in id order, then a row per merge: the two
    nodes, the height in full precision and the new node's id."""
    dendrogram = Dendrogram(("w", "x", "y"), (Merge(0, 1, 0.5, 3), Merge(2, 3, math.sqrt(2), 4)))
    assert dendrogram.to_tsv() == (
        "# leaf\t0\tw\n# leaf\t1\tx\n# leaf\t2\ty\n"
        "0\t1\t0.5\t3\n2\t3\t1.4142135623730951\t4\n"
    )


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


def test_cut_seven_uses_data_labels_and_overrides():
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
    weights = {"NG": 5.0, "ET": 3.0, "EG": 4.0, "CN": 9.0, "JP": 2.0, "FR": 2.0, "IT": 2.0,
               "PK": 6.0, "SE": 7.0, "RU": 8.0, "PL": 1.0}
    overrides = (
        Override("REASSIGN", "PH", "CN"),
        Override("REASSIGN", "JP", "CN"),
        Override("REASSIGN", "ID", "CN"),
        Override("REASSIGN", "ET", "NG"),
        Override("DELETE", "PG"),
        Override("DELETE", "MG"),
        Override("DELETE", "JM"),
        Override("DELETE", "TD"),
        Override("DELETE", "AM"),
    )
    typology = cut_dendrogram(dendrogram, 7, overrides, weights)
    # Each cluster is named after its heaviest country, FR and IT tying on
    # weight; clusters stay ordered by their smallest member (AM.., CN..,
    # DE.., DZ.., ET.., FR.., IN..).
    assert typology.regions == ("RU", "CN", "SE", "EG", "NG", "FR", "PK")
    for country, region in (("PL", "RU"), ("CN", "CN"), ("DE", "SE"), ("DZ", "EG"),
                            ("NG", "NG"), ("IT", "FR"), ("IN", "PK")):
        assert typology.assignment[country] == region
    # Explicit reassignments land on the named regions.
    for country in ("PH", "JP", "ID"):
        assert typology.assignment[country] == "CN"
    assert typology.assignment["ET"] == "NG"
    for deleted in ("PG", "MG", "JM", "TD", "AM"):
        assert typology.assignment[deleted] is None
    assert typology.overrides == overrides


def test_cut_label_tie_goes_to_the_smallest_code():
    """Two member countries with as many core names: the smaller code names
    the cluster, whatever order the weights come in."""
    dendrogram = cluster_line_dendrogram([["AA", "AC", "AB"], ["BB", "BA"]])
    for weights in ({"AC": 5.0, "AB": 5.0, "AA": 1.0, "BB": 2.0, "BA": 2.0},
                    {"BA": 2.0, "BB": 2.0, "AA": 1.0, "AB": 5.0, "AC": 5.0}):
        typology = cut_dendrogram(dendrogram, 2, leaf_weights=weights)
        assert typology.regions == ("AB", "BA")
        assert typology.members("AB") == ["AA", "AB", "AC"]


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
        Override("REASSIGN", "PH", "ASIAN"),
        Override("DELETE", "PG"),
    )


def test_typology_tsv_text():
    """The overrides in the order given as `# override` lines, then a row per
    country in sorted order, a deleted one marked DELETED."""
    typology = RegionTypology(
        regions=("Asian", "African"),
        assignment={"JP": "Asian", "ET": "African", "PG": None, "ID": "Asian"},
        overrides=(Override("REASSIGN", "ID", "Asian"), Override("DELETE", "PG")),
    )
    assert typology.to_tsv() == (
        "# override\tREASSIGN\tID\tAsian\n# override\tDELETE\tPG\n"
        "ET\tAfrican\nID\tAsian\nJP\tAsian\nPG\tDELETED\n"
    )


# ---------------------------------------------------------------- relabel


def test_relabel_maps_and_drops():
    typology = RegionTypology(
        regions=("R",), assignment={"AA": "R", "BB": None}, overrides=()
    )
    core = core_set(names_for("AA", ["aa", "ab"]) + names_for("BB", ["bb"]))
    labeled, counts = relabel(core, typology, np.arange(3))
    assert labeled_pairs(core, labeled) == [("aa", "R"), ("ab", "R")]
    assert counts == {"R": 2}


def test_relabel_uncovered_country_listed():
    typology = RegionTypology(regions=("R",), assignment={"AA": "R"}, overrides=())
    core = names_for("AA", ["aa"]) + names_for("XX", ["xx"]) + names_for("YY", ["yy"])
    with pytest.raises(ValueError, match="XX, YY"):
        relabel(core_set(core), typology, np.arange(3))


def test_relabel_preserves_totals_minus_deleted():
    rng = random.Random(40)
    countries = ["AA", "BB", "CC", "DD"]
    core = []
    for i in range(200):
        core.append(Core(f"s{i}", rng.choice(countries)))
    typology = RegionTypology(
        regions=("R1", "R2"),
        assignment={"AA": "R1", "BB": "R1", "CC": "R2", "DD": None},
        overrides=(),
    )
    labeled, counts = relabel(core_set(core), typology, np.arange(len(core)))
    deleted = sum(1 for n in core if n.assigned_country == "DD")
    assert len(labeled) == len(core) - deleted
    assert sum(counts.values()) == len(labeled)
