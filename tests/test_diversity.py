"""Distributions, representativeness ratios and Canberra-ordered reports."""

import itertools
import json
import math

import numpy as np
import pytest

from onoma.classifier import Labeled, train
from onoma.correction import CorrectionOperator
from onoma.diversity import (
    OriginDistribution,
    RepresentationProfile,
    canberra,
    distribution,
    emit_report,
    order_profiles,
    representation_ratios,
    tally_guesses,
)
from onoma.features import NGramConfig, featurize

BIGRAM = NGramConfig(n_values=(2,), pad_boundaries=False)


def separable_model():
    train_set = [("aaba", "A"), ("abaa", "A"), ("bbab", "B"), ("babb", "B")]
    names, labeled = Labeled.from_pairs(train_set)
    return train(labeled, featurize(names, BIGRAM), 0.1)


def identity_operator(regions):
    return CorrectionOperator(tuple(regions), np.eye(len(regions)))


def make_distribution(name, regions, counts):
    counts = np.asarray(counts, dtype=float)
    return OriginDistribution(
        dataset_name=name,
        regions=tuple(regions),
        counts=counts,
        proportions=counts / counts.sum(),
        n_names=int(round(counts.sum())),
        n_prior_only=0,
    )


def make_profile(name, regions, ratios):
    return RepresentationProfile(name, tuple(regions), np.asarray(ratios, dtype=float))


def average_linkage_oracle(vectors):
    """Brute-force average linkage: mean pairwise Canberra across members."""
    n = len(vectors)
    clusters = {i: [i] for i in range(n)}
    merges = []
    for step in range(n - 1):
        best = None
        ids = sorted(clusters)
        for pos, a in enumerate(ids):
            for b in ids[pos + 1 :]:
                d = float(
                    np.mean(
                        [
                            canberra(vectors[i], vectors[j])
                            for i in clusters[a]
                            for j in clusters[b]
                        ]
                    )
                )
                if best is None or d < best[0]:
                    best = (d, a, b)
        d, a, b = best
        new_id = n + step
        clusters[new_id] = clusters.pop(a) + clusters.pop(b)
        merges.append((a, b, d, new_id))
    return merges


# ---------------------------------------------------------------- canberra


def test_canberra_identity():
    assert canberra([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_canberra_maximal_terms():
    assert canberra([1.0, 0.0], [0.0, 1.0]) == 2.0


def test_canberra_term_arithmetic():
    assert canberra([2.0, 1.0], [1.0, 3.0]) == pytest.approx(1 / 3 + 1 / 2, abs=1e-12)


def test_canberra_zero_zero_terms_ignored():
    assert canberra([0.0, 1.0], [0.0, 1.0]) == 0.0


def test_canberra_properties():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p = rng.uniform(0, 5, size=n) * (rng.random(n) > 0.2)
        q = rng.uniform(0, 5, size=n) * (rng.random(n) > 0.2)
        d = canberra(p, q)
        assert d >= 0
        assert d == canberra(q, p)
        assert (d == 0) == bool(np.array_equal(p, q))


def test_canberra_validation():
    with pytest.raises(ValueError, match="length"):
        canberra([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="nonnegative"):
        canberra([-1.0], [1.0])


# ---------------------------------------------------------------- distribution


def test_distribution_separable_single_region():
    model = separable_model()
    tally = tally_guesses(model, ["aab", "aba", "baa"])
    dist = distribution(tally, identity_operator(model.regions), "only-a")
    i = dist.regions.index("A")
    assert dist.proportions[i] == 1.0
    assert dist.n_names == 3


def test_distribution_identity_operator_keeps_guessed_shares():
    model = separable_model()
    names = ["aaa", "aab", "bbb", "bba", "abb"]
    dist = distribution(tally_guesses(model, names), identity_operator(model.regions))
    assert dist.counts.sum() == pytest.approx(len(names), rel=1e-9)
    assert dist.proportions.sum() == pytest.approx(1.0, abs=1e-9)


def test_distribution_counts_prior_only():
    model = separable_model()
    dist = distribution(tally_guesses(model, ["aaa", "zzz"]), identity_operator(model.regions))
    assert dist.n_prior_only == 1


def test_distribution_validation():
    model = separable_model()
    with pytest.raises(ValueError, match="empty"):
        distribution((np.zeros(len(model.regions)), 0), identity_operator(model.regions))


# ---------------------------------------------------------------- ratios


def test_ratios_self_comparison_exactly_one():
    dist = make_distribution("ref", ("A", "B", "C"), [10.0, 30.0, 60.0])
    profile = representation_ratios(dist, dist)
    assert all(r == 1.0 for r in profile.ratios)
    assert profile.undefined == ()


def test_ratios_zero_target():
    target = make_distribution("t", ("A", "B"), [0.0, 10.0])
    reference = make_distribution("r", ("A", "B"), [5.0, 5.0])
    profile = representation_ratios(target, reference)
    assert profile.ratios[0] == 0.0


def test_ratios_division():
    target = make_distribution("t", ("A", "B"), [10.0, 90.0])
    reference = make_distribution("r", ("A", "B"), [5.0, 95.0])
    profile = representation_ratios(target, reference)
    assert profile.ratios[0] == pytest.approx(2.0)


def test_ratios_reference_zero_flagged_not_zero():
    target = make_distribution("t", ("A", "B"), [5.0, 5.0])
    reference = make_distribution("r", ("A", "B"), [0.0, 10.0])
    profile = representation_ratios(target, reference)
    assert math.isnan(profile.ratios[0])
    assert profile.undefined == ("A",)


def test_ratios_low_confidence_flag():
    target = make_distribution("t", ("A", "B"), [2.0, 98.0])
    reference = make_distribution("r", ("A", "B"), [50.0, 50.0])
    profile = representation_ratios(target, reference)
    assert profile.low_confidence == ("A",)


def test_ratios_region_mismatch():
    target = make_distribution("t", ("A", "B"), [1.0, 1.0])
    reference = make_distribution("r", ("A", "C"), [1.0, 1.0])
    with pytest.raises(ValueError, match="regions"):
        representation_ratios(target, reference)


# ---------------------------------------------------------------- ordering


def test_order_profiles_short_input_unchanged():
    profile = make_profile("solo", ("A", "B"), [1.0, 1.0])
    ordered, tree = order_profiles([profile])
    assert ordered == [profile]
    assert tree is None


def test_order_profiles_identical_pair_merges_first():
    regions = ("A", "B", "C")
    p1 = make_profile("x", regions, [1.0, 2.0, 0.5])
    p2 = make_profile("y", regions, [1.0, 2.0, 0.5])
    p3 = make_profile("z", regions, [9.0, 0.1, 4.0])
    ordered, tree = order_profiles([p3, p1, p2])
    first = tree.merges[0]
    assert first.height == 0.0
    merged = {tree.leaves[first.a], tree.leaves[first.b]}
    assert merged == {"x", "y"}
    names = [p.dataset_name for p in ordered]
    assert abs(names.index("x") - names.index("y")) == 1


def test_order_profiles_permutation_invariant():
    regions = ("A", "B", "C", "D")
    rng = np.random.default_rng(15)
    profiles = [
        make_profile(f"d{i}", regions, rng.uniform(0.1, 3.0, size=4)) for i in range(5)
    ]
    baseline = [p.dataset_name for p in order_profiles(profiles)[0]]
    for perm in itertools.permutations(profiles):
        names = [p.dataset_name for p in order_profiles(list(perm))[0]]
        assert names == baseline


def test_order_profiles_matches_average_linkage_oracle():
    rng = np.random.default_rng(16)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        regions = ("A", "B", "C")
        vectors = [rng.uniform(0.05, 4.0, size=3) for _ in range(n)]
        profiles = [make_profile(f"d{i}", regions, v) for i, v in enumerate(vectors)]
        _, tree = order_profiles(profiles)
        expected = average_linkage_oracle(vectors)
        for merge, (a, b, height, new_id) in zip(tree.merges, expected):
            assert (merge.a, merge.b, merge.new_id) == (a, b, new_id)
            assert merge.height == pytest.approx(height, abs=1e-9)


# ---------------------------------------------------------------- report


def test_emit_report_files_and_ordering():
    regions = ("A", "B", "C")
    reference = make_distribution("ref", regions, [20.0, 30.0, 50.0])
    targets = [
        make_distribution("t1", regions, [10.0, 40.0, 50.0]),
        make_distribution("t2", regions, [11.0, 39.0, 50.0]),
        make_distribution("t3", regions, [45.0, 10.0, 45.0]),
    ]
    dists = [reference, *targets]
    profiles = [representation_ratios(d, reference) for d in dists]
    files = emit_report(profiles, dists, {"note": "test"})
    assert {key: name for key, (name, _) in files.items()} == {
        "ratios": "ratios.csv", "distributions": "distributions.csv", "report": "report.json"
    }

    ratio_lines = files["ratios"][1].splitlines()
    header = ratio_lines[0].split(",")
    assert header[0] == "dataset"
    assert sorted(header[1:]) == list(regions)
    datasets = [line.split(",")[0] for line in ratio_lines[1:]]
    assert sorted(datasets) == ["ref", "t1", "t2", "t3"]
    # the similar pair sits adjacent after clustering
    assert abs(datasets.index("t1") - datasets.index("t2")) == 1

    doc = json.loads(files["report"][1])
    assert doc["distance"] == "canberra"
    assert doc["linkage"] == "average"
    assert doc["provenance"] == {"note": "test"}
    assert doc["datasets"]["ref"]["ratios"] == {"A": 1.0, "B": 1.0, "C": 1.0}


def test_emit_report_deterministic_bytes():
    regions = ("A", "B")
    reference = make_distribution("ref", regions, [40.0, 60.0])
    target = make_distribution("t", regions, [70.0, 30.0])
    dists = [reference, target]
    profiles = [representation_ratios(d, reference) for d in dists]
    first = emit_report(profiles, dists)
    second = emit_report(profiles, dists)
    for key in first:
        assert first[key][1].encode("utf-8") == second[key][1].encode("utf-8")
