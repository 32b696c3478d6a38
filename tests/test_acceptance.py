"""Acceptance suite: one test per criterion, each printed as a pass line.

Every check runs at its stated tolerance against an oracle that is
independent of the code path it verifies (brute-force recomputation, direct
formula evaluation, or the published fixture). Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import random
import time

import numpy as np

from onoma.classifier import EvalReport, Labeled, classify_batch, train
from onoma.cli import PipelineConfig, read_config, run_pipeline
from onoma.corpus import OccurrenceTable, filter_core_names
from onoma.correction import (
    ConfusionCounts,
    CorrectionOperator,
    correct_counts,
    correction_operator,
    reweight_priors,
)
from onoma.diversity import OriginDistribution, canberra, representation_ratios
from onoma.features import NGramConfig, featurize
from onoma.resources import reference_confusion_path
from onoma.synth import PopulationSpec, score_pipeline, standard_spec
from onoma.typology import agglomerate
import reference
from test_cli import synth_files_config

TABLE_PRECISION = (0.43, 0.52, 0.61, 0.81, 0.63, 0.78, 0.64)
TABLE_RECALL = (0.61, 0.72, 0.77, 0.71, 0.72, 0.62, 0.84)


def passed(name: str, elapsed: float, limit: float) -> None:
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s, limit {limit:g}s)")
    assert elapsed < limit, f"{name} exceeded the runtime limit of {limit}s"


# ------------------------------------------------------------------ 1


def test_criterion_1_table_fixture_consistency():
    start = time.perf_counter()
    counts = ConfusionCounts.from_csv(reference_confusion_path())
    report = EvalReport.from_confusion(counts.regions, counts.matrix)
    for i, (p, r) in enumerate(zip(TABLE_PRECISION, TABLE_RECALL)):
        assert round(float(report.precision[i]), 2) == p, report.regions[i]
        assert round(float(report.recall[i]), 2) == r, report.regions[i]
    # the three spelled-out anchor values
    assert round(2763 / 6448, 2) == 0.43
    assert float(report.precision[report.regions.index("African")]) == 2763 / 6448
    assert round(float(report.recall[report.regions.index("Slavic")]), 2) == 0.84
    assert round(float(report.precision[report.regions.index("Asian")]), 2) == 0.61
    assert float(report.precision[report.regions.index("Asian")]) == 5200 / 8500
    passed("criterion 1 (fixture consistency)", time.perf_counter() - start, 1.0)


# ------------------------------------------------------------------ 2


def _nb_oracle(train_set, alpha, config, surname):
    """Direct multinomial NB formula with plain dicts and math.log."""
    regions = sorted({r for _, r in train_set})
    vocab = sorted({t for s, _ in train_set for t in reference.extract(s, config)})
    token_counts = {r: dict.fromkeys(vocab, 0) for r in regions}
    name_counts = dict.fromkeys(regions, 0)
    for s, r in train_set:
        name_counts[r] += 1
        for token, c in reference.extract(s, config).items():
            token_counts[r][token] += c
    total = sum(name_counts.values())
    scores = {}
    for r in regions:
        region_total = sum(token_counts[r].values())
        denom = region_total + alpha * len(vocab)
        score = math.log(name_counts[r] / total)
        for token, c in reference.extract(surname, config).items():
            if token in token_counts[r]:
                score += c * math.log((token_counts[r][token] + alpha) / denom)
        scores[r] = score
    return scores


def test_criterion_2_nb_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(2024)
    config = NGramConfig(n_values=(2,), pad_boundaries=False)
    for _ in range(100):
        n_regions = rng.randint(2, 5)
        regions = [f"G{i}" for i in range(n_regions)]
        # 4-letter alphabet keeps the unpadded bigram vocabulary at <= 16 tokens
        names = [
            ("".join(rng.choice("abcd") for _ in range(rng.randint(2, 6))),
             rng.choice(regions))
            for _ in range(rng.randint(n_regions, 50))
        ]
        for i, region in enumerate(regions):
            names[i] = (names[i][0], region)
        alpha = rng.choice([0.1, 0.3, 1.0])
        distinct, labeled = Labeled.from_pairs(names)
        model = train(labeled, featurize(distinct, config), alpha)
        assert len(model.vocabulary) <= 20
        surnames = ["".join(rng.choice("abcd") for _ in range(rng.randint(2, 7))) for _ in range(5)]
        _, _, scores = classify_batch(model, surnames)
        for surname, row in zip(surnames, scores):
            expected = _nb_oracle(names, alpha, config, surname)
            for region, score in zip(model.regions, row):
                assert abs(score - expected[region]) <= 1e-9
    passed("criterion 2 (naive Bayes oracle, 100 instances)", time.perf_counter() - start, 10.0)


# ------------------------------------------------------------------ 3


def _ward_oracle(points):
    """O(n^3) Ward: recompute sqrt(2ab/(a+b)) * ||centroid gap|| every step."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    clusters = {i: [i] for i in range(n)}
    merges = []
    for step in range(n - 1):
        best = None
        ids = sorted(clusters)
        for pos, a in enumerate(ids):
            for b in ids[pos + 1:]:
                pa, pb = points[clusters[a]], points[clusters[b]]
                na, nb = len(pa), len(pb)
                d = math.sqrt(2.0 * na * nb / (na + nb)) * float(
                    np.linalg.norm(pa.mean(axis=0) - pb.mean(axis=0))
                )
                if best is None or d < best[0]:
                    best = (d, a, b)
        d, a, b = best
        new_id = n + step
        clusters[new_id] = clusters.pop(a) + clusters.pop(b)
        merges.append((a, b, d, new_id))
    return merges


def test_criterion_3_ward_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(3033)
    for _ in range(50):
        n = rng.randint(2, 10)
        dims = rng.randint(1, 4)
        points = [[rng.gauss(0.0, 1.0) for _ in range(dims)] for _ in range(n)]
        dist = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                dist[i, j] = dist[j, i] = math.dist(points[i], points[j])
        tree = agglomerate([f"p{i}" for i in range(n)], dist, "ward")
        for merge, (a, b, height, new_id) in zip(tree.merges, _ward_oracle(points)):
            assert (merge.a, merge.b, merge.new_id) == (a, b, new_id)
            assert abs(merge.height - height) <= 1e-9
    passed("criterion 3 (Ward oracle, 50 instances)", time.perf_counter() - start, 10.0)


# ------------------------------------------------------------------ 4


def _core_name_oracle(rows, hhi_min, freq_min):
    """Recompute shares and concentration from the raw row list."""
    totals = {}
    for _s, c, n in reversed(rows):
        totals[c] = totals.get(c, 0) + n
    per = {}
    for s, c, n in rows:
        per.setdefault(s, {})
        per[s][c] = per[s].get(c, 0) + n
    selected = set()
    for s, by_country in per.items():
        countries = sorted(by_country)
        freqs = [by_country[c] / totals[c] for c in countries]
        share_total = sum(freqs)
        concentration = sum((f / share_total) ** 2 for f in freqs)
        max_freq = max(freqs)
        if concentration >= hhi_min and max_freq >= freq_min:
            selected.add((s, countries[freqs.index(max_freq)]))
    return selected


def test_criterion_4_core_name_filter_oracle():
    start = time.perf_counter()
    rng = random.Random(4044)
    countries = ["US", "FR", "JP", "CN", "DE", "BR", "IN", "NG", "RU", "ES"]
    for _ in range(100):
        rows = [
            (f"n{rng.randint(0, 300)}", rng.choice(countries), rng.randint(1, 60))
            for _ in range(rng.randint(10, 1000))
        ]
        hhi_min = rng.choice([0.5, 0.8, 0.9])
        freq_min = rng.choice([0.0, 1e-6, 0.01])
        core = filter_core_names(OccurrenceTable(rows), hhi_min, freq_min)
        got = {(n, core.countries[c]) for n, c in zip(core.names, core.country.tolist())}
        assert got == _core_name_oracle(rows, hhi_min, freq_min)
    passed("criterion 4 (core-name filter oracle, 100 tables)", time.perf_counter() - start, 5.0)


# ------------------------------------------------------------------ 5


def test_criterion_5_correction_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(5055)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        regions = tuple(f"G{i}" for i in range(n))
        counts = ConfusionCounts(regions, rng.uniform(0.5, 30.0, size=(n, n)))
        operator = correction_operator(counts)
        assert np.all(np.abs(operator.matrix.sum(axis=1) - 1.0) <= 1e-9)
        guessed = rng.uniform(0.0, 500.0, size=n)
        corrected = correct_counts(guessed, operator)
        assert abs(corrected.sum() - guessed.sum()) <= 1e-9 * max(guessed.sum(), 1.0)
        priors = rng.dirichlet(np.ones(n))
        priors = priors / priors.sum()
        reweighted = reweight_priors(counts, priors)
        assert np.all(np.abs(reweighted.column_sums / reweighted.total - priors) <= 1e-9)
        # fixed point: reweighting by the matrix's own column shares
        again = reweight_priors(counts, counts.column_sums / counts.total)
        assert np.all(np.abs(again.matrix - counts.matrix) <= 1e-12 * counts.matrix.max())
    # identity operator is exact
    identity = correction_operator(ConfusionCounts(("A", "B"), np.diag([4.0, 6.0])))
    assert np.array_equal(identity.matrix, np.eye(2))
    assert np.array_equal(correct_counts([10.0, 20.0], identity), [10.0, 20.0])
    passed("criterion 5 (correction algebra)", time.perf_counter() - start, 1.0)


# ------------------------------------------------------------------ 6


def test_criterion_6_synthetic_end_to_end():
    start = time.perf_counter()
    cards = [
        score_pipeline(standard_spec(7, 3, 500, 0.3, seed=seed))
        for seed in range(10)
    ]
    regions = cards[0]["true_regions"]
    for region in regions:
        mean_recall = float(np.mean([card["recall"][region] for card in cards]))
        assert mean_recall >= 0.7, (region, mean_recall)
    correction_wins = sum(1 for card in cards if card["l1_corrected"] <= card["l1_raw"])
    assert correction_wins >= 8, correction_wins
    partition_hits = sum(1 for card in cards if card["partition_exact"])
    assert partition_hits >= 8, partition_hits
    passed("criterion 6 (synthetic end-to-end, 10 seeds)", time.perf_counter() - start, 120.0)


# ------------------------------------------------------------------ 7


def test_criterion_7_diversity_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(7077)
    regions = tuple(f"G{i}" for i in range(7))
    counts = rng.uniform(1.0, 100.0, size=7)
    dist = OriginDistribution("self", regions, counts, counts / counts.sum(), 100, 0)
    profile = representation_ratios(dist, dist)
    assert all(ratio == 1.0 for ratio in profile.ratios)
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        p = rng.uniform(0.0, 10.0, size=n) * (rng.random(n) > 0.2)
        q = rng.uniform(0.0, 10.0, size=n) * (rng.random(n) > 0.2)
        d = canberra(p, q)
        assert d >= 0.0
        assert d == canberra(q, p)
        assert (d == 0.0) == bool(np.array_equal(p, q))
    passed("criterion 7 (diversity identities)", time.perf_counter() - start, 1.0)


# ------------------------------------------------------------------ 8


def _pipeline_config(tmp_path, out_name: str) -> PipelineConfig:
    d = tmp_path / out_name
    d.mkdir()
    spec = standard_spec(
        5, 3, 200, 0.3, seed=808,
        populations=(PopulationSpec("reference", 800, (1.0, 2.0, 4.0, 8.0, 2.0)),
                     PopulationSpec("target", 500, (8.0, 4.0, 2.0, 1.0, 2.0))),
    )
    return read_config(synth_files_config(d, spec, k_regions=5, min_core_names=10), {})


def test_criterion_8_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    first = run_pipeline(_pipeline_config(tmp_path, "run_a"))
    second = run_pipeline(_pipeline_config(tmp_path, "run_b"))
    compared = 0
    for key in ("model", "operator", "ratios", "distributions", "report",
                "eval_report", "confusion", "summary"):
        assert first[key].read_bytes() == second[key].read_bytes(), key
        compared += 1
    assert compared == 8
    passed("criterion 8 (pipeline determinism)", time.perf_counter() - start, 120.0)


# ------------------------------------------------------------------ 9


def test_criterion_9_scale_sanity(tmp_path):
    start = time.perf_counter()
    # 7 x 5 x 2858 = 100,030 generated names
    spec = standard_spec(
        7, 5, 2858, 0.3, seed=909,
        populations=(PopulationSpec("reference", 2000, (1.0, 2.0, 4.0, 8.0, 1.0, 2.0, 4.0)),),
    )
    artifacts = run_pipeline(read_config(synth_files_config(tmp_path, spec, k_regions=7), {}))
    elapsed = time.perf_counter() - start
    core_lines = artifacts["core"].read_text(encoding="utf-8").count("\n")
    assert core_lines > 50000  # the corpus really was large
    passed("criterion 9 (100k-name scale sanity)", elapsed, 60.0)
