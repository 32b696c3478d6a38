"""Split, training, classification and evaluation."""

import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

from onoma import classifier, features
from onoma.classifier import (
    EvalReport,
    Labeled,
    TrainedModel,
    classify,
    classify_batch,
    classify_rows,
    evaluate,
    render_labeled_tsv,
    split,
    train,
)
from onoma.correction import ConfusionCounts
from onoma.errors import ConfigError, SurnameError
from onoma.features import NGramConfig, build_vocabulary, featurize
from onoma.resources import reference_confusion_path
import reference

CHAR1 = NGramConfig(n_values=(1,), pad_boundaries=False)
BIGRAM = NGramConfig(n_values=(2,), pad_boundaries=False)

# Per-region metrics published for the bundled confusion fixture, to two
# decimal places, in region order.
FIXTURE_PRECISION = {
    "African": 0.43,
    "Arabian": 0.52,
    "Asian": 0.61,
    "CS-European": 0.81,
    "Indian": 0.63,
    "N-European": 0.78,
    "Slavic": 0.64,
}
FIXTURE_RECALL = {
    "African": 0.61,
    "Arabian": 0.72,
    "Asian": 0.77,
    "CS-European": 0.71,
    "Indian": 0.72,
    "N-European": 0.62,
    "Slavic": 0.84,
}
FIXTURE_SUPPORT = {
    "African": 4529,
    "Arabian": 4596,
    "Asian": 6754,
    "CS-European": 28668,
    "Indian": 10067,
    "N-European": 32469,
    "Slavic": 9843,
}


def nb_oracle_scores(train_set, alpha, config, surname):
    """Direct evaluation of the multinomial NB formula with plain dicts.

    Independent of the trained-model code path: recomputes the vocabulary,
    counts, smoothing and log scores from scratch.
    """
    regions = sorted({r for _, r in train_set})
    vocab = sorted({t for s, _ in train_set for t in reference.extract(s, config)})
    counts = {r: {t: 0 for t in vocab} for r in regions}
    names = {r: 0 for r in regions}
    for s, r in train_set:
        names[r] += 1
        for t, c in reference.extract(s, config).items():
            counts[r][t] += c
    total_names = sum(names.values())
    scores = {}
    for r in regions:
        region_total = sum(counts[r].values())
        score = math.log(names[r] / total_names)
        for t, c in reference.extract(surname, config).items():
            if t in counts[r]:
                score += c * math.log(
                    (counts[r][t] + alpha) / (region_total + alpha * len(vocab))
                )
        scores[r] = score
    return scores


def as_pairs(names, labeled):
    """A `Labeled` over rows of a matrix of `names` as (surname, region) pairs."""
    return [(names[r], labeled.regions[g]) for r, g in zip(labeled.rows, labeled.region)]


def split_pairs(pairs, train_fraction, seed):
    """`split` on (surname, region) pairs; both parts come back as pairs."""
    names, labeled = Labeled.from_pairs(pairs)
    train_set, eval_set = split(labeled, train_fraction, seed)
    return as_pairs(names, train_set), as_pairs(names, eval_set)


def train_on(train_set, alpha, config, **options):
    """`train` on a feature matrix of exactly the training names."""
    names, labeled = Labeled.from_pairs(train_set)
    return train(labeled, featurize(names, config), alpha, **options)


def evaluate_pairs(model, eval_set):
    """`evaluate` on (surname, region) pairs of normalized surnames."""
    names, labeled = Labeled.from_pairs(eval_set)
    return evaluate(model, labeled, featurize(names, model.feature_config))


def random_nb_instance(rng):
    n_regions = rng.randint(2, 5)
    regions = [f"G{i}" for i in range(n_regions)]
    letters = "abcd"  # <= 16 distinct unpadded bigrams
    names = []
    for _ in range(rng.randint(n_regions, 50)):
        surname = "".join(rng.choice(letters) for _ in range(rng.randint(2, 6)))
        names.append((surname, rng.choice(regions)))
    for i, region in enumerate(regions):  # every region present
        names[i] = (names[i][0], region)
    return names


def separable_training_set():
    return [
        ("aaba", "A"),
        ("abaa", "A"),
        ("aaab", "A"),
        ("bbab", "B"),
        ("babb", "B"),
        ("bbba", "B"),
    ]


# ---------------------------------------------------------------- split


def test_split_fraction_and_sizes():
    labeled = [(f"name{i:03d}", "R") for i in range(100)]
    train_set, eval_set = split_pairs(labeled, 0.85, seed=1)
    assert len(train_set) == 85
    assert len(eval_set) == 15


def test_split_deterministic_and_seed_sensitive():
    labeled = [(f"name{i:03d}", "R") for i in range(40)]
    assert split_pairs(labeled, 0.85, seed=7) == split_pairs(labeled, 0.85, seed=7)
    assert split_pairs(labeled, 0.85, seed=7) != split_pairs(labeled, 0.85, seed=8)


def test_split_stratified_disjoint_exhaustive():
    rng = random.Random(2)
    labeled = [(f"n{i}", rng.choice(["A", "B", "C"])) for i in range(200)]
    labeled = list(dict.fromkeys(labeled))
    train_set, eval_set = split_pairs(labeled, 0.7, seed=3)
    assert not (set(train_set) & set(eval_set))
    assert sorted(train_set + eval_set) == sorted(labeled)
    for region in ("A", "B", "C"):
        n = sum(1 for _, r in labeled if r == region)
        got = sum(1 for _, r in train_set if r == region)
        assert got == math.ceil(0.7 * n)


def test_split_input_order_irrelevant():
    labeled = [(f"n{i}", "AB"[i % 2]) for i in range(60)]
    shuffled = labeled[:]
    random.Random(0).shuffle(shuffled)
    assert split_pairs(labeled, 0.8, seed=5) == split_pairs(shuffled, 0.8, seed=5)


def parent_split(labeled, train_fraction, seed):
    """The split over (surname, region) pairs that the positional one replaced."""
    from onoma.util import derive_seed

    by_region = {}
    for surname, region in labeled:
        by_region.setdefault(region, []).append(surname)
    train_set, eval_set = [], []
    for region in sorted(by_region):
        names = sorted(by_region[region])
        random.Random(derive_seed(seed, f"split:{region}")).shuffle(names)
        cut = math.ceil(train_fraction * len(names))
        train_set.extend((name, region) for name in names[:cut])
        eval_set.extend((name, region) for name in names[cut:])
    return sorted(train_set), sorted(eval_set)


def test_split_equals_the_split_of_names():
    # Shuffling rows draws as shuffling the sorted names did; repeated
    # surnames, also in two regions, keep their places too.
    rng = random.Random(14)
    for trial in range(40):
        regions = ["R", "S", "T"][: rng.randint(1, 3)]
        labeled = [(f"n{rng.randint(0, 90)}", rng.choice(regions)) for _ in range(120)]
        labeled += [(f"m{i}", region) for i, region in enumerate(regions * 2)]
        rng.shuffle(labeled)
        fraction, seed = rng.choice([0.5, 0.7, 0.85]), rng.randint(0, 10**6)
        expected = parent_split(labeled, fraction, seed)
        assert split_pairs(labeled, fraction, seed) == expected, trial


def test_labeled_validation():
    with pytest.raises(ValueError, match="sorted and distinct"):
        Labeled([0, 1], [0, 1], ("B", "A"))
    with pytest.raises(ValueError, match="out of range"):
        Labeled([0, 1], [0, 2], ("A", "B"))
    with pytest.raises(ValueError, match="differ in length"):
        Labeled([0, 1], [0], ("A",))
    names, labeled = Labeled.from_pairs([("b", "Y"), ("a", "X"), ("b", "X")])
    assert names == ("a", "b") and labeled.regions == ("X", "Y")
    assert as_pairs(names, labeled) == [("b", "Y"), ("a", "X"), ("b", "X")]


def test_split_validation():
    with pytest.raises(ValueError, match="fewer than 2"):
        split_pairs([("a", "R"), ("b", "S"), ("c", "S")], 0.85, seed=1)
    with pytest.raises(ValueError, match="train_fraction"):
        split_pairs([("a", "R"), ("b", "R")], 1.0, seed=1)


# ---------------------------------------------------------------- train


def test_train_equal_priors():
    model = train_on([("ab", "X"), ("ba", "Y")], 0.1, BIGRAM)
    assert np.allclose(model.log_priors, math.log(0.5))


def test_train_smoothing_only_region():
    # Region Y's only token misses the min_df=2 cut, leaving it with zero
    # in-vocabulary tokens: every likelihood is alpha / (alpha * |V|) = 0.5.
    train_set = [("xy", "X"), ("yx", "X"), ("qq", "Y")]
    model = train_on(train_set, 0.1, CHAR1, min_df=2)
    assert model.vocabulary == ("x", "y")
    y_row = np.exp(model.log_likelihoods[list(model.regions).index("Y")])
    assert y_row == pytest.approx([0.5, 0.5], abs=1e-12)


def test_train_likelihood_arithmetic():
    # Single region surname xxxy: counts x:3 y:1, alpha 0.1, |V| = 2
    model = train_on([("xxxy", "X"), ("yy", "Z")], 0.1, CHAR1)
    x_index = model.vocabulary.index("x")
    row = np.exp(model.log_likelihoods[list(model.regions).index("X")])
    assert row[x_index] == pytest.approx(3.1 / 4.2, abs=1e-12)


def test_train_validation():
    with pytest.raises(ValueError, match="alpha"):
        train_on([("ab", "X")], 0.0, BIGRAM)
    with pytest.raises(ValueError, match="empty training set"):
        train_on([], 0.1, BIGRAM)


def test_train_reads_only_the_training_rows_of_a_larger_matrix():
    rng = random.Random(12)
    names, train_set = Labeled.from_pairs(random_nb_instance(rng))
    exact = train(train_set, featurize(names, BIGRAM), 0.1, min_df=2)
    shifted = Labeled(train_set.rows + 1, train_set.region, train_set.regions)
    larger = train(shifted, featurize(["zzzz", *names, "dcdc"], BIGRAM), 0.1, min_df=2)
    assert larger.to_json() == exact.to_json()
    with pytest.raises(ValueError, match="outside the feature matrix"):
        train(train_set, featurize(names[1:], BIGRAM), 0.1)


def test_model_invariants_hold():
    rng = random.Random(9)
    model = train_on(random_nb_instance(rng), 0.1, BIGRAM)
    assert math.exp(np.logaddexp.reduce(model.log_priors)) == pytest.approx(1.0, abs=1e-9)
    for row in model.log_likelihoods:
        assert np.exp(row).sum() == pytest.approx(1.0, abs=1e-9)


def test_model_alpha_has_the_configs_range():
    """An infinite alpha is out of the model's range, as it is out of the
    pipeline config's: both fields declare one rule."""
    from onoma.stages import PipelineConfig

    model_alpha, config_alpha = (next(f for f in dataclasses.fields(cls) if f.name == "alpha")
                                 for cls in (TrainedModel, PipelineConfig))
    assert model_alpha.metadata["rule"][0] == config_alpha.metadata["rule"][0] == "> 0 and finite"
    cells = (("A", "B"), ("ab",), np.log([0.5, 0.5]), np.zeros((2, 1)))
    with pytest.raises(ConfigError, match="^alpha must be > 0 and finite, got inf$"):
        TrainedModel(*cells, math.inf, NGramConfig())
    assert TrainedModel(*cells, 1, NGramConfig()).alpha == 1.0


@pytest.mark.parametrize("field", ["alpha", "log_priors", "log_likelihoods"])
def test_model_rejects_a_nan(field):
    model = train_on(separable_training_set(), 0.1, BIGRAM)
    value = math.nan if field == "alpha" else getattr(model, field).copy()
    if field != "alpha":
        value.flat[0] = math.nan
    with pytest.raises(ValueError):
        dataclasses.replace(model, **{field: value})


# ---------------------------------------------------------------- classify


def test_classify_separable():
    model = train_on(separable_training_set(), 0.1, BIGRAM)
    assert classify(model, "aaa").label == "A"
    assert classify(model, "bbb").label == "B"


def test_classify_prior_only_flag():
    model = train_on([("aa", "A"), ("aa b", "B"), ("bb", "B")], 0.1, BIGRAM)
    result = classify(model, "zzz")
    assert result.prior_only
    # priors: A 1/3, B 2/3 -> argmax prior
    assert result.label == "B"
    known = classify(model, "aaa")
    assert not known.prior_only


def test_classify_posterior_sums_to_one():
    rng = random.Random(10)
    model = train_on(random_nb_instance(rng), 0.1, BIGRAM)
    for _ in range(30):
        surname = "".join(rng.choice("abcd") for _ in range(rng.randint(2, 8)))
        result = classify(model, surname)
        assert result.posterior.sum() == pytest.approx(1.0, abs=1e-9)
        assert result.posterior.min() >= 0


def test_classify_label_invariant_to_score_shift():
    rng = random.Random(23)
    model = train_on(random_nb_instance(rng), 0.1, BIGRAM)
    for _ in range(20):
        surname = "".join(rng.choice("abcd") for _ in range(3))
        result = classify(model, surname)
        shifted = result.scores + 123.456
        best = shifted.max()
        label = min(model.regions[i] for i in range(len(shifted)) if shifted[i] == best)
        assert label == result.label


def test_classify_normalizes_input():
    model = train_on(separable_training_set(), 0.1, BIGRAM)
    assert classify(model, "  AAA ").label == "A"
    with pytest.raises(ValueError, match="empty"):
        classify(model, "   ")


def test_classify_matches_brute_force_oracle():
    rng = random.Random(77)
    for _ in range(20):
        train_set = random_nb_instance(rng)
        alpha = rng.choice([0.1, 0.5, 1.0])
        model = train_on(train_set, alpha, BIGRAM)
        names = ["".join(rng.choice("abcd") for _ in range(rng.randint(2, 7))) for _ in range(10)]
        # Each model's names in one batch; `classify` on the first of them.
        labels, _, batch_scores = classify_batch(model, names)
        one = classify(model, names[0])
        results = [(model.regions[i], row) for i, row in zip(labels, batch_scores)]
        results.append((one.label, one.scores))
        for surname, (label, scores) in zip([*names, names[0]], results):
            expected = nb_oracle_scores(train_set, alpha, BIGRAM, surname)
            for region, score in zip(model.regions, scores):
                assert score == pytest.approx(expected[region], abs=1e-9)
            # Labels must agree whenever the top two scores are clearly apart;
            # on effective ties either winner satisfies the contract.
            ranked = sorted(expected.values(), reverse=True)
            if len(ranked) < 2 or ranked[0] - ranked[1] > 1e-6:
                best = max(expected.values())
                assert label == min(r for r, s in expected.items() if s == best)


@pytest.fixture(scope="module")
def spec_model():
    """A model trained on a synthetic corpus, and its held-out names."""
    from onoma.synth import generate, standard_spec

    _, truth = generate(standard_spec(4, 2, 80, 0.3, seed=13))
    train_set, eval_set = split_pairs(sorted(truth.items()), 0.8, seed=2)
    return train_on(train_set, 0.1, NGramConfig()), [surname for surname, _ in eval_set]


def assert_batch_matches_classify(model, names, features=None):
    """`classify_batch`, or `classify_rows` over the first rows of `features`,
    agrees with the per-name reference `classify` on every name."""
    if features is None:
        labels, prior_only, scores = classify_batch(model, names)
    else:
        labels, prior_only, scores = classify_rows(model, features, range(len(names)))
    assert len(labels) == len(prior_only) == len(scores) == len(names)
    for i, name in enumerate(names):
        expected = reference.classify(model, name)
        assert model.regions[labels[i]] == expected.label, name
        assert prior_only[i] == expected.prior_only, name
        assert np.allclose(scores[i], expected.scores, rtol=0, atol=1e-9), name


def test_classify_batch_matches_classify_loop(spec_model):
    model, held_out = spec_model
    unknown = ["ÿ", "éñ ÿü"]  # no in-vocabulary token
    names = held_out + unknown
    names += [f"{a} {b}" for a, b in zip(held_out[:20], held_out[20:40])]  # multi-word
    names += held_out[:10]  # duplicates
    names += [f"  {n.upper()} " for n in held_out[40:50]]  # case and whitespace variants
    names += [f"{a}   {b}" for a, b in zip(held_out[:5], held_out[5:10])]
    assert_batch_matches_classify(model, names)
    assert classify_batch(model, unknown)[1].all()


def test_classify_batch_reads_rows_from_a_shared_matrix(spec_model):
    model, held_out = spec_model
    shared = featurize(held_out + ["zzz"], model.feature_config)
    assert_batch_matches_classify(model, held_out, shared)
    # A given matrix is authoritative: a row it lacks, or another n-gram
    # config, is an error, not a reason to featurize afresh.
    with pytest.raises(ValueError, match="row outside the feature matrix"):
        classify_rows(model, shared, [0, len(held_out) + 1])
    with pytest.raises(ValueError, match="row outside the feature matrix"):
        classify_rows(model, shared, [-1])
    with pytest.raises(ValueError, match="another n-gram config"):
        classify_rows(model, featurize(held_out, BIGRAM), range(len(held_out)))


def test_classify_batch_rejects_reserved_marker_and_empty(spec_model):
    model, held_out = spec_model
    # A SurnameError, which the command line reports as an input error.
    with pytest.raises(SurnameError, match="marker"):
        classify_batch(model, [held_out[0], "ab^c"])
    with pytest.raises(SurnameError, match="empty"):
        classify_batch(model, [held_out[0], "   "])


def test_classify_batch_exact_tie_goes_to_first_region():
    # Both regions see the same names: identical priors and likelihoods.
    model = train_on([("ab", "B"), ("ab", "A"), ("cd", "A"), ("cd", "B")], 0.1, BIGRAM)
    names = ["ab", "cdab", "zz"]
    labels, _, scores = classify_batch(model, names)
    assert np.all(scores[:, 0] == scores[:, 1])
    assert [model.regions[i] for i in labels] == ["A", "A", "A"]
    assert_batch_matches_classify(model, names)


# ---------------------------------------------------------------- evaluate


def test_evaluate_perfect_classifier():
    train_set = separable_training_set()
    model = train_on(train_set, 0.1, BIGRAM)
    report = evaluate_pairs(model, train_set)
    assert np.array_equal(report.confusion, np.diag([3, 3]))
    assert np.allclose(report.precision, 1.0)
    assert np.allclose(report.recall, 1.0)
    assert report.accuracy == 1.0


def test_evaluate_rejects_unknown_labels():
    model = train_on(separable_training_set(), 0.1, BIGRAM)
    with pytest.raises(ValueError, match="unknown to the model"):
        evaluate_pairs(model, [("aaa", "Z")])


def test_fixture_reproduces_published_metrics():
    counts = ConfusionCounts.from_csv(reference_confusion_path())
    report = EvalReport.from_confusion(counts.regions, counts.matrix)
    for region, expected in FIXTURE_PRECISION.items():
        i = report.regions.index(region)
        assert round(float(report.precision[i]), 2) == expected
    for region, expected in FIXTURE_RECALL.items():
        i = report.regions.index(region)
        assert round(float(report.recall[i]), 2) == expected
    for region, expected in FIXTURE_SUPPORT.items():
        i = report.regions.index(region)
        assert int(report.support[i]) == expected


def test_fixture_spot_values():
    counts = ConfusionCounts.from_csv(reference_confusion_path())
    report = EvalReport.from_confusion(counts.regions, counts.matrix)
    i = report.regions.index("African")
    assert report.confusion[i].sum() == 6448
    assert float(report.precision[i]) == pytest.approx(2763 / 6448, abs=1e-12)
    j = report.regions.index("Slavic")
    assert float(report.recall[j]) == pytest.approx(8250 / 9843, abs=1e-12)
    # Arabian names guessed Asian in 2.46% of cases
    asian, arabian = report.regions.index("Asian"), report.regions.index("Arabian")
    share = report.confusion[asian, arabian] / report.confusion[:, arabian].sum()
    assert round(float(share) * 100, 2) == 2.46


def test_empty_row_precision_guard():
    # Region A never guessed: precision falls back to 0 instead of dividing by 0.
    confusion = np.array([[0, 0], [3, 2]])
    report = EvalReport.from_confusion(("A", "B"), confusion)
    assert report.precision[0] == 0.0
    assert report.recall[0] == 0.0
    assert report.support[0] == 3
    assert report.precision[1] == pytest.approx(2 / 5)
    assert report.recall[1] == 1.0


# ---------------------------------------------------------------- chunked passes


@pytest.fixture(scope="module")
def chunk_fixture():
    """A matrix of four regions' synthetic names plus two with no known
    n-gram, its labeled rows split in two, and rows to score with repeats."""
    from onoma.synth import generate, standard_spec

    _, truth = generate(standard_spec(4, 2, 40, 0.3, seed=13))
    names, labeled = Labeled.from_pairs(sorted(truth.items()))
    matrix = featurize(names + ("ÿ", "éñ ÿü"), NGramConfig())
    train_set, eval_set = split(labeled, 0.8, seed=2)
    rows = np.random.default_rng(4).permutation(len(matrix.names))
    return matrix, train_set, eval_set, np.concatenate([rows, rows[:7]])


def chunked_results(matrix, train_set, eval_set, rows):
    model = train(train_set, matrix, 0.1, min_df=2)
    return (
        build_vocabulary(train_set.rows, matrix, min_df=2),
        model.to_json(),
        classify_rows(model, matrix, rows),
        evaluate(model, eval_set, matrix).to_json(),
    )


@pytest.mark.parametrize("rows_per_chunk", [1, 3])
def test_chunked_passes_equal_one_chunk_bit_for_bit(chunk_fixture, monkeypatch, rows_per_chunk):
    matrix, train_set, eval_set, rows = chunk_fixture
    assert len(set(train_set.region.tolist())) == 4
    monkeypatch.setattr(features, "_VOCAB_CHUNK", len(matrix.names))
    monkeypatch.setattr(classifier, "_ROW_CHUNK", len(rows))
    vocabulary, model, (labels, prior_only, scores), report = chunked_results(*chunk_fixture)
    assert prior_only.sum() == 2
    monkeypatch.setattr(features, "_VOCAB_CHUNK", rows_per_chunk)
    monkeypatch.setattr(classifier, "_ROW_CHUNK", rows_per_chunk)
    chunked = chunked_results(*chunk_fixture)
    assert chunked[0] == vocabulary
    assert chunked[1] == model
    assert np.array_equal(chunked[2][0], labels)
    assert np.array_equal(chunked[2][1], prior_only)
    assert chunked[2][2].tobytes() == scores.tobytes()
    assert chunked[3] == report


def test_chunked_passes_hold_a_bounded_share_of_the_entries():
    # 40,000 distinct 12-letter names over six letters, in three regions:
    # 39 training and scoring chunks and 10 vocabulary chunks.
    rng = random.Random(5)
    names = sorted({"".join(rng.choices("abcdef", k=12)) for _ in range(40_000)})
    assert len(names) >= 8 * max(features._VOCAB_CHUNK, classifier._ROW_CHUNK)
    matrix = featurize(names, NGramConfig())
    rows = np.arange(len(names))
    labeled = Labeled(rows, rows % 3, ("a", "b", "c"))
    model = train(labeled, matrix, 0.1)
    entries = matrix.ids.nbytes + matrix.counts.nbytes
    runs = {
        "build_vocabulary": lambda: build_vocabulary(rows, matrix),
        "train": lambda: train(labeled, matrix, 0.1),
        "classify_rows": lambda: classify_rows(model, matrix, rows),
    }
    for name, run in runs.items():
        run()  # numpy's lazy set-up stays out of the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Design: a chunk's entries are 1/39 of the matrix, held in a few
        # arrays of at most 8 bytes an entry; the scores and their sorted
        # copy are 2 x 3 regions x 8 bytes a row, against 8 bytes for each
        # of a row's 24 entries. A pass that gathers every entry at once
        # holds at least 1.5 times the entries' bytes.
        assert peak < 0.75 * entries, (name, peak / entries)


# ---------------------------------------------------------------- persistence


def test_model_round_trip_is_bit_exact(tmp_path):
    rng = random.Random(31)
    model = train_on(random_nb_instance(rng), 0.1, NGramConfig())
    path = tmp_path / "model.json"
    model.save(path)
    loaded = TrainedModel.load(path)
    assert loaded.regions == model.regions
    assert loaded.vocabulary == model.vocabulary
    assert np.array_equal(loaded.log_priors, model.log_priors)
    assert np.array_equal(loaded.log_likelihoods, model.log_likelihoods)
    assert loaded.feature_config == model.feature_config
    # and saving again yields identical bytes
    loaded.save(tmp_path / "model2.json")
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()


def test_training_is_deterministic(tmp_path):
    rng = random.Random(32)
    train_set = random_nb_instance(rng)
    train_on(train_set, 0.1, BIGRAM).save(tmp_path / "a.json")
    train_on(train_set, 0.1, BIGRAM).save(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_labeled_tsv_round_trip():
    labeled = [("garcia", "X"), ("tanaka", "Y")]
    # One surname<TAB>region line per labeled row.
    assert render_labeled_tsv(*Labeled.from_pairs(labeled)) == "garcia\tX\ntanaka\tY\n"
